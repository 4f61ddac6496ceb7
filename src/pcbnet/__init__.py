"""Predicting post-consumption behavior from review text, appraisals, and emotions."""

__version__ = "0.1.0"

from .autodiff import Tensor, backward
from .data import (ReviewRecord, SyntheticGeneratorConfig, generate_synthetic,
                   ingest, segment_emotion, segment_pcb, split_records)
from .experiment import ExperimentConfig, MetricsSummary, run_sweep
from .models import ModelInstance, build, describe
from .attribution import AttributionReport, integrated_gradients, rank_tokens

__all__ = [
    "Tensor", "backward",
    "ReviewRecord", "SyntheticGeneratorConfig", "generate_synthetic", "ingest",
    "segment_emotion", "segment_pcb", "split_records",
    "ExperimentConfig", "MetricsSummary", "run_sweep",
    "ModelInstance", "build", "describe",
    "AttributionReport", "integrated_gradients", "rank_tokens",
]
