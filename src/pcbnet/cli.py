"""Command-line entry point: synth, train, report, and attribute subcommands.

Every run is driven by a JSON config file; selected flags override individual
keys. Artifacts are written atomically and numeric outputs are byte-stable
for identical config and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .attribution import BASELINE, STEPS, integrated_gradients, report_to_html, report_to_json
from .data import (SyntheticGeneratorConfig, generate_synthetic, ingest,
                   write_appraisal_names, write_jsonl)
from .errors import (CapabilityError, ConfigError, DatasetLookupError,
                     PcbnetError, ValidationError)
from .experiment import PCB_TARGETS, ExperimentConfig, MetricsSummary, run_sweep
from .models import (ARCHITECTURES, TEXT, ModelInstance, architecture_spec, load_model,
                     save_model)
from .schema import Spec, specs
from .serialize import atomic_write_text, atomic_writer, output_dir, read_input, result_json

OUTPUT_ROOT_ENV = "PCBNET_OUT"

METRICS_COLUMNS = ("architecture_id", "family", "pcb_target", "repetition",
                   "accuracy", "f1_weighted", "seed")


# A JSON config may set the declared config fields and the CLI's own keys.
_SYNTH_SPECS = {**specs(SyntheticGeneratorConfig), "seed": Spec("int", ge=0)}
_TRAIN_SPECS = {**specs(ExperimentConfig), "dataset": Spec("str"), "sweep": Spec("bool")}


def _default_out() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def _load_json_config(path: str | None, allowed: dict[str, Spec], what: str) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(read_input(path, f"{what} config"))
    except (ValueError, RecursionError) as exc:  # also an over-long integer, deep nesting
        raise ConfigError(f"{what} config {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} config must be a JSON object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {sorted(unknown)}")
    for key, value in obj.items():
        allowed[key].check(key, value)
    return obj


def cmd_synth(args: argparse.Namespace) -> int:
    raw = _load_json_config(args.config, _SYNTH_SPECS, "synth")
    seed = raw.pop("seed", 0)
    if args.seed is not None:
        seed = _SYNTH_SPECS["seed"].check("--seed", args.seed)
    cfg = SyntheticGeneratorConfig(**raw)
    records = generate_synthetic(cfg, seed)
    out = Path(args.out)
    write_jsonl(records, out)
    sidecar = out.with_suffix("").with_name(out.stem + ".appraisal_names.txt")
    write_appraisal_names(sidecar)
    print(f"wrote {len(records)} records to {out} (sidecar: {sidecar})")
    return 0


def sweep_configs(keys: dict) -> list[ExperimentConfig]:
    """The sweep: every architecture on every PCB target, with the fields ``keys`` sets."""
    return [ExperimentConfig(**{**keys, "architecture": spec.id, "pcb_target": target})
            for spec in ARCHITECTURES for target in PCB_TARGETS]


def cmd_train(args: argparse.Namespace) -> int:
    raw = _load_json_config(args.config, _TRAIN_SPECS, "train")
    if "dataset" not in raw:
        raise ConfigError("train config must name a 'dataset' file")
    dataset_path = raw.pop("dataset")
    if args.seed is not None:
        raw["base_seed"] = args.seed
    # every config is built, and so checked, before the dataset is read; the
    # dataset, every split and every embedding file before the output directory is made
    workers = Spec("int", ge=1).check("--workers", args.workers)
    if raw.pop("sweep", False) or args.sweep:
        configs = sweep_configs(raw)
    elif "architecture" in raw:
        configs = [ExperimentConfig(**raw)]
    else:
        raise ConfigError("train config must set 'architecture' (or use --sweep)")

    started = time.time()
    results = run_sweep(ingest(dataset_path), configs, workers)
    write_run(args.out or _default_out(), dataset_path, configs, results, started)
    return 0


def write_run(out: str | Path, dataset_path: str | Path, configs: list[ExperimentConfig],
              results: Iterable[tuple[MetricsSummary, ModelInstance]],
              started: float) -> list[dict]:
    """A run's files under directory ``out``, which it makes: each config's
    checkpoint as ``results`` yields it, then ``metrics.csv``, ``summary.json``
    and ``manifest.json``. Returns the metrics rows."""
    out_dir = output_dir(out)
    all_rows: list[dict] = []
    summaries: dict[str, dict] = {}
    checkpoints: list[str] = []
    config_snapshots: list[dict] = []
    for cfg, (summary, model) in zip(configs, results):
        arch_id, target = cfg.architecture, cfg.pcb_target
        tag = f"arch{arch_id:02d}_{target}"
        checkpoint = out_dir / f"checkpoint_{tag}.params"
        save_model(checkpoint, model, meta={"pcb_target": cfg.pcb_target})
        counts = [r.class_counts for r in summary.rows]  # the splits are not stratified
        all_rows.extend({"architecture_id": arch_id, "family": architecture_spec(arch_id).family,
                         "pcb_target": target, "repetition": r.repetition,
                         "accuracy": repr(r.accuracy), "f1_weighted": repr(r.f1_weighted),
                         "seed": r.seed} for r in summary.rows)
        summaries[tag] = {
            "architecture_id": arch_id,
            "pcb_target": target,
            "mean_accuracy": summary.mean_accuracy,
            "std_accuracy": summary.std_accuracy,
            "mean_f1": summary.mean_f1,
            "std_f1": summary.std_f1,
            "std_kind": "population",
            "repetitions": cfg.repetitions,
            "class_counts_low_moderate_high":
                counts if cfg.resplit_each_repetition else counts[0],
            "auxiliary_diagnostics": [r.diagnostics for r in summary.rows],
        }
        checkpoints.append(str(checkpoint))
        config_snapshots.append({**asdict(cfg), "dataset": str(dataset_path)})
        print(f"{tag}: accuracy {summary.mean_accuracy:.4f} "
              f"({summary.std_accuracy:.4f}), f1 {summary.mean_f1:.4f} "
              f"({summary.std_f1:.4f})")

    metrics_path = out_dir / "metrics.csv"
    with atomic_writer(metrics_path) as fh:
        writer = csv.DictWriter(fh, METRICS_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(all_rows)
    summary_path = out_dir / "summary.json"
    atomic_write_text(summary_path, result_json(summaries, str(summary_path)) + "\n")
    manifest = {
        "tool_version": __version__,
        "configs": config_snapshots,
        "seeds": sorted({int(row["seed"]) for row in all_rows}),
        "artifacts": {
            "metrics_csv": str(metrics_path),
            "summary_json": str(summary_path),
            "checkpoints": checkpoints,
        },
        "duration_seconds": time.time() - started,
    }
    manifest_path = out_dir / "manifest.json"
    atomic_write_text(manifest_path, result_json(manifest, str(manifest_path)) + "\n")
    print(f"wrote {metrics_path} ({len(all_rows)} rows)")
    return all_rows


_FAMILY_ORDER = tuple(dict.fromkeys(spec.family for spec in ARCHITECTURES))


def _mean_std(values: list[float]) -> str:
    arr = np.asarray(values)
    return f"{arr.mean():.3f} ({arr.std():.3f})"


def render_report(rows: list[dict]) -> str:
    """Aligned table: families x models, mean (std) cells per PCB target."""
    by_key: dict[tuple[int, str], dict[str, list[float]]] = {}
    for row in rows:
        key = (int(row["architecture_id"]), row["pcb_target"])
        cell = by_key.setdefault(key, {"accuracy": [], "f1": []})
        cell["accuracy"].append(float(row["accuracy"]))
        cell["f1"].append(float(row["f1_weighted"]))

    name_width = 42
    col = 16
    header = (f"{'Model':<{name_width}}"
              + "".join(f"{h:<{col}}" for h in
                        ["repurchase acc", "repurchase f1",
                         "promote acc", "promote f1"]))
    lines = [header, "-" * len(header)]
    gaps: list[str] = []
    for family in _FAMILY_ORDER:
        lines.append(family)
        for spec in [s for s in ARCHITECTURES if s.family == family]:
            cells = []
            for target in PCB_TARGETS:
                cell = by_key.get((spec.id, target))
                if cell is None:
                    cells.extend(["--", "--"])
                    gaps.append(f"architecture {spec.id} / {target}")
                else:
                    cells.extend([_mean_std(cell["accuracy"]), _mean_std(cell["f1"])])
            lines.append(f"  {spec.name:<{name_width - 2}}"
                         + "".join(f"{c:<{col}}" for c in cells))
    if gaps:
        lines.append("")
        lines.append("missing results: " + "; ".join(gaps))
    return "\n".join(lines) + "\n"


def _metrics_rows(csv_path: Path) -> list[dict]:
    """The rows of a CSV that carry every metrics column, their numbers checked."""
    reader = csv.DictReader(io.StringIO(read_input(csv_path, "metrics CSV"), newline=""))
    rows = []
    try:
        for row in reader:
            if not set(METRICS_COLUMNS) <= set(row):
                continue
            try:
                int(row["architecture_id"]), float(row["accuracy"]), float(row["f1_weighted"])
            except (TypeError, ValueError):  # a short row reads None
                raise ValidationError(
                    f"{csv_path}: line {reader.line_num}: architecture_id, accuracy "
                    "and f1_weighted must be numbers") from None
            rows.append(row)
    except csv.Error as exc:
        raise ValidationError(f"{csv_path}: line {reader.line_num}: {exc}") from None
    return rows


def cmd_report(args: argparse.Namespace) -> int:
    metrics_dir = Path(args.metrics_dir)
    if not metrics_dir.is_dir():
        raise ConfigError(f"metrics directory not found: {metrics_dir}")
    rows: list[dict] = []
    for csv_path in sorted(metrics_dir.glob("*.csv")):
        rows.extend(_metrics_rows(csv_path))
    if not rows:
        print("no results")
        return 0
    table = render_report(rows)
    print(table, end="")
    if args.out:
        atomic_write_text(args.out, table)
    return 0


def cmd_attribute(args: argparse.Namespace) -> int:
    # the arguments, then the inputs, are checked before any output is made
    steps = STEPS.check("--steps", args.steps)
    wanted = [rid for chunk in args.records for rid in chunk.split(",") if rid]
    if not wanted:
        raise ConfigError("no record ids given")
    model, meta = load_model(args.checkpoint)
    if TEXT not in model.spec.input_modalities:
        raise CapabilityError(
            f"checkpoint is architecture {model.spec.id} "
            f"({model.spec.name}), which has no text input")
    records = {r.id: r for r in ingest(args.dataset)}
    for rid in wanted:
        if rid not in records:
            raise DatasetLookupError(f"record id {rid!r} not found in {args.dataset}")
    out_dir = output_dir(args.out or _default_out() / "attributions")
    pcb_target = meta.get("pcb_target", "promote")
    target_class = "predicted" if args.target == "predicted" else None
    for rid in wanted:
        report = integrated_gradients(model, records[rid], pcb_target=pcb_target,
                                      target_class=target_class,
                                      steps=steps, baseline=args.baseline)
        atomic_write_text(out_dir / f"{rid}.json", report_to_json(report) + "\n")
        atomic_write_text(out_dir / f"{rid}.html", report_to_html(report))
        print(f"wrote {out_dir / rid}.json and .html "
              f"(completeness gap {report.completeness_gap:.2e})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcbnet",
        description="Train, evaluate, and explain post-consumption behavior models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", default=None, help="generator config JSON")
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--out", required=True, help="output JSONL path")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="run the repetition protocol")
    p_train.add_argument("--config", required=True, help="experiment config JSON")
    p_train.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_train.add_argument("--workers", type=int, default=1)
    p_train.add_argument("--out", default=None, help="output directory")
    p_train.add_argument("--sweep", action="store_true",
                         help="train all 12 architectures x 2 PCB targets")
    p_train.set_defaults(func=cmd_train)

    p_report = sub.add_parser("report", help="render the results table")
    p_report.add_argument("metrics_dir", help="directory of metrics CSVs")
    p_report.add_argument("--out", default=None, help="also write the table here")
    p_report.set_defaults(func=cmd_report)

    p_attr = sub.add_parser("attribute", help="integrated-gradients reports")
    p_attr.add_argument("--checkpoint", required=True)
    p_attr.add_argument("--dataset", required=True)
    p_attr.add_argument("--records", action="append", default=[],
                        help="comma-separated record ids (repeatable)")
    p_attr.add_argument("--steps", type=int, default=128)
    p_attr.add_argument("--baseline", default="pad", choices=BASELINE.choices)
    p_attr.add_argument("--target", default="gold", choices=("gold", "predicted"),
                        help="attribute the gold or the predicted class logit")
    p_attr.add_argument("--out", default=None, help="output directory")
    p_attr.set_defaults(func=cmd_attribute)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PcbnetError as exc:
        return print_error(exc)


def print_error(exc: PcbnetError) -> int:
    """``exc`` as the one JSON line a refused command prints on stderr; exit code 1."""
    print(json.dumps({"error": {"category": exc.category, "message": str(exc)}}),
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
