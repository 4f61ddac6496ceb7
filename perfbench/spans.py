"""Spans around calls into pcbnet's public functions, from outside the program.

``Tracer.install`` replaces each traced function at the place the program
looks it up (a module global or a class attribute) with a wrapper that
records one span: name, start, end, parent span, request id, and for a few
layers a work count (matmul flops, Adam parameter elements). ``uninstall``
puts the originals back. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter

from pcbnet import attribution, autodiff, data, experiment, models, nn, text

AUTODIFF_OPS = ("matmul", "add", "relu", "concat", "masked_mean", "embedding_lookup",
                "cross_entropy", "binary_cross_entropy", "grouped_cross_entropy")

# (span name, namespaces holding the name the program calls, attribute)
TRACED = [
    ("data.generate_synthetic", [data], "generate_synthetic"),
    ("data.ingest", [data], "ingest"),
    ("text.encode_texts", [experiment], "encode_texts"),
    ("experiment.featurize", [experiment], "featurize"),
    ("experiment.compute_loss", [experiment], "compute_loss"),
    ("experiment.backward", [experiment], "backward"),
    ("experiment.evaluate", [experiment], "evaluate"),
    ("autodiff.backward_from", [autodiff, attribution], "backward_from"),
    ("attribution.integrated_gradients", [attribution], "integrated_gradients"),
    ("serialize.save_params", [models], "save_params"),
    ("serialize.load_params", [models], "load_params"),
    ("models.forward", [models.ModelInstance], "forward"),
    ("models.penultimate", [models.ModelInstance], "penultimate"),
    ("autodiff.matmul", [nn], "matmul"),
    ("autodiff.add", [nn, experiment], "add"),
    ("autodiff.relu", [nn, autodiff], "relu"),  # models.penultimate imports it per call
    ("autodiff.concat", [models], "concat"),
    ("autodiff.masked_mean", [text], "masked_mean"),
    ("autodiff.embedding_lookup", [text], "embedding_lookup"),
    ("autodiff.cross_entropy", [experiment], "cross_entropy"),
    ("autodiff.binary_cross_entropy", [experiment], "binary_cross_entropy"),
    ("autodiff.grouped_cross_entropy", [experiment], "grouped_cross_entropy"),
]


def _matmul_flops(a, b) -> float:
    m, k = a.shape
    return 2.0 * m * k * b.shape[1]


def _adam_elements(optimizer) -> float:
    return float(sum(p.data.size for p in optimizer.params.values()))


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, request id, work count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.request = None

    def span(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                      self.request, work(*args) if work else 0.0]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf_counter()
        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, owners, attr in TRACED:
            work = _matmul_flops if name == "autodiff.matmul" else None
            for owner in owners:
                self._replace(owner, attr, self.span(name, getattr(owner, attr), work))
        build = text.Vocabulary.__dict__["build"].__func__
        self._replace(text.Vocabulary, "build",
                      classmethod(self.span("text.vocab_build", build)))
        self._replace(nn.Adam, "step", self.span("nn.adam_step", nn.Adam.step,
                                                 _adam_elements))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def region(self, name: str, request, fn, *args):
        """Run ``fn`` as a top-level span tagged with ``request``."""
        self.request = request
        try:
            return self.span(name, fn)(*args)
        finally:
            self.request = None

    # -- reporting --------------------------------------------------------

    def self_times(self, requests) -> dict[str, float]:
        """Seconds per span name over ``requests``, each span's duration less
        its children's."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        wanted = set(requests)
        totals: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            if s[4] in wanted:
                totals[s[0]] += t
        return dict(totals)

    def totals(self, requests) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, calls and work over ``requests``."""
        wanted = set(requests)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "calls": 0, "work": 0.0})
        for name, start, end, _, request, work in self.spans:
            if request in wanted:
                entry = out[name]
                entry["s"] += end - start
                entry["calls"] += 1
                entry["work"] += work
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def per_layer_metrics(tracer: Tracer, setup_id, request_ids, samples: float,
                      request_s) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: set-up layers over the set-up pass, the rest
    as means per timed request."""
    setup = tracer.totals([setup_id])

    def setup_ms(name):
        return setup[name]["s"] * 1e3

    def setup_calls(name):
        return setup[name]["calls"]

    timed = tracer.totals(request_ids)
    n = len(request_ids)

    def ms(name):
        return timed[name]["s"] * 1e3 / n

    def calls(name):
        return timed[name]["calls"] / n

    ig_calls = timed["attribution.integrated_gradients"]["calls"]
    op_calls = sum(timed[f"autodiff.{op}"]["calls"] for op in AUTODIFF_OPS)
    metrics = {
        "data.generate_synthetic_ms": (setup_ms("data.generate_synthetic"), "ms"),
        "data.ingest_ms": (setup_ms("data.ingest"), "ms"),
        "text.vocab_build_ms": (setup_ms("text.vocab_build"), "ms"),
        "text.encode_texts_ms": (setup_ms("text.encode_texts"), "ms"),
        "experiment.featurize_ms": (setup_ms("experiment.featurize"), "ms"),
        "experiment.featurize_calls": (setup_calls("experiment.featurize"), "count"),
        "experiment.compute_loss_ms": (ms("experiment.compute_loss"), "ms"),
        "experiment.backward_ms": (ms("experiment.backward"), "ms"),
        "experiment.train_steps": (calls("experiment.backward"), "count"),
        "experiment.evaluate_ms": (ms("experiment.evaluate"), "ms"),
        "nn.adam_step_ms": (ms("nn.adam_step"), "ms"),
        "nn.adam_params": (timed["nn.adam_step"]["work"] / n, "count"),
        "models.forward_calls": (calls("models.forward"), "count"),
        "models.penultimate_calls": (calls("models.penultimate"), "count"),
        "autodiff.matmul.calls": (calls("autodiff.matmul"), "count"),
        "autodiff.matmul.gflop": (timed["autodiff.matmul"]["work"] / n / 1e9, "GFLOP"),
        "autodiff.embedding_lookup.calls": (calls("autodiff.embedding_lookup"), "count"),
        "autodiff.ops_per_sample": (op_calls / samples, "count"),
        "autodiff.backward_from_ms": (ms("autodiff.backward_from"), "ms"),
        "attribution.integrated_gradients_ms": (ms("attribution.integrated_gradients"), "ms"),
        "attribution.forwards_per_record": (
            calls("models.forward") * n / ig_calls if ig_calls else 0.0, "count"),
        "serialize.save_params_ms": (setup_ms("serialize.save_params"), "ms"),
        "serialize.load_params_ms": (setup_ms("serialize.load_params"), "ms"),
        "trace.request_ms_p50": (statistics.median(request_s) * 1e3, "ms"),
    }
    for op in ("matmul", "embedding_lookup", "masked_mean", "add", "relu", "concat",
               "cross_entropy", "binary_cross_entropy"):
        metrics[f"autodiff.{op}.ms"] = (ms(f"autodiff.{op}"), "ms")
    return metrics
