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
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .attribution import integrated_gradients, report_to_html, report_to_json
from .data import (SyntheticGeneratorConfig, generate_synthetic, ingest,
                   segment_pcb, split_records, write_appraisal_names,
                   write_jsonl)
from .errors import (CapabilityError, ConfigError, DatasetLookupError,
                     PcbnetError, ValidationError)
from .experiment import (PCB_TARGETS, ExperimentConfig, MetricsSummary,
                         run_repetitions)
from .models import ARCHITECTURES, TEXT, architecture_spec, load_model, save_model
from .serialize import atomic_write_text

OUTPUT_ROOT_ENV = "PCBNET_OUT"

METRICS_COLUMNS = ("architecture_id", "family", "pcb_target", "repetition",
                   "accuracy", "f1_weighted", "seed")


def _field_defaults(cls) -> dict:
    return {f.name: f.default if f.default_factory is MISSING else f.default_factory()
            for f in fields(cls)}


# The lexicon word lists are tuples of string tuples, and _check_types reads a
# tuple default as three numbers (split_ratios), so JSON configs cannot set them.
_SYNTH_WORD_LIST_KEYS = {"appraisal_high_words", "appraisal_low_words", "emotion_words"}
_SYNTH_DEFAULTS = {**_field_defaults(SyntheticGeneratorConfig), "seed": 0}
_SYNTH_KEYS = set(_SYNTH_DEFAULTS) - _SYNTH_WORD_LIST_KEYS
_SYNTH_WEIGHT_KEYS = {k for k, v in _SYNTH_DEFAULTS.items() if isinstance(v, np.ndarray)}

_TRAIN_KEYS = {f.name for f in fields(ExperimentConfig)} | {"dataset", "sweep"}


def _default_out() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def _load_json_config(path: str | None, allowed: set[str], what: str) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} config not found: {path}")
    except (ValueError, RecursionError) as exc:  # also not UTF-8, over-long integer, deep nesting
        raise ConfigError(f"{what} config {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} config must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {sorted(unknown)}")
    return obj


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_number_array(value) -> bool:
    """A rectangular JSON array of numbers, nested as deep as numpy allows."""
    try:  # a ragged array's cells are lists; numpy refuses deep nesting
        return isinstance(value, list) and all(
            _is_number(v) for v in np.array(value, dtype=object).flat)
    except (ValueError, RuntimeError):
        return False


# (type of a field's default, test of a JSON value for it, what the value must be);
# bool comes before int, which it subclasses
_JSON_TYPES = (
    (bool, lambda v: isinstance(v, bool), "true or false"),
    (int, lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    (float, _is_number, "a number"),
    (str, lambda v: isinstance(v, str), "a string"),
    (type(None), lambda v: v is None or isinstance(v, str), "a string or null"),
    (tuple, lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_number, v)),
     "three numbers"),
    (np.ndarray, _is_number_array, "an array of numbers"),
)


def _check_types(raw: dict, defaults: dict, what: str) -> None:
    """Refuse any config value whose JSON type does not fit its field's default."""
    for key, value in raw.items():
        if key not in defaults:
            continue
        _, fits, want = next(t for t in _JSON_TYPES if isinstance(defaults[key], t[0]))
        if not fits(value):
            raise ConfigError(f"{what} config key {key!r} must be {want}, "
                              f"got {json.dumps(value)[:40]}")


def _format_float(x: float) -> str:
    return repr(float(x))


def _metrics_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for row in rows:
        writer.writerow([row[c] for c in METRICS_COLUMNS])
    return buf.getvalue()


def _summary_rows(arch_id: int, pcb_target: str, summary: MetricsSummary) -> list[dict]:
    family = architecture_spec(arch_id).family
    return [{
        "architecture_id": arch_id,
        "family": family,
        "pcb_target": pcb_target,
        "repetition": r.repetition,
        "accuracy": _format_float(r.accuracy),
        "f1_weighted": _format_float(r.f1_weighted),
        "seed": r.seed,
    } for r in summary.rows]


def cmd_synth(args: argparse.Namespace) -> int:
    raw = _load_json_config(args.config, _SYNTH_KEYS, "synth")
    _check_types(raw, _SYNTH_DEFAULTS, "synth")
    seed = args.seed if args.seed is not None else raw.pop("seed", 0)
    raw.pop("seed", None)
    for key in _SYNTH_WEIGHT_KEYS:
        if key in raw:
            raw[key] = np.asarray(raw[key], dtype=np.float64)
    cfg = SyntheticGeneratorConfig(**raw)
    records = generate_synthetic(cfg, seed)
    out = Path(args.out)
    write_jsonl(records, out)
    sidecar = out.with_suffix("").with_name(out.stem + ".appraisal_names.txt")
    write_appraisal_names(sidecar)
    print(f"wrote {len(records)} records to {out} (sidecar: {sidecar})")
    return 0


def _run_one_training(records, cfg: ExperimentConfig, workers: int,
                      out_dir: Path, tag: str):
    summary, model = run_repetitions(records, cfg, workers=workers,
                                     return_last_model=True)
    checkpoint = out_dir / f"checkpoint_{tag}.params"
    save_model(checkpoint, model, meta={"pcb_target": cfg.pcb_target})
    return summary, checkpoint


def _class_distribution(records, cfg: ExperimentConfig) -> dict | list[dict]:
    """Per-split PCB class counts (splits are plain shuffles, not stratified).

    One set for the shared split; with ``resplit_each_repetition``, a list
    with one set per repetition, in repetition order.
    """
    labels = [int(segment_pcb(r.pcb(cfg.pcb_target))) for r in records]

    def counts(seed: int) -> dict[str, list[int]]:
        split = split_records(len(records), cfg.split_ratios, seed)
        out = {}
        for name, idx in (("train", split.train), ("validation", split.validation),
                          ("test", split.test)):
            per_class = [0, 0, 0]
            for i in idx:
                per_class[labels[i]] += 1
            out[name] = per_class
        return out

    if cfg.resplit_each_repetition:
        return [counts(cfg.base_seed + rep) for rep in range(cfg.repetitions)]
    return counts(cfg.base_seed)


def cmd_train(args: argparse.Namespace) -> int:
    raw = _load_json_config(args.config, _TRAIN_KEYS, "train")
    _check_types(raw, {**_field_defaults(ExperimentConfig), "architecture": 0,
                       "dataset": ""}, "train")
    if "dataset" not in raw:
        raise ConfigError("train config must name a 'dataset' file")
    dataset_path = raw.pop("dataset")
    sweep = bool(raw.pop("sweep", False)) or args.sweep
    if args.seed is not None:
        raw["base_seed"] = args.seed
    if "split_ratios" in raw:
        raw["split_ratios"] = tuple(raw["split_ratios"])
    if sweep:
        raw.pop("architecture", None)
        raw.pop("pcb_target", None)
        arch_ids = list(range(1, 13))
        targets = list(PCB_TARGETS)
    else:
        if "architecture" not in raw:
            raise ConfigError("train config must set 'architecture' (or use --sweep)")
        arch_ids = [raw.pop("architecture")]
        targets = [raw.pop("pcb_target", "promote")]

    records = ingest(dataset_path)
    out_dir = Path(args.out) if args.out else _default_out()
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.time()
    all_rows: list[dict] = []
    summaries: dict[str, dict] = {}
    checkpoints: list[str] = []
    config_snapshots: list[dict] = []
    for arch_id in arch_ids:
        for target in targets:
            cfg = ExperimentConfig(architecture=arch_id, pcb_target=target, **raw)
            tag = f"arch{arch_id:02d}_{target}"
            summary, checkpoint = _run_one_training(records, cfg, args.workers,
                                                    out_dir, tag)
            all_rows.extend(_summary_rows(arch_id, target, summary))
            summaries[tag] = {
                "architecture_id": arch_id,
                "pcb_target": target,
                "mean_accuracy": summary.mean_accuracy,
                "std_accuracy": summary.std_accuracy,
                "mean_f1": summary.mean_f1,
                "std_f1": summary.std_f1,
                "std_kind": "population",
                "repetitions": cfg.repetitions,
                "class_counts_low_moderate_high": _class_distribution(records, cfg),
                "auxiliary_diagnostics": [r.diagnostics for r in summary.rows],
            }
            checkpoints.append(str(checkpoint))
            snapshot = asdict(cfg)
            snapshot["dataset"] = str(dataset_path)
            config_snapshots.append(snapshot)
            print(f"{tag}: accuracy {summary.mean_accuracy:.4f} "
                  f"({summary.std_accuracy:.4f}), f1 {summary.mean_f1:.4f} "
                  f"({summary.std_f1:.4f})")

    metrics_path = out_dir / "metrics.csv"
    atomic_write_text(metrics_path, _metrics_csv(all_rows))
    summary_path = out_dir / "summary.json"
    atomic_write_text(summary_path, json.dumps(summaries, sort_keys=True, indent=2) + "\n")
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
    atomic_write_text(out_dir / "manifest.json",
                      json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {metrics_path} ({len(all_rows)} rows)")
    return 0


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
    raw = csv_path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].count(b"\n") + 1
        raise ValidationError(f"{csv_path}: line {line}: not UTF-8 text") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
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
    model, meta = load_model(args.checkpoint)
    if TEXT not in model.spec.input_modalities:
        raise CapabilityError(
            f"checkpoint is architecture {model.spec.id} "
            f"({model.spec.name}), which has no text input")
    records = {r.id: r for r in ingest(args.dataset)}
    wanted = [rid for chunk in args.records for rid in chunk.split(",") if rid]
    if not wanted:
        raise ConfigError("no record ids given")
    out_dir = Path(args.out) if args.out else _default_out() / "attributions"
    out_dir.mkdir(parents=True, exist_ok=True)
    pcb_target = meta.get("pcb_target", "promote")
    target_class = "predicted" if args.target == "predicted" else None
    for rid in wanted:
        if rid not in records:
            raise DatasetLookupError(f"record id {rid!r} not found in {args.dataset}")
        report = integrated_gradients(model, records[rid], pcb_target=pcb_target,
                                      target_class=target_class,
                                      steps=args.steps, baseline=args.baseline)
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
    p_attr.add_argument("--baseline", default="pad", choices=("pad", "zero"))
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
        print(json.dumps({"error": {"category": exc.category, "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
