"""Train the text baseline, then explain the most and least promotable reviews.

Selects the test records with the highest and lowest predicted probability of
the High promote class, runs integrated gradients on each, and writes JSON and
HTML token heat maps. A refused run prints one JSON error line, exits 1 and
writes nothing.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pcbnet.attribution import (STEPS, integrated_gradients, report_to_html,  # noqa: E402
                                report_to_json, rank_tokens)
from pcbnet.cli import print_error  # noqa: E402
from pcbnet.data import (Level, SyntheticGeneratorConfig,  # noqa: E402
                         generate_synthetic, split_records)
from pcbnet.errors import PcbnetError, SizeError  # noqa: E402
from pcbnet.experiment import (ExperimentConfig, build_vocab_for_split,  # noqa: E402
                               featurize, train)
from pcbnet.models import build  # noqa: E402
from pcbnet.schema import specs  # noqa: E402
from pcbnet.serialize import atomic_write_text  # noqa: E402

# flag -> the config and key whose rule it follows
FLAG_KEYS = {"--records": (SyntheticGeneratorConfig, "record_count"),
             "--epochs": (ExperimentConfig, "text_epochs"),
             "--lr": (ExperimentConfig, "lr"),
             "--seed": (ExperimentConfig, "base_seed")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/attribution_extremes")
    parser.add_argument("--records", type=int, default=600)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--lr", type=float, default=3e-3)
    parser.add_argument("--steps", type=int, default=128)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        return explain(args)
    except PcbnetError as exc:
        return print_error(exc)


def explain(args: argparse.Namespace) -> int:
    # every argument is checked before anything is generated, and --out is
    # created only by the first report written; a flag is held to its config
    # key's rule under its own name
    for flag, (cls, key) in FLAG_KEYS.items():
        specs(cls)[key].check(flag, getattr(args, flag[2:]))
    gen_cfg = SyntheticGeneratorConfig(record_count=args.records, noise_scale=0.0)
    cfg = ExperimentConfig(architecture=1, pcb_target="promote", text_epochs=args.epochs,
                           lr=args.lr, base_seed=args.seed)
    steps = STEPS.check("--steps", args.steps)
    records = generate_synthetic(gen_cfg, seed=args.seed)
    split = split_records(len(records), (0.8, 0.1, 0.1), args.seed)
    if not split.test:
        raise SizeError(f"{len(records)} records leave no test record to explain")
    vocab = build_vocab_for_split(records, split)
    data = featurize(records, vocab)

    model = build(1, vocab=vocab, seed=args.seed)
    train(model, data, split.train, cfg, seed=args.seed)

    logits = model.forward(data.batch(split.test, "promote"))["pcb_logits"].data
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    high_prob = probs[:, int(Level.HIGH)] / probs.sum(axis=1)
    extremes = {
        "most_promotable": split.test[int(np.argmax(high_prob))],
        "least_promotable": split.test[int(np.argmin(high_prob))],
    }
    reports = {label: integrated_gradients(model, records[idx], pcb_target="promote",
                                           target_class="predicted", steps=steps)
               for label, idx in extremes.items()}

    out = Path(args.out)
    for label, report in reports.items():
        atomic_write_text(out / f"{label}.json", report_to_json(report) + "\n")
        atomic_write_text(out / f"{label}.html", report_to_html(report))
        top = ", ".join(f"{token} ({score:+.3f})"
                        for _, token, score in rank_tokens(report, 8))
        print(f"{label}: record {report.record_id}, predicted class "
              f"{report.predicted_class}, top tokens: {top}")
    print(f"reports written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
