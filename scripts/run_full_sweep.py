"""Generate a synthetic dataset and sweep all 12 architectures on both PCB targets.

Writes the dataset, per-repetition metrics CSV, checkpoints, manifest, and the
grouped results table under --out. Defaults use the reduced desk-scale budget;
pass --full-budgets for the 10 / 2000 epoch, lr 1e-5 schedule (slow).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pcbnet.cli import main as cli_main  # noqa: E402
from pcbnet.serialize import atomic_write_text  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/full_sweep")
    parser.add_argument("--records", type=int, default=1400)
    parser.add_argument("--noise", type=float, default=0.25)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lr", type=float, default=None,
                        help="learning rate of the reduced budget (default 1e-3)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--full-budgets", action="store_true",
                        help="10 text / 2000 rating epochs at lr 1e-5")
    args = parser.parse_args()
    if args.full_budgets and args.lr is not None:
        parser.error("--lr sets the reduced budget's rate; --full-budgets fixes lr 1e-5")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = out / "dataset.jsonl"

    synth_cfg = out / "synth_config.json"
    atomic_write_text(synth_cfg, _json({
        "record_count": args.records,
        "noise_scale": args.noise,
    }))
    rc = cli_main(["synth", "--config", str(synth_cfg), "--seed", str(args.seed),
                   "--out", str(dataset)])
    if rc != 0:
        return rc

    train_cfg = out / "train_config.json"
    budgets = ({"text_epochs": 10, "rating_epochs": 2000, "lr": 1e-5}
               if args.full_budgets
               else {"text_epochs": 10, "rating_epochs": 300,
                     "lr": 1e-3 if args.lr is None else args.lr})
    atomic_write_text(train_cfg, _json({
        "dataset": str(dataset),
        "repetitions": args.repetitions,
        "base_seed": args.seed,
        "batch_size": 16,
        **budgets,
    }))
    rc = cli_main(["train", "--config", str(train_cfg), "--out", str(out),
                   "--workers", str(args.workers), "--sweep"])
    if rc != 0:
        return rc
    return cli_main(["report", str(out), "--out", str(out / "results_table.txt")])


def _json(obj) -> str:
    import json
    return json.dumps(obj, indent=2) + "\n"


if __name__ == "__main__":
    sys.exit(main())
