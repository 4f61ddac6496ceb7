"""Generate a synthetic dataset and sweep all 12 architectures on both PCB targets.

Writes under --out: ``synth_config.json``, ``dataset.jsonl`` and its sidecar,
what ``pcbnet train --sweep`` writes (``cli.write_run``), and ``results_table.txt``.
The sweep goes through ``run_sweep`` as ``train`` does: a refused run prints one
JSON error line, exits 1 and writes nothing. Defaults use the reduced desk-scale
budget; --full-budgets uses the 10 / 2000 epoch, lr 1e-5 schedule (slow).
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pcbnet import SyntheticGeneratorConfig, generate_synthetic, run_sweep  # noqa: E402
from pcbnet.cli import print_error, render_report, sweep_configs, write_run  # noqa: E402
from pcbnet.data import write_appraisal_names, write_jsonl  # noqa: E402
from pcbnet.errors import PcbnetError  # noqa: E402
from pcbnet.experiment import ExperimentConfig  # noqa: E402
from pcbnet.schema import Spec, specs  # noqa: E402
from pcbnet.serialize import atomic_write_text  # noqa: E402

# flag -> the config and key whose rule it follows
FLAG_KEYS = {"--records": (SyntheticGeneratorConfig, "record_count"),
             "--noise": (SyntheticGeneratorConfig, "noise_scale"),
             "--repetitions": (ExperimentConfig, "repetitions"),
             "--seed": (ExperimentConfig, "base_seed"),
             "--lr": (ExperimentConfig, "lr")}


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
    try:
        return sweep(args)
    except PcbnetError as exc:
        return print_error(exc)


def sweep(args: argparse.Namespace) -> int:
    # every input is checked, and every split made, before --out is created;
    # a flag is held to its config key's rule under its own name
    workers = Spec("int", ge=1).check("--workers", args.workers)
    for flag, (cls, key) in FLAG_KEYS.items():
        if (value := getattr(args, flag[2:])) is not None:  # --lr defaults to None
            specs(cls)[key].check(flag, value)
    configs = sweep_configs({
        "repetitions": args.repetitions, "base_seed": args.seed, "batch_size": 16,
        "text_epochs": 10, "rating_epochs": 2000 if args.full_budgets else 300,
        "lr": 1e-5 if args.full_budgets else 1e-3 if args.lr is None else args.lr})
    started = time.time()
    synth = {"record_count": args.records, "noise_scale": args.noise}
    records = generate_synthetic(SyntheticGeneratorConfig(**synth), args.seed)
    results = run_sweep(records, configs, workers)
    out = Path(args.out)
    atomic_write_text(out / "synth_config.json", json.dumps(synth, indent=2) + "\n")
    write_jsonl(records, out / "dataset.jsonl")
    write_appraisal_names(out / "dataset.appraisal_names.txt")
    table = render_report(write_run(out, out / "dataset.jsonl", configs, results, started))
    print(table, end="")
    atomic_write_text(out / "results_table.txt", table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
