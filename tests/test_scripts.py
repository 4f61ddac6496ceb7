import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_attribute_extremes_runs_at_a_small_size(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "attribute_extremes.py"), "--records", "60",
         "--epochs", "1", "--steps", "4", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for label in ("most_promotable", "least_promotable"):
        assert (tmp_path / f"{label}.json").exists() and (tmp_path / f"{label}.html").exists()
