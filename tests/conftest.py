import sys
from pathlib import Path

from hypothesis import settings

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Every property test draws the same examples on every run, so two runs of one
# commit test the same inputs.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
