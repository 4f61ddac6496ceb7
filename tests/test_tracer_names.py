"""The benchmark's tracer replaces functions where pcbnet looks them up.

``perfbench/spans.py`` swaps ``owner.__dict__[attr]`` for a timing wrapper,
so every name it lists must stay bound at that exact place; otherwise a
traced run stops with ``KeyError``. The module is loaded by path and only
read.
"""

import importlib.util
from pathlib import Path

from pcbnet import nn, text

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_where_it_is_patched():
    spans = load_spans()
    assert spans.TRACED
    for name, owners, attr in spans.TRACED:
        for owner in owners:
            assert attr in owner.__dict__, (name, owner, attr)
    # patched outside TRACED by Tracer.install
    assert "build" in text.Vocabulary.__dict__
    assert "step" in nn.Adam.__dict__
