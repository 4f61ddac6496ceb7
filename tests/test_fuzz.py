"""One fuzz harness for every reader of an input file.

Each reader gets arbitrary bytes, and a valid file with one byte flipped and
then truncated. Each case either loads or raises the reader's error class, a
``PcbnetError``; ``main`` must then exit 1 with one JSON line on stderr. A
checkpoint carries a sha256 digest of its bytes, so a flipped one must raise.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbnet.cli import _SYNTH_SPECS, _TRAIN_SPECS, _load_json_config, main
from pcbnet.data import (APPRAISAL_COUNT, EMOTION_COUNT, ReviewRecord, ingest, write_csv,
                         write_jsonl)
from pcbnet.errors import PcbnetError, ValidationError
from pcbnet.models import build, load_model, save_model
from pcbnet.serialize import MAGIC, atomic_write_text, load_params, save_params
from pcbnet.text import Vocabulary, load_embeddings, save_precomputed_embeddings

RECORDS = [ReviewRecord(f"r{i}", "fine visit overall .", (4,) * APPRAISAL_COUNT,
                        (4,) * EMOTION_COUNT, 4, 4) for i in range(2)]


def report(path):
    """``pcbnet report`` on ``path``'s directory: exit 0, or exit 1 with one JSON line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["report", str(path.parent)])
    lines = err.getvalue().splitlines()
    assert code == 0 and lines == [] or code == 1 and len(lines) == 1, (code, lines)
    if code:
        assert json.loads(lines[0])["error"]["category"]


@dataclass
class Reader:
    name: str
    write: Callable      # writes a valid file to the given path
    load: Callable       # reads the given path
    error: type = PcbnetError
    magic: bytes = b""   # a prefix that arbitrary bytes are tried behind, too
    refuses_flips: bool = False  # a flipped byte must raise, not load


def write_metrics(path):
    atomic_write_text(path, "architecture_id,family,pcb_target,repetition,accuracy,"
                            "f1_weighted,seed\n3,Baseline,promote,0,0.5,0.4,0\n")


READERS = [
    Reader("ingest.jsonl", lambda p: write_jsonl(RECORDS, p), ingest),
    Reader("ingest.csv", lambda p: write_csv(RECORDS, p), ingest),
    Reader("load_embeddings.jsonl",
           lambda p: save_precomputed_embeddings(p, {"r0": np.array([1.0, -2.5]),
                                                     "r1": np.array([0.5, 3.0])}),
           lambda p: load_embeddings(p, ["r0", "r1"])),
    Reader("load_params.params",
           lambda p: save_params(p, {"head.weight": np.arange(6.0).reshape(2, 3),
                                     "head.bias": np.ones(3), "s": np.array(2.5)},
                                 meta={"architecture_id": 12, "vocab": ["<pad>", "good"]}),
           load_params, ValidationError, MAGIC, refuses_flips=True),
    Reader("load_model.params",
           lambda p: save_model(p, build(1, encoder_dim=2, seed=0,
                                         vocab=Vocabulary(["<pad>", "<unk>", "good"]))),
           load_model, magic=MAGIC, refuses_flips=True),
    Reader("train_config.json",
           lambda p: atomic_write_text(p, json.dumps({
               "dataset": "d.jsonl", "architecture": 3, "lr": 1e-3,
               "split_ratios": [0.8, 0.1, 0.1]})),
           lambda p: _load_json_config(str(p), _TRAIN_SPECS, "train")),
    Reader("synth_config.json",
           lambda p: atomic_write_text(p, json.dumps({"record_count": 5, "seed": 1,
                                                      "noise_scale": 0.1})),
           lambda p: _load_json_config(str(p), _SYNTH_SPECS, "synth")),
    Reader("report.csv", write_metrics, report),
]


def fuzz_path(root, reader):
    """The file ``reader`` reads, alone in its own directory (``report`` reads them all)."""
    return root / reader.name / f"fuzz{Path(reader.name).suffix}"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for reader in READERS:
        fuzz_path(root, reader).parent.mkdir()
    return root


@pytest.fixture(scope="module")
def valid_bytes(fuzz_dir):
    """Each reader's valid file, as bytes, after checking that it loads."""
    out = {}
    for reader in READERS:
        path = fuzz_path(fuzz_dir, reader)
        reader.write(path)
        reader.load(path)
        out[reader.name] = path.read_bytes()
    return out


def load_or_error(fuzz_dir, reader, raw, must_raise=False):
    """Read ``raw`` through ``reader``; any exception but its error class fails the
    test, and so does a load when ``must_raise``."""
    path = fuzz_path(fuzz_dir, reader)
    path.write_bytes(raw)
    try:
        reader.load(path)
    except reader.error:
        return
    assert not must_raise, f"{reader.name} loaded a flipped file"


@pytest.mark.parametrize("reader", READERS, ids=[r.name for r in READERS])
@given(raw=st.binary(max_size=512), with_magic=st.booleans())
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes(fuzz_dir, reader, raw, with_magic):
    load_or_error(fuzz_dir, reader, (reader.magic if with_magic else b"") + raw)


@pytest.mark.parametrize("reader", READERS, ids=[r.name for r in READERS])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_flipped_and_truncated_file(fuzz_dir, valid_bytes, reader, data):
    raw = bytearray(valid_bytes[reader.name])
    i = data.draw(st.integers(0, len(raw) - 1))
    raw[i] ^= data.draw(st.integers(1, 255))
    cut = data.draw(st.integers(0, len(raw)))
    load_or_error(fuzz_dir, reader, bytes(raw[:cut]), must_raise=reader.refuses_flips)
