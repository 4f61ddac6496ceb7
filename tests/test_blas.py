"""``blas.one_thread`` and the step-size rule that ``_train_single`` reads it by."""

import math
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from pcbnet import blas, experiment
from pcbnet.data import SyntheticGeneratorConfig, generate_synthetic, split_records
from pcbnet.errors import TrainingError
from pcbnet.experiment import (ExperimentConfig, build_vocab_for_split, featurize, run_sweep,
                               train)
from pcbnet.models import build


@pytest.fixture(scope="module")
def small_records():
    cfg = SyntheticGeneratorConfig(record_count=80, noise_scale=0.0, mean_review_length=50)
    return generate_synthetic(cfg, seed=21)


@pytest.fixture(scope="module")
def prepared(small_records):
    split = split_records(len(small_records), (0.8, 0.1, 0.1), 0)
    return featurize(small_records, build_vocab_for_split(small_records, split, 1)), split


def _openblas():
    """The loaded OpenBLAS's thread getter, with its count set to 2 until teardown."""
    found = blas._find()
    if found is None:
        pytest.skip("no OpenBLAS thread getter and setter found in this process")
    _, get, set_ = found
    before = get()
    set_(2)
    yield get
    set_(before)


def _fake(monkeypatch):
    """A stand-in library at 2 threads, in place of whatever the finder finds."""
    count = [2]

    def set_(n):
        count[0] = n

    monkeypatch.setattr(blas, "_find", lambda: ("libfake.so", lambda: count[0], set_))
    return lambda: count[0]


@pytest.fixture(params=["fake", "openblas"])
def threads(request, monkeypatch):
    """The thread getter of a library at 2 threads: a fake, or the loaded OpenBLAS."""
    if request.param == "fake":
        yield _fake(monkeypatch)
    else:
        yield from _openblas()


@pytest.fixture
def openblas():
    yield from _openblas()


def observe_threads(monkeypatch):
    """(architecture, thread count) at each loss a training step computes."""
    seen = []
    compute_loss = experiment.compute_loss

    def observed(model, batch, cfg):
        seen.append((model.spec.id, blas.info()["blas_threads"]))
        return compute_loss(model, batch, cfg)

    monkeypatch.setattr(experiment, "compute_loss", observed)
    return seen


class TestOneThread:
    def test_holds_one_thread_and_restores_the_count(self, threads):
        with blas.one_thread():
            assert threads() == 1
        assert threads() == 2

    def test_restores_the_count_after_an_exception(self, threads):
        with pytest.raises(ZeroDivisionError):
            with blas.one_thread():
                assert threads() == 1
                1 / 0
        assert threads() == 2

    def test_restores_the_count_after_a_non_finite_loss(self, threads, prepared, monkeypatch):
        data, split = prepared
        seen = observe_threads(monkeypatch)
        model = build(1, 16, data.vocab, seed=0)
        model.parameters()["encoder.embedding"].data[:] = np.nan
        cfg = ExperimentConfig(architecture=1, text_epochs=1, lr=1e-3)
        with pytest.raises(TrainingError, match="non-finite loss"):
            train(model, data, split.train, cfg, seed=0)
        assert seen == [(1, 1)]
        assert threads() == 2

    def test_nested_blocks_restore_once(self, threads):
        with blas.one_thread():
            with blas.one_thread():
                assert threads() == 1
            assert threads() == 1
        assert threads() == 2

    def test_overlapping_blocks_restore_when_the_last_one_leaves(self, threads):
        entered, leave = threading.Event(), threading.Event()

        def hold():
            with blas.one_thread():
                entered.set()
                leave.wait(timeout=30)

        other = threading.Thread(target=hold)
        other.start()
        try:
            assert entered.wait(timeout=30)
            with blas.one_thread():
                leave.set()
                other.join(timeout=30)
                assert not other.is_alive()
                assert threads() == 1  # the other block has left; this one holds
            assert threads() == 2
        finally:
            leave.set()
            other.join(timeout=30)

    def test_many_threads_entering_and_leaving_lose_no_update(self, monkeypatch):
        get = _fake(monkeypatch)
        inside_counts, interval = [], sys.getswitchinterval()

        def churn():
            for _ in range(200):
                with blas.one_thread():
                    inside_counts.append(get())

        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert len(inside_counts) == 8 * 200 and set(inside_counts) == {1}
        assert get() == 2 and blas._hold[0] == 0

    def test_is_a_no_op_where_no_setter_is_found(self, monkeypatch):
        found = blas._find()
        before = found and found[1]()
        monkeypatch.setattr(blas, "_find", lambda: None)
        with blas.one_thread():
            assert blas.info() == {"blas_library": None, "blas_threads": None}
            assert (found and found[1]()) == before
        assert blas._hold[0] == 0

    def test_finds_the_openblas_numpy_loaded(self, openblas):
        info = blas.info()
        assert "openblas" in info["blas_library"] and info["blas_threads"] == 2


class TestStepSizeRule:
    @pytest.mark.parametrize("architecture, serial", [
        (1, {1: True}), (12, {12: True}), (2, {2: False}), (3, {3: False}), (6, {6: False}),
        # architecture 9 trains its towers as architectures 1-3, then the fusion head
        (9, {1: True, 2: False, 3: False, 9: False}),
    ], ids=["arch1", "arch12", "arch2", "arch3", "arch6", "arch9"])
    def test_the_block_holds_small_steps_only(self, prepared, monkeypatch, architecture,
                                              serial):
        data, split = prepared
        seen, depth = set(), [0]

        @contextmanager
        def recorded():
            depth[0] += 1
            try:
                yield
            finally:
                depth[0] -= 1

        compute_loss = experiment.compute_loss

        def observed(model, batch, cfg):
            seen.add((model.spec.id, depth[0] > 0))
            return compute_loss(model, batch, cfg)

        monkeypatch.setattr(blas, "one_thread", recorded)
        monkeypatch.setattr(experiment, "compute_loss", observed)
        cfg = ExperimentConfig(architecture=architecture, text_epochs=1, rating_epochs=1,
                               lr=1e-3, batch_size=16)
        train(build(architecture, 128, data.vocab, seed=0), data, split.train, cfg, seed=0)
        assert seen == set(serial.items())

    @pytest.mark.parametrize("architecture", [2, 12])
    def test_parameters_are_byte_identical_at_one_and_two_threads(
            self, openblas, prepared, monkeypatch, architecture):
        data, split = prepared
        seen = observe_threads(monkeypatch)
        cfg = ExperimentConfig(architecture=architecture, text_epochs=2, rating_epochs=5,
                               lr=1e-3, batch_size=16)
        trained = {}
        for limit in (math.inf, 0):  # the block forced on, then forced off
            monkeypatch.setattr(experiment, "_SERIAL_MULADDS", limit)
            model = build(architecture, 128, data.vocab, seed=3)
            train(model, data, split.train, cfg, seed=3)
            trained[limit] = {k: p.data.tobytes() for k, p in model.parameters().items()}
        assert {threads for _, threads in seen} == {1, 2}
        assert trained[math.inf] == trained[0]


def test_a_worker_pool_runs_on_one_thread(small_records, monkeypatch, threads):
    seen = observe_threads(monkeypatch)
    # architecture 3 trains full-batch: above the rule's constant on its own
    cfg = ExperimentConfig(architecture=3, repetitions=2, rating_epochs=2, lr=1e-3)
    next(run_sweep(small_records, [cfg], workers=1))
    assert {count for _, count in seen} == {2}
    seen.clear()
    next(run_sweep(small_records, [cfg], workers=2))
    assert {count for _, count in seen} == {1}
    assert threads() == 2
