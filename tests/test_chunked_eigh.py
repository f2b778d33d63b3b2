"""The row-split stacked eigendecomposition gives the serial call's floats,
positivity reports and errors; a small stack starts no thread.

The split threshold is patched from 4096 down to 8 rows and the piece size
from 256 down to 5, so every stack of 8 or more matrices here is split into
several pieces, and ``_usable_cpus`` sets the number of pool threads.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest

from spdsgd import symmat
from spdsgd.dataio import generate_synthetic
from spdsgd.experiment import SweepConfig, sweep
from spdsgd.objective import objective_summary
from spdsgd.rsgd import RunConfig, StepSchedule, reference_centroid, run

from conftest import random_spd


@pytest.fixture(params=[2, 3])
def chunked(request, monkeypatch):
    """Split stacks of 8+ matrices into pieces of at most 5 rows, over a pool
    of ``request.param`` threads."""
    monkeypatch.setattr(symmat, "_SPLIT_ROWS", 8)
    monkeypatch.setattr(symmat, "_PIECE_ROWS", 5)
    monkeypatch.setattr(symmat, "_usable_cpus", lambda: request.param)
    monkeypatch.setattr(symmat, "_pool", None)
    yield request.param
    if symmat._pool is not None:
        symmat._pool.shutdown()


def serially(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every stack decomposed on the calling thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symmat, "_SPLIT_ROWS", 10**9)
        return fn(*args, **kwargs)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def cloud(rng, n, d):
    return generate_synthetic(rng, n, d, np.eye(d), 0.4)


def spd_stack(rng, n, d=4):
    return np.stack([random_spd(rng, d) for _ in range(n)])


def record_eigh(monkeypatch, hook=None):
    """Wrap ``np.linalg.eigh``; returns the ``(thread, rows)`` of each finished call."""
    calls = []
    eigh = np.linalg.eigh

    def traced(a):
        if hook is not None:
            hook(a)
        out = eigh(a)
        calls.append((threading.get_ident(), len(a)))
        return out

    monkeypatch.setattr(np.linalg, "eigh", traced)
    return calls


def test_eigh_chunks_bitwise(rng, chunked, monkeypatch):
    s = spd_stack(rng, 17)
    w0, v0 = serially(symmat._eigh, s)
    calls = record_eigh(monkeypatch)
    w, v = symmat._eigh(s)
    assert sorted(rows for _, rows in calls) == [4, 4, 4, 5]
    assert threading.get_ident() not in [tid for tid, _ in calls]
    for got, want in ((w, w0), (v, v0)):
        assert same_bits(got, want) and got.strides == want.strides
    assert w.flags.c_contiguous and w0.flags.c_contiguous


def test_short_stack_is_not_split(rng, chunked, monkeypatch):
    calls = record_eigh(monkeypatch)
    symmat._eigh(spd_stack(rng, 7))
    symmat._eigh(random_spd(rng, 4))
    assert [rows for _, rows in calls] == [7, 4]
    assert symmat._pool is None


def test_summary_fields_bitwise(rng, chunked):
    data = cloud(rng, 16, 3)
    m = random_spd(rng, 3)
    want, got = serially(objective_summary, m, data), objective_summary(m, data)
    assert symmat._pool is not None
    for name in ("value", "eigenvectors", "log_spectra", "whitened_logs", "grad_norm",
                 "sigma2", "gradient"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert all(same_bits(a, b) for a, b in zip(got.roots, want.roots))


def test_run_record_bitwise(rng, chunked):
    data = cloud(rng, 16, 3)
    reference = reference_centroid(data, 1e-9)
    assert same_bits(reference, serially(reference_centroid, data, 1e-9))
    config = RunConfig(data, np.eye(3), StepSchedule.constant(0.05), 8, 3, 12,
                       epsilons=(0.2, 1e-3), reference=reference)
    want, got = serially(run, config), run(config)
    for name in ("f", "grad_norm", "alpha", "stationarity", "ref_distance", "final_point",
                 "sigma2_initial", "sigma2_max", "grad_norm_max", "max_ref_distance"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert got.steps_to_epsilon == want.steps_to_epsilon


def test_sweep_bitwise_at_any_job_count(rng, chunked):
    config = SweepConfig(
        data=cloud(rng, 16, 3), x0=np.eye(3),
        schedules=(StepSchedule.constant(0.05), StepSchedule.staircase(0.1, 0.5, 10, 2)),
        epsilons=(0.05, 0.2), batch_sizes=(1, 8), seeds=(0, 1), max_steps=60,
    )
    want = serially(sweep, config)
    for jobs in (1, 2):
        got = sweep(SweepConfig(**{**config.__dict__, "n_jobs": jobs}))
        for key, cell in want.cells.items():
            other = got.cells[key]
            assert (other.steps, other.sfo, other.error) == (cell.steps, cell.sfo, cell.error)
            assert same_bits(other.final_f, cell.final_f)


@pytest.mark.parametrize("bad_rows", [(13,), (9, 14), (2, 15)])
def test_first_non_positive_eigenvalue_as_serial(rng, chunked, bad_rows):
    s = spd_stack(rng, 16)
    for i, row in enumerate(bad_rows):
        s[row] = -(i + 1.0) * random_spd(rng, 4)
    with pytest.raises(symmat.DomainError) as serial:
        serially(symmat.eigen_stack, s, positive=True)
    with pytest.raises(symmat.DomainError) as split:
        symmat.eigen_stack(s, positive=True)
    assert same_bits(split.value.eigenvalue, serial.value.eigenvalue)
    assert str(split.value) == str(serial.value)


def test_worker_linalg_error_is_numerical_error_after_every_chunk(rng, chunked, monkeypatch):
    # Piece 0 fails at once; every other piece is slowed, so it would still
    # be running if the error were raised as soon as it arrived.
    s = spd_stack(rng, 16)

    def hook(a):
        if np.shares_memory(a, s[0]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        time.sleep(0.1)

    calls = record_eigh(monkeypatch, hook)
    with pytest.raises(symmat.NumericalError, match="did not converge"):
        symmat._eigh(s)
    assert [rows for _, rows in calls] == [4, 4, 4]


def test_free_thread_takes_the_unclaimed_pieces(rng, chunked, monkeypatch):
    # The thread that takes piece 0 is held up in it, so the other pool
    # threads decompose every later piece meanwhile.
    s = spd_stack(rng, 40)
    w0, v0 = serially(symmat._eigh, s)
    held = []

    def hook(a):
        if np.shares_memory(a, s[0]):
            held.append(threading.get_ident())
            time.sleep(0.3)

    calls = record_eigh(monkeypatch, hook)
    w, v = symmat._eigh(s)
    assert same_bits(w, w0) and same_bits(v, v0)
    assert sorted(rows for _, rows in calls) == [5] * 8
    others = {tid for tid, _ in calls[:-1]}
    assert calls[-1][0] == held[0] and held[0] not in others
    assert threading.get_ident() not in others


def test_pool_is_created_once_with_one_thread_per_usable_cpu(rng, chunked, monkeypatch):
    sizes = []

    class Counting(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            sizes.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(symmat, "ThreadPoolExecutor", Counting)
    for n in (8, 40, 17):
        symmat._eigh(spd_stack(rng, n))
    assert sizes == [chunked]


def test_one_cpu_starts_no_thread(rng, monkeypatch):
    monkeypatch.setattr(symmat, "_SPLIT_ROWS", 8)
    monkeypatch.setattr(symmat, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(symmat, "_pool", None)
    calls = record_eigh(monkeypatch)
    symmat._eigh(spd_stack(rng, 40))
    assert [rows for _, rows in calls] == [40]
    assert symmat._pool is None


def test_concurrent_callers_share_one_pool(rng, chunked, monkeypatch):
    # More callers than cores, switching often: each gets the serial floats,
    # and the pool, created on first use behind a lock, is created once.
    created = []

    class Counting(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(symmat, "ThreadPoolExecutor", Counting)
    stacks = [spd_stack(rng, 12) for _ in range(6)] * 4
    want = [serially(symmat._eigh, s) for s in stacks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as callers:
            futures = [callers.submit(symmat._eigh, s) for s in stacks]
            _, pending = wait(futures, timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not pending
    for future, (w0, v0) in zip(futures, want):
        w, v = future.result()
        assert same_bits(w, w0) and same_bits(v, v0)
    assert created == [symmat._pool]


def test_n256_run_starts_no_thread(rng, monkeypatch):
    monkeypatch.setattr(symmat, "_pool", None)
    data = cloud(rng, 256, 3)
    config = RunConfig(data, np.eye(3), StepSchedule.constant(0.05), 32, 0, 5,
                       reference=reference_centroid(data, 1e-9))
    before = threading.active_count()
    run(config)
    assert symmat._pool is None
    assert threading.active_count() == before
