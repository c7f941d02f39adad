"""The process-wide worker pool: its size, the caller's share, nesting,
exceptions and resizing."""
import os
import sys
import threading
import time

import numpy as np
import pytest

from obatalab import pool, spectral
from obatalab.measures import Grid, model_density


@pytest.fixture()
def cpus(monkeypatch):
    """Set the CPUs the process may use, and return a setter for the threads."""
    def threads(value, usable=4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)))
        if value is None:
            monkeypatch.delenv("OBATALAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("OBATALAB_THREADS", value)
    return threads


@pytest.mark.parametrize("value, usable, want", [
    (None, 4, 1), ("1", 4, 1), ("3", 4, 3), ("4", 4, 4), ("1000000", 4, 4),
    ("1000000", 1, 1), ("2", 1, 1), ("0", 4, 1), ("-3", 4, 1), ("abc", 4, 1),
    ("", 4, 1), ("2.5", 4, 1)])
def test_workers_reads_the_environment_capped_at_usable_cpus(cpus, value, usable, want):
    # a pure count: no pool of that size is ever started here
    cpus(value, usable)
    assert pool.workers() == want


def _meet(parties):
    """An item that returns its thread once `parties` threads are inside it
    together: it can only finish when that many threads run the map."""
    barrier = threading.Barrier(parties, timeout=30)

    def item(x):
        barrier.wait()
        return x, threading.get_ident()
    return item


def test_map_keeps_item_order_and_the_caller_takes_a_share(cpus):
    cpus("2")
    got = pool.map(_meet(2), [0, 1])
    assert [x for x, _ in got] == [0, 1]
    idents = {ident for _, ident in got}
    assert len(idents) == 2 and threading.get_ident() in idents
    assert pool.map(lambda x: x * x, range(100)) == [x * x for x in range(100)]


def test_each_share_gets_its_own_scratch_made_by_the_caller(cpus):
    cpus("3")
    made = []

    def scratch():
        made.append(threading.get_ident())
        return []

    meet = _meet(3)

    def item(x, rows):
        rows.append(x)
        meet(x)
        return id(rows)

    assert len(set(pool.map(item, [0, 1, 2], scratch))) == 3
    assert made == [threading.get_ident()] * 3
    # one item, or one thread: one scratch, and the map runs inline
    made.clear()
    assert pool.map(lambda x, rows: threading.get_ident(), [0], scratch) == [threading.get_ident()]
    assert len(made) == 1


def test_nested_map_runs_inline(cpus):
    cpus("2")
    meet = _meet(2)

    def outer(x):
        meet(x)
        inner = pool.map(lambda y: threading.get_ident(), range(8))
        return set(inner) == {threading.get_ident()}

    assert pool.map(outer, [0, 1]) == [True, True]


def test_worker_exception_reaches_the_caller_and_the_pool_serves_on(cpus):
    cpus("2")
    meet = _meet(2)
    caller = threading.get_ident()

    def item(x):
        meet(x)
        if threading.get_ident() != caller:
            raise ValueError(f"item {x} failed on a pool thread")
        return x

    with pytest.raises(ValueError, match="on a pool thread"):
        pool.map(item, [0, 1])
    assert pool.map(lambda x: -x, range(10)) == [-x for x in range(10)]


def test_first_failing_item_in_order_is_raised(cpus):
    # as a serial loop would: item 7 fails first, on one thread, while the
    # other is still inside item 3, which then fails too; item 3's error wins
    cpus("2")

    def item(x):
        if x == 3:
            time.sleep(0.2)
        if x in (3, 7):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 3"):
        pool.map(item, range(10))


def test_pool_follows_a_size_change_in_the_environment(cpus):
    for value, threads in (("2", 2), ("3", 3), ("2", 2)):
        cpus(value)
        got = pool.map(_meet(threads), range(threads))
        assert len({ident for _, ident in got}) == threads
        assert pool._pool[0] == threads - 1
    cpus("1")
    assert pool.map(lambda x: threading.get_ident(), range(4)) == [threading.get_ident()] * 4


def test_every_item_runs_once_under_contention(cpus):
    # more threads than cores and a short switch interval: the shared
    # counter hands each item to exactly one thread, and a solve's blocked
    # sweeps keep their bits
    w = model_density(3.0, Grid.uniform(3.0, 3 * spectral._BLOCK + 6))
    cpus("1")
    want = spectral.neumann_eigs(w, k=2)
    cpus("6", usable=8)
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = pool.map(lambda x: seen.append(x) or x, range(5000))
        res = spectral.neumann_eigs(w, k=2)
    finally:
        sys.setswitchinterval(interval)
    assert got == list(range(5000)) and sorted(seen) == got
    for field in ("eigenvalues", "eigenfunctions", "residuals", "half_eigenvalues"):
        assert np.array_equal(getattr(res, field), getattr(want, field)), field
