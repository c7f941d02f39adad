"""The process-wide worker pool: OBATALAB_THREADS threads, the caller's own
among them.

workers() reads OBATALAB_THREADS (default 1; a value that is not a positive
integer reads as 1) and caps it at the CPUs the process may run on. map()
runs its items on the calling thread and up to workers() - 1 pool threads,
started on first use and kept for the life of the process (a new size in the
environment replaces them); each thread takes the next item from a shared
counter. A map of fewer items than its `least` runs inline, and so does a
map called from inside an item of another, on that item's thread, so nested
maps never wait on each other.
"""
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

_inside = threading.local()
_lock = threading.Lock()
_pool = (0, None)  # (threads, executor)


def workers():
    """Threads a map may use: OBATALAB_THREADS, between 1 and the usable CPUs."""
    try:
        k = int(os.environ.get("OBATALAB_THREADS", ""))
    except ValueError:
        k = 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(k, cpus or 1))


def _executor(threads):
    global _pool
    with _lock:
        if _pool[0] != threads:
            if _pool[1] is not None:
                _pool[1].shutdown(wait=False)
            _pool = (threads, ThreadPoolExecutor(threads, thread_name_prefix="obatalab"))
        return _pool[1]


def map(fn, items, scratch=None, least=2):
    """[fn(x) for x in items] in item order, or fn(x, rows) when scratch is
    given: each thread's share reuses its own rows = scratch(), all made on
    the calling thread. Fewer than `least` items run inline, on the calling
    thread with one scratch. After an item raises, no thread takes another,
    and the exception of the first item that raised, in item order, reaches
    the caller once every thread has stopped: the one a serial loop raises."""
    items = list(items)
    threads = 1 if len(items) < least or getattr(_inside, "busy", False) else workers()
    shares = min(threads, len(items))
    if shares < 2:
        rows = scratch() if scratch else None
        return [fn(x, rows) if scratch else fn(x) for x in items]
    out, errors, claim = [None] * len(items), [], itertools.count()

    def share(rows):
        _inside.busy = True
        for i in claim:
            if i >= len(items) or errors:
                break
            try:
                out[i] = fn(items[i], rows) if scratch else fn(items[i])
            except BaseException as exc:
                errors.append((i, exc))
        _inside.busy = False

    rows = [scratch() if scratch else None for _ in range(shares)]
    pool = _executor(threads - 1)
    futures = [pool.submit(share, r) for r in rows[1:]]
    share(rows[0])
    for f in futures:
        f.result()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return out
