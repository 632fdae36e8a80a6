"""One worker pool for the life of the process.

``census_map`` counts a sequence of graphs on one ``ProcessPoolExecutor``
kept in a module global: created on first use with min(workers, tasks)
processes, replaced only when a call needs a different number and no
other call is reading from it, and joined by the exit hook of
``concurrent.futures`` when the interpreter ends.  The Monte Carlo
estimate and the shuffle null share it.

A task is one graph, pickled to a worker, which only counts it.  A call
submits its graphs as it draws them, so drawing in this process overlaps
counting in the workers.  Workers live across tasks and calls, so each
keeps the engine's reusable unsigned series of the last topology it
counted.  They also keep the rest of this process's state as it was when
the pool started them: logging set up or module globals patched later
are not seen by them.  While the pool lives, this process keeps the
executor's manager and queue feeder threads.

Calls may come from several threads, or nest (a ``progress`` callback
that runs another estimate).  A call that asks for a different size
while another call is still reading from the pool shares the pool
instead of replacing it: its results are the same, only the number of
processes counting them differs.
"""

from __future__ import annotations

import atexit
import threading
from itertools import repeat
from typing import Callable, Iterable, Iterator

from .engine import CycleCensus
from .graph import SignedDigraph

__all__ = ["census_map"]

# guards _POOL and _READERS
_LOCK = threading.Lock()
# (size, executor) of the live pool, or None before first use
_POOL = None
# calls that are reading from the live pool
_READERS = 0


def _drop_pool() -> None:
    """Shut the pool down, joining its workers and manager thread, and
    drop it.  Called with _LOCK held."""
    global _POOL
    if _POOL is not None:
        _POOL[1].shutdown()
        _POOL = None


@atexit.register
def _drop_pool_at_exit() -> None:
    # the hook of concurrent.futures has joined the workers by now;
    # dropping the executor here, while that module is still loaded,
    # frees it before interpreter teardown would
    with _LOCK:
        _drop_pool()


def _acquire(size: int):
    """The pool a new call reads from: one of ``size`` processes, or the
    live pool whatever its size while another call reads from it."""
    global _POOL, _READERS
    with _LOCK:
        if _POOL is not None and _POOL[0] != size and not _READERS:
            # no thread of the old pool may run when the new pool forks
            _drop_pool()
        if _POOL is None:
            # imported here: only a pool needs it, and it is slow to load
            from concurrent.futures import ProcessPoolExecutor

            _POOL = (size, ProcessPoolExecutor(max_workers=size))
        _READERS += 1
        return _POOL[1]


def _release(pool, broken: bool) -> None:
    global _READERS
    with _LOCK:
        _READERS -= 1
        if broken and _POOL is not None and _POOL[1] is pool:
            # a worker died: the next call starts a fresh pool
            _drop_pool()


def census_map(census: Callable[[SignedDigraph, int], CycleCensus],
               graphs: Iterable[SignedDigraph], tasks: int, max_length: int,
               workers: int) -> Iterator[CycleCensus]:
    """``census(graph, max_length)`` of each of the ``tasks`` graphs, in
    order, computed as the returned iterator is read.

    With min(workers, tasks) <= 1 every census is called here with exactly
    those two positional arguments, through the ``census`` the caller
    passes, so that a wrapper installed on the caller's module sees each
    call; otherwise pool workers count them.  A census that raises raises
    here, and the tasks not yet read are cancelled.  Callers check that
    ``workers`` >= 1.
    """
    size = min(workers, tasks)
    if size <= 1:
        return (census(g, max_length) for g in graphs)
    return _pooled(size, census, graphs, max_length)


def _pooled(size: int, census, graphs, max_length: int):
    from concurrent.futures.process import BrokenProcessPool

    pool = _acquire(size)
    broken = False
    try:
        yield from pool.map(census, graphs, repeat(max_length))
    except BrokenProcessPool:
        broken = True
        raise
    finally:
        _release(pool, broken)
