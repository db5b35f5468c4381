"""The one ordered parallel map behind the searches and the Monte Carlo run.

``ordered_map(fn, ctx, jobs, workers)`` yields ``fn(ctx, job)`` for each
job in order, so a caller merging results as they arrive sees the same
sequence for any worker count.  One worker runs each job in place and
pickles nothing.  More start a pool of at most one process per job, each
handed ``ctx`` once by its initializer; the pool is terminated when the
caller finishes, raises, or stops early and drops the generator.  Jobs go
out in batches of about 1/32 of each worker's share, unless ``single`` asks
for one job per batch: a caller that may stop early (a search with a
budget) then sees each result as it is made and stops the pool near where
it stops reading.  ``check_workers`` is the one rule for a worker count,
1 to ``MAX_WORKERS``; each caller applies it before any pool starts.
"""

from __future__ import annotations

from multiprocessing import Pool
from typing import Any, Callable, Iterator, Sequence

MAX_WORKERS = 64
_worker = None  # (fn, ctx), set in each pool process by _set_worker


def check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= {MAX_WORKERS}, got {workers}")


def _set_worker(fn: Callable[[Any, Any], Any], ctx: Any) -> None:
    global _worker
    _worker = (fn, ctx)


def _call(job: Any) -> Any:
    fn, ctx = _worker
    return fn(ctx, job)


def ordered_map(
    fn: Callable[[Any, Any], Any],
    ctx: Any,
    jobs: Sequence[Any],
    workers: int,
    single: bool = False,
) -> Iterator[Any]:
    workers = min(workers, len(jobs))
    if workers <= 1:
        for job in jobs:
            yield fn(ctx, job)
        return
    chunksize = 1 if single else max(1, len(jobs) // (32 * workers))
    with Pool(workers, initializer=_set_worker, initargs=(fn, ctx)) as pool:
        yield from pool.imap(_call, jobs, chunksize=chunksize)
