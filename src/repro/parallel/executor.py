"""The sweep executor: independent (payload, job) runs on a process pool.

A sweep decomposes into jobs that share one large read-only input (the
pre-decoded streams) and differ only in a small configuration tuple.
:func:`run_jobs` runs them on a :class:`~concurrent.futures.ProcessPoolExecutor`
with the payload handed to each worker **once**, through the pool
initializer, never per job.  Under the ``fork`` start method the
workers inherit the initializer's arguments (zero pickling); under
``spawn`` or ``forkserver`` the payload is pickled once per worker.

Guarantees:

* **deterministic ordering** — results come back in job-list order
  regardless of completion order;
* **serial when asked** — ``jobs=1`` (or a single job) runs in-process
  with no pool, byte-identical to the parallel answer;
* **graceful degradation** — a dead pool, an unpicklable payload or a
  per-job timeout cancels the pool and reruns the whole list serially,
  so callers never see a partial result (a worker whose own logic raises
  will re-raise from the serial rerun, where the traceback is readable).

``jobs_context`` provides an ambient default so a ``--jobs`` flag set at
the CLI reaches sweeps buried under the experiment registry, whose
entry points take only a trace.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "auto_jobs",
    "resolve_jobs",
    "jobs_context",
    "run_jobs",
]

#: Upper bound on worker processes, however many cores the host has.
MAX_JOBS = 8

#: Seconds each job may run before the pool is abandoned for serial.
DEFAULT_JOB_TIMEOUT = 300.0

_ambient_jobs: int | None = None

# The shared payload of a worker process, set once by _init_worker.  The
# parent never sets it.
_payload: Any = None


def _init_worker(payload: Any) -> None:
    global _payload
    _payload = payload


def _call_chunk(worker: Callable[[Any, Any], Any], chunk: Sequence[Any]) -> list[Any]:
    return [worker(_payload, job) for job in chunk]


def auto_jobs() -> int:
    """Default worker count: the CPU count, capped at :data:`MAX_JOBS`."""
    return max(1, min(os.cpu_count() or 1, MAX_JOBS))


def resolve_jobs(jobs: int | None) -> int:
    """Validate an explicit *jobs* or fall back to the ambient default.

    ``None`` means "whatever :func:`jobs_context` established", or serial
    when no context is active — library calls stay serial unless a caller
    (the CLI, a runner) opted into parallelism somewhere above.
    """
    if jobs is None:
        return _ambient_jobs if _ambient_jobs is not None else 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@contextmanager
def jobs_context(jobs: int | None) -> Iterator[int]:
    """Establish the ambient job count for nested sweep calls."""
    global _ambient_jobs
    resolved = resolve_jobs(jobs) if jobs is not None else auto_jobs()
    previous = _ambient_jobs
    _ambient_jobs = resolved
    try:
        yield resolved
    finally:
        _ambient_jobs = previous


def _run_serial(
    worker: Callable[[Any, Any], Any], jobs_list: Sequence[Any], payload: Any
) -> list[Any]:
    return [worker(payload, job) for job in jobs_list]


def run_jobs(
    worker: Callable[[Any, Any], Any],
    jobs_list: Sequence[Any],
    payload: Any = None,
    jobs: int | None = None,
    timeout: float | None = DEFAULT_JOB_TIMEOUT,
) -> list[Any]:
    """Run ``worker(payload, job)`` for each job; results in job order.

    *worker* must be a module-level function and each job's result
    picklable.  With ``jobs=1``, one job, or an unusable pool, everything
    runs serially in-process.
    """
    n = resolve_jobs(jobs)
    jobs_list = list(jobs_list)
    if n <= 1 or len(jobs_list) <= 1:
        return _run_serial(worker, jobs_list, payload)

    pool = None
    try:
        pool = ProcessPoolExecutor(
            max_workers=min(n, len(jobs_list)),
            mp_context=multiprocessing.get_context(),
            initializer=_init_worker,
            initargs=(payload,),
        )
        # Submit in chunks of a few jobs each (roughly two rounds per
        # worker) so the per-future IPC cost is paid per chunk, not
        # per job, while still leaving the pool room to balance load.
        size = max(1, len(jobs_list) // (2 * n))
        chunks = [
            jobs_list[i : i + size] for i in range(0, len(jobs_list), size)
        ]
        futures = [pool.submit(_call_chunk, worker, chunk) for chunk in chunks]
        # The per-job timeout scales with the chunk it rides in.
        chunk_timeout = None if timeout is None else timeout * size
        return [
            result
            for future in futures
            for result in future.result(timeout=chunk_timeout)
        ]
    except Exception:
        # The pool died, timed out, or could not be built; unpicklable
        # payloads and results surface as pool errors too.  Cancel
        # what is pending and produce the full answer serially — a
        # genuine worker bug re-raises from there, where its
        # traceback is readable.
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
        return _run_serial(worker, jobs_list, payload)
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
