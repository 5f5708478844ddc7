"""Deterministic parallel-map utilities.

The paper ran LoadDynamics on a 16-core Xeon; the brute-force baseline and
the 21-predictor CloudInsight council are embarrassingly parallel.  This
module provides a tiny, dependency-free process-pool map with:

* deterministic output ordering (results returned in input order),
* chunking so tiny tasks don't drown in IPC overhead,
* a serial fallback (``n_workers<=1`` or inside an active pool / pytest-
  sensitive paths) so callers never need two code paths,
* graceful degradation when the platform disallows forking.

Everything submitted must be picklable (top-level functions + plain data),
per the usual multiprocessing contract.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any, TypeVar

from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger

logger = get_logger("parallel")

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map", "effective_workers", "chunk_indices"]

#: Environment variable users can set to cap worker processes globally.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def _available_cpus() -> int:
    """CPUs this process may run on.

    The affinity mask, where the platform has one, so a process pinned
    to fewer CPUs (a cgroup cpuset, ``taskset``) is not oversubscribed;
    otherwise ``os.cpu_count()``.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def effective_workers(n_workers: int | None = None) -> int:
    """Resolve the worker count.

    ``None`` means "use every CPU this process may run on", honouring
    :data:`MAX_WORKERS_ENV`.
    Values below 1 are clamped to 1 (serial); a malformed or sub-serial
    env cap is clamped with a ``repro.parallel`` warning rather than
    silently forcing a surprise serial run.
    """
    cap_text = os.environ.get(MAX_WORKERS_ENV)
    cpu = _available_cpus()
    if n_workers is None:
        n_workers = cpu
    if cap_text is not None:
        try:
            cap = int(cap_text)
        except ValueError:
            logger.warning(
                "ignoring non-integer %s=%r", MAX_WORKERS_ENV, cap_text
            )
        else:
            if cap < 1:
                logger.warning(
                    "%s=%d is below 1; clamping to 1 (serial execution)",
                    MAX_WORKERS_ENV,
                    cap,
                )
                cap = 1
            n_workers = min(n_workers, cap)
    return max(1, min(n_workers, cpu))


def chunk_indices(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous spans.

    Spans are balanced to within one item, mirroring the classic block
    decomposition used for MPI rank work assignment.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if n_chunks < 1:
        raise ValueError("n_chunks must be positive")
    n_chunks = min(n_chunks, max(n_items, 1))
    base, extra = divmod(n_items, n_chunks)
    spans: list[tuple[int, int]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        spans.append((start, start + size))
        start += size
    return [s for s in spans if s[1] > s[0]] or ([(0, 0)] if n_items == 0 else [])


def _run_chunk(payload: tuple[Callable[..., Any], Sequence[Any]]) -> list[Any]:
    fn, items = payload
    return [fn(item) for item in items]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    n_workers: int | None = None,
    chunks_per_worker: int = 4,
) -> list[R]:
    """Map ``fn`` over ``items`` with a process pool, preserving order.

    Falls back to a plain serial loop when only one worker is requested,
    when there are fewer than two items, or when process creation fails
    (e.g. sandboxed environments).  The serial and parallel paths produce
    identical results for deterministic ``fn``.

    Requested vs delivered parallelism is exposed as the gauges
    ``parallel.workers_requested`` / ``parallel.workers_effective`` so a
    run on a core-starved box (where the cpu clamp or a fork failure
    silently serializes the map) is visible in telemetry instead of
    masquerading as a slow parallel run.
    """
    data = list(items)
    workers = effective_workers(n_workers)
    _metrics.gauge("parallel.workers_requested").set(
        float(n_workers if n_workers is not None else _available_cpus())
    )
    if workers <= 1 or len(data) < 2:
        _metrics.gauge("parallel.workers_effective").set(1.0)
        return [fn(item) for item in data]

    spans = chunk_indices(len(data), workers * max(1, chunks_per_worker))
    payloads = [(fn, data[a:b]) for a, b in spans]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunked = list(pool.map(_run_chunk, payloads))
    except (OSError, PermissionError, RuntimeError):
        # Sandboxes and some CI environments forbid fork/spawn; degrade
        # quietly to serial execution, which is always correct.
        _metrics.gauge("parallel.workers_effective").set(1.0)
        return [fn(item) for item in data]
    _metrics.gauge("parallel.workers_effective").set(float(workers))
    out: list[R] = []
    for chunk in chunked:
        out.extend(chunk)
    return out
