"""The trace generator: run a machine profile, capture the trace.

This stands in for the paper's instrumented production machines: build the
initial namespace (untraced — the real disks were already populated when
tracing began), attach the kernel tracer, spawn one session per user plus
the network status daemons, run the discrete-event engine for the desired
duration and hand back the trace.

A profile plus a seed determines the trace bit-for-bit — in memory, to a
bounded-memory ``.bcorpus`` spool (``spool=...``), serial or on a process
pool (:func:`generate_many`); every route yields the identical event
sequence.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import IO, Sequence, Union

from ..clock import Clock
from ..parallel.executor import run_jobs
from ..trace.log import TraceLog
from ..unixfs.buffercache import BufferCache
from ..unixfs.filesystem import FileSystem
from ..unixfs.geometry import Geometry
from ..unixfs.tracer import KernelTracer
from .apps import ACTIVITIES
from .apps.base import AppContext
from .apps.statusdaemon import status_daemon
from .distributions import WeightedChoice
from .engine import Engine
from .namespace import build_namespace
from .profiles import MachineProfile
from .users import user_session

__all__ = [
    "GenerationResult",
    "SpoolSummary",
    "generate",
    "generate_many",
    "generate_trace",
]

#: Device large enough that multi-day syntheses never hit ENOSPC.
_DEVICE_BYTES = 2 * 1024 * 1024 * 1024

_PathOrFile = Union[str, os.PathLike, IO[bytes]]


@dataclass
class GenerationResult:
    """What :func:`generate` returns.

    In spool mode (``spool=...``) the events went straight to a corpus:
    ``trace`` is ``None`` and the spool fields describe what was written
    (``peak_buffered`` is the largest number of events ever resident at
    once — bounded by the spool buffer).
    """

    trace: TraceLog | None
    fs: FileSystem
    profile: MachineProfile
    seed: int
    duration: float
    engine_resumptions: int
    spool_path: str | None = None
    events_spooled: int = 0
    peak_buffered: int = 0
    segments_spooled: int = 0


def generate(
    profile: MachineProfile,
    seed: int = 0,
    duration: float = 4 * 3600.0,
    spool: _PathOrFile | None = None,
    spool_buffer: int = 8192,
) -> GenerationResult:
    """Run *profile* for *duration* simulated seconds; return trace + system.

    With ``spool`` set (a path or a binary file object), events stream
    into a sharded :mod:`repro.corpus` file with *spool_buffer* as the
    segment size, so memory stays O(buffer) however long the synthesis
    runs.
    """
    root_rng = random.Random(seed)
    clock = Clock()
    fs = FileSystem(
        geometry=Geometry(total_bytes=_DEVICE_BYTES),
        clock=clock,
        buffer_cache=BufferCache(capacity_bytes=profile.buffer_cache_bytes),
    )

    ns = build_namespace(
        fs, profile.namespace, random.Random(root_rng.randrange(2**63))
    )

    # Attach the tracer only now: setup traffic is not part of the trace.
    # Reset the kernel's own counters too, so the returned system's
    # statistics line up with the trace (the real machines' disks were
    # already populated when tracing began).
    if spool is None:
        sink = None
    else:
        from ..corpus.writer import CorpusSpool

        sink = CorpusSpool(
            spool, name=profile.trace_name, buffer_events=spool_buffer
        )
    tracer = KernelTracer(log=sink, name=profile.trace_name)
    tracer.log.description = profile.description
    fs.tracer = tracer
    fs.syscall_counts.clear()
    fs.total_bytes_read = 0
    fs.total_bytes_written = 0
    fs.buffer_cache.stats = type(fs.buffer_cache.stats)()

    engine = Engine(clock)
    mix = WeightedChoice(
        [(ACTIVITIES[name], weight) for name, weight in profile.activity_mix]
    )
    for uid in range(1, profile.n_users + 1):
        ctx = AppContext(
            fs=fs,
            ns=ns,
            rng=random.Random(root_rng.randrange(2**63)),
            uid=uid,
            clock=clock,
            io_delay_mean=profile.io_delay_mean,
        )
        engine.spawn(user_session(ctx, mix, profile.think, profile.diurnal))

    daemon_ctx = AppContext(
        fs=fs,
        ns=ns,
        rng=random.Random(root_rng.randrange(2**63)),
        uid=0,
        clock=clock,
        io_delay_mean=profile.io_delay_mean,
    )
    engine.spawn(status_daemon(daemon_ctx, period=profile.status_daemon_period))

    engine.run(until=duration)
    if sink is not None:
        sink.close()
        return GenerationResult(
            trace=None,
            fs=fs,
            profile=profile,
            seed=seed,
            duration=duration,
            engine_resumptions=engine.resumptions,
            spool_path=None if hasattr(spool, "write") else os.fspath(spool),
            events_spooled=sink.events_spooled,
            peak_buffered=sink.peak_buffered,
            segments_spooled=sink.segments_spooled,
        )
    return GenerationResult(
        trace=tracer.log,
        fs=fs,
        profile=profile,
        seed=seed,
        duration=duration,
        engine_resumptions=engine.resumptions,
    )


def generate_trace(
    profile: MachineProfile, seed: int = 0, duration: float = 4 * 3600.0
) -> TraceLog:
    """Convenience wrapper returning just the trace."""
    return generate(profile, seed=seed, duration=duration).trace


# -- multi-seed / multi-machine generation -----------------------------------


@dataclass(frozen=True)
class SpoolSummary:
    """One spooled generation: where the corpus went and how big it got."""

    trace_name: str
    seed: int
    path: str
    events: int
    peak_buffered: int
    segments: int = 0


def _generate_job(payload, job):
    """Module-level worker for :func:`run_jobs` (must be picklable)."""
    duration, spool_buffer = payload
    profile, seed, output = job
    result = generate(
        profile, seed=seed, duration=duration, spool=output, spool_buffer=spool_buffer
    )
    if output is None:
        return result.trace
    return SpoolSummary(
        trace_name=profile.trace_name,
        seed=seed,
        path=result.spool_path,
        events=result.events_spooled,
        peak_buffered=result.peak_buffered,
        segments=result.segments_spooled,
    )


def generate_many(
    profile_seeds: Sequence[tuple[MachineProfile, int]],
    duration: float = 4 * 3600.0,
    jobs: int | None = None,
    outputs: Sequence[Union[str, os.PathLike]] | None = None,
    spool_buffer: int = 8192,
) -> list:
    """Generate several traces, in parallel when *jobs* allows.

    Each ``(profile, seed)`` pair runs as one job on the sweep executor
    (``jobs=None`` picks up the ambient ``--jobs`` context, defaulting to
    serial).  With ``outputs`` unset the traces come back as in-memory
    :class:`~repro.trace.log.TraceLog`\\ s, in input order; with
    ``outputs`` (one path per pair) each worker spools its trace to a
    corpus with bounded memory and a :class:`SpoolSummary` comes back instead.
    Results are identical to running :func:`generate` serially — the
    profile+seed fully determines each trace.
    """
    if outputs is not None and len(outputs) != len(profile_seeds):
        raise ValueError(
            f"need one output per (profile, seed) pair: "
            f"{len(outputs)} outputs for {len(profile_seeds)} pairs"
        )
    seen_pairs: set[tuple[str, int]] = set()
    for profile, seed in profile_seeds:
        pair = (profile.trace_name, seed)
        if pair in seen_pairs:
            raise ValueError(
                f"duplicate (profile, seed) pair {pair}: identical jobs "
                "would produce identical traces"
            )
        seen_pairs.add(pair)
    if outputs is not None:
        seen_paths: set[str] = set()
        for output in outputs:
            path = os.fspath(output)
            if path in seen_paths:
                raise ValueError(
                    f"duplicate output path {path!r}: parallel workers "
                    "would clobber each other's spool"
                )
            seen_paths.add(path)
    jobs_list = [
        (profile, seed, None if outputs is None else outputs[i])
        for i, (profile, seed) in enumerate(profile_seeds)
    ]
    return run_jobs(
        _generate_job,
        jobs_list,
        payload=(duration, spool_buffer),
        jobs=jobs,
        timeout=None,
    )
