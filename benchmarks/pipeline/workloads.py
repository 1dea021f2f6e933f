"""The pipeline benchmark's three workloads.

Each workload is a *set-up*, which prepares what the timed region reads
and is timed only as ``setup_s``, and a *round*, one pass of the
workload's calls made through a :class:`run.Recorder`.  The recorder
times every call from outside and checks every output; nothing under
``src/`` is instrumented.  Sizes are fixed here, so two commits always
measure the same work; only the seed varies.  The set-ups take the
sizes as keyword arguments so that the smoke test can shrink them; the
command line cannot.

Every machine profile is generated with the benchmark's ``--seed``:
the profiles differ, so their traces do too.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.cache.policies import DELAYED_WRITE
from repro.cache.replacement import REPLACEMENT_NAMES
from repro.cache.stream import cached_stream
from repro.cache.sweep import (
    PAPER_CACHE_SIZES,
    PAPER_POLICIES,
    cache_size_policy_sweep,
)
from repro.corpus import analyze_corpus, read_corpus_columns, validate_corpus
from repro.parallel.packed import cached_packed_stream
from repro.parallel.veccache import replay_packed
from repro.workload.generator import GenerationResult, generate
from repro.workload.profiles import UCBARPA, UCBCAD, UCBERNIE

HOUR = 3600.0
BLOCK_SIZE = 4096
MACHINES = (UCBARPA, UCBERNIE, UCBCAD)

#: paper-a5's trace: long enough that generation and the in-RAM trace
#: dominate, as they do on the paper's own multi-day traces.
PAPER_HOURS = 64
#: The Table VI sweep's pool.  ``jobs=1`` is not a smaller version of
#: this load: it selects the oracle ``BlockCacheSimulator`` instead of
#: the packed replays.
SWEEP_JOBS = 2
ZOO_HOURS = 8
QUERY_HOURS = 16

#: Every span a round records, with the unit of its ``per_s`` rate.
SPAN_RATE_UNITS = {
    "workload.generate": "events/s",
    "corpus.validate": "events/s",
    "corpus.analyze": "events/s",
    "corpus.load": "events/s",
    "cache.stream": "items/s",
    "parallel.pack": "rows/s",
    "cache.sweep": "accesses/s",
    **{f"parallel.replay.{name}": "accesses/s" for name in REPLACEMENT_NAMES},
}


@dataclass(frozen=True)
class Workload:
    setup: Callable[..., object]
    round: Callable[[object, object], None]
    #: Calls one round makes; all count as failed if the engine check fails.
    calls_per_round: int


@dataclass(frozen=True)
class Corpus:
    name: str
    path: Path
    events: int
    segments: int
    nbytes: int


def _analyze(path: Path) -> str:
    # render() materializes the report's lazy fields: the analysis is
    # not done until the user-visible output exists.
    return analyze_corpus(path).render()


def _load(path: Path):
    return read_corpus_columns(path).to_log()


def _packed_bytes(packed) -> bytes:
    return packed.ops + packed.keys.tobytes() + packed.times.tobytes()


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _count_generation(rec, result: GenerationResult, events: int) -> None:
    fs = result.fs
    stats = fs.buffer_cache.stats
    rec.count("workload.generate.events", events)
    rec.count("workload.generate.resumptions", result.engine_resumptions)
    rec.count("unixfs.syscalls", sum(fs.syscall_counts.values()))
    rec.count("unixfs.bcache.read_hits", stats.read_hits)
    rec.count("unixfs.bcache.reads", stats.read_hits + stats.read_misses)


def _count_corpus(rec, corpus: Corpus) -> None:
    rec.count("corpus.segments", corpus.segments)
    rec.count("corpus.bytes", corpus.nbytes)
    rec.count("corpus.events", corpus.events)


def _pack(rec, log, label: str):
    stream = rec.call("cache.stream", cached_stream, log)
    rec.check(f"{label}/stream", ok=bool(stream), items=len(stream))
    packed = rec.call("parallel.pack", cached_packed_stream, log, BLOCK_SIZE)
    rec.check(f"{label}/pack", items=len(packed), output=_packed_bytes(packed))
    rec.count("parallel.pack.rows", len(packed))
    rec.count("parallel.pack.accesses", packed.n_accesses)
    return packed


# -- paper-a5: the paper's path on UCBARPA ------------------------------------


def paper_setup(seed: int, tmp: Path, hours: float = PAPER_HOURS):
    return seed, tmp / "A5.bcorpus", hours


def paper_round(rec, state) -> None:
    seed, path, hours = state
    # The whole round is one request: its calls differ too much for a
    # percentile over them to mean anything.
    with rec.request():
        _paper_calls(rec, seed, path, hours)


def _paper_calls(rec, seed: int, path: Path, hours: float) -> None:
    gen = rec.call(
        "workload.generate",
        generate,
        UCBARPA,
        seed=seed,
        duration=hours * HOUR,
        spool=path,
    )
    events = gen.events_spooled
    rec.check("A5/corpus", ok=events > 0, items=events, output=path.read_bytes())
    rec.count("source_events", events)
    _count_generation(rec, gen, events)
    _count_corpus(
        rec, Corpus("A5", path, events, gen.segments_spooled, path.stat().st_size)
    )

    report = rec.call("corpus.validate", validate_corpus, path)
    rec.check(
        "A5/validate",
        ok=report.ok and report.event_count == events,
        items=events,
        output=repr(report),
    )
    rendered = rec.call("corpus.analyze", _analyze, path)
    rec.check("A5/analyze", items=events, output=rendered)
    log = rec.call("corpus.load", _load, path)
    rec.check("A5/load", ok=len(log) == events, items=events)

    packed = _pack(rec, log, "A5")

    cpu_before = _children_cpu_s()
    sweep = rec.call(
        "cache.sweep",
        cache_size_policy_sweep,
        log,
        jobs=SWEEP_JOBS,
        replacement="lru",
    )
    rec.count("cache.sweep.child_cpu_s", _children_cpu_s() - cpu_before)
    rec.count("cache.sweep.pool_s", rec.last_seconds * SWEEP_JOBS)
    cells = sweep.results
    rec.check(
        "A5/sweep",
        ok=len(cells) == len(PAPER_CACHE_SIZES) * len(PAPER_POLICIES)
        and all(m.block_accesses == packed.n_accesses for m in cells.values()),
        items=packed.n_accesses * len(cells),
        output=repr(sorted(cells.items())),
    )


# -- policy-zoo: Table VI revisited at the paper's sizes ----------------------


def zoo_setup(seed: int, tmp: Path, hours: float = ZOO_HOURS):
    return seed, hours


def zoo_round(rec, state) -> None:
    seed, hours = state
    for profile in MACHINES:
        name = profile.trace_name
        gen = rec.call(
            "workload.generate",
            generate,
            profile,
            seed=seed,
            duration=hours * HOUR,
        )
        log = gen.trace
        rec.check(f"{name}/generate", ok=len(log) > 0, items=len(log))
        rec.count("source_events", len(log))
        _count_generation(rec, gen, len(log))

        packed = _pack(rec, log, name)
        # Each replay is one request.
        for policy in REPLACEMENT_NAMES:
            for size in PAPER_CACHE_SIZES:
                with rec.request():
                    run = rec.call(
                        f"parallel.replay.{policy}",
                        replay_packed,
                        packed,
                        size,
                        DELAYED_WRITE,
                        replacement=policy,
                        flush_epoch=packed.start_time,
                    )
                rec.check(
                    f"{name}/{policy}/{size}",
                    ok=run.metrics.block_accesses == packed.n_accesses,
                    items=packed.n_accesses,
                    output=repr(run.metrics),
                )


# -- corpus-query: checking archived corpora ----------------------------------


def query_setup(seed: int, tmp: Path, hours: float = QUERY_HOURS) -> list[Corpus]:
    corpora = []
    for profile in MACHINES:
        path = tmp / f"{profile.trace_name}.bcorpus"
        gen = generate(profile, seed=seed, duration=hours * HOUR, spool=path)
        corpora.append(
            Corpus(
                profile.trace_name,
                path,
                gen.events_spooled,
                gen.segments_spooled,
                path.stat().st_size,
            )
        )
    return corpora


def query_round(rec, corpora: list[Corpus]) -> None:
    # One request checks one archived corpus: the library calls that
    # ``repro-fs validate`` and then ``repro-fs analyze`` make, with
    # their output rendered, in this process.
    for corpus in corpora:
        _count_corpus(rec, corpus)
        with rec.request():
            report = rec.call("corpus.validate", validate_corpus, corpus.path)
            rec.check(
                f"{corpus.name}/validate",
                ok=report.ok and report.event_count == corpus.events,
                items=corpus.events,
                output=repr(report),
            )
            rendered = rec.call("corpus.analyze", _analyze, corpus.path)
            rec.check(f"{corpus.name}/analyze", items=corpus.events, output=rendered)
        # Each of the two calls reads every event.
        rec.count("source_events", 2 * corpus.events)


WORKLOADS = {
    "paper-a5": Workload(paper_setup, paper_round, 7),
    "policy-zoo": Workload(
        zoo_setup,
        zoo_round,
        len(MACHINES) * (3 + len(REPLACEMENT_NAMES) * len(PAPER_CACHE_SIZES)),
    ),
    "corpus-query": Workload(query_setup, query_round, 2 * len(MACHINES)),
}
