"""End-to-end benchmark of the paper's chain: trace, reduce, replay.

One invocation runs one workload of ``workloads.py``.  Its set-up runs
``SETUP_REPEATS`` times; then rounds of the workload's calls run one at
a time, closed-loop, until ``--seconds`` have passed.  Every call is
timed from outside and every output is checked.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 14, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` they are the per-layer ones, taken over every round; the
recorder then also reads ``ru_maxrss`` after each call, and the time
those reads take is ``tracing.overhead_s``.  Without ``--workload``
every workload runs, each in a fresh process.  ``--out PATH`` also
writes every sample, the spans, the output digests and the environment.

From the repository root::

    python3 benchmarks/pipeline/run.py --workload paper-a5 --seed 7 --seconds 20 --trace 0

See README.md beside this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

#: ``setup_s`` counts from here.  numpy and ``repro`` are imported later,
#: in ``main``, so their imports are counted.
START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: The workload's own set-up runs this many times; ``setup_s`` counts
#: the median one.
SETUP_REPEATS = 3
#: What per_layer reports for each span, as ``<span>.<stat>``.
SPAN_STATS = ("share", "calls", "per_s", "rss_mb")
#: The seed whose output digests are recorded in expected.json.
EXPECTED_SEED = 7

#: Per-layer counts, reported per round.
COUNTS = (
    "workload.generate.events",
    "workload.generate.resumptions",
    "unixfs.syscalls",
    "corpus.segments",
)
#: Per-layer ratios: (numerator count, denominator count, unit).
RATIOS = {
    "unixfs.bcache.read_hit_ratio": (
        "unixfs.bcache.read_hits",
        "unixfs.bcache.reads",
        "ratio",
    ),
    "corpus.bytes_per_event": ("corpus.bytes", "corpus.events", "B/event"),
    "parallel.pack.rows_per_access": (
        "parallel.pack.rows",
        "parallel.pack.accesses",
        "ratio",
    ),
    # Pool CPU over what the pool's workers could have used.
    "cache.sweep.pool_efficiency": (
        "cache.sweep.child_cpu_s",
        "cache.sweep.pool_s",
        "ratio",
    ),
}


def _rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


@dataclass
class Call:
    """One call: a span from the benchmark's side of the boundary."""

    round: int
    span: str
    start_ns: int
    end_ns: int
    request: int | None = None
    rss_mb: float | None = None
    key: str | None = None
    items: int = 0
    failed: bool = False

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Recorder:
    """Times a workload's calls from outside and checks their outputs.

    A round's wall time is the sum of its calls' times, so the checks
    between calls cost the measurement nothing.  Each output digest must
    equal the first one seen under its key (the same seed gives the same
    output on every round and every repeated request) and, when
    *expected* is given, the recorded one.  With *trace*, ``ru_maxrss``
    is read after each call, and the time the reads take is kept per
    round in ``overhead_ns``.
    """

    def __init__(self, trace: bool = False, expected: dict[str, str] | None = None):
        self.trace = trace
        self.expected = expected
        self.calls: list[Call] = []
        self.counts: list[Counter] = []
        #: Each round's elapsed time, checks and bookkeeping included.
        self.elapsed: list[float] = []
        self.overhead_ns: list[int] = []
        self.digests: dict[str, str] = {}
        self._reported: set[str] = set()
        self._request: int | None = None
        self._requests = 0

    def begin_round(self) -> None:
        self.counts.append(Counter())
        self.overhead_ns.append(0)

    @contextmanager
    def request(self):
        """The calls made inside are one request for ``op_p50_ms``/``op_p90_ms``."""
        self._request = self._requests
        self._requests += 1
        try:
            yield
        finally:
            self._request = None

    def call(self, span: str, fn, *args, **kwargs):
        rnd = len(self.counts) - 1
        ok = False
        start = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            ok = True
        finally:
            end = perf_counter_ns()
            rss = None
            if self.trace:
                rss = _rss_mb()
                self.overhead_ns[rnd] += perf_counter_ns() - end
            self.calls.append(
                Call(rnd, span, start, end, self._request, rss, failed=not ok)
            )
        return out

    @property
    def last_seconds(self) -> float:
        return self.calls[-1].seconds

    def check(self, key: str, ok: bool = True, items: int = 0, output=None) -> None:
        """Check the last call's output; a failed check fails the call."""
        call = self.calls[-1]
        call.key, call.items = key, items
        problems = [] if ok else ["output check failed"]
        if output is not None:
            data = output if isinstance(output, bytes) else output.encode()
            digest = hashlib.sha256(data).hexdigest()
            first = self.digests.setdefault(key, digest)
            if digest != first:
                problems.append(f"digest differs from the first ({first[:12]})")
            if self.expected is not None and self.expected.get(key) != digest:
                problems.append(f"digest {digest[:12]} differs from expected.json")
        if problems:
            call.failed = True
            if key not in self._reported:
                self._reported.add(key)
                print(f"check failed: {key}: {'; '.join(problems)}", file=sys.stderr)

    def count(self, name: str, value: float) -> None:
        self.counts[-1][name] += value

    def round_walls(self) -> list[float]:
        walls = [0.0] * len(self.counts)
        for call in self.calls:
            walls[call.round] += call.seconds
        return walls

    def request_ms(self) -> list[float]:
        """Each request's latency: the summed time of its calls."""
        seconds: dict[int, float] = defaultdict(float)
        for call in self.calls:
            if call.request is not None:
                seconds[call.request] += call.seconds
        return [s * 1e3 for s in seconds.values()]


@dataclass
class Metric:
    value: float
    unit: str
    samples: list[float] = field(default_factory=list)

    def summary(self) -> dict:
        out = {"value": self.value, "unit": self.unit}
        if self.samples:
            out.update(
                n=len(self.samples),
                min=min(self.samples),
                max=max(self.samples),
                samples=self.samples,
            )
        return out


def _median(samples: list[float], unit: str) -> Metric:
    return Metric(statistics.median(samples), unit, samples)


def _p90(samples: list[float], unit: str) -> Metric:
    if len(samples) < 2:
        return Metric(samples[0], unit, samples)
    return Metric(
        statistics.quantiles(samples, n=10, method="inclusive")[-1], unit, samples
    )


def run_rounds(workload, state, rec: Recorder, seconds: float) -> bool:
    """Run rounds until *seconds* have passed, at least one; False if a call raised."""
    start = perf_counter()
    while not rec.counts or perf_counter() - start < seconds:
        began = perf_counter()
        rec.begin_round()
        try:
            workload.round(rec, state)
        except Exception:
            traceback.print_exc()
            return False
        rec.elapsed.append(perf_counter() - began)
        gc.collect()
    return True


def measure(
    workload,
    seed: int,
    seconds: float,
    scratch: Path,
    trace: bool = False,
    expected: dict[str, str] | None = None,
    **sizes,
) -> tuple[Recorder, float, bool]:
    """Set *workload* up, run its rounds, and return (recorder, setup_s, completed).

    ``setup_s`` is the time from ``START`` to this call plus the median
    of ``SETUP_REPEATS`` set-ups; the last set-up's state is the one the
    rounds use.  *sizes* go to the set-up and are for tests only.
    """
    rec = Recorder(trace, expected)
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        before = perf_counter() - START
        setups = []
        for k in range(SETUP_REPEATS):
            t = perf_counter()
            where = tmp / f"setup-{k}"
            where.mkdir()
            state = workload.setup(seed, where, **sizes)
            setups.append(perf_counter() - t)
        completed = run_rounds(workload, state, rec, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return rec, before + statistics.median(setups), completed


def end_to_end(rec: Recorder, setup_s: float) -> dict[str, Metric]:
    walls = rec.round_walls()
    rates = [rec.counts[r]["source_events"] / wall for r, wall in enumerate(walls)]
    ops = rec.request_ms()
    return {
        "setup_s": Metric(setup_s, "s"),
        "wall_s": _median(walls, "s"),
        "events_per_s": _median(rates, "events/s"),
        "peak_rss_mb": Metric(
            max(_rss_mb(), _rss_mb(resource.RUSAGE_CHILDREN)), "MB"
        ),
        "op_p50_ms": _median(ops, "ms"),
        "op_p90_ms": _p90(ops, "ms"),
    }


def per_layer(rec: Recorder, span_rate_units: dict[str, str]) -> dict[str, Metric]:
    rounds = len(rec.counts)
    wall = sum(rec.round_walls())
    out: dict[str, Metric] = {}
    for span, rate_unit in span_rate_units.items():
        calls = [c for c in rec.calls if c.span == span]
        busy = sum(c.seconds for c in calls)
        out[f"{span}.share"] = Metric(busy / wall, "ratio")
        out[f"{span}.calls"] = Metric(len(calls) / rounds, "count")
        out[f"{span}.per_s"] = Metric(
            sum(c.items for c in calls) / busy if busy else 0.0, rate_unit
        )
        out[f"{span}.rss_mb"] = Metric(
            max((c.rss_mb or 0.0 for c in calls), default=0.0), "MB"
        )
    for name in COUNTS:
        out[name] = _median([counts[name] for counts in rec.counts], "count")
    for name, (num, den, unit) in RATIOS.items():
        total = sum(counts[den] for counts in rec.counts)
        value = sum(counts[num] for counts in rec.counts) / total if total else 0.0
        out[name] = Metric(value, unit)
    out["tracing.overhead_s"] = _median([ns / 1e9 for ns in rec.overhead_ns], "s")
    return out


def _print_spans(rec: Recorder, metrics: dict[str, Metric], spans) -> None:
    """Per round: calls, self time, share, rate and rss of each span."""
    walls = rec.round_walls()
    round_wall = sum(walls) / len(walls)
    print(f"{'span':28} {'calls':>7} {'self_s':>9} {'share':>7} {'rate':>22} {'rss_mb':>8}")
    for span, unit in spans.items():
        calls = metrics[f"{span}.calls"].value
        if not calls:
            continue
        share = metrics[f"{span}.share"].value
        rate = f"{metrics[f'{span}.per_s'].value:,.0f} {unit}"
        print(
            f"{span:28} {calls:7g} {share * round_wall:9.3f} {share:7.1%} "
            f"{rate:>22} {metrics[f'{span}.rss_mb'].value:8.0f}"
        )


def _print_metrics(metrics: dict[str, Metric], skip=frozenset()) -> None:
    for name, metric in metrics.items():
        if name in skip:
            continue
        line = f"{name:38} {metric.value:16.6g} {metric.unit}"
        if len(metric.samples) > 1:
            line += f"  (n={len(metric.samples)}, {min(metric.samples):.6g}..{max(metric.samples):.6g})"
        print(line)


def _environment(engine: str, np) -> dict:
    head = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            head = None
    return {
        "engine": engine,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": None if np is None else np.__version__,
        "git_head": head,
    }


def _run_all(args, names) -> int:
    """Every workload, each in a fresh process; 1 if any of them failed."""
    status = 0
    for name in names:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out is not None:
            out = args.out.with_name(f"{args.out.stem}.{name}{args.out.suffix}")
            cmd += ["--out", str(out)]
        if subprocess.run(cmd, check=False).returncode != 0:
            status = 1
    return status


def _parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict[str, Metric]) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": m.value, "unit": m.unit}
                    for name, m in metrics.items()
                },
            }
        )
    )


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from repro.trace.npview import np, resolve_engine

    args = _parse_args(argv, list(workloads.WORKLOADS))
    if args.workload is None:
        return _run_all(args, list(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    engine = resolve_engine("auto")
    print(
        f"== {args.workload}: seed {args.seed}, engine {engine}, "
        f"nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {None if np is None else np.__version__}"
    )
    if engine != "numpy":
        # A missing numpy or a stray REPRO_NO_NUMPY must not pass as a slow run.
        print("the numpy engine is not in use; nothing was timed", file=sys.stderr)
        _emit(False, workload.calls_per_round, workload.calls_per_round, {})
        return 1

    expected = None
    if args.seed == EXPECTED_SEED:
        recorded = json.loads((HERE / "expected.json").read_text())
        expected = recorded.get(args.workload, {})
    rec, setup_s, completed = measure(
        workload,
        args.seed,
        args.seconds,
        ROOT / ".bench_build" / "pipeline",
        trace=bool(args.trace),
        expected=expected,
    )

    attempted = len(rec.calls)
    failed = sum(call.failed for call in rec.calls)
    correct = completed and failed == 0
    metrics: dict[str, Metric] = {}
    if completed:
        if args.trace:
            spans = workloads.SPAN_RATE_UNITS
            metrics = per_layer(rec, spans)
            _print_spans(rec, metrics, spans)
            _print_metrics(
                metrics,
                skip={f"{span}.{stat}" for span in spans for stat in SPAN_STATS},
            )
        else:
            metrics = end_to_end(rec, setup_s)
            _print_metrics(metrics)
    print(
        f"{len(rec.counts)} rounds; ops_failed_ratio {failed / max(attempted, 1):g} "
        f"({failed} of {attempted} calls)"
    )
    if args.out is not None:
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": _environment(engine, np),
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: m.summary() for name, m in metrics.items()},
            "digests": rec.digests,
        }
        if args.trace:
            result["spans"] = [
                {
                    "name": c.span,
                    "parent": f"round-{c.round}",
                    "start_ns": c.start_ns,
                    "end_ns": c.end_ns,
                    "counts": {"items": c.items},
                    "rss_mb": c.rss_mb,
                    "key": c.key,
                    "failed": c.failed,
                }
                for c in rec.calls
            ]
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
