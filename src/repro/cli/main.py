"""The ``repro-fs`` command-line interface.

Subcommands::

    repro-fs generate  --profile A5 --hours 4 --seed 1 -o a5.trace
    repro-fs stats     a5.trace
    repro-fs validate  a5.trace [--max-problems N]
    repro-fs analyze   a5.trace [--report activity|sequentiality|...]
    repro-fs simulate  a5.trace --cache-mb 4 --block-size 4096 --policy delayed-write
    repro-fs sweep     a5.trace [--kind policy|blocksize|paging] [--policy lru]
    repro-fs twolevel  a5.trace --client-kb 512 --server-mb 16
    repro-fs netfs     [a5.trace] --clients 10 --protocol callbacks
    repro-fs export-figures a5.trace -d figures
    repro-fs experiment a5.trace --id table6   (or --all)
    repro-fs report    a5.trace -o report.md
    repro-fs slice     a5.trace --start 0 --end 3600 -o hour1.trace
    repro-fs filter    a5.trace --users 1,2 -o pair.trace
    repro-fs merge     a.trace b.trace -o merged.trace
    repro-fs system    --profile A5 --all
    repro-fs convert-strace strace.log -o out.trace
    repro-fs corpus    pack a5.trace -o a5.bcorpus [--segment-events N]
    repro-fs corpus    info a5.bcorpus [--segments]
    repro-fs corpus    verify a5.bcorpus

Traces are stored as a sharded corpus (``repro.corpus``) when the filename
ends in ``.bcorpus`` and in the text format otherwise; every command that
reads or writes a trace takes both.  ``generate`` spools a ``.bcorpus``
output in segments of ``--spool-buffer`` events; ``validate`` and
``analyze`` stream one segment by segment, and the other commands load it
whole.  A damaged trace file is reported as one line on stderr, exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..analysis import (
    analyze_activity,
    analyze_onepass,
    analyze_sequentiality,
    collect_lifetimes,
    daemon_spike_fraction,
    open_time_cdf,
    open_time_summary,
    file_size_cdfs,
    size_summary,
)
from ..cache.policies import (
    DELAYED_WRITE,
    FLUSH_30S,
    FLUSH_5MIN,
    WRITE_THROUGH,
)
from ..cache.replacement import REPLACEMENT_NAMES
from ..cache.simulator import simulate_cache
from ..cache.sweep import (
    block_size_sweep,
    cache_size_policy_sweep,
    paging_comparison,
)
from ..corpus.format import CorpusError
from ..experiments import (
    all_ids,
    all_system_ids,
    run_all,
    run_one,
    run_system_experiment,
)
from ..parallel.executor import auto_jobs, jobs_context
from ..strace.convert import convert_file
from ..trace.intervals import interval_stats
from ..trace.io_text import TraceFormatError, read_text, write_text
from ..trace.log import TraceLog
from ..trace.stats import compute_stats
from ..trace.validate import DEFAULT_MAX_PROBLEMS, validate
from ..workload.generator import generate, generate_many
from ..workload.profiles import PROFILES

__all__ = ["main", "build_parser"]

_POLICIES = {
    "write-through": WRITE_THROUGH,
    "flush-30s": FLUSH_30S,
    "flush-5min": FLUSH_5MIN,
    "delayed-write": DELAYED_WRITE,
}


def _parse_size(text: str) -> int:
    """Parse ``512K`` / ``16M`` / ``4096`` into bytes."""
    text = text.strip()
    multiplier = 1
    if text and text[-1] in "kKmMgG":
        multiplier = {"k": 1024, "m": 1024**2, "g": 1024**3}[text[-1].lower()]
        text = text[:-1]
    try:
        return int(float(text) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad count {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_trace(path: str) -> TraceLog:
    if path.endswith(".bcorpus"):
        from ..corpus import read_corpus_columns

        return read_corpus_columns(path).to_log()
    return read_text(path)


def _save_trace(log: TraceLog, path: str) -> None:
    if path.endswith(".bcorpus"):
        from ..corpus.writer import pack_trace

        pack_trace(log, path)
    else:
        write_text(log, path)


def _seed_output(template: str, seed: int) -> str:
    """Per-seed output path: a ``{seed}`` placeholder, or ``-s<seed>``
    inserted before the extension."""
    if "{seed}" in template:
        return template.replace("{seed}", str(seed))
    root, ext = os.path.splitext(template)
    return f"{root}-s{seed}{ext}"


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.profile_file:
        from ..workload.profile_io import load_profile

        profile = load_profile(args.profile_file)
    else:
        profile = PROFILES[args.profile]
    duration = args.hours * 3600.0
    spool = args.output.endswith(".bcorpus")

    if args.seeds == 1:
        if spool:
            result = generate(
                profile,
                seed=args.seed,
                duration=duration,
                spool=args.output,
                spool_buffer=args.spool_buffer,
            )
            print(
                f"{profile.trace_name}: {result.events_spooled} events spooled "
                f"(peak {result.peak_buffered} events resident)"
            )
            print(f"wrote {args.output}")
            return 0
        result = generate(profile, seed=args.seed, duration=duration)
        _save_trace(result.trace, args.output)
        print(result.trace.summary_line())
        print(f"wrote {args.output}")
        return 0

    seeds = list(range(args.seed, args.seed + args.seeds))
    pairs = [(profile, s) for s in seeds]
    outputs = [_seed_output(args.output, s) for s in seeds]
    if len(set(outputs)) != len(outputs):
        print("per-seed output paths collide; use a {seed} placeholder",
              file=sys.stderr)
        return 2
    if spool:
        summaries = generate_many(
            pairs,
            duration,
            jobs=_jobs(args),
            outputs=outputs,
            spool_buffer=args.spool_buffer,
        )
        for summary in summaries:
            print(
                f"wrote {summary.path}: {summary.events} events "
                f"(seed {summary.seed}, peak {summary.peak_buffered} resident)"
            )
    else:
        traces = generate_many(pairs, duration, jobs=_jobs(args))
        for trace, out in zip(traces, outputs):
            _save_trace(trace, out)
            print(trace.summary_line())
            print(f"wrote {out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    log = _load_trace(args.trace)
    print(compute_stats(log).render())
    print(interval_stats(log).render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.trace.endswith(".bcorpus"):
        # Streaming path: segments fold through the same tracker the
        # in-RAM validator uses, so the report is identical.
        from ..corpus import validate_corpus

        report = validate_corpus(args.trace, max_problems=args.max_problems)
        print(report)
        for problem in report.problems:
            print(f"  {problem}")
        return 0 if report.ok else 1
    report = validate(_load_trace(args.trace), max_problems=args.max_problems)
    print(report)
    for problem in report.problems:
        print(f"  {problem}")
    return 0 if report.ok else 1


def _render_onepass_section(report, wanted: str) -> str:
    """One section of a fused :class:`OnePassReport` by ``--report`` name."""
    if wanted == "all":
        return report.render()
    if wanted == "activity":
        return report.activity.render()
    if wanted == "sequentiality":
        return report.sequentiality.render()
    if wanted == "opentimes":
        return open_time_summary(report.open_times)
    if wanted == "sizes":
        return size_summary(report.size_by_accesses, report.size_by_bytes)
    if wanted == "users":
        from ..analysis import render_user_table

        return render_user_table(report.users)
    if wanted == "burstiness":
        return report.burstiness.render()
    dead = [lt for lt in report.lifetimes if lt.lifetime is not None]
    return (
        f"{len(report.lifetimes)} new files, {len(dead)} died during the "
        f"trace; {100 * report.daemon_spike:.0f}% of lifetimes in the "
        "179-181 s daemon band"
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.trace.endswith(".bcorpus"):
        # Out-of-core path: one streamed pass, then print the requested
        # section — every section is a field of the fused report.
        from ..corpus import analyze_corpus

        print(_render_onepass_section(analyze_corpus(args.trace), args.report))
        return 0
    log = _load_trace(args.trace)
    wanted = args.report
    if wanted == "all":
        # The full report comes from the fused single-pass analyzer; the
        # per-report branches below keep exercising the reference modules.
        print(analyze_onepass(log).render())
        return 0
    if wanted in ("activity", "all"):
        print(analyze_activity(log).render())
    if wanted in ("sequentiality", "all"):
        print(analyze_sequentiality(log).render())
    if wanted in ("opentimes", "all"):
        print(open_time_summary(open_time_cdf(log)))
    if wanted in ("sizes", "all"):
        print(size_summary(*file_size_cdfs(log)))
    if wanted in ("users", "all"):
        from ..analysis import per_user_summary, render_user_table

        print(render_user_table(per_user_summary(log)))
    if wanted in ("burstiness", "all"):
        from ..analysis import analyze_burstiness

        print(analyze_burstiness(log).render())
    if wanted in ("lifetimes", "all"):
        lifetimes = collect_lifetimes(log)
        dead = [lt for lt in lifetimes if lt.lifetime is not None]
        spike = 100 * daemon_spike_fraction(lifetimes)
        print(
            f"{len(lifetimes)} new files, {len(dead)} died during the trace; "
            f"{spike:.0f}% of lifetimes in the 179-181 s daemon band"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    log = _load_trace(args.trace)
    policy = _POLICIES[args.policy]
    metrics = simulate_cache(
        log,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        block_size=args.block_size,
        policy=policy,
        include_paging=args.paging,
        replacement=args.replacement,
    )
    print(metrics.summary())
    return 0


def _jobs(args: argparse.Namespace) -> int:
    """The validated worker count: ``--jobs`` or the capped CPU count."""
    return args.jobs if args.jobs is not None else auto_jobs()


def _cmd_sweep(args: argparse.Namespace) -> int:
    log = _load_trace(args.trace)
    kwargs = dict(jobs=_jobs(args), replacement=args.policy)
    if args.kind == "policy":
        sweep = cache_size_policy_sweep(log, **kwargs)
    elif args.kind == "blocksize":
        sweep = block_size_sweep(log, **kwargs)
    else:
        print(paging_comparison(log, **kwargs).render())
        return 0
    print(sweep.render())
    if args.csv:
        from ..analysis.export import write_sweep_csv

        write_sweep_csv(args.csv, sweep)
        print(f"wrote {args.csv}")
    return 0


def _cmd_twolevel(args: argparse.Namespace) -> int:
    from ..cache.twolevel import simulate_two_level

    log = _load_trace(args.trace)
    result = simulate_two_level(
        log,
        client_cache_bytes=int(args.client_kb * 1024),
        server_cache_bytes=int(args.server_mb * 1024 * 1024),
        block_size=args.block_size,
        client_policy=_POLICIES[args.client_policy],
    )
    print(result.render())
    return 0


def _cmd_netfs(args: argparse.Namespace) -> int:
    from ..netfs import simulate_netfs

    if args.trace:
        log = _load_trace(args.trace)
    else:
        profile = PROFILES[args.profile]
        result = generate(profile, seed=args.seed, duration=args.hours * 3600.0)
        log = result.trace
        print(log.summary_line())
    # One configuration is a single discrete-event run; the jobs context
    # still applies to any sweep launched beneath it (and validates the
    # flag uniformly across subcommands).
    with jobs_context(_jobs(args)):
        outcome = simulate_netfs(
            log,
            clients=args.clients,
            client_cache_bytes=args.client_cache,
            server_cache_bytes=args.server_cache,
            block_size=args.block_size,
            protocol=args.protocol,
            server_queue_limit=args.queue_limit,
            load_scale=args.load_scale,
            seed=args.seed,
        )
    print(outcome.render())
    return 0


def _cmd_export_figures(args: argparse.Namespace) -> int:
    from ..analysis.export import export_figures

    log = _load_trace(args.trace)
    for path in export_figures(log, args.directory):
        print(f"wrote {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    log = _load_trace(args.trace)
    jobs = _jobs(args)
    # The exhibits run the paper's LRU; another replacement policy's
    # Table VI, VII or Figure 7 comes from `sweep --policy`, and
    # `--id table6rev` ranks the whole zoo.
    if args.all:
        for result in run_all(log, jobs=jobs):
            print(result)
            print()
        return 0
    if not args.id:
        print(
            f"available experiments: {', '.join(all_ids())}",
            file=sys.stderr,
        )
        return 2
    print(run_one(args.id, log, jobs=jobs))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from ..experiments import paper_vs_measured

    log = _load_trace(args.trace)
    text = (
        f"# Paper-vs-measured report for trace {log.name}\n\n"
        f"{len(log)} events over {log.duration / 3600:.2f} hours.\n\n"
        + paper_vs_measured(log)
        + "\n"
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    log = _load_trace(args.trace)
    out = log.slice(args.start, args.end if args.end is not None else log.end_time + 1)
    _save_trace(out, args.output)
    print(out.summary_line())
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    from ..trace.ops import filter_files, filter_users

    log = _load_trace(args.trace)
    if args.users:
        log = filter_users(log, [int(u) for u in args.users.split(",")])
    if args.files:
        log = filter_files(log, [int(f) for f in args.files.split(",")])
    _save_trace(log, args.output)
    print(log.summary_line())
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from ..trace.ops import merge

    logs = [_load_trace(path) for path in args.traces]
    merged = merge(logs)
    _save_trace(merged, args.output)
    print(merged.summary_line())
    return 0


def _cmd_system(args: argparse.Namespace) -> int:
    from ..unixfs.check import fsck
    from ..workload.generator import generate

    profile = PROFILES[args.profile]
    result = generate(profile, seed=args.seed, duration=args.hours * 3600.0)
    print(result.trace.summary_line())
    print(fsck(result.fs))
    print()
    ids = all_system_ids() if args.all or not args.id else [args.id]
    for experiment_id in ids:
        print(f"=== {experiment_id} ===")
        print(run_system_experiment(experiment_id, result).rendered)
        print()
    return 0


def _cmd_corpus_pack(args: argparse.Namespace) -> int:
    from ..corpus import pack_trace

    if not args.output.endswith(".bcorpus"):
        print("corpus output must end in .bcorpus", file=sys.stderr)
        return 2
    writer = pack_trace(
        args.trace, args.output, segment_events=args.segment_events
    )
    print(
        f"wrote {args.output}: {writer.events_written} events in "
        f"{writer.segments_written} segment(s), {writer.bytes_written} bytes"
    )
    return 0


def _cmd_corpus_info(args: argparse.Namespace) -> int:
    from ..corpus import CorpusReader

    with CorpusReader(args.corpus) as reader:
        stats = reader.stats
        span = (
            f"{stats[0].time_first:.2f}..{stats[-1].time_last:.2f} s"
            if stats
            else "empty"
        )
        print(f"{args.corpus}: trace {reader.name!r} ({reader.description})")
        print(
            f"  {reader.total_events} events in {reader.segment_count} "
            f"segment(s) of <= {reader.segment_events}, {span}"
        )
        if args.segments:
            for i, stat in enumerate(stats):
                print(f"  segment {i}: {stat.summary_line()}")
    return 0


def _cmd_corpus_verify(args: argparse.Namespace) -> int:
    from ..corpus import CorpusReader

    try:
        with CorpusReader(args.corpus) as reader:
            checked = reader.verify()
    except CorpusError as error:
        print(f"corrupt: {error}", file=sys.stderr)
        return 1
    print(f"{args.corpus}: OK ({checked} segment(s) verified)")
    return 0


def _cmd_convert_strace(args: argparse.Namespace) -> int:
    log, stats = convert_file(args.strace_log, name=args.name)
    _save_trace(log, args.output)
    print(stats.summary())
    print(f"wrote {args.output} ({len(log)} events)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fs",
        description=(
            "Trace-driven analysis of the UNIX 4.2 BSD file system "
            "(SOSP 1985 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a trace from a machine profile")
    p.add_argument("--profile", choices=sorted(PROFILES), default="A5")
    p.add_argument(
        "--profile-file",
        help="JSON profile definition (overrides --profile)",
        default=None,
    )
    p.add_argument("--hours", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seeds", type=_positive_int, default=1,
                   help="generate this many traces with consecutive seeds "
                   "(output takes a {seed} placeholder or gets -s<seed> "
                   "inserted before its extension)")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes for multi-seed generation "
                   "(default: CPU count, capped)")
    p.add_argument("--spool-buffer", type=_positive_int, default=8192,
                   help="events per segment of a .bcorpus output, which "
                   "is spooled: only this many events stay in memory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("stats", help="Table III statistics for a trace")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("validate", help="check trace integrity")
    p.add_argument("trace")
    p.add_argument("--max-problems", type=_positive_int,
                   default=DEFAULT_MAX_PROBLEMS,
                   help="cap on reported problems before truncation "
                   f"(default: {DEFAULT_MAX_PROBLEMS})")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="reference-pattern analysis")
    p.add_argument("trace")
    p.add_argument(
        "--report",
        choices=["activity", "sequentiality", "opentimes", "sizes",
                 "lifetimes", "users", "burstiness", "all"],
        default="all",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="one block-cache simulation")
    p.add_argument("trace")
    p.add_argument("--cache-mb", type=float, default=4.0)
    p.add_argument("--block-size", type=int, default=4096)
    p.add_argument("--policy", choices=sorted(_POLICIES), default="delayed-write")
    p.add_argument("--replacement", choices=list(REPLACEMENT_NAMES), default="lru",
                   help="block replacement policy (the paper's is lru)")
    p.add_argument("--paging", action="store_true", help="simulate execve page-in")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="cache parameter sweeps (Tables VI/VII, Fig 7)")
    p.add_argument("trace")
    p.add_argument("--kind", choices=["policy", "blocksize", "paging"], default="policy")
    p.add_argument("--policy", choices=list(REPLACEMENT_NAMES), default="lru",
                   help="block replacement policy (the paper's is lru)")
    p.add_argument("--csv", help="also write the grid as CSV", default=None)
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: CPU count, capped; "
                   "1 runs in-process)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "twolevel", help="client/server two-level cache simulation"
    )
    p.add_argument("trace")
    p.add_argument("--client-kb", type=float, default=512.0)
    p.add_argument("--server-mb", type=float, default=16.0)
    p.add_argument("--block-size", type=int, default=4096)
    p.add_argument("--client-policy", choices=sorted(_POLICIES),
                   default="write-through")
    p.set_defaults(func=_cmd_twolevel)

    p = sub.add_parser(
        "netfs",
        help="discrete-event network file service simulation "
        "(clients + Ethernet + RPC + server queue + consistency)",
    )
    p.add_argument(
        "trace", nargs="?", default=None,
        help="trace file (omitted: generate one from --profile)",
    )
    p.add_argument("--profile", choices=sorted(PROFILES), default="A5")
    p.add_argument("--hours", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clients", type=_positive_int, default=None,
                   help="workstations to fold users onto (default: one per user)")
    p.add_argument("--client-cache", type=_parse_size, default="512K",
                   help="per-workstation cache (e.g. 512K, 2M)")
    p.add_argument("--server-cache", type=_parse_size, default="16M")
    p.add_argument("--block-size", type=int, default=4096)
    p.add_argument("--protocol", choices=["callbacks", "ownership"],
                   default="callbacks")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="server request-queue bound")
    p.add_argument("--load-scale", type=_positive_int, default=1,
                   help="replay N disjoint copies of the trace in parallel")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes for sweeps beneath this run "
                   "(default: CPU count, capped)")
    p.set_defaults(func=_cmd_netfs)

    p = sub.add_parser(
        "export-figures", help="write Figures 1-4 curves as CSV files"
    )
    p.add_argument("trace")
    p.add_argument("-d", "--directory", default="figures")
    p.set_defaults(func=_cmd_export_figures)

    p = sub.add_parser("experiment", help="reproduce a paper exhibit")
    p.add_argument("trace")
    p.add_argument("--id", help="experiment id (see --all for the list)")
    p.add_argument("--all", action="store_true", help="run every exhibit")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: CPU count, capped; "
                   "1 runs in-process)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "report", help="write a paper-vs-measured markdown report"
    )
    p.add_argument("trace")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("slice", help="cut a time window out of a trace")
    p.add_argument("trace")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--end", type=float, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("filter", help="restrict a trace to users/files")
    p.add_argument("trace")
    p.add_argument("--users", help="comma-separated user ids")
    p.add_argument("--files", help="comma-separated file ids")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("merge", help="merge traces into one time-ordered trace")
    p.add_argument("traces", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser(
        "system",
        help="live-kernel experiments (Leffler comparison, other-I/O, "
        "static scan) — generates its own system",
    )
    p.add_argument("--profile", choices=sorted(PROFILES), default="A5")
    p.add_argument("--hours", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--id", default=None)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_system)

    p = sub.add_parser(
        "corpus",
        help="out-of-core sharded corpora: pack traces into .bcorpus "
        "files, inspect the segment index, verify checksums and stats",
    )
    csub = p.add_subparsers(dest="corpus_command", required=True)
    c = csub.add_parser("pack", help="pack a trace file into a .bcorpus")
    c.add_argument("trace", help="source text trace")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--segment-events", type=_positive_int, default=65536,
                   help="events per segment (default: 65536)")
    c.set_defaults(func=_cmd_corpus_pack)
    c = csub.add_parser("info", help="print the corpus header and index")
    c.add_argument("corpus")
    c.add_argument("--segments", action="store_true",
                   help="also print one line per segment")
    c.set_defaults(func=_cmd_corpus_info)
    c = csub.add_parser(
        "verify", help="recompute every segment checksum and statistic"
    )
    c.add_argument("corpus")
    c.set_defaults(func=_cmd_corpus_verify)

    p = sub.add_parser("convert-strace", help="convert strace -f -ttt output")
    p.add_argument("strace_log")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--name", default=None)
    p.set_defaults(func=_cmd_convert_strace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # Flush here, so a reader that went away raises below rather
        # than at interpreter exit.
        sys.stdout.flush()
        return status
    except (CorpusError, TraceFormatError) as error:
        print(f"repro-fs {args.command}: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout went away (``repro-fs ... | head``).  Point
        # stdout at devnull so the exit-time flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
