"""Table VI revisited: the replacement-policy zoo, ranked.

The paper fixed LRU replacement and swept write policies (Table VI).
This exhibit holds the best write policy fixed (delayed-write, the
paper's winner) and sweeps the *replacement* policy instead, across the
three paper machines plus a modern strace-captured compile pipeline.
Every cell is an exact packed replay (:func:`simulate_packed`); the
non-LRU zoo policies are replay-only (DESIGN.md §16).
"""

from __future__ import annotations

import textwrap

from ..cache.policies import DELAYED_WRITE
from ..cache.replacement import REPLACEMENT_NAMES
from ..parallel.packed import cached_packed_stream, simulate_packed
from ..strace import convert_calls, parse_lines
from ..trace.log import TraceLog
from ..workload.generator import generate_many
from ..workload.profiles import UCBARPA, UCBCAD, UCBERNIE
from .base import ExperimentResult, register

_MACHINES = (UCBARPA, UCBERNIE, UCBCAD)

#: Seed for the synthesized companion traces (matches section7's).
_COMPANION_SEED = 7

#: The ranking cache sizes: the paper's smallest (390 kbytes), its
#: headline 2 Mbytes, and a large 8 Mbytes where policies converge.
_SIZES = (399360, 2 * 1024 * 1024, 8 * 1024 * 1024)

#: The size the rendered ranking is ordered by.
_RANK_SIZE = 2 * 1024 * 1024

_BLOCK_SIZE = 4096

#: Compilation units in the synthetic strace workload.
_STRACE_UNITS = 24

#: Shared headers re-read by every unit (the reuse the caches feed on).
_STRACE_HEADERS = 6


def _strace_workload() -> TraceLog:
    """A deterministic compile-pipeline strace, parsed and converted.

    Mirrors ``examples/analyze_strace.py``'s bundled sample, scaled up:
    each unit reads a pool of shared headers plus its own source, writes
    a temporary ``.s`` file, assembles it into a ``.o`` (re-reading the
    temporary, then unlinking it), and a final link pass re-reads every
    object.  The header re-reads give LRU-friendly reuse; the unlinked
    temporaries exercise invalidation; the one-shot link scan is the
    sequential flood that trips LRU but not 2Q/ARC.
    """
    lines: list[str] = []
    t = 10.0

    def emit(pid: int, call: str) -> None:
        nonlocal t
        lines.append(f"{pid} {t:.6f} {call}")
        t += 0.01

    for unit in range(_STRACE_UNITS):
        pid = 100 + unit
        emit(pid, f'execve("/usr/bin/cc", ["cc", "u{unit}.c"], 0x7f /* 30 vars */) = 0')
        for header in range(_STRACE_HEADERS):
            emit(pid, f'openat(AT_FDCWD, "/usr/include/h{header}.h", O_RDONLY) = 3')
            size = 8192 + 512 * header
            emit(pid, f'read(3, "...", 16384) = {size}')
            emit(pid, 'read(3, "", 16384) = 0')
            emit(pid, "close(3) = 0")
        emit(pid, f'openat(AT_FDCWD, "u{unit}.c", O_RDONLY) = 3')
        emit(pid, f'read(3, "...", 16384) = {3000 + 137 * unit}')
        emit(pid, 'read(3, "", 16384) = 0')
        emit(pid, "close(3) = 0")
        asm = 9000 + 211 * unit
        emit(pid, f'openat(AT_FDCWD, "/tmp/cc_u{unit}.s", '
                  "O_WRONLY|O_CREAT|O_TRUNC, 0600) = 4")
        emit(pid, f'write(4, "...", {asm}) = {asm}')
        emit(pid, "close(4) = 0")
        emit(pid, f'openat(AT_FDCWD, "/tmp/cc_u{unit}.s", O_RDONLY) = 3')
        emit(pid, f'read(3, "...", 16384) = {asm}')
        emit(pid, 'read(3, "", 16384) = 0')
        emit(pid, "close(3) = 0")
        obj = 5000 + 97 * unit
        emit(pid, f'openat(AT_FDCWD, "u{unit}.o", O_WRONLY|O_CREAT|O_TRUNC, 0644) = 4')
        emit(pid, f'write(4, "...", {obj}) = {obj}')
        emit(pid, "close(4) = 0")
        emit(pid, f'unlink("/tmp/cc_u{unit}.s") = 0')
    pid = 100 + _STRACE_UNITS
    emit(pid, 'execve("/usr/bin/ld", ["ld", "*.o"], 0x7f /* 30 vars */) = 0')
    for unit in range(_STRACE_UNITS):
        obj = 5000 + 97 * unit
        emit(pid, f'openat(AT_FDCWD, "u{unit}.o", O_RDONLY) = 3')
        emit(pid, f'read(3, "...", 16384) = {obj}')
        emit(pid, 'read(3, "", 16384) = 0')
        emit(pid, "close(3) = 0")
    out = sum(5000 + 97 * unit for unit in range(_STRACE_UNITS))
    emit(pid, 'openat(AT_FDCWD, "a.out", O_WRONLY|O_CREAT|O_TRUNC, 0755) = 4')
    emit(pid, f'write(4, "...", {out}) = {out}')
    emit(pid, "close(4) = 0")
    log, _stats = convert_calls(parse_lines(lines), name="strace")
    return log


def _grid(log: TraceLog) -> dict[str, dict[int, float]]:
    """Miss ratio per (replacement policy, cache size) for one workload."""
    packed = cached_packed_stream(log, _BLOCK_SIZE)
    out: dict[str, dict[int, float]] = {}
    for name in REPLACEMENT_NAMES:
        row: dict[int, float] = {}
        for size in _SIZES:
            run = simulate_packed(
                packed,
                size,
                DELAYED_WRITE,
                replacement=name,
                flush_epoch=packed.start_time,
            )
            row[size] = run.metrics.miss_ratio
        out[name] = row
    return out


def _render(grids: dict[str, dict[str, dict[int, float]]]) -> str:
    workloads = list(grids)
    mean = {
        name: sum(grids[w][name][_RANK_SIZE] for w in workloads) / len(workloads)
        for name in REPLACEMENT_NAMES
    }
    ranked = sorted(REPLACEMENT_NAMES, key=lambda name: (mean[name], name))
    header = ["Rank", "Policy", *workloads, "mean"]
    rows = [header]
    for rank, name in enumerate(ranked, start=1):
        rows.append(
            [
                str(rank),
                name,
                *(f"{100 * grids[w][name][_RANK_SIZE]:.1f}%" for w in workloads),
                f"{100 * mean[name]:.1f}%",
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [
        "Table VI revisited: delayed-write miss ratio by replacement "
        "policy (4096-byte blocks, 2 Mbyte cache)"
    ]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append("")
    lines.append(
        textwrap.fill(
            "Every cell is an exact per-access replay under delayed-write; "
            "the 390 kbyte and 8 Mbyte grids are in the data payload. "
            "LRU is the paper's configuration — the zoo measures how much "
            "of Table VI's story is the write policy (most of it) versus "
            "the replacement policy.",
            width=78,
        )
    )
    return "\n".join(lines)


@register(
    "table6rev",
    "Table VI revisited: replacement-policy zoo ranking",
    "Section 6 fixed LRU replacement and found the write policy dominant; "
    "re-running the sweep across FIFO/CLOCK/LFU/2Q/ARC (and an online "
    "ensemble) on all three machines plus a modern strace workload tests "
    "whether that conclusion survives the replacement policy changing",
)
def run(log: TraceLog) -> ExperimentResult:
    duration = min(max(log.duration, 600.0), 1800.0)
    others = [p for p in _MACHINES if p.trace_name != log.name]
    companions = generate_many(
        [(p, _COMPANION_SEED) for p in others], duration=duration
    )
    workloads = [log, *companions, _strace_workload()]
    grids = {wl.name: _grid(wl) for wl in workloads}
    return ExperimentResult(
        experiment_id="table6rev",
        title="Table VI revisited: replacement-policy zoo ranking",
        rendered=_render(grids),
        data={
            wl: {
                name: {str(size): row[size] for size in _SIZES}
                for name, row in grid.items()
            }
            for wl, grid in grids.items()
        },
    )
