"""numpy-vectorized fast paths for the hot trace-scan kernels.

Four kernels ride here, each a whole-column reimplementation of a
pure-Python reference that stays in the tree as the differential oracle
(fuzz pillar 5 compares them continuously):

* :class:`VectorizedCollector` — the reference-pattern analyzer
  (:func:`~repro.analysis.onepass.analyze_columns_python`).  Open/close/seek
  session matching runs as a segmented forward fill of positions over
  the oid-grouped sub-rows; runs, per-access statistics, window activity,
  burstiness and every CDF are whole-column arithmetic.  The report's
  object-heavy fields (``accesses``, ``transfers``, ``lifetimes``,
  ``popularity``) are materialized lazily on first attribute access —
  eagerly building tens of thousands of dataclass instances would cost
  more than the entire vectorized scan.
* :class:`VectorizedValidator` — the columnar validator
  (:func:`~repro.trace.validate.validate_columns_python`).  Every check is
  a boolean reduction; problem rows are recovered with ``np.nonzero``
  and only the first ``max_problems + 1`` messages are ever formatted.
* :func:`build_stream_numpy` — the cache simulator's item stream
  (:func:`~repro.cache.stream.build_stream`).  Sessions are matched by
  the same oid-grouped forward fill as the analyzer's, and the
  items come back as :class:`~repro.cache.stream.StreamArrays`.
* :func:`pack_stream_numpy` — the packed-stream compiler
  (:func:`~repro.parallel.packed.pack_stream_python`), over those
  arrays or over a list of item objects.  The per-file known-size fold
  is a prefix scan and the per-block expansion is repeat/arange
  arithmetic.

**Bit-identity is the contract.**  Where exact replication would need
per-event Python semantics the kernels cannot afford (NaN timestamps,
unsorted times, integer magnitudes past the float53 exactness window,
open rows with no mode bits, unknown kind tags), they raise
:class:`VectorFallback` and the
dispatch site reruns the pure-Python path — falling back is always
correct, only slower.

The analyzer takes one whole trace: its report holds per-access arrays,
so analysis is O(events) however the trace is fed, and a corpus is
loaded whole before it runs (:func:`~repro.corpus.analyze_corpus`).
The validator's state between rows is two sets of open ids, so
:func:`~repro.corpus.validate_corpus` feeds it one corpus segment at a
time, in O(segment) memory.

Dict/iteration order is replicated, not just values: users appear in
first open/exec order, finished accesses in close order then a stable
sort by close time, lifetimes in death order then a stable sort by
birth — so even ``list(report.users)`` and rendered tables match the
reference byte for byte.
"""

from __future__ import annotations

import math
from array import array

from ..trace.columns import (
    FLAG_CREATED,
    FLAG_MODE_MASK,
    FLAG_NEW_FILE,
    KIND_CLOSE,
    KIND_CREATE,
    KIND_EXEC,
    KIND_LABELS,
    KIND_OPEN,
    KIND_SEEK,
    KIND_TRUNC,
    KIND_UNLINK,
    TraceColumns,
)
from ..trace.npview import column_views, np
from ..trace.records import MAX_TRACE_TIME, AccessMode
from ..trace.validate import (
    DEFAULT_MAX_PROBLEMS,
    ValidationReport,
    _VALID_FLAG_BITS,
)
from .accesses import FileAccess, Run, transfers_from_accesses
from .activity import ActivityReport, WindowedActivity, _mean_std
from .burstiness import assemble_burstiness
from .cdf import Cdf
from .lifetimes import Lifetime
from .onepass import OnePassReport
from .popularity import popularity_from_accesses
from .sequentiality import SequentialityReport
from .users import UserSummary

__all__ = [
    "VectorFallback",
    "VectorizedCollector",
    "VectorizedValidator",
    "analyze_columns_numpy",
    "pack_stream_numpy",
    "validate_columns_numpy",
]

#: Integer magnitudes at or below this are exactly representable as
#: float64, so int sums, int->float casts and dict-key merges replicate
#: the reference's mixed int/float arithmetic bit for bit.
_F64_EXACT = 1 << 53

#: Row numbers, positions in a sorted order and per-row counts are held
#: in int32, so every kernel here declines inputs of this many rows.
_ROW_LIMIT = 1 << 31

#: Open-row mode bits -> AccessMode (bit pattern 0 never reaches here).
_MODE = (None, AccessMode.READ, AccessMode.WRITE, AccessMode.READ_WRITE)

# Lifetime event tags (replayed in row order).
_LT_KILL = 0  # unlink / truncate-to-zero / truncating open
_LT_BIRTH = 1  # close of a creating open


class VectorFallback(Exception):
    """The vectorized kernel cannot replicate the reference on this
    input; the caller must rerun the pure-Python path from scratch."""


def _require(condition: bool, why: str) -> None:
    if not condition:
        raise VectorFallback(why)


def _within_exact(column) -> bool:
    """True when every value is exactly float64-representable."""
    if not len(column):
        return True
    return -_F64_EXACT <= int(column.min()) and int(column.max()) <= _F64_EXACT


def _sorted_unique(values):
    """``np.unique`` of an integer array via an explicit sort.

    numpy 2.x routes plain ``np.unique`` over ints through a hash
    table, which measures several times slower than sort+mask at this
    workload's sizes (~20k int64 window keys).  Output is the same
    sorted array of distinct values, so the swap is bit-invisible."""
    if not len(values):
        return values
    s = np.sort(values)
    mask = np.empty(len(s), dtype=bool)
    mask[0] = True
    np.not_equal(s[1:], s[:-1], out=mask[1:])
    return s[mask]


def _shift_down(values, group_start, fill=0):
    """The previous row's value within each group (group starts get
    *fill*)."""
    out = np.empty_like(values)
    if len(values):
        out[0] = fill
        out[1:] = values[:-1]
        out[group_start] = fill
    return out


def _group_heads(group_start):
    """Per position of a grouped order, its group's first position
    (int32)."""
    head = np.where(
        group_start, np.arange(len(group_start), dtype=np.int32), np.int32(0)
    )
    np.maximum.accumulate(head, out=head)
    return head


def _last_where(mask, head):
    """Per position of a grouped order (*head* from :func:`_group_heads`):
    the last position at or before it, within its group, where *mask*
    holds, or -1.  A forward fill of int32 positions; a fill that
    reaches back past the group's head belongs to an earlier group."""
    last = np.where(mask, np.arange(len(mask), dtype=np.int32), np.int32(-1))
    np.maximum.accumulate(last, out=last)
    last[last < head] = -1
    return last


def _open_id_groups(open_ids, rows):
    """Group *rows* (the ascending row numbers of the open/seek/close
    rows) by open id with one stable sort, which keeps row order within
    each group.  Returns the rows in that order and a mask of each
    group's first position.  The analyzer, the stream kernel and the
    validator all group their sessions this way."""
    oids = open_ids[rows]
    order = np.argsort(oids, kind="stable")
    oids = oids[order]
    rows = rows[order]
    del order
    group_start = np.empty(len(rows), dtype=bool)
    if len(rows):
        group_start[0] = True
        np.not_equal(oids[1:], oids[:-1], out=group_start[1:])
    return rows, group_start


def _match_sessions(k, group_start):
    """Sessions of the open-id grouped rows (kinds *k*).

    Returns, per position, its group's first position, its session's
    open (the group's last open at or before it, -1 for none) and the
    group's last close before it (-1 for none).  A session is live at a
    position where its open comes after that close.
    """
    head = _group_heads(group_start)
    last_open = _last_where(k == KIND_OPEN, head)
    prev_close = _shift_down(
        _last_where(k == KIND_CLOSE, head), group_start, np.int32(-1)
    )
    return head, last_open, prev_close


class VectorizedCollector:
    """The reference-pattern analyzer over one columnar trace.

    The constructor scans *cols* once (session matching, run
    extraction, lifetime events, activity marks) and keeps the results
    as whole arrays; :meth:`finish` derives the report from them.
    """

    def __init__(
        self,
        cols: TraceColumns,
        long_window: float = 600.0,
        short_window: float = 10.0,
        burst_window: float = 10.0,
    ):
        if burst_window <= 0:
            raise ValueError(f"window must be positive, got {burst_window}")
        n = len(cols.kinds)
        self.name = cols.name
        self.start = cols.times[0] if n else 0.0
        self.duration = (cols.times[-1] - self.start) if n else 0.0
        self.long_window = long_window
        self.short_window = short_window
        self.burst_window = burst_window
        self.b_duration = max(self.duration, burst_window)
        self.nb = max(1, math.ceil(self.b_duration / burst_window))
        # The scan's per-access, per-run, lifetime and mark arrays.
        self._a: dict = {}
        self._scan(column_views(cols))

    # -- scanning -------------------------------------------------------------

    def _scan(self, v) -> None:
        n = len(v)
        _require(n < _ROW_LIMIT, "too many rows for int32 row numbers")
        kinds = v.kinds
        times = v.times
        _require(not bool(np.isnan(times).any()), "NaN timestamps")
        _require(bool((np.diff(times) >= 0).all()), "unsorted timestamps")
        _require(
            _within_exact(v.sizes) and _within_exact(v.positions),
            "sizes/positions exceed the float64-exact window",
        )

        open_mask = kinds == KIND_OPEN
        _require(
            not bool((open_mask & ((v.flags & FLAG_MODE_MASK) == 0)).any()),
            "open row with no mode bits",
        )
        self._scan_bursts(times, open_mask)

        # Event marks: each marking row names the row whose user it
        # marks (-1: no mark).  Opens/creates/execs mark their own ...
        marker = np.where(
            open_mask | (kinds == KIND_CREATE) | (kinds == KIND_EXEC),
            np.arange(n, dtype=np.int32),
            np.int32(-1),
        )
        self._scan_sessions(v, marker)
        mark = marker >= 0
        a = self._a
        a["mark_times"] = times[mark]
        a["mark_uids"] = v.user_ids[marker[mark]]
        oe = open_mask | (kinds == KIND_EXEC)
        a["user_uids"] = v.user_ids[oe]
        a["user_times"] = times[oe]
        a["user_is_open"] = open_mask[oe]

    def _scan_bursts(self, times, open_mask) -> None:
        """Burstiness windows: every row marks busy, open rows count."""
        bslot = np.minimum(
            (times - self.start) / self.burst_window, self.nb - 1
        ).astype(np.int64)
        self.busy = np.zeros(self.nb, dtype=bool)
        self.busy[bslot] = True
        self.opens_w = np.bincount(bslot[open_mask], minlength=self.nb)

    def _scan_sessions(self, v, marker) -> None:
        """Session matching and lifetime events: stores the lifetime
        arrays, hands the matched sessions to :meth:`_scan_accesses`, and
        points each close's and seek's mark at its session's open row."""
        kinds = v.kinds
        flags = v.flags
        # Sessions are positions in the oid-grouped order of the
        # open/close/seek rows.
        rows, gstart = _open_id_groups(
            v.open_ids,
            np.flatnonzero((kinds >= KIND_OPEN) & (kinds <= KIND_SEEK)).astype(
                np.int32
            ),
        )
        k = kinds[rows]
        is_open = k == KIND_OPEN
        head, last_open, prev_close = _match_sessions(k, gstart)
        del gstart
        live = last_open > prev_close
        # A close ends a creating session when a creating open of its
        # group follows the group's previous close.
        last_copen = _last_where(
            is_open & ((flags[rows] & FLAG_CREATED) != 0), head
        )
        del head
        cc = np.flatnonzero((k == KIND_CLOSE) & (last_copen > prev_close))
        cc_open = last_copen[cc]
        del last_copen, prev_close

        # ... and closes/seeks mark the user of their oid's last open.
        owned = ~is_open & (last_open >= 0)
        marker[rows[owned]] = rows[last_open[owned]]
        del owned, is_open

        seeks = np.flatnonzero((k == KIND_SEEK) & live)
        closes = np.flatnonzero((k == KIND_CLOSE) & live)
        del k, live
        self._scan_accesses(
            v, rows, last_open[seeks], rows[seeks], last_open[closes],
            rows[closes],
        )

        # ---- lifetime events, replayed at once by finish() -------------
        # Kills from creating opens, unlinks and zero-truncates; births
        # from creating closes.
        co_rows = np.flatnonzero(
            (kinds == KIND_OPEN) & ((flags & FLAG_CREATED) != 0)
        ).astype(np.int32)
        kill_rows = np.flatnonzero(
            (kinds == KIND_UNLINK) | ((kinds == KIND_TRUNC) & (v.sizes == 0))
        ).astype(np.int32)
        cc_rows = rows[cc]
        lt_rows = np.concatenate([co_rows, kill_rows, cc_rows])
        a = self._a
        a["lt_rows"] = lt_rows
        a["lt_tags"] = np.concatenate([
            np.full(len(co_rows) + len(kill_rows), _LT_KILL, np.int64),
            np.full(len(cc_rows), _LT_BIRTH, np.int64),
        ])
        a["lt_fids"] = np.concatenate([
            v.file_ids[co_rows],
            v.file_ids[kill_rows],
            v.file_ids[rows[cc_open]],
        ])
        a["lt_bytes"] = np.concatenate([
            np.zeros(len(co_rows) + len(kill_rows), np.int64),
            np.maximum(v.positions[cc_rows], 0),
        ])
        a["lt_times"] = v.times[lt_rows]

    def _scan_accesses(
        self, v, rows, seek_owner, seek_rows, acc_owner, close_rows
    ) -> None:
        """Runs and per-access statistics of the matched sessions; stores
        the per-access and per-run arrays.

        *rows* is the grouped order of :meth:`_scan_sessions`; each live
        seek and close comes with its row and its session's open (a
        position in that order).  Live seeks come in grouped order, so
        they are already grouped by open, each open's in row order.
        """
        times = v.times
        # ---- seek runs, grouped per owning open ------------------------
        s_prev = v.sizes[seek_rows]  # prev_pos
        s_new = v.positions[seek_rows]  # new_pos
        s_time = times[seek_rows]
        del seek_rows
        own_start = np.empty(len(seek_owner), dtype=bool)
        if len(seek_owner):
            own_start[0] = True
            own_start[1:] = seek_owner[1:] != seek_owner[:-1]
        own_uniq = seek_owner[own_start] if len(seek_owner) else seek_owner
        own_off = np.nonzero(own_start)[0]
        own_cnt = np.diff(np.append(own_off, len(seek_owner)))
        # Entry position before each seek: the previous seek's new_pos,
        # or the open's initial_pos at the head of the owner group.
        s_entry = np.empty_like(s_new)
        if len(seek_owner):
            s_entry[0] = 0
            s_entry[1:] = s_new[:-1]
            s_entry[own_start] = v.positions[rows[own_uniq]]
        s_exists = s_prev > s_entry
        s_len = s_prev - s_entry
        if len(seek_owner):
            _require(
                int(own_cnt.max()) * max(1, int(np.abs(s_len).max()))
                < _F64_EXACT,
                "per-access seek bytes exceed the exact window",
            )
            seek_runs_per = np.add.reduceat(
                s_exists.astype(np.int64), own_off
            )
            seek_bytes_per = np.add.reduceat(
                np.where(s_exists, s_len, 0), own_off
            )
            seek_maxend_per = np.maximum.reduceat(
                np.where(s_exists, s_prev, np.iinfo(np.int64).min), own_off
            )
            last_new_per = s_new[np.append(own_off[1:], len(seek_owner)) - 1]
        else:
            seek_runs_per = np.zeros(0, np.int64)
            seek_bytes_per = np.zeros(0, np.int64)
            seek_maxend_per = np.zeros(0, np.int64)
            last_new_per = np.zeros(0, np.int64)
        del s_len, own_start, seek_owner

        # ---- matched accesses (sessions closed in the trace) ----------
        row_sort = np.argsort(close_rows, kind="stable")
        acc_owner = acc_owner[row_sort]
        close_rows = close_rows[row_sort]
        del row_sort
        open_rows = rows[acc_owner]

        # Gather this owner's seek-group aggregates (default: none).
        if len(own_uniq):
            pos_in = np.searchsorted(own_uniq, acc_owner)
            pos_in = np.minimum(pos_in, len(own_uniq) - 1)
            found = own_uniq[pos_in] == acc_owner
            a_seekruns = np.where(found, seek_runs_per[pos_in], 0)
            a_seekbytes = np.where(found, seek_bytes_per[pos_in], 0)
            a_seekmax = np.where(
                found, seek_maxend_per[pos_in], np.iinfo(np.int64).min
            )
            a_seeks = np.where(found, own_cnt[pos_in], 0)
            a_entry = np.where(
                found, last_new_per[pos_in], v.positions[open_rows]
            )
            a_skoff = np.where(found, own_off[pos_in], 0)
            del pos_in, found
        else:
            na = len(acc_owner)
            a_seekruns = np.zeros(na, np.int64)
            a_seekbytes = np.zeros(na, np.int64)
            a_seekmax = np.full(na, np.iinfo(np.int64).min)
            a_seeks = np.zeros(na, np.int64)
            a_entry = v.positions[open_rows]
            a_skoff = np.zeros(na, np.int64)
        del acc_owner

        fpos = v.positions[close_rows]
        close_run = fpos > a_entry
        close_len = fpos - a_entry
        a_nruns = a_seekruns + close_run
        a_bytes = a_seekbytes + np.where(close_run, close_len, 0)
        a_maxend = np.maximum(
            a_seekmax, np.where(close_run, fpos, np.iinfo(np.int64).min)
        )
        del close_len, a_seekbytes, a_seekmax

        n_acc = len(open_rows)
        _require(
            n_acc * max(1, int(np.abs(a_bytes).max()) if n_acc else 1)
            < _F64_EXACT,
            "total transferred bytes exceed the exact window",
        )

        # ---- compact per-access run storage ----------------------------
        run_cnt = a_nruns
        run_off = np.zeros(n_acc + 1, np.int64)
        np.cumsum(run_cnt, out=run_off[1:])
        total_runs = int(run_off[-1])
        r_starts = np.empty(total_runs, np.int64)
        r_ends = np.empty(total_runs, np.int64)
        r_times = np.empty(total_runs, np.float64)
        if total_runs:
            # Seek-billed runs first (they precede the close run).
            src_cnt = a_seekruns
            src_excl = np.cumsum(src_cnt) - src_cnt
            S = int(src_cnt.sum())
            if S:
                intra = np.arange(S, dtype=np.int64) - np.repeat(src_excl, src_cnt)
                # Index of the j-th *existing* seek run within the owner
                # group: positions of True values in s_exists.
                ex_pos = np.nonzero(s_exists)[0]
                ex_off = (
                    np.searchsorted(ex_pos, a_skoff)
                    if len(ex_pos)
                    else np.zeros(n_acc, np.int64)
                )
                src = ex_pos[np.repeat(ex_off, src_cnt) + intra]
                dst = np.repeat(run_off[:-1], src_cnt) + intra
                r_starts[dst] = s_entry[src]
                r_ends[dst] = s_prev[src]
                r_times[dst] = s_time[src]
            cdst = run_off[1:][close_run] - 1
            r_starts[cdst] = a_entry[close_run]
            r_ends[cdst] = fpos[close_run]
            r_times[cdst] = times[close_rows[close_run]]

        # ---- per-access arrays, in close-row order ---------------------
        a = self._a
        a["acc_oid"] = v.open_ids[open_rows]
        a["acc_fid"] = v.file_ids[open_rows]
        a["acc_uid"] = v.user_ids[open_rows]
        a["acc_flag"] = v.flags[open_rows]
        a["acc_topen"] = times[open_rows]
        a["acc_tclose"] = times[close_rows]
        a["acc_szopen"] = v.sizes[open_rows]
        a["acc_ipos"] = v.positions[open_rows]
        a["acc_seeks"] = a_seeks
        a["acc_sad"] = a_seekruns > 0
        a["acc_nruns"] = a_nruns
        a["acc_bytes"] = a_bytes
        a["acc_maxend"] = a_maxend
        a["acc_runstart"] = run_off[:-1]
        a["run_starts"] = r_starts
        a["run_ends"] = r_ends
        a["run_times"] = r_times

    def _lifetime_scan(self):
        """Replay every stored lifetime event at once.

        The reference keeps ``pending[fid]`` and pops it on kills; per
        file id that is a two-symbol automaton — the slot is full iff the
        previous event for that fid was a birth (a kill always empties a
        full slot, a rebirth overwrites in place).  So within each fid
        group, sorted by row: a kill completes a lifetime iff the
        previous event is a birth (taking that birth's payload), and the
        fid survives iff its last event is a birth.  A surviving fid's
        position in the pending dict is the row of the first birth of its
        trailing birth-run — reassignment keeps the original insertion
        position — so sorting survivors by that row reproduces the
        reference's iteration order exactly.
        """
        a = self._a
        lrows = a.pop("lt_rows")
        lfids = a.pop("lt_fids")
        ltimes = a.pop("lt_times")
        lbytes = a.pop("lt_bytes")
        ltags = a.pop("lt_tags")
        ne = len(lrows)
        zi = np.zeros(0, np.int64)
        zf = np.zeros(0, np.float64)
        if not ne:
            return zi, zf, zi, zf, zi, zf.copy(), zi.copy()
        lg = np.lexsort((lrows, lfids))
        f_s = lfids[lg]
        r_s = lrows[lg]
        t_s = ltimes[lg]
        b_s = lbytes[lg]
        is_birth = ltags[lg] == _LT_BIRTH
        lstart = np.empty(ne, dtype=bool)
        lstart[0] = True
        lstart[1:] = f_s[1:] != f_s[:-1]
        prev_birth = np.empty(ne, dtype=bool)
        prev_birth[0] = False
        prev_birth[1:] = is_birth[:-1]
        prev_birth[lstart] = False
        head = _group_heads(lstart)

        kidx = np.nonzero(~is_birth & prev_birth)[0]
        kidx = kidx[np.argsort(r_s[kidx], kind="stable")]  # global order
        bidx = _last_where(is_birth, head)[kidx]

        lend = np.empty(ne, dtype=bool)
        lend[-1] = True
        lend[:-1] = lstart[1:]
        gpos = np.nonzero(lend)[0]
        sv = gpos[is_birth[gpos]]
        last_head = _last_where(is_birth & ~prev_birth, head)
        sv = sv[np.argsort(r_s[last_head[sv]], kind="stable")]
        return (
            f_s[kidx], t_s[bidx], b_s[bidx], t_s[kidx],
            f_s[sv], t_s[sv], b_s[sv],
        )

    # -- finishing ----------------------------------------------------------

    def finish(self) -> OnePassReport:
        """The report.  Call it once: the arrays only it reads leave the
        collector as each step ends, so their memory goes with them."""
        a = self._a
        oid = a["acc_oid"]
        fid = a["acc_fid"]
        uid = a["acc_uid"]
        flag = a["acc_flag"]
        topen = a["acc_topen"]
        tclose = a["acc_tclose"]
        szopen = a["acc_szopen"]
        ipos = a["acc_ipos"]
        seeks = a["acc_seeks"]
        sad = a["acc_sad"]
        nruns = a["acc_nruns"]
        abytes = a.pop("acc_bytes")
        runstart = a["acc_runstart"]
        rs_all = a["run_starts"]
        re_all = a["run_ends"]
        rt_all = a["run_times"]
        mode = flag & FLAG_MODE_MASK

        # ---- sequentiality (Table V) and the size CDFs -----------------
        seq_report, szclose = self._sequentiality(
            mode, flag, szopen, nruns, a.pop("acc_maxend"), sad, runstart,
            rs_all, re_all, abytes,
        )
        size_by_accesses, size_by_bytes = _cdf_pair(
            szclose.astype(np.float64), abytes.astype(np.float64)
        )
        del szclose

        # ---- CDFs over runs and open times ----------------------------
        lengths = re_all - rs_all
        run_len = lengths.astype(np.float64)
        run_by_runs, run_by_bytes = _cdf_pair(lengths, run_len)
        del lengths
        open_times = _cdf_counts(tclose - topen)

        # ---- lifetimes ------------------------------------------------
        (done_fid_a, done_birth_a, done_bytes_a, done_death_a,
         alive_fid_a, alive_birth_a, alive_bytes_a) = self._lifetime_scan()
        lt_by_files, lt_by_bytes, daemon_spike = _lifetime_cdfs(
            done_birth_a, done_bytes_a, done_death_a, alive_bytes_a
        )

        # ---- activity (Table IV) and burstiness -----------------------
        activity, burstiness = self._activity_bursts(
            a.pop("mark_times"), a.pop("mark_uids"), uid, nruns, runstart,
            rt_all, run_len, int(abytes.sum()),
        )

        # ---- users ----------------------------------------------------
        users = self._build_users(uid, fid, tclose, abytes, mode)

        # ---- lazy object materialization ------------------------------
        # Each thunk takes the report as its argument rather than closing
        # over it, so the report is no reference cycle: it and the arrays
        # its thunks pin are freed at its last reference.
        def make_accesses(_report) -> list[FileAccess]:
            order_l = np.argsort(tclose, kind="stable").tolist()
            oid_l = oid.tolist()
            fid_l = fid.tolist()
            uid_l = uid.tolist()
            flag_l = flag.tolist()
            topen_l = topen.tolist()
            tclose_l = tclose.tolist()
            szopen_l = szopen.tolist()
            ipos_l = ipos.tolist()
            seeks_l = seeks.tolist()
            sad_l = sad.tolist()
            nruns_l = nruns.tolist()
            runstart_l = runstart.tolist()
            rs_l = rs_all.tolist()
            re_l = re_all.tolist()
            rt_l = rt_all.tolist()
            out = []
            append = out.append
            for i in order_l:
                k = runstart_l[i]
                fl = flag_l[i]
                runs = [
                    Run(rs_l[k + j], re_l[k + j], rt_l[k + j])
                    for j in range(nruns_l[i])
                ]
                append(FileAccess(
                    oid_l[i], fid_l[i], uid_l[i],
                    _MODE[fl & FLAG_MODE_MASK], topen_l[i], tclose_l[i],
                    szopen_l[i], bool(fl & FLAG_CREATED),
                    bool(fl & FLAG_NEW_FILE), ipos_l[i], seeks_l[i],
                    sad_l[i], runs,
                ))
            return out

        def make_lifetimes(_report) -> list[Lifetime]:
            births_all = np.concatenate([done_birth_a, alive_birth_a])
            fid_lt = np.concatenate([done_fid_a, alive_fid_a]).tolist()
            bytes_lt = np.concatenate([done_bytes_a, alive_bytes_a]).tolist()
            death_lt: list = done_death_a.tolist() + [None] * len(alive_fid_a)
            birth_lt = births_all.tolist()
            return [
                Lifetime(fid_lt[i], birth_lt[i], bytes_lt[i], death_lt[i])
                for i in np.argsort(births_all, kind="stable").tolist()
            ]

        report = OnePassReport.__new__(OnePassReport)
        report.trace_name = self.name
        report.duration = self.duration
        report.activity = activity
        report.sequentiality = seq_report
        report.run_length_by_runs = run_by_runs
        report.run_length_by_bytes = run_by_bytes
        report.open_times = open_times
        report.size_by_accesses = size_by_accesses
        report.size_by_bytes = size_by_bytes
        report.users = users
        report.burstiness = burstiness
        report.lifetime_by_files = lt_by_files
        report.lifetime_by_bytes = lt_by_bytes
        report.daemon_spike = daemon_spike
        report._lazy = {
            "accesses": make_accesses,
            "transfers": lambda r: transfers_from_accesses(r.accesses),
            "lifetimes": make_lifetimes,
            "popularity": lambda r: popularity_from_accesses(r.accesses),
        }
        return report

    def _sequentiality(
        self, mode, flag, szopen, nruns, maxend, sad, runstart, rs_all,
        re_all, abytes,
    ):
        """Table V's report, and each access's file size at close."""
        created = (flag & FLAG_CREATED) != 0
        furthest = np.where(nruns > 0, maxend, 0)
        szclose = np.maximum(np.where(created, 0, szopen), furthest)
        whole = np.zeros(len(mode), dtype=bool)
        sidx = np.nonzero(nruns == 1)[0]
        if len(sidx):
            r0s = rs_all[runstart[sidx]]
            r0e = re_all[runstart[sidx]]
            tail = np.where(mode[sidx] == 1, szopen[sidx], szclose[sidx])
            whole[sidx] = (r0s == 0) & (r0e == tail)
        sequential = whole | ((nruns <= 1) & ~sad)

        seq_report = SequentialityReport(trace_name=self.name)
        for mcode, counts in ((1, seq_report.read), (2, seq_report.write),
                              (3, seq_report.read_write)):
            sel = mode == mcode
            counts.accesses = int(sel.sum())
            counts.bytes_total = int(abytes[sel].sum())
            sw = sel & whole
            counts.whole_file = int(sw.sum())
            counts.bytes_whole_file = int(abytes[sw].sum())
            ss = sel & sequential
            counts.sequential = int(ss.sum())
            counts.bytes_sequential = int(abytes[ss].sum())
        return seq_report, szclose

    def _activity_bursts(
        self, mark_t, mark_u, uid, nruns, runstart, run_t, run_len,
        total_bytes,
    ):
        """Table IV's windowed activity and the burstiness report.

        Every window sees the event marks (*mark_t*, *mark_u*) and one
        byte mark per run, at the run's time with its access's user.
        """
        # Runs are stored in disjoint per-access slices covering
        # [0, total_runs), so sorting accesses by their run offset lets
        # repeat() rebuild the per-run owner.
        by_off = np.argsort(runstart, kind="stable")
        run_u = np.repeat(uid[by_off], nruns[by_off])
        del by_off
        # The interval keys use raw uid values — only distinctness and
        # ascending order matter, and for nonnegative uids the composite
        # key sorts exactly like (interval, uid); byte-mark uids are a
        # subset of event-mark uids (every access's open row marks its
        # user), so the event marks alone span the users_seen set.
        uids = [u for u in (mark_u, run_u) if len(u)]
        if uids:
            _require(
                min(int(u.min()) for u in uids) >= 0,
                "negative user id in marks",
            )
            nu = max(int(u.max()) for u in uids) + 1
        else:
            nu = 1
        marks = (mark_t, mark_u, run_t, run_u, nu, run_len)
        activity = ActivityReport(
            trace_name=self.name,
            duration=self.duration,
            total_bytes=total_bytes,
            total_users=int(_sorted_unique(mark_u).size) if len(mark_u) else 0,
            ten_minute=self._vec_window(self.long_window, *marks),
            ten_second=self._vec_window(self.short_window, *marks),
        )

        if len(run_t):
            _require(self.nb * nu < (1 << 62), "burst key space too large")
            rkey = _window_keys(
                run_t, run_u, self.start, self.burst_window, self.nb - 1, nu
            )
            rkeys = _sorted_unique(rkey)
            ksums = np.bincount(np.searchsorted(rkeys, rkey), weights=run_len)
            # assemble_burstiness only reads max(user_bytes.values());
            # the full (window, user) -> bytes table is never consulted.
            user_bytes = {(0, 0): int(ksums.max())}
        else:
            user_bytes = {}
        burstiness = assemble_burstiness(
            self.burst_window, self.b_duration, self.opens_w.tolist(),
            self.busy.tolist(), user_bytes,
        )
        return activity, burstiness

    def _build_users(self, acc_uid, acc_fid, acc_tclose, acc_bytes, mode):
        """The users dict, in first open/exec appearance order, with the
        reference's access-folding applied per uid."""
        u_uids = self._a.pop("user_uids")
        u_times = self._a.pop("user_times")
        u_isopen = self._a.pop("user_is_open")
        users: dict[int, UserSummary] = {}
        nn = len(u_uids)
        if not nn:
            return users
        by_u = np.argsort(u_uids, kind="stable")
        su_u = u_uids[by_u]
        gs = np.empty(nn, dtype=bool)
        gs[0] = True
        gs[1:] = su_u[1:] != su_u[:-1]
        uniq_u = su_u[gs]
        nu = len(uniq_u)
        inv = np.empty(nn, np.int64)
        inv[by_u] = np.cumsum(gs) - 1
        first_idx = by_u[gs]  # stable sort: first row of each uid
        opens_per = np.bincount(inv[u_isopen], minlength=nu)
        execs_per = np.bincount(inv[~u_isopen], minlength=nu)
        tmin = np.full(nu, np.inf)
        tmax = np.full(nu, -np.inf)
        np.minimum.at(tmin, inv, u_times)
        np.maximum.at(tmax, inv, u_times)

        # Fold accesses: every access's uid was registered by its open,
        # so the fold never creates users.
        n_acc = len(acc_uid)
        if n_acc:
            codes = np.searchsorted(uniq_u, acc_uid)
            wmask = mode != 1  # AccessMode.writable: anything but READ
            bw = np.bincount(
                codes[wmask], weights=acc_bytes[wmask].astype(np.float64),
                minlength=nu,
            )
            br = np.bincount(
                codes[~wmask], weights=acc_bytes[~wmask].astype(np.float64),
                minlength=nu,
            )
            close_max = np.full(nu, float("-inf"))
            np.maximum.at(close_max, codes, acc_tclose)
            # distinct (uid, fid) pairs -> files_touched sets
            pair_order = np.lexsort((acc_fid, acc_uid))
            su = acc_uid[pair_order]
            sf = acc_fid[pair_order]
            first_pair = np.empty(n_acc, dtype=bool)
            first_pair[0] = True
            first_pair[1:] = (su[1:] != su[:-1]) | (sf[1:] != sf[:-1])
            pu = su[first_pair]
            pf = sf[first_pair]
            pair_offs = np.searchsorted(pu, uniq_u)
            pair_ends = np.searchsorted(pu, uniq_u, side="right")
        else:
            bw = br = np.zeros(nu)
            close_max = np.full(nu, float("-inf"))
            pf = np.zeros(0, np.int64)
            pair_offs = pair_ends = np.zeros(nu, np.int64)

        appearance = np.argsort(first_idx, kind="stable").tolist()
        uids_l = uniq_u.tolist()
        opens_l = opens_per.tolist()
        execs_l = execs_per.tolist()
        tmin_l = tmin.tolist()
        tmax_l = tmax.tolist()
        br_l = br.tolist()
        bw_l = bw.tolist()
        cmax_l = close_max.tolist()
        po_l = pair_offs.tolist()
        pe_l = pair_ends.tolist()
        pf_l = pf.tolist()
        for k in appearance:
            s = UserSummary(user_id=uids_l[k])
            s.opens = opens_l[k]
            s.execs = execs_l[k]
            s.first_event = tmin_l[k]
            s.last_event = max(tmax_l[k], cmax_l[k])
            s.bytes_read = int(br_l[k])
            s.bytes_written = int(bw_l[k])
            s.files_touched = set(pf_l[po_l[k]:pe_l[k]])
            users[s.user_id] = s
        return users

    def _vec_window(self, window, mark_t, mark_u, run_t, run_u, nu, run_len):
        """Vectorized :func:`~repro.analysis.activity._window_analysis`,
        feeding the identical per-interval lists to the reference
        ``_mean_std``: the event marks (*mark_t*, *mark_u*) and the byte
        marks (*run_t*, *run_u*, weighing *run_len* bytes) share one key
        space; uids are nonnegative and below *nu*, so
        ``slot * nu + uid`` sorts as (interval, uid)."""
        _require(window > 0, "non-positive activity window")
        duration = self.duration
        n_intervals = (
            max(1, math.ceil(duration / window)) if duration > 0 else 1
        )
        last = n_intervals - 1
        _require(n_intervals * nu < (1 << 62), "window key space too large")
        n_em = len(mark_t)
        key = np.empty(n_em + len(run_t), np.int64)
        _window_keys(mark_t, mark_u, self.start, window, last, nu, key[:n_em])
        _window_keys(run_t, run_u, self.start, window, last, nu, key[n_em:])
        akeys = _sorted_unique(key)
        counts = np.bincount(
            akeys // nu, minlength=n_intervals
        ).astype(np.float64).tolist()
        pos = np.searchsorted(akeys, key[n_em:])
        sums = np.bincount(pos, weights=run_len, minlength=len(akeys))
        throughputs = (sums / window).tolist()
        mean_active, std_active = _mean_std(counts)
        mean_tp, std_tp = _mean_std(throughputs)
        return WindowedActivity(
            window=window,
            intervals=n_intervals,
            max_active_users=int(max(counts)) if counts else 0,
            mean_active_users=mean_active,
            std_active_users=std_active,
            mean_user_throughput=mean_tp,
            std_user_throughput=std_tp,
        )


def _window_keys(times, uids, start, window, last, nu, out=None):
    """Per mark, its interval ``min((t - start) / window, last)``
    truncated to int64, times *nu*, plus its uid (into *out*, or a new
    array)."""
    slot = np.subtract(times, start)
    slot /= window
    np.minimum(slot, last, out=slot)
    if out is None:
        out = np.empty(len(slot), np.int64)
    np.copyto(out, slot, casting="unsafe")
    out *= nu
    out += uids
    return out


def _lifetime_cdfs(done_birth, done_bytes, done_death, alive_bytes):
    """The lifetime CDFs by files and by bytes (the files alive at the
    end are censored), and the share of lifetimes in the 3-minute
    daemon band."""
    nd = len(done_birth)
    n_lt = nd + len(alive_bytes)
    max_ltb = max(
        int(done_bytes.max()) if nd else 0,
        int(alive_bytes.max()) if len(alive_bytes) else 0,
    )
    _require(n_lt * max(1, max_ltb) < _F64_EXACT,
             "lifetime bytes exceed the exact window")
    lt_dead = np.maximum(0.0, done_death - done_birth)
    by_files, by_bytes = _cdf_pair(
        lt_dead,
        done_bytes.astype(np.float64),
        censored=(float(n_lt - nd), float(int(alive_bytes.sum()))),
    )
    if n_lt:
        in_band = int(((lt_dead >= 179.0) & (lt_dead <= 181.0)).sum())
        daemon_spike = in_band / n_lt
    else:
        daemon_spike = 0.0
    return by_files, by_bytes, daemon_spike


def _cdf_counts(values, censored: float = 0.0) -> Cdf:
    """``Cdf.from_samples(values)`` as whole-array arithmetic."""
    xs, cnt = np.unique(values, return_counts=True)
    cum = np.cumsum(cnt.astype(np.float64))
    total = float(cum[-1]) + censored if len(xs) else censored
    return Cdf(xs=tuple(xs.tolist()), cum=tuple(cum.tolist()), total=total)


def _cdf_pair(
    values, weights, censored: tuple[float, float] = (0.0, 0.0)
) -> tuple[Cdf, Cdf]:
    """A count-weighted and a byte-weighted CDF over the same samples,
    sharing the single expensive ``np.unique`` between them."""
    xs, inv, cnt = np.unique(
        values, return_inverse=True, return_counts=True
    )
    xs_t = tuple(xs.tolist())
    cum_c = np.cumsum(cnt.astype(np.float64))
    sums = np.bincount(inv, weights=weights, minlength=len(xs))
    cum_w = np.cumsum(sums)
    total_c = float(cum_c[-1]) + censored[0] if len(xs) else censored[0]
    total_w = float(cum_w[-1]) + censored[1] if len(xs) else censored[1]
    return (
        Cdf(xs=xs_t, cum=tuple(cum_c.tolist()), total=total_c),
        Cdf(xs=xs_t, cum=tuple(cum_w.tolist()), total=total_w),
    )


# -- validator -----------------------------------------------------------------

_INVALID_FLAG_BITS = ~_VALID_FLAG_BITS & 0xFF

_KNOWN_KIND_LUT = np.zeros(256, np.bool_)
_KNOWN_KIND_LUT[np.array(sorted(KIND_LABELS), np.int64)] = True


class VectorizedValidator:
    """Streaming vectorized twin of
    :func:`~repro.trace.validate.validate_columns_python`.

    Every check is a whole-column boolean reduction; a problem is carried
    as the integer key ``(row << 4) | rank`` where *rank* is the check's
    position in the reference's per-row emission order, so an ascending
    sort recovers the exact message sequence the Python loop would
    produce.  Only the first ``max_problems`` messages are ever formatted
    (a partition-then-sort keeps selection O(n) when a spoiled trace has
    millions of problems); the rest are merely counted, which is all the
    suppression line needs.

    The open-table state the reference keeps per row reduces to two
    membership facts, both computable from the oid-grouped sub-sequence
    of open/seek/close rows: an oid is *present* before a row iff the
    previous such op on it was not a close (seeks re-add unknown oids,
    exactly as the reference's unconditional ``present.add(oid)`` does),
    and *ever-closed* iff any earlier close named it.
    Group heads consult the carry sets ``_present``/``_closed``, which
    also stream the state across corpus segments.
    """

    __slots__ = (
        "event_count",
        "max_problems",
        "open_count",
        "total_problems",
        "formatted",
        "_present",
        "_closed",
        "_last_time",
    )

    def __init__(
        self, event_count: int, max_problems: int = DEFAULT_MAX_PROBLEMS
    ):
        self.event_count = event_count
        self.max_problems = max_problems
        self.open_count = 0
        self.total_problems = 0
        self.formatted: list[str] = []
        self._present: set[int] = set()  # reference present set
        self._closed: set[int] = set()  # reference closed set
        self._last_time = float("-inf")

    def feed(self, cols: TraceColumns, base: int = 0) -> None:
        v = column_views(cols)
        n = len(v)
        if not n:
            return
        kinds = v.kinds
        times = v.times
        oids = v.open_ids
        sizes = v.sizes
        positions = v.positions
        flags = v.flags

        prev = np.empty(n, np.float64)
        prev[0] = self._last_time
        prev[1:] = times[:-1]

        known = _KNOWN_KIND_LUT[kinds]
        is_open = kinds == KIND_OPEN
        is_seek = kinds == KIND_SEEK
        is_close = kinds == KIND_CLOSE

        keys: list = []

        def flag_rows(rows, rank):
            if len(rows):
                keys.append((rows.astype(np.int64) << 4) | rank)

        def flag_mask(mask, rank):
            flag_rows(np.nonzero(mask)[0], rank)

        # Stateless checks, ranked by their order inside the reference's
        # row loop (NaN times compare False on both sides, identically).
        flag_mask(times < prev, 0)
        flag_mask(~((times >= 0.0) & (times <= MAX_TRACE_TIME)), 1)
        flag_mask(~known, 2)
        flag_mask(is_open & ((flags & FLAG_MODE_MASK) == 0), 3)
        flag_mask(is_open & ((flags & _INVALID_FLAG_BITS) != 0), 4)
        flag_mask(known & ~is_open & (flags != 0), 3)
        flag_mask(is_open & ((sizes < 0) | (positions < 0)), 7)
        flag_mask(is_open & (positions > sizes), 8)
        flag_mask(is_seek & ((sizes < 0) | (positions < 0)), 5)
        flag_mask(is_close & (positions < 0), 6)
        flag_mask((kinds == KIND_TRUNC) & (sizes < 0), 4)

        # Stateful open-table checks over the oid-grouped sub-rows.
        sub = np.nonzero(is_open | is_seek | is_close)[0]
        if len(sub):
            rows_ord, gstart = _open_id_groups(oids, sub)
            k_ord = kinds[rows_ord]
            m = len(sub)
            grp = np.cumsum(gstart) - 1
            uniq = oids[rows_ord[gstart]]

            def carried(oid_set):
                if not oid_set:
                    return np.zeros(len(uniq), np.bool_)
                members = np.fromiter(oid_set, np.int64, len(oid_set))
                return np.isin(uniq, members)

            present = np.empty(m, np.bool_)
            present[1:] = k_ord[:-1] != KIND_CLOSE
            present[gstart] = carried(self._present)

            is_cl = k_ord == KIND_CLOSE
            cs = np.cumsum(is_cl)
            excl = cs - is_cl  # closes strictly before, globally
            head_excl = excl[gstart]
            closed_before = carried(self._closed)[grp] | (
                excl - head_excl[grp] > 0
            )

            is_op = k_ord == KIND_OPEN
            flag_rows(rows_ord[is_op & present], 5)  # opened twice
            flag_rows(rows_ord[is_op & closed_before], 6)  # reused
            flag_rows(rows_ord[(k_ord == KIND_SEEK) & ~present], 4)
            flag_rows(rows_ord[is_cl & ~present], 4)  # close unknown
            flag_rows(rows_ord[is_cl & closed_before], 5)  # closed twice

            # Carry across chunks: the group-final op decides presence;
            # any close in the group marks the oid ever-closed.
            gend = np.empty(m, np.bool_)
            gend[:-1] = gstart[1:]
            gend[-1] = True
            final_close = is_cl[gend]
            self._present.difference_update(uniq[final_close].tolist())
            self._present.update(uniq[~final_close].tolist())
            self._closed.update(uniq[cs[gend] - head_excl > 0].tolist())

        self.open_count += int(np.count_nonzero(is_open))
        self._last_time = float(times[-1])

        if keys:
            allk = np.concatenate(keys)
            self.total_problems += len(allk)
            room = self.max_problems - len(self.formatted)
            if room > 0:
                if len(allk) > room:
                    allk = np.sort(np.partition(allk, room - 1)[:room])
                else:
                    allk.sort()
                self._format(allk, base, v, prev)

    def _format(self, keys, base, v, prev) -> None:
        out = self.formatted
        for key in keys.tolist():
            row = key >> 4
            rank = key & 15
            i = base + row
            if rank == 0:
                out.append(
                    f"event {i}: time {float(v.times[row])} precedes "
                    f"previous {float(prev[row])}"
                )
            elif rank == 1:
                out.append(
                    f"event {i}: time {float(v.times[row])} s outside the "
                    f"valid trace time range (0..{MAX_TRACE_TIME:.2f} s)"
                )
            elif rank == 2:
                out.append(f"event {i}: unknown kind tag {int(v.kinds[row])}")
            else:
                kind = int(v.kinds[row])
                fl = int(v.flags[row])
                oid = int(v.open_ids[row])
                if kind == KIND_OPEN:
                    if rank == 3:
                        out.append(
                            f"event {i}: open flag byte {fl:#04x} has no "
                            f"mode bits"
                        )
                    elif rank == 4:
                        out.append(
                            f"event {i}: open flag byte {fl:#04x} sets "
                            f"undefined bits"
                        )
                    elif rank == 5:
                        out.append(f"event {i}: open_id {oid} opened twice")
                    elif rank == 6:
                        out.append(
                            f"event {i}: open_id {oid} reused after close"
                        )
                    elif rank == 7:
                        out.append(f"event {i}: negative size/position on open")
                    else:
                        out.append(
                            f"event {i}: open initial_pos "
                            f"{int(v.positions[row])} beyond "
                            f"size {int(v.sizes[row])}"
                        )
                elif rank == 3:
                    out.append(
                        f"event {i}: non-open row has nonzero flag byte "
                        f"{fl:#04x}"
                    )
                elif kind == KIND_SEEK:
                    if rank == 4:
                        out.append(
                            f"event {i}: seek on unknown open_id {oid}"
                        )
                    else:
                        out.append(f"event {i}: negative seek position")
                elif kind == KIND_CLOSE:
                    if rank == 4:
                        out.append(
                            f"event {i}: close on unknown open_id {oid}"
                        )
                    elif rank == 5:
                        out.append(f"event {i}: open_id {oid} closed twice")
                    else:
                        out.append(
                            f"event {i}: negative final position on close"
                        )
                else:  # KIND_TRUNC
                    out.append(f"event {i}: truncate to negative length")

    def finish(self) -> ValidationReport:
        problems = list(self.formatted)
        if self.total_problems > self.max_problems:
            problems.append("... further problems suppressed")
        return ValidationReport(
            event_count=self.event_count,
            open_count=self.open_count,
            unmatched_opens=len(self._present),
            problems=problems,
            max_problems=self.max_problems,
        )


def validate_columns_numpy(
    cols: TraceColumns, max_problems: int = DEFAULT_MAX_PROBLEMS
) -> ValidationReport:
    """Vectorized :func:`~repro.trace.validate.validate_columns` over an
    in-RAM columnar trace."""
    validator = VectorizedValidator(len(cols), max_problems=max_problems)
    validator.feed(cols)
    return validator.finish()


def analyze_columns_numpy(
    cols: TraceColumns,
    long_window: float = 600.0,
    short_window: float = 10.0,
    burst_window: float = 10.0,
) -> OnePassReport:
    """Vectorized :func:`~repro.analysis.onepass.analyze_onepass` over an
    in-RAM columnar trace.  Raises :class:`VectorFallback` when the input
    needs the pure-Python path."""
    return VectorizedCollector(
        cols, long_window, short_window, burst_window
    ).finish()


# -- cache stream and packed-stream compiler ---------------------------------

_I64_MIN = np.iinfo(np.int64).min
_I64_MAX = np.iinfo(np.int64).max


def build_stream_numpy(cols: TraceColumns, include_paging: bool = False):
    """Vectorized :func:`~repro.cache.stream.build_stream` over columns.

    Returns the stream as :class:`~repro.cache.stream.StreamArrays`.
    Every row yields at most one item, so the items are filled in row-
    indexed arrays and selected at the end:

    * Sessions: open/close/seek rows are grouped by ``open_id`` (one
      stable sort); a row belongs to the last open at or before it in its
      group (a forward fill of positions, :func:`_last_where`), and rows
      before their group's first open are orphans.  A close or seek is live when no
      close of its group falls between its open and itself; a live row
      bills from the previous row's position (the open's ``initial_pos``
      or a seek's ``new_pos``) to its own ``prev_pos`` or ``final_pos``,
      with its open's file, user and mode.
    * Invalidations: creating opens and unlinks from byte 0, truncates
      from ``new_length``; with paging, each exec of positive size reads
      ``[0, size)``.
    * Order: a stable sort of the items' times, which are in row order,
      is the reference's (time, row) tuple sort for every non-NaN time.

    Declines NaN times (the tuple sort is not a total order there), and
    rows whose event objects cannot be built (an unknown kind tag, an
    open with no mode bits), so the reference raises its usual error.
    """
    from ..cache.stream import StreamArrays

    v = column_views(cols)
    n = len(v)
    _require(n < _ROW_LIMIT, "too many rows for int32 row numbers")
    kinds = v.kinds
    times = v.times
    flags = v.flags
    _require(not bool(np.isnan(times).any()), "NaN timestamps")
    _require(
        bool(((kinds >= KIND_OPEN) & (kinds <= KIND_EXEC)).all()),
        "unknown kind tag",
    )
    open_mask = kinds == KIND_OPEN
    _require(
        not bool((open_mask & ((flags & FLAG_MODE_MASK) == 0)).any()),
        "open row with no mode bits",
    )

    # Every row yields at most one item; billed rows take their file,
    # user and mode from their session's open row (*source*).
    at_rows, openers, run_start, run_end = _billed_rows(v)
    source = np.arange(n, dtype=np.int32)
    starts = np.zeros(n, np.int64)
    ends = np.zeros(n, np.int64)
    billed = np.zeros(n, dtype=bool)
    is_write = np.zeros(n, dtype=bool)
    source[at_rows] = openers
    starts[at_rows] = run_start
    ends[at_rows] = run_end
    billed[at_rows] = True
    is_write[at_rows] = (flags[openers] & FLAG_MODE_MASK) != AccessMode.READ
    del at_rows, openers, run_start, run_end

    truncs = kinds == KIND_TRUNC
    starts[truncs] = v.sizes[truncs]
    invalidate = (
        (open_mask & ((flags & FLAG_CREATED) != 0))
        | (kinds == KIND_UNLINK)
        | truncs
    )
    emit = invalidate | billed
    if include_paging:
        paged = (kinds == KIND_EXEC) & (v.sizes > 0)
        ends[paged] = v.sizes[paged]
        emit |= paged

    out = np.flatnonzero(emit).astype(np.int32)
    del emit
    out = out[np.argsort(times[out], kind="stable")]
    src = source[out]
    del source
    return StreamArrays(
        invalidate=invalidate[out],
        is_write=is_write[out],
        file_ids=v.file_ids[src],
        user_ids=v.user_ids[src],
        starts=starts[out],
        ends=ends[out],
        times=times[out],
    )


def _billed_rows(v):
    """The close and seek rows that bill a transfer (the sessions of
    :func:`build_stream_numpy`), with their session's open row and the
    run's start and end."""
    kinds = v.kinds
    rows, gstart = _open_id_groups(
        v.open_ids,
        np.flatnonzero((kinds >= KIND_OPEN) & (kinds <= KIND_SEEK)).astype(
            np.int32
        ),
    )
    k = kinds[rows]
    head, owner, closed = _match_sessions(k, gstart)
    del head
    bill = (k != KIND_OPEN) & (owner > closed)
    del closed
    pos = v.positions[rows]
    run_start = _shift_down(pos, gstart)
    run_end = np.where(k == KIND_SEEK, v.sizes[rows], pos)
    del pos, gstart, k
    bill &= run_end > run_start
    return rows[bill], rows[owner[bill]], run_start[bill], run_end[bill]


def _known_before(fids, invalidate, starts, ends):
    """Each item's known file size just before it: the reference's
    per-file ``known`` fold (0 at first sight, ``min`` with an
    invalidation's from-byte, ``max`` with a transfer's end).

    Each item maps the size x to ``max(min(x, lo), hi)`` (an
    invalidation has ``hi`` = -inf, a transfer ``lo`` = +inf), and such
    clamps compose to clamps, so a Hillis-Steele prefix scan over each
    file's items takes log2(items per file) whole-array steps.
    """
    n = len(fids)
    known = np.zeros(n, np.int64)
    if n == 0:
        return known
    order = np.argsort(fids, kind="stable")
    f = fids[order]
    lo = np.where(invalidate, starts, _I64_MAX)[order]
    hi = np.where(invalidate, _I64_MIN, ends)[order]
    heads = np.empty(n, dtype=bool)
    heads[0] = True
    np.not_equal(f[1:], f[:-1], out=heads[1:])
    # A file's first item sees size 0, so it becomes the constant clamp
    # of its result; a constant absorbs whatever the scan composes
    # before it, which keeps files apart without a mask.
    first = np.maximum(np.minimum(lo[heads], 0), hi[heads])
    lo[heads] = first
    hi[heads] = first
    longest = int(np.diff(np.append(np.nonzero(heads)[0], n)).max())
    step = 1
    while step < longest:
        new_hi = np.maximum(np.minimum(hi[:-step], lo[step:]), hi[step:])
        lo[step:] = np.minimum(lo[:-step], lo[step:])
        hi[step:] = new_hi
        step *= 2
    # Every prefix now starts at its file's constant, so its clamp is
    # constant too, with value ``hi``: the size after each item.
    known[order] = _shift_down(hi, heads)
    return known


def pack_stream_numpy(stream, block_size: int, start_time: float | None = None):
    """Vectorized :func:`~repro.parallel.packed.pack_stream`.

    *stream* is a list of items or a
    :class:`~repro.cache.stream.StreamArrays`, which is used as it is.
    A list costs one pass over its objects to read them into arrays.
    The rest is whole-array work: the per-file known-size fold is a
    prefix scan (:func:`_known_before`), the per-block expansion, where
    the reference spends its time (``for block in range(first, last +
    1)`` with three appends per block), is one ``repeat``/``arange``
    pass over all items at once, and the coverage test one boolean
    expression over the expanded rows.
    """
    from ..cache.stream import Invalidation, StreamArrays
    from ..parallel.packed import (
        _BLOCK_LIMIT,
        KEY_SHIFT,
        OP_INVALIDATE,
        OP_READ,
        OP_WRITE,
        OP_WRITE_COVERED,
        PackedStream,
    )

    if block_size <= 0:
        raise ValueError(f"block size must be positive, got {block_size}")
    bs = block_size
    _require(bs <= 1 << 32, "oversized block size")

    if isinstance(stream, StreamArrays):
        invalidate = stream.invalidate
        writes = stream.is_write
        fids = stream.file_ids
        starts = stream.starts
        ends = stream.ends
        tms = stream.times
    else:
        invalidate = [isinstance(item, Invalidation) for item in stream]
        try:
            fids = np.asarray([item.file_id for item in stream], np.int64)
            starts = np.asarray(
                [
                    item.from_byte if inv else item.start
                    for item, inv in zip(stream, invalidate)
                ],
                np.int64,
            )
            ends = np.asarray(
                [0 if inv else item.end for item, inv in zip(stream, invalidate)],
                np.int64,
            )
        except OverflowError as exc:  # beyond int64: let the reference decide
            raise VectorFallback(str(exc)) from None
        writes = np.asarray(
            [not inv and item.is_write for item, inv in zip(stream, invalidate)],
            dtype=bool,
        )
        invalidate = np.asarray(invalidate, dtype=bool)
        tms = np.asarray([item.time for item in stream], np.float64)

    n_items = len(fids)
    if n_items:
        # Keep every intermediate (fid << KEY_SHIFT, block * bs ± bs)
        # inside int64 so the arithmetic below cannot wrap.
        _require(
            -(1 << 33) < int(fids.min()) and int(fids.max()) < (1 << 33),
            "file id out of packed-key range",
        )
        _require(
            -(1 << 62) < int(starts.min()) and int(ends.max()) < (1 << 62),
            "byte offset out of int64-safe range",
        )

    ks = _known_before(fids, invalidate, starts, ends)
    # An invalidation's one row keys its first dead block (clamped: no
    # real block index reaches past the limit, so nothing more is lost).
    first_dead = np.minimum(-(-starts // bs), _BLOCK_LIMIT)
    firsts = np.where(invalidate, first_dead, starts // bs)
    lasts = np.where(invalidate, first_dead, (ends - 1) // bs)
    del first_dead
    too_far = np.nonzero(~invalidate & (lasts >= _BLOCK_LIMIT))[0]
    if len(too_far):
        i = too_far[0]
        raise ValueError(
            f"block index {lasts[i]} does not fit a packed key "
            f"(file {fids[i]}, {bs}-byte blocks); use the item-stream path"
        )
    kindcol = np.where(
        invalidate, OP_INVALIDATE, np.where(writes, OP_WRITE, OP_READ)
    ).astype(np.uint8)

    raw_counts = lasts - firsts + 1
    del lasts
    n_accesses = int(raw_counts[~invalidate].sum())
    counts = np.maximum(raw_counts, 0)
    del raw_counts
    total = int(counts.sum())
    _require(
        max(n_items, total) < _ROW_LIMIT, "too many rows for int32 row numbers"
    )
    counts = counts.astype(np.int32)
    # Row r expands item rep[r]; its block is the item's first block
    # plus r's offset from the item's first row (cum).
    rep = np.repeat(np.arange(n_items, dtype=np.int32), counts)
    cum = np.cumsum(counts, dtype=np.int32)
    cum -= counts
    del counts
    off = np.arange(total, dtype=np.int32)
    off -= cum[rep]
    del cum
    block = firsts[rep]
    del firsts
    block += off
    del off

    ops = kindcol[rep]
    del kindcol
    wrows = np.flatnonzero(ops == OP_WRITE)
    if len(wrows):
        witem = rep[wrows]
        bstart = block[wrows] * bs
        covered = (
            (starts[witem] <= bstart) & (ends[witem] >= bstart + bs)
        ) | (bstart >= ks[witem])
        ops[wrows[covered]] = OP_WRITE_COVERED
    del wrows, ks

    keys = fids[rep]
    keys <<= KEY_SHIFT
    keys += block
    del block
    # One copy each from the numpy buffers (a uint8 view reads as bytes).
    keys_arr = array("q")
    keys_arr.frombytes(keys.view(np.uint8))
    del keys
    row_times = tms[rep]
    del rep
    if start_time is None:
        start_time = float(row_times[0]) if total else 0.0
    times_arr = array("d")
    times_arr.frombytes(row_times.view(np.uint8))
    return PackedStream(
        block_size=bs,
        start_time=start_time,
        ops=ops.tobytes(),
        keys=keys_arr,
        times=times_arr,
        n_accesses=n_accesses,
    )
