"""LRU cache curves: every cache size and write policy from one pass.

Every cache-size sweep in the paper replays the same stream once per
cache size, yet LRU caches obey the *inclusion property*: the content of
a C-block cache is always a subset of a larger one's, so one traversal
that tracks each block's reuse depth yields hit/miss counts for **all**
sizes at once (Mattson et al., "Evaluation techniques for storage
hierarchies", IBM Systems Journal 1970).

**Deletion holes.**  The classical algorithm assumes blocks are never
removed.  Our streams delete: unlinks and truncations invalidate cached
blocks, and with them plain inclusion breaks (a block evicted from a
small cache may survive in a large one, so the caches are no longer
nested prefixes of one recency list).  The fix is to keep deleted
blocks' *positions* as **holes**:

* the stack is a list of slots, each a live block or a hole, whose
  stamps strictly decrease with depth;
* invariant: the C-block cache holds exactly the live blocks among the
  first C slots;
* delete = mark the block's slot as a hole, in place;
* access = push the block to the front and remove the *shallowest* hole
  (the accessed block's old slot becomes a hole first, so a plain
  move-to-front is the common no-hole case).

Only slots above the removed hole shift down, so a live slot pushed
across depth C is an eviction at capacity C (the shallowest hole is by
definition below no other hole, so crossing slots are always live), and
a block's depth never decreases between two of its accesses.

**Write policies.**  Hits and misses, evictions, invalidations and read
elisions depend only on cache *content*, which LRU keeps identical
under every write policy: it picks victims without looking at
dirtiness.  Under **write-through** no block is ever dirty and every
write is a disk write.  Under flush-back and delayed-write the dirty
state at capacity C also follows from the depths (the write-back stack
analysis of Thompson & Smith, "Efficient (stack) algorithms for
analysis of write-back and sector memories", ACM TOCS 7(1), 1989):

* a write starts a *dirty period* at C unless the block is already
  dirty there, which it is when it had a write since it was last
  killed, no flush ran between the two rows, and C is at least the
  largest depth among its accesses after that write, this one included;
  period starts are ``dirty_blocks_created``;
* an eviction or a flush ends a period with one disk write; a kill
  while resident ends one with none (``dirty_blocks_discarded``), and
  so does the end of the trace for a block still resident and
  unflushed, so disk writes = periods - discards - periods open at the
  end, and no depth-at-flush query is needed;
* flush boundaries are the simulator's own floats (the stream's
  ``start_time + interval``, then repeated ``+= interval``, which a
  sequential ``np.cumsum`` reproduces); "a flush ran between rows r
  and s" means more boundaries lie at or below the running-maximum
  time of row s than of row r.

**The kernel.**  :func:`stack_curve_numpy` computes the curve with
whole-column numpy passes.  Every per-op decision of the hole stack
reduces to *counting stamps*:

* Each pushing access mints stamp ``u`` and removes exactly one older
  stamp ``r_u`` from the stack (the consumed hole, the moved slot's old
  stamp, or nothing, ``r_u = -1``, when the stack grows).  Deletions
  mark slots in place, so they never change the stamp multiset.
* The depth of stamp ``a`` after ``q`` pushes is therefore
  ``1 + (q - a) - T(q, a)`` where ``T(q, a) = #{w <= q : r_w > a}`` —
  a prefix dominance count over the removal sequence.
* A hit's histogram region, an eviction's boundary test
  (``caps[j] < depth``), an invalidated block's region and a live
  block's region at the end of the trace are all instances of that
  one formula.

The pipeline: previous/next occurrence per key via one stable argsort;
per-file "first invalidation at or past this block after row *i*"
via a sparse-table binary descent (all queries advance in lockstep);
hole-population levels as a reflected random walk (cumsum + running
minimum); the removal sequence inside hole episodes via a bounded
Python mini-loop over only the rows a hole is actually in play for
(the ``vectorized.py`` idiom — everywhere else ``r_u`` is a plain
column expression); and all ``T`` queries answered in one batch by a
wavelet matrix over the removal sequence (``O(log n)`` vectorized
passes for the whole batch).  The write-back rules then cost a
segmented running maximum of regions in key order and one histogram
per policy.

**The specification.**  :func:`stack_curve_python` builds the same
curve from one :func:`simulate_packed` replay per size and policy.
Bit-identity is the contract (``tests/test_veccache.py`` and fuzz
pillar 5 compare them): :func:`stack_curve` runs the kernel and reruns
the specification only when the kernel raises :class:`VectorFallback`
on its input.  A single configuration stays on the
:func:`simulate_packed` loop: at one size the two tie, the kernel's
fixed cost (sorts, the wavelet matrix) being about one loop's time.
"""

from __future__ import annotations

import math
from array import array
from heapq import heappop, heappush

from ..cache.metrics import CacheMetrics
from ..cache.policies import WRITE_THROUGH, PolicySpec, WritePolicy
from ..trace.npview import np
from .packed import (
    KEY_SHIFT,
    OP_INVALIDATE,
    OP_READ,
    OP_WRITE_COVERED,
    PackedStream,
    simulate_packed,
)

__all__ = [
    "StackCurve",
    "drop_index_numpy",
    "replay_packed",
    "stack_curve",
    "stack_curve_numpy",
    "stack_curve_python",
]

#: Row counts must stay addressable alongside a shifted file id in one
#: int64 (the per-file boundary searches encode ``fid * 2**30 + row``)
#: and as int32 ranks inside the wavelet-matrix descent.
_ROW_LIMIT = 1 << 30
_FID_LIMIT = 1 << 32


def _require(condition: bool, why: str) -> None:
    if not condition:
        from ..analysis.vectorized import VectorFallback

        raise VectorFallback(why)


class StackCurve:
    """Per-cache-size metrics of one LRU curve, for each write policy."""

    __slots__ = ("block_size", "cache_sizes", "policies", "_index", "_final")

    def __init__(
        self,
        block_size: int,
        cache_sizes: tuple[int, ...],
        policies: tuple[PolicySpec, ...],
        index: dict[int, int],
        final: dict[PolicySpec, list[CacheMetrics]],
    ):
        self.block_size = block_size
        self.cache_sizes = cache_sizes
        self.policies = policies
        self._index = index
        self._final = final

    def metrics(
        self, cache_bytes: int, policy: PolicySpec | None = None
    ) -> CacheMetrics:
        """The metrics at *cache_bytes* under *policy* (default: the
        curve's first policy)."""
        if policy is None:
            policy = self.policies[0]
        return self._final[policy][self._index[cache_bytes]]


def _distinct(policies: tuple[PolicySpec, ...]) -> tuple[PolicySpec, ...]:
    """*policies* without repeats, in order."""
    specs = tuple(dict.fromkeys(policies))
    if not specs:
        raise ValueError("no write policies given")
    return specs


def _curve_capacities(
    block_size: int, cache_sizes: tuple[int, ...]
) -> tuple[list[int], dict[int, int]]:
    """Sorted distinct capacities (blocks) and each size's slot in them."""
    caps = sorted({size // block_size for size in cache_sizes})
    if not caps:
        raise ValueError("no cache sizes given")
    if caps[0] < 1:
        raise ValueError("cache smaller than one block")
    return caps, {size: caps.index(size // block_size) for size in cache_sizes}


def stack_curve(
    packed: PackedStream,
    cache_sizes: tuple[int, ...],
    policies: tuple[PolicySpec, ...] = (WRITE_THROUGH,),
) -> StackCurve:
    """LRU metrics for every size in *cache_sizes* and every write
    policy in *policies*.

    The numpy kernel computes the curve; :func:`stack_curve_python`
    reruns it only when the kernel declines the input (the curves are
    bit-identical).  Flush-back scans are anchored at
    ``packed.start_time``, the *flush_epoch* the sweeps pass to
    :func:`simulate_packed`.
    """
    from ..analysis.vectorized import VectorFallback

    try:
        return stack_curve_numpy(packed, cache_sizes, policies)
    except VectorFallback:
        return stack_curve_python(packed, cache_sizes, policies)


def stack_curve_python(
    packed: PackedStream,
    cache_sizes: tuple[int, ...],
    policies: tuple[PolicySpec, ...] = (WRITE_THROUGH,),
) -> StackCurve:
    """The pure-Python specification of :func:`stack_curve_numpy`: one
    LRU :func:`simulate_packed` replay per capacity and policy."""
    bs = packed.block_size
    sizes = tuple(cache_sizes)
    specs = _distinct(policies)
    caps, index = _curve_capacities(bs, sizes)
    final = {
        policy: [
            simulate_packed(
                packed, cap * bs, policy, flush_epoch=packed.start_time
            ).metrics
            for cap in caps
        ]
        for policy in specs
    }
    return StackCurve(bs, sizes, specs, index, final)


#: One configuration replay.  The name is kept for the pipeline
#: benchmark, which imports it; the sweeps call :func:`simulate_packed`.
replay_packed = simulate_packed


def stack_curve_numpy(
    packed: PackedStream,
    cache_sizes: tuple[int, ...],
    policies: tuple[PolicySpec, ...] = (WRITE_THROUGH,),
) -> StackCurve:
    """The curve of :func:`stack_curve_python`, from whole-column passes
    over the hole stack described in the module docstring."""
    bs = packed.block_size
    sizes = tuple(cache_sizes)
    specs = _distinct(policies)
    caps_list, index = _curve_capacities(bs, sizes)
    m = len(caps_list)
    caps = np.asarray(caps_list, dtype=np.int64)

    ops = np.frombuffer(packed.ops, dtype=np.uint8)
    keys = np.frombuffer(packed.keys, dtype=np.int64)
    n = len(ops)
    _require(len(keys) == n, "ops/keys row counts disagree")
    _require(n < _ROW_LIMIT, "stream too long for packed row encoding")
    if n:
        _require(
            int(keys.min()) >= 0 and (int(keys.max()) >> KEY_SHIFT) < _FID_LIMIT,
            "packed keys outside the vector kernel's encodable range",
        )
    times = np.frombuffer(packed.times, dtype=np.float64)
    _require(len(times) == n, "ops/times row counts disagree")

    # Only write-back policies need the dirty-period points.
    write_back = any(p.policy is not WritePolicy.WRITE_THROUGH for p in specs)
    state = _curve_rows(ops, keys, n, caps, m, write_back)
    # Flushes run by the end of each row, per flush-back policy.
    flushes = {
        p: _flush_counts(times, p.flush_interval, packed.start_time)
        for p in specs
        if p.policy is WritePolicy.FLUSH_BACK
    }
    final = _assemble(state, m, specs, flushes)
    return StackCurve(bs, sizes, specs, index, final)


def _flush_counts(times, interval: float, epoch: float):
    """Flush scans run by the end of each row (int32 per row).

    The boundaries are the simulator's own floats: ``epoch + interval``,
    then repeated ``+= interval`` — a sequential cumsum.  A row at time
    t has run every scan whose boundary lies at or below the largest
    time so far.
    """
    n = len(times)
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    _require(not bool(np.isnan(times).any()), "NaN row times")
    first = epoch + interval
    reach = np.maximum.accumulate(times)
    last = float(reach[-1])
    if not first <= last:  # no scan is ever due (NaN epochs included)
        return np.zeros(n, dtype=np.int32)
    _require(math.isfinite(first) and math.isfinite(last), "unbounded flush clock")
    due = (last - first) / interval
    _require(due < n, "more flush boundaries than rows")
    bounds = np.full(int(due) + 3, interval)
    bounds[0] = first
    np.cumsum(bounds, out=bounds)
    _require(
        bounds[-1] > last and bool((bounds[1:] > bounds[:-1]).all()),
        "flush boundaries do not advance",
    )
    return np.searchsorted(bounds, reach, side="right").astype(np.int32)


def _stable_key_order(keys_a, na):
    """Stable sort order by key (int32), via one quicksort when keys
    pack.

    A stable mergesort on int64 keys is ~2.5x slower than quicksort
    here; packing the access index into the low bits makes quicksort
    order identical to the stable order whenever the keys leave room.
    """
    if not na:
        return np.zeros(0, dtype=np.int32)
    shift = int(na - 1).bit_length()
    if shift and int(keys_a.max()) < (1 << (62 - shift)):
        order = np.argsort((keys_a << shift) + np.arange(na, dtype=np.int64))
    else:
        order = np.argsort(keys_a, kind="stable")
    return order.astype(np.int32)


def _first_kill_rows(keys, rows_i, keys_a, rows_a, n):
    """Per access: the earliest invalidation row j > row(i) of the same
    file with inv_key <= key (the hole stack's "kill every live
    k >= inv_key of this file" scan), or n when none comes.

    Only accesses with a same-file invalidation still ahead take part
    in the binary descent.
    """
    na = len(rows_a)
    ni = len(rows_i)
    first_inv_row = np.full(na, n, dtype=np.int32)
    if not (ni and na):
        return first_inv_row
    inv_keys = keys[rows_i]
    inv_fid = inv_keys >> KEY_SHIFT
    iorder = np.argsort(inv_fid, kind="stable")  # row order kept per fid
    s_fid = inv_fid[iorder]
    s_row = rows_i[iorder]
    s_key = inv_keys[iorder]
    del inv_keys, inv_fid, iorder
    # (fid, row) pairs encode as one int64: rows are below _ROW_LIMIT.
    acc_fid = keys_a >> KEY_SHIFT
    enc = s_fid * np.int64(_ROW_LIMIT) + s_row
    acc_enc = acc_fid * np.int64(_ROW_LIMIT) + rows_a
    t0 = np.searchsorted(enc, acc_enc, side="right")
    del enc, acc_enc
    seg_end = np.searchsorted(s_fid, acc_fid, side="right")
    del s_fid, acc_fid
    live = np.flatnonzero(t0 < seg_end)
    if len(live):
        lo = t0[live]
        hi = seg_end[live]
        del t0, seg_end
        pos = _first_leq(s_key, lo, hi, keys_a[live])
        found = pos < hi
        first_inv_row[live] = np.where(
            found, s_row[np.minimum(pos, ni - 1)], np.int32(n)
        )
    return first_inv_row


def drop_index_numpy(packed: PackedStream) -> tuple[array, array]:
    """:meth:`~repro.parallel.packed.PackedStream.drop_index` from one
    :func:`_first_kill_rows` pass: an access's key is a candidate of the
    first invalidation row that covers it, and nowhere else."""
    ops = np.frombuffer(packed.ops, dtype=np.uint8)
    keys = np.frombuffer(packed.keys, dtype=np.int64)
    n = len(ops)
    if n >= _ROW_LIMIT:
        raise ValueError(
            f"{n} rows do not fit the drop index's row encoding; "
            "use the item-stream path"
        )
    inv = ops == OP_INVALIDATE
    rows_i = np.flatnonzero(inv)
    rows_a = np.flatnonzero(~inv)
    keys_a = keys[rows_a]
    kill = _first_kill_rows(keys, rows_i, keys_a, rows_a, n)
    covered = kill < n
    kill = kill[covered]
    cand = keys_a[covered]
    order = np.lexsort((cand, kill))
    kill = kill[order]
    cand = cand[order]
    fresh = np.ones(len(kill), dtype=bool)
    fresh[1:] = (kill[1:] != kill[:-1]) | (cand[1:] != cand[:-1])
    kill = kill[fresh]
    bounds = np.append(np.searchsorted(kill, rows_i, side="left"), len(kill))
    return (
        array("q", cand[fresh].astype(np.int64).tobytes()),
        array("q", bounds.astype(np.int64).tobytes()),
    )


def _hole_levels(rows_a, miss, kill_rows, n):
    """Hole population before each access row, as a reflected walk:
    +kills at inval rows, -1 at miss pushes (a pushing hit swaps its
    old stamp in and one out, so it never changes the level)."""
    walk = np.zeros(n + 1, dtype=np.int32)
    walk[rows_a[miss] + 1] = -1
    if len(kill_rows):
        walk[1:] += np.bincount(kill_rows, minlength=n).astype(np.int32)
    np.cumsum(walk, out=walk)
    walk -= np.minimum.accumulate(walk)
    return walk[rows_a]


def _pushes_before(rows_a, p_after, rows):
    """Pushes made by the access rows strictly before each of *rows*."""
    k = np.searchsorted(rows_a, rows, side="left")
    if not len(p_after):
        return k.astype(np.int32)
    return np.where(k > 0, p_after[np.maximum(k - 1, 0)], np.int32(0))


#: Heap mini-loop events converted to lists per slice: whole columns
#: would hold two stream-long lists of ints.
_SLICE_EVENTS = 1 << 14


def _curve_rows(ops, keys, n, caps, m, write_back):
    """Per-row curve contributions (regions, eviction depths, kills).

    Returns arrays carrying, for every access row, its histogram class
    and region, and for every push/kill, its eviction or kill region.
    With *write_back* it also returns the write-back points of
    :func:`_dirty_points`.  Rows, positions, stamps and depths are
    int32 (``n < _ROW_LIMIT``), and arrays are dropped once their last
    use is behind, so the write-back pass runs in the memory the
    write-through curve frees.
    """
    inv_full = ops == OP_INVALIDATE
    rows_a = np.flatnonzero(~inv_full).astype(np.int32)
    na = len(rows_a)
    rows_i = np.flatnonzero(inv_full).astype(np.int32)
    del inv_full
    ni = len(rows_i)
    keys_a = keys[rows_a]
    ops_a = ops[rows_a]

    # Previous/next access of the same key, in access-index space, from
    # one stable sort by key (kept for the write-back pass).
    prev_ai = np.full(na, -1, dtype=np.int32)
    next_ai = np.full(na, na, dtype=np.int32)
    order = _stable_key_order(keys_a, na)
    key_start = np.ones(na, dtype=bool)  # first access of its key, key order
    if na > 1:
        same = keys_a[order[1:]] == keys_a[order[:-1]]
        prev_ai[order[1:][same]] = order[:-1][same]
        next_ai[order[:-1][same]] = order[1:][same]
        key_start[1:] = ~same
        del same
    first_inv_row = _first_kill_rows(keys, rows_i, keys_a, rows_a, n)
    del keys_a, rows_i

    # Hit/miss, head hits, pushes and stamps.  An access hits iff the
    # key was accessed before and no qualifying inval fell in between;
    # it is a head hit (no push, region 0) iff the immediately
    # preceding access row — invalidation rows don't move the head —
    # was the same key.  A slot's stamp is the push count right after
    # the key's previous access row (head-hit chains keep it stable).
    hit = prev_ai >= 0
    if ni and na:
        hit &= first_inv_row[np.maximum(prev_ai, 0)] > rows_a
    head_hit = hit & (prev_ai == np.arange(-1, na - 1, dtype=np.int32))
    push = ~head_hit
    # stamp minted by access i (when it pushes)
    p_after = np.cumsum(push, dtype=np.int32)
    n_push = int(p_after[-1]) if na else 0
    miss = ~hit

    # Kills: access i's block dies at first_inv_row[i] when that comes
    # before the key's next access; the hole keeps the slot's stamp.
    next_row = np.where(
        next_ai < na, rows_a[np.minimum(next_ai, na - 1)], np.int32(n)
    )
    del next_ai
    killed = first_inv_row < next_row
    kill_rows = first_inv_row[killed]
    kill_stamps = p_after[killed]

    # Write-back: each access's latest write of its key at or before it
    # (key-order position, -1 if none), and the blocks live at the end
    # of the trace that have one — their depth there joins the query
    # batch below.
    live = np.zeros(0, dtype=np.intp)
    if write_back:
        from ..analysis.vectorized import _group_heads, _last_where

        wkey = ops_a[order] != OP_READ
        last_w = _last_where(wkey, _group_heads(key_start))
        inv_order = np.empty(na, dtype=np.int32)
        inv_order[order] = np.arange(na, dtype=np.int32)
        live = np.flatnonzero(
            (next_row == n) & (first_inv_row == n) & (last_w[inv_order] >= 0)
        )
    del next_row, first_inv_row

    lvl_acc = _hole_levels(rows_a, miss, kill_rows, n)
    growth = miss & (lvl_acc == 0)
    del miss

    # Removal sequence r[1..P]: r_u is the stamp push u takes out of the
    # stack.  Outside hole episodes it's pure column math (hit: the old
    # stamp; miss: growth, nothing).  Inside an episode the max-stamp
    # hole wins, which is genuinely order-dependent: a bounded heap
    # mini-loop walks only the rows where a hole is in play, merged with
    # the kills in one row-ordered event list.
    r_arr = np.full(n_push + 1, -1, dtype=np.int32)
    plain = hit & push & (lvl_acc == 0)
    if bool(plain.any()):
        r_arr[p_after[plain]] = p_after[prev_ai[plain]]
    del plain
    ep = (lvl_acc > 0) & push
    del lvl_acc
    if bool(ep.any()):
        eorder = np.argsort(np.concatenate((kill_rows, rows_a[ep])))
        # One value per event: kills and pushing hits insert a (negated)
        # stamp, miss pushes insert nothing (positive sentinel).  Kill
        # rows never collide with access rows, so a plain quicksort is
        # a valid event order (ties only happen between kills, whose
        # mutual order is irrelevant — they just enter the hole set).
        enc_val = np.concatenate((
            -kill_stamps,
            np.where(hit[ep], -p_after[np.maximum(prev_ai[ep], 0)], np.int32(1)),
        ))[eorder]
        enc_u = np.concatenate(
            (np.zeros(len(kill_rows), dtype=np.int32), p_after[ep])
        )[eorder]
        del eorder
        heap: list[int] = []
        out = r_arr  # local alias; scatter via plain int indices
        hpush, hpop = heappush, heappop
        for lo in range(0, len(enc_u), _SLICE_EVENTS):
            hi = lo + _SLICE_EVENTS
            for v, u in zip(enc_val[lo:hi].tolist(), enc_u[lo:hi].tolist()):
                if u:
                    if v < 0:
                        hpush(heap, v)
                    out[u] = -hpop(heap)
                else:
                    hpush(heap, v)
        del enc_val, enc_u
    del ep

    # Depth queries, answered in one wavelet-matrix batch:
    #   hit region      d = (u - a) - T(u-1, a)
    #   eviction bound  D = (u - r_u) - T(u-1, r_u)   (r_u >= 0)
    #   kill region     d = 1 + (q - a) - T(q, a)
    #   end region      d = 1 + (P - a) - T(P, a)     (P: every push)
    # where T(q, a) = #{w <= q : r_w > a}.  Two filters keep the batch
    # small: T >= 0 bounds every depth by u - a (or u - r_u), so any
    # query bounded by caps[0] is region 0 / a bin-0 eviction without
    # being asked; and a pushing hit whose removal is its own old stamp
    # (r_u == a — every plain move-to-front) shares its push's query.
    # The selections are masks over their query's candidates.
    c0 = caps[0]
    pu = p_after[push]
    ru = r_arr[pu]
    sel_ev = (ru >= 0) & (pu - ru > c0)
    q_ev = pu[sel_ev] - np.int32(1)
    a_ev = ru[sel_ev]
    del pu, ru
    nh = hit & push
    u_nh = p_after[nh]
    a_nh = p_after[prev_ai[nh]]
    del prev_ai, hit
    shared = r_arr[u_nh] == a_nh
    sel_hit = ~shared & (u_nh - a_nh > c0)
    q_hit = u_nh[sel_hit] - np.int32(1)
    a_hit = a_nh[sel_hit]
    del a_nh
    q_kill_all = _pushes_before(rows_a, p_after, kill_rows)
    sel_kill = np.int32(1) + q_kill_all - kill_stamps > c0
    q_kill = q_kill_all[sel_kill]
    a_kill = kill_stamps[sel_kill]
    del q_kill_all
    a_live = p_after[live]
    del p_after
    sel_end = np.int32(1 + n_push) - a_live > c0
    a_end = a_live[sel_end]
    q_end = np.full(len(a_end), n_push, dtype=np.int32)

    t_ev, t_hit, t_kill, t_end = _dominance_batch(
        r_arr[1:],
        n_push,
        (q_ev, a_ev),
        (q_hit, a_hit),
        (q_kill, a_kill),
        (q_end, a_end),
    )

    # Eviction depth per push: consumed-hole depth (band-filtered pushes
    # keep a bin-0 sentinel), or stack size + 1 on growth (a growing
    # stack evicts at every boundary it covers).
    depth_push = np.ones(n_push, dtype=np.int32)
    depth_push[sel_ev] = (q_ev + np.int32(1) - a_ev) - t_ev
    del sel_ev, q_ev, a_ev, t_ev
    if bool(growth.any()):
        g_on_push = growth[push]
        depth_push[g_on_push] = np.cumsum(growth, dtype=np.int32)[push][
            g_on_push
        ]
    del growth
    idx_ev = np.searchsorted(caps, depth_push, side="left").astype(np.int32)

    # Regions: region = #{caps < depth}; band-filtered queries are 0 by
    # construction, r_u == a hits reuse their push's depth.
    reg_acc = np.full(na, m, dtype=np.int32)
    reg_acc[head_hit] = 0
    if len(u_nh):
        reg_hit = np.zeros(len(u_nh), dtype=np.int32)
        reg_hit[shared] = np.searchsorted(
            caps, depth_push[u_nh[shared] - np.int32(1)], side="left"
        )
        reg_hit[sel_hit] = np.searchsorted(
            caps, (q_hit + np.int32(1) - a_hit) - t_hit, side="left"
        )
        reg_acc[nh] = reg_hit
    del depth_push, nh, u_nh, shared, sel_hit, q_hit, a_hit, t_hit
    reg_kill = np.zeros(len(kill_rows), dtype=np.int32)
    reg_kill[sel_kill] = np.searchsorted(
        caps, np.int32(1) + (q_kill - a_kill) - t_kill, side="left"
    )
    state = {
        "ops_a": ops_a,
        "reg_acc": reg_acc,
        "idx_ev": idx_ev,
        "reg_kill": reg_kill,
    }
    if write_back:
        reg_end = np.zeros(len(live), dtype=np.int32)
        reg_end[sel_end] = np.searchsorted(
            caps, np.int32(1) + (q_end - a_end) - t_end, side="left"
        )
        end = (np.full(len(live), n - 1, dtype=np.int32), live, reg_end)
        kills = (kill_rows, np.flatnonzero(killed), reg_kill)
        state.update(
            _dirty_points(
                order, key_start, wkey, last_w, inv_order, rows_a, reg_acc, m,
                kills, end,
            )
        )
    return state


def _dirty_points(
    order, key_start, wkey, last_w, inv_order, rows_a, reg_acc, m, kills, end
):
    """The write-back pass: every point where a block may be dirty.

    A point is a row, the row of the block's latest write before it,
    and its *reach*: the largest region the block has had since that
    write, up to and including the point.  The block is dirty and
    resident at capacity index j there iff reach <= j and no flush
    fell between the two rows.  Points come in three kinds:

    * ``starts``: a write whose key was accessed before — it starts no
      dirty period where the block is still dirty;
    * ``discards``: a kill (*kills*), which discards a dirty resident
      block;
    * ``open``: the blocks still dirty at the end of the trace (*end*),
      at the last row.

    *kills* and *end* give rows, the access each point follows and the
    block's region at the point.  Points whose block has no write yet,
    or that are past every capacity (reach == m), can never count and
    are dropped here.
    """
    # Running region maximum since the latest write, in key order (the
    # write itself contributes 0): one accumulate over group-offset
    # codes, a group per write and per key start.
    base = np.cumsum(wkey | key_start) * (m + 1)
    reg_sorted = reg_acc[order]
    reach = np.maximum.accumulate(np.where(wkey, 0, reg_sorted) + base)
    reach -= base
    del base

    def point(rows, at, last_reg):
        """Points at key-order positions *at* (each with a write)."""
        r = np.maximum(reach[at], last_reg)
        keep = r < m
        return rows[keep], rows_a[order[last_w[at][keep]]], r[keep]

    def after(rows, accesses, reg):
        """Points that follow an access of the block."""
        at = inv_order[accesses]
        has_w = last_w[at] >= 0
        return point(rows[has_w], at[has_w], reg[has_w])

    # A write's predecessor in key order carries the previous write.
    st = np.flatnonzero(wkey & ~key_start)
    st = st[last_w[st - 1] >= 0]
    return {
        "starts": point(rows_a[order[st]], st - 1, reg_sorted[st]),
        "discards": after(*kills),
        "open": after(*end),
    }


def _dirty_at(points, m, flushes):
    """Per capacity index: the points whose block is dirty there."""
    rows, write_rows, reach = points
    if flushes is not None:
        reach = reach[flushes[rows] == flushes[write_rows]]
    return np.bincount(reach, minlength=m)[:m].cumsum()


def _assemble(state, m, policies, flushes):
    """Histogram + fold into CacheMetrics per policy."""
    ops_a = state["ops_a"]
    reg_acc = state["reg_acc"]
    idx_ev = state["idx_ev"]
    reg_kill = state["reg_kill"]
    is_read = ops_a == OP_READ
    is_cov = ops_a == OP_WRITE_COVERED
    is_unc = ~(is_read | is_cov)
    h_read = np.bincount(reg_acc[is_read], minlength=m + 1)
    h_cov = np.bincount(reg_acc[is_cov], minlength=m + 1)
    h_unc = np.bincount(reg_acc[is_unc], minlength=m + 1)
    h_inv = np.bincount(reg_kill, minlength=m + 1)
    ev_cnt = np.bincount(idx_ev, minlength=m + 1)
    reads = int(is_read.sum())
    writes = int(len(ops_a) - reads)
    # Suffix sums at j+1 (misses/evictions past boundary j) and the
    # inclusive invalidation prefix, for every size in one pass each.
    rm = h_read[::-1].cumsum()[::-1][1 : m + 1].tolist()
    cm = h_cov[::-1].cumsum()[::-1][1 : m + 1].tolist()
    um = h_unc[::-1].cumsum()[::-1][1 : m + 1].tolist()
    ev = ev_cnt[::-1].cumsum()[::-1][1 : m + 1].tolist()
    inv = h_inv.cumsum()[:m].tolist()
    out: dict[PolicySpec, list[CacheMetrics]] = {}
    for policy in policies:
        if policy.policy is WritePolicy.WRITE_THROUGH:
            disk_writes = [writes] * m  # one per write
            created = discarded = [0] * m
        else:
            # Periods: starts - discards - those still open at the end.
            flush = flushes.get(policy)
            created_a = writes - _dirty_at(state["starts"], m, flush)
            discarded_a = _dirty_at(state["discards"], m, flush)
            still_open = _dirty_at(state["open"], m, flush)
            disk_writes = (created_a - discarded_a - still_open).tolist()
            created = created_a.tolist()
            discarded = discarded_a.tolist()
        out[policy] = [
            CacheMetrics(
                read_accesses=reads,
                write_accesses=writes,
                disk_reads=rm[j] + um[j],
                disk_writes=disk_writes[j],
                evictions=ev[j],
                invalidated_blocks=inv[j],
                dirty_blocks_created=created[j],
                dirty_blocks_discarded=discarded[j],
                read_elisions=cm[j],
            )
            for j in range(m)
        ]
    return out


def _first_leq(values, lo, hi, bound):
    """Per query: first index t in [lo, hi) with values[t] <= bound.

    Returns hi when no such index exists.  A sparse table of window
    minima drives a binary descent; all queries advance in lockstep,
    so the whole batch costs O(log n) vectorized passes.  [lo, hi)
    ranges must not cross the callers' segment boundaries — they don't:
    both bounds come from searches within one file's invalidation run.
    """
    pos = lo.astype(np.int64).copy()
    nvals = len(values)
    if nvals == 0 or len(pos) == 0:
        return pos
    tables = [values]
    step = 1
    while step * 2 <= nvals:
        prev = tables[-1]
        tables.append(np.minimum(prev[: len(prev) - step], prev[step:]))
        step *= 2
    for ell in range(len(tables) - 1, -1, -1):
        width = 1 << ell
        table = tables[ell]
        can = pos + width <= hi
        if bool(can.any()):
            at = pos[can]
            ahead = table[at] > bound[can]
            pos[can] = at + np.where(ahead, width, 0)
    return pos


def _dominance_batch(removals, n_push, *queries):
    """T(q, a) = #{w <= q : r_w > a} for several (q, a) query arrays.

    One wavelet matrix over the removal sequence answers every batch in
    ``O(bits)`` vectorized passes: T = q' - #(values <= a in prefix q'),
    with growth sentinels (-1, never > a) dropped from the sequence and
    every prefix length q remapped to its consuming-only rank q'.  All
    ranks, and the answers, fit int32 (row counts are capped well below
    2**31), which halves the memory traffic of the descent.
    """
    sizes = [len(q) for q, _ in queries]
    total = sum(sizes)
    if n_push == 0 or total == 0:
        return tuple(np.zeros(s, dtype=np.int32) for s in sizes)
    consume = removals >= 0
    cons_pref = np.zeros(len(removals) + 1, dtype=np.int32)
    np.cumsum(consume, dtype=np.int32, out=cons_pref[1:])
    cur = removals[consume].astype(np.int32, copy=False)
    del consume
    q_all = cons_pref[np.concatenate([q for q, _ in queries])]
    del cons_pref
    x = np.concatenate([a for _, a in queries]).astype(np.int32)
    x += np.int32(1)
    nbits = max(1, int(n_push + 1).bit_length())
    # T counts down from q' as the values <= a are found.
    t = q_all.copy()
    lo = np.zeros(total, dtype=np.int32)
    hi = q_all
    ones = np.empty(len(cur) + 1, dtype=np.int32)
    ones[0] = 0
    nxt = np.empty_like(cur)
    for ell in range(nbits - 1, -1, -1):
        bitmask = np.int32(1 << ell)
        bitb = (cur & bitmask) != 0
        np.cumsum(bitb, dtype=np.int32, out=ones[1:])
        n_zero = np.int32(len(cur)) - ones[-1]
        xbb = (x & bitmask) != 0
        # Each bound moves to its rank among this level's zeros, or,
        # where the query's bit is set, among its ones (after the zeros).
        ones_lo = ones[lo]
        ones_hi = ones[hi]
        lo -= ones_lo
        hi -= ones_hi
        t -= np.where(xbb, hi - lo, np.int32(0))
        ones_lo += n_zero
        ones_hi += n_zero
        np.copyto(lo, ones_lo, where=xbb)
        np.copyto(hi, ones_hi, where=xbb)
        del ones_lo, ones_hi, xbb
        if ell:
            np.compress(~bitb, cur, out=nxt[:n_zero])
            np.compress(bitb, cur, out=nxt[n_zero:])
            cur, nxt = nxt, cur
    out = []
    start = 0
    for s in sizes:
        out.append(t[start : start + s])
        start += s
    return tuple(out)
