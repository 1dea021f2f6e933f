"""LRU miss-ratio curves: every cache size from one pass over a stream.

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
definition below no other hole, so crossing slots are always live).

**Which metrics a curve carries.**  Hits and misses, evictions,
invalidations and read elisions depend only on cache *content*, which
LRU keeps identical under every write policy — the policies differ only
in when dirty data reaches the disk.  Under **write-through** no block
is ever dirty and every write is a disk write, so the curve holds the
full :class:`~repro.cache.metrics.CacheMetrics` of
:class:`~repro.cache.simulator.BlockCacheSimulator` at every size.  For
the other policies disk writes need per-capacity dirty state, and the
sweeps run one :func:`~repro.parallel.packed.simulate_packed` replay
per configuration.

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
  (``caps[j] < depth``) and an invalidated block's region are all
  instances of that one formula.

The pipeline: previous/next occurrence per key via one stable argsort;
per-file "first invalidation at or past this block after row *i*"
via a sparse-table binary descent (all queries advance in lockstep);
hole-population levels as a reflected random walk (cumsum + running
minimum); the removal sequence inside hole episodes via a bounded
Python mini-loop over only the rows a hole is actually in play for
(the ``vectorized.py`` idiom — everywhere else ``r_u`` is a plain
column expression); and all ``T`` queries answered in one batch by a
wavelet matrix over the removal sequence (``O(log n)`` vectorized
passes for the whole batch).

**The specification.**  :func:`stack_curve_python` builds the same
curve from one write-through LRU :func:`simulate_packed` replay per
size.  Bit-identity is the contract (``tests/test_veccache.py`` and
fuzz pillar 5 compare them): :func:`stack_curve` runs the kernel and
reruns the specification only when the kernel raises
:class:`VectorFallback` on its input.  :func:`simulate_packed_numpy`
rides the same machinery for single write-through LRU configurations,
so a sweep's per-configuration replays collapse into curve evaluations
too.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..cache.metrics import CacheMetrics
from ..cache.policies import DELAYED_WRITE, WRITE_THROUGH, PolicySpec, WritePolicy
from ..cache.replacement import validate_replacement
from ..trace.npview import np
from .packed import (
    KEY_SHIFT,
    OP_INVALIDATE,
    OP_READ,
    OP_WRITE_COVERED,
    PackedRun,
    PackedStream,
    simulate_packed,
)

__all__ = [
    "StackCurve",
    "replay_packed",
    "simulate_packed_numpy",
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
    """Per-cache-size metrics of one write-through LRU curve."""

    __slots__ = ("block_size", "cache_sizes", "_index", "_final", "_checkpoint")

    def __init__(
        self,
        block_size: int,
        cache_sizes: tuple[int, ...],
        index: dict[int, int],
        final: list[CacheMetrics],
        checkpoint: list[CacheMetrics] | None,
    ):
        self.block_size = block_size
        self.cache_sizes = cache_sizes
        self._index = index
        self._final = final
        self._checkpoint = checkpoint

    def metrics(self, cache_bytes: int) -> CacheMetrics:
        return self._final[self._index[cache_bytes]]

    def checkpoint(self, cache_bytes: int) -> CacheMetrics | None:
        if self._checkpoint is None:
            return None
        return self._checkpoint[self._index[cache_bytes]]


def _curve_capacities(
    block_size: int, cache_sizes: tuple[int, ...], policy: PolicySpec
) -> tuple[list[int], dict[int, int]]:
    """Sorted distinct capacities (blocks) and each size's slot in them."""
    if policy.policy is not WritePolicy.WRITE_THROUGH:
        raise ValueError(
            "a one-pass curve is exact only under write-through; "
            f"got {policy.label!r} — use simulate_packed per configuration"
        )
    caps = sorted({size // block_size for size in cache_sizes})
    if not caps:
        raise ValueError("no cache sizes given")
    if caps[0] < 1:
        raise ValueError("cache smaller than one block")
    return caps, {size: caps.index(size // block_size) for size in cache_sizes}


def stack_curve(
    packed: PackedStream,
    cache_sizes: tuple[int, ...],
    policy: PolicySpec = WRITE_THROUGH,
    *,
    read_elision: bool = True,
    invalidate_on_delete: bool = True,
    checkpoint_time: float | None = None,
) -> StackCurve:
    """Write-through LRU metrics for every size in *cache_sizes*.

    The numpy kernel computes the curve; :func:`stack_curve_python`
    reruns it only when the kernel declines the input (the curves are
    bit-identical).
    """
    from ..analysis.vectorized import VectorFallback

    try:
        return stack_curve_numpy(
            packed,
            cache_sizes,
            policy,
            read_elision=read_elision,
            invalidate_on_delete=invalidate_on_delete,
            checkpoint_time=checkpoint_time,
        )
    except VectorFallback:
        return stack_curve_python(
            packed,
            cache_sizes,
            policy,
            read_elision=read_elision,
            invalidate_on_delete=invalidate_on_delete,
            checkpoint_time=checkpoint_time,
        )


def stack_curve_python(
    packed: PackedStream,
    cache_sizes: tuple[int, ...],
    policy: PolicySpec = WRITE_THROUGH,
    *,
    read_elision: bool = True,
    invalidate_on_delete: bool = True,
    checkpoint_time: float | None = None,
) -> StackCurve:
    """The pure-Python specification of :func:`stack_curve_numpy`: one
    write-through LRU :func:`simulate_packed` replay per capacity."""
    bs = packed.block_size
    sizes = tuple(cache_sizes)
    caps, index = _curve_capacities(bs, sizes, policy)
    runs = [
        simulate_packed(
            packed,
            cap * bs,
            WRITE_THROUGH,
            read_elision=read_elision,
            invalidate_on_delete=invalidate_on_delete,
            checkpoint_time=checkpoint_time,
        )
        for cap in caps
    ]
    checkpoint = [run.checkpoint for run in runs]
    return StackCurve(
        block_size=bs,
        cache_sizes=sizes,
        index=index,
        final=[run.metrics for run in runs],
        checkpoint=None if checkpoint[0] is None else checkpoint,
    )


def replay_packed(
    packed: PackedStream,
    cache_bytes: int,
    policy: PolicySpec = DELAYED_WRITE,
    *,
    replacement: str = "lru",
    read_elision: bool = True,
    invalidate_on_delete: bool = True,
    checkpoint_time: float | None = None,
    flush_epoch: float | None = None,
) -> PackedRun:
    """One configuration replay, vectorized when the policy allows.

    Write-through LRU configurations are curve evaluations (dirty state
    never exists), so the numpy kernel answers them from depth arrays;
    every other policy/replacement makes the kernel decline, and the
    exact Python replay runs.
    """
    from ..analysis.vectorized import VectorFallback

    try:
        return simulate_packed_numpy(
            packed,
            cache_bytes,
            policy,
            replacement=replacement,
            read_elision=read_elision,
            invalidate_on_delete=invalidate_on_delete,
            checkpoint_time=checkpoint_time,
            flush_epoch=flush_epoch,
        )
    except VectorFallback:
        pass
    return simulate_packed(
        packed,
        cache_bytes,
        policy,
        replacement=replacement,
        read_elision=read_elision,
        invalidate_on_delete=invalidate_on_delete,
        checkpoint_time=checkpoint_time,
        flush_epoch=flush_epoch,
    )


def simulate_packed_numpy(
    packed: PackedStream,
    cache_bytes: int,
    policy: PolicySpec = DELAYED_WRITE,
    *,
    replacement: str = "lru",
    read_elision: bool = True,
    invalidate_on_delete: bool = True,
    checkpoint_time: float | None = None,
    flush_epoch: float | None = None,
) -> PackedRun:
    """Vectorized :func:`~repro.parallel.packed.simulate_packed`.

    Exact for LRU write-through (timed or not): with no dirty blocks
    the replay's metrics equal the stack curve evaluated at this one
    capacity.  Anything stateful (delayed write, flush-back, or any
    non-LRU zoo policy) raises :class:`VectorFallback` — those replays
    genuinely depend on per-capacity state (dirty blocks, reference
    bits, ghost lists) that the LRU-shaped one-pass curve cannot carry;
    see DESIGN.md §16 for the curve-vs-replay split.
    """
    bs = packed.block_size
    if cache_bytes // bs < 1:
        raise ValueError("cache smaller than one block")
    validate_replacement(replacement)
    _require(
        policy.policy is WritePolicy.WRITE_THROUGH and replacement == "lru",
        f"stateful configuration ({policy.label!r}, {replacement!r}) "
        "needs the per-op replay",
    )
    del flush_epoch  # write-through never flushes; accepted for signature parity
    curve = stack_curve_numpy(
        packed,
        (cache_bytes,),
        WRITE_THROUGH,
        read_elision=read_elision,
        invalidate_on_delete=invalidate_on_delete,
        checkpoint_time=checkpoint_time,
    )
    return PackedRun(
        metrics=curve.metrics(cache_bytes),
        checkpoint=curve.checkpoint(cache_bytes),
    )


def stack_curve_numpy(
    packed: PackedStream,
    cache_sizes: tuple[int, ...],
    policy: PolicySpec = WRITE_THROUGH,
    *,
    read_elision: bool = True,
    invalidate_on_delete: bool = True,
    checkpoint_time: float | None = None,
) -> StackCurve:
    """The curve of :func:`stack_curve_python`, from whole-column passes
    over the hole stack described in the module docstring."""
    bs = packed.block_size
    sizes = tuple(cache_sizes)
    caps_list, index = _curve_capacities(bs, sizes, policy)
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

    # Checkpoint cut: a replay snapshots before the first row whose
    # timestamp reaches checkpoint_time (NaN never compares true there,
    # matching `t >= cp_at`).  Every counter below increments at a known
    # row, so the snapshot is the same histogram restricted to rows < cut.
    cut = None
    if checkpoint_time is not None:
        times = np.frombuffer(packed.times, dtype=np.float64)
        _require(len(times) == n, "ops/times row counts disagree")
        reached = times >= checkpoint_time
        if bool(reached.any()):
            cut = int(reached.argmax())

    state = _curve_rows(ops, keys, n, caps, m, invalidate_on_delete)
    final = _assemble(state, None, caps, m, read_elision)
    cp = _assemble(state, cut, caps, m, read_elision) if cut is not None else None
    return StackCurve(
        block_size=bs,
        cache_sizes=sizes,
        index=index,
        final=final,
        checkpoint=cp,
    )


def _stable_key_order(keys_a, na):
    """Stable sort order by key, via one quicksort when keys pack.

    A stable mergesort on int64 keys is ~2.5x slower than quicksort
    here; packing the access index into the low bits makes quicksort
    order identical to the stable order whenever the keys leave room.
    """
    shift = int(na - 1).bit_length()
    if shift and int(keys_a.max()) < (1 << (62 - shift)):
        return np.argsort(
            (keys_a << shift) + np.arange(na, dtype=np.int64)
        )
    return np.argsort(keys_a, kind="stable")


def _curve_rows(ops, keys, n, caps, m, invalidate_on_delete):
    """Per-row curve contributions (regions, eviction depths, kills).

    Returns dense arrays carrying, for every access row, its histogram
    class and region, and for every push/kill, the row it lands on —
    enough to histogram both the final state and any row-prefix
    (checkpoint) without a second pass.
    """
    inv_full = ops == OP_INVALIDATE
    acc_mask = ~inv_full
    rows_a = np.flatnonzero(acc_mask).astype(np.int64)
    na = len(rows_a)
    keys_a = keys[rows_a]
    ops_a = ops[rows_a]
    if invalidate_on_delete:
        rows_i = np.flatnonzero(inv_full).astype(np.int64)
    else:
        rows_i = np.zeros(0, dtype=np.int64)
    ni = len(rows_i)

    # Previous/next access of the same key, in access-index space.
    prev_ai = np.full(na, -1, dtype=np.int64)
    next_ai = np.full(na, na, dtype=np.int64)
    if na > 1:
        order = _stable_key_order(keys_a, na)
        ksort = keys_a[order]
        same = ksort[1:] == ksort[:-1]
        prev_ai[order[1:][same]] = order[:-1][same]
        next_ai[order[:-1][same]] = order[1:][same]

    # First qualifying invalidation row after each access: the earliest
    # inval row j > row(i) with inv_fid == fid(key) and inv_key <= key
    # (the hole stack's "kill every live k >= inv_key of this file" scan).
    # Only accesses with a same-file invalidation still ahead take part
    # in the binary descent.
    first_inv_row = np.full(na, n, dtype=np.int64)  # n == "never"
    if ni and na:
        inv_keys = keys[rows_i]
        inv_fid = inv_keys >> KEY_SHIFT
        iorder = np.argsort(inv_fid, kind="stable")  # row order kept per fid
        s_fid = inv_fid[iorder]
        s_row = rows_i[iorder]
        s_key = inv_keys[iorder]
        acc_fid = keys_a >> KEY_SHIFT
        enc = s_fid * _ROW_LIMIT + s_row
        t0 = np.searchsorted(enc, acc_fid * _ROW_LIMIT + rows_a, side="right")
        seg_end = np.searchsorted(s_fid, acc_fid, side="right")
        live = np.flatnonzero(t0 < seg_end)
        if len(live):
            pos = _first_leq(s_key, t0[live], seg_end[live], keys_a[live])
            found = pos < seg_end[live]
            first_inv_row[live] = np.where(
                found, s_row[np.minimum(pos, ni - 1)], np.int64(n)
            )

    # Hit/miss, head hits, pushes and stamps.  An access hits iff the
    # key was accessed before and no qualifying inval fell in between;
    # it is a head hit (no push, region 0) iff the immediately
    # preceding access row — invalidation rows don't move the head —
    # was the same key.  A slot's stamp is the push count right after
    # the key's previous access row (head-hit chains keep it stable).
    hit = prev_ai >= 0
    if ni and na:
        hit &= first_inv_row[np.maximum(prev_ai, 0)] > rows_a
    head_hit = hit & (prev_ai == np.arange(na, dtype=np.int64) - 1)
    push = ~head_hit
    p_after = np.cumsum(push)  # stamp minted by access i (when it pushes)
    n_push = int(p_after[-1]) if na else 0
    miss = ~hit

    # Kills: access i's block dies at first_inv_row[i] when that comes
    # before the key's next access; the hole keeps the slot's stamp.
    if ni and na:
        next_row = np.where(
            next_ai < na, rows_a[np.minimum(next_ai, na - 1)], np.int64(n)
        )
        killed = first_inv_row < next_row
    else:
        killed = np.zeros(na, dtype=bool)
    kill_rows = first_inv_row[killed]
    kill_stamps = p_after[killed]

    # Hole population as a reflected walk: +kills at inval rows, -1 at
    # miss pushes (a pushing hit swaps its old stamp in and one out, so
    # it never changes the level).  Misses at level 0 grow the stack.
    delta = np.zeros(n, dtype=np.int64)
    delta[rows_a[miss]] = -1
    if len(kill_rows):
        delta += np.bincount(kill_rows, minlength=n)
    prefix = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(delta)))
    level_before = (prefix - np.minimum.accumulate(prefix))[:-1]
    lvl_acc = level_before[rows_a] if na else np.zeros(0, dtype=np.int64)
    growth = miss & (lvl_acc == 0)

    # Removal sequence r[1..P]: r_u is the stamp push u takes out of the
    # stack.  Outside hole episodes it's pure column math (hit: the old
    # stamp; miss: growth, nothing).  Inside an episode the max-stamp
    # hole wins, which is genuinely order-dependent: a bounded heap
    # mini-loop walks only the rows where a hole is in play, merged with
    # the kills in one row-ordered event list.
    r_arr = np.full(n_push + 1, -1, dtype=np.int64)
    plain = hit & push & (lvl_acc == 0)
    if bool(plain.any()):
        pl = np.flatnonzero(plain)
        r_arr[p_after[pl]] = p_after[prev_ai[pl]]
    ep = np.flatnonzero((lvl_acc > 0) & push)
    if len(ep):
        nk = len(kill_rows)
        eorder = np.argsort(np.concatenate((kill_rows, rows_a[ep])))
        # One value per event: kills and pushing hits insert a (negated)
        # stamp, miss pushes insert nothing (positive sentinel).  Kill
        # rows never collide with access rows, so a plain quicksort is
        # a valid event order (ties only happen between kills, whose
        # mutual order is irrelevant — they just enter the hole set).
        enc_val = np.concatenate(
            (-kill_stamps, np.where(hit[ep], -p_after[np.maximum(prev_ai[ep], 0)], 1))
        )[eorder].tolist()
        enc_u = np.concatenate(
            (np.zeros(nk, dtype=np.int64), p_after[ep])
        )[eorder].tolist()
        heap: list[int] = []
        out = r_arr  # local alias; scatter via plain int indices
        hpush, hpop = heappush, heappop
        for v, u in zip(enc_val, enc_u):
            if u:
                if v < 0:
                    hpush(heap, v)
                out[u] = -hpop(heap)
            else:
                hpush(heap, v)

    # Depth queries, answered in one wavelet-matrix batch:
    #   hit region      d = (u - a) - T(u-1, a)
    #   eviction bound  D = (u - r_u) - T(u-1, r_u)   (r_u >= 0)
    #   kill region     d = 1 + (q - a) - T(q, a)
    # where T(q, a) = #{w <= q : r_w > a}.  Two filters keep the batch
    # small: T >= 0 bounds every depth by u - a (or u - r_u), so any
    # query bounded by caps[0] is region 0 / a bin-0 eviction without
    # being asked; and a pushing hit whose removal is its own old stamp
    # (r_u == a — every plain move-to-front) shares its push's query.
    c0 = int(caps[0])
    pu = p_after[push] if na else np.zeros(0, dtype=np.int64)
    ru = r_arr[pu]
    consume = ru >= 0
    sel_ev = np.flatnonzero(consume & (pu - ru > c0))
    q_ev = pu[sel_ev] - 1
    a_ev = ru[sel_ev]
    nh = np.flatnonzero(hit & push)
    u_nh = p_after[nh]
    a_nh = p_after[prev_ai[nh]] if len(nh) else np.zeros(0, dtype=np.int64)
    sel_hit = np.flatnonzero((r_arr[u_nh] != a_nh) & (u_nh - a_nh > c0))
    q_hit = u_nh[sel_hit] - 1
    a_hit = a_nh[sel_hit]
    push_counts = np.bincount(rows_a[push], minlength=n) if na else np.zeros(n)
    p_pref = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(push_counts).astype(np.int64))
    )
    q_kill_all = p_pref[kill_rows]
    sel_kill = np.flatnonzero(1 + q_kill_all - kill_stamps > c0)
    q_kill = q_kill_all[sel_kill]
    a_kill = kill_stamps[sel_kill]

    t_ev, t_hit, t_kill = _dominance_batch(
        r_arr[1:], n_push, (q_ev, a_ev), (q_hit, a_hit), (q_kill, a_kill)
    )

    # Eviction depth per push: consumed-hole depth (band-filtered pushes
    # keep a bin-0 sentinel), or stack size + 1 on growth (a growing
    # stack evicts at every boundary it covers).
    depth_push = np.ones(len(pu), dtype=np.int64)
    depth_push[sel_ev] = (q_ev + 1 - a_ev) - t_ev
    if bool(growth.any()):
        g_running = np.cumsum(growth)
        push_idx = np.flatnonzero(push)
        g_on_push = growth[push_idx]
        depth_push[g_on_push] = g_running[push_idx][g_on_push]
    idx_ev = np.searchsorted(caps, depth_push, side="left")

    # Regions: region = #{caps < depth}; band-filtered queries are 0 by
    # construction, r_u == a hits reuse their push's depth.
    reg_acc = np.full(na, m, dtype=np.int64)
    reg_acc[head_hit] = 0
    if len(nh):
        reg_hit = np.zeros(len(nh), dtype=np.int64)
        shared = np.flatnonzero(r_arr[u_nh] == a_nh)
        reg_hit[shared] = np.searchsorted(
            caps, depth_push[u_nh[shared] - 1], side="left"
        )
        reg_hit[sel_hit] = np.searchsorted(
            caps, (q_hit + 1 - a_hit) - t_hit, side="left"
        )
        reg_acc[nh] = reg_hit
    reg_kill = np.zeros(len(kill_rows), dtype=np.int64)
    reg_kill[sel_kill] = np.searchsorted(
        caps, 1 + (q_kill - a_kill) - t_kill, side="left"
    )

    return {
        "rows_a": rows_a,
        "ops_a": ops_a,
        "reg_acc": reg_acc,
        "push_rows": rows_a[push] if na else rows_a,
        "idx_ev": idx_ev,
        "kill_rows": kill_rows,
        "reg_kill": reg_kill,
    }


def _assemble(state, cut, caps, m, read_elision):
    """Histogram + fold into CacheMetrics, optionally row-limited."""
    np_ = np
    rows_a = state["rows_a"]
    ops_a = state["ops_a"]
    reg_acc = state["reg_acc"]
    push_rows = state["push_rows"]
    idx_ev = state["idx_ev"]
    kill_rows = state["kill_rows"]
    reg_kill = state["reg_kill"]
    if cut is not None:
        keep = rows_a < cut
        ops_a = ops_a[keep]
        reg_acc = reg_acc[keep]
        ev_keep = push_rows < cut
        idx_ev = idx_ev[ev_keep]
        k_keep = kill_rows < cut
        reg_kill = reg_kill[k_keep]
    is_read = ops_a == OP_READ
    is_cov = ops_a == OP_WRITE_COVERED
    is_unc = ~(is_read | is_cov)
    h_read = np_.bincount(reg_acc[is_read], minlength=m + 1)
    h_cov = np_.bincount(reg_acc[is_cov], minlength=m + 1)
    h_unc = np_.bincount(reg_acc[is_unc], minlength=m + 1)
    h_inv = np_.bincount(reg_kill, minlength=m + 1)
    ev_cnt = np_.bincount(idx_ev, minlength=m + 1)
    reads = int(is_read.sum())
    writes = int(len(ops_a) - reads)
    # Suffix sums at j+1 (misses/evictions past boundary j) and the
    # inclusive invalidation prefix, for every size in one pass each.
    rm = h_read[::-1].cumsum()[::-1][1 : m + 1].tolist()
    cm = h_cov[::-1].cumsum()[::-1][1 : m + 1].tolist()
    um = h_unc[::-1].cumsum()[::-1][1 : m + 1].tolist()
    ev = ev_cnt[::-1].cumsum()[::-1][1 : m + 1].tolist()
    inv = h_inv.cumsum()[:m].tolist()
    extra = 0 if read_elision else 1
    return [
        CacheMetrics(
            read_accesses=reads,
            write_accesses=writes,
            disk_reads=rm[j] + um[j] + extra * cm[j],
            disk_writes=writes,  # write-through: one per write
            evictions=ev[j],
            invalidated_blocks=inv[j],
            dirty_blocks_created=0,
            dirty_blocks_discarded=0,
            read_elisions=cm[j] if read_elision else 0,
        )
        for j in range(m)
    ]


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
    ranks fit int32 (row counts are capped well below 2**31), which
    halves the memory traffic of the descent.
    """
    sizes = [len(q) for q, _ in queries]
    total = sum(sizes)
    if n_push == 0 or total == 0:
        return tuple(np.zeros(s, dtype=np.int64) for s in sizes)
    consume = removals >= 0
    cons_pref = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(consume))
    )
    cur = removals[consume].astype(np.int32)
    q_all = cons_pref[np.concatenate([q for q, _ in queries])].astype(np.int32)
    x = (np.concatenate([a for _, a in queries]) + 1).astype(np.int32)
    nbits = max(1, int(n_push + 1).bit_length())
    lo = np.zeros(total, dtype=np.int32)
    hi = q_all.copy()
    ans = np.zeros(total, dtype=np.int32)
    ones = np.empty(len(cur) + 1, dtype=np.int32)
    ones[0] = 0
    for ell in range(nbits - 1, -1, -1):
        bitmask = np.int32(1 << ell)
        bitb = (cur & bitmask).astype(bool)
        np.cumsum(bitb, dtype=np.int32, out=ones[1:])
        n_zero = np.int32(len(cur)) - ones[-1]
        xbb = (x & bitmask).astype(bool)
        ones_lo = ones[lo]
        ones_hi = ones[hi]
        zeros_lo = lo - ones_lo
        zeros_hi = hi - ones_hi
        ans += np.where(xbb, zeros_hi - zeros_lo, 0)
        lo = np.where(xbb, n_zero + ones_lo, zeros_lo)
        hi = np.where(xbb, n_zero + ones_hi, zeros_hi)
        if ell:
            cur = np.concatenate((cur[~bitb], cur[bitb]))
    t = (q_all - ans).astype(np.int64)
    out = []
    start = 0
    for s in sizes:
        out.append(t[start : start + s])
        start += s
    return tuple(out)
