"""Pillar 3: fault injection on a lossy network.

:class:`NetfsFaults`, installed into a
:func:`~repro.netfs.simulator.simulate_netfs` run, drops the first
deliveries of selected RPCs (the retransmit timer recovers them),
re-delivers others (the server's duplicate-request cache absorbs them),
and stretches disk service times, all on deterministic seeded schedules.
Because clients submit open-loop at trace time, every *count* the
clients produce is timing-independent — :func:`check_netfs_convergence`
asserts the faulty run converges to the clean run's counters with zero
RPC failures.

Corrupted trace files are pillar 4's job: :mod:`repro.fuzz.corpus`
damages serialized corpora with a :class:`~repro.fuzz.corpus.CorpusFaultPlan`.
"""

from __future__ import annotations

import random

from ..trace.log import TraceLog

__all__ = ["NetfsFaults", "check_netfs_convergence"]


class _StallingDisk:
    """Wraps a :class:`~repro.disk.model.DiskModel`, stretching selected
    service times by a deterministic per-visit schedule."""

    def __init__(self, disk, rng: random.Random, stall_rate: float, stall_s: float):
        self._disk = disk
        self._rng = rng
        self._stall_rate = stall_rate
        self._stall_s = stall_s
        self.stalls_injected = 0

    def service_time(self, nbytes: int) -> float:
        base = self._disk.service_time(nbytes)
        if self._rng.random() < self._stall_rate:
            self.stalls_injected += 1
            return base + self._stall_s
        return base

    def __getattr__(self, name):
        return getattr(self._disk, name)


class NetfsFaults:
    """Deterministic RPC drops, duplicate deliveries and disk stalls.

    Passed to ``simulate_netfs(..., faults=...)``; :meth:`install` wraps
    the server's ``receive`` and disk model.  Drop decisions hash the
    ``rpc_id`` with the seed, so they are independent of delivery order;
    at most ``max_drops`` deliveries of one RPC are ever dropped, which
    stays below the RPC layer's retry limit — recovery is guaranteed.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.15,
        dup_rate: float = 0.10,
        max_drops: int = 2,
        stall_rate: float = 0.10,
        stall_s: float = 0.02,
    ):
        self.seed = seed
        self.drop_rate = drop_rate
        self.dup_rate = dup_rate
        self.max_drops = max_drops
        self.stall_rate = stall_rate
        self.stall_s = stall_s
        self.drops_injected = 0
        self.dups_injected = 0
        self._deliveries: dict[int, int] = {}
        self._disk: _StallingDisk | None = None

    def _die(self, rpc_id: int, purpose: str) -> float:
        return random.Random(f"netfs:{self.seed}:{purpose}:{rpc_id}").random()

    @property
    def stalls_injected(self) -> int:
        return self._disk.stalls_injected if self._disk is not None else 0

    def install(self, server) -> None:
        """Interpose on *server*'s request intake and disk."""
        self._disk = _StallingDisk(
            server.disk,
            random.Random(f"netfs:{self.seed}:stall"),
            self.stall_rate,
            self.stall_s,
        )
        server.disk = self._disk
        real_receive = server.receive

        def receive(rpc) -> bool:
            seen = self._deliveries.get(rpc.rpc_id, 0)
            self._deliveries[rpc.rpc_id] = seen + 1
            if (
                seen < self.max_drops
                and self._die(rpc.rpc_id, "drop") < self.drop_rate
            ):
                # Lost on the wire: the sender's timer discovers it.
                self.drops_injected += 1
                return False
            if self._die(rpc.rpc_id, "dup") < self.dup_rate:
                # The frame arrives twice; the duplicate-request cache
                # must absorb the echo.
                self.dups_injected += 1
                real_receive(rpc)
            return real_receive(rpc)

        server.receive = receive


#: NetfsResult fields that cannot depend on timing: clients submit
#: open-loop at trace time, so everything they *count* (as opposed to
#: how long it took) is fixed by the trace alone.
_CONVERGENT_FIELDS = (
    "clients",
    "protocol",
    "requests",
    "local_hits",
    "rpcs",
)


def check_netfs_convergence(log: TraceLog, seed: int = 0, **fault_kwargs) -> str | None:
    """Clean run vs faulty run: same converged counters, zero failures."""
    from ..netfs.simulator import simulate_netfs

    clean = simulate_netfs(log, seed=seed)
    faults = NetfsFaults(seed=seed, **fault_kwargs)
    faulty = simulate_netfs(log, seed=seed, faults=faults)

    if faulty.failures:
        return (
            f"netfs faults caused {faulty.failures} RPC failure(s); bounded "
            "drops must always be recovered by retry/backoff"
        )
    for name in _CONVERGENT_FIELDS:
        a, b = getattr(clean, name), getattr(faulty, name)
        if a != b:
            return (
                f"netfs did not converge under faults: {name} is {a} clean "
                f"but {b} faulty"
            )
    if clean.client_metrics != faulty.client_metrics:
        return (
            "netfs did not converge under faults: client cache metrics "
            "differ between the clean and faulty runs"
        )
    if clean.consistency != faulty.consistency:
        return (
            "netfs did not converge under faults: consistency message "
            "counts differ between the clean and faulty runs"
        )
    if faults.drops_injected and faulty.retries < faults.drops_injected:
        return (
            f"{faults.drops_injected} deliveries dropped but only "
            f"{faulty.retries} retransmissions observed"
        )
    return None
