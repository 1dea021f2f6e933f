"""Drive a trace through the full network file service.

``simulate_netfs`` is to :func:`repro.cache.twolevel.simulate_two_level`
what a queueing simulation is to a spreadsheet: the same transfers cross
the same two cache levels, but every hop now takes time on a contended
resource, and the answer comes back as latency percentiles and
utilizations instead of counts.

Workstation mapping: by default every trace user is one diskless
workstation (the paper's one-user-one-machine reading); ``clients=N``
folds users onto N workstations round-robin.  ``load_scale=K`` replays K
shifted copies of the trace side by side — K independent communities with
disjoint users and files sharing one Ethernet and one server — which is
how the design examples push the network past its knee.
"""

from __future__ import annotations

import random
from typing import Iterable

from ..analysis.accesses import Transfer
from ..cache.metrics import CacheMetrics
from ..cache.stream import Invalidation, StreamItem, cached_stream
from ..disk.model import FUJITSU_EAGLE, DiskModel
from ..trace.log import TraceLog
from .client import Workstation
from .consistency import PROTOCOLS
from .events import EventLoop
from .metrics import LatencySampler, NetfsResult
from .network import TEN_MBIT, Ethernet, EthernetModel
from .rpc import RpcConfig, RpcLayer
from .server import FileServer

__all__ = ["simulate_netfs"]


#: Per-copy phase offsets cycle within this window so replicated
#: communities are not burst-synchronized (real workstations are not
#: phase-locked; without the stagger every copy's daemon spike lands on
#: the server in the same microsecond and retry storms start long before
#: genuine saturation).
_STAGGER_STEP_S = 7.3
_STAGGER_WINDOW_S = 60.0


def _replicate(stream: Iterable[StreamItem], copies: int) -> Iterable[StreamItem]:
    """*copies* disjoint communities replaying the same trace in parallel."""
    if copies <= 1:
        return stream
    file_stride = 1 + max(
        (i.file_id for i in stream), default=0
    )
    user_stride = 1 + max(
        (i.user_id for i in stream if isinstance(i, Transfer)), default=0
    )
    out: list[StreamItem] = []
    for copy in range(copies):
        offset = (copy * _STAGGER_STEP_S) % _STAGGER_WINDOW_S
        for item in stream:
            if isinstance(item, Invalidation):
                out.append(
                    Invalidation(
                        time=item.time + offset,
                        file_id=item.file_id + copy * file_stride,
                        from_byte=item.from_byte,
                    )
                )
            else:
                out.append(
                    Transfer(
                        time=item.time + offset,
                        file_id=item.file_id + copy * file_stride,
                        user_id=item.user_id + copy * user_stride,
                        start=item.start,
                        end=item.end,
                        is_write=item.is_write,
                    )
                )
    out.sort(key=lambda i: i.time)
    return out


def simulate_netfs(
    log: TraceLog,
    clients: int | None = None,
    client_cache_bytes: int = 512 * 1024,
    server_cache_bytes: int = 16 * 1024 * 1024,
    block_size: int = 4096,
    protocol: str = "callbacks",
    ethernet: EthernetModel = TEN_MBIT,
    rpc: RpcConfig | None = None,
    disk: DiskModel = FUJITSU_EAGLE,
    server_queue_limit: int = 64,
    server_cpu_s: float = 0.001,
    client_overhead_s: float = 0.0002,
    load_scale: int = 1,
    seed: int = 0,
    faults=None,
) -> NetfsResult:
    """Simulate *log*'s transfers through clients, Ethernet, RPC, server.

    ``protocol`` is ``"callbacks"`` (write-through with server
    callbacks) or ``"ownership"`` (Sprite-style invalidate leases); see
    :mod:`repro.netfs.consistency`.

    ``faults`` optionally injects failures: any object with an
    ``install(server)`` method (see
    :class:`repro.fuzz.faults.NetfsFaults`) gets to interpose on the
    server's request intake and disk model before the run starts —
    dropped or duplicated request frames and stretched disk service
    times, which the RPC retry/backoff and duplicate-request cache must
    absorb.
    """
    try:
        protocol_cls = PROTOCOLS[protocol]
    except KeyError:
        known = ", ".join(sorted(PROTOCOLS))
        raise ValueError(f"unknown protocol {protocol!r}; known: {known}") from None
    if load_scale < 1:
        raise ValueError(f"load_scale must be >= 1, got {load_scale}")
    if clients is not None and clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")

    stream = _replicate(cached_stream(log), load_scale)

    loop = EventLoop()
    ether = Ethernet(model=ethernet)
    server = FileServer(
        loop,
        cache_bytes=server_cache_bytes,
        block_size=block_size,
        disk=disk,
        queue_limit=server_queue_limit,
        cpu_overhead_s=server_cpu_s,
    )
    if faults is not None:
        faults.install(server)
    rpc_layer = RpcLayer(loop, ether, server, config=rpc, rng=random.Random(seed))
    proto = protocol_cls(loop, ether)

    def issue_writeback(client_id: int, file_id: int, blocks: int) -> None:
        # A lease recall's flush: the old owner's dirty blocks cross the
        # wire as an ordinary write RPC (fire-and-forget: nobody's
        # request latency is charged for it, but the wire and server are).
        rpc_layer.call(
            client_id=client_id,
            file_id=file_id,
            start=0,
            end=blocks * block_size,
            is_write=True,
            on_done=lambda _rpc, _ok: None,
        )

    proto.issue_writeback = issue_writeback

    # Map users to workstations (stable order: first appearance in time).
    users: dict[int, None] = {}
    for item in stream:
        if isinstance(item, Transfer):
            users.setdefault(item.user_id, None)
    station_of: dict[int, int] = {}
    n_stations = len(users) if clients is None else min(clients, max(1, len(users)))
    for index, user_id in enumerate(users):
        station_of[user_id] = index % n_stations

    stations: dict[int, Workstation] = {}
    for sid in range(n_stations):
        ws = Workstation(
            client_id=sid,
            loop=loop,
            rpc_layer=rpc_layer,
            protocol=proto,
            cache_bytes=client_cache_bytes,
            block_size=block_size,
            local_overhead_s=client_overhead_s,
        )
        stations[sid] = ws
        proto.clients[sid] = ws

    def dispatch(item: StreamItem) -> None:
        if isinstance(item, Invalidation):
            proto.note_invalidation(item.file_id, item.from_byte)
            server.invalidate(item.file_id, item.from_byte)
        else:
            stations[station_of[item.user_id]].submit(item)

    for item in stream:
        loop.schedule(item.time, dispatch, item)
    end_time = loop.run()

    duration = max(log.duration, end_time)

    # Aggregate client cache metrics, twolevel-style.
    client_total = CacheMetrics()
    for ws in stations.values():
        snap = ws.cache.metrics
        for name in (
            "read_accesses", "write_accesses", "disk_reads", "disk_writes",
            "evictions", "invalidated_blocks", "dirty_blocks_created",
            "dirty_blocks_discarded", "read_elisions",
        ):
            setattr(client_total, name, getattr(client_total, name) + getattr(snap, name))

    request_latencies = [
        sample for ws in stations.values() for sample in ws.latencies.samples
    ]
    merged = LatencySampler()
    merged.samples = request_latencies

    return NetfsResult(
        clients=n_stations,
        client_cache_bytes=client_cache_bytes,
        server_cache_bytes=server_cache_bytes,
        block_size=block_size,
        protocol=proto.name,
        duration=duration,
        requests=sum(ws.requests for ws in stations.values()),
        local_hits=sum(ws.local_hits for ws in stations.values()),
        rpcs=rpc_layer.rpcs,
        retries=rpc_layer.retries,
        timeouts=rpc_layer.timeouts,
        queue_drops=server.queue_drops,
        failures=rpc_layer.failures,
        frames=ether.frames_sent,
        network_payload_bytes=ether.payload_bytes_sent,
        request_latency=merged.summarize(),
        network_wait=rpc_layer.network_waits.summarize(),
        server_queue_wait=server.queue_waits.summarize(),
        service_time=server.service_times.summarize(),
        ethernet_utilization=ether.utilization(duration),
        disk_utilization=server.disk_utilization(duration),
        server_queue_max=server.queue_tracker.max_depth,
        server_queue_mean=server.queue_tracker.mean_depth(duration),
        consistency=dict(sorted(proto.counts.items())),
        client_metrics=client_total,
        server_metrics=server.cache.metrics,
    )
