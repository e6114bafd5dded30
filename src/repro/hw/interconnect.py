"""NVLink / PCIe link occupancy.

Latency of a remote access is dominated by the NVLink round trip, which is
already folded into :class:`repro.config.TimingSpec`'s remote base
latencies.  This model adds (a) per-extra-hop latency when a route crosses
more than one link, and (b) *serialization queueing*: each cache-line
transfer occupies every link on its route for a few cycles, so concurrent
remote traffic jitters each other's timing -- measurable noise during
multi-set covert transmission, and the whole signal of the
:mod:`repro.core.linkchannel` fabric channel.

Each transfer carries an optional ``owner`` (the issuing process id).
The base model ignores it; :class:`repro.defense.partitioning`'s
lane-partitioned interconnect overrides :meth:`Interconnect._lane_state`
to give each tenant its own lane slice, which is what kills the channel.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from ..config import DGXSpec
from ..errors import FaultInjectionError
from .occupancy import multi_server_waits, multi_server_waits_scalar
from .topology import Topology

__all__ = ["Interconnect", "FabricFlow", "least_busy_lane", "SMALL_BATCH"]

Edge = FrozenSet[int]

#: Batches below this size take the pure-Python fabric walk.  Two reasons
#: the threshold is exactly 8: numpy's fixed per-call overhead only pays
#: for itself beyond a handful of elements, and numpy's pairwise ``sum``
#: reduces strictly left-to-right for fewer than 8 elements -- which is
#: what keeps the Python path's in-order ``hop_wait`` stall sums
#: bit-identical to ``float(waits.sum())`` on the vectorized path.
SMALL_BATCH = 8


def _edge_key(edge: Edge) -> str:
    a, b = sorted(edge)
    return f"link{a}-{b}"


def book_waits(total: float, waits) -> float:
    """``total`` plus each of one hop's ``waits``, added in transfer order.

    The queued-cycles counters are booked this way on every fabric walk,
    because :meth:`Interconnect.transfer` and
    :meth:`FabricFlow.flush_counters` add one wait at a time: booking a
    per-hop sum instead rounds differently, so the same traffic would
    leave different counters depending on the walk that carried it.
    ``waits`` is a numpy array (one sequential accumulate) or a list.
    """
    if isinstance(waits, np.ndarray):
        return float(np.add.accumulate(np.concatenate(([total], waits)))[-1])
    for wait in waits:
        total += wait
    return total


def least_busy_lane(lanes) -> int:
    """Index of the first least-busy lane (ties resolve to lane 0).

    The one shared definition of the lane-selection tie-break: the scalar
    :meth:`Interconnect.transfer` oracle and the fused small-burst core in
    :mod:`repro.hw.system` must pick the *same* lane or their busy-until
    states drift.  Two lanes is the stock :class:`~repro.config.LinkSpec`
    shape, so it short-circuits the generic first-minimum scan.
    """
    if len(lanes) == 2:
        return 0 if lanes[0] <= lanes[1] else 1
    return min(range(len(lanes)), key=lanes.__getitem__)


class FabricFlow:
    """Cached columnar route state for one ``(src, dst, owner)`` flow.

    Built once per flow by :meth:`Interconnect.route_state` and reused
    across every transfer batch of that flow: the route's edges, cached
    metric-key strings, *live* lane busy-until lists (mutated in place,
    so interleaved scalar transfers always see the same state), and the
    per-hop serialization delays gathered from the interconnect's
    degradation-folded serialization array via the topology's numpy route
    table.  A ``token`` snapshot of (routes version, degradation version,
    lane-state version) invalidates the flow when a link flap reroutes
    the fabric, a chaos fault changes a degradation factor, or the lane
    state is rebuilt.

    :meth:`advance_batch` replays :meth:`Interconnect.transfer_batch`'s
    arithmetic expression-for-expression (bit-identical results by
    construction); :meth:`advance_one` replays :meth:`Interconnect.transfer`
    with counter updates accumulated locally and flushed per burst via
    :meth:`flush_counters` (the fused small-burst contract).
    """

    __slots__ = (
        "inter", "src", "dst", "owner", "edges", "keys", "lanes",
        "serialization", "hop_pad", "hops", "stalls", "count_acc",
        "token",
    )

    def __init__(
        self,
        inter: "Interconnect",
        src_gpu: int,
        dst_gpu: int,
        owner: Optional[int],
    ) -> None:
        self.inter = inter
        self.src = src_gpu
        self.dst = dst_gpu
        self.owner = owner
        topology = inter.topology
        route = topology.path(src_gpu, dst_gpu)
        hops = len(route)
        _, hop_edges = topology.route_table()
        serialization = inter._serialization[hop_edges[src_gpu, dst_gpu, :hops]]
        self.edges = route
        self.keys = tuple(inter._edge_keys[edge] for edge in route)
        self.lanes = tuple(inter._lane_state(edge, owner) for edge in route)
        self.serialization = tuple(float(s) for s in serialization)
        self.hops = hops
        self.hop_pad = (hops - 1) * inter.spec.timing.per_extra_hop
        self.stalls = [[] for _ in range(hops)]
        self.count_acc = 0
        self.token = inter._state_token()

    # ------------------------------------------------------------------
    def advance_batch(self, stamps: np.ndarray) -> np.ndarray:
        """Charge a transfer batch on the cached route; returns extras.

        Bit-identical to :meth:`Interconnect.transfer_batch` (same
        per-hop ``multi_server_waits`` walk, same float expression
        order), with the route/degradation/key lookups hoisted out.
        Counters, stall metrics and ``nvlink_stall_batch`` trace events
        are emitted exactly as the oracle would.
        """
        inter = self.inter
        n = stamps.size
        extras = np.zeros(n, dtype=np.float64)
        if n == 0:
            return extras
        metrics = inter.metrics
        tracer = inter.tracer
        transfers = inter._transfers
        queued = inter._queued_cycles
        busy_cycles = inter._busy_cycles
        clock = np.asarray(stamps, dtype=np.float64).copy()
        for hop in range(self.hops):
            edge = self.edges[hop]
            serialization = self.serialization[hop]
            lanes = self.lanes[hop]
            arrival = float(clock[0])
            waits, new_busy = multi_server_waits(
                np.asarray(lanes), clock, serialization
            )
            lanes[:] = [float(b) for b in new_busy]
            transfers[edge] += int(n)
            hop_wait = float(waits.sum())
            if hop_wait:
                queued[edge] = book_waits(queued[edge], waits)
            busy_cycles[edge] += serialization * n
            extras += waits
            clock += waits + serialization
            if metrics is not None and hop_wait > 0.0:
                metrics.count_stall(
                    self.keys[hop], hop_wait, events=int((waits > 0.0).sum())
                )
            if tracer is not None and hop_wait > 0.0:
                a, b = sorted(edge)
                tracer.emit(
                    "nvlink_stall_batch",
                    "nvlink",
                    arrival,
                    dur=hop_wait,
                    gpu=self.src,
                    args={
                        "src": self.src,
                        "dst": self.dst,
                        "hop": hop,
                        "link": [a, b],
                        "hops": self.hops,
                        "transfers": int(n),
                    },
                )
        extras += self.hop_pad
        return extras

    def advance_batch_small(self, stamps) -> list:
        """Pure-Python :meth:`advance_batch` for short bursts.

        Takes and returns plain Python floats (``stamps`` is a sequence,
        the result a list of extras) so a 2- or 4-transfer probe burst
        never crosses into numpy at all.  Counters, stall metrics and
        ``nvlink_stall_batch`` events match :meth:`advance_batch`
        bit-for-bit: the lane walk goes through
        :func:`~repro.hw.occupancy.multi_server_waits_scalar` and the
        per-hop wait sum accumulates left-to-right, which equals numpy's
        pairwise sum below :data:`SMALL_BATCH` elements.
        """
        inter = self.inter
        n = len(stamps)
        if n == 0:
            return []
        metrics = inter.metrics
        tracer = inter.tracer
        transfers = inter._transfers
        queued = inter._queued_cycles
        busy_cycles = inter._busy_cycles
        clock = list(stamps)
        extras = [0.0] * n
        for hop in range(self.hops):
            edge = self.edges[hop]
            serialization = self.serialization[hop]
            lanes = self.lanes[hop]
            arrival = clock[0]
            waits, new_busy = multi_server_waits_scalar(lanes, clock, serialization)
            lanes[:] = new_busy
            transfers[edge] += n
            hop_wait = 0.0
            for i in range(n):
                wait = waits[i]
                hop_wait += wait
                extras[i] += wait
                clock[i] += wait + serialization
            queued[edge] = book_waits(queued[edge], waits)
            busy_cycles[edge] += serialization * n
            if metrics is not None and hop_wait > 0.0:
                metrics.count_stall(
                    self.keys[hop],
                    hop_wait,
                    events=sum(1 for wait in waits if wait > 0.0),
                )
            if tracer is not None and hop_wait > 0.0:
                a, b = sorted(edge)
                tracer.emit(
                    "nvlink_stall_batch",
                    "nvlink",
                    arrival,
                    dur=hop_wait,
                    gpu=self.src,
                    args={
                        "src": self.src,
                        "dst": self.dst,
                        "hop": hop,
                        "link": [a, b],
                        "hops": self.hops,
                        "transfers": n,
                    },
                )
        pad = self.hop_pad
        if pad:
            for i in range(n):
                extras[i] += pad
        return extras

    def advance_one(self, now: float) -> float:
        """Charge one transfer on the cached route; returns extra cycles.

        The fused small-burst walk: :meth:`Interconnect.transfer`'s lane
        arithmetic with the transfer count and each hop's nonzero waits
        kept on the flow and folded in once per burst by
        :meth:`flush_counters`.  No per-transfer tracer event: the fused
        core calls :meth:`Interconnect.transfer` instead when one is
        attached.
        """
        extra = 0.0
        clock = now
        stalls = self.stalls
        serialization = self.serialization
        lanes_by_hop = self.lanes
        for hop in range(self.hops):
            lanes = lanes_by_hop[hop]
            ser = serialization[hop]
            lane = least_busy_lane(lanes)
            busy = lanes[lane]
            if busy > clock:
                wait = busy - clock
                stalls[hop].append(wait)
            else:
                wait = 0.0
            lanes[lane] = clock + wait + ser
            extra += wait
            clock += wait + ser
        self.count_acc += 1
        return extra + self.hop_pad

    def flush_counters(self) -> None:
        """Fold accumulated :meth:`advance_one` work into the counters.

        Queued cycles are booked with :func:`book_waits`, so they equal
        the per-transfer sums of :meth:`Interconnect.transfer` bit for
        bit.  With a metrics registry attached, each hop that queued
        reports its wait sum and stalled-transfer count under its own
        link key -- the per-hop accounting of :meth:`advance_batch_small`.
        """
        count = self.count_acc
        if not count:
            return
        inter = self.inter
        metrics = inter.metrics
        for hop, edge in enumerate(self.edges):
            inter._transfers[edge] += count
            inter._busy_cycles[edge] += self.serialization[hop] * count
            waits = self.stalls[hop]
            if waits:
                inter._queued_cycles[edge] = book_waits(
                    inter._queued_cycles[edge], waits
                )
                if metrics is not None:
                    metrics.count_stall(
                        self.keys[hop], book_waits(0.0, waits), events=len(waits)
                    )
                waits.clear()
        self.count_acc = 0


class Interconnect:
    """Tracks busy-until times for every NVLink in the box."""

    def __init__(self, spec: DGXSpec, topology: Topology) -> None:
        self.spec = spec
        self.topology = topology
        #: Nullable telemetry hook (see :mod:`repro.telemetry`): stall
        #: events are emitted only when transfers actually queue.
        self.tracer = None
        #: Nullable aggregated-metrics hook
        #: (:class:`repro.telemetry.metrics.AttackMetrics`): stall counts
        #: pushed when transfers queue (per burst and hop by the cached
        #: flows); lifetime totals are *pulled* from
        #: :meth:`counters_snapshot` at export.
        self.metrics = None
        #: Arm switch for the fabric hot path: the scalar reference arm
        #: (``l2_backend == "scalar"``) drives :meth:`transfer_batch`
        #: through the per-element Python lane walk, so the perf benches
        #: compare the columnar fabric against the pre-epoch reference
        #: rather than against itself.  Results are bit-identical either
        #: way -- the walks are exact twins and the counter reductions
        #: share numpy's pairwise sum.
        self.vectorized = spec.gpu.cache.l2_backend != "scalar"
        #: Per-link lane width: uniform ``spec.nvlink.lanes`` unless the
        #: spec carries asymmetric widths (the dgx_a100 preset).
        self._busy: Dict[Edge, list] = {
            edge: [0.0] * spec.lane_width(edge) for edge in topology.edges
        }
        # Per-link lifetime counters (feed telemetry.CounterSampler).
        self._transfers: Dict[Edge, int] = {edge: 0 for edge in self._busy}
        self._queued_cycles: Dict[Edge, float] = {edge: 0.0 for edge in self._busy}
        self._busy_cycles: Dict[Edge, float] = {edge: 0.0 for edge in self._busy}
        #: Serialization multipliers for degraded links (chaos link flaps);
        #: empty in normal operation, so the hot paths pay one truthiness
        #: check per hop.
        self._degraded: Dict[Edge, float] = {}
        #: Metric-key strings, cached per edge (formatted on every
        #: transfer before; see counters_snapshot for the format).
        self._edge_keys: Dict[Edge, str] = {
            edge: _edge_key(edge) for edge in topology.edges
        }
        #: Columnar per-edge serialization delays (degradation folded in),
        #: indexed by ``topology.edge_index`` -- the array the cached
        #: flows gather their per-hop delays from.
        self._base_serialization = float(spec.nvlink.serialization_cycles)
        self._serialization = np.full(
            len(topology.edges), self._base_serialization, dtype=np.float64
        )
        #: Version counters folded into the flow-cache token: degradation
        #: changes and lane-state rebuilds each invalidate cached flows.
        self._degrade_version = 0
        self._lanes_version = 0
        self._flows: Dict[Tuple[int, int, Optional[int]], FabricFlow] = {}

    # ------------------------------------------------------------------
    # Fault hooks (see repro.chaos): degraded-lane serialization
    # ------------------------------------------------------------------
    def degrade_link(self, edge, factor: float) -> None:
        """Multiply ``edge``'s serialization delay by ``factor``.

        Models a link flap retraining with fewer lanes / a lower rate:
        every cache-line transfer crossing the edge occupies its lane
        ``factor`` times longer, so concurrent traffic queues accordingly.
        """
        edge = frozenset(edge)
        if edge not in self._busy:
            raise FaultInjectionError(f"cannot degrade unknown link {sorted(edge)}")
        if factor < 1.0:
            raise FaultInjectionError("degradation factor must be >= 1")
        self._degraded[edge] = float(factor)
        self._refresh_serialization()

    def restore_link(self, edge) -> None:
        """Clear the degradation of ``edge`` (link retrained at full rate)."""
        self._degraded.pop(frozenset(edge), None)
        self._refresh_serialization()

    def _refresh_serialization(self) -> None:
        """Re-fold degradation factors into the serialization array."""
        self._degrade_version += 1
        factors = np.ones(len(self.topology.edges), dtype=np.float64)
        for edge, factor in self._degraded.items():
            factors[self.topology.edge_index[edge]] = factor
        self._serialization = self._base_serialization * factors

    def link_degradation(self, edge) -> float:
        """Current serialization multiplier of ``edge`` (1.0 = healthy)."""
        return self._degraded.get(frozenset(edge), 1.0)

    # ------------------------------------------------------------------
    # Lane-state hook
    # ------------------------------------------------------------------
    def _lane_state(self, edge: Edge, owner: Optional[int]) -> list:
        """Mutable busy-until lane list a transfer by ``owner`` queues on.

        The base interconnect shares every lane between all tenants;
        partitioned subclasses return an owner-specific slice.
        """
        return self._busy[edge]

    # ------------------------------------------------------------------
    # Cached flows (the vectorized fabric core)
    # ------------------------------------------------------------------
    #: Flow class instantiated by route_state; partitioned subclasses
    #: swap in a shaping-aware variant.
    _flow_class = FabricFlow

    def _state_token(self) -> Tuple[int, int, int]:
        return (
            self.topology.routes_version,
            self._degrade_version,
            self._lanes_version,
        )

    def route_state(
        self, src_gpu: int, dst_gpu: int, owner: Optional[int] = None
    ) -> FabricFlow:
        """Cached :class:`FabricFlow` for a ``(src, dst, owner)`` flow.

        Rebuilt automatically when a link flap reroutes the topology,
        a degradation factor changes, or the lane state is rebuilt
        (partition reassignment / reset) -- one integer-tuple compare on
        the hot path.
        """
        key = (src_gpu, dst_gpu, owner)
        flow = self._flows.get(key)
        if flow is None or flow.token != self._state_token():
            flow = self._flow_class(self, src_gpu, dst_gpu, owner)
            self._flows[key] = flow
        return flow

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def transfer(
        self,
        src_gpu: int,
        dst_gpu: int,
        now: float,
        owner: Optional[int] = None,
    ) -> Tuple[float, int]:
        """Charge one cache-line transfer from ``src_gpu`` to ``dst_gpu``.

        Returns ``(extra_cycles, hops)``: the queueing + multi-hop delay to
        add on top of the base remote latency, and the hop count.  Each
        transfer occupies the least-busy lane of every link on its route.
        """
        if src_gpu == dst_gpu:
            return 0.0, 0
        route = self.topology.path(src_gpu, dst_gpu)
        base_serialization = self.spec.nvlink.serialization_cycles
        degraded = self._degraded
        extra = 0.0
        clock = now
        for edge in route:
            serialization = base_serialization
            if degraded:
                serialization *= degraded.get(edge, 1.0)
            lanes = self._lane_state(edge, owner)
            lane = least_busy_lane(lanes)
            busy = lanes[lane]
            wait = busy - clock if busy > clock else 0.0
            lanes[lane] = clock + wait + serialization
            self._transfers[edge] += 1
            self._queued_cycles[edge] += wait
            self._busy_cycles[edge] += serialization
            extra += wait
            clock += wait + serialization
        # The first hop's base latency is part of TimingSpec.remote_*;
        # additional hops each add a fixed penalty.
        queue_wait = extra
        extra += (len(route) - 1) * self.spec.timing.per_extra_hop
        if self.metrics is not None and queue_wait > 0.0:
            self.metrics.count_stall(self._edge_keys[route[0]], queue_wait)
        if self.tracer is not None and queue_wait > 0.0:
            self.tracer.emit(
                "nvlink_stall",
                "nvlink",
                now,
                dur=queue_wait,
                gpu=src_gpu,
                args={"src": src_gpu, "dst": dst_gpu, "hops": len(route)},
            )
        return extra, len(route)

    def transfer_batch(
        self,
        src_gpu: int,
        dst_gpu: int,
        stamps: np.ndarray,
        owner: Optional[int] = None,
    ) -> np.ndarray:
        """Charge a stream of cache-line transfers; returns per-transfer
        extra cycles (queueing plus multi-hop penalty).

        ``stamps`` must be non-decreasing (batch issue order).  Equivalent
        to sequential :meth:`transfer` calls: each transfer occupies the
        least-busy lane of every link on its route, and queueing on one
        link delays the transfer's arrival at the next.
        """
        n = stamps.size
        extras = np.zeros(n, dtype=np.float64)
        if src_gpu == dst_gpu or n == 0:
            return extras
        route = self.topology.path(src_gpu, dst_gpu)
        base_serialization = float(self.spec.nvlink.serialization_cycles)
        degraded = self._degraded
        if not self.vectorized:
            return self._transfer_batch_python(
                src_gpu, dst_gpu, stamps, owner, route,
                base_serialization, degraded,
            )
        clock = np.asarray(stamps, dtype=np.float64).copy()
        for hop, edge in enumerate(route):
            serialization = base_serialization
            if degraded:
                serialization *= degraded.get(edge, 1.0)
            lanes = self._lane_state(edge, owner)
            arrival = float(clock[0])
            waits, new_busy = multi_server_waits(
                np.asarray(lanes), clock, serialization
            )
            lanes[:] = [float(b) for b in new_busy]
            self._transfers[edge] += int(n)
            hop_wait = float(waits.sum())
            if hop_wait:
                self._queued_cycles[edge] = book_waits(
                    self._queued_cycles[edge], waits
                )
            self._busy_cycles[edge] += serialization * n
            extras += waits
            clock += waits + serialization
            if self.metrics is not None and hop_wait > 0.0:
                self.metrics.count_stall(
                    self._edge_keys[edge], hop_wait, events=int((waits > 0.0).sum())
                )
            if self.tracer is not None and hop_wait > 0.0:
                # One event per *hop*, stamped when the batch reaches that
                # link, so Perfetto lines stalls up with the probe epochs
                # they delayed; ``dur`` is the hop's summed queueing.
                a, b = sorted(edge)
                self.tracer.emit(
                    "nvlink_stall_batch",
                    "nvlink",
                    arrival,
                    dur=hop_wait,
                    gpu=src_gpu,
                    args={
                        "src": src_gpu,
                        "dst": dst_gpu,
                        "hop": hop,
                        "link": [a, b],
                        "hops": len(route),
                        "transfers": int(n),
                    },
                )
        extras += (len(route) - 1) * self.spec.timing.per_extra_hop
        return extras

    def _transfer_batch_python(
        self,
        src_gpu: int,
        dst_gpu: int,
        stamps: np.ndarray,
        owner: Optional[int],
        route,
        base_serialization: float,
        degraded: Dict[Edge, float],
    ) -> np.ndarray:
        """Reference fabric walk: the per-element Python lane scan.

        The scalar arm's :meth:`transfer_batch` body -- every wait comes
        from :func:`~repro.hw.occupancy.multi_server_waits_scalar`, one
        element at a time.  Only the ``hop_wait`` stall reduction (metrics
        and tracer) stays numpy: its pairwise sum differs from in-order
        accumulation at :data:`SMALL_BATCH` elements and up, and the stall
        metrics must match the vectorized walk bitwise at any batch width.
        """
        n = int(stamps.size)
        clock = [float(stamp) for stamp in stamps]
        extras = [0.0] * n
        for hop, edge in enumerate(route):
            serialization = base_serialization
            if degraded:
                serialization *= degraded.get(edge, 1.0)
            lanes = self._lane_state(edge, owner)
            arrival = clock[0]
            waits, new_busy = multi_server_waits_scalar(
                lanes, clock, serialization
            )
            lanes[:] = new_busy
            self._transfers[edge] += n
            hop_wait = float(np.asarray(waits).sum())
            self._queued_cycles[edge] = book_waits(self._queued_cycles[edge], waits)
            self._busy_cycles[edge] += serialization * n
            stalled = 0
            for index in range(n):
                wait = waits[index]
                if wait > 0.0:
                    stalled += 1
                extras[index] += wait
                clock[index] += wait + serialization
            if self.metrics is not None and hop_wait > 0.0:
                self.metrics.count_stall(
                    self._edge_keys[edge], hop_wait, events=stalled
                )
            if self.tracer is not None and hop_wait > 0.0:
                a, b = sorted(edge)
                self.tracer.emit(
                    "nvlink_stall_batch",
                    "nvlink",
                    arrival,
                    dur=hop_wait,
                    gpu=src_gpu,
                    args={
                        "src": src_gpu,
                        "dst": dst_gpu,
                        "hop": hop,
                        "link": [a, b],
                        "hops": len(route),
                        "transfers": n,
                    },
                )
        result = np.asarray(extras, dtype=np.float64)
        result += (len(route) - 1) * self.spec.timing.per_extra_hop
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def link_busy_until(self) -> Dict[Edge, float]:
        """Latest busy-until stamp per link (raw lane state)."""
        return {edge: max(lanes) for edge, lanes in self._busy.items()}

    def busy_cycles(self) -> Dict[Edge, float]:
        """Cumulative lane-occupancy cycles charged per link."""
        return dict(self._busy_cycles)

    def utilization(
        self,
        window_cycles: float,
        since: Optional[Dict[Edge, float]] = None,
    ) -> Dict[Edge, float]:
        """True windowed utilization: busy cycles / lane-capacity cycles.

        ``since`` is an earlier :meth:`busy_cycles` snapshot marking the
        window start (defaults to zero, i.e. the whole run).  A link's
        capacity over the window is ``window_cycles * lanes``, so the
        result is a fraction in [0, 1].
        """
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        baseline = since or {}
        return {
            edge: min(
                max(
                    (busy - baseline.get(edge, 0.0))
                    / (window_cycles * len(self._busy[edge])),
                    0.0,
                ),
                1.0,
            )
            for edge, busy in self._busy_cycles.items()
        }

    def counters_snapshot(self) -> Dict[str, int]:
        """Flat per-link counters for :class:`telemetry.CounterSampler`.

        Keys are ``link<a>-<b>:{transfers,queued_cycles,busy_cycles}``
        with cycle counts rounded to ints (sampler deltas are integral).
        """
        snapshot: Dict[str, int] = {}
        for edge in self._busy:
            key = self._edge_keys[edge]
            snapshot[f"{key}:transfers"] = self._transfers[edge]
            snapshot[f"{key}:queued_cycles"] = int(self._queued_cycles[edge])
            snapshot[f"{key}:busy_cycles"] = int(self._busy_cycles[edge])
        return snapshot

    def reset(self) -> None:
        for lanes in self._busy.values():
            for lane in range(len(lanes)):
                lanes[lane] = 0.0
        for edge in self._busy:
            self._transfers[edge] = 0
            self._queued_cycles[edge] = 0.0
            self._busy_cycles[edge] = 0.0
        # Drop cached flows: their live lane references survive the
        # in-place reset, but any accumulated burst counters must not.
        self._lanes_version += 1
