"""Epoch cursor: bulk advancement of epoch plans.

The engine's batch-native execution core.  A kernel that yields an
:class:`~repro.sim.ops.AccessEpoch` or a
:class:`~repro.sim.ops.LinkEpoch` hands the engine its whole plan --
bursts, idle windows, repeat-until-deadline prime loops, floods, slot
pads, round pacing -- and the engine parks one :class:`EpochCursor` on
the stream instead of bouncing one heap event per probe.  Each time the
stream reaches the head of the event heap the cursor *resumes*: it
services consecutive bursts through the vectorized hardware cores (the
L2 for access plans, the NVLink fabric for link plans) until the next
foreign event (another stream's op, the ``run(until=...)`` horizon, or
a scheduled fault) would interleave, then suspends with the stream
re-queued at its advanced clock.

Ordering stays identical to scalar dispatch because bursts execute
atomically at their start time (the atomic-probe convention): the cursor
services a burst only while its start precedes every other pending
event, so the global op-start order -- the only order the convention
defines -- is unchanged.  Chaos faults are fences: the resume deadline
is capped at the injector's next due time, so a burst starting after a
scheduled fault is serviced only after the fault lands.  Telemetry fires
once per resume (epoch boundaries), not per access.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, TYPE_CHECKING, Union

import numpy as np

from ..errors import PeerAccessError, SimulationError
from ..hw.interconnect import SMALL_BATCH, FabricFlow, book_waits
from ..hw.occupancy import multi_server_waits_scalar
from .ops import (
    AccessEpoch,
    Compute,
    EpochBurst,
    EpochIdle,
    EpochOutcome,
    EpochRepeat,
    LinkBurst,
    LinkEpoch,
    LinkFlood,
    LinkOutcome,
    LinkPad,
    LinkProbe,
    ProbeEpoch,
    ProbeSet,
    ReadClock,
    Sleep,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.system import MultiGPUSystem
    from .engine import StreamHandle

__all__ = ["EpochCursor", "LinkEpochCursor", "epochify", "unroll"]

#: Segment kinds each plan kind may hold, checked up front by the cursor
#: and by :func:`unroll` (see :func:`_check_plan`).  A :class:`LinkEpoch`
#: idle must be cycles-only: a link plan pads with :class:`LinkPad`.
_SEGMENTS = {
    AccessEpoch: (EpochBurst, EpochIdle, EpochRepeat),
    LinkEpoch: (LinkBurst, LinkFlood, LinkPad, EpochIdle),
}


def _check_plan(op: Any) -> bool:
    """Check ``op``'s segments against :data:`_SEGMENTS`; returns whether
    ``op`` is a :class:`LinkEpoch`."""
    kinds = _SEGMENTS.get(type(op))
    if kinds is None:
        raise SimulationError(f"expected an AccessEpoch or LinkEpoch, not {op!r}")
    link = type(op) is LinkEpoch
    for seg in op.segments:
        if type(seg) not in kinds or (
            link and type(seg) is EpochIdle and seg.until is not None
        ):
            raise SimulationError(
                f"{type(op).__name__} cannot hold segment {seg!r}"
            )
    return link


class EpochCursor:
    """Resumable execution state of one in-flight epoch plan.

    One cursor serves both plan kinds.  An :class:`AccessEpoch` bursts
    through the L2 cores
    (:meth:`~repro.hw.system.MultiGPUSystem.service_burst`); a
    :class:`LinkEpoch` bursts over the NVLink fabric
    (:meth:`~repro.hw.system.MultiGPUSystem.service_link_burst` over a
    cached :class:`~repro.hw.interconnect.FabricFlow`).  A link plan's
    peer access is validated once at construction; the flow itself is
    re-fetched per burst through
    :meth:`~repro.hw.interconnect.Interconnect.route_state`, so link
    flaps, degradations and lane reassignments landing between resumes
    are picked up (chaos events cap the resume deadline, so no fabric
    mutation can land *inside* a resume).
    """

    __slots__ = (
        "op", "handle", "system", "begin", "clock",
        "round_index", "round_start", "in_round", "seg_index",
        "stop_time", "stop_at",
        "idle_pause", "lead", "last_advance", "key_lead", "key_since",
        "bursts", "accesses", "scalar_bursts", "remote",
        "resumed_accesses", "resumed_bursts",
        "service_cycles", "suspends",
        "_layout", "_starts", "_lats", "_hits", "_totals", "_steps", "_fast",
    )

    def __init__(
        self,
        op: Union[AccessEpoch, LinkEpoch],
        handle: "StreamHandle",
        system: "MultiGPUSystem",
        begin: float,
    ) -> None:
        link = _check_plan(op)
        self.op = op
        self.handle = handle
        self.system = system
        self.begin = begin
        self.clock = begin
        self.round_index = 0
        self.round_start = begin
        self.in_round = False
        self.seg_index = 0
        #: Absolute stop time resolved once: ``end_time``, capped by the
        #: begin plus ``duration_cycles`` (a link flooder's horizon).
        self.stop_time: Optional[float] = op.end_time
        duration = getattr(op, "duration_cycles", None)
        if duration is not None:
            horizon = begin + duration
            if self.stop_time is None or horizon < self.stop_time:
                self.stop_time = horizon
        #: The stop flag's grace deadline, armed by the first round that
        #: starts with the flag raised.
        self.stop_at: Optional[float] = None
        #: Marks the (round, segment) of a chunked idle or pad whose final
        #: step already suspended once, so the resume completes it
        #: (progress guarantee) instead of pausing again.
        self.idle_pause = None
        #: Zero-latency clock reads the per-op form (:func:`unroll`) has
        #: pending before its next resource op, and the start time of its
        #: last clock-advancing op -- together the FIFO tie key per-op
        #: dispatch would have assigned this stream's queued event (see
        #: Engine._push).
        self.lead = 0
        self.last_advance = begin
        self.key_lead = 0
        self.key_since = begin
        self.bursts = 0
        #: Accesses serviced: cache lines, or link transfers.
        self.accesses = 0
        self.scalar_bursts = 0
        self.remote = link
        #: Work serviced by the latest resume (per-resume stats/telemetry).
        self.resumed_accesses = 0
        self.resumed_bursts = 0
        #: Pure observers for the epoch profiler: sim-cycles spent inside
        #: burst service, and how many times the cursor suspended.  Never
        #: read by the clock arithmetic.
        self.service_cycles = 0.0
        self.suspends = 0
        self._layout = None
        self._starts: List[float] = []
        self._lats: List[Any] = []
        self._hits: List[Any] = []
        self._totals: List[float] = []
        #: ``arange(count) * gap`` link issue offsets, keyed by
        #: (count, gap) -- stable across rounds for fixed-size bursts.
        self._steps = {}
        #: Fused small-burst link closures (see :meth:`_build_fast_burst`),
        #: keyed by segment index -- plus the burst size for a flood --
        #: so a burst looks its closure up with one int-keyed probe.
        #: ``False`` marks a burst too wide for one.
        self._fast = {}
        if link:
            exec_gpu = handle.gpu_id
            process = handle.process
            for seg in op.segments:
                dst = getattr(seg, "dst_gpu", None)
                if dst is None:
                    continue
                if dst == exec_gpu:
                    raise PeerAccessError(
                        "link probes need a remote destination GPU"
                    )
                if not process.has_peer_access(exec_gpu, dst):
                    raise PeerAccessError(
                        f"process {process.name!r} has no peer access from "
                        f"GPU {exec_gpu} to GPU {dst}"
                    )

    # ------------------------------------------------------------------
    def resume(self, now: float, deadline: float) -> bool:
        """Advance until the epoch finishes or ``deadline`` interleaves.

        ``now`` is the heap time the stream was popped at (adopted if the
        cursor's clock lags it -- e.g. after a preemption fault rewrote
        the queued clock).  Returns ``True`` when the epoch is complete;
        otherwise the cursor's clock is where the stream must re-queue,
        and ``key_lead``/``key_since`` carry the per-op FIFO tie key.

        A burst may start exactly at ``deadline`` only if nothing was
        serviced yet this resume: the stream was popped first at that
        time, so it owns the tie -- exactly the scalar engine's FIFO
        tie-break, where the re-pushed op would get a later sequence
        number than the already-queued foreign event.
        """
        op = self.op
        clock = self.clock
        if now > clock:
            clock = now
        entry = clock
        serviced = False
        self.resumed_accesses = 0
        self.resumed_bursts = 0
        segments = op.segments
        num_segments = len(segments)
        stop_time = self.stop_time
        stop_flag = getattr(op, "stop_flag", None)
        service_access = self._service_access
        service_link = self._service_link
        # ``lead``/``last_advance`` mirror the per-op stream's event-queue
        # footprint: how many zero-latency clock reads it has pending, and
        # when its last clock-advancing op started (= when its queued heap
        # entry was pushed).  They become the suspension tie key so that
        # streams parked at the same instant pop in the per-op order.
        lead = self.lead
        last_advance = self.last_advance
        while True:
            if not self.in_round:
                # Round-start checks observe externally mutated state (the
                # stop flag), so they run only while this stream still owns
                # the simulation clock -- past the deadline the cursor
                # suspends and re-checks after the foreign event has landed,
                # exactly when the scalar loop would re-check.
                if clock >= deadline and (serviced or clock > entry):
                    return self._suspend(
                        clock, lead, lead + op.round_reads, last_advance
                    )
                if op.rounds is not None and self.round_index >= op.rounds:
                    break
                if stop_time is not None and clock >= stop_time:
                    break
                if (
                    stop_flag is not None
                    and self.stop_at is None
                    and len(stop_flag)
                ):
                    self.stop_at = clock + op.grace_cycles
                if self.stop_at is not None and clock >= self.stop_at:
                    break
                self.in_round = True
                self.seg_index = 0
                self.round_start = clock
                lead += op.round_reads
            while self.seg_index < num_segments:
                seg = segments[self.seg_index]
                kind = type(seg)
                if kind is EpochBurst or kind is LinkBurst:
                    if clock >= deadline and (serviced or clock > entry):
                        return self._suspend(clock, lead, lead, last_advance)
                    start = clock
                    if kind is EpochBurst:
                        clock = start + service_access(seg, start)
                    else:
                        clock = start + service_link(
                            self.seg_index, seg.dst_gpu, seg.num_transfers,
                            seg.gap_cycles, seg.wait, seg.record, start,
                        )
                    last_advance = start
                    lead = 0
                    serviced = True
                elif kind is EpochIdle:
                    if seg.cycles:
                        last_advance = clock
                        clock += seg.cycles
                        lead = 0
                    if seg.until is not None:
                        # Step like the per-op wait loop so the two
                        # dispatch modes' clocks agree bit-for-bit; each
                        # evaluation is one clock read per-op.
                        target = self.round_start + seg.until
                        chunk = seg.chunk
                        here = (self.round_index, self.seg_index)
                        while True:
                            lead += 1
                            remaining = target - clock
                            if remaining <= 0:
                                break
                            if remaining <= chunk and self.idle_pause != here:
                                # Final chunk: the per-op stream pushes its
                                # last wait Compute here, and that push's
                                # FIFO slot is what decides pop order when
                                # several streams re-converge on a common
                                # grid (trojans padded to one slot edge).
                                # Suspend once so this cursor's re-push
                                # lands in the same relative order.
                                self.idle_pause = here
                                return self._suspend(
                                    clock, lead - 1, lead, last_advance
                                )
                            last_advance = clock
                            clock += remaining if remaining < chunk else chunk
                            lead = 0
                        if self.idle_pause == here:
                            self.idle_pause = None
                elif kind is EpochRepeat:
                    burst = seg.burst
                    target = self.round_start + seg.until
                    while True:
                        lead += 1  # the per-op margin-check clock read
                        if clock + seg.margin > target:
                            break
                        if clock >= deadline and (serviced or clock > entry):
                            # ``lead - 1``: the margin check re-runs on
                            # resume; the key still counts it.
                            return self._suspend(clock, lead - 1, lead, last_advance)
                        start = clock
                        clock = start + service_access(burst, start)
                        last_advance = start
                        lead = 0
                        serviced = True
                elif kind is LinkFlood:
                    if clock >= deadline and (serviced or clock > entry):
                        return self._suspend(clock, lead, lead, last_advance)
                    # One flooder round, per-op arithmetic verbatim:
                    # size the posted burst to the remaining window, then
                    # hold the paced remainder of its lane reservation.
                    if stop_time is not None:
                        window = min(seg.burst_cycles, stop_time - clock)
                    else:
                        window = seg.burst_cycles
                    count = max(1, int(window / seg.occupancy_per_transfer))
                    start = clock
                    clock = start + service_link(
                        (self.seg_index, count), seg.dst_gpu, count,
                        seg.gap_cycles, False, False, start,
                    )
                    last_advance = start
                    lead = 0
                    serviced = True
                    hold = max(
                        count * seg.occupancy_per_transfer
                        - count * seg.gap_cycles,
                        0.0,
                    )
                    if hold > 0.0:
                        last_advance = clock
                        clock += hold
                        lead = 0
                else:  # LinkPad: _SEGMENTS admits nothing else
                    # The trojan's slot alignment: one clock read, one
                    # sleep of the remainder, no re-check read after it.
                    target = self.round_start + seg.until
                    here = (self.round_index, self.seg_index)
                    lead += 1
                    if target > clock:
                        if self.idle_pause != here:
                            # Per-op, the pad Sleep is pushed here; suspend
                            # once so this cursor's re-push takes the same
                            # FIFO slot when streams converge on a common
                            # slot grid (see EpochIdle's chunked wait).
                            self.idle_pause = here
                            return self._suspend(
                                clock, lead - 1, lead, last_advance
                            )
                        last_advance = clock
                        clock += target - clock
                        lead = 0
                    if self.idle_pause == here:
                        self.idle_pause = None
                self.seg_index += 1
            if op.period is not None:
                # ``period - elapsed`` then add: the per-op pacing
                # arithmetic, kept verbatim for bitwise clock equality.  A
                # plan with round reads reads the clock to compute the pad.
                if op.round_reads:
                    lead += 1
                remaining = op.period - (clock - self.round_start)
                if remaining > 0:
                    last_advance = clock
                    clock += remaining
                    lead = 0
            self.round_index += 1
            self.in_round = False
        self.clock = clock
        self.lead = lead
        self.last_advance = last_advance
        return True

    def _suspend(
        self, clock: float, lead: int, key_lead: int, last_advance: float
    ) -> bool:
        self.clock = clock
        self.lead = lead
        self.key_lead = key_lead
        self.key_since = last_advance
        self.last_advance = last_advance
        self.suspends += 1
        return False

    def _service_access(self, burst: EpochBurst, clock: float) -> float:
        latencies, hits, total, remote, scalar = self.system.service_burst(
            self.handle.process,
            burst.buffer,
            burst.sets,
            self.handle.gpu_id,
            clock,
            parallel=burst.parallel,
            issue_gap=burst.issue_gap,
        )
        self.bursts += 1
        self.resumed_bursts += 1
        # ``latencies`` is a numpy row from the vector core or a plain
        # list from the fused small-burst core; rows are kept as-is and
        # stacked once in :meth:`take_outcome`.
        count = len(latencies)
        self.accesses += count
        self.resumed_accesses += count
        self.service_cycles += total
        if scalar:
            self.scalar_bursts += 1
        if remote:
            self.remote = True
        if self.op.record:
            if self._layout is None:
                self._layout = self.system.epoch_layout(
                    burst.buffer, burst.sets, burst.parallel, burst.issue_gap
                )
            elif count != len(self._lats[0]):
                raise SimulationError(
                    "recorded epoch bursts must share one set layout; "
                    "use record=False for heterogeneous plans"
                )
            self._starts.append(clock)
            self._lats.append(latencies)
            self._hits.append(hits)
            self._totals.append(total)
        return total

    def _build_fast_burst(
        self, dst_gpu: int, count: int, gap: float, wait: bool, record: bool
    ):
        """Fused small-burst service closure for one burst shape.

        Inlines the whole ``service_link_burst`` + ``advance_batch_small``
        stack -- route revalidation, lane walk, jitter, latency math, byte
        counters -- into one call frame with every constant pre-bound, the
        link analogue of the fused L2 small-burst core.  The closure
        returns ``(latencies, total)``, or ``None`` to fall back to the
        generic path whenever a hook is attached (tracer, metrics, DVFS
        latency scaling) or the flow is not a plain :class:`FabricFlow`
        (lane-partitioned fabrics shape per burst) -- exactly the cases
        that need per-burst emission or extra arithmetic.  Each float
        expression mirrors the generic path, so results stay bitwise.
        """
        system = self.system
        handle = self.handle
        exec_gpu = handle.gpu_id
        pid = handle.process.pid
        timing = system.spec.timing
        link_rtt = timing.remote_l2_hit - timing.local_l2_hit
        jitter_amp = timing.jitter_remote_hit
        burst_bytes = count * system.spec.gpu.cache.line_size
        counters_exec = system.gpus[exec_gpu].counters
        counters_dst = system.gpus[dst_gpu].counters
        pool = system._jitter
        steps = [index * gap for index in range(count)]
        indices = range(count)
        lane_walk = multi_server_waits_scalar
        two = count == 2

        def run(now: float):
            inter = system.interconnect
            if (
                system.tracer is not None
                or inter.tracer is not None
                or inter.metrics is not None
                or system._latency_scale is not None
            ):
                return None
            flow = inter.route_state(exec_gpu, dst_gpu, pid)
            if type(flow) is not FabricFlow:
                return None
            transfers = inter._transfers
            queued = inter._queued_cycles
            if two and flow.hops == 1:
                lane_state = flow.lanes[0]
                if len(lane_state) == 2:
                    # Pair-probe shape (the linkgram sweep): unroll the
                    # 2-lane/2-request least-busy walk.  Expressions track
                    # multi_server_waits_scalar exactly: lane sort, consume
                    # vs chain branch, pairwise exit sort.
                    edge = flow.edges[0]
                    serialization = flow.serialization[0]
                    lane0 = lane_state[0]
                    lane1 = lane_state[1]
                    if lane0 > lane1:
                        lane0, lane1 = lane1, lane0
                    stamp1 = now + gap
                    start = now if now >= lane0 else lane0
                    wait0 = start - now
                    depart0 = start + serialization
                    if lane1 <= depart0:
                        start = stamp1 if stamp1 >= lane1 else lane1
                        wait1 = start - stamp1
                        depart1 = start + serialization
                        if depart0 > depart1:
                            lane_state[0] = depart1
                            lane_state[1] = depart0
                        else:
                            lane_state[0] = depart0
                            lane_state[1] = depart1
                    else:
                        wait1 = depart0 - stamp1
                        if wait1 < 0.0:
                            wait1 = 0.0
                        depart1 = stamp1 + wait1 + serialization
                        if lane1 > depart1:
                            lane_state[0] = depart1
                            lane_state[1] = lane1
                        else:
                            lane_state[0] = lane1
                            lane_state[1] = depart1
                    transfers[edge] += 2
                    # In transfer order, as book_waits would.
                    queued[edge] = queued[edge] + wait0 + wait1
                    pad = flow.hop_pad
                    if pad:
                        wait0 += pad
                        wait1 += pad
                    position = pool._pos
                    if position + 2 <= pool._block:
                        draws = pool._buf[position : position + 2].tolist()
                        pool._pos = position + 2
                    else:
                        draws = pool.take_list(2)
                    latencies = None
                    if wait or record:
                        lat0 = link_rtt + wait0 + jitter_amp * draws[0]
                        lat1 = link_rtt + wait1 + jitter_amp * draws[1]
                        latencies = [
                            lat0 if lat0 > 1.0 else 1.0,
                            lat1 if lat1 > 1.0 else 1.0,
                        ]
                    if wait:
                        total = latencies[0]
                        candidate = gap + latencies[1]
                        if candidate > total:
                            total = candidate
                    else:
                        total = 2 * gap
                        if total < 1.0:
                            total = 1.0
                    counters_exec.nvlink_bytes_in += burst_bytes
                    counters_dst.nvlink_bytes_out += burst_bytes
                    return latencies, total
            stamps = [now + step for step in steps]
            if flow.hops == 1:
                # Direct link: the per-hop waits ARE the extras, so the
                # next-hop stamp roll and the extras accumulator drop out.
                edge = flow.edges[0]
                serialization = flow.serialization[0]
                lane_state = flow.lanes[0]
                extras, new_busy = lane_walk(lane_state, stamps, serialization)
                lane_state[:] = new_busy
                transfers[edge] += count
                queued[edge] = book_waits(queued[edge], extras)
            else:
                extras = [0.0] * count
                edges = flow.edges
                serialization_by_hop = flow.serialization
                lanes_by_hop = flow.lanes
                for hop in range(flow.hops):
                    edge = edges[hop]
                    serialization = serialization_by_hop[hop]
                    waits, new_busy = lane_walk(
                        lanes_by_hop[hop], stamps, serialization
                    )
                    lanes_by_hop[hop][:] = new_busy
                    transfers[edge] += count
                    for index in indices:
                        wait_cycles = waits[index]
                        extras[index] += wait_cycles
                        stamps[index] += wait_cycles + serialization
                    queued[edge] = book_waits(queued[edge], waits)
            pad = flow.hop_pad
            if pad:
                for index in indices:
                    extras[index] += pad
            position = pool._pos
            if position + count <= pool._block:
                draws = pool._buf[position : position + count].tolist()
                pool._pos = position + count
            else:
                draws = pool.take_list(count)
            latencies = None
            if wait or record:
                latencies = [0.0] * count
                for index in indices:
                    latency = link_rtt + extras[index] + jitter_amp * draws[index]
                    latencies[index] = latency if latency > 1.0 else 1.0
            if wait:
                total = steps[0] + latencies[0]
                for index in indices:
                    candidate = steps[index] + latencies[index]
                    if candidate > total:
                        total = candidate
            else:
                total = count * gap
                if total < 1.0:
                    total = 1.0
            counters_exec.nvlink_bytes_in += burst_bytes
            counters_dst.nvlink_bytes_out += burst_bytes
            return latencies, total

        return run

    def _service_link(
        self,
        key: Any,
        dst_gpu: int,
        count: int,
        gap_cycles: float,
        wait: bool,
        record: bool,
        clock: float,
    ) -> float:
        """Service one link burst through the fused closure cached under
        ``key``, or through
        :meth:`~repro.hw.system.MultiGPUSystem.service_link_burst` when
        the burst is too wide for one or the closure bails."""
        fast = self._fast.get(key)
        if fast is None:
            fast = count < SMALL_BATCH and self._build_fast_burst(
                dst_gpu, int(count), float(gap_cycles), wait, record
            )
            self._fast[key] = fast
        serviced = fast(clock) if fast else None
        if serviced is None:
            system = self.system
            handle = self.handle
            count = int(count)
            gap = float(gap_cycles)
            steps = self._steps.get((count, gap))
            if steps is None:
                # Plain-list offsets below the small-batch threshold steer
                # service_link_burst down the pure-Python fabric walk.
                if count < SMALL_BATCH:
                    steps = [index * gap for index in range(count)]
                else:
                    steps = np.arange(count, dtype=np.float64) * gap
                self._steps[(count, gap)] = steps
            flow = system.interconnect.route_state(
                handle.gpu_id, dst_gpu, owner=handle.process.pid
            )
            serviced = system.service_link_burst(
                handle.process, dst_gpu, handle.gpu_id, clock,
                count, gap, wait, record, flow, steps=steps,
            )
        latencies, total = serviced
        self.bursts += 1
        self.resumed_bursts += 1
        self.accesses += count
        self.resumed_accesses += count
        self.service_cycles += total
        if record:
            if self._lats and count != len(self._lats[0]):
                raise SimulationError(
                    "recorded link-epoch bursts must share one width; "
                    "use record=False for heterogeneous plans"
                )
            self._starts.append(clock)
            self._lats.append(latencies)
        return total

    def take_outcome(self) -> Union[EpochOutcome, LinkOutcome]:
        """Assemble the columnar result (call once, after completion)."""
        return _outcome(
            type(self.op) is LinkEpoch, self._layout, self._starts, self._lats,
            self._hits, self._totals, self.remote, self.bursts, self.accesses,
            self.begin, self.clock,
        )


#: The ledger's ``spans.BOUNDARIES`` still wraps
#: ``repro.sim.epoch:LinkEpochCursor.resume``; this alias keeps that row
#: resolving until the next benchmark change drops it.
LinkEpochCursor = EpochCursor


def _rows(rows: List[Any], dtype=np.float64) -> np.ndarray:
    """Stack per-burst rows (an empty outcome has shape ``(0, 0)``)."""
    return np.vstack(rows) if rows else np.empty((0, 0), dtype=dtype)


def _outcome(
    link, layout, starts, lats, hits, totals, remote, bursts, accesses, begin, end
) -> Union[EpochOutcome, LinkOutcome]:
    """Assemble a :class:`LinkOutcome` or an :class:`EpochOutcome` from
    recorded burst rows; an access plan's ``layout`` (of its first
    recorded burst) is ``None`` when none was recorded."""
    if link:
        return LinkOutcome(
            np.asarray(starts, dtype=np.float64), _rows(lats),
            bursts, accesses, begin, end,
        )
    if layout is None:
        layout = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    return EpochOutcome(
        starts=np.asarray(starts, dtype=np.float64),
        latencies=_rows(lats),
        hits=_rows(hits, dtype=bool),
        totals=np.asarray(totals, dtype=np.float64),
        set_counts=layout[0],
        set_offsets=layout[1],
        set_starts=layout[2],
        remote=remote,
        bursts=bursts,
        accesses=accesses,
        begin=begin,
        end=end,
    )


# ----------------------------------------------------------------------
# Per-op adapters: epochify (ops -> plan) and unroll (plan -> ops)
# ----------------------------------------------------------------------
def _as_segment(op: Any):
    kind = type(op)
    if kind is ProbeSet:
        return EpochBurst(
            op.buffer,
            (tuple(op.indices),),
            parallel=op.parallel,
            issue_gap=op.issue_gap,
        )
    if kind is ProbeEpoch:
        return EpochBurst(
            op.buffer,
            tuple(tuple(s) for s in op.sets),
            parallel=op.parallel,
            issue_gap=op.issue_gap,
        )
    if kind is Compute or kind is Sleep:
        return EpochIdle(cycles=float(op.cycles))
    return None


def epochify(kernel: Generator[Any, Any, Any]) -> Generator[Any, Any, Any]:
    """Wrap a result-blind trace kernel into a single unrecorded epoch.

    Drains ``kernel`` (sending ``None``, which trace workloads ignore)
    and re-expresses its probe/compute stream as one
    ``AccessEpoch(record=False)`` -- the victim's whole run becomes a
    handful of cursor resumes instead of one heap event per 16-line
    batch.  Idle segments are kept one-per-op (not coalesced): float
    addition is not associative, and summing them would nudge the clock
    off the scalar path's bit pattern.

    The moment the kernel yields an op with no epoch equivalent (a
    store, fence or clock read), the collected prefix replays verbatim
    on the scalar path and the wrapper turns into a transparent
    passthrough: every later op is forwarded as yielded and its real
    engine result sent back in.  Eagerly draining past that point would
    be wrong, not just slow -- a result-*dependent* kernel (e.g. the
    composite victim's join loop, which polls a flag that only flips
    once its sibling streams run) may never terminate when fed ``None``.
    """
    segments: List[Any] = []
    while True:
        try:
            op = next(kernel)
        except StopIteration as stop:
            if segments:
                # round_reads=0: trace kernels never read the clock, so
                # the plan has no zero-latency lead-in ops.
                yield AccessEpoch(
                    tuple(segments), rounds=1, record=False, round_reads=0
                )
            return stop.value
        seg = _as_segment(op)
        if seg is not None:
            segments.append(seg)
            continue
        # Replay the epochable prefix (those ops already received None,
        # so their engine results are discarded), then go transparent.
        for prefix in segments:
            if type(prefix) is EpochIdle:
                yield Compute(prefix.cycles)
            else:
                yield ProbeSet(
                    prefix.buffer,
                    [index for group in prefix.sets for index in group],
                    parallel=prefix.parallel,
                    issue_gap=prefix.issue_gap,
                )
        result = yield op
        while True:
            try:
                op = kernel.send(result)
            except StopIteration as stop:
                return stop.value
            result = yield op


def unroll(op: Any) -> Generator[Any, Any, Any]:
    """Run one :class:`AccessEpoch` or :class:`LinkEpoch` as per-op ops.

    The inverse of :func:`epochify` and the reference the epoch cursor
    is tested against: a runtime with per-op dispatch drives every plan
    through here (``yield from unroll(plan)``), and the engine then
    dispatches one heap event per op.  Returns the outcome the cursor
    would have produced.  The op stream is the one the cursor's ``lead``
    / ``last_advance`` tie keys model:

    * each round checks ``rounds``, then reads the clock ``round_reads``
      times; ``end_time`` / ``duration_cycles`` and the stop flag's grace
      deadline are checked against the value just read;
    * a burst is one :class:`ProbeSet` (one set), :class:`ProbeEpoch`
      (several sets) or :class:`LinkProbe`;
    * an idle of ``cycles`` is a ``Compute`` (``Sleep`` in a link plan);
      a chunked idle and an :class:`EpochRepeat` re-read the clock before
      every step; a :class:`LinkPad` reads it once and sleeps the rest;
    * ``period`` reads the clock (when the plan has round reads) and pads
      with a ``Compute``.

    The clock between reads is the latest read plus the op latencies
    since -- the engine's own sums, so recorded burst starts are exact.
    A preemption fault that delays a queued op is invisible to that sum
    until the next read; every attack plan records only bursts that
    follow their round's read directly.  A plan with no round reads must
    not need the clock.  A plan that never reads it (no round reads, or
    no rounds) reports NaN ``begin``/``end``.
    """
    link = _check_plan(op)
    if not op.round_reads and (
        op.period is not None
        or op.end_time is not None
        or getattr(op, "duration_cycles", None) is not None
        or getattr(op, "stop_flag", None) is not None
        or getattr(op, "record", False)
        or any(
            getattr(seg, "until", None) is not None or getattr(seg, "record", False)
            for seg in op.segments
        )
    ):
        raise SimulationError("a plan with round_reads=0 never reads the clock")
    idle = Sleep if link else Compute
    stop_flag = getattr(op, "stop_flag", None)
    record = not link and op.record
    begin = clock = float("nan")
    horizon = op.end_time
    stop_at: Optional[float] = None
    bursts = accesses = 0
    remote = link
    layout = None
    starts: List[float] = []
    lats: List[Any] = []
    hits: List[Any] = []
    totals: List[float] = []

    def access_burst(burst: EpochBurst, start: float):
        nonlocal bursts, accesses, remote, layout
        sets = burst.sets
        if len(sets) == 1:
            result = yield ProbeSet(
                burst.buffer, sets[0], parallel=burst.parallel,
                issue_gap=burst.issue_gap,
            )
            row, hit_row = result.latencies, result.hits
        else:
            result = yield ProbeEpoch(
                burst.buffer, sets, parallel=burst.parallel,
                issue_gap=burst.issue_gap,
            )
            row = [lat for per_set in result.set_latencies for lat in per_set]
            hit_row = [hit for per_set in result.set_hits for hit in per_set]
        bursts += 1
        accesses += len(row)
        remote = remote or result.remote
        if record:
            if layout is None:
                counts = np.asarray([len(s) for s in sets], dtype=np.int64)
                offsets = np.cumsum(counts) - counts
                set_starts = np.zeros(len(sets), dtype=np.float64)
                if burst.parallel:
                    set_starts = offsets.astype(np.float64) * burst.issue_gap
                layout = (counts, offsets, set_starts)
            elif len(row) != len(lats[0]):
                raise SimulationError(
                    "recorded epoch bursts must share one set layout; "
                    "use record=False for heterogeneous plans"
                )
            starts.append(start)
            lats.append(row)
            hits.append(hit_row)
            totals.append(result.total_latency)
        return start + result.total_latency

    round_index = 0
    while op.rounds is None or round_index < op.rounds:
        for _ in range(op.round_reads):
            clock = yield ReadClock()
        if round_index == 0:
            begin = clock
            duration = getattr(op, "duration_cycles", None)
            if duration is not None and (horizon is None or begin + duration < horizon):
                horizon = begin + duration
        if horizon is not None and clock >= horizon:
            break
        if stop_flag is not None and stop_at is None and len(stop_flag):
            stop_at = clock + op.grace_cycles
        if stop_at is not None and clock >= stop_at:
            break
        round_start = clock
        for seg in op.segments:
            kind = type(seg)
            if kind is EpochBurst:
                clock = yield from access_burst(seg, clock)
            elif kind is LinkBurst:
                result = yield LinkProbe(
                    seg.dst_gpu, seg.num_transfers, seg.gap_cycles, seg.wait
                )
                bursts += 1
                accesses += seg.num_transfers
                if seg.record:
                    if lats and len(result.latencies) != len(lats[0]):
                        raise SimulationError(
                            "recorded link-epoch bursts must share one width; "
                            "use record=False for heterogeneous plans"
                        )
                    starts.append(clock)
                    lats.append(result.latencies)
                clock += result.total_latency
            elif kind is EpochIdle:
                if seg.cycles:
                    yield idle(seg.cycles)
                    clock += seg.cycles
                if seg.until is not None:
                    target = round_start + seg.until
                    while True:
                        clock = yield ReadClock()
                        remaining = target - clock
                        if remaining <= 0:
                            break
                        step = remaining if remaining < seg.chunk else seg.chunk
                        yield Compute(step)
                        clock += step
            elif kind is EpochRepeat:
                target = round_start + seg.until
                while True:
                    clock = yield ReadClock()
                    if clock + seg.margin > target:
                        break
                    clock = yield from access_burst(seg.burst, clock)
            elif kind is LinkFlood:
                window = seg.burst_cycles
                if horizon is not None:
                    window = min(window, horizon - clock)
                count = max(1, int(window / seg.occupancy_per_transfer))
                result = yield LinkProbe(
                    seg.dst_gpu, count, seg.gap_cycles, wait=False
                )
                bursts += 1
                accesses += count
                clock += result.total_latency
                hold = max(
                    count * seg.occupancy_per_transfer - count * seg.gap_cycles,
                    0.0,
                )
                if hold > 0.0:
                    yield Sleep(hold)
                    clock += hold
            else:  # LinkPad: _check_plan admits nothing else
                target = round_start + seg.until
                clock = yield ReadClock()
                if target > clock:
                    yield Sleep(target - clock)
                    clock += target - clock
        if op.period is not None:
            if op.round_reads:
                clock = yield ReadClock()
            remaining = op.period - (clock - round_start)
            if remaining > 0:
                yield Compute(remaining)
                clock += remaining
        round_index += 1
    return _outcome(
        link, layout, starts, lats, hits, totals, remote, bursts, accesses,
        begin, clock,
    )
