"""Discrete-event engine driving kernel coroutines against the hardware.

Kernels are generators (see :mod:`repro.sim.ops`).  Each launched kernel
becomes a *stream* with its own clock; the engine always advances the stream
with the earliest clock, so trojan, spy and victim kernels interleave in
global time order exactly as concurrent kernels on different GPUs would.

One deliberate approximation: a :class:`~repro.sim.ops.ProbeSet` (a whole
eviction-set traversal) executes atomically at its start time instead of
line-by-line against other streams.  A traversal spans ~10k cycles, which is
the granularity at which the paper's own measurements operate; the payoff is
an order of magnitude fewer heap events at memorygram scale.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from ..errors import SimulationError
from .epoch import EpochCursor
from .ops import (
    Access,
    AccessEpoch,
    Compute,
    Fence,
    LinkEpoch,
    LinkProbe,
    ProbeEpoch,
    ProbeResult,
    ProbeSet,
    ReadClock,
    SharedStore,
    Sleep,
    Store,
)
from .process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.system import MultiGPUSystem
    from ..telemetry.tracer import Tracer

__all__ = ["Engine", "EngineStats", "StreamHandle"]

Kernel = Generator[Any, Any, Any]


@dataclass
class EngineStats:
    """Throughput instrumentation for one engine (the perf baseline).

    ``events`` counts engine-loop dispatches (one per yielded op);
    ``accesses`` counts simulated memory accesses serviced, which is the
    quantity the performance benches report as events/sec -- a probe
    epoch is one event but hundreds of accesses.  ``wall_seconds``
    accumulates real time spent inside :meth:`Engine.run`.
    """

    events: int = 0
    accesses: int = 0
    wall_seconds: float = 0.0
    sim_cycles: float = 0.0
    #: Epoch-level counters: ``epochs`` dispatched, bursts/accesses they
    #: serviced, and how many bursts fell back to the scalar L2 core --
    #: a regression to per-event dispatch shows up here before it shows
    #: up in wall time.
    epochs: int = 0
    epoch_bursts: int = 0
    epoch_accesses: int = 0
    scalar_fallbacks: int = 0
    #: L2 access plans the system's epoch plan cache built: one per
    #: prober block per recording when the cache holds, more when it
    #: silently thrashes.
    plan_builds: int = 0
    #: Trace events lost to ring overwrite while a tracer was attached
    #: (instrumentation overhead the trace itself cannot show) -- updated
    #: at the end of every :meth:`Engine.run` window.
    trace_dropped: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)

    def count_op(self, op_name: str, accesses: int = 0) -> None:
        self.events += 1
        self.accesses += accesses
        self.op_counts[op_name] = self.op_counts.get(op_name, 0) + 1

    def count_epoch(self, bursts: int, accesses: int, scalar_bursts: int) -> None:
        self.epochs += 1
        self.epoch_bursts += bursts
        self.epoch_accesses += accesses
        self.scalar_fallbacks += scalar_bursts

    def _per_sec(self, count: int) -> float:
        # Zero/negative wall time (a run too short for the perf counter to
        # tick, or a freshly reset stats object) yields 0.0, never a
        # ZeroDivisionError or inf.
        if self.wall_seconds <= 0.0:
            return 0.0
        return count / self.wall_seconds

    @property
    def events_per_sec(self) -> float:
        return self._per_sec(self.events)

    @property
    def accesses_per_sec(self) -> float:
        return self._per_sec(self.accesses)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view of the stats (manifests, perf trajectory)."""
        return {
            "events": self.events,
            "accesses": self.accesses,
            "wall_seconds": self.wall_seconds,
            "sim_cycles": self.sim_cycles,
            "events_per_sec": self.events_per_sec,
            "accesses_per_sec": self.accesses_per_sec,
            "epochs": self.epochs,
            "epoch_bursts": self.epoch_bursts,
            "epoch_accesses": self.epoch_accesses,
            "accesses_per_epoch": (
                self.epoch_accesses / self.epochs if self.epochs else 0.0
            ),
            "scalar_fallbacks": self.scalar_fallbacks,
            "plan_builds": self.plan_builds,
            "trace_dropped": self.trace_dropped,
            "op_counts": dict(self.op_counts),
        }

    def reset(self) -> None:
        self.events = 0
        self.accesses = 0
        self.wall_seconds = 0.0
        self.sim_cycles = 0.0
        self.epochs = 0
        self.epoch_bursts = 0
        self.epoch_accesses = 0
        self.scalar_fallbacks = 0
        self.plan_builds = 0
        self.trace_dropped = 0
        self.op_counts.clear()

    def summary(self) -> str:
        return (
            f"{self.events} events / {self.accesses} accesses in "
            f"{self.wall_seconds:.3f}s wall "
            f"({self.accesses_per_sec:,.0f} accesses/s, "
            f"{self.sim_cycles:,.0f} simulated cycles)"
        )


class StreamHandle:
    """One running kernel (one thread block's worth of activity)."""

    __slots__ = (
        "name",
        "gpu_id",
        "process",
        "generator",
        "clock",
        "done",
        "result",
        "pending",
        "placement",
        "cursor",
    )

    def __init__(
        self,
        name: str,
        gpu_id: int,
        process: Process,
        generator: Kernel,
        start: float,
    ) -> None:
        self.name = name
        self.gpu_id = gpu_id
        self.process = process
        self.generator = generator
        self.clock = start
        self.done = False
        self.result: Any = None
        self.pending: Any = None
        self.placement = None
        #: In-flight :class:`~repro.sim.epoch.EpochCursor`, when the
        #: stream's current op is an AccessEpoch or LinkEpoch being
        #: advanced in bulk.
        self.cursor: Optional[EpochCursor] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else f"t={self.clock:.0f}"
        return f"StreamHandle({self.name!r}, gpu={self.gpu_id}, {state})"


class Engine:
    """Event loop multiplexing kernel streams over a :class:`MultiGPUSystem`."""

    def __init__(self, system: "MultiGPUSystem") -> None:
        self.system = system
        self.now: float = 0.0
        self.stats = EngineStats()
        #: Nullable telemetry hook (see :mod:`repro.telemetry`): when None
        #: the event loop pays a single branch per dispatch.
        self.tracer: Optional["Tracer"] = None
        #: Nullable fault-injection hook (see :mod:`repro.chaos`): same
        #: contract as the tracer -- one branch per dispatch when absent.
        self.chaos = None
        #: Nullable aggregated-metrics hook
        #: (:class:`repro.telemetry.metrics.AttackMetrics`): same contract.
        self.metrics = None
        #: Nullable epoch-profiler hook
        #: (:class:`repro.telemetry.profiler.EpochProfiler`): called once
        #: per cursor resume, never per access.
        self.profiler = None
        self._heap: List = []
        self._seq = 0
        self._events = 0

    # ------------------------------------------------------------------
    # Launch / run
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: Kernel,
        gpu_id: int,
        process: Process,
        name: str = "kernel",
        shared_mem: int = 0,
        start: Optional[float] = None,
    ) -> StreamHandle:
        """Queue a kernel on ``gpu_id``; it begins at ``start`` (default now).

        ``shared_mem`` reserves per-block shared memory on an SM under the
        leftover policy; the reservation is released when the kernel ends.
        """
        if not 0 <= gpu_id < len(self.system.gpus):
            raise SimulationError(f"no GPU {gpu_id} in this system")
        begin = self.now if start is None else float(start)
        handle = StreamHandle(name, gpu_id, process, kernel, begin)
        handle.placement = self.system.gpus[gpu_id].sms.place_block(shared_mem)
        self._push(handle)
        if self.tracer is not None:
            self.tracer.kernel_event("launch", handle, begin)
        if self.metrics is not None:
            self.metrics.count_kernel("launch", gpu_id)
        return handle

    def _push(
        self, handle: StreamHandle, lead: int = 0, since: Optional[float] = None
    ) -> None:
        """Queue ``handle`` at its clock.

        Entries sort by ``(when, lead, since, seq)``.  ``since`` is the
        simulation time of the push and ``lead`` the number of
        zero-latency ops the stream will run before its next
        resource-touching op.  For scalar dispatch both default
        (``lead=0``, ``since=now``) and the ordering collapses to the
        plain FIFO ``(when, seq)`` tie-break, because push times are
        non-decreasing in ``seq``.  Epoch cursors supply the values their
        scalar twin would have had, so streams suspended at the *same*
        instant (trojans padded to one slot grid) pop in the oracle's
        round-robin order: earliest last activity first, one zero-op per
        turn.
        """
        since_key = self.now if since is None else since
        heapq.heappush(self._heap, (handle.clock, lead, since_key, self._seq, handle))
        self._seq += 1

    def run(self, until: Optional[float] = None, max_events: int = 200_000_000) -> float:
        """Advance until all streams finish (or ``until`` cycles).

        Returns the final simulation time.
        """
        heap = self._heap
        stats = self.stats
        tracer = self.tracer
        chaos = self.chaos
        metrics = self.metrics
        profiler = self.profiler
        started_at = self.now
        plans_before = self.system.plan_builds
        wall_start = time.perf_counter()
        inf = float("inf")
        try:
            while heap:
                when, _lead, _since, _seq, handle = heap[0]
                if until is not None and when > until:
                    break
                heapq.heappop(heap)
                self.now = when
                # Faults scheduled at or before ``when`` land before the op
                # dispatched at ``when`` -- the injector may reshuffle the
                # heap (preemption) or mutate the hardware under the op.
                if chaos is not None:
                    chaos.advance(when)
                self._events += 1
                if self._events > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway kernel "
                        f"{handle.name!r}?"
                    )
                cursor = handle.cursor
                if cursor is None:
                    try:
                        op = handle.generator.send(handle.pending)
                    except StopIteration as stop:
                        handle.done = True
                        handle.result = stop.value
                        self._release(handle)
                        if tracer is not None:
                            tracer.kernel_event("end", handle, when)
                        if metrics is not None:
                            metrics.count_kernel("end", handle.gpu_id)
                        continue
                    if type(op) is AccessEpoch or type(op) is LinkEpoch:
                        cursor = EpochCursor(op, handle, self.system, when)
                        handle.cursor = cursor
                        handle.pending = None
                    else:
                        if metrics is None:
                            latency, result = self._execute(op, handle, when)
                        else:
                            before = stats.accesses
                            latency, result = self._execute(op, handle, when)
                            metrics.count_op(
                                type(op).__name__, stats.accesses - before
                            )
                        if tracer is not None:
                            tracer.op_event(op, handle, when, latency)
                        handle.clock = when + latency
                        handle.pending = result
                        self._push(handle)
                        continue
                # Epoch path: advance the cursor until the next foreign
                # event (or scheduled fault, or the run horizon) would
                # interleave, then re-queue the stream at its new clock.
                deadline = heap[0][0] if heap else inf
                if until is not None and until < deadline:
                    deadline = until
                if chaos is not None:
                    due = chaos.next_due()
                    if due < deadline:
                        deadline = due
                if profiler is None:
                    finished = cursor.resume(when, deadline)
                else:
                    resume_wall = time.perf_counter()
                    finished = cursor.resume(when, deadline)
                    profiler.record_resume(
                        handle,
                        cursor,
                        when,
                        time.perf_counter() - resume_wall,
                        finished,
                    )
                op_name = type(cursor.op).__name__
                stats.count_op(op_name, cursor.resumed_accesses)
                if metrics is not None:
                    metrics.count_op(op_name, cursor.resumed_accesses)
                    metrics.count_epoch_resume(
                        cursor.resumed_bursts, cursor.resumed_accesses
                    )
                if tracer is not None:
                    tracer.op_event(cursor.op, handle, when, cursor.clock - when)
                handle.clock = cursor.clock
                if finished:
                    stats.count_epoch(
                        cursor.bursts, cursor.accesses, cursor.scalar_bursts
                    )
                    if metrics is not None:
                        metrics.count_epoch_done(cursor)
                    handle.pending = cursor.take_outcome()
                    handle.cursor = None
                    self._push(handle)
                else:
                    # Suspended mid-epoch: queue with the FIFO tie key the
                    # scalar twin's last push would have carried.
                    self._push(handle, cursor.key_lead, cursor.key_since)
        finally:
            stats.wall_seconds += time.perf_counter() - wall_start
            stats.sim_cycles += self.now - started_at
            stats.plan_builds += self.system.plan_builds - plans_before
            if tracer is not None:
                stats.trace_dropped = tracer.events.overwritten
            if metrics is not None:
                metrics.on_run_end(self.now, stats)
        return self.now

    def _release(self, handle: StreamHandle) -> None:
        if handle.placement is not None:
            self.system.gpus[handle.gpu_id].sms.release_block(handle.placement)
            handle.placement = None

    # ------------------------------------------------------------------
    # Op execution
    # ------------------------------------------------------------------
    def _execute(self, op: Any, handle: StreamHandle, now: float):
        system = self.system
        stats = self.stats
        if type(op) is Access:
            stats.count_op("Access", 1)
            result = system.access_word(
                handle.process,
                op.buffer,
                op.index,
                handle.gpu_id,
                now,
                through_l1=op.through_l1,
            )
            return result.latency, result
        if type(op) is ProbeSet:
            stats.count_op("ProbeSet", len(op.indices))
            return self._execute_probe(op, handle, now)
        if type(op) is ProbeEpoch:
            stats.count_op("ProbeEpoch", sum(len(s) for s in op.sets))
            return self._execute_epoch(op, handle, now)
        if type(op) is LinkProbe:
            stats.count_op("LinkProbe", op.num_transfers)
            result = system.probe_link(
                handle.process,
                op.dst_gpu,
                handle.gpu_id,
                now,
                num_transfers=op.num_transfers,
                gap_cycles=op.gap_cycles,
                wait=op.wait,
            )
            return result.total_latency, result
        if type(op) is Compute:
            stats.count_op("Compute")
            return float(op.cycles), None
        if type(op) is SharedStore:
            stats.count_op("SharedStore")
            op.buffer.data[op.index] = op.value
            return float(op.cost_cycles), None
        if type(op) is Store:
            stats.count_op("Store", 1)
            op.buffer.store(op.index, op.value)
            result = system.access_word(
                handle.process, op.buffer, op.index, handle.gpu_id, now, is_write=True
            )
            # Like Access, the stream resumes with the full AccessResult
            # (the latency alone used to be sent back, making the two
            # memory ops inconsistent to kernel code).
            return result.latency, result
        if type(op) is Fence:
            stats.count_op("Fence")
            return float(system.timing.fence_cycles), None
        if type(op) is Sleep:
            stats.count_op("Sleep")
            return float(op.cycles), None
        if type(op) is ReadClock:
            stats.count_op("ReadClock")
            return 0.0, handle.clock
        raise SimulationError(f"kernel {handle.name!r} yielded unknown op {op!r}")

    def _execute_epoch(self, op: ProbeEpoch, handle: StreamHandle, now: float):
        # Like ProbeSet, the whole epoch executes atomically at its start
        # time; per-set start offsets in the result let the prober place
        # samples on the time axis without one event per set.
        epoch = self.system.access_epoch(
            handle.process,
            op.buffer,
            op.sets,
            handle.gpu_id,
            now,
            parallel=op.parallel,
            issue_gap=op.issue_gap,
        )
        return epoch.total_latency, epoch

    def _execute_probe(self, op: ProbeSet, handle: StreamHandle, now: float):
        # In parallel (warp) mode access i issues at now + i*gap and the
        # total is the slowest completion; in sequential (pointer-chase)
        # mode latencies accumulate but every access is *stamped* at the
        # probe's start time for the resource-occupancy models: the probe
        # executes atomically, and stamping its internal accesses at their
        # "real" future times would make interleaved streams (whose events
        # sort earlier) queue behind reservations made in their future.
        latencies, hits, total, remote = self.system.access_batch(
            handle.process,
            op.buffer,
            op.indices,
            handle.gpu_id,
            now,
            parallel=op.parallel,
            issue_gap=op.issue_gap,
        )
        probe = ProbeResult(
            latencies=latencies, hits=hits, total_latency=total, remote=remote
        )
        return total, probe

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Drop all queued streams (abandoning their kernels)."""
        while self._heap:
            _when, _lead, _since, _seq, handle = heapq.heappop(self._heap)
            self._release(handle)

    @property
    def pending_streams(self) -> int:
        return len(self._heap)


def run_kernels(
    system: "MultiGPUSystem",
    launches: List,
    until: Optional[float] = None,
) -> List[StreamHandle]:
    """Convenience: launch ``(kernel, gpu_id, process, name)`` tuples and run."""
    engine = Engine(system)
    handles = [
        engine.launch(kernel, gpu_id, process, name=name)
        for (kernel, gpu_id, process, name) in launches
    ]
    engine.run(until=until)
    return handles
