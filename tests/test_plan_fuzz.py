"""Plan-level differential fuzz: the epoch cursors against ``unroll``.

Hypothesis draws whole :class:`~repro.sim.ops.AccessEpoch` and
:class:`~repro.sim.ops.LinkEpoch` plans and runs each under both dispatch
modes on the same box, backend and seed: the cursor services the plan in
bulk, ``Runtime(epoch_dispatch=False)`` lowers it to per-op dispatch with
:func:`repro.sim.epoch.unroll`.  Outcomes, stream clocks, ``engine.now``,
GPU counters and the fabric's ``counters_snapshot()`` must be equal.

The module also pins the op streams ``unroll`` yields for the attack
plans, the queued-cycles booking order, the spy's staging ring, and one
known tie-order defect.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import DGXSpec
from repro.core.covert.channel import CovertChannel
from repro.core.covert.encoding import text_to_bits
from repro.core.covert.spy import spy_probe_kernel
from repro.core.covert.trojan import trojan_send_kernel
from repro.core.eviction import EvictionSet
from repro.core.linkchannel.covert import link_trojan_kernel
from repro.core.linkchannel.probe import link_flood_kernel
from repro.runtime.api import Runtime, _per_op
from repro.sim.ops import (
    AccessEpoch,
    Compute,
    EpochBurst,
    EpochIdle,
    EpochRepeat,
    EpochResult,
    LinkBurst,
    LinkEpoch,
    LinkFlood,
    LinkPad,
    LinkProbe,
    LinkProbeResult,
    ProbeEpoch,
    ProbeResult,
    ProbeSet,
    ReadClock,
    SharedStore,
    Sleep,
)

BUFFER_LINES = 96

FUZZ = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# Two arms of one box
# ----------------------------------------------------------------------
def _arm(epochs: bool, backend: str = "vectorized", seed: int = 23):
    rt = Runtime(
        DGXSpec.small().with_l2_backend(backend), seed=seed, epoch_dispatch=epochs
    )
    proc = rt.create_process("fuzz")
    rt.enable_peer_access(proc, 0, 1)
    rt.enable_peer_access(proc, 1, 0)
    buffers = [rt.malloc_lines(proc, gpu, BUFFER_LINES) for gpu in (0, 1)]
    return rt, proc, buffers


def _outcome_key(outcome):
    arrays = [
        getattr(outcome, name).tolist()
        for name in (
            "starts", "latencies", "hits", "totals",
            "set_counts", "set_offsets", "set_starts",
        )
        if hasattr(outcome, name)
    ]
    extra = getattr(outcome, "accesses", getattr(outcome, "transfers", None))
    return (
        type(outcome).__name__, arrays, getattr(outcome, "remote", True),
        outcome.bursts, extra, outcome.begin, outcome.end,
    )


def _box_state(rt: Runtime):
    return (
        rt.engine.now,
        [g.counters.snapshot() for g in rt.system.gpus],
        rt.system.interconnect.counters_snapshot(),
    )


def _run(epochs, streams, backend="vectorized", seed=23):
    """Launch ``(builder, gpu, start)`` streams on one arm; returns every
    observable the two arms must agree on."""
    rt, proc, buffers = _arm(epochs, backend, seed)

    def kernel(plan):
        return (yield plan)

    handles = [
        rt.launch(kernel(build(buffers)), gpu, proc, start=start)
        for build, gpu, start in streams
    ]
    rt.synchronize()
    return (
        [(h.clock, _outcome_key(h.result)) for h in handles],
        _box_state(rt),
    )


def _assert_arms_agree(streams, backend="vectorized"):
    assert _run(True, streams, backend) == _run(False, streams, backend)


# ----------------------------------------------------------------------
# Strategies over whole plans
# ----------------------------------------------------------------------
def _multiples(step: float, top: int):
    return st.integers(0, top).map(lambda k: k * step)


_burst_shape = st.tuples(
    st.lists(
        st.lists(st.integers(0, BUFFER_LINES - 1), min_size=1, max_size=40),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),  # parallel
    st.integers(0, 1),  # home GPU of the probed buffer
)

_access_segment = st.one_of(
    st.tuples(st.just("burst"), st.integers(0, 1)),
    st.tuples(st.just("idle"), st.sampled_from([1.0, 6.0, 250.0, 1234.5])),
    st.tuples(
        st.just("wait"), _multiples(250.0, 40), st.sampled_from([50.0, 200.0, 1000.0])
    ),
    st.tuples(
        st.just("repeat"), st.integers(0, 1), _multiples(250.0, 24),
        st.sampled_from([0.0, 120.0, 600.0]),
    ),
)


@st.composite
def access_plans(draw):
    """A builder for one AccessEpoch over the arm's two buffers."""
    shapes = draw(st.lists(_burst_shape, min_size=1, max_size=2))
    record = draw(st.booleans())
    if record:
        # Recorded bursts must share one layout.
        shapes = shapes[:1]
    segments = draw(st.lists(_access_segment, min_size=1, max_size=4))
    rounds = draw(st.integers(1, 3))
    period = draw(st.none() | _multiples(500.0, 30))
    end_after = draw(st.none() | _multiples(1000.0, 20))
    wpl = DGXSpec.small().gpu.cache.line_size // 8

    def build(buffers, start=0.0):
        bursts = [
            EpochBurst(
                buffers[home],
                tuple(tuple(line * wpl for line in lines) for lines in sets),
                parallel=parallel,
            )
            for sets, parallel, home in shapes
        ]
        plan_segments = []
        for seg in segments:
            if seg[0] == "burst":
                plan_segments.append(bursts[seg[1] % len(bursts)])
            elif seg[0] == "idle":
                plan_segments.append(EpochIdle(cycles=seg[1]))
            elif seg[0] == "wait":
                plan_segments.append(EpochIdle(until=seg[1], chunk=seg[2]))
            else:
                plan_segments.append(
                    EpochRepeat(
                        bursts[seg[1] % len(bursts)], until=seg[2], margin=seg[3]
                    )
                )
        return AccessEpoch(
            tuple(plan_segments),
            rounds=rounds,
            period=period,
            end_time=None if end_after is None else start + end_after,
            record=record,
        )

    return build


_link_segment = st.one_of(
    st.tuples(
        st.just("burst"), st.integers(1, 12), st.sampled_from([0.0, 1.0, 5.0]),
        st.booleans(),
    ),
    st.tuples(
        st.just("flood"), st.sampled_from([2.5, 5.0]), st.sampled_from([300.0, 2500.0])
    ),
    st.tuples(st.just("pad"), _multiples(250.0, 40)),
    st.tuples(st.just("idle"), st.sampled_from([1.0, 400.0, 1234.5])),
)


@st.composite
def link_plans(draw, gpu: int = 0):
    """A builder for one LinkEpoch toward the other GPU."""
    segments = draw(st.lists(_link_segment, min_size=1, max_size=4))
    record = draw(st.booleans())
    by_duration = draw(st.booleans())
    rounds = None if by_duration else draw(st.integers(1, 3))
    duration = draw(_multiples(500.0, 12).map(lambda c: c + 500.0)) if by_duration else None
    # An unbounded plan pads every round to >= 500 cycles so it ends soon.
    period = draw(
        _multiples(500.0, 8).map(lambda p: p + 500.0)
        if by_duration
        else st.none() | _multiples(500.0, 8)
    )
    end_after = draw(st.none() | _multiples(1000.0, 20))
    dst = 1 - gpu
    width = next((seg[1] for seg in segments if seg[0] == "burst"), None)

    def build(_buffers, start=0.0):
        plan_segments = []
        for seg in segments:
            if seg[0] == "burst":
                # Recorded bursts must share one width.
                count = width if record else seg[1]
                plan_segments.append(
                    LinkBurst(dst, count, seg[2], seg[3], record=record)
                )
            elif seg[0] == "flood":
                plan_segments.append(
                    LinkFlood(dst, seg[1], burst_cycles=seg[2])
                )
            elif seg[0] == "pad":
                plan_segments.append(LinkPad(until=seg[1]))
            else:
                plan_segments.append(EpochIdle(cycles=seg[1]))
        return LinkEpoch(
            tuple(plan_segments),
            rounds=rounds,
            period=period,
            end_time=None if end_after is None else start + end_after,
            duration_cycles=duration,
        )

    return build


def _plans(gpu: int):
    return st.one_of(access_plans(), link_plans(gpu))


# ----------------------------------------------------------------------
# Fuzz
# ----------------------------------------------------------------------
@settings(FUZZ, max_examples=250)
@given(
    build=_plans(0),
    backend=st.sampled_from(["vectorized", "scalar"]),
    start=_multiples(125.0, 8),
)
def test_single_stream_plans_agree(build, backend, start):
    _assert_arms_agree(
        [(lambda buffers: build(buffers, start), 0, start)], backend
    )


@st.composite
def _streams(draw):
    count = draw(st.integers(2, 4))
    slots = draw(
        st.lists(st.integers(0, 40), min_size=count, max_size=count, unique=True)
    )
    streams = []
    for index, slot in enumerate(slots):
        gpu = draw(st.integers(0, 1))
        build = draw(_plans(gpu))
        # Distinct offsets with distinct binary fractions: no two streams
        # ever pad to one absolute instant, which would hit the tie defect
        # pinned below.
        start = slot * 250.0 + (index + 1) * 0.0625
        streams.append(
            (lambda buffers, b=build, s=start: b(buffers, s), gpu, start)
        )
    return streams


@settings(FUZZ, max_examples=80)
@given(streams=_streams())
def test_concurrent_streams_agree(streams):
    _assert_arms_agree(streams)


def test_queued_cycles_booked_in_transfer_order():
    """Every fabric walk books a hop's waits one at a time, in transfer
    order.  Booking the wide walk's per-hop sum instead leaves
    ``3599.999999999999`` queued cycles here against the reference's
    ``3600.0``, which ``counters_snapshot()`` truncates to 3599 and 3600."""

    def run(epochs, backend):
        rt, proc, _buffers = _arm(epochs, backend)
        remote = rt.malloc_lines(proc, 1, 32)
        rt.system.interconnect.degrade_link((0, 1), 1.5)

        def kernel():
            yield LinkEpoch((LinkBurst(1, 1, 0.0, True, record=True),))
            wpl = rt.system.spec.gpu.cache.line_size // 8
            sweep = tuple(line * wpl for line in range(32))
            yield AccessEpoch((EpochBurst(remote, (sweep,), parallel=False),))

        rt.run_kernel(kernel(), 0, proc)
        return rt.system.interconnect._queued_cycles[frozenset((0, 1))]

    booked = run(True, "vectorized")
    assert booked == run(False, "scalar") == 3600.0


@pytest.mark.xfail(
    strict=True,
    reason="streams queued at one instant with different clock-read "
    "lead-ins pop in a different order under the cursor (ROADMAP item 4)",
)
def test_same_instant_streams_with_different_lead_ins():
    def run(epochs):
        rt = Runtime(DGXSpec.small(), seed=5, epoch_dispatch=epochs)
        proc = rt.create_process("tie")
        rt.enable_peer_access(proc, 0, 1)
        buf = rt.malloc_lines(proc, 1, 256)
        burst = EpochBurst(buf, ((0,), (0,), (0,)), parallel=False)

        def access():
            return (
                yield AccessEpoch(
                    (EpochRepeat(burst, until=100.0),), record=False
                )
            )

        def link():
            return (yield LinkEpoch((LinkBurst(1, num_transfers=1, wait=False),)))

        first = rt.launch(access(), 0, proc, start=0.0)
        rt.launch(link(), 0, proc, start=0.0)
        rt.synchronize()
        return first.clock

    assert run(True) == run(False)


# ----------------------------------------------------------------------
# Op-stream pins: the per-op form of each attack plan, written out by hand
# ----------------------------------------------------------------------
def _drive(kernel, probe_cycles=300.0, link_latency=700.0):
    """Run ``kernel`` with its plans lowered by ``unroll`` (as a per-op
    runtime launches it) on a fake clock; returns the op types in order,
    the LinkProbe sizes and the final clock."""
    ops, sizes = [], []
    clock = 0.0
    result = None
    stream = _per_op(kernel)
    while True:
        try:
            op = stream.send(result)
        except StopIteration:
            return ops, sizes, clock
        ops.append(type(op).__name__)
        latency = 0.0
        if type(op) is ReadClock:
            result = clock
        elif type(op) in (Compute, Sleep):
            latency, result = op.cycles, None
        elif type(op) is ProbeSet:
            lines = len(op.indices)
            latency = probe_cycles
            result = ProbeResult([100.0] * lines, [True] * lines, latency, True)
        elif type(op) is ProbeEpoch:
            latency = probe_cycles
            result = EpochResult(
                tuple((100.0,) * len(s) for s in op.sets),
                tuple((True,) * len(s) for s in op.sets),
                tuple(4.0 * i for i in range(len(op.sets))),
                (probe_cycles,) * len(op.sets),
                latency,
                True,
            )
        else:
            assert type(op) is LinkProbe
            sizes.append(op.num_transfers)
            n = op.num_transfers
            latency = link_latency if op.wait else max(n * op.gap_cycles, 1.0)
            result = LinkProbeResult((link_latency,) * n, (0.0,) * n, latency, 1)
        clock += latency


R, PS, PE, C, S, LP = (
    "ReadClock", "ProbeSet", "ProbeEpoch", "Compute", "Sleep", "LinkProbe"
)


def _eviction_set():
    return EvictionSet(buffer=object(), indices=(0, 16, 32, 48), set_id=0)


def test_trojan_frame_op_stream():
    # Slot 0 ('1', edge 1000): prime while now + 120 <= 1000, then wait
    # out 100 cycles.  Slot 1 ('0', edge 2000): five 200-cycle chunks.
    # Every wait loop ends on the read that finds the edge reached.
    ops, _, clock = _drive(trojan_send_kernel(_eviction_set(), [1, 0], 1000.0))
    assert ops == (
        [R]
        + [R, PS] * 3 + [R]
        + [R, C, R]
        + [R] + [C, R] * 5
    )
    assert clock == 2000.0


def test_spy_plan_op_stream():
    # The two staging stores become 6-cycle idles; the ring is replayed
    # from the outcome.
    shared = type("Shared", (), {"data": [0.0] * 8})()
    ops, _, clock = _drive(spy_probe_kernel(_eviction_set(), 2, shared))
    assert ops == [R, PS, C, C] * 2
    assert clock == 2 * (300.0 + 2 * SharedStore.cost_cycles)
    assert shared.data[:4] == [0.0, 100.0, 312.0, 100.0]


def test_prober_sweep_ends_on_end_time():
    burst = EpochBurst(object(), ((0, 16), (32, 48)))
    plan = AccessEpoch(
        (burst,), rounds=None, period=1000.0, end_time=2500.0, stop_flag=[],
        grace_cycles=5000.0,
    )

    def kernel():
        return (yield plan)

    ops, _, clock = _drive(kernel())
    assert ops == [R, PE, R, C] * 3 + [R]
    assert clock == 3000.0


def test_link_trojan_frame_op_stream():
    ops, sizes, clock = _drive(link_trojan_kernel(1, [1, 0], 3000.0, 5.0))
    assert ops == [R, LP, R, S, R, S]
    assert sizes == [528]  # int(3000 * 0.88 / 5)
    assert clock == 6000.0


def test_flood_op_stream():
    ops, sizes, clock = _drive(link_flood_kernel(1, 6000.0, 2.5))
    assert ops == [R, LP, S] * 3 + [R]
    # The last window is clipped to the 1000 cycles left.
    assert sizes == [1000, 1000, 400]
    assert clock == 6000.0


# ----------------------------------------------------------------------
# Staging ring
# ----------------------------------------------------------------------
@pytest.mark.parametrize("epochs", [True, False], ids=["cursor", "unroll"])
def test_staging_ring_holds_last_samples(epochs):
    rt = Runtime(DGXSpec.small(), seed=7, epoch_dispatch=epochs)
    channel = CovertChannel(rt, trojan_gpu=0, spy_gpu=1)
    channel.setup(num_sets=2)
    result = channel.transmit(text_to_bits("Hi!"), slot_cycles=3000.0)
    for index, trace in enumerate(result.traces):
        ring = channel.spy.shared_buffer(f"spy_stage_{index}", 512).data
        pairs = len(ring) // 2
        samples = list(zip(trace.times, trace.latencies))
        assert samples
        first = max(0, len(samples) - pairs)
        written = set()
        for position in range(first, len(samples)):
            slot = 2 * (position % pairs)
            assert (ring[slot], ring[slot + 1]) == samples[position]
            written.add(slot)
        for slot in range(0, len(ring), 2):
            if slot not in written:
                assert ring[slot] == ring[slot + 1] == 0.0
