"""Differential suite: the epoch engine against its scalar oracle.

The columnar epoch engine services whole :class:`~repro.sim.ops.AccessEpoch`
plans in bulk; the per-op coroutine path (``Runtime(epoch_dispatch=False)``
plus the scalar L2 backend) is kept as the reference model.  Every test
here runs the same attack twice -- once per arm -- and requires *bitwise*
identical observables: decoded bits, probe traces, memorygram grids,
hardware counters, staging rings, and the final simulation clock.  Any
drift means the epoch fast path changed simulated physics, not just speed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos.injector import remap_buffer_page
from repro.config import DGXSpec
from repro.core.covert.channel import CovertChannel
from repro.core.covert.encoding import text_to_bits
from repro.core.sidechannel.prober import MemorygramProber
from repro.runtime.api import Runtime
from repro.sim.ops import AccessEpoch, EpochBurst, ProbeEpoch, ReadClock
from repro.workloads.registry import make_workload


def _gpu_counters(rt: Runtime):
    return [
        (
            g.counters.l2_hits,
            g.counters.l2_misses,
            g.counters.l2_evictions,
            g.counters.dram_reads,
            g.counters.remote_requests_in,
        )
        for g in rt.system.gpus
    ]


# ----------------------------------------------------------------------
# Covert channel: transmission-level equivalence
# ----------------------------------------------------------------------
def _covert_run(epoch_dispatch: bool, seed: int, num_sets: int, slot: float):
    rt = Runtime(DGXSpec.small(), seed=seed, epoch_dispatch=epoch_dispatch)
    channel = CovertChannel(rt, trojan_gpu=0, spy_gpu=1)
    channel.setup(num_sets=num_sets)
    result = channel.transmit(text_to_bits("Hi!"), slot_cycles=slot)
    return rt, channel, result


@pytest.mark.parametrize(
    "seed,num_sets,slot",
    [(7, 2, 3000.0), (7, 1, 3000.0), (1, 2, 2500.0)],
)
def test_covert_transmission_bitwise_identical(seed, num_sets, slot):
    rt_s, ch_s, scalar = _covert_run(False, seed, num_sets, slot)
    rt_e, ch_e, epoch = _covert_run(True, seed, num_sets, slot)

    assert scalar.received_bits == epoch.received_bits
    assert scalar.sent_bits == epoch.sent_bits
    assert scalar.error_rate == epoch.error_rate
    # Raw probe traces, not just decoded bits: every timestamp and every
    # latency sample must match to the last float bit.
    for trace_s, trace_e in zip(scalar.traces, epoch.traces):
        assert trace_s.times == trace_e.times
        assert trace_s.latencies == trace_e.latencies
    assert _gpu_counters(rt_s) == _gpu_counters(rt_e)
    assert rt_s.engine.now == rt_e.engine.now
    # The spy's shared-memory staging ring is architectural state the
    # paper's kernel leaves behind; the epoch replay must reproduce it.
    for index in range(num_sets):
        ring_s = ch_s.spy.shared_buffer(f"spy_stage_{index}", 512).data
        ring_e = ch_e.spy.shared_buffer(f"spy_stage_{index}", 512).data
        assert list(ring_s) == list(ring_e)


def test_covert_epoch_counters_accounted():
    rt, _, _ = _covert_run(True, 7, 2, 3000.0)
    snap = rt.engine.stats.snapshot()
    assert snap["epochs"] > 0
    assert snap["epoch_bursts"] > 0
    assert snap["epoch_accesses"] > 0
    assert snap["accesses_per_epoch"] > 1.0
    # The small box is LRU: every burst must take a fast path.
    assert snap["scalar_fallbacks"] == 0

    rt_scalar, _, _ = _covert_run(False, 7, 2, 3000.0)
    snap_scalar = rt_scalar.engine.stats.snapshot()
    assert snap_scalar["epochs"] == 0
    assert snap_scalar["epoch_bursts"] == 0


def test_epoch_bursts_fall_back_on_non_lru_backend():
    """Epoch dispatch on a scalar-backend box must still work -- through
    the reference per-access loop -- and the stats must say it did."""
    spec = DGXSpec.small().with_l2_backend("scalar")
    rt = Runtime(spec, seed=7, epoch_dispatch=True)
    channel = CovertChannel(rt, trojan_gpu=0, spy_gpu=1)
    channel.setup(num_sets=1)
    result = channel.transmit(text_to_bits("A"), slot_cycles=3000.0)
    assert result.error_rate == 0.0
    snap = rt.engine.stats.snapshot()
    assert snap["epochs"] > 0
    assert snap["scalar_fallbacks"] > 0


# ----------------------------------------------------------------------
# Memorygram: capture-level equivalence
# ----------------------------------------------------------------------
def _memorygram_run(epoch_dispatch: bool, app: str, seed: int = 3):
    rt = Runtime(DGXSpec.small(), seed=seed, epoch_dispatch=epoch_dispatch)
    prober = MemorygramProber(rt)
    prober.setup(num_sets=32)
    gram = prober.record(make_workload(app, scale=0.1, seed=seed))
    return rt, gram


@pytest.mark.parametrize("app", ["vectoradd", "histogram", "matmul"])
def test_memorygram_grid_bitwise_identical(app):
    rt_s, gram_s = _memorygram_run(False, app)
    rt_e, gram_e = _memorygram_run(True, app)
    assert gram_s.data.shape == gram_e.data.shape
    assert np.array_equal(gram_s.data, gram_e.data)
    assert gram_s.bin_cycles == gram_e.bin_cycles
    assert gram_s.start_time == gram_e.start_time
    assert _gpu_counters(rt_s) == _gpu_counters(rt_e)
    assert rt_s.engine.now == rt_e.engine.now


# ----------------------------------------------------------------------
# Epoch plan cache: generation-token keying (free/realloc regression)
# ----------------------------------------------------------------------
def test_plan_cache_rebuilt_after_free_and_realloc():
    """A freed-and-reallocated buffer must never be served another
    allocation's cached physical addresses.

    The plan cache used to key on ``id(buffer)``; CPython recycles ids,
    so a new DeviceBuffer landing on a dead one's address could inherit
    its stale epoch plan.  The key now pairs the buffer's generation
    token (never recycled) with the sets tuple, making the stale hit
    impossible by construction -- this pins the observable behaviour.
    """
    rt = Runtime(DGXSpec.small(), seed=0)
    system = rt.system
    proc = rt.create_process("p")
    sets = ((0, 8, 16, 24),)

    buf_a = rt.malloc_lines(proc, 0, 64, name="a")
    plan_a = system._epoch_plan(buf_a, sets)
    paddrs_a = plan_a.paddrs.copy()
    assert system._epoch_plan(buf_a, sets) is plan_a  # cache hit while live

    rt.free(buf_a)
    # Grab a spacer so the realloc lands on different physical frames.
    spacer = rt.malloc_lines(proc, 0, 64, name="spacer")
    buf_b = rt.malloc_lines(proc, 0, 64, name="b")
    plan_b = system._epoch_plan(buf_b, sets)
    assert plan_b is not plan_a
    assert not np.array_equal(plan_b.paddrs, paddrs_a)
    assert np.array_equal(plan_b.paddrs, buf_b.paddrs(plan_b.flat))
    rt.free(spacer)


def test_plan_cache_invalidated_by_page_remap():
    """Chaos page migration rewrites a buffer's translation mid-run; the
    cached plan must be dropped so later epochs see the new frames."""
    rt = Runtime(DGXSpec.small(), seed=0)
    system = rt.system
    proc = rt.create_process("p")
    buf = rt.malloc_lines(proc, 0, 64, name="m")
    sets = ((0, 8, 16, 24),)
    plan_before = system._epoch_plan(buf, sets)
    paddrs_before = plan_before.paddrs.copy()

    remap_buffer_page(rt, buf, 0)

    plan_after = system._epoch_plan(buf, sets)
    assert plan_after is not plan_before
    assert np.array_equal(plan_after.paddrs, buf.paddrs(plan_after.flat))
    assert not np.array_equal(plan_after.paddrs, paddrs_before)


def test_full_box_recording_builds_each_block_plan_once():
    """A fig11 capture (full DGX-1, 128 monitored sets in 16-set blocks)
    re-yields each block's sweep burst every sweep while the victim's
    one-shot bursts churn the plan cache; each block's L2 access plan is
    still built exactly once, and the engine stats say so."""
    rt = Runtime(DGXSpec.dgx1(), seed=0)
    prober = MemorygramProber(rt)
    prober.setup(num_sets=128)
    before = rt.engine.stats.snapshot()["plan_builds"]
    prober.record(make_workload("blackscholes", scale=0.25, seed=0))
    assert rt.engine.stats.snapshot()["plan_builds"] - before == 128 // 16


# ----------------------------------------------------------------------
# Raw epoch service: fused small-burst loop vs the scalar oracle
# ----------------------------------------------------------------------
ROUNDS = 6


def _burst_shapes(rt: Runtime, buf):
    """Two burst layouts aimed at the fused small-burst core.

    Both stay below the vector-width cutoff, so the epoch arm services
    them through the fused per-access loop; the first (16 accesses) also
    crosses the batched-jitter threshold, the second (6 accesses) stays
    under it.
    """
    words_per_line = rt.system.spec.gpu.cache.line_size // 8
    wide = tuple(
        tuple(w * words_per_line for w in range(start, start + 4))
        for start in range(0, 16, 4)
    )
    narrow = (tuple(w * words_per_line for w in range(16, 22)),)
    return wide, narrow


@pytest.mark.parametrize("parallel", [True, False])
@pytest.mark.parametrize("remote", [True, False])
def test_small_burst_epochs_match_scalar_oracle(parallel, remote):
    """Narrow bursts run the fused per-access loop (and, remotely, the
    inlined link walk); the same access stream through the scalar L2
    backend's reference loop must yield bitwise identical per-access
    latencies, burst totals, counters, clocks, and cache occupancy.

    The scalar twin of ``AccessEpoch((burst,), rounds=N)`` is N rounds of
    one ``ReadClock`` (``round_reads=1``) followed by one ``ProbeEpoch``
    over the same sets -- exactly the prober's per-op kernel shape.
    """

    def setup(rt: Runtime):
        proc = rt.create_process("p")
        exec_gpu = 1 if remote else 0
        if remote:
            rt.enable_peer_access(proc, exec_gpu, 0)
        buf = rt.malloc_lines(proc, 0, 128, name="b")
        return proc, exec_gpu, buf

    def occupancy(rt: Runtime):
        l2 = rt.system.gpus[0].l2
        return [
            l2.set_occupancy(s)
            for s in range(rt.system.spec.gpu.cache.num_sets)
        ]

    def run_epoch():
        rt = Runtime(DGXSpec.small(), seed=11, epoch_dispatch=True)
        proc, exec_gpu, buf = setup(rt)
        shapes = _burst_shapes(rt, buf)

        def kernel():
            outcomes = []
            for sets in shapes:
                outcomes.append(
                    (
                        yield AccessEpoch(
                            (EpochBurst(buf, sets, parallel=parallel),),
                            rounds=ROUNDS,
                        )
                    )
                )
            return outcomes

        outcomes = rt.run_kernel(kernel(), exec_gpu, proc)
        return rt, outcomes, occupancy(rt)

    def run_scalar():
        spec = DGXSpec.small().with_l2_backend("scalar")
        rt = Runtime(spec, seed=11, epoch_dispatch=False)
        proc, exec_gpu, buf = setup(rt)
        shapes = _burst_shapes(rt, buf)

        def kernel():
            records = []
            for sets in shapes:
                starts, probes = [], []
                for _ in range(ROUNDS):
                    starts.append((yield ReadClock()))
                    probes.append(
                        (yield ProbeEpoch(buf, sets, parallel=parallel))
                    )
                records.append((starts, probes))
            return records

        records = rt.run_kernel(kernel(), exec_gpu, proc)
        return rt, records, occupancy(rt)

    rt_e, outcomes, occ_e = run_epoch()
    rt_s, records, occ_s = run_scalar()
    assert occ_e == occ_s
    assert _gpu_counters(rt_e) == _gpu_counters(rt_s)
    assert rt_e.engine.now == rt_s.engine.now
    for outcome, (starts, probes) in zip(outcomes, records):
        assert outcome.num_recorded == ROUNDS
        assert outcome.remote == remote
        assert outcome.starts.tolist() == starts
        assert outcome.totals.tolist() == [p.total_latency for p in probes]
        for burst_index, probe in enumerate(probes):
            flat_latencies = [
                lat for per_set in probe.set_latencies for lat in per_set
            ]
            flat_hits = [hit for per_set in probe.set_hits for hit in per_set]
            assert outcome.latencies[burst_index].tolist() == flat_latencies
            assert outcome.hits[burst_index].tolist() == flat_hits
            if parallel:
                assert outcome.set_starts.tolist() == list(probe.set_starts)
            else:
                # Sequential bursts follow the atomic-probe convention:
                # every access is stamped at the burst start, so the
                # epoch layout reports zero set-start offsets.
                assert outcome.set_starts.tolist() == [0.0] * outcome.num_sets
