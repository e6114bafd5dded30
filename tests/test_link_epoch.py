"""Columnar fabric engine: epoch-native link kernels vs the scalar oracle.

End-to-end differentials for the vectorized NVLink hot path: the epoch
arm (vector L2 backend, epoch dispatch, numpy fabric walk) must stay
bitwise identical to the scalar oracle arm (scalar backend, per-op
dispatch, per-element Python fabric walk) on covert transmissions,
linkgram recordings, fabric counters and per-GPU NVLink byte counters --
including under chaos link flaps, lane partitioning, and with telemetry
hooks attached (which force the fused fast-path closures to fall back to
the generic service path).  The module also pins the shared occupancy
twins (`multi_server_waits` vs its scalar twin), the `least_busy_lane`
tie-break, and the `dgx_a100` per-link lane-width asymmetry.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import install_chaos
from repro.chaos.plan import FaultEvent, FaultPlan
from repro.config import ConfigurationError, DGXSpec, preset_lane_widths
from repro.core.linkchannel.covert import LinkCovertChannel
from repro.core.linkchannel.probe import flood_gap
from repro.core.linkchannel.sidechannel import (
    LinkgramRecorder,
    victim_traffic_epoch_kernel,
    victim_traffic_kernel,
)
from repro.defense.partitioning import enable_lane_partitioning
from repro.hw.interconnect import least_busy_lane
from repro.hw.occupancy import multi_server_waits, multi_server_waits_scalar
from repro.runtime.api import Runtime
from repro.telemetry.metrics import attach_metrics
from repro.telemetry.tracer import attach_tracer


def _arm_spec(epochs: bool, num_gpus: int = 4) -> DGXSpec:
    # Mirror the perf-bench arms: the scalar oracle rides the scalar L2
    # backend, which also flips Interconnect.vectorized to the Python
    # fabric walk.
    backend = "vectorized" if epochs else "scalar"
    return DGXSpec.small(num_gpus=num_gpus).with_l2_backend(backend)


def _runtime(epochs: bool, seed: int, num_gpus: int = 4) -> Runtime:
    return Runtime(_arm_spec(epochs, num_gpus), seed=seed, epoch_dispatch=epochs)


def _stats_key(rt: Runtime):
    snap = rt.engine.stats.snapshot()
    return (snap["accesses"], snap["sim_cycles"])


def _fabric_state(rt: Runtime):
    return (
        rt.system.interconnect.counters_snapshot(),
        [
            (g.counters.nvlink_bytes_in, g.counters.nvlink_bytes_out)
            for g in rt.system.gpus
        ],
    )


def _covert_fingerprint(rt: Runtime, result):
    traces = [(tuple(t.times), tuple(t.latencies)) for t in result.traces]
    return (
        result.received_bits,
        result.error_rate,
        rt.engine.now,
        _stats_key(rt),
        _fabric_state(rt),
        traces,
    )


# ----------------------------------------------------------------------
# Shared occupancy twins and lane selection
# ----------------------------------------------------------------------


class TestOccupancyTwins:
    @given(
        lanes=st.lists(
            st.floats(0.0, 500.0, allow_nan=False), min_size=1, max_size=6
        ),
        gaps=st.lists(
            st.floats(0.0, 40.0, allow_nan=False), min_size=1, max_size=20
        ),
        start=st.floats(0.0, 1000.0, allow_nan=False),
        service=st.floats(0.5, 30.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_walk_matches_numpy_walk_bitwise(
        self, lanes, gaps, start, service
    ):
        """The Python walk and the numpy walk are exact bitwise twins."""
        stamps = [start]
        for gap in gaps[1:]:
            stamps.append(stamps[-1] + gap)
        waits_s, busy_s = multi_server_waits_scalar(
            list(lanes), list(stamps), service
        )
        waits_v, busy_v = multi_server_waits(
            np.asarray(lanes), np.asarray(stamps), service
        )
        assert waits_s == waits_v.tolist()
        assert busy_s == busy_v.tolist()

    def test_least_busy_lane_tie_resolves_to_lane_zero(self):
        # The shared tie-break: scalar transfer and the fused burst core
        # must both consume lane 0 on equal busy-until times.
        assert least_busy_lane([7.0, 7.0]) == 0
        assert least_busy_lane([0.0, 0.0]) == 0
        assert least_busy_lane([3.0, 3.0, 3.0]) == 0
        assert least_busy_lane([9.0, 2.0]) == 1
        assert least_busy_lane([5.0, 2.0, 2.0, 8.0]) == 1

    def test_empty_batch_returns_sorted_lanes(self):
        waits, busy = multi_server_waits_scalar([4.0, 1.0], [], 10.0)
        assert waits == []
        assert busy == [1.0, 4.0]


# ----------------------------------------------------------------------
# dgx_a100 preset: per-link lane-width asymmetry
# ----------------------------------------------------------------------


class TestDgxA100Widths:
    def test_preset_widths_are_asymmetric(self):
        spec = DGXSpec.small(num_gpus=8).with_topology("dgx_a100")
        switch = 8
        for gpu in range(8):
            expected = 6 if gpu < 4 else 4
            assert spec.lane_width((gpu, switch)) == expected
            # Edge orientation must not matter.
            assert spec.lane_width((switch, gpu)) == expected

    def test_unlisted_edge_falls_back_to_uniform_width(self):
        spec = DGXSpec.small(num_gpus=8).with_topology("dgx_a100")
        assert spec.lane_width((0, 7)) == spec.nvlink.lanes

    def test_preset_requires_eight_gpus(self):
        with pytest.raises(ConfigurationError):
            DGXSpec.small(num_gpus=4).with_topology("dgx_a100")
        assert preset_lane_widths("ring", 4) is None

    def test_interconnect_lane_state_honours_widths(self):
        rt = Runtime(
            DGXSpec.small(num_gpus=8).with_topology("dgx_a100"),
            seed=0,
        )
        inter = rt.system.interconnect
        for gpu in range(8):
            lanes = inter._lane_state(frozenset((gpu, 8)), None)
            assert len(lanes) == (6 if gpu < 4 else 4)

    def test_flood_gap_paces_for_the_widest_incident_link(self):
        # A flood paced for the uniform 2-lane default only fills a
        # third of a six-lane dgx_a100 uplink and the covert channel's
        # contended band collapses; the pair-aware gap saturates it.
        uniform = DGXSpec.small(num_gpus=8)
        a100 = uniform.with_topology("dgx_a100")
        serialization = uniform.nvlink.serialization_cycles
        assert flood_gap(uniform) == serialization / 2
        assert flood_gap(uniform, (0, 1)) == flood_gap(uniform)
        assert flood_gap(a100, (0, 1)) == serialization / 6
        assert flood_gap(a100, (6, 7)) == serialization / 4
        # Mixed pair: the six-lane uplink is the pace-setter.
        assert flood_gap(a100, (1, 6)) == serialization / 6
        assert flood_gap(a100) == serialization / 2

    def test_wide_uplink_absorbs_more_concurrent_transfers(self):
        # Six lanes on GPU 0's uplink vs four on GPU 7's: the same
        # 6-transfer burst queues on the narrow link only.
        rt = Runtime(
            DGXSpec.small(num_gpus=8).with_topology("dgx_a100"),
            seed=0,
        )
        inter = rt.system.interconnect
        stamps = np.zeros(6, dtype=np.float64)
        wide = inter.transfer_batch(0, 1, stamps.copy())
        narrow = inter.transfer_batch(7, 6, stamps.copy())
        # First hop: all six fit the 6-lane uplink, only four fit the
        # 4-lane one, so the narrow route shows strictly more queueing.
        assert float(narrow.sum()) > float(wide.sum())


# ----------------------------------------------------------------------
# The fabric arm switch: vectorized walk vs the Python reference walk
# ----------------------------------------------------------------------


class TestFabricWalkArms:
    def test_scalar_backend_selects_python_walk(self):
        assert Runtime(
            _arm_spec(False), seed=0
        ).system.interconnect.vectorized is False
        assert Runtime(
            _arm_spec(True), seed=0
        ).system.interconnect.vectorized is True

    @staticmethod
    def _drive_arms(rts, widths, pick_route, rng):
        """Drive the same random batches through both arms; extras,
        counters and the ``nvlink_stall_*`` metrics must match exactly."""
        metrics = [attach_metrics(rt) for rt in rts]
        for width in widths:
            now = rng.uniform(0.0, 50_000.0)
            gaps = [rng.uniform(0.0, 6.0) for _ in range(width - 1)]
            stamps = np.asarray(
                [now] + [now + sum(gaps[: i + 1]) for i in range(width - 1)]
            )
            src, dst = pick_route(rng)
            extras = [
                rt.system.interconnect.transfer_batch(src, dst, stamps.copy())
                for rt in rts
            ]
            assert extras[0].tolist() == extras[1].tolist()
        snapshots = [rt.system.interconnect.counters_snapshot() for rt in rts]
        assert snapshots[0] == snapshots[1]
        stalls = [
            {
                key: value
                for key, value in arm.registry.snapshot().items()
                if key.startswith("nvlink_stall_")
            }
            for arm in metrics
        ]
        assert any(value > 0 for value in stalls[0].values())
        assert stalls[0] == stalls[1]
        return stalls[0]

    def test_walks_are_bitwise_twins_across_batches(self):
        rts = [_runtime(epochs, seed=5) for epochs in (False, True)]
        rng = random.Random(5)
        self._drive_arms(
            rts, (1, 2, 3, 7, 8, 9, 24, 64), lambda r: r.sample(range(4), 2), rng
        )
        # Two hops over DGX-2's switch, the second one slowed so both
        # queue: each hop's stall sum must come out of the scalar and the
        # vectorized walk bit for bit at widths straddling SMALL_BATCH.
        spec = DGXSpec.small(num_gpus=8).with_topology("dgx2")
        widths = (7, 8, 9, 24, 64)
        rts = [
            Runtime(spec.with_l2_backend(backend), seed=5)
            for backend in ("scalar", "vectorized")
        ]
        for rt in rts:
            route = rt.system.topology.path(1, 0)
            assert len(route) == 2
            rt.system.interconnect.degrade_link(route[1], 3.0)
        stalls = self._drive_arms(rts, widths, lambda r: (1, 0), rng)
        assert stalls['nvlink_stall_events_total{link="link0-8"}'] > 0
        # The same on a rate-limited partitioned fabric, where each walk
        # shapes its batch first.
        rts = [
            Runtime(spec.with_l2_backend(backend), seed=5)
            for backend in ("scalar", "vectorized")
        ]
        for rt in rts:
            enable_lane_partitioning(rt.system, num_slices=1, rate_limit_cycles=3.0)
        self._drive_arms(rts, widths, lambda r: (1, 0), rng)

    def test_walks_agree_under_degradation(self):
        rts = [_runtime(epochs, seed=7) for epochs in (False, True)]
        edge = rts[0].system.spec.nvlink_edges[0]
        for rt in rts:
            rt.system.interconnect.degrade_link(edge, 6.0)
        stamps = np.asarray([float(i) for i in range(12)])
        extras = [
            rt.system.interconnect.transfer_batch(
                edge[0], edge[1], stamps.copy()
            )
            for rt in rts
        ]
        assert extras[0].tolist() == extras[1].tolist()
        for rt in rts:
            rt.system.interconnect.restore_link(edge)
        extras = [
            rt.system.interconnect.transfer_batch(
                edge[0], edge[1], stamps.copy()
            )
            for rt in rts
        ]
        assert extras[0].tolist() == extras[1].tolist()
        assert (
            rts[0].system.interconnect.counters_snapshot()
            == rts[1].system.interconnect.counters_snapshot()
        )


# ----------------------------------------------------------------------
# End-to-end: covert transmissions through both arms
# ----------------------------------------------------------------------


class TestLinkCovertEquivalence:
    def _transmit(self, epochs: bool, seed: int, num_bits: int, *, plan=None,
                  partition=False, hooks=False):
        rt = _runtime(epochs, seed=seed)
        if partition:
            enable_lane_partitioning(
                rt.system, num_slices=2, rate_limit_cycles=3.0
            )
        if hooks:
            # Tracer + metrics force the epoch arm's fused closures to
            # fall back to the generic segment service path; results
            # must not move.
            attach_tracer(rt)
            attach_metrics(rt)
        channel = LinkCovertChannel.auto(rt, num_links=1)
        channel.setup()
        if plan is not None:
            install_chaos(rt, plan, seed=seed)
        bits = [random.Random(seed).randrange(2) for _ in range(num_bits)]
        return _covert_fingerprint(rt, channel.transmit(bits, strict=False))

    def test_plain_transmission_is_bit_identical(self):
        scalar = self._transmit(False, seed=9, num_bits=16)
        epoch = self._transmit(True, seed=9, num_bits=16)
        assert scalar == epoch

    def test_transmission_under_link_flap_and_dvfs_chaos(self):
        def plan(rt_seedless_edge):
            return FaultPlan(
                events=(
                    FaultEvent(
                        time=40_000.0,
                        kind="link_flap",
                        duration=60_000.0,
                        magnitude=6.0,
                        link=rt_seedless_edge,
                    ),
                    FaultEvent(
                        time=90_000.0,
                        kind="dvfs",
                        gpu=1,
                        duration=50_000.0,
                        magnitude=1.3,
                    ),
                )
            )

        edge = tuple(_arm_spec(False).nvlink_edges[0])
        scalar = self._transmit(False, seed=11, num_bits=12, plan=plan(edge))
        epoch = self._transmit(True, seed=11, num_bits=12, plan=plan(edge))
        assert scalar == epoch

    def test_transmission_under_lane_partitioning(self):
        scalar = self._transmit(False, seed=13, num_bits=10, partition=True)
        epoch = self._transmit(True, seed=13, num_bits=10, partition=True)
        assert scalar == epoch

    def test_telemetry_hooks_do_not_perturb_the_epoch_arm(self):
        plain = self._transmit(True, seed=9, num_bits=12)
        hooked = self._transmit(True, seed=9, num_bits=12, hooks=True)
        assert plain == hooked


# ----------------------------------------------------------------------
# End-to-end: linkgram recording and localization
# ----------------------------------------------------------------------


class TestLinkgramEquivalence:
    def _record(self, epochs: bool):
        rt = _runtime(epochs, seed=17)
        recorder = LinkgramRecorder(rt)
        recorder.setup()
        victim = recorder.victim_launcher(1, 2, duration_cycles=150_000.0)
        gram = recorder.record(
            duration_cycles=150_000.0, victim_launcher=victim
        )
        return (
            gram.latency.tobytes(),
            gram.counts.tobytes(),
            gram.excess().tobytes(),
            recorder.locate(gram),
            rt.engine.now,
            _stats_key(rt),
            _fabric_state(rt),
        )

    def test_linkgram_and_localization_are_bit_identical(self):
        assert self._record(False) == self._record(True)


# ----------------------------------------------------------------------
# Epoch-native victim kernel selection
# ----------------------------------------------------------------------


class TestVictimEpochKernel:
    def test_saturating_victim_rejected_by_epoch_builder(self):
        # count = 3000 / 5 = 600 issue cycles does not fit a 500-cycle
        # period: the epoch builder refuses rather than mis-pacing.
        kernel = victim_traffic_epoch_kernel(
            1, 10_000.0, 500.0, 3_000.0, 5.0
        )
        with pytest.raises(ValueError):
            next(kernel)

    def test_launcher_falls_back_to_scalar_kernel_when_saturating(self):
        rt = _runtime(True, seed=1)
        recorder = LinkgramRecorder(rt)
        recorder.setup()
        occupancy = flood_gap(rt.system.spec)
        saturating = recorder.victim_launcher(
            1, 2, duration_cycles=10_000.0,
            period_cycles=occupancy * 10, burst_cycles=occupancy * 100,
        )
        bursty = recorder.victim_launcher(1, 2, duration_cycles=10_000.0)
        cells = lambda fn: [c.cell_contents for c in fn.__closure__]
        assert victim_traffic_kernel in cells(saturating)
        assert victim_traffic_epoch_kernel in cells(bursty)
