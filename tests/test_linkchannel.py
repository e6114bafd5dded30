"""NVLink fabric channel: probes, calibration, covert, linkgram, defense."""

import numpy as np
import pytest

from repro.config import DGXSpec
from repro.core.linkchannel import (
    LinkCovertChannel,
    LinkgramRecorder,
    calibrate_link,
)
from repro.defense.partitioning import (
    PartitionedInterconnect,
    enable_lane_partitioning,
)
from repro.errors import ConfigurationError
from repro.runtime.api import Runtime
from repro.sim.ops import LinkBurst, LinkFlood, LinkProbe
from repro.telemetry import attach_metrics, attach_tracer


def small_runtime(seed=0, num_gpus=4):
    return Runtime(DGXSpec.small(num_gpus=num_gpus), seed=seed)


def _probe_once(dst_gpu, **kwargs):
    result = yield LinkProbe(dst_gpu, **kwargs)
    return result


def _run_probe(runtime, src, dst, **kwargs):
    proc = runtime.create_process("probe")
    runtime.enable_peer_access(proc, src, dst)
    handle = runtime.launch(_probe_once(dst, **kwargs), src, proc, name="probe")
    runtime.synchronize()
    return handle.result


class TestLinkProbeOp:
    def test_idle_probe_sees_no_waits(self):
        # Burst sized to the link's lane count: nothing to queue behind.
        result = _run_probe(small_runtime(), 0, 1, num_transfers=2)
        assert result.hops == 1
        assert len(result.latencies) == 2
        assert all(w == 0.0 for w in result.waits)
        assert result.total_latency >= max(result.latencies)

    def test_oversized_burst_self_queues(self):
        result = _run_probe(small_runtime(), 0, 1, num_transfers=6)
        assert any(w > 0.0 for w in result.waits)

    def test_latencies_are_seed_stable(self):
        first = _run_probe(small_runtime(seed=11), 0, 1, num_transfers=6)
        second = _run_probe(small_runtime(seed=11), 0, 1, num_transfers=6)
        assert first.latencies == second.latencies
        third = _run_probe(small_runtime(seed=12), 0, 1, num_transfers=6)
        assert third.latencies != first.latencies

    @pytest.mark.parametrize("topology", ["ring", "dgx2", "fully-connected"])
    def test_seed_stability_across_presets(self, topology):
        def once(seed):
            spec = DGXSpec.small(num_gpus=4).with_topology(topology)
            return _run_probe(Runtime(spec, seed=seed), 0, 1, num_transfers=4)

        assert once(5).latencies == once(5).latencies

    def test_posted_probe_charges_only_issue_window(self):
        waited = _run_probe(
            small_runtime(), 0, 1, num_transfers=8, gap_cycles=1.0, wait=True
        )
        posted = _run_probe(
            small_runtime(), 0, 1, num_transfers=8, gap_cycles=1.0, wait=False
        )
        assert posted.total_latency == pytest.approx(8.0)
        assert waited.total_latency > posted.total_latency


class TestCalibration:
    def test_contended_link_separates_from_idle(self):
        runtime = small_runtime()
        calibration = calibrate_link(runtime, probe_gpu=0, far_gpu=1)
        assert calibration.contended_mean > calibration.idle_mean
        assert calibration.threshold > calibration.idle_max
        assert calibration.contended_mean > calibration.threshold
        assert calibration.separation > 10 * max(calibration.idle_std, 1.0)
        assert "link 0<->1" in calibration.summary()


class TestCovertChannel:
    def test_small_box_beats_ten_percent_error(self):
        runtime = small_runtime()
        channel = LinkCovertChannel.auto(runtime, num_links=1)
        channel.setup()
        rng = np.random.default_rng(1)
        bits = [int(b) for b in rng.integers(0, 2, 64)]
        outcome = channel.transmit(bits)
        assert outcome.error_rate < 0.1
        assert outcome.bandwidth_bytes_per_s > 0

    def test_dgx1_parallel_links(self):
        runtime = Runtime(DGXSpec.small(num_gpus=8), seed=2)
        channel = LinkCovertChannel.auto(runtime, num_links=2)
        channel.setup()
        assert len({g for link in channel.links for g in link}) == 4
        rng = np.random.default_rng(2)
        bits = [int(b) for b in rng.integers(0, 2, 64)]
        outcome = channel.transmit(bits)
        assert outcome.error_rate < 0.1
        assert outcome.num_sets == 2

    def test_text_round_trip(self):
        runtime = small_runtime(seed=3)
        channel = LinkCovertChannel.auto(runtime, num_links=1)
        channel.setup()
        outcome = channel.send_text("ok")
        assert outcome.received_text() == "ok"

    def test_auto_rejects_impossible_link_counts(self):
        from repro.errors import ChannelError

        with pytest.raises(ChannelError):
            LinkCovertChannel.auto(small_runtime(), num_links=5)


class TestLinkgram:
    def _locate(self, spec, victim):
        runtime = Runtime(spec, seed=4)
        recorder = LinkgramRecorder(runtime)
        recorder.setup()
        assert victim in recorder.probe_pairs
        launcher = recorder.victim_launcher(
            victim[0], victim[1], 120_000.0, period_cycles=12_000.0
        )
        gram = recorder.record(120_000.0, launcher)
        return recorder, gram

    def test_locates_victim_on_cube_mesh(self):
        recorder, gram = self._locate(DGXSpec.small(num_gpus=8), (2, 6))
        assert recorder.locate(gram) == (2, 6)
        assert recorder.burst_period(gram) == pytest.approx(12_000.0, rel=0.35)

    def test_locates_victim_on_switched_fabric(self):
        spec = DGXSpec.small(num_gpus=4).with_topology("dgx2")
        recorder, gram = self._locate(spec, (1, 3))
        assert recorder.locate(gram) == (1, 3)

    def test_ascii_and_features(self):
        from repro.analysis.features import feature_dim, linkgram_features

        recorder, gram = self._locate(
            DGXSpec.small(num_gpus=4).with_topology("fully-connected"), (0, 2)
        )
        art = gram.to_ascii(width=32)
        assert f"{0}-{2} |" in art
        vector = linkgram_features(gram)
        assert vector.shape == (feature_dim((8, 16)),)
        assert np.isfinite(vector).all()


class TestLaneDefense:
    def test_partitioning_kills_the_channel(self):
        runtime = small_runtime(seed=7)
        fabric = enable_lane_partitioning(runtime.system, num_slices=2)
        assert isinstance(runtime.system.interconnect, PartitionedInterconnect)
        channel = LinkCovertChannel.auto(runtime, num_links=1)
        channel.setup()
        for trojan, spy in zip(channel.trojans, channel.spies):
            fabric.assign_owner(trojan.pid, 0)
            fabric.assign_owner(spy.pid, 1)
        bits = [int(b) for b in np.random.default_rng(7).integers(0, 2, 64)]
        outcome = channel.transmit(bits, strict=False)
        assert outcome.error_rate > 0.25

    def test_rate_limiting_alone_starves_the_flood(self):
        runtime = small_runtime(seed=7)
        enable_lane_partitioning(
            runtime.system, num_slices=1, rate_limit_cycles=40.0
        )
        channel = LinkCovertChannel.auto(runtime, num_links=1)
        channel.setup()
        bits = [int(b) for b in np.random.default_rng(7).integers(0, 2, 64)]
        outcome = channel.transmit(bits, strict=False)
        assert outcome.error_rate > 0.25

    def test_slice_assignment_validation(self):
        runtime = small_runtime()
        fabric = enable_lane_partitioning(runtime.system, num_slices=2)
        with pytest.raises(ConfigurationError):
            fabric.assign_owner(1, 5)
        with pytest.raises(ConfigurationError):
            enable_lane_partitioning(small_runtime().system, num_slices=3)

    def test_same_slice_contends_other_slice_isolated(self):
        """The defense is *between* slices, not a blanket slowdown:
        co-sliced tenants still queue on their shared lanes."""
        from repro.hw.topology import Topology

        spec = DGXSpec.small(num_gpus=2)
        topology = Topology(spec)
        fabric = PartitionedInterconnect(spec, topology, num_slices=2)
        fabric.assign_owner(1, 0)
        fabric.assign_owner(2, 0)
        fabric.assign_owner(3, 1)
        for _ in range(6):
            fabric.transfer(0, 1, 0.0, owner=1)
        assert fabric.transfer(0, 1, 0.0, owner=2)[0] > 0.0
        assert fabric.transfer(0, 1, 0.0, owner=3)[0] == 0.0

    @pytest.mark.parametrize(
        "metrics_first", [False, True], ids=["partition-first", "metrics-first"]
    )
    def test_partitioning_keeps_the_metrics_hook(self, metrics_first):
        """Swapping in the partitioned fabric carries an attached metrics
        registry over, as it does the tracer: the same self-queueing
        burst reports the same stalls whichever was wired first."""
        runtime = small_runtime()
        if metrics_first:
            metrics = attach_metrics(runtime)
        fabric = enable_lane_partitioning(runtime.system, num_slices=1)
        if not metrics_first:
            metrics = attach_metrics(runtime)
        # 24 transfers at t=0 on two lanes: all but the first two queue.
        fabric.transfer_batch(0, 1, np.zeros(24))
        snap = metrics.registry.snapshot()
        assert snap['nvlink_stall_events_total{link="link0-1"}'] == 22
        assert snap['nvlink_stall_cycles_total{link="link0-1"}'] == 1320.0


class TestLinkOpValidation:
    """Link ops the fabric walks cannot serve are rejected when built, so
    the epoch cursor and per-op dispatch never see them."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LinkBurst(1, num_transfers=0),
            lambda: LinkBurst(1, num_transfers=-1),
            lambda: LinkProbe(1, gap_cycles=-5.0),
            lambda: LinkBurst(1, gap_cycles=-5.0),
            lambda: LinkFlood(1, occupancy_per_transfer=10.0, gap_cycles=-1.0),
            lambda: LinkFlood(1, occupancy_per_transfer=0.0),
            lambda: LinkFlood(1, occupancy_per_transfer=-10.0),
        ],
        ids=[
            "burst-empty",
            "burst-negative",
            "probe-negative-gap",
            "burst-negative-gap",
            "flood-negative-gap",
            "flood-zero-occupancy",
            "flood-negative-occupancy",
        ],
    )
    def test_rejected_at_construction(self, build):
        with pytest.raises(ValueError):
            build()

    def test_edge_values_accepted(self):
        LinkBurst(1, num_transfers=1, gap_cycles=0.0)
        LinkProbe(1, num_transfers=0, gap_cycles=0.0)
        LinkFlood(1, occupancy_per_transfer=0.5, gap_cycles=0.0)


class TestLinkTelemetry:
    def test_counter_sampler_reports_link_deltas(self):
        runtime = small_runtime(seed=5)
        tracer = attach_tracer(
            runtime, sample_cadence=10_000.0, sample_links=True
        )
        channel = LinkCovertChannel.auto(runtime, num_links=1)
        channel.setup()
        channel.transmit([1, 0, 1, 1], strict=False)
        tracer.finish(runtime.engine.now)
        link_samples = [
            s for s in tracer.timeseries if s.gpu_id < 0
        ]
        assert link_samples
        totals = {}
        for sample in link_samples:
            for key, value in sample.delta.items():
                totals[key] = totals.get(key, 0) + value
        assert totals.get("link0-1:transfers", 0) > 0
        assert totals.get("link0-1:busy_cycles", 0) > 0
