"""Attack-health observability: metrics registry, epoch profiler, health
monitors and their exporters.

The load-bearing guarantees mirror the tracer's: every hook is a pure
observer (metrics/profiler attached must not change anything simulated),
the Prometheus text dump round-trips through its parser, and the
profiler's totals reconcile exactly against ``EngineStats``.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.chaos import install_chaos
from repro.chaos.plan import FaultEvent, FaultPlan
from repro.config import DGXSpec
from repro.core.covert.channel import CovertChannel
from repro.core.covert.encoding import text_to_bits
from repro.core.covert.resilient import ResilientCovertChannel
from repro.experiments.executor import ProgressEvent, run_experiments
from repro.runtime.api import Runtime
from repro.sim.ops import ProbeSet, ReadClock, Sleep
from repro.telemetry import (
    ChannelHealth,
    ChaosCorrelator,
    EpochProfiler,
    MetricsRegistry,
    attach_metrics,
    attach_profiler,
    attach_tracer,
    build_health_report,
    build_manifest,
    detach_metrics,
    detach_profiler,
    parse_prometheus_text,
    write_chrome_trace,
    write_health_json,
)
from repro.telemetry.health import HEALTH_SCHEMA_VERSION
from repro.telemetry.profiler import PROFILER_TID


def _payload(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [int(b) for b in rng.integers(0, 2, count)]


def _covert_runtime(seed: int = 7, num_sets: int = 2, epoch_dispatch: bool = True):
    rt = Runtime(DGXSpec.small(), seed=seed, epoch_dispatch=epoch_dispatch)
    channel = CovertChannel(rt, trojan_gpu=0, spy_gpu=1)
    channel.setup(num_sets=num_sets)
    return rt, channel


class _FakeTrace:
    """Duck-typed spy trace: the health monitor only reads .latencies."""

    def __init__(self, latencies):
        self.latencies = tuple(float(v) for v in latencies)


class _FakeInjector:
    """Duck-typed injector: the correlator only reads .applied."""

    def __init__(self, applied):
        self.applied = applied


# ----------------------------------------------------------------------
# MetricsRegistry: instruments, registration, exporters
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        r = MetricsRegistry()
        c = r.counter("hits_total", "hits", ("gpu",))
        c.labels(0).inc()
        c.labels(0).inc(2)
        c.labels(1).inc(5)
        assert c.value == 8

        g = r.gauge("clock", "sim clock")
        g.set(123.0)
        g.set(124.0)
        assert g.value == 124.0

        h = r.histogram("lat", "latencies", buckets=(10.0, 100.0))
        for v in (5.0, 50.0, 500.0):
            h.observe(v)
        child = h._children[()]
        assert child.counts == [1, 1, 1]
        assert child.count == 3 and child.sum == 555.0

    def test_reregistration_is_idempotent(self):
        r = MetricsRegistry()
        first = r.counter("a_total", "a")
        assert r.counter("a_total", "a") is first

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x", "x")
        with pytest.raises(ValueError):
            r.gauge("x", "x")

    def test_label_arity_checked(self):
        r = MetricsRegistry()
        c = r.counter("y_total", "y", ("gpu", "link"))
        with pytest.raises(ValueError):
            c.labels(0)

    def test_prometheus_round_trip(self):
        r = MetricsRegistry()
        c = r.counter("ops_total", "ops by kind", ("kind",))
        c.labels("read").inc(3)
        c.labels("write").inc(7)
        g = r.gauge("drift", "threshold drift")
        g.set(-0.125)
        h = r.histogram("svc", "service cycles", buckets=(10.0, 100.0))
        h.observe(5.0)
        h.observe(50.0)
        h.observe(5000.0)

        text = r.to_prometheus_text()
        parsed = parse_prometheus_text(text)

        assert parsed["ops_total"][(("kind", "read"),)] == 3
        assert parsed["ops_total"][(("kind", "write"),)] == 7
        assert parsed["drift"][()] == -0.125
        # Histogram buckets are cumulative and the +Inf edge parses back.
        assert parsed["svc_bucket"][(("le", "10"),)] == 1
        assert parsed["svc_bucket"][(("le", "100"),)] == 2
        assert parsed["svc_bucket"][(("le", "+Inf"),)] == 3
        assert parsed["svc_sum"][()] == 5055.0
        assert parsed["svc_count"][()] == 3
        # HELP/TYPE lines present for every family.
        assert "# HELP ops_total ops by kind" in text
        assert "# TYPE svc histogram" in text

    def test_write_prometheus_and_jsonl_schema(self, tmp_path):
        r = MetricsRegistry()
        r.counter("n_total", "n", ("gpu",)).labels(0).inc(4)
        r.histogram("h", "h", buckets=(1.0,)).observe(0.5)

        prom = r.write_prometheus(tmp_path / "dump.prom")
        assert parse_prometheus_text(prom.read_text())["n_total"][
            (("gpu", "0"),)
        ] == 4

        path = r.write_jsonl(tmp_path / "metrics.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows, "empty JSONL export"
        for row in rows:
            assert set(row) == {"name", "kind", "labels", "value"}
            assert isinstance(row["labels"], dict)
        names = {row["name"] for row in rows}
        # Histograms expand into the three Prometheus series.
        assert {"h_bucket", "h_sum", "h_count"} <= names

    def test_snapshot_keys_are_stable(self):
        r = MetricsRegistry()
        r.counter("c_total", "c", ("gpu",)).labels(3).inc()
        snap = r.snapshot()
        assert snap['c_total{gpu="3"}'] == 1


# ----------------------------------------------------------------------
# AttackMetrics wiring and live-run counts
# ----------------------------------------------------------------------
class TestAttackMetricsWiring:
    def test_attach_wires_all_four_layers(self, runtime):
        metrics = attach_metrics(runtime)
        assert runtime.metrics is metrics
        assert runtime.engine.metrics is metrics
        assert runtime.system.metrics is metrics
        assert runtime.system.interconnect.metrics is metrics
        assert detach_metrics(runtime) is metrics
        assert runtime.engine.metrics is None

    def test_covert_run_populates_registry(self):
        rt, channel = _covert_runtime()
        metrics = attach_metrics(rt)
        channel.transmit(text_to_bits("Hi!"), slot_cycles=3000.0)
        metrics.sync(rt)
        snap = metrics.registry.snapshot()

        stats = rt.engine.stats
        assert snap["sim_epochs_total"] == stats.epochs > 0
        assert snap["sim_epoch_bursts_total"] == stats.epoch_bursts
        assert snap["sim_epoch_accesses_total"] == stats.epoch_accesses
        assert snap["covert_transmissions_total"] == 1
        assert snap["covert_payload_bits_total"] == len(text_to_bits("Hi!"))
        assert snap["epoch_service_cycles_count"] == stats.epochs
        assert snap["sim_clock_cycles"] == rt.engine.now
        # sync() pulls the per-GPU hardware counters verbatim.
        for gpu in rt.system.gpus:
            for counter, value in gpu.counters.snapshot().items():
                key = (
                    f'gpu_counter{{counter="{counter}", gpu="{gpu.gpu_id}"}}'
                )
                assert snap[key] == value

    def test_metrics_attached_is_a_pure_observer(self):
        bits = _payload(0, 48)
        rt_plain, plain = _covert_runtime(seed=3, num_sets=1)
        quiet = plain.transmit(bits, strict=False)

        rt_metered, metered = _covert_runtime(seed=3, num_sets=1)
        attach_metrics(rt_metered)
        attach_profiler(rt_metered)
        result = metered.transmit(bits, strict=False)

        assert result.received_bits == quiet.received_bits
        assert rt_metered.engine.now == rt_plain.engine.now
        for g_plain, g_metered in zip(rt_plain.system.gpus, rt_metered.system.gpus):
            assert g_plain.counters.snapshot() == g_metered.counters.snapshot()

    def test_chaos_off_byte_identity_with_metrics_on(self):
        bits = _payload(0, 64)
        rt_base, base = _covert_runtime(seed=3, num_sets=1)
        quiet = base.transmit(bits, strict=False)

        rt, channel = _covert_runtime(seed=3, num_sets=1)
        attach_metrics(rt)
        injector = install_chaos(rt, "off", seed=9)
        result = channel.transmit(bits, strict=False)

        assert result.received_bits == quiet.received_bits
        assert rt.engine.now == rt_base.engine.now
        assert injector.applied == [] and injector.skipped == 0

    def test_chaos_faults_counted(self, runtime):
        metrics = attach_metrics(runtime)
        plan = FaultPlan(
            events=(
                FaultEvent(time=0.0, kind="l2_flush", gpu=0),
                FaultEvent(time=100.0, kind="l2_flush", gpu=0),
            )
        )
        install_chaos(runtime, plan)
        process = runtime.create_process("sleeper")

        def kernel():
            yield Sleep(200_000.0)

        runtime.run_kernel(kernel(), 0, process)
        snap = metrics.registry.snapshot()
        assert snap['chaos_faults_total{kind="l2_flush"}'] == 2

    @pytest.mark.parametrize("parallel", [True, False], ids=["parallel", "sequential"])
    def test_narrow_burst_stalls_reach_metrics_on_both_backends(self, parallel):
        """A remote ProbeSet under the width gate runs the fused core (one
        stall report per hop at flush) on the vectorized backend and one
        ``Interconnect.transfer`` per line on the scalar one; on the
        one-hop small box both report the same NVLink stalls."""
        snaps = []
        for backend in ("vectorized", "scalar"):
            rt = Runtime(DGXSpec.small().with_l2_backend(backend), seed=7)
            assert rt.system.topology.hops(1, 0) == 1
            process = rt.create_process("prober")
            rt.enable_peer_access(process, 1, 0)
            wpl = rt.system.spec.gpu.cache.line_size // 8
            buf = rt.malloc_lines(process, 0, 24)
            metrics = attach_metrics(rt)

            indices = [line * wpl for line in range(24)]

            def kernel():
                yield ProbeSet(buf, indices, parallel=parallel)

            rt.run_kernel(kernel(), 1, process)
            snaps.append(metrics.registry.snapshot())
        vec, ref = snaps
        events = 'nvlink_stall_events_total{link="link0-1"}'
        cycles = 'nvlink_stall_cycles_total{link="link0-1"}'
        # 24 transfers on two lanes: the burst queues behind itself.
        assert ref[events] > 0 and ref[cycles] > 0
        assert vec[events] == ref[events]
        assert vec[cycles] == ref[cycles]

    @pytest.mark.parametrize("parallel", [True, False], ids=["parallel", "sequential"])
    def test_narrow_burst_stalls_split_per_hop_on_two_hop_routes(self, parallel):
        """Over DGX-2's switch (two hops) the fused core and the scalar
        backend's per-line ``Interconnect.transfer`` both report each
        hop's stalls under that hop's link, split exactly as
        ``Interconnect.transfer_batch`` splits them."""
        spec = DGXSpec.small(num_gpus=8).with_topology("dgx2")
        first, second = "link1-8", "link0-8"  # GPU 1 -> switch 8 -> GPU 0
        lines = 24

        def runtime(backend):
            rt = Runtime(spec.with_l2_backend(backend), seed=7)
            route = rt.system.topology.path(1, 0)
            assert len(route) == 2
            # A slow second hop queues transfers the first one delayed.
            rt.system.interconnect.degrade_link(route[1], 3.0)
            return rt, attach_metrics(rt)

        snaps = {}
        starts = []
        for backend in ("vectorized", "scalar"):
            rt, metrics = runtime(backend)
            process = rt.create_process("prober")
            rt.enable_peer_access(process, 1, 0)
            wpl = rt.system.spec.gpu.cache.line_size // 8
            buf = rt.malloc_lines(process, 0, lines)
            indices = [line * wpl for line in range(lines)]

            def kernel():
                starts.append((yield ReadClock()))
                yield ProbeSet(buf, indices, parallel=parallel)

            rt.run_kernel(kernel(), 1, process)
            snaps[backend] = metrics.registry.snapshot()
        # The array path's per-hop accounting, fed the burst's link stamps.
        rt, metrics = runtime("vectorized")
        now = starts[0]
        stamps = now + np.arange(lines) * 4.0 if parallel else np.full(lines, now)
        rt.system.interconnect.transfer_batch(1, 0, stamps)
        batch = metrics.registry.snapshot()

        vec, ref = snaps["vectorized"], snaps["scalar"]
        events = 'nvlink_stall_events_total{link="%s"}'
        cycles = 'nvlink_stall_cycles_total{link="%s"}'
        for link in (first, second):
            assert vec[events % link] > 0
            for arm in (vec, ref):
                assert arm[events % link] == batch[events % link]
                assert arm[cycles % link] == pytest.approx(batch[cycles % link])

    def test_tracer_leaves_two_hop_stall_metrics_unchanged(self):
        """A tracer leaves the fused core on its ``FabricFlow.advance_one``
        walk: latencies, GPU and link counters and the per-hop stall
        metrics come out the same traced or not, and the trace carries
        one ``nvlink_stall_batch`` event per hop whose durations sum to
        that link's stall cycles (no per-transfer ``nvlink_stall``)."""
        spec = DGXSpec.small(num_gpus=8).with_topology("dgx2")
        lines = 24
        runs = {}
        for traced in (False, True):
            rt = Runtime(spec, seed=7)
            route = rt.system.topology.path(1, 0)
            rt.system.interconnect.degrade_link(route[1], 3.0)
            metrics = attach_metrics(rt)
            tracer = attach_tracer(rt) if traced else None
            process = rt.create_process("prober")
            rt.enable_peer_access(process, 1, 0)
            wpl = rt.system.spec.gpu.cache.line_size // 8
            buf = rt.malloc_lines(process, 0, lines)
            indices = [line * wpl for line in range(lines)]

            def kernel():
                result = yield ProbeSet(buf, indices, parallel=True)
                return result.latencies

            latencies = rt.run_kernel(kernel(), 1, process)
            stalls = {
                key: value
                for key, value in metrics.registry.snapshot().items()
                if key.startswith("nvlink_stall_")
            }
            runs[traced] = (
                latencies,
                [gpu.counters.snapshot() for gpu in rt.system.gpus],
                rt.system.interconnect.counters_snapshot(),
                stalls,
            )
        untraced = runs[False][3]
        for link in ("link1-8", "link0-8"):
            assert untraced['nvlink_stall_events_total{link="%s"}' % link] == 22
        assert runs[True] == runs[False]

        events = tracer.events.to_list()
        assert not [event for event in events if event.name == "nvlink_stall"]
        durations = {}
        for event in events:
            if event.name == "nvlink_stall_batch":
                a, b = event.args["link"]
                key = 'nvlink_stall_cycles_total{link="link%d-%d"}' % (a, b)
                durations[key] = durations.get(key, 0.0) + event.dur
        cycles = {
            key: value
            for key, value in untraced.items()
            if key.startswith("nvlink_stall_cycles_total")
        }
        assert len(cycles) == 2
        assert durations == cycles


# ----------------------------------------------------------------------
# Epoch profiler: reconciliation, ranking, Chrome flow events
# ----------------------------------------------------------------------
class TestEpochProfiler:
    def _profiled_covert(self, epoch_dispatch=True, backend=None, seed=7):
        spec = DGXSpec.small()
        if backend is not None:
            spec = spec.with_l2_backend(backend)
        rt = Runtime(spec, seed=seed, epoch_dispatch=epoch_dispatch)
        channel = CovertChannel(rt, trojan_gpu=0, spy_gpu=1)
        channel.setup(num_sets=2)
        profiler = attach_profiler(rt)
        channel.transmit(text_to_bits("Hi!"), slot_cycles=3000.0)
        detach_profiler(rt)
        return rt, profiler

    def test_totals_reconcile_with_engine_stats(self):
        rt, profiler = self._profiled_covert()
        stats = rt.engine.stats
        assert stats.epochs > 0
        assert len(profiler.records) == stats.epochs
        assert profiler.total_bursts == stats.epoch_bursts
        assert profiler.total_accesses == stats.epoch_accesses
        assert profiler.total_scalar_bursts == stats.scalar_fallbacks
        assert profiler.total_wall_seconds <= stats.wall_seconds

    def test_spans_partition_each_epoch(self):
        _, profiler = self._profiled_covert()
        for record in profiler.records:
            assert record.finished
            assert record.resumes == len(record.spans) >= 1
            active = sum(end - start for start, end in record.spans)
            assert active == pytest.approx(record.active_cycles)
            assert record.active_cycles + record.suspended_cycles == (
                pytest.approx(record.end - record.begin)
            )
            assert record.service_cycles <= record.active_cycles + 1e-9
            assert record.idle_cycles >= 0.0

    def test_scalar_fallbacks_rank_first(self):
        _, profiler = self._profiled_covert(backend="scalar")
        rows = profiler.table()
        assert profiler.total_scalar_bursts > 0
        ranks = [
            (-row["scalar_fallbacks"], -row["active_cycles"]) for row in rows
        ]
        assert ranks == sorted(ranks)
        assert rows[0]["scalar_fallbacks"] > 0

    def test_render_table_lists_top_rows(self):
        _, profiler = self._profiled_covert()
        text = profiler.render_table(limit=3)
        lines = text.splitlines()
        assert "fallbacks" in lines[0] and "suspended" in lines[0]
        assert len(lines) == 2 + min(3, len(profiler.records))

        empty = EpochProfiler()
        assert "(no epochs profiled)" in empty.render_table()

    def test_chrome_events_have_spans_and_flows(self):
        _, profiler = self._profiled_covert()
        events = profiler.chrome_events(clock_hz=1.5e9)
        spans = [e for e in events if e.get("ph") == "X"]
        assert spans and all(e["tid"] == PROFILER_TID for e in spans)

        flows = [e for e in events if e.get("ph") in ("s", "t", "f")]
        multi = [r for r in profiler.records if len(r.spans) > 1]
        assert multi, "covert run should suspend at least one epoch"
        assert flows and all(e["id"] > 0 for e in flows)
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == len(multi) == len(finishes)
        assert all(e.get("bp") == "e" for e in finishes)
        # Single-span epochs contribute no flow ids.
        single_ids = {r.index + 1 for r in profiler.records if len(r.spans) == 1}
        assert single_ids.isdisjoint({e["id"] for e in flows})

    def test_finalize_flushes_in_flight(self):
        profiler = EpochProfiler()

        class _Cursor:
            begin = 0.0
            clock = 100.0
            suspends = 0
            service_cycles = 60.0
            bursts = 4
            accesses = 16
            scalar_bursts = 1

        class _Handle:
            name = "s0"
            gpu_id = 0

        profiler.record_resume(_Handle(), _Cursor(), 0.0, 0.001, finished=False)
        assert profiler.records == [] and len(profiler._active) == 1
        profiler.finalize()
        assert len(profiler.records) == 1
        record = profiler.records[0]
        assert not record.finished and record.bursts == 4
        assert profiler.snapshot()["in_flight"] == 0


# ----------------------------------------------------------------------
# ChannelHealth / ChaosCorrelator / health sidecar
# ----------------------------------------------------------------------
class TestChannelHealth:
    def test_exact_frame_ber(self):
        health = ChannelHealth(window=4)
        sample = health.observe_frame(
            now=0.0, seq=0, attempt=0, ok=True,
            sent_bits=[1, 0, 1, 0], received_bits=[1, 1, 1, 0],
        )
        assert sample["ber"] == 0.25
        # Length mismatch counts as errors too.
        sample = health.observe_frame(
            now=1.0, seq=1, attempt=0, ok=False,
            sent_bits=[1, 0, 1, 0], received_bits=[1, 0],
        )
        assert sample["ber"] == 0.5

    def test_windowed_views_use_the_tail(self):
        health = ChannelHealth(window=2)
        for index, ber_bits in enumerate(([0, 0], [1, 1], [1, 1])):
            health.observe_frame(
                now=float(index), seq=index, attempt=0, ok=True,
                sent_bits=[1, 1], received_bits=ber_bits,
            )
        # Overall mean covers all three frames; the window only the last 2.
        snap = health.snapshot()
        assert snap["mean_ber"] == pytest.approx(1.0 / 3.0)
        assert health.windowed_ber() == 0.0
        assert snap["windowed_ber"] == 0.0

    def test_snr_separates_latency_populations(self):
        health = ChannelHealth()
        traces = [_FakeTrace([10.0, 11.0, 30.0, 31.0])]
        sample = health.observe_frame(
            now=0.0, seq=0, attempt=0, ok=True,
            sent_bits=[1], received_bits=[1],
            traces=traces, threshold=20.0,
        )
        assert sample["snr"] is not None and sample["snr"] > 1.0
        # One-population frames flat-line to None.
        sample = health.observe_frame(
            now=1.0, seq=1, attempt=0, ok=True,
            sent_bits=[1], received_bits=[1],
            traces=[_FakeTrace([10.0, 11.0])], threshold=20.0,
        )
        assert sample["snr"] is None

    def test_drift_tracks_hit_level_shift(self):
        health = ChannelHealth()
        for step, level in enumerate((10.0, 10.0, 20.0, 20.0)):
            health.observe_frame(
                now=float(step), seq=step, attempt=0, ok=True,
                sent_bits=[1], received_bits=[1],
                traces=[_FakeTrace([level] * 40)], half_gap=100.0,
            )
        assert health.drift > 0.0

    def test_retransmit_and_backoff_accounting(self):
        health = ChannelHealth()
        health.observe_frame(
            now=0.0, seq=0, attempt=0, ok=False,
            sent_bits=[1], received_bits=[0], backoff_cycles=800.0,
        )
        health.observe_frame(
            now=1.0, seq=0, attempt=1, ok=True,
            sent_bits=[1], received_bits=[1],
        )
        assert health.retransmit_rate == 0.5
        assert health.backoff_cycles_total == 800.0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            ChannelHealth(window=0)


class TestChaosCorrelator:
    def _health_with_samples(self, bers):
        health = ChannelHealth()
        for index, ber in enumerate(bers):
            bits = [1] * 10
            flipped = [0] * int(ber * 10) + [1] * (10 - int(ber * 10))
            health.observe_frame(
                now=float(index) * 1_000.0, seq=index, attempt=0,
                ok=ber == 0.0, sent_bits=bits, received_bits=flipped,
            )
        return health

    def test_before_after_ber_delta(self):
        health = self._health_with_samples([0.0, 0.0, 0.5, 0.5])
        injector = _FakeInjector([{"time": 1_500.0, "kind": "l2_flush", "gpu": 0}])
        rows = ChaosCorrelator(health, injector, window_cycles=2_000.0).correlate()
        assert len(rows) == 1
        row = rows[0]
        assert row["kind"] == "l2_flush"
        assert row["ber_before"] == 0.0
        assert row["ber_after"] == 0.5
        assert row["ber_delta"] == 0.5
        assert row["samples_before"] == 2 and row["samples_after"] == 2

    def test_fault_before_first_frame_reports_none(self):
        health = self._health_with_samples([0.1])
        injector = _FakeInjector([{"time": 5_000.0, "kind": "dvfs", "gpu": 1}])
        rows = ChaosCorrelator(health, injector, window_cycles=100.0).correlate()
        assert rows[0]["ber_before"] is None
        assert rows[0]["ber_delta"] is None

    def test_timeline_is_time_ordered_and_merged(self):
        health = self._health_with_samples([0.0, 0.5])
        injector = _FakeInjector([{"time": 500.0, "kind": "link_flap", "gpu": None}])
        timeline = ChaosCorrelator(health, injector).timeline()
        assert [e["event"] for e in timeline] == ["frame", "fault", "frame"]
        assert [e["time"] for e in timeline] == sorted(
            e["time"] for e in timeline
        )

    def test_no_injector_correlates_empty(self):
        health = self._health_with_samples([0.0])
        assert ChaosCorrelator(health, None).correlate() == []


class TestHealthUnderChaos:
    def test_resilient_transfer_feeds_monitor_and_correlator(self):
        rt, channel = _covert_runtime(seed=3, num_sets=2)
        metrics = attach_metrics(rt)
        plan = FaultPlan(
            events=tuple(
                FaultEvent(time=float(t), kind="l2_flush", gpu=0)
                for t in range(50_000, 450_000, 50_000)
            )
        )
        injector = install_chaos(rt, plan)
        monitor = ChannelHealth(window=4)
        resilient = ResilientCovertChannel(channel, monitor=monitor)
        payload = _payload(1, 16)
        received, resilient_report = resilient.transmit(payload)

        assert received == payload
        assert monitor.frames >= resilient_report.frames_sent > 0
        assert all(
            s["snr"] is None or s["snr"] > 0.0 for s in monitor.samples
        )
        snap = metrics.registry.snapshot()
        assert snap.get('covert_frames_total{result="ok"}', 0) > 0

        correlator = ChaosCorrelator(monitor, injector)
        rows = correlator.correlate()
        assert len(rows) == len(injector.applied) > 0
        events = correlator.timeline()
        kinds = {e["event"] for e in events}
        assert kinds == {"frame", "fault"}

        report = build_health_report(
            "test/chaos",
            channel=monitor,
            eviction=resilient.health,
            resilience=resilient_report,
            correlator=correlator,
        )
        assert report["schema_version"] == HEALTH_SCHEMA_VERSION
        assert report["channel"]["frames"] == monitor.frames
        assert report["resilience"]["chunks"] == resilient_report.chunks
        assert report["eviction_sets"]["num_sets"] == len(channel.pairs)
        assert len(report["fault_correlation"]) == len(rows)

    def test_health_sidecar_round_trips_json(self, tmp_path):
        health = ChannelHealth()
        health.observe_frame(
            now=0.0, seq=0, attempt=0, ok=True,
            sent_bits=[1, 0], received_bits=[1, 0],
        )
        report = build_health_report(
            "unit", channel=health, extras={"preset": "off"}
        )
        path = write_health_json(tmp_path / "run.health.json", report)
        loaded = json.loads(path.read_text())
        assert loaded["schema_version"] == HEALTH_SCHEMA_VERSION
        assert loaded["label"] == "unit"
        assert loaded["channel"]["frames"] == 1
        assert loaded["extras"] == {"preset": "off"}
        assert loaded["eviction_sets"] is None


# ----------------------------------------------------------------------
# Satellite 1: trace truncation surfaced (manifest + exporter warning)
# ----------------------------------------------------------------------
class TestTraceTruncationSurfaced:
    def _overflowed_runtime(self, runtime):
        tracer = attach_tracer(runtime, capacity=8)
        process = runtime.create_process("noisy")
        buf = runtime.malloc_lines(process, 0, 4)

        def kernel():
            from repro.sim.ops import Access

            for _ in range(8):
                for line in range(4):
                    yield Access(buf, line)

        runtime.run_kernel(kernel(), 0, process)
        assert tracer.events.overwritten > 0
        return tracer

    def test_manifest_records_ring_accounting(self, runtime):
        tracer = self._overflowed_runtime(runtime)
        manifest = build_manifest(runtime, label="t")
        telemetry = manifest.extras["telemetry"]
        assert telemetry["events_recorded"] == len(tracer.events)
        assert telemetry["events_overwritten"] == tracer.events.overwritten
        assert telemetry["trace_truncated"] is True

    def test_manifest_with_metrics_snapshot(self, runtime):
        attach_metrics(runtime)
        process = runtime.create_process("p")

        def kernel():
            yield Sleep(10.0)

        runtime.run_kernel(kernel(), 0, process)
        manifest = build_manifest(runtime, label="m")
        assert manifest.extras["metrics"]["sim_ops_total{op=\"Sleep\"}"] == 1

    def test_write_chrome_trace_warns_on_truncation(self, runtime, tmp_path):
        tracer = self._overflowed_runtime(runtime)
        with pytest.warns(RuntimeWarning, match="truncated"):
            write_chrome_trace(tmp_path / "t.json", tracer, clock_hz=1.5e9)

    def test_write_chrome_trace_silent_when_intact(self, runtime, tmp_path):
        tracer = attach_tracer(runtime)
        process = runtime.create_process("quiet")

        def kernel():
            yield Sleep(10.0)

        runtime.run_kernel(kernel(), 0, process)
        assert tracer.events.overwritten == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_chrome_trace(tmp_path / "q.json", tracer, clock_hz=1.5e9)

    def test_extra_events_appended_to_trace(self, runtime, tmp_path):
        tracer = attach_tracer(runtime)
        process = runtime.create_process("p")

        def kernel():
            yield Sleep(10.0)

        runtime.run_kernel(kernel(), 0, process)
        extra = [
            {
                "name": "epoch:s0", "cat": "epoch", "ph": "X",
                "pid": 0, "tid": PROFILER_TID, "ts": 0.0, "dur": 1.0,
            }
        ]
        path = write_chrome_trace(
            tmp_path / "e.json", tracer, clock_hz=1.5e9, extra_events=extra
        )
        trace = json.loads(path.read_text())
        assert any(
            e.get("tid") == PROFILER_TID and e.get("ph") == "X"
            for e in trace["traceEvents"]
        )


# ----------------------------------------------------------------------
# Satellite 2: EngineStats.trace_dropped + self-describing progress
# ----------------------------------------------------------------------
class TestEngineStatsTraceDropped:
    def test_snapshot_has_trace_dropped(self, runtime):
        snap = runtime.engine.stats.snapshot()
        assert snap["trace_dropped"] == 0

    def test_overflowed_ring_sets_trace_dropped(self, runtime):
        tracer = attach_tracer(runtime, capacity=8)
        process = runtime.create_process("p")
        buf = runtime.malloc_lines(process, 0, 4)

        def kernel():
            from repro.sim.ops import Access

            for _ in range(8):
                for line in range(4):
                    yield Access(buf, line)

        runtime.run_kernel(kernel(), 0, process)
        snap = runtime.engine.stats.snapshot()
        assert snap["trace_dropped"] == tracer.events.overwritten > 0

        runtime.engine.stats.reset()
        assert runtime.engine.stats.trace_dropped == 0


class TestProgressEventCacheFields:
    def test_render_includes_cache_traffic(self):
        event = ProgressEvent(
            "finish", "fig4", status="ok", elapsed=1.0,
            completed=1, total=1, cache_hits=2, cache_misses=1,
        )
        assert "cache 2h/1m" in event.render()

    def test_render_omits_cache_without_a_cache(self):
        event = ProgressEvent(
            "finish", "fig4", status="ok", elapsed=1.0, completed=1, total=1
        )
        assert "cache" not in event.render()

    @pytest.mark.slow
    def test_executor_finish_events_carry_cache_stats(self, tmp_path):
        events = []
        run_experiments(
            ["fig4"], seed=3, small=True, jobs=1,
            cache_dir=tmp_path / "cache", progress=events.append,
        )
        finishes = [e for e in events if e.kind == "finish"]
        assert finishes
        assert all(e.cache_hits is not None for e in finishes)
        assert all(e.elapsed >= 0.0 for e in finishes)
