"""Forked set-ups: a fork of a prepared covert channel is a cold set-up.

:class:`~repro.cache.SetupTemplate` deep-copies a prepared
``(runtime, channel)`` graph; :class:`PreparedChannels` hands out forks
of it instead of re-running the calibration / Algorithm-1 / Algorithm-2
prologue on identical boxes.  Everything downstream of a fork -- bits,
clock, counters, jitter stream -- must equal a cold set-up of a fresh
box at the same seed.
"""

import copy
import pickle

import numpy as np
import pytest

import repro.core.covert.channel as channel_module
from repro.cache import ArtifactCache, SetupTemplate, activated
from repro.config import DGXSpec
from repro.core.covert.channel import CovertChannel, PreparedChannels
from repro.core.eviction import _install_chain
from repro.errors import AlignmentError, SimulationError
from repro.experiments.report import run_experiment
from repro.runtime.api import Runtime
from repro.sim.ops import Sleep
from repro.telemetry import attach_tracer

SEED = 7
BITS = [int(b) for b in np.random.default_rng(3).integers(0, 2, 40)]
COVERT_SECTIONS = ("ext-chaos-covert", "fig9", "fig10", "sec6-noise", "sec7-defense")


def _fresh_runtime():
    return Runtime(DGXSpec.small(), seed=SEED)


def _cold(num_sets):
    channel = CovertChannel(_fresh_runtime())
    channel.setup(num_sets)
    return channel


def _state(channel, outcome):
    """Everything a transmission leaves behind that a fork must match."""
    runtime = channel.runtime
    pool = runtime.system._jitter
    return {
        "received": outcome.received_bits,
        "now": runtime.engine.now,
        "gpu_counters": [gpu.counters.snapshot() for gpu in runtime.system.gpus],
        "links": runtime.system.interconnect.counters_snapshot(),
        "jitter_pos": pool._pos,
        "jitter_next": pool.take(8).tolist(),
    }


def _sets(pairs):
    return [
        (t.buffer.name, t.indices, t.set_id, s.buffer.name, s.indices, s.set_id)
        for t, s in pairs
    ]


class TestForkIsColdSetup:
    def test_fork_then_transmit_equals_cold_setup(self):
        boxes = PreparedChannels(_fresh_runtime)
        boxes.channel(2)  # cold: becomes the template
        fork = boxes.channel(2)
        cold = _cold(2)
        assert _state(fork, fork.transmit(BITS)) == _state(cold, cold.transmit(BITS))

    def test_forks_are_independent(self):
        boxes = PreparedChannels(_fresh_runtime)
        original = boxes.channel(2)
        first, second = boxes.channel(2), boxes.channel(2)
        assert first.runtime is not second.runtime
        assert first.runtime is not original.runtime
        trojan_buf = first.pairs[0][0].buffer
        assert trojan_buf is not second.pairs[0][0].buffer
        first_state = _state(first, first.transmit(BITS))
        # The first fork's traffic moved none of the second's state.
        assert second.runtime.engine.now == original.runtime.engine.now
        assert _state(second, second.transmit(BITS)) == first_state

    @pytest.mark.parametrize("num_sets", [1, 2, 4])
    def test_pairs_for_matches_cold_setup(self, num_sets):
        boxes = PreparedChannels(_fresh_runtime)
        boxes.channel(1)
        fork = boxes.channel(1)
        assert _sets(fork.pairs_for(num_sets)) == _sets(_cold(num_sets).pairs)

    def test_oversized_placement_raises_like_cold_setup(self):
        boxes = PreparedChannels(_fresh_runtime)
        boxes.channel(1)
        with pytest.raises(AlignmentError) as forked:
            boxes.channel(10_000)
        with pytest.raises(AlignmentError) as cold:
            _cold(10_000)
        assert str(forked.value) == str(cold.value)

    def test_traced_runtime_is_never_forked(self):
        tracers = []

        def traced_runtime():
            runtime = _fresh_runtime()
            tracers.append(attach_tracer(runtime))
            return runtime

        boxes = PreparedChannels(traced_runtime)
        channels = [boxes.channel(2) for _ in range(2)]
        assert boxes._template is None
        assert len(tracers) == 2
        for channel, tracer in zip(channels, tracers):
            assert channel.runtime.system.tracer is tracer
            before = len(tracer.events)
            assert before > 0  # the cold set-up was traced
            channel.transmit(BITS[:8])
            assert len(tracer.events) > before

    def test_capture_needs_a_quiescent_engine(self):
        channel = _cold(1)

        def nap():
            yield Sleep(10.0)

        channel.runtime.launch(nap(), 0, channel.trojan)
        with pytest.raises(SimulationError):
            SetupTemplate(channel.runtime, channel)


class TestSparseBufferState:
    def _chained(self):
        channel = _cold(1)
        trojan_set = channel.pairs[0][0]
        buffer = trojan_set.buffer
        _install_chain(buffer, trojan_set.indices)
        assert np.count_nonzero(buffer.data)
        return buffer

    @pytest.mark.parametrize(
        "clone",
        [lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_round_trip(self, clone):
        buffer = self._chained()
        twin = clone(buffer)
        assert np.array_equal(twin.data, buffer.data)
        assert twin.data.dtype == buffer.data.dtype
        assert twin.frames == buffer.frames
        assert twin.token == buffer.token
        indices = np.arange(buffer.num_words)
        assert np.array_equal(twin.paddrs(indices), buffer.paddrs(indices))
        twin.data[0] += 1
        assert not np.array_equal(twin.data, buffer.data)

    def test_mostly_zero_buffer_pickles_small(self):
        runtime = _fresh_runtime()
        process = runtime.create_process("p")
        buffer = runtime.malloc(process, 0, 1 << 20, name="big")
        for index in (0, 17, 4_000, buffer.num_words - 1):
            buffer.store(index, index + 1)
        size = len(pickle.dumps(buffer, pickle.HIGHEST_PROTOCOL))
        assert size < 8 * 1024
        assert np.array_equal(pickle.loads(pickle.dumps(buffer)).data, buffer.data)


class TestSectionScope:
    def test_each_noise_ablation_run_pays_one_prologue(self, monkeypatch):
        calls = []
        real = channel_module.discover_page_coloring

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(channel_module, "discover_page_coloring", counting)
        for _ in range(2):
            calls.clear()
            run_experiment("sec6-noise", seed=0, small=True)
            # One prologue (trojan + spy discovery) per run, never shared
            # across runs: the template dies with the run that made it.
            assert len(calls) == 2

    def test_cache_keeps_one_discovery_entry(self, tmp_path):
        uncached = {
            name: run_experiment(name, small=True).summary()
            for name in COVERT_SECTIONS
        }
        for label in ("cold", "warm"):
            with activated(ArtifactCache(tmp_path)) as cache:
                summaries = {
                    name: run_experiment(name, small=True).summary()
                    for name in COVERT_SECTIONS
                }
            assert summaries == uncached, label
            if label == "cold":
                assert (cache.misses, cache.stores, cache.hits) == (1, 1, 4)
        assert len(list((tmp_path / "discovery").glob("*.pkl.gz"))) == 1
