"""Remote memorygram prober on the small box."""

import pytest

from repro.core.eviction import EvictionSet
from repro.core.sidechannel.prober import MemorygramProber
from repro.errors import AttackError
from repro.workloads.vectoradd import VectorAdd


@pytest.fixture
def prober(runtime):
    p = MemorygramProber(runtime, victim_gpu=0, spy_gpu=1)
    p.setup(num_sets=16)
    return p


def small_victim(seed=0):
    return VectorAdd(scale=0.02, seed=seed, passes=2)


class TestSetup:
    def test_eviction_sets_cover_requested_count(self, prober):
        assert len(prober.eviction_sets) == 16

    def test_record_without_setup_raises(self, runtime):
        with pytest.raises(AttackError):
            MemorygramProber(runtime).record()

    def test_sets_spanning_two_buffers_raise(self, runtime, prober):
        # A sweep is one burst over one probe buffer.
        other = runtime.malloc_lines(prober.process, 0, 64, name="second")
        first = prober.eviction_sets[1]
        prober.eviction_sets[1] = EvictionSet(
            other, first.indices, first.set_id, first.origin
        )
        with pytest.raises(AttackError, match="one probe buffer"):
            prober.record(victim=None)


class TestRecording:
    def test_idle_recording_is_quiet(self, prober):
        gram = prober.record(victim=None, bin_cycles=10_000.0)
        # After the warm-up, an idle box produces (almost) no misses.
        assert gram.total_misses() <= prober.eviction_sets.__len__() * 2

    def test_victim_activity_is_visible(self, runtime, prober):
        gram = prober.record(small_victim(), bin_cycles=10_000.0)
        assert gram.total_misses() > 50

    def test_memorygram_rows_match_sets(self, prober):
        gram = prober.record(small_victim(), bin_cycles=10_000.0)
        assert gram.num_sets == 16

    def test_two_traces_differ_by_placement(self, runtime, prober):
        """Fresh victim processes get fresh (random) physical pages, so
        the per-set pattern varies run to run -- as the paper notes."""
        gram_a = prober.record(small_victim(seed=1), bin_cycles=10_000.0)
        gram_b = prober.record(small_victim(seed=2), bin_cycles=10_000.0)
        assert (gram_a.misses_per_set() != gram_b.misses_per_set()).any()

    def test_duration_cap_respected(self, prober):
        gram = prober.record(
            small_victim(), bin_cycles=10_000.0, max_duration_cycles=200_000.0
        )
        assert gram.duration_cycles <= 300_000.0
