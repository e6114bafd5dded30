"""SM occupancy and the leftover placement policy (Section VI's lever)."""

import random

import pytest

from repro.config import GPUSpec
from repro.errors import LaunchError
from repro.hw.sm import SMArray


@pytest.fixture
def sms():
    return SMArray(
        GPUSpec(
            name="mini",
            num_sms=4,
            shared_mem_per_sm=64 * 1024,
            max_shared_mem_per_block=32 * 1024,
            max_blocks_per_sm=2,
        )
    )


class TestLeftoverPolicy:
    def test_blocks_spread_across_sms_first(self, sms):
        placements = [sms.place_block(0) for _ in range(4)]
        assert sorted(p.sm_index for p in placements) == [0, 1, 2, 3]

    def test_colocation_only_after_all_sms_occupied(self, sms):
        for _ in range(4):
            sms.place_block(0)
        fifth = sms.place_block(0)
        assert 0 <= fifth.sm_index < 4
        assert sms.resident_blocks() == 5

    def test_shared_memory_limits_placement(self, sms):
        # Two 32KB blocks per SM exhaust shared memory everywhere.
        for _ in range(8):
            sms.place_block(32 * 1024)
        assert not sms.can_place(1)
        with pytest.raises(LaunchError):
            sms.place_block(1)

    def test_block_slot_limit(self, sms):
        for _ in range(8):  # 4 SMs x 2 slots
            sms.place_block(0)
        with pytest.raises(LaunchError):
            sms.place_block(0)

    def test_oversized_block_rejected(self, sms):
        with pytest.raises(LaunchError):
            sms.place_block(33 * 1024)

    def test_release_restores_capacity(self, sms):
        placement = sms.place_block(32 * 1024)
        sms.release_block(placement)
        assert sms.resident_blocks() == 0
        assert sms.shared_mem_free()[placement.sm_index] == 64 * 1024

    def test_double_release_raises(self, sms):
        placement = sms.place_block(0)
        sms.release_block(placement)
        with pytest.raises(LaunchError):
            sms.release_block(placement)

    def test_occupancy_blocking_scenario(self, sms):
        """The paper's §VI mitigation: attack block + idle blocks saturate
        shared memory so no other application can launch."""
        attack = sms.place_block(32 * 1024)  # the attack's own block
        idle = 0
        while sms.can_place(32 * 1024):
            sms.place_block(32 * 1024)
            idle += 1
        assert idle == 7  # 4 SMs x 2 blocks - the attack block
        assert not sms.can_place(16 * 1024)
        sms.release_block(attack)
        assert sms.can_place(32 * 1024)


def _scan_pick(sms, shared_mem):
    """The least-loaded-first scan over every SM (the reference pick)."""
    best = None
    for index, sm in enumerate(sms._sms):
        if sm.shared_free < shared_mem or sm.block_slots_free <= 0:
            continue
        key = (len(sm.blocks), index)
        if best is None or key < best:
            best = key
    return best[1] if best else None


def test_random_place_release_program_matches_scan(sms):
    """Stopping at the first empty SM never changes where a block lands."""
    rng = random.Random(5)
    resident = []
    idle_launches = 0
    for _ in range(2000):
        if resident and rng.random() < 0.5:
            sms.release_block(resident.pop(rng.randrange(len(resident))))
        else:
            shared = rng.choice([0, 0, 1024, 16 * 1024, 32 * 1024])
            idle_launches += not resident
            expected = _scan_pick(sms, shared)
            if expected is None:
                with pytest.raises(LaunchError):
                    sms.place_block(shared)
            else:
                placement = sms.place_block(shared)
                assert placement.sm_index == expected
                resident.append(placement)
    assert idle_launches > 100
