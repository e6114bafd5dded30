"""The trojan (sender) kernel -- Section IV-B.

One thread block (a single warp) per aligned set pair.  To send a '1' the
block primes the physical cache set by walking its eviction set, evicting
whatever the spy planted there; to send a '0' it burns the slot in
"computationally heavy dummy instructions (e.g. trigonometric
instructions)" so the set stays untouched.
"""

from __future__ import annotations

from typing import Sequence

from ...sim.ops import AccessEpoch, EpochBurst, EpochIdle, EpochRepeat
from ..eviction import EvictionSet

__all__ = ["trojan_send_kernel"]

#: Safety margin before the slot edge after which no new prime is issued.
#: A prime *started* before the edge evicts the spy's lines within the
#: slot (its cache effect lands at issue time), so the margin only needs
#: to cover the issue burst of the warp, not the full round-trip.
_PRIME_MARGIN_CYCLES = 120.0

#: Granularity of the dummy-compute wait during '0' slots.
_WAIT_CHUNK_CYCLES = 200.0


def trojan_send_kernel(
    eviction_set: EvictionSet,
    bits: Sequence[int],
    slot_cycles: float,
):
    """Transmit ``bits`` over one aligned set, one bit per slot.

    The whole frame is one :class:`AccessEpoch` plan.  Slot ``i`` spans
    ``[start + i*slot, start + (i+1)*slot)`` from the plan's opening clock
    read, with no cumulative drift -- the sender-side "controlling
    parameters that control the priming of the cache set".  A '1' slot is
    an :class:`EpochRepeat`: prime until the next prime could start past
    the margin before the slot edge.  Every slot then waits out its
    remainder in 200-cycle dummy-compute chunks (:class:`EpochIdle`),
    never touching memory.
    """
    burst = EpochBurst(
        eviction_set.buffer,
        (tuple(eviction_set.indices),),
        parallel=True,
    )
    segments = []
    for position, bit in enumerate(bits):
        slot_edge = (position + 1) * slot_cycles
        if bit:
            segments.append(
                EpochRepeat(burst, until=slot_edge, margin=_PRIME_MARGIN_CYCLES)
            )
        segments.append(EpochIdle(until=slot_edge, chunk=_WAIT_CHUNK_CYCLES))
    yield AccessEpoch(tuple(segments), rounds=1, record=False)
    return len(bits)
