"""Streaming-multiprocessor occupancy with the leftover placement policy.

Section VI: "Based on leftover policy for GPU multiprogramming, thread
blocks of the first process are assigned to different SMs and if there are
leftover intra-SM resources for other applications, they can get launched on
the same SM concurrently."  Saturating shared memory on every SM therefore
blocks other processes from co-residency -- the paper's noise-mitigation
trick, reproduced by :mod:`repro.noise.blocking`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import GPUSpec
from ..errors import LaunchError

__all__ = ["SMArray", "BlockPlacement"]


@dataclass(frozen=True)
class BlockPlacement:
    """Where one thread block landed."""

    sm_index: int
    shared_mem: int
    block_id: int


@dataclass
class _SMState:
    shared_free: int
    blocks: Dict[int, int] = field(default_factory=dict)  # block_id -> shared bytes
    block_slots_free: int = 0


class SMArray:
    """Occupancy tracker for one GPU's SMs."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        self._sms: List[_SMState] = [
            _SMState(
                shared_free=spec.shared_mem_per_sm,
                block_slots_free=spec.max_blocks_per_sm,
            )
            for _ in range(spec.num_sms)
        ]
        self._next_block_id = 0

    # ------------------------------------------------------------------
    def place_block(self, shared_mem: int = 0) -> BlockPlacement:
        """Place one thread block under the leftover policy (spread first).

        Blocks of a grid spread across SMs round-robin; a block only shares
        an SM when every SM is already occupied and only if leftover shared
        memory and block slots remain.
        """
        if shared_mem > self.spec.max_shared_mem_per_block:
            raise LaunchError(
                f"block requests {shared_mem} B shared memory; Pascal caps a "
                f"block at {self.spec.max_shared_mem_per_block} B"
            )
        target = self._pick_sm(shared_mem)
        if target is None:
            raise LaunchError("no SM has leftover resources for this block")
        sm = self._sms[target]
        block_id = self._next_block_id
        self._next_block_id += 1
        sm.shared_free -= shared_mem
        sm.block_slots_free -= 1
        sm.blocks[block_id] = shared_mem
        return BlockPlacement(sm_index=target, shared_mem=shared_mem, block_id=block_id)

    def _pick_sm(self, shared_mem: int) -> Optional[int]:
        # Least-loaded first: an empty SM wins over a partially-filled one.
        best: Optional[Tuple[int, int]] = None  # (occupied_blocks, index)
        for index, sm in enumerate(self._sms):
            if sm.shared_free < shared_mem or sm.block_slots_free <= 0:
                continue
            if not sm.blocks:
                # An empty SM has the smallest key the scan can still
                # meet, so stop here: on an idle GPU that is SM 0.
                return index
            key = (len(sm.blocks), index)
            if best is None or key < best:
                best = key
        return best[1] if best else None

    def release_block(self, placement: BlockPlacement) -> None:
        sm = self._sms[placement.sm_index]
        shared = sm.blocks.pop(placement.block_id, None)
        if shared is None:
            raise LaunchError(f"block {placement.block_id} is not resident")
        sm.shared_free += shared
        sm.block_slots_free += 1

    # ------------------------------------------------------------------
    def can_place(self, shared_mem: int = 0) -> bool:
        return self._pick_sm(shared_mem) is not None

    def resident_blocks(self) -> int:
        return sum(len(sm.blocks) for sm in self._sms)

    def shared_mem_free(self) -> List[int]:
        return [sm.shared_free for sm in self._sms]
