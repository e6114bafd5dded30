"""Per-device physical memory: a randomized page-frame allocator.

Frames are handed out in a seeded random order.  This models the opaque
virtual-to-physical mapping that the user-space attacker faces (Section
III-B: "caches are physically indexed ... making it difficult to determine
the eventual set a virtual address will hash to").  Within a page, addresses
are of course contiguous, which is what gives memorygrams their
page-structured look (Section V-A).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..config import GPUSpec
from ..errors import AllocationError

__all__ = ["PhysicalMemory"]


class PhysicalMemory:
    """Frame allocator for one GPU's HBM."""

    def __init__(self, spec: GPUSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self.page_size = spec.page_size
        order = np.arange(spec.num_frames, dtype=np.int64)
        rng.shuffle(order)
        self._free: List[int] = order[::-1].tolist()
        self._allocated: set = set()

    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def total_frames(self) -> int:
        return self.spec.num_frames

    def allocate(self, num_frames: int) -> Tuple[int, ...]:
        """Take ``num_frames`` random frames; raises when HBM is exhausted."""
        if num_frames <= 0:
            raise AllocationError("must allocate at least one frame")
        if num_frames > len(self._free):
            raise AllocationError(
                f"out of device memory: need {num_frames} frames, "
                f"{len(self._free)} free"
            )
        frames = tuple(self._free.pop() for _ in range(num_frames))
        self._allocated.update(frames)
        return frames

    def free(self, frames: Sequence[int]) -> None:
        for frame in frames:
            if frame not in self._allocated:
                raise AllocationError(f"double free of frame {frame}")
            self._allocated.discard(frame)
            self._free.append(frame)

    def frames_needed(self, size_bytes: int) -> int:
        if size_bytes <= 0:
            raise AllocationError("allocation size must be positive")
        return -(-size_bytes // self.page_size)
