"""Set-associative L2 cache model with banked ports.

Each GPU has one L2 shared by all its SMs (Fig 2).  Lines are indexed by
*physical* address.  Banks model the limited port throughput: concurrent
accesses landing on the same bank queue behind each other, which is the
mechanism behind the rising error rate of Fig 9 ("as the number of cache
sets increases, the contention increases among resources such as ports,
introducing more variability in the timing").

Two interchangeable backends implement the model:

* :class:`L2Cache` -- the scalar reference: one Python
  :class:`~repro.hw.replacement.CacheSet` per set, one access at a time.
  Supports every replacement policy and stays the base class for the
  partitioned defense variant.
* :class:`VectorL2Cache` -- the vectorized fast path: all sets in one
  numpy tag/age matrix (:class:`~repro.hw.tagstore.LruTagStore`) with a
  batched :meth:`~VectorL2Cache.access_lines` servicing whole probe
  traversals per call.  LRU only; selected via
  ``CacheSpec.l2_backend`` (the default) and proven equivalent to the
  reference by the differential tests in ``tests/test_vector_cache.py``.

:func:`make_l2` picks the backend for a spec.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..config import CacheSpec
from .address import AddressMap
from .occupancy import single_server_waits
from .replacement import CacheSet, make_set
from .tagstore import LruTagStore, WalkPlan

__all__ = [
    "L2Cache",
    "VectorL2Cache",
    "CacheAccess",
    "EpochAccessPlan",
    "make_l2",
]


class EpochAccessPlan(NamedTuple):
    """State-independent layout of one batched access stream.

    Built by :meth:`VectorL2Cache.plan_epoch`; ``walk`` is the tag-store
    per-set walk layout and ``bank_groups`` the per-bank lane grouping,
    both reusable across sweeps that replay the same addresses.
    """

    count: int
    walk: WalkPlan
    bank_groups: List[Tuple[int, np.ndarray]]


class CacheAccess(NamedTuple):
    """Result of one line access against the cache model."""

    hit: bool
    set_index: int
    evicted_tag: Optional[int]
    bank_wait: float


class L2Cache:
    """One GPU's L2: an array of replacement-policy sets plus banks."""

    def __init__(self, spec: CacheSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self.addr = AddressMap(spec)
        self._rng = rng
        self._sets: List[CacheSet] = [
            make_set(spec.replacement, spec.associativity, rng)
            for _ in range(spec.num_sets)
        ]
        self._bank_busy = [0.0] * spec.num_banks
        self._bank_mask = spec.num_banks - 1

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, paddr: int, now: float, owner: Optional[int] = None) -> CacheAccess:
        """Look up (and fill) the line containing ``paddr`` at time ``now``.

        ``owner`` identifies the requesting process; the base cache ignores
        it, but partitioned variants (repro.defense.partitioning) use it to
        isolate owners.
        """
        addr = self.addr
        if self.spec.index_hashing:
            set_index = addr.set_index(paddr)
        else:
            set_index = (paddr >> addr.line_bits) & addr.set_mask
        tag = paddr >> addr.tag_shift
        hit, evicted = self._set_for(set_index, owner).access(tag)
        wait = self._occupy_bank(set_index, now)
        return CacheAccess(hit=hit, set_index=set_index, evicted_tag=evicted, bank_wait=wait)

    def _set_for(self, set_index: int, owner: Optional[int]) -> CacheSet:
        return self._sets[set_index]

    def _occupy_bank(self, set_index: int, now: float) -> float:
        bank = set_index & self._bank_mask
        busy = self._bank_busy[bank]
        wait = busy - now if busy > now else 0.0
        self._bank_busy[bank] = now + wait + self.spec.bank_service_cycles
        return wait

    # ------------------------------------------------------------------
    # Inspection / maintenance (hardware-side; not visible to attackers)
    # ------------------------------------------------------------------
    def probe_line(self, paddr: int, owner: Optional[int] = None) -> bool:
        """True if the line containing ``paddr`` is resident (no side effects)."""
        set_index = self.addr.set_index(paddr)
        return self._set_for(set_index, owner).contains(self.addr.tag(paddr))

    def invalidate_line(self, paddr: int) -> bool:
        """Drop the line containing ``paddr``; True if it was resident."""
        set_index = self.addr.set_index(paddr)
        return self._sets[set_index].invalidate(self.addr.tag(paddr))

    def set_occupancy(self, set_index: int) -> int:
        """Number of valid lines in ``set_index``."""
        return len(self._sets[set_index].resident_tags())

    def invalidate_all(self) -> None:
        """Drop every line (used between experiment repetitions in tests).

        Replacement state is rebuilt from the cache's own construction-time
        generator so that seeded runs stay reproducible across resets (a
        fixed fresh ``default_rng(0)`` here would fork the random-policy
        stream away from the system's :class:`~repro.sim.rng.RngFanout`).
        """
        self._sets = [
            make_set(self.spec.replacement, self.spec.associativity, self._rng)
            for _ in range(self.spec.num_sets)
        ]
        self._bank_busy = [0.0] * self.spec.num_banks


class VectorL2Cache:
    """Numpy-backed L2 (LRU only): batched lookups over a flat tag store.

    Mirrors :class:`L2Cache`'s public interface so the access path can use
    either backend, and adds :meth:`access_lines`, which services a whole
    batch of line accesses (an eviction-set traversal, or a multi-set
    probe epoch) with array operations.
    """

    def __init__(self, spec: CacheSpec, rng: np.random.Generator) -> None:
        if spec.replacement != "lru":
            raise ValueError(
                "VectorL2Cache implements LRU only; use L2Cache for "
                f"{spec.replacement!r}"
            )
        self.spec = spec
        self.addr = AddressMap(spec)
        self._rng = rng
        self._store = LruTagStore(spec.num_sets, spec.associativity)
        self._bank_busy = np.zeros(spec.num_banks, dtype=np.float64)
        self._bank_mask = spec.num_banks - 1

    # ------------------------------------------------------------------
    # Batched access path
    # ------------------------------------------------------------------
    def set_indices(self, paddrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`~repro.hw.address.AddressMap.set_index`."""
        addr = self.addr
        line = paddrs >> addr.line_bits
        index = line & addr.set_mask
        if self.spec.index_hashing:
            folded = line >> addr.set_bits
            while folded.any():
                index ^= folded & addr.set_mask
                folded >>= addr.set_bits
        return index

    def decode(self, paddrs: List[int]) -> Tuple[List[int], List[int]]:
        """:meth:`set_indices` and tags of a short burst, as plain lists.

        The narrow-burst core's decode: below a few dozen lines a list
        comprehension is cheaper than the array round trip.
        """
        addr = self.addr
        if self.spec.index_hashing:
            sets = [addr.set_index(paddr) for paddr in paddrs]
        else:
            line_bits, set_mask = addr.line_bits, addr.set_mask
            sets = [(paddr >> line_bits) & set_mask for paddr in paddrs]
        tag_shift = addr.tag_shift
        return sets, [paddr >> tag_shift for paddr in paddrs]

    def access_lines(
        self, paddrs: np.ndarray, stamps: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Service a batch of line accesses in program order.

        ``stamps`` must be non-decreasing (the batch issue order).  Returns
        ``(hits, evictions, bank_waits, set_indices)`` arrays; cache state
        and bank busy times are updated exactly as a sequential scalar
        walk would.
        """
        sets = self.set_indices(paddrs)
        tags = paddrs >> self.addr.tag_shift
        hits, evictions = self._store.access_lines(sets, tags)
        bank_waits = self._occupy_banks(sets, stamps)
        return hits, evictions, bank_waits, sets

    def plan_epoch(self, paddrs: np.ndarray) -> "EpochAccessPlan":
        """Precompute the state-independent parts of one access stream.

        Set decoding, tag extraction, the tag-store walk layout, and the
        per-bank grouping are all functions of the addresses and the cache
        geometry alone; a caller that replays the same stream sweep after
        sweep (:class:`~repro.sim.ops.ProbeEpoch`) builds this once and
        calls :meth:`access_lines_planned` per sweep.
        """
        sets = self.set_indices(paddrs)
        tags = paddrs >> self.addr.tag_shift
        walk = self._store.plan_walk(sets, tags)
        banks = sets & self._bank_mask
        order = np.argsort(banks, kind="stable")
        grouped = banks[order]
        bank_groups = []
        if banks.size:
            starts = np.nonzero(np.r_[True, grouped[1:] != grouped[:-1]])[0]
            bounds = np.append(starts, banks.size)
            for at in range(starts.size):
                lane = order[bounds[at] : bounds[at + 1]]
                bank_groups.append((int(grouped[bounds[at]]), lane))
        return EpochAccessPlan(
            count=int(paddrs.size), walk=walk, bank_groups=bank_groups
        )

    def access_lines_planned(
        self, plan: "EpochAccessPlan", stamps: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`access_lines` against a precomputed plan.

        Cache and bank state advance exactly as the unplanned batch walk
        over the same stream would; returns ``(hits, evictions,
        bank_waits)``.
        """
        hits, evictions = self._store.access_lines_planned(plan.walk)
        waits = np.zeros(plan.count, dtype=np.float64)
        service = float(self.spec.bank_service_cycles)
        bank_busy = self._bank_busy
        for bank, lane in plan.bank_groups:
            waits[lane], bank_busy[bank] = single_server_waits(
                float(bank_busy[bank]), stamps[lane], service
            )
        return hits, evictions, waits

    def _occupy_banks(self, sets: np.ndarray, stamps: np.ndarray) -> np.ndarray:
        banks = sets & self._bank_mask
        waits = np.zeros(sets.size, dtype=np.float64)
        service = float(self.spec.bank_service_cycles)
        # One stable sort groups the batch into per-bank runs; slicing the
        # sorted order is much cheaper than a boolean scan per bank.
        order = np.argsort(banks, kind="stable")
        grouped = banks[order]
        starts = np.nonzero(np.r_[True, grouped[1:] != grouped[:-1]])[0]
        bounds = np.append(starts, banks.size)
        for at in range(starts.size):
            lane = order[bounds[at] : bounds[at + 1]]
            bank = int(grouped[bounds[at]])
            waits[lane], self._bank_busy[bank] = single_server_waits(
                float(self._bank_busy[bank]), stamps[lane], service
            )
        return waits

    # ------------------------------------------------------------------
    # Scalar access path (single-word loads, reverse-engineering probes)
    # ------------------------------------------------------------------
    def access(self, paddr: int, now: float, owner: Optional[int] = None) -> CacheAccess:
        addr = self.addr
        if self.spec.index_hashing:
            set_index = addr.set_index(paddr)
        else:
            set_index = (paddr >> addr.line_bits) & addr.set_mask
        tag = paddr >> addr.tag_shift
        hit, evicted = self._store.access_one(set_index, tag)
        wait = self._occupy_bank(set_index, now)
        return CacheAccess(hit=hit, set_index=set_index, evicted_tag=evicted, bank_wait=wait)

    def _occupy_bank(self, set_index: int, now: float) -> float:
        bank = set_index & self._bank_mask
        busy = float(self._bank_busy[bank])
        wait = busy - now if busy > now else 0.0
        self._bank_busy[bank] = now + wait + self.spec.bank_service_cycles
        return wait

    # ------------------------------------------------------------------
    # Inspection / maintenance (hardware-side; not visible to attackers)
    # ------------------------------------------------------------------
    def probe_line(self, paddr: int, owner: Optional[int] = None) -> bool:
        """True if the line containing ``paddr`` is resident (no side effects)."""
        return self._store.contains(self.addr.set_index(paddr), self.addr.tag(paddr))

    def invalidate_line(self, paddr: int) -> bool:
        """Drop the line containing ``paddr``; True if it was resident."""
        return self._store.invalidate(self.addr.set_index(paddr), self.addr.tag(paddr))

    def set_occupancy(self, set_index: int) -> int:
        """Number of valid lines in ``set_index``."""
        return self._store.occupancy(set_index)

    def invalidate_all(self) -> None:
        """Drop every line (used between experiment repetitions in tests)."""
        self._store.reset()
        self._bank_busy.fill(0.0)


def make_l2(spec: CacheSpec, rng: np.random.Generator):
    """Build the L2 backend selected by ``spec.l2_backend``.

    The vectorized backend implements true LRU only (the policy the paper
    reverse-engineers); ablation policies fall back to the scalar
    reference regardless of the flag.
    """
    if spec.l2_backend == "vectorized" and spec.replacement == "lru":
        return VectorL2Cache(spec, rng)
    return L2Cache(spec, rng)
