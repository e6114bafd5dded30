"""MIG-style static L2 partitioning (Section VII).

"A single GPU can be securely partitioned into separate GPU instances for
multiple users with ... L2 cache banks ... assigned uniquely to an
individual instance."  The partitioned cache gives each owner (process) a
private slice of every set's ways, so one process can never evict
another's lines -- which removes the contention signal the attacks need.

The paper notes MIG "requires privileged access and is not available in
Pascal and Volta based DGX machines"; here it is a configuration switch so
the ablation bench can show the attack dying under it.

The same idea extends to the fabric channel
(:mod:`repro.core.linkchannel`): :class:`PartitionedInterconnect` reserves
a private group of lanes per tenant on every link (plus an optional
per-tenant rate shaper), so one tenant's transfers never queue behind
another's and the link-contention signal disappears.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import CacheSpec, DGXSpec
from ..errors import ConfigurationError
from ..hw.cache import L2Cache
from ..hw.interconnect import Edge, FabricFlow, Interconnect
from ..hw.occupancy import single_server_waits, single_server_waits_scalar
from ..hw.replacement import CacheSet, make_set
from ..hw.system import MultiGPUSystem
from ..hw.topology import Topology

__all__ = [
    "PartitionedL2Cache",
    "PartitionedInterconnect",
    "enable_mig_partitioning",
    "enable_lane_partitioning",
]


class PartitionedL2Cache(L2Cache):
    """Way-partitioned L2: each owner gets ``associativity / slices`` ways.

    Owners are mapped to slices round-robin on first use.  Lines of
    different owners live in disjoint way-groups of the same physical set,
    so cross-owner eviction is impossible while set indexing (and hence
    intra-owner behaviour) is unchanged.
    """

    def __init__(
        self, spec: CacheSpec, rng: np.random.Generator, num_slices: int = 2
    ) -> None:
        if num_slices < 1:
            raise ConfigurationError("num_slices must be >= 1")
        if spec.associativity % num_slices:
            raise ConfigurationError(
                f"associativity {spec.associativity} not divisible into "
                f"{num_slices} slices"
            )
        super().__init__(spec, rng)
        self.num_slices = num_slices
        self._ways_per_slice = spec.associativity // num_slices
        self._owner_slice: Dict[Optional[int], int] = {}
        self._rng = rng
        # _sets becomes a matrix: [slice][set_index]
        self._sliced_sets: List[List[CacheSet]] = [
            [
                make_set(spec.replacement, self._ways_per_slice, rng)
                for _ in range(spec.num_sets)
            ]
            for _ in range(num_slices)
        ]

    def slice_of(self, owner: Optional[int]) -> int:
        if owner not in self._owner_slice:
            self._owner_slice[owner] = len(self._owner_slice) % self.num_slices
        return self._owner_slice[owner]

    def assign_owner(self, owner: int, slice_index: int) -> None:
        if not 0 <= slice_index < self.num_slices:
            raise ConfigurationError(f"no slice {slice_index}")
        self._owner_slice[owner] = slice_index

    def _set_for(self, set_index: int, owner: Optional[int]) -> CacheSet:
        return self._sliced_sets[self.slice_of(owner)][set_index]

    def probe_line(self, paddr: int, owner: Optional[int] = None) -> bool:
        set_index = self.addr.set_index(paddr)
        return self._set_for(set_index, owner).contains(self.addr.tag(paddr))

    def invalidate_line(self, paddr: int) -> bool:
        set_index = self.addr.set_index(paddr)
        tag = self.addr.tag(paddr)
        dropped = False
        for slice_sets in self._sliced_sets:
            dropped = slice_sets[set_index].invalidate(tag) or dropped
        return dropped

    def set_occupancy(self, set_index: int) -> int:
        return sum(
            len(slice_sets[set_index].resident_tags())
            for slice_sets in self._sliced_sets
        )

    def invalidate_all(self) -> None:
        for slice_sets in self._sliced_sets:
            for index in range(self.spec.num_sets):
                slice_sets[index] = make_set(
                    self.spec.replacement, self._ways_per_slice, self._rng
                )
        self._bank_busy = [0.0] * self.spec.num_banks


class _ShapedFabricFlow(FabricFlow):
    """Cached-flow variant that applies the per-tenant ingress shaper.

    The lane-group slicing itself needs no override -- ``FabricFlow``
    binds ``_lane_state``'s owner slice at construction -- but every walk
    must first delay each transfer to its flow's shaped issue slot.  This
    is the only place shaping happens: :meth:`Interconnect.transfer` and
    :meth:`Interconnect.transfer_batch` reach it through the cached flow.
    """

    __slots__ = ()

    def advance_batch(self, stamps: np.ndarray) -> np.ndarray:
        inter = self.inter
        if inter.rate_limit_cycles > 0.0 and stamps.size:
            key = (self.owner, self.src, self.dst)
            stamps_arr = np.asarray(stamps, dtype=np.float64)
            delays, busy_end = single_server_waits(
                inter._shaper.get(key, 0.0), stamps_arr, inter.rate_limit_cycles
            )
            inter._shaper[key] = busy_end
            return super().advance_batch(stamps_arr + delays) + delays
        return super().advance_batch(stamps)

    def advance_batch_small(self, stamps) -> list:
        inter = self.inter
        if inter.rate_limit_cycles > 0.0 and len(stamps):
            key = (self.owner, self.src, self.dst)
            delays, busy_end = single_server_waits_scalar(
                inter._shaper.get(key, 0.0), stamps, inter.rate_limit_cycles
            )
            inter._shaper[key] = busy_end
            shifted = [stamp + delay for stamp, delay in zip(stamps, delays)]
            extras = super().advance_batch_small(shifted)
            return [extra + delay for extra, delay in zip(extras, delays)]
        return super().advance_batch_small(stamps)

    def advance_one(self, now: float) -> float:
        inter = self.inter
        if inter.rate_limit_cycles > 0.0:
            key = (self.owner, self.src, self.dst)
            free = inter._shaper.get(key, 0.0)
            start = now if now > free else free
            inter._shaper[key] = start + inter.rate_limit_cycles
            delay = start - now
            return super().advance_one(now + delay) + delay
        return super().advance_one(now)


class PartitionedInterconnect(Interconnect):
    """Lane-partitioned NVLink fabric: each tenant gets private lanes.

    Every link's ``lanes`` are split into ``num_slices`` equal groups and
    owners (process ids) are mapped to groups round-robin on first use
    (pin explicitly with :meth:`assign_owner`).  A transfer only ever
    queues on its owner's group, so a trojan's floods cannot delay a spy's
    probes -- the fabric covert/side channel loses its signal, at the cost
    of each tenant seeing ``lanes / num_slices`` of the link's capacity.

    ``rate_limit_cycles`` adds an optional per-tenant ingress shaper: one
    transfer per that many cycles per (owner, src, dst) flow, modelling a
    QoS rate cap.  Shaping alone throttles a flooder without isolating
    lanes; combined with slicing it also bounds intra-slice queueing.
    """

    def __init__(
        self,
        spec: DGXSpec,
        topology: Topology,
        num_slices: int = 2,
        rate_limit_cycles: float = 0.0,
    ) -> None:
        if num_slices < 1:
            raise ConfigurationError("num_slices must be >= 1")
        for edge in topology.edges:
            width = spec.lane_width(edge)
            if width % num_slices:
                raise ConfigurationError(
                    f"{width} lanes on link {sorted(edge)} not divisible "
                    f"into {num_slices} slices"
                )
        if rate_limit_cycles < 0:
            raise ConfigurationError("rate_limit_cycles must be >= 0")
        super().__init__(spec, topology)
        self.num_slices = num_slices
        self.rate_limit_cycles = float(rate_limit_cycles)
        # Lane groups as index masks over each link's full lane range:
        # slice ``s`` of an edge with width ``w`` owns lanes
        # ``[s * w // num_slices, (s + 1) * w // num_slices)`` -- the
        # per-slice busy lists below are those mask-selected groups.
        self._slice_busy: Dict[Edge, List[list]] = {
            edge: [
                [0.0] * (spec.lane_width(edge) // num_slices)
                for _ in range(num_slices)
            ]
            for edge in topology.edges
        }
        self._owner_slice: Dict[Optional[int], int] = {}
        self._shaper: Dict[Tuple[Optional[int], int, int], float] = {}

    _flow_class = _ShapedFabricFlow

    # ------------------------------------------------------------------
    def slice_of(self, owner: Optional[int]) -> int:
        if owner not in self._owner_slice:
            self._owner_slice[owner] = len(self._owner_slice) % self.num_slices
        return self._owner_slice[owner]

    def assign_owner(self, owner: int, slice_index: int) -> None:
        if not 0 <= slice_index < self.num_slices:
            raise ConfigurationError(f"no lane slice {slice_index}")
        self._owner_slice[owner] = slice_index
        # Cached flows bound the owner's previous lane group; invalidate.
        self._lanes_version += 1

    def _lane_state(self, edge: Edge, owner: Optional[int]) -> list:
        return self._slice_busy[edge][self.slice_of(owner)]

    #: The ledger (``benchmarks/ledger/spans.py``) wraps these two names
    #: on this class; they stay as aliases of the base methods, which
    #: shape through :class:`_ShapedFabricFlow`, until the next benchmark
    #: change drops the rows.
    transfer = Interconnect.transfer
    transfer_batch = Interconnect.transfer_batch

    # ------------------------------------------------------------------
    def link_busy_until(self) -> Dict[Edge, float]:
        return {
            edge: max(max(lanes) for lanes in slices)
            for edge, slices in self._slice_busy.items()
        }

    def reset(self) -> None:
        super().reset()
        for slices in self._slice_busy.values():
            for lanes in slices:
                for lane in range(len(lanes)):
                    lanes[lane] = 0.0
        self._shaper.clear()


def enable_lane_partitioning(
    system: MultiGPUSystem,
    num_slices: int = 2,
    rate_limit_cycles: float = 0.0,
) -> PartitionedInterconnect:
    """Swap the box's interconnect for a lane-partitioned one.

    Returns the new interconnect so the caller can pin owners to slices.
    In-flight lane reservations are dropped, as a fabric reconfiguration
    would; the tracer and metrics hooks carry over.
    """
    partitioned = PartitionedInterconnect(
        system.spec,
        system.topology,
        num_slices=num_slices,
        rate_limit_cycles=rate_limit_cycles,
    )
    partitioned.tracer = system.interconnect.tracer
    partitioned.metrics = system.interconnect.metrics
    system.interconnect = partitioned
    return partitioned


def enable_mig_partitioning(
    system: MultiGPUSystem, gpu_id: int, num_slices: int = 2
) -> PartitionedL2Cache:
    """Swap one GPU's L2 for a way-partitioned variant (privileged op).

    Returns the new cache so the caller can pin owners to slices.  Existing
    cache contents are dropped, as a real repartitioning would.
    """
    gpu = system.gpus[gpu_id]
    partitioned = PartitionedL2Cache(
        gpu.spec.cache,
        system.rng.generator(f"gpu{gpu_id}/replacement_mig"),
        num_slices=num_slices,
    )
    gpu.l2 = partitioned
    return partitioned
