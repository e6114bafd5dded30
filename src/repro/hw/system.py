"""The multi-GPU box: wiring plus the NUMA access path.

This is the hardware half of the paper's central reverse-engineering result
(Section III-A): *a line is cached in the L2 of the GPU that homes its
physical page*.  A local access hits/misses the local L2; a remote access
travels over NVLink and hits/misses the **remote** GPU's L2 -- never the
local one.  All four timing classes of Fig 4 come out of this path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

import numpy as np

from ..config import DGXSpec, TimingSpec
from ..errors import PeerAccessError
from ..sim.ops import AccessResult, EpochResult, LinkProbeResult
from ..sim.process import DeviceBuffer, Process
from ..sim.rng import RngFanout
from .cache import VectorL2Cache
from .gpu import GPU
from .interconnect import SMALL_BATCH, Interconnect
from .tagstore import _INVALID as _INVALID_TAG
from .topology import Topology

__all__ = ["MultiGPUSystem"]

#: Epoch plans kept by the LRU plan cache.  Every sweep of a memorygram
#: capture touches each prober block's plan once, while the victim's
#: one-shot bursts add a fresh plan each; the cache must outlast the
#: victim bursts that fall between two sweeps of one block.
_EPOCH_PLAN_CAPACITY = 128

#: The width gate's floor and ratio (see :func:`_is_wide`).
_WIDE_MIN = 32
_WIDE_RATIO = 12


def _is_wide(count: int, longest: int) -> bool:
    """The width gate shared by :meth:`MultiGPUSystem.access_batch` and
    :meth:`MultiGPUSystem.service_burst`.

    On a :class:`VectorL2Cache` home a burst of ``count`` accesses whose
    longest per-set walk is ``longest`` takes the array path only when it
    has at least ``_WIDE_MIN`` accesses and at least ``_WIDE_RATIO`` times
    as many accesses as that walk.  Anything narrower -- a covert
    prime/probe, an Algorithm-1 discovery chase over a few sets -- has too
    few accesses or walks too long to amortize the array ops, and takes the
    fused core.  Below the floor the answer never depends on ``longest``,
    so callers skip working it out there.
    """
    return count >= _WIDE_MIN and count >= _WIDE_RATIO * longest


class _EpochPlan:
    """Precomputed layout of one ProbeEpoch's flattened access stream.

    A prober block re-yields the *same* ``(buffer, sets)`` pair every
    sweep, so the flatten/translate work (set counts, offsets, flat word
    indices, physical line addresses) is loop-invariant.  Plans are cached
    by the buffer's generation token plus the sets tuple's identity: the
    token is never recycled (unlike ``id()``), so a freed-and-reallocated
    buffer can never be served another allocation's physical addresses.

    The per-L2 access plan (``cache_plan``, from
    :meth:`VectorL2Cache.plan_epoch`) is built lazily by
    :meth:`MultiGPUSystem._cache_plan`, which counts the builds.  Its walk
    layout and bank grouping depend only on the physical addresses and
    the cache geometry; one plan per home L2 is enough because an epoch's
    probe buffer is homed on one GPU.
    """

    __slots__ = (
        "buffer", "sets", "counts", "offsets", "flat", "paddrs",
        "_paddr_list", "cache_plan", "cache_plan_l2",
        "_small_plan", "_small_plan_l2",
    )

    def __init__(self, buffer: DeviceBuffer, sets: tuple) -> None:
        self.buffer = buffer
        self.sets = sets
        self._paddr_list = None
        self.cache_plan = None
        self.cache_plan_l2 = None
        self._small_plan = None
        self._small_plan_l2 = None
        set_lists = [
            indices if hasattr(indices, "__len__") else list(indices)
            for indices in sets
        ]
        self.counts = np.asarray([len(s) for s in set_lists], dtype=np.int64)
        self.offsets = np.zeros(len(set_lists), dtype=np.int64)
        if len(set_lists):
            np.cumsum(self.counts[:-1], out=self.offsets[1:])
        if self.counts.sum():
            self.flat = np.concatenate(
                [np.asarray(s, dtype=np.int64) for s in set_lists if len(s)]
            )
            self.paddrs = buffer.paddrs(self.flat)
        else:
            self.flat = np.empty(0, dtype=np.int64)
            self.paddrs = np.empty(0, dtype=np.int64)

    def paddr_list(self):
        """Flat physical addresses as a Python list (scalar-core fuel)."""
        if self._paddr_list is None:
            self._paddr_list = self.paddrs.tolist()
        return self._paddr_list

    def small_plan(self, l2: VectorL2Cache):
        """Decoded ``(sets, tags, paddrs)`` lists for the fused core.

        The decode is geometry-pure, so it is hoisted out of the
        per-access loop and cached per home L2 like ``cache_plan``.
        """
        if self._small_plan_l2 is not l2:
            paddrs = self.paddr_list()
            self._small_plan = (*l2.decode(paddrs), paddrs)
            self._small_plan_l2 = l2
        return self._small_plan


class _JitterPool:
    """Batched standard-normal draws (keeps the hot path cheap)."""

    def __init__(self, rng: np.random.Generator, block: int = 1 << 16) -> None:
        self._rng = rng
        self._block = block
        self._buf = rng.standard_normal(block)
        self._pos = 0

    def next(self) -> float:
        if self._pos >= self._block:
            self._buf = self._rng.standard_normal(self._block)
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def take(self, count: int) -> np.ndarray:
        """Return the next ``count`` draws in stream order (one array).

        Consumes the same underlying values as ``count`` calls to
        :meth:`next`, so the scalar and vectorized access paths see
        identical jitter sequences.
        """
        out = np.empty(count, dtype=np.float64)
        filled = 0
        while filled < count:
            if self._pos >= self._block:
                self._buf = self._rng.standard_normal(self._block)
                self._pos = 0
            grab = min(self._block - self._pos, count - filled)
            out[filled : filled + grab] = self._buf[self._pos : self._pos + grab]
            self._pos += grab
            filled += grab
        return out

    def take_list(self, count: int) -> list:
        """:meth:`take` as a plain list (skips the intermediate array).

        Same draws in the same order; the no-refill common case is one
        buffer slice, which is what sub-width epoch bursts want.
        """
        pos = self._pos
        if pos + count <= self._block:
            self._pos = pos + count
            return self._buf[pos : pos + count].tolist()
        return self.take(count).tolist()


class MultiGPUSystem:
    """Eight (by default) GPUs, NVLink cube-mesh, shared nothing but links."""

    def __init__(self, spec: Optional[DGXSpec] = None, seed: int = 0) -> None:
        self.spec = spec if spec is not None else DGXSpec.dgx1()
        self.rng = RngFanout(seed)
        self.gpus: List[GPU] = [
            GPU(gpu_id, self.spec.gpu, self.rng) for gpu_id in range(self.spec.num_gpus)
        ]
        self.topology = Topology(self.spec)
        self.interconnect = Interconnect(self.spec, self.topology)
        #: Nullable telemetry hook (see :mod:`repro.telemetry`): the access
        #: path pays one branch per serviced access/batch when unset.
        self.tracer = None
        #: Nullable aggregated-metrics hook
        #: (:class:`repro.telemetry.metrics.AttackMetrics`): same contract.
        self.metrics = None
        self._jitter = _JitterPool(self.rng.generator("timing/jitter"))
        self._next_pid = 0
        #: Every process created on this box (the chaos injector scans it
        #: for live buffers when picking page-migration victims).
        self.processes: List[Process] = []
        #: Nullable per-GPU latency multipliers (DVFS/clock-drift faults);
        #: the access paths pay one ``is None`` branch when unset.
        self._latency_scale: Optional[np.ndarray] = None
        #: Bounded LRU cache of :class:`_EpochPlan`, keyed by (buffer
        #: generation token, sets-tuple identity) -- see _epoch_plan.
        self._epoch_plans: OrderedDict = OrderedDict()
        #: L2 access plans built for epoch plans (:meth:`_cache_plan`).  A
        #: prober block builds one per recording; growth with the sweep
        #: count means the plan cache is thrashing.
        self.plan_builds = 0

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def new_process(self, name: str = "proc") -> Process:
        proc = Process(pid=self._next_pid, name=name)
        self._next_pid += 1
        self.processes.append(proc)
        return proc

    # ------------------------------------------------------------------
    # Chaos hooks (see repro.chaos)
    # ------------------------------------------------------------------
    def set_latency_scale(self, gpu_id: int, factor: float) -> None:
        """Scale every latency measured from ``gpu_id`` (DVFS drift).

        Models the executing GPU's clock drifting relative to nominal: a
        cycle counter on a down-clocked GPU reads *more* cycles for the
        same physical access, shifting every timing cluster by the same
        factor.  The multiplier array is only materialized on first use,
        so chaos-free runs never touch it.
        """
        if self._latency_scale is None:
            if factor == 1.0:
                return
            self._latency_scale = np.ones(len(self.gpus), dtype=np.float64)
        self._latency_scale[gpu_id] = float(factor)

    def invalidate_epoch_plans(self, buffer: Optional[DeviceBuffer] = None) -> None:
        """Drop cached epoch plans (all, or those over ``buffer``).

        Epoch plans hold precomputed *physical* line addresses; a page
        remap silently invalidates them, so the chaos injector calls this
        after migrating frames.
        """
        if buffer is None:
            self._epoch_plans.clear()
            return
        stale = [
            key
            for key, plan in self._epoch_plans.items()
            if plan.buffer is buffer
        ]
        for key in stale:
            self._epoch_plans.pop(key)

    @property
    def timing(self) -> TimingSpec:
        return self.spec.timing

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------
    def access_word(
        self,
        process: Process,
        buffer: DeviceBuffer,
        index: int,
        exec_gpu: int,
        now: float,
        is_write: bool = False,
        through_l1: bool = False,
    ) -> AccessResult:
        """Service one 8-byte load/store issued on ``exec_gpu`` at ``now``.

        Returns the loaded value and the measured latency in cycles, with
        ground-truth hit/remote flags (the attacker only sees the latency).

        ``through_l1`` models an ordinary (non-``__ldcg``) load: the local
        L1 is consulted first and, on a hit, the L2 is never reached -- the
        visibility problem the paper's use of ``__ldcg`` avoids.
        """
        home = buffer.device_id
        remote = exec_gpu != home
        if remote and not process.has_peer_access(exec_gpu, home):
            raise PeerAccessError(
                f"process {process.name!r} has no peer access from GPU "
                f"{exec_gpu} to GPU {home}"
            )

        home_gpu = self.gpus[home]
        paddr = buffer.paddr(index)

        if through_l1 and not is_write:
            l1 = self.gpus[exec_gpu].l1
            if l1.access(process.pid, paddr, now):
                return AccessResult(
                    value=buffer.load(index),
                    latency=l1.hit_latency,
                    hit=True,
                    remote=remote,
                    home_gpu=home,
                )
            # L1 miss: fall through to the L2 path (the fill already
            # happened inside L1Cache.access).
        outcome = home_gpu.l2.access(paddr, now, owner=process.pid)
        timing = self.spec.timing

        if remote:
            base = timing.remote_l2_hit if outcome.hit else timing.remote_dram
            sigma = (
                timing.jitter_remote_hit if outcome.hit else timing.jitter_remote_miss
            )
        else:
            base = timing.local_l2_hit if outcome.hit else timing.local_dram
            sigma = timing.jitter_local_hit if outcome.hit else timing.jitter_local_miss

        latency = base + sigma * self._jitter.next() + outcome.bank_wait
        if not outcome.hit:
            latency += home_gpu.hbm.occupy(paddr, now)
        if remote:
            extra, _hops = self.interconnect.transfer(
                exec_gpu, home, now, owner=process.pid
            )
            latency += extra
        if self._latency_scale is not None:
            latency *= self._latency_scale[exec_gpu]
        if latency < 1.0:
            latency = 1.0

        self._count(process, home, exec_gpu, remote, outcome.hit, is_write, now)
        if outcome.evicted_tag is not None:
            home_gpu.counters.l2_evictions += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "l2_eviction", "cache", now, gpu=home, args={"count": 1}
                )
            if self.metrics is not None:
                self.metrics.count_evictions(home, 1)

        if is_write:
            value = 0
        else:
            value = buffer.load(index)
        return AccessResult(
            value=value,
            latency=latency,
            hit=outcome.hit,
            remote=remote,
            home_gpu=home,
        )

    def access_batch(
        self,
        process: Process,
        buffer: DeviceBuffer,
        indices,
        exec_gpu: int,
        now: float,
        parallel: bool,
        issue_gap: float = 4.0,
    ):
        """Service a burst of loads (one eviction-set traversal or trace
        batch) with one call.

        Semantically identical to looping :meth:`access_word`, but the hot
        constants are hoisted and no per-access result objects are built.
        On a :class:`VectorL2Cache` home the burst is decoded once per
        call and the width gate (:func:`_is_wide`) picks the core: wide
        bursts are serviced with array operations (one jitter draw, one
        tag-matrix pass, one occupancy scan per resource), the rest --
        every discovery chase and covert probe -- by the fused
        narrow-burst core that :meth:`service_burst` shares.  Neither
        builds an epoch plan: a discovery chase is a fresh index list on
        every call.  Returns ``(latencies, hits, total_latency, remote)``.
        """
        home = buffer.device_id
        remote = exec_gpu != home
        if remote and not process.has_peer_access(exec_gpu, home):
            raise PeerAccessError(
                f"process {process.name!r} has no peer access from GPU "
                f"{exec_gpu} to GPU {home}"
            )
        home_gpu = self.gpus[home]
        if not hasattr(indices, "__len__"):
            indices = list(indices)
        count = len(indices)
        if count == 0:
            return [], [], 0.0, remote

        l2 = home_gpu.l2
        owner = process.pid
        if not isinstance(l2, VectorL2Cache):
            # Non-LRU or partitioned home: the reference per-access loop
            # is the only core that speaks every replacement policy.
            paddrs = [buffer.paddr(index) for index in indices]
            latencies, hits, misses, evictions, total = self._service_batch_scalar(
                home_gpu, exec_gpu, home, remote, paddrs,
                now, parallel, issue_gap, owner,
            )
        elif count < _WIDE_MIN:
            # Narrow whatever its walks: plain-Python decoding is cheaper
            # than the array round trip for so few lines.
            paddrs = [buffer.paddr(index) for index in indices]
            sets, tags = l2.decode(paddrs)
            latencies, hits, misses, evictions, total = self._service_burst_small(
                home_gpu, exec_gpu, home, remote, sets, tags, paddrs,
                now, parallel, issue_gap, owner,
            )
        else:
            paddrs = buffer.paddrs(np.asarray(indices, dtype=np.int64))
            sets = l2.set_indices(paddrs)
            if _is_wide(count, int(np.bincount(sets).max())):
                latencies, hits, misses, evictions, total = self._service_batch_vector(
                    home_gpu, exec_gpu, home, remote, paddrs,
                    now, parallel, issue_gap, owner,
                )
                latencies, hits = latencies.tolist(), hits.tolist()
            else:
                latencies, hits, misses, evictions, total = self._service_burst_small(
                    home_gpu, exec_gpu, home, remote, sets.tolist(),
                    (paddrs >> l2.addr.tag_shift).tolist(), paddrs.tolist(),
                    now, parallel, issue_gap, owner,
                )
        self._count_batch(home_gpu, exec_gpu, remote, count, misses, evictions, now)
        return latencies, hits, total, remote

    def access_epoch(
        self,
        process: Process,
        buffer: DeviceBuffer,
        sets,
        exec_gpu: int,
        now: float,
        parallel: bool = True,
        issue_gap: float = 4.0,
    ) -> EpochResult:
        """Probe a sequence of eviction sets back-to-back in one call.

        This is the multi-set fast path behind
        :class:`~repro.sim.ops.ProbeEpoch`: the accesses of every set are
        concatenated into one batch and serviced together, so a whole
        monitored block's sweep costs one vectorized pass instead of
        ``sets x associativity`` Python iterations.

        Issue semantics: in parallel mode the epoch pipelines all sets at
        the warp issue rate (flat access ``p`` is stamped
        ``now + p * issue_gap``) and synchronizes once at the end; each
        set's latency total is measured against its own first issue slot.
        In sequential mode every access is stamped at the epoch start
        (the atomic-probe convention, see ``docs/architecture.md``) and
        per-set totals are the sums of their chase latencies.
        """
        home = buffer.device_id
        remote = exec_gpu != home
        if remote and not process.has_peer_access(exec_gpu, home):
            raise PeerAccessError(
                f"process {process.name!r} has no peer access from GPU "
                f"{exec_gpu} to GPU {home}"
            )
        home_gpu = self.gpus[home]
        plan = self._epoch_plan(buffer, sets)
        counts, offsets = plan.counts, plan.offsets
        count = int(counts.sum())
        if count == 0:
            return EpochResult(remote=remote)

        if isinstance(home_gpu.l2, VectorL2Cache):
            latencies, hits, misses, evictions, total = self._service_batch_vector(
                home_gpu, exec_gpu, home, remote, plan.paddrs,
                now, parallel, issue_gap, process.pid,
                cache_plan=self._cache_plan(plan, home_gpu.l2),
            )
        else:
            lat_list, hit_list, misses, evictions, total = self._service_batch_scalar(
                home_gpu, exec_gpu, home, remote, plan.paddr_list(),
                now, parallel, issue_gap, process.pid,
            )
            latencies = np.asarray(lat_list)
            hits = np.asarray(hit_list, dtype=bool)

        live = counts > 0
        starts_at = offsets[live]
        if parallel:
            positions = np.arange(count, dtype=np.float64)
            rel_finish = (
                positions - np.repeat(offsets[live].astype(np.float64), counts[live])
            ) * issue_gap + latencies
            set_totals = np.zeros(len(counts), dtype=np.float64)
            set_totals[live] = np.maximum.reduceat(rel_finish, starts_at)
            set_starts = offsets.astype(np.float64) * issue_gap
        else:
            set_totals = np.zeros(len(counts), dtype=np.float64)
            set_totals[live] = np.add.reduceat(latencies, starts_at)
            set_starts = np.zeros(len(counts), dtype=np.float64)
            np.cumsum(set_totals[:-1], out=set_starts[1:])

        self._count_batch(home_gpu, exec_gpu, remote, count, misses, evictions, now)
        bounds = [(int(o), int(o + c)) for o, c in zip(offsets, counts)]
        # Convert once, then slice Python lists: far cheaper than one
        # ndarray slice + tolist per set.
        lat_list = latencies.tolist()
        hit_list = hits.tolist() if isinstance(hits, np.ndarray) else list(hits)
        return EpochResult(
            set_latencies=tuple(tuple(lat_list[lo:hi]) for lo, hi in bounds),
            set_hits=tuple(tuple(hit_list[lo:hi]) for lo, hi in bounds),
            set_starts=tuple(set_starts.tolist()),
            set_totals=tuple(set_totals.tolist()),
            total_latency=total,
            remote=remote,
        )

    def _epoch_plan(self, buffer: DeviceBuffer, sets) -> _EpochPlan:
        """Fetch (or build) the cached flatten/translate plan for an epoch.

        Only tuple ``sets`` are cacheable (a generator would be consumed by
        planning).  The key pairs the buffer's generation *token* -- bumped
        on every allocation and translation change, never recycled -- with
        the sets tuple's identity; the ``plan.sets is sets`` guard covers
        the (recyclable) half of the key.  The store is a bounded LRU so
        one-shot victim bursts cannot accumulate plans without bound, nor
        push out the plans a prober re-yields every sweep.
        """
        if not isinstance(sets, tuple):
            return _EpochPlan(buffer, tuple(sets))
        key = (buffer.token, id(sets))
        plans = self._epoch_plans
        plan = plans.get(key)
        if plan is not None and plan.sets is sets:
            plans.move_to_end(key)
            return plan
        plan = _EpochPlan(buffer, sets)
        plans[key] = plan
        plans.move_to_end(key)
        if len(plans) > _EPOCH_PLAN_CAPACITY:
            plans.popitem(last=False)
        return plan

    def _cache_plan(self, plan: _EpochPlan, l2: VectorL2Cache):
        """``plan``'s access plan for the home ``l2``, built on first use."""
        if plan.cache_plan_l2 is not l2:
            plan.cache_plan = l2.plan_epoch(plan.paddrs)
            plan.cache_plan_l2 = l2
            self.plan_builds += 1
        return plan.cache_plan

    def epoch_layout(self, buffer: DeviceBuffer, sets, parallel: bool, issue_gap: float):
        """Static per-burst layout for :class:`~repro.sim.ops.EpochOutcome`.

        Returns ``(set_counts, set_offsets, set_starts)`` where the starts
        are issue-slot offsets in cycles from the burst start (zeros in
        sequential mode: the atomic-probe convention stamps every access
        at the burst start).
        """
        plan = self._epoch_plan(buffer, sets)
        if parallel:
            set_starts = plan.offsets.astype(np.float64) * issue_gap
        else:
            set_starts = np.zeros(len(plan.counts), dtype=np.float64)
        return plan.counts, plan.offsets, set_starts

    def service_burst(
        self,
        process: Process,
        buffer: DeviceBuffer,
        sets,
        exec_gpu: int,
        now: float,
        parallel: bool = True,
        issue_gap: float = 4.0,
    ):
        """Service one epoch burst (the :class:`~repro.sim.ops.EpochBurst`
        core behind the engine's epoch cursor).

        Identical access semantics to :meth:`access_epoch` -- same flat
        issue order, same stamps, same latency assembly -- but returns raw
        arrays instead of building an :class:`EpochResult`, so a cursor
        can record thousands of bursts columnar-style.  Returns
        ``(latencies, hits, total, remote, scalar_fallback)``.
        """
        home = buffer.device_id
        remote = exec_gpu != home
        if remote and not process.has_peer_access(exec_gpu, home):
            raise PeerAccessError(
                f"process {process.name!r} has no peer access from GPU "
                f"{exec_gpu} to GPU {home}"
            )
        home_gpu = self.gpus[home]
        plan = self._epoch_plan(buffer, sets)
        count = plan.paddrs.size
        if count == 0:
            empty = np.empty(0, dtype=np.float64)
            return empty, np.empty(0, dtype=bool), 0.0, remote, False
        l2 = home_gpu.l2
        owner = process.pid
        scalar_fallback = not isinstance(l2, VectorL2Cache)
        if scalar_fallback:
            # Non-LRU home L2: the reference per-access loop is the only
            # core that speaks every replacement policy.
            latencies, hits, misses, evictions, total = self._service_batch_scalar(
                home_gpu, exec_gpu, home, remote, plan.paddr_list(),
                now, parallel, issue_gap, owner,
            )
        elif count >= _WIDE_MIN and _is_wide(
            count, self._cache_plan(plan, l2).walk.longest
        ):
            # The longest walk comes from the cached access plan, which
            # is worth building only from the gate's floor up.
            latencies, hits, misses, evictions, total = self._service_batch_vector(
                home_gpu, exec_gpu, home, remote, plan.paddrs,
                now, parallel, issue_gap, owner, cache_plan=plan.cache_plan,
            )
        else:
            # Narrow burst (a covert prime/probe is 4-16 lines): the fused
            # core, fed the plan's cached decode.
            sets_l, tags_l, paddrs_l = plan.small_plan(l2)
            latencies, hits, misses, evictions, total = self._service_burst_small(
                home_gpu, exec_gpu, home, remote, sets_l, tags_l, paddrs_l,
                now, parallel, issue_gap, owner,
            )
        self._count_batch(home_gpu, exec_gpu, remote, count, misses, evictions, now)
        return latencies, hits, total, remote, scalar_fallback

    def probe_link(
        self,
        process: Process,
        dst_gpu: int,
        exec_gpu: int,
        now: float,
        num_transfers: int = 4,
        gap_cycles: float = 0.0,
        wait: bool = True,
    ) -> LinkProbeResult:
        """Service a :class:`~repro.sim.ops.LinkProbe` burst to ``dst_gpu``.

        A pure fabric operation: the transfers reserve lanes on every link
        of the route (so concurrent traffic queues behind them) but touch
        no L2 sets on either end -- the channel built on this evades any
        cache-side detector.  Observed latency per transfer is the NVLink
        round-trip component of the remote timing model (remote hit minus
        local hit) plus queueing plus jitter.

        With ``wait=False`` the burst models posted writes: the stream
        pays only the issue window while the lane reservations stay --
        this is the flooding half of the covert channel.
        """
        if dst_gpu == exec_gpu:
            raise PeerAccessError("link probes need a remote destination GPU")
        if not process.has_peer_access(exec_gpu, dst_gpu):
            raise PeerAccessError(
                f"process {process.name!r} has no peer access from GPU "
                f"{exec_gpu} to GPU {dst_gpu}"
            )
        count = int(num_transfers)
        if count <= 0:
            return LinkProbeResult(hops=self.topology.hops(exec_gpu, dst_gpu))
        timing = self.spec.timing
        steps = np.arange(count, dtype=np.float64) * float(gap_cycles)
        stamps = now + steps
        extras = self.interconnect.transfer_batch(
            exec_gpu, dst_gpu, stamps, owner=process.pid
        )
        hops = self.topology.hops(exec_gpu, dst_gpu)
        hop_penalty = (hops - 1) * timing.per_extra_hop
        waits = extras - hop_penalty
        link_rtt = timing.remote_l2_hit - timing.local_l2_hit
        latencies = (
            link_rtt + extras + timing.jitter_remote_hit * self._jitter.take(count)
        )
        if self._latency_scale is not None:
            latencies *= self._latency_scale[exec_gpu]
        np.maximum(latencies, 1.0, out=latencies)
        if wait:
            total = float(np.max(steps + latencies))
        else:
            total = max(count * float(gap_cycles), 1.0)
        line = self.spec.gpu.cache.line_size
        issuer = self.gpus[exec_gpu].counters
        issuer.nvlink_bytes_in += count * line
        self.gpus[dst_gpu].counters.nvlink_bytes_out += count * line
        # Deliberately no remote_requests_* / l2 counters: link probes
        # bypass the caches, which is what lets the fabric channel slip
        # past the Section VII contention detector.
        if self.tracer is not None:
            self.tracer.emit(
                "link_probe",
                "nvlink",
                now,
                dur=total,
                gpu=exec_gpu,
                args={
                    "src": exec_gpu,
                    "dst": dst_gpu,
                    "transfers": count,
                    "hops": hops,
                    "wait": wait,
                },
            )
        return LinkProbeResult(
            latencies=tuple(float(v) for v in latencies),
            waits=tuple(max(float(w), 0.0) for w in waits),
            total_latency=total,
            hops=hops,
        )

    def service_link_burst(
        self,
        process: Process,
        dst_gpu: int,
        exec_gpu: int,
        now: float,
        count: int,
        gap_cycles: float,
        wait: bool,
        record: bool,
        flow,
        steps: Optional[np.ndarray] = None,
    ):
        """Epoch-native :meth:`probe_link` against a cached fabric flow.

        The :class:`~repro.sim.epoch.EpochCursor`'s link service core: the
        same fabric arithmetic as :meth:`probe_link` (so the two dispatch
        backends are bit-identical) minus its per-call route lookup,
        ``LinkProbeResult`` tuple materialization and unused wait math.
        Peer access is validated once per epoch by the cursor, not per
        burst.  Jitter is always drawn -- even when the latencies are
        discarded (un-recorded posted floods) -- so the shared pool
        serves both backends the same stream.  ``steps`` optionally
        carries the caller's cached issue offsets: an
        ``arange(count) * gap`` array, or a plain list for bursts below
        :data:`~repro.hw.interconnect.SMALL_BATCH` transfers, which
        routes the whole burst down the pure-Python fabric walk (same
        floats, no numpy fixed costs -- the spy's 2- and 4-transfer
        probes live here).

        Returns ``(latencies, total)``; ``latencies`` is ``None`` unless
        the burst waits or records.
        """
        timing = self.spec.timing
        gap = float(gap_cycles)
        if steps is None:
            if count < SMALL_BATCH:
                steps = [index * gap for index in range(count)]
            else:
                steps = np.arange(count, dtype=np.float64) * gap
        if isinstance(steps, list):
            stamps = [now + step for step in steps]
            extras = flow.advance_batch_small(stamps)
            draws = self._jitter.take_list(count)
            latencies = None
            if wait or record:
                link_rtt = timing.remote_l2_hit - timing.local_l2_hit
                jitter = timing.jitter_remote_hit
                scale = (
                    self._latency_scale[exec_gpu]
                    if self._latency_scale is not None
                    else None
                )
                latencies = [0.0] * count
                for index in range(count):
                    latency = link_rtt + extras[index] + jitter * draws[index]
                    if scale is not None:
                        latency *= scale
                    latencies[index] = latency if latency > 1.0 else 1.0
            if wait:
                total = float(
                    max(steps[index] + latencies[index] for index in range(count))
                )
            else:
                total = max(count * gap, 1.0)
        else:
            stamps = now + steps
            extras = flow.advance_batch(stamps)
            draws = self._jitter.take(count)
            latencies = None
            if wait or record:
                link_rtt = timing.remote_l2_hit - timing.local_l2_hit
                latencies = link_rtt + extras + timing.jitter_remote_hit * draws
                if self._latency_scale is not None:
                    latencies *= self._latency_scale[exec_gpu]
                np.maximum(latencies, 1.0, out=latencies)
            if wait:
                total = float(np.max(steps + latencies))
            else:
                total = max(count * gap, 1.0)
        line = self.spec.gpu.cache.line_size
        self.gpus[exec_gpu].counters.nvlink_bytes_in += count * line
        self.gpus[dst_gpu].counters.nvlink_bytes_out += count * line
        if self.tracer is not None:
            self.tracer.emit(
                "link_probe",
                "nvlink",
                now,
                dur=total,
                gpu=exec_gpu,
                args={
                    "src": exec_gpu,
                    "dst": dst_gpu,
                    "transfers": count,
                    "hops": flow.hops,
                    "wait": wait,
                },
            )
        return latencies, total

    # ------------------------------------------------------------------
    # Batch service cores (shared by access_batch, access_epoch and
    # service_burst).  Each takes the burst start ``now`` and issue mode,
    # stamps access ``at`` at ``now + at * issue_gap`` (parallel) or at
    # ``now`` (sequential), and returns ``(latencies, hits, misses,
    # evictions, total)``: ``total`` is the slowest ``at * issue_gap +
    # latency`` in parallel mode and the left-to-right latency sum in
    # sequential mode.
    # ------------------------------------------------------------------
    def _service_batch_vector(
        self,
        home_gpu: GPU,
        exec_gpu: int,
        home: int,
        remote: bool,
        paddrs: np.ndarray,
        now: float,
        parallel: bool,
        issue_gap: float,
        owner: int,
        cache_plan=None,
    ):
        """Vectorized service of one batch; latencies and hits as arrays.

        ``cache_plan`` (from :meth:`VectorL2Cache.plan_epoch`) skips the
        per-batch walk layout and bank grouping when the caller reuses
        one access stream sweep after sweep.
        """
        timing = self.spec.timing
        count = paddrs.size
        if parallel:
            offsets = np.arange(count, dtype=np.float64) * issue_gap
            stamps = now + offsets
        else:
            stamps = np.full(count, float(now))
        if cache_plan is not None:
            hits, evictions, bank_waits = home_gpu.l2.access_lines_planned(
                cache_plan, stamps
            )
        else:
            hits, evictions, bank_waits, _sets = home_gpu.l2.access_lines(
                paddrs, stamps
            )
        jitter = self._jitter.take(count)
        if remote:
            hit_base, miss_base = timing.remote_l2_hit, timing.remote_dram
            hit_sigma, miss_sigma = (
                timing.jitter_remote_hit,
                timing.jitter_remote_miss,
            )
        else:
            hit_base, miss_base = timing.local_l2_hit, timing.local_dram
            hit_sigma, miss_sigma = timing.jitter_local_hit, timing.jitter_local_miss
        latencies = np.where(
            hits, hit_base + hit_sigma * jitter, miss_base + miss_sigma * jitter
        )
        latencies += bank_waits
        missed = ~hits
        if missed.any():
            latencies[missed] += home_gpu.hbm.occupy_batch(
                paddrs[missed], stamps[missed]
            )
        if remote:
            latencies += self.interconnect.transfer_batch(
                exec_gpu, home, stamps, owner=owner
            )
        if self._latency_scale is not None:
            latencies *= self._latency_scale[exec_gpu]
        np.maximum(latencies, 1.0, out=latencies)
        if parallel:
            total = float(np.max(offsets + latencies))
        else:
            # cumsum adds left to right, as the scalar cores do.
            total = float(np.cumsum(latencies)[-1])
        return latencies, hits, int(missed.sum()), int(evictions.sum()), total

    def _service_batch_scalar(
        self,
        home_gpu: GPU,
        exec_gpu: int,
        home: int,
        remote: bool,
        paddrs,
        now: float,
        parallel: bool,
        issue_gap: float,
        owner: int,
    ):
        """Reference per-access loop; latencies and hits as lists.

        Serves only the scalar :class:`~repro.hw.cache.L2Cache` (the pLRU and
        random ablations, the partitioned defense): a
        :class:`VectorL2Cache` home always takes the fused core or the
        array path.
        """
        timing = self.spec.timing
        cache_access = home_gpu.l2.access
        hbm_occupy = home_gpu.hbm.occupy
        transfer = self.interconnect.transfer
        jitter_next = self._jitter.next
        if remote:
            hit_base, miss_base = timing.remote_l2_hit, timing.remote_dram
            hit_sigma, miss_sigma = (
                timing.jitter_remote_hit,
                timing.jitter_remote_miss,
            )
        else:
            hit_base, miss_base = timing.local_l2_hit, timing.local_dram
            hit_sigma, miss_sigma = timing.jitter_local_hit, timing.jitter_local_miss

        scale = (
            1.0
            if self._latency_scale is None
            else float(self._latency_scale[exec_gpu])
        )
        latencies = []
        hits = []
        evictions = 0
        misses = 0
        total = 0.0
        now = float(now)
        stamp = now
        for at, paddr in enumerate(paddrs):
            if parallel:
                stamp = now + at * issue_gap
            outcome = cache_access(paddr, stamp, owner=owner)
            if outcome.hit:
                latency = hit_base + hit_sigma * jitter_next() + outcome.bank_wait
            else:
                misses += 1
                latency = (
                    miss_base
                    + miss_sigma * jitter_next()
                    + outcome.bank_wait
                    + hbm_occupy(paddr, stamp)
                )
            if outcome.evicted_tag is not None:
                evictions += 1
            if remote:
                latency += transfer(exec_gpu, home, stamp, owner)[0]
            if scale != 1.0:
                latency *= scale
            if latency < 1.0:
                latency = 1.0
            latencies.append(latency)
            hits.append(outcome.hit)
            if parallel:
                finish = at * issue_gap + latency
                if finish > total:
                    total = finish
            else:
                total += latency
        return latencies, hits, misses, evictions, total

    def _service_burst_small(
        self,
        home_gpu: GPU,
        exec_gpu: int,
        home: int,
        remote: bool,
        sets: List[int],
        tags: List[int],
        paddrs: List[int],
        now: float,
        parallel: bool,
        issue_gap: float,
        owner: int,
    ):
        """The fused narrow-burst core behind ``access_batch`` and
        ``service_burst`` on a :class:`VectorL2Cache` home.

        Step-for-step equivalent to :meth:`_service_batch_scalar` over
        the same stream -- the tag-store walk, bank occupancy chain,
        jitter draws, HBM channel occupancy and link transfers all mutate
        in the reference order, and every latency is assembled with the
        reference expression -- but ``sets``/``tags`` come decoded and the
        ``CacheAccess`` plumbing is inlined away.  Returns ``(latencies,
        hits, misses, evictions, total)``.

        State is memoized per set, not per same-set run: a discovery chase
        interleaves its sets, so its runs are one or two lines long.  Each
        touched set's tag and age rows are copied to lists on first use and
        each touched bank's busy time to a dict; all of it is written back
        once when the burst ends.  Nothing else reads the tag store or the
        banks mid-burst, so the writeback is invisible.  The access at
        burst position ``at`` gets age ``tick + at`` and the burst advances
        the tick by its count, exactly as one ``access_one`` per line.
        Two flags ride with each memoized row: whether it still has an
        invalid way (a full row skips that scan on every miss) and whether
        the burst filled it (a row that only hit writes back its ages).
        """
        timing = self.spec.timing
        l2 = home_gpu.l2
        store = l2._store
        tags_matrix = store._tags
        age_matrix = store._age
        bank_busy = l2._bank_busy
        bank_mask = l2._bank_mask
        bank_service = l2.spec.bank_service_cycles
        hbm_occupy = home_gpu.hbm.occupy
        if remote:
            hit_base, miss_base = timing.remote_l2_hit, timing.remote_dram
            hit_sigma, miss_sigma = (
                timing.jitter_remote_hit,
                timing.jitter_remote_miss,
            )
        else:
            hit_base, miss_base = timing.local_l2_hit, timing.local_dram
            hit_sigma, miss_sigma = timing.jitter_local_hit, timing.jitter_local_miss
        scale = (
            1.0
            if self._latency_scale is None
            else float(self._latency_scale[exec_gpu])
        )
        count = len(paddrs)
        # The pool serves the same values one ``next`` per access would.
        draws = self._jitter.take_list(count)
        # Remote bursts walk the link route on the interconnect's cached
        # flow (:meth:`Interconnect.route_state`), one ``advance_one`` per
        # access; the flow books the burst's counters, stall metrics and
        # per-hop stall events once, at the end.
        if remote:
            link_flow = self.interconnect.route_state(exec_gpu, home, owner)
            advance_link = link_flow.advance_one
        rows = {}
        busy_by_bank = {}
        latencies = []
        hits = []
        misses = 0
        evictions = 0
        total = 0.0
        tick = store._tick
        now = float(now)
        stamp = now
        for at in range(count):
            if parallel:
                stamp = now + at * issue_gap
            set_index = sets[at]
            row = rows.get(set_index)
            if row is None:
                # [tags, ages, has an invalid way, filled by this burst]
                row_tags = tags_matrix[set_index].tolist()
                row = rows[set_index] = [
                    row_tags,
                    age_matrix[set_index].tolist(),
                    _INVALID_TAG in row_tags,
                    False,
                ]
            row_tags, ages, vacant, _filled = row
            tag = tags[at]
            # Membership before ``index``, as LruTagStore._walk: a chase
            # misses in cascades and a raised ValueError costs more.
            if tag in row_tags:
                ages[row_tags.index(tag)] = tick + at
                hit = True
            else:
                hit = False
                if vacant:
                    way = row_tags.index(_INVALID_TAG)
                    row_tags[way] = tag
                    row[2] = _INVALID_TAG in row_tags
                else:
                    # All ways valid: evict the first-minimum age.
                    way = ages.index(min(ages))
                    evictions += 1
                    row_tags[way] = tag
                row[3] = True
                ages[way] = tick + at
            bank = set_index & bank_mask
            busy = busy_by_bank.get(bank)
            if busy is None:
                busy = float(bank_busy[bank])
            wait = busy - stamp if busy > stamp else 0.0
            busy_by_bank[bank] = stamp + wait + bank_service
            if hit:
                latency = hit_base + hit_sigma * draws[at] + wait
            else:
                misses += 1
                latency = (
                    miss_base
                    + miss_sigma * draws[at]
                    + wait
                    + hbm_occupy(paddrs[at], stamp)
                )
            if remote:
                latency += advance_link(stamp)
            if scale != 1.0:
                latency *= scale
            if latency < 1.0:
                latency = 1.0
            latencies.append(latency)
            hits.append(hit)
            # Burst total, folded into the loop: same expressions as
            # ``max(at * issue_gap + lat ...)`` / left-to-right ``sum``.
            if parallel:
                finish = at * issue_gap + latency
                if finish > total:
                    total = finish
            else:
                total += latency
        store._tick = tick + count
        for set_index, (row_tags, ages, _vacant, filled) in rows.items():
            if filled:
                tags_matrix[set_index] = row_tags
            age_matrix[set_index] = ages
        for bank, busy in busy_by_bank.items():
            bank_busy[bank] = busy
        if remote:
            link_flow.flush_counters(now)
        return latencies, hits, misses, evictions, total

    def _count_batch(
        self,
        home_gpu: GPU,
        exec_gpu: int,
        remote: bool,
        count: int,
        misses: int,
        evictions: int,
        now: float = 0.0,
    ) -> None:
        counters = home_gpu.counters
        counters.l2_hits += count - misses
        counters.l2_misses += misses
        counters.dram_reads += misses
        counters.l2_evictions += evictions
        if remote:
            line = self.spec.gpu.cache.line_size
            counters.remote_requests_in += count
            counters.nvlink_bytes_out += count * line
            issuer = self.gpus[exec_gpu].counters
            issuer.remote_requests_out += count
            issuer.nvlink_bytes_in += count * line
        tracer = self.tracer
        if tracer is not None:
            home = home_gpu.gpu_id
            if remote:
                line = self.spec.gpu.cache.line_size
                tracer.emit(
                    "nvlink_transfer",
                    "nvlink",
                    now,
                    gpu=exec_gpu,
                    args={"src": exec_gpu, "dst": home, "bytes": count * line},
                )
            if evictions:
                tracer.emit(
                    "l2_eviction", "cache", now, gpu=home,
                    args={"count": evictions},
                )
        if evictions and self.metrics is not None:
            self.metrics.count_evictions(home_gpu.gpu_id, evictions)

    def _count(
        self,
        process: Process,
        home: int,
        exec_gpu: int,
        remote: bool,
        hit: bool,
        is_write: bool,
        now: float = 0.0,
    ) -> None:
        counters = self.gpus[home].counters
        if hit:
            counters.l2_hits += 1
        else:
            counters.l2_misses += 1
            if is_write:
                counters.dram_writes += 1
            else:
                counters.dram_reads += 1
        if remote:
            line = self.spec.gpu.cache.line_size
            counters.remote_requests_in += 1
            counters.nvlink_bytes_out += line
            issuer = self.gpus[exec_gpu].counters
            issuer.remote_requests_out += 1
            issuer.nvlink_bytes_in += line
            if self.tracer is not None:
                self.tracer.emit(
                    "nvlink_transfer",
                    "nvlink",
                    now,
                    gpu=exec_gpu,
                    args={"src": exec_gpu, "dst": home, "bytes": line},
                )

    # ------------------------------------------------------------------
    # Ground-truth helpers (hardware side; used by tests and experiments,
    # never by attack code)
    # ------------------------------------------------------------------
    def set_index_of(self, buffer: DeviceBuffer, index: int) -> int:
        """Physical L2 set of word ``index`` of ``buffer`` (ground truth)."""
        home = self.gpus[buffer.device_id]
        return home.l2.addr.set_index(buffer.paddr(index))

    def line_is_cached(self, buffer: DeviceBuffer, index: int) -> bool:
        home = self.gpus[buffer.device_id]
        return home.l2.probe_line(buffer.paddr(index), owner=buffer.process.pid)
