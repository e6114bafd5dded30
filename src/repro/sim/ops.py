"""Operation vocabulary yielded by kernel coroutines.

A kernel is a Python generator.  Each ``yield`` hands one operation to the
:class:`repro.sim.engine.Engine`, which executes it against the hardware
model, charges the stream's clock, and sends the result back into the
generator::

    def kernel(ctx):
        value, latency = yield Access(buf, index)      # __ldcg + clock()
        yield Compute(500)                             # dummy trig work
        yield SharedStore(times, slot, latency)        # stage into shared mem

The result types are:

========================  =============================================
op                        result sent back into the generator
========================  =============================================
:class:`Access`           ``AccessResult`` (value, latency, hit, ...)
:class:`ProbeSet`         ``ProbeResult`` (per-line latencies, ...)
:class:`ProbeEpoch`       ``EpochResult`` (per-set latencies, ...)
:class:`AccessEpoch`      ``EpochOutcome`` (columnar per-burst arrays, ...)
:class:`LinkProbe`        ``LinkProbeResult`` (per-transfer latencies, ...)
:class:`LinkEpoch`        ``LinkOutcome`` (columnar per-burst arrays, ...)
:class:`Store`            ``AccessResult`` (like :class:`Access`)
:class:`SharedStore`      ``None``
:class:`Compute`          ``None``
:class:`Fence`            ``None``
:class:`Sleep`            ``None``
:class:`ReadClock`        current stream clock in cycles (float)
========================  =============================================

The :class:`AccessEpoch` family is the batch-native path: instead of one
yield per probe, a kernel declares its whole access *plan* (bursts, idle
windows, repeat-until-deadline segments, round pacing) and the engine's
epoch cursor advances it in bulk, suspending only when another stream's
event (or a scheduled fault) interleaves.  See ``sim/epoch.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .process import DeviceBuffer

__all__ = [
    "Access",
    "ProbeSet",
    "ProbeEpoch",
    "AccessEpoch",
    "EpochBurst",
    "EpochIdle",
    "EpochRepeat",
    "LinkProbe",
    "LinkEpoch",
    "LinkBurst",
    "LinkFlood",
    "LinkPad",
    "Store",
    "SharedStore",
    "Compute",
    "Fence",
    "Sleep",
    "ReadClock",
    "AccessResult",
    "ProbeResult",
    "EpochResult",
    "EpochOutcome",
    "LinkProbeResult",
    "LinkOutcome",
]


@dataclass(frozen=True)
class Access:
    """A single load of one 8-byte word.

    ``index`` addresses the buffer as an array of int64 words, so a stride
    of one cache line (128 B) is 16 indices.

    By default the load models ``__ldcg()``: it bypasses the L1 and is
    serviced by the L2 of the GPU homing the physical page -- the paper
    uses ``__ldcg`` for exactly this, because an L1 hit on the attacker's
    own GPU would hide the remote L2's state.  ``through_l1=True`` models
    an ordinary load that consults the local L1 first.
    """

    buffer: "DeviceBuffer"
    index: int
    through_l1: bool = False


@dataclass(frozen=True)
class ProbeSet:
    """Traverse a whole eviction set in one operation.

    ``parallel=False`` models a dependent pointer chase (Algorithm 1/2):
    latencies add up.  ``parallel=True`` models a warp of threads touching
    all lines with overlapped latency (the covert-channel probe): the
    total cost is the slowest access plus per-access issue overhead.
    The cache-state effect (fills/evictions) is identical in both modes.
    """

    buffer: "DeviceBuffer"
    indices: Sequence[int]
    parallel: bool = False
    #: Cycles between consecutive issue slots in parallel mode.
    issue_gap: float = 4.0


@dataclass(frozen=True)
class ProbeEpoch:
    """Traverse many eviction sets back-to-back in one operation.

    The multi-set fast path of the memorygram prober: one epoch covers a
    spy block's whole sweep over its monitored sets, serviced as a single
    batched call against the hardware model (see
    :meth:`repro.hw.system.MultiGPUSystem.access_epoch` for the issue
    semantics).  The result reports each set's latencies plus its start
    offset within the epoch, so per-set samples can still be placed on
    the memorygram time axis.
    """

    buffer: "DeviceBuffer"
    sets: Sequence[Sequence[int]]
    parallel: bool = True
    #: Cycles between consecutive issue slots in parallel mode.
    issue_gap: float = 4.0


@dataclass(frozen=True)
class EpochBurst:
    """One batched multi-set traversal inside an :class:`AccessEpoch`.

    The epoch-native generalization of :class:`ProbeEpoch`: ``sets`` is a
    tuple of per-set word-index tuples over one buffer, traversed
    back-to-back with the same issue semantics (parallel: flat access
    ``p`` issues at ``start + p * issue_gap``; sequential: all accesses
    stamped at the burst start, latencies accumulate).  Reuse ONE burst
    object across rounds: the flattened physical-address plan is cached
    by identity.  Per-op, a one-set burst is a :class:`ProbeSet` and a
    multi-set burst a :class:`ProbeEpoch` (see
    :func:`repro.sim.epoch.unroll`).
    """

    buffer: "DeviceBuffer"
    sets: Tuple[Tuple[int, ...], ...]
    parallel: bool = True
    #: Cycles between consecutive issue slots in parallel mode.
    issue_gap: float = 4.0

    @property
    def count(self) -> int:
        return sum(len(s) for s in self.sets)


@dataclass(frozen=True)
class EpochIdle:
    """Advance the epoch clock without touching any resource.

    ``cycles`` adds a relative delay (one ``Compute``, or ``Sleep`` in a
    :class:`LinkEpoch`).  ``until`` (relative to the current *round*
    start, :class:`AccessEpoch` only) waits out the round up to that
    point in ``min(remaining, chunk)`` steps: the per-op form is a wait
    loop of one ``ReadClock`` plus one ``Compute`` per step, which is
    how a trojan pads out the remainder of a bit slot.  ``until`` and
    ``chunk`` go together; a :class:`LinkEpoch` pads with
    :class:`LinkPad` instead.
    """

    cycles: float = 0.0
    until: Optional[float] = None
    chunk: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.until is None) != (self.chunk is None):
            raise ValueError("EpochIdle takes until and chunk together")


@dataclass(frozen=True)
class EpochRepeat:
    """Repeat ``burst`` while ``clock + margin <= round_start + until``.

    The trojan's prime loop as a declarative segment: keep re-traversing
    the eviction sets until the next traversal could overrun the slot
    boundary (the ``margin`` models the kernel's own overrun guard).
    """

    burst: EpochBurst
    until: float
    margin: float = 0.0


@dataclass(frozen=True)
class AccessEpoch:
    """A whole access *plan*, advanced in bulk by the engine's epoch cursor.

    ``segments`` run in order once per round; ``rounds=None`` repeats until
    a termination condition fires.  After the ``rounds`` count, the
    round-start checks run in order (the memorygram prober's sweep loop):

    1. ``end_time`` (absolute): round starting at or past it ends the epoch.
    2. ``stop_flag`` (any sized container): first round that starts with it
       non-empty arms a grace deadline ``round_start + grace_cycles``.
    3. An armed grace deadline: round starting at or past it ends the epoch.

    ``period`` paces rounds on a fixed grid: after the segments finish,
    the clock pads forward to ``round_start + period`` (never backwards).
    ``record=False`` skips per-access result assembly (victim workloads:
    cache side effects and counters only).

    ``round_reads`` is how many ``ReadClock`` ops the plan's per-op form
    (:func:`repro.sim.epoch.unroll`) performs at each round start; the
    round-start checks use the value just read.  The cursor uses it to
    reconstruct the per-op event loop's FIFO order when several streams
    are queued at the *same* instant (e.g. trojans padded to one slot
    grid), so tied bursts land in the per-op order.  Use 0 only for
    plans that never need the clock (victim traces, warm-up primes).
    """

    segments: Tuple[Union[EpochBurst, EpochIdle, EpochRepeat], ...]
    rounds: Optional[int] = 1
    period: Optional[float] = None
    end_time: Optional[float] = None
    stop_flag: Optional[Sequence] = None
    grace_cycles: float = 0.0
    record: bool = True
    round_reads: int = 1


def _check_gap(op) -> None:
    """Reject a negative issue gap: the fabric walks need the burst's
    stamps non-decreasing, and a negative gap runs them backwards."""
    if op.gap_cycles < 0:
        raise ValueError(f"{type(op).__name__} needs gap_cycles >= 0")


@dataclass(frozen=True)
class LinkProbe:
    """Time a burst of peer-to-peer transfers over the NVLink route to
    ``dst_gpu``.

    The fabric-channel primitive (:mod:`repro.core.linkchannel`): it
    touches no cache sets -- each transfer rides the link route and comes
    back with a latency dominated by link serialization queueing, so the
    burst measures *link* contention and nothing else.

    ``wait=True`` models dependent round-trip reads: the stream clock
    advances to the last transfer's completion (a probe).  ``wait=False``
    models posted writes: the stream only pays the issue window
    (``num_transfers * gap_cycles``, at least one cycle) while the lane
    reservations still land on every link of the route (a flood).
    """

    dst_gpu: int
    num_transfers: int = 4
    #: Cycles between consecutive issue slots.
    gap_cycles: float = 0.0
    wait: bool = True

    def __post_init__(self) -> None:
        _check_gap(self)


@dataclass(frozen=True)
class LinkBurst:
    """One timed :class:`LinkProbe`-equivalent burst inside a
    :class:`LinkEpoch`.

    Same fabric semantics as :class:`LinkProbe` (``wait=True`` dependent
    round-trips advance the clock to the last completion; ``wait=False``
    posted writes only pay the issue window) but serviced by the epoch
    cursor through the cached columnar fabric flow instead of a heap
    event per burst.  ``record=False`` skips latency assembly (a trojan's
    posted floods: lane reservations and counters only).
    """

    dst_gpu: int
    num_transfers: int = 4
    #: Cycles between consecutive issue slots.
    gap_cycles: float = 0.0
    wait: bool = True
    record: bool = False

    def __post_init__(self) -> None:
        if self.num_transfers < 1:
            raise ValueError("LinkBurst needs num_transfers >= 1")
        _check_gap(self)


@dataclass(frozen=True)
class LinkFlood:
    """A self-paced flood window inside a :class:`LinkEpoch`.

    One round of a flooder loop as a declarative segment: fill a
    ``burst_cycles`` window with back-to-back posted transfers
    (``count = max(1, int(window / occupancy_per_transfer))``, window
    clipped to the epoch's remaining time), then hold the stream for the
    paced remainder ``count * occupancy - count * gap_cycles`` so the
    flood sustains its calibrated duty cycle instead of racing ahead.
    """

    dst_gpu: int
    #: Calibrated cycles of link occupancy bought per posted transfer.
    occupancy_per_transfer: float
    burst_cycles: float = 2500.0
    #: Cycles between consecutive issue slots.
    gap_cycles: float = 1.0

    def __post_init__(self) -> None:
        if self.occupancy_per_transfer <= 0:
            raise ValueError("LinkFlood needs occupancy_per_transfer > 0")
        _check_gap(self)


@dataclass(frozen=True)
class LinkPad:
    """Pad the stream to an absolute point on the round's time axis.

    The trojan's slot alignment: ``clock = max(clock, round_start +
    until)``.  Per-op it is a single clock read followed by one ``Sleep``
    of the remainder (no re-check read after the sleep, unlike
    :class:`EpochIdle`'s chunked wait loop).
    """

    until: float


@dataclass(frozen=True)
class LinkEpoch:
    """A whole fabric-channel *plan*, advanced in bulk by the engine.

    The NVLink counterpart of :class:`AccessEpoch`: ``segments`` run in
    order once per round; ``rounds=None`` repeats until ``end_time`` (or
    ``duration_cycles`` past the epoch's begin) stops the plan at a round
    start.  ``period`` pads each round out to a fixed grid, and
    ``round_reads`` plays the same role as on :class:`AccessEpoch`.
    Peer access is checked once per epoch; the route's cached fabric
    flow is re-fetched per burst through
    :meth:`~repro.hw.interconnect.Interconnect.route_state`, so link
    flaps and degradations between bursts are picked up.
    """

    segments: Tuple[Union["LinkBurst", "LinkFlood", "LinkPad", EpochIdle], ...]
    rounds: Optional[int] = 1
    period: Optional[float] = None
    end_time: Optional[float] = None
    #: Convenience terminator: ``end_time = begin + duration_cycles``.
    duration_cycles: Optional[float] = None
    round_reads: int = 1


@dataclass(frozen=True)
class Store:
    """A global-memory store (goes through the home L2 like a load)."""

    buffer: "DeviceBuffer"
    index: int
    value: int


@dataclass(frozen=True)
class SharedStore:
    """A store to on-SM shared memory.

    Shared memory is private to the SM and "the access path of the shared
    buffer is separate than the main memory access path" (Section III-A), so
    it causes no L2 traffic and costs a handful of cycles.
    """

    buffer: "DeviceBuffer"
    index: int
    value: float
    cost_cycles: float = 6.0


@dataclass(frozen=True)
class Compute(object):
    """Occupy the ALUs for ``cycles`` (the paper's dummy trig instructions)."""

    cycles: float


@dataclass(frozen=True)
class Fence:
    """A ``__threadfence()``; charges a fixed small cost."""


@dataclass(frozen=True)
class Sleep:
    """Advance the stream clock without using any resource."""

    cycles: float


@dataclass(frozen=True)
class ReadClock:
    """Return the stream's current clock (the CUDA ``clock()`` intrinsic)."""


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a single :class:`Access`."""

    value: int
    latency: float
    hit: bool
    remote: bool
    home_gpu: int

    @property
    def miss(self) -> bool:
        return not self.hit


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a :class:`ProbeSet` traversal."""

    latencies: List[float] = field(default_factory=list)
    hits: List[bool] = field(default_factory=list)
    total_latency: float = 0.0
    remote: bool = False

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def miss_count(self) -> int:
        return sum(1 for h in self.hits if not h)


@dataclass(frozen=True)
class LinkProbeResult:
    """Outcome of a :class:`LinkProbe` burst."""

    #: Per-transfer observed latency (RTT base + queueing + jitter).
    latencies: Tuple[float, ...] = ()
    #: Per-transfer pure queueing delay (no jitter; ground truth).
    waits: Tuple[float, ...] = ()
    total_latency: float = 0.0
    hops: int = 0

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def median_latency(self) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[len(ordered) // 2]

    @property
    def max_wait(self) -> float:
        return max(self.waits) if self.waits else 0.0


@dataclass(frozen=True)
class EpochResult:
    """Outcome of a :class:`ProbeEpoch`: one entry per probed set."""

    #: Per-set tuples of per-line latencies, in probe order.
    set_latencies: Tuple[Tuple[float, ...], ...] = ()
    set_hits: Tuple[Tuple[bool, ...], ...] = ()
    #: Cycles from the epoch start to each set's first issue slot.
    set_starts: Tuple[float, ...] = ()
    #: Each set's traversal latency relative to its own start.
    set_totals: Tuple[float, ...] = ()
    total_latency: float = 0.0
    remote: bool = False

    @property
    def num_sets(self) -> int:
        return len(self.set_latencies)

    def miss_counts(self) -> List[int]:
        """Per-set miss counts (ground truth; attack code thresholds
        latencies instead)."""
        return [sum(1 for h in hs if not h) for hs in self.set_hits]


class EpochOutcome:
    """Columnar outcome of an :class:`AccessEpoch`.

    One row per *recorded burst* (every burst of a ``record=True`` epoch,
    in execution order): ``starts[b]`` is the burst's absolute start time,
    ``latencies[b]`` / ``hits[b]`` its per-access results in flat issue
    order, ``totals[b]`` its traversal latency.  All recorded bursts of
    one epoch share a layout, described once by ``set_counts`` /
    ``set_offsets`` (flat slots per set) and ``set_starts`` (issue-slot
    offset of each set's first access, in cycles from the burst start).
    """

    __slots__ = (
        "starts", "latencies", "hits", "totals",
        "set_counts", "set_offsets", "set_starts",
        "remote", "bursts", "accesses", "begin", "end",
    )

    def __init__(
        self,
        starts: np.ndarray,
        latencies: np.ndarray,
        hits: np.ndarray,
        totals: np.ndarray,
        set_counts: np.ndarray,
        set_offsets: np.ndarray,
        set_starts: np.ndarray,
        remote: bool,
        bursts: int,
        accesses: int,
        begin: float,
        end: float,
    ) -> None:
        self.starts = starts
        self.latencies = latencies
        self.hits = hits
        self.totals = totals
        self.set_counts = set_counts
        self.set_offsets = set_offsets
        self.set_starts = set_starts
        self.remote = remote
        #: Bursts serviced (including unrecorded ones).
        self.bursts = bursts
        #: Accesses serviced (including unrecorded bursts).
        self.accesses = accesses
        self.begin = begin
        self.end = end

    @property
    def num_recorded(self) -> int:
        return int(self.starts.shape[0])

    @property
    def num_sets(self) -> int:
        return int(self.set_counts.shape[0])

    def medians(self) -> np.ndarray:
        """Per-burst median access latency (matches ``sorted(x)[len//2]``)."""
        if self.latencies.size == 0:
            return np.zeros(self.num_recorded, dtype=np.float64)
        width = self.latencies.shape[1]
        return np.sort(self.latencies, axis=1)[:, width // 2]

    def miss_grid(self) -> np.ndarray:
        """Ground-truth ``(bursts, sets)`` miss counts from the hit flags."""
        rows = self.hits.shape[0]
        misses = ~self.hits
        if self.num_sets == 0 or misses.size == 0:
            return np.zeros((rows, self.num_sets), dtype=np.int64)
        return np.add.reduceat(
            misses.astype(np.int64), self.set_offsets, axis=1
        )


class LinkOutcome:
    """Columnar outcome of a :class:`LinkEpoch`.

    One row per *recorded* :class:`LinkBurst`, in execution order:
    ``starts[b]`` is the burst's absolute issue time, ``latencies[b]``
    its per-transfer observed latencies in issue order.  All recorded
    bursts of one epoch share a width (enforced by the cursor), so the
    spy's per-slot medians fall out of one sort.
    """

    __slots__ = ("starts", "latencies", "bursts", "transfers", "begin", "end")

    def __init__(
        self,
        starts: np.ndarray,
        latencies: np.ndarray,
        bursts: int,
        transfers: int,
        begin: float,
        end: float,
    ) -> None:
        self.starts = starts
        self.latencies = latencies
        #: Bursts serviced (including unrecorded floods).
        self.bursts = bursts
        #: Transfers serviced (including unrecorded floods).
        self.transfers = transfers
        self.begin = begin
        self.end = end

    @property
    def num_recorded(self) -> int:
        return int(self.starts.shape[0])

    def medians(self) -> np.ndarray:
        """Per-burst median latency (matches ``sorted(x)[len // 2]``)."""
        if self.latencies.size == 0:
            return np.zeros(self.num_recorded, dtype=np.float64)
        width = self.latencies.shape[1]
        return np.sort(self.latencies, axis=1)[:, width // 2]
