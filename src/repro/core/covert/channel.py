"""End-to-end covert channel orchestration -- Fig 8, evaluated in Fig 9/10.

Setup follows the paper's five steps: (1) trojan and spy each allocate a
buffer homed on the trojan's GPU, (2) each derives eviction sets from pure
timing (Section III-B), (3) the sets are aligned across the two processes
(Algorithm 2), then (4) the trojan primes / (5) the spy probes the aligned
physical sets to move bits.

The alignment step exploits the page structure the paper points out
("data belonging to a page is indexed consecutively in the cache"): one
Algorithm 2 run per (trojan color group, spy color group) pair establishes
the group correspondence, after which same-offset lines pair up for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ...cache import SetupMemo, SetupTemplate, runtime_is_pristine
from ...errors import AlignmentError, ChannelError
from ...runtime.api import Runtime
from ...sim.process import Process
from ..alignment import check_pair
from ..eviction import EvictionSet, PageColoring, discover_page_coloring
from ..timing import TimingThresholds, measure_access_classes
from .encoding import (
    PREAMBLE,
    bit_error_rate,
    bits_to_text,
    deinterleave,
    interleave,
    text_to_bits,
)
from .spy import SpyTrace, decode_trace, spy_probe_kernel
from .trojan import trojan_send_kernel

__all__ = ["CovertChannel", "PreparedChannels", "TransmissionResult", "ChannelReport"]

#: Trojan transmission begins this many slots after the spies start probing,
#: giving every spy a quiet lead-in to calibrate "no contention".
_LEAD_SLOTS = 3.0

#: Over-provisioning guess for one spy probe's duration (cycles); used only
#: to size the spy's probe count, never for decoding.
_PROBE_PERIOD_GUESS = 550.0


@dataclass(frozen=True)
class TransmissionResult:
    """Outcome of one covert message transfer."""

    sent_bits: Tuple[int, ...]
    received_bits: Tuple[int, ...]
    num_sets: int
    slot_cycles: float
    duration_cycles: float
    duration_seconds: float
    bandwidth_bytes_per_s: float
    error_rate: float
    #: Raw spy traces per set pair (the Fig 10 waveform data).
    traces: Tuple[SpyTrace, ...] = field(repr=False, default=())

    def received_text(self) -> str:
        return bits_to_text(self.received_bits)


@dataclass
class PendingTransmission:
    """Kernels queued by :meth:`CovertChannel.launch_transmission`."""

    bits: Tuple[int, ...]
    frames: List[List[int]]
    slot_cycles: float
    spy_handles: List = field(default_factory=list)


@dataclass
class ChannelReport:
    """Fig 9: bandwidth and error rate versus number of parallel sets."""

    rows: List[Tuple[int, float, float]] = field(default_factory=list)

    def add(self, num_sets: int, bandwidth: float, error_rate: float) -> None:
        self.rows.append((num_sets, bandwidth, error_rate))

    def summary(self) -> str:
        lines = ["sets  bandwidth (KB/s)  error rate (%)"]
        for num_sets, bandwidth, error in self.rows:
            lines.append(f"{num_sets:>4}  {bandwidth / 1024:>15.1f}  {error * 100:>13.2f}")
        return "\n".join(lines)

    def best(self) -> Tuple[int, float, float]:
        """The row with the highest bandwidth (paper: 4 sets, 3.95 MB/s)."""
        return max(self.rows, key=lambda row: row[1])


class CovertChannel:
    """A trojan on ``trojan_gpu`` talking to a spy on ``spy_gpu``.

    Both buffers are homed on ``trojan_gpu`` so the contention medium is
    that GPU's L2, exactly as in Fig 3/8 of the paper.
    """

    def __init__(
        self,
        runtime: Runtime,
        trojan_gpu: int = 0,
        spy_gpu: int = 1,
    ) -> None:
        self.runtime = runtime
        self.trojan_gpu = trojan_gpu
        self.spy_gpu = spy_gpu
        self.trojan: Optional[Process] = None
        self.spy: Optional[Process] = None
        self.thresholds: Optional[TimingThresholds] = None
        self.pairs: List[Tuple[EvictionSet, EvictionSet]] = []
        self._trojan_coloring: Optional[PageColoring] = None
        self._spy_coloring: Optional[PageColoring] = None
        #: ``(trojan group, spy group)`` color-group matches (Algorithm 2).
        self._group_match: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Setup: steps 1-3 of Fig 8
    # ------------------------------------------------------------------
    def setup(
        self,
        num_sets: int,
        thresholds: Optional[TimingThresholds] = None,
        buffer_pages_per_color: Optional[int] = None,
        cache=None,
    ) -> None:
        """Allocate, discover eviction sets on both sides, and align them.

        The prologue -- calibration, both Algorithm-1 discoveries and the
        Algorithm-2 group matching -- does not depend on ``num_sets``;
        only the pair placement that follows it does (:meth:`pairs_for`).
        Like :meth:`MemorygramProber.setup`, the prologue is checkpointed
        through the artifact cache when one is active and the runtime is
        pristine, as one ``"discovery"`` entry that every ``num_sets``
        shares.  :class:`PreparedChannels` forks a prepared channel
        instead of repeating the prologue on identical boxes; a fork
        places its own ``num_sets`` with ``pairs_for``.
        """
        memo = SetupMemo.for_runtime(self.runtime, cache)
        key = dict(
            role="covert",
            trojan_gpu=self.trojan_gpu,
            spy_gpu=self.spy_gpu,
            thresholds=repr(thresholds),
            pages=buffer_pages_per_color,
        )
        restored = memo.load("discovery", **key) if memo is not None else None
        if restored is not None:
            (
                self.trojan,
                self.spy,
                self.thresholds,
                self._group_match,
                self._trojan_coloring,
                self._spy_coloring,
            ) = restored
        else:
            self._prologue(thresholds, buffer_pages_per_color)
            if memo is not None:
                memo.store(
                    "discovery",
                    (
                        self.trojan,
                        self.spy,
                        self.thresholds,
                        self._group_match,
                        self._trojan_coloring,
                        self._spy_coloring,
                    ),
                    **key,
                )
        self.pairs = self.pairs_for(num_sets)

    def _prologue(
        self,
        thresholds: Optional[TimingThresholds],
        buffer_pages_per_color: Optional[int],
    ) -> None:
        """Steps 1-3 short of pair placement: processes, calibration,
        buffers, both discoveries and the group matching."""
        runtime = self.runtime
        spec = runtime.system.spec.gpu
        self.trojan = runtime.create_process("trojan")
        self.spy = runtime.create_process("spy")
        runtime.enable_peer_access(self.spy, self.spy_gpu, self.trojan_gpu)
        if thresholds is None:
            calibration = runtime.create_process("calibrate")
            report = measure_access_classes(
                runtime, calibration, self.spy_gpu, self.trojan_gpu
            )
            thresholds = report.thresholds()
        self.thresholds = thresholds

        colors = max(1, spec.cache.set_stride // spec.page_size)
        per_color = buffer_pages_per_color
        if per_color is None:
            per_color = 2 * spec.cache.associativity + 2
        pages = colors * per_color
        trojan_buf = runtime.malloc(
            self.trojan, self.trojan_gpu, pages * spec.page_size, name="trojan_buf"
        )
        spy_buf = runtime.malloc(
            self.spy, self.trojan_gpu, pages * spec.page_size, name="spy_buf"
        )

        self._trojan_coloring = discover_page_coloring(
            runtime,
            self.trojan,
            self.trojan_gpu,
            trojan_buf,
            spec.cache.associativity,
            thresholds.local,
        )
        self._spy_coloring = discover_page_coloring(
            runtime,
            self.spy,
            self.spy_gpu,
            spy_buf,
            spec.cache.associativity,
            thresholds.remote,
        )
        self._group_match = self._match_groups()

    def _sets_for(
        self, coloring: PageColoring, group: int, offsets: Sequence[int], base_id: int
    ) -> List[EvictionSet]:
        spec = self.runtime.system.spec.gpu
        pages = coloring.groups[group][: spec.cache.associativity]
        sets = []
        for offset in offsets:
            word = offset * coloring.words_per_line
            sets.append(
                EvictionSet(
                    buffer=coloring.buffer,
                    indices=tuple(
                        page * coloring.words_per_page + word for page in pages
                    ),
                    set_id=base_id + offset,
                    origin=(group, offset),
                )
            )
        return sets

    def _match_groups(self) -> List[Tuple[int, int]]:
        """Group-level Algorithm 2: ``(trojan group, spy group)`` matches.

        One :func:`check_pair` run per candidate pair of color groups,
        each on the groups' offset-0 sets; every spy group matches at
        most one trojan group.
        """
        assert self.thresholds is not None
        trojan_coloring, spy_coloring = self._trojan_coloring, self._spy_coloring
        assert trojan_coloring is not None and spy_coloring is not None
        matches: List[Tuple[int, int]] = []
        claimed: set = set()
        for t_group in range(len(trojan_coloring.groups)):
            trojan_rep = self._sets_for(trojan_coloring, t_group, [0], 1000 * t_group)[0]
            for s_group in range(len(spy_coloring.groups)):
                if s_group in claimed:
                    continue
                spy_rep = self._sets_for(spy_coloring, s_group, [0], 2000 * s_group)[0]
                measurement = check_pair(
                    self.runtime,
                    self.trojan,
                    self.spy,
                    self.trojan_gpu,
                    self.spy_gpu,
                    trojan_rep,
                    spy_rep,
                    self.thresholds.remote,
                )
                if measurement.mapped:
                    matches.append((t_group, s_group))
                    claimed.add(s_group)
                    break
        return matches

    def pairs_for(self, num_sets: int) -> List[Tuple[EvictionSet, EvictionSet]]:
        """Place ``num_sets`` aligned pairs on the matched color groups.

        Pure offset arithmetic over the prologue's group matches: it runs
        nothing on the box, so any ``num_sets`` can be placed on one
        prepared channel.
        """
        trojan_coloring, spy_coloring = self._trojan_coloring, self._spy_coloring
        if trojan_coloring is None or spy_coloring is None:
            raise ChannelError("channel not set up: call setup() first")
        matches = self._group_match
        if not matches:
            raise AlignmentError("no trojan color group matches any spy group")
        lines_per_page = trojan_coloring.lines_per_page
        if num_sets > lines_per_page * len(matches):
            raise AlignmentError(
                f"cannot place {num_sets} pairs: only "
                f"{lines_per_page * len(matches)} aligned sets available"
            )
        # Each pair gets its own line offset: same-offset sets in different
        # color groups share an L2 bank (set index mod #banks), so stacking
        # pairs at offset 0 would funnel every parallel stream through one
        # bank port and drown the channel in queueing noise.  Per-group
        # offset counters start at staggered phases to keep early pairs on
        # distinct banks.
        pairs: List[Tuple[EvictionSet, EvictionSet]] = []
        next_offset = list(range(len(matches)))
        for set_id in range(num_sets):
            group_index = set_id % len(matches)
            t_group, s_group = matches[group_index]
            offset = next_offset[group_index] % lines_per_page
            next_offset[group_index] += 1
            trojan_set = self._sets_for(trojan_coloring, t_group, [offset], 0)[0]
            spy_set = self._sets_for(spy_coloring, s_group, [offset], 0)[0]
            pairs.append(
                (
                    EvictionSet(
                        trojan_set.buffer,
                        trojan_set.indices,
                        set_id,
                        trojan_set.origin,
                    ),
                    EvictionSet(
                        spy_set.buffer, spy_set.indices, set_id, spy_set.origin
                    ),
                )
            )
        return pairs

    # ------------------------------------------------------------------
    # Transmission: steps 4-5 of Fig 8
    # ------------------------------------------------------------------
    def launch_transmission(
        self,
        bits: Sequence[int],
        slot_cycles: float = 3000.0,
    ) -> "PendingTransmission":
        """Queue the trojan and spy kernels without running them.

        Use together with :meth:`decode_transmission` when several channels
        (e.g. on different GPU pairs) must transmit *concurrently* in one
        simulation window; plain :meth:`transmit` wraps the pair.
        """
        if not self.pairs:
            raise ChannelError("channel not set up: call setup() first")
        assert self.thresholds is not None and self.trojan and self.spy
        runtime = self.runtime
        num_sets = len(self.pairs)
        shares = interleave(bits, num_sets)
        frames = [list(PREAMBLE) + share for share in shares]
        frame_slots = len(frames[0])

        duration = (_LEAD_SLOTS + frame_slots + 2.0) * slot_cycles
        num_probes = int(duration / _PROBE_PERIOD_GUESS) + 8
        start = runtime.engine.now
        trojan_start = start + _LEAD_SLOTS * slot_cycles

        spy_handles = []
        for pair_index, (_trojan_set, spy_set) in enumerate(self.pairs):
            shared = self.spy.shared_buffer(f"spy_stage_{pair_index}", 512)
            spy_handles.append(
                runtime.launch(
                    spy_probe_kernel(spy_set, num_probes, shared),
                    self.spy_gpu,
                    self.spy,
                    name=f"spy_probe_{pair_index}",
                    start=start,
                )
            )
        for pair_index, (trojan_set, _spy_set) in enumerate(self.pairs):
            runtime.launch(
                trojan_send_kernel(trojan_set, frames[pair_index], slot_cycles),
                self.trojan_gpu,
                self.trojan,
                name=f"trojan_send_{pair_index}",
                start=trojan_start,
            )
        return PendingTransmission(
            bits=tuple(bits),
            frames=frames,
            slot_cycles=slot_cycles,
            spy_handles=spy_handles,
        )

    def decode_transmission(
        self,
        pending: "PendingTransmission",
        strict: bool = True,
        rolling: bool = False,
    ) -> TransmissionResult:
        """Decode a completed :meth:`launch_transmission` window.

        ``rolling`` selects the drift-tracking threshold (see
        :class:`repro.core.timing.RollingThreshold`) instead of the
        per-trace percentile anchor -- needed when a DVFS excursion can
        rescale latencies mid-trace.
        """
        assert self.thresholds is not None
        runtime = self.runtime
        bits = pending.bits
        frames = pending.frames
        slot_cycles = pending.slot_cycles

        received_shares: List[List[int]] = []
        traces: List[SpyTrace] = []
        for pair_index, handle in enumerate(pending.spy_handles):
            if not handle.done:
                raise ChannelError(
                    "spy kernels have not completed; synchronize() first"
                )
            trace: SpyTrace = handle.result
            traces.append(trace)
            payload_len = len(frames[pair_index]) - len(PREAMBLE)
            try:
                share, _lock = decode_trace(
                    trace,
                    self.thresholds,
                    slot_cycles,
                    payload_bits=payload_len,
                    rolling=rolling,
                )
            except ChannelError:
                if strict:
                    raise
                share = [0] * payload_len
            received_shares.append(share)

        received = deinterleave(received_shares, len(bits))
        payload_slots = len(frames[0]) - len(PREAMBLE)
        duration_cycles = payload_slots * slot_cycles
        seconds = runtime.system.timing.seconds(duration_cycles)
        bandwidth = (len(bits) / 8.0) / seconds if seconds > 0 else 0.0
        metrics = getattr(runtime, "metrics", None)
        if metrics is not None:
            errors = sum(
                1
                for sent, got in zip(bits, received)
                if (1 if sent else 0) != got
            )
            metrics.count_transmission(len(bits), errors)
        return TransmissionResult(
            sent_bits=tuple(bits),
            received_bits=tuple(received),
            num_sets=len(self.pairs),
            slot_cycles=slot_cycles,
            duration_cycles=duration_cycles,
            duration_seconds=seconds,
            bandwidth_bytes_per_s=bandwidth,
            error_rate=bit_error_rate(bits, received),
            traces=tuple(traces),
        )

    def transmit(
        self,
        bits: Sequence[int],
        slot_cycles: float = 3000.0,
        strict: bool = True,
        rolling: bool = False,
    ) -> TransmissionResult:
        """Send ``bits`` across the aligned pairs and decode on the spy side.

        With ``strict=False`` a set whose spy cannot lock the preamble
        (channel drowned in contention) contributes a zeroed share instead
        of raising, so saturation shows up as error rate -- the regime past
        the knee of Fig 9.
        """
        pending = self.launch_transmission(bits, slot_cycles=slot_cycles)
        self.runtime.synchronize()
        return self.decode_transmission(pending, strict=strict, rolling=rolling)

    def send_text(self, text: str, slot_cycles: float = 3000.0) -> TransmissionResult:
        """Convenience: UTF-8 text over the channel (the Fig 10 demo)."""
        return self.transmit(text_to_bits(text), slot_cycles=slot_cycles)

    def idle(self, cycles: float) -> None:
        """Advance simulated time with both processes quiet (backoff gap)."""
        from ...sim.ops import Sleep

        def _idle_kernel(duration: float):
            yield Sleep(duration)

        self.runtime.run_kernel(
            _idle_kernel(cycles), self.trojan_gpu, self.trojan, name="idle_backoff"
        )

    def transmit_reliable(
        self,
        bits: Sequence[int],
        slot_cycles: float = 3000.0,
        max_attempts: int = 3,
        backoff_slots: float = 16.0,
        rolling: bool = False,
    ) -> Tuple[List[int], TransmissionResult, int]:
        """Send ``bits`` under Hamming(7,4) + length framing.

        Returns ``(recovered_payload, raw_transmission, corrections)``.
        Left of the Fig 9 knee the channel's raw errors are sparse and
        isolated, so single-error correction per codeword typically yields
        an error-free payload at a 4/7 rate cost.

        The length header doubles as a sync check: when the decoded frame
        does not describe a payload of the expected size (preamble lock
        lost, header corrupted beyond correction), the transfer is retried
        after an exponentially growing idle gap -- at most ``max_attempts``
        times, after which :class:`repro.errors.SyncLostError` is raised
        rather than looping forever on a dead channel.
        """
        from ...errors import SyncLostError
        from .ecc import decode_with_length, encode_with_length

        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        framed = encode_with_length(bits)
        for attempt in range(max_attempts):
            raw = self.transmit(
                framed, slot_cycles=slot_cycles, strict=False, rolling=rolling
            )
            payload, corrections = decode_with_length(list(raw.received_bits))
            if len(payload) == len(bits):
                return payload, raw, corrections
            if attempt + 1 < max_attempts:
                self.idle(backoff_slots * (2.0**attempt) * slot_cycles)
        raise SyncLostError(
            f"covert frame never re-synchronized after {max_attempts} attempts "
            f"(expected {len(bits)} payload bits, last decode "
            f"yielded {len(payload)})"
        )


class PreparedChannels:
    """Set-up covert channels on identical fresh boxes, sharing a prologue.

    ``make_runtime`` builds a fresh box.  Every :meth:`channel` call
    returns a :class:`CovertChannel` on a box of its own, with
    ``num_sets`` pairs placed.  The first call sets up cold; when its box
    was pristine before set-up (:func:`~repro.cache.runtime_is_pristine`),
    the prepared ``(runtime, channel)`` graph becomes a
    :class:`~repro.cache.SetupTemplate` and every later call returns a
    fork of it: the state a cold set-up of a fresh box reaches, without
    running the prologue again.  A box that is not pristine (a tracer,
    metrics or a defense attached) is never forked, so its hooks stay
    with their owner; every call then sets up a fresh box cold.  Keep an
    instance local to one experiment run, so its template dies with it.
    """

    def __init__(self, make_runtime: Callable[[], Runtime]) -> None:
        self._make_runtime = make_runtime
        self._template: Optional[SetupTemplate] = None

    def channel(self, num_sets: int) -> CovertChannel:
        if self._template is not None:
            _runtime, channel = self._template.fork()
            channel.pairs = channel.pairs_for(num_sets)
            return channel
        runtime = self._make_runtime()
        forkable = runtime_is_pristine(runtime)
        channel = CovertChannel(runtime)
        channel.setup(num_sets)
        if forkable:
            self._template = SetupTemplate(runtime, channel)
        return channel
