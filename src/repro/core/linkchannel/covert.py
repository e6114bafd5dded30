"""Covert channel over pure NVLink contention -- no shared L2 sets.

Same protocol skeleton as the L2 channel (:mod:`repro.core.covert`):
slotted on-off keying, an alternating preamble for phase lock, round-robin
interleaving across parallel links, optional Hamming ECC.  The physical
medium differs completely: for a '1' slot the trojan posts one
oversubscribed write burst that reserves its NVLink's lanes for most of
the slot, and the spy -- probing the *same link from the other end* --
sees its bursts queue behind those reservations.  Neither side allocates
remote buffers, primes sets, or misses in any cache.

The decoder differs from the L2 one in two load-bearing ways:

* **Fixed noise-floor threshold.**  A contended probe's wait is uniform
  over the remaining flood reservation (it can be tiny or the whole burst
  horizon), so the L2 decoder's midpoint-style threshold would miss a
  fixed fraction of contended samples no matter how hard the trojan
  floods.  The calibration threshold sits just above the idle
  distribution instead, and contention only ever *adds* latency.
* **Any-miss slot voting.**  A contended probe blocks until the flood's
  reservation horizon, so a '1' slot yields only one or two samples --
  the L2 decoder's two-miss majority vote would erase them.  One sample
  over threshold marks the slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ...errors import ChannelError
from ...runtime.api import Runtime
from ...sim.process import Process
from ...sim.ops import LinkBurst, LinkEpoch, LinkPad
from ..covert.channel import ChannelReport, TransmissionResult
from ..covert.encoding import (
    PREAMBLE,
    bit_error_rate,
    deinterleave,
    interleave,
    text_to_bits,
)
from ..covert.spy import SpyTrace, contention_anchor, lock_phase, preamble_matches
from .probe import LinkCalibration, calibrate_link, flood_gap, link_probe_kernel

__all__ = [
    "LinkCovertChannel",
    "LinkPendingTransmission",
    "decode_link_trace",
    "link_trojan_kernel",
]

#: Trojan transmission begins this many slots after the spies start probing,
#: giving every spy a quiet lead-in (same convention as the L2 channel).
_LEAD_SLOTS = 3.0

#: Fraction of a '1' slot left unreserved at the tail so the flood's lane
#: backlog fully drains before the next slot (no inter-symbol interference).
_SLOT_MARGIN_FRAC = 0.12

#: Sizing guess for one idle probe period (burst latency + spacing).
_PROBE_PERIOD_GUESS = 780.0


def link_trojan_kernel(
    dst_gpu: int,
    frame: Sequence[int],
    slot_cycles: float,
    occupancy_per_transfer: float,
    margin_frac: float = _SLOT_MARGIN_FRAC,
):
    """Transmit ``frame`` by flooding (1) or idling (0) the link per slot.

    A '1' slot posts a single burst sized to reserve the link's lanes for
    ``slot_cycles * (1 - margin_frac)``; posted writes return after the
    issue window, so the trojan pads out the rest of the slot
    (:class:`~repro.sim.ops.LinkPad`) while the reservations do the
    signalling.  The whole frame is one :class:`~repro.sim.ops.LinkEpoch`
    whose slot edges are offsets from its opening clock read.
    """
    reserve = slot_cycles * (1.0 - margin_frac)
    count = max(1, int(reserve / occupancy_per_transfer))
    segments: List = []
    for slot, bit in enumerate(frame):
        if bit:
            segments.append(
                LinkBurst(
                    dst_gpu, num_transfers=count, gap_cycles=1.0, wait=False
                )
            )
        segments.append(LinkPad(until=(slot + 1) * slot_cycles))
    yield LinkEpoch(tuple(segments), rounds=1, round_reads=1)


def _vote_any(votes: Sequence[int]) -> Tuple[int, float]:
    """Vote one slot window: any over-threshold sample marks a '1'.

    A contended probe parks on the flood's reservation horizon, so '1'
    slots carry very few samples; an empty window is a weak '0' (the
    previous slot's blocked probe can swallow a window's worth of
    cadence).
    """
    if not votes:
        return 0, 0.25
    if any(votes):
        return 1, 1.0
    return 0, 1.0


def decode_link_trace(
    trace: SpyTrace,
    calibration: LinkCalibration,
    slot_cycles: float,
    payload_bits: int,
) -> Tuple[List[int], float]:
    """Recover one link's payload share from its probe trace.

    Binarizes against the calibration's fixed noise-floor threshold,
    anchors on the first contended sample after a quiet run, then sweeps
    the shared phase grid (:func:`repro.core.covert.spy.lock_phase`)
    scored on the preamble, with any-miss voting.  Returns
    ``(payload, slot0_start)``.
    """
    raw = trace.binarized(calibration.threshold)
    first_one = contention_anchor(raw, min_quiet=2)
    if first_one is None:
        raise ChannelError("no link contention observed: preamble never detected")
    anchor = trace.times[first_one]
    # Inter-sample spacing is bimodal (idle cadence vs blocked probes);
    # the median is a robust idle-period estimate.
    gaps = sorted(
        trace.times[i] - trace.times[i - 1] for i in range(1, len(trace.times))
    )
    period = gaps[len(gaps) // 2] if gaps else slot_cycles / 4.0
    num_slots = len(PREAMBLE) + payload_bits
    best_bits, _score, best_start = lock_phase(
        trace.times, raw, anchor, period, slot_cycles, num_slots, _vote_any
    )
    preamble_hits = preamble_matches(best_bits)
    if preamble_hits < len(PREAMBLE) - 1:
        raise ChannelError(
            f"link preamble lock failed: best match {preamble_hits}/{len(PREAMBLE)}"
        )
    return best_bits[len(PREAMBLE):], best_start


@dataclass
class LinkPendingTransmission:
    """Kernels queued by :meth:`LinkCovertChannel.launch_transmission`."""

    bits: Tuple[int, ...]
    frames: List[List[int]]
    slot_cycles: float
    spy_handles: List = field(default_factory=list)


class LinkCovertChannel:
    """Trojan/spy pairs talking over NVLink lane contention.

    ``links`` is a sequence of ``(trojan_gpu, spy_gpu)`` pairs; each pair
    signals over the route between its two GPUs (the trojan floods toward
    the spy, the spy probes toward the trojan -- links are undirected, so
    both directions contend on the same lanes).  Multiple pairs with
    disjoint routes form parallel subchannels, interleaved exactly like
    the L2 channel's parallel set pairs.
    """

    def __init__(
        self,
        runtime: Runtime,
        links: Sequence[Tuple[int, int]] = ((0, 1),),
    ) -> None:
        self.runtime = runtime
        self.links: List[Tuple[int, int]] = [
            (int(a), int(b)) for a, b in links
        ]
        self.trojans: List[Process] = []
        self.spies: List[Process] = []
        self.calibrations: List[LinkCalibration] = []

    @classmethod
    def auto(cls, runtime: Runtime, num_links: int = 1) -> "LinkCovertChannel":
        """Pick ``num_links`` GPU-disjoint peer pairs from the topology."""
        topology = runtime.system.topology
        used: set = set()
        links: List[Tuple[int, int]] = []
        for a in range(topology.num_gpus):
            if a in used:
                continue
            for b in range(a + 1, topology.num_gpus):
                if b in used or not topology.are_peers(a, b):
                    continue
                links.append((a, b))
                used.update((a, b))
                break
            if len(links) == num_links:
                break
        if len(links) < num_links:
            raise ChannelError(
                f"topology offers only {len(links)} disjoint peer pairs, "
                f"need {num_links}"
            )
        return cls(runtime, links)

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Create processes, enable peer access, calibrate every link."""
        runtime = self.runtime
        self.trojans = []
        self.spies = []
        self.calibrations = []
        for index, (trojan_gpu, spy_gpu) in enumerate(self.links):
            trojan = runtime.create_process(f"link_trojan_{index}")
            spy = runtime.create_process(f"link_spy_{index}")
            runtime.enable_peer_access(trojan, trojan_gpu, spy_gpu)
            runtime.enable_peer_access(spy, spy_gpu, trojan_gpu)
            self.trojans.append(trojan)
            self.spies.append(spy)
            self.calibrations.append(
                calibrate_link(runtime, probe_gpu=spy_gpu, far_gpu=trojan_gpu)
            )

    # ------------------------------------------------------------------
    def launch_transmission(
        self,
        bits: Sequence[int],
        slot_cycles: float = 3000.0,
    ) -> LinkPendingTransmission:
        """Queue trojan and spy kernels on every link without running."""
        if not self.calibrations:
            raise ChannelError("channel not set up: call setup() first")
        runtime = self.runtime
        num_links = len(self.links)
        shares = interleave(bits, num_links)
        frames = [list(PREAMBLE) + share for share in shares]
        frame_slots = len(frames[0])

        duration = (_LEAD_SLOTS + frame_slots + 2.0) * slot_cycles
        # Wide slots do not need the stock 400-cycle cadence: ~4 samples
        # per slot is plenty for the majority vote, so the spy spacing
        # stretches with the slot width.  The default 3000-cycle slot
        # resolves to the stock spacing, keeping its schedule unchanged.
        burst_latency = _PROBE_PERIOD_GUESS - 400.0
        spacing = max(400.0, slot_cycles / 4.0 - burst_latency)
        num_probes = int(duration / (spacing + burst_latency)) + 8
        start = runtime.engine.now
        trojan_start = start + _LEAD_SLOTS * slot_cycles

        spy_handles = []
        for index, (trojan_gpu, spy_gpu) in enumerate(self.links):
            spy_handles.append(
                runtime.launch(
                    link_probe_kernel(
                        trojan_gpu, num_probes, spacing_cycles=spacing
                    ),
                    spy_gpu,
                    self.spies[index],
                    name=f"link_spy_{index}",
                    start=start,
                )
            )
        for index, (trojan_gpu, spy_gpu) in enumerate(self.links):
            occupancy = flood_gap(
                runtime.system.spec, (trojan_gpu, spy_gpu)
            )
            runtime.launch(
                link_trojan_kernel(
                    spy_gpu, frames[index], slot_cycles, occupancy
                ),
                trojan_gpu,
                self.trojans[index],
                name=f"link_trojan_{index}",
                start=trojan_start,
            )
        return LinkPendingTransmission(
            bits=tuple(bits),
            frames=frames,
            slot_cycles=slot_cycles,
            spy_handles=spy_handles,
        )

    def decode_transmission(
        self, pending: LinkPendingTransmission, strict: bool = True
    ) -> TransmissionResult:
        """Decode a completed transmission window."""
        runtime = self.runtime
        bits = pending.bits
        frames = pending.frames
        received_shares: List[List[int]] = []
        traces: List[SpyTrace] = []
        for index, handle in enumerate(pending.spy_handles):
            if not handle.done:
                raise ChannelError(
                    "link spy kernels have not completed; synchronize() first"
                )
            trace: SpyTrace = handle.result
            traces.append(trace)
            payload_len = len(frames[index]) - len(PREAMBLE)
            try:
                share, _start = decode_link_trace(
                    trace,
                    self.calibrations[index],
                    pending.slot_cycles,
                    payload_bits=payload_len,
                )
            except ChannelError:
                if strict:
                    raise
                share = [0] * payload_len
            received_shares.append(share)

        received = deinterleave(received_shares, len(bits))
        payload_slots = len(frames[0]) - len(PREAMBLE)
        duration_cycles = payload_slots * pending.slot_cycles
        seconds = runtime.system.timing.seconds(duration_cycles)
        bandwidth = (len(bits) / 8.0) / seconds if seconds > 0 else 0.0
        return TransmissionResult(
            sent_bits=tuple(bits),
            received_bits=tuple(received),
            num_sets=len(self.links),
            slot_cycles=pending.slot_cycles,
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
    ) -> TransmissionResult:
        """Send ``bits`` over the links and decode on the spy side."""
        pending = self.launch_transmission(bits, slot_cycles=slot_cycles)
        self.runtime.synchronize()
        return self.decode_transmission(pending, strict=strict)

    def send_text(
        self, text: str, slot_cycles: float = 3000.0
    ) -> TransmissionResult:
        """Convenience: UTF-8 text over the fabric channel."""
        return self.transmit(text_to_bits(text), slot_cycles=slot_cycles)

    def transmit_reliable(
        self,
        bits: Sequence[int],
        slot_cycles: float = 3000.0,
    ) -> Tuple[List[int], TransmissionResult, int]:
        """Send ``bits`` under Hamming(7,4) + length framing."""
        from ..covert.ecc import decode_with_length, encode_with_length

        framed = encode_with_length(bits)
        raw = self.transmit(framed, slot_cycles=slot_cycles, strict=False)
        payload, corrections = decode_with_length(list(raw.received_bits))
        return payload, raw, corrections

    def sweep(
        self,
        payload_bits: int,
        link_counts: Sequence[int],
        slot_cycles: float = 3000.0,
        seed: int = 0,
    ) -> ChannelReport:
        """Bandwidth-error sweep over parallel link counts (Fig 9 analog).

        Unlike the L2 sweep there is no shared-resource knee to find --
        disjoint links do not contend with each other -- so bandwidth
        scales linearly until the box runs out of disjoint pairs.
        """
        import random

        report = ChannelReport()
        bits = [random.Random(seed).randrange(2) for _ in range(payload_bits)]
        for count in link_counts:
            channel = LinkCovertChannel.auto(self.runtime, count)
            channel.setup()
            outcome = channel.transmit(bits, slot_cycles=slot_cycles, strict=False)
            report.add(count, outcome.bandwidth_bytes_per_s, outcome.error_rate)
        return report
