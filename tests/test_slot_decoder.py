"""The shared slot-window decoder core and the NVLink channel's decoder.

``decode_slots`` finds each slot's votes by bisecting the probe stamps;
the property test pins that to the linear ``lo < t <= hi`` scan it
replaced.  ``decode_link_trace`` is checked differentially against the
linear-scan link decoder it replaced, kept below as the oracle (verbatim
apart from its name).
"""

import random
from types import SimpleNamespace
from typing import List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.covert.encoding import PREAMBLE
from repro.core.covert.spy import SpyTrace, decode_slots, decode_trace
from repro.core.linkchannel import decode_link_trace
from repro.core.linkchannel.covert import LinkCovertChannel, LinkPendingTransmission
from repro.core.linkchannel.probe import LinkCalibration
from repro.core.timing import TimingThresholds
from repro.errors import ChannelError, SimulationError

SLOT = 3000.0
IDLE_LATENCY = 380.0

CALIBRATION = LinkCalibration(
    probe_gpu=1,
    far_gpu=0,
    hops=1,
    idle_mean=IDLE_LATENCY,
    idle_std=4.0,
    idle_p25=IDLE_LATENCY,
    idle_max=IDLE_LATENCY + 10.0,
    contended_mean=2000.0,
    contended_std=600.0,
    noise_margin=40.0,
)


# -- oracle: the linear-scan link decoder ------------------------------------


def _vote_slot_any(
    times: Sequence[float], raw: Sequence[int], lo: float, hi: float
) -> Tuple[int, float]:
    """Vote one slot window: any over-threshold sample marks a '1'.

    A contended probe parks on the flood's reservation horizon, so '1'
    slots carry very few samples; an empty window is a weak '0' (the
    previous slot's blocked probe can swallow a window's worth of
    cadence).
    """
    votes = [raw[i] for i, t in enumerate(times) if lo < t <= hi]
    if not votes:
        return 0, 0.25
    if any(votes):
        return 1, 1.0
    return 0, 1.0


def _decode_with_start(
    trace: SpyTrace,
    raw: Sequence[int],
    start: float,
    slot_cycles: float,
    num_slots: int,
) -> Tuple[List[int], float]:
    bits: List[int] = []
    score = 0.0
    for slot in range(num_slots):
        lo = start + slot * slot_cycles
        bit, confidence = _vote_slot_any(trace.times, raw, lo, lo + slot_cycles)
        bits.append(bit)
        if slot < len(PREAMBLE):
            score += confidence if bit == PREAMBLE[slot] else -confidence
    return bits, score


def linear_decode_link_trace(
    trace: SpyTrace,
    calibration: LinkCalibration,
    slot_cycles: float,
    payload_bits: int,
) -> Tuple[List[int], float]:
    """Recover one link's payload share from its probe trace.

    Binarizes against the calibration's fixed noise-floor threshold,
    anchors on the first contended sample after a quiet run, then sweeps a
    fine phase grid scored on the preamble (the same lock-on shape as the
    L2 decoder, with any-miss voting).  Returns ``(payload, slot0_start)``.
    """
    raw = trace.binarized(calibration.threshold)
    first_one = None
    quiet_run = 0
    for index, bit in enumerate(raw):
        if bit == 0:
            quiet_run += 1
        elif quiet_run >= 2:
            first_one = index
            break
        else:
            quiet_run = 0
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
    best_bits: List[int] = []
    best_score = float("-inf")
    best_start = anchor
    steps = 25
    span = 2.0 * period
    for step in range(steps + 1):
        start = anchor - 1.5 * period + span * step / steps
        bits, score = _decode_with_start(trace, raw, start, slot_cycles, num_slots)
        if score > best_score:
            best_bits, best_score, best_start = bits, score, start
    preamble_hits = sum(
        1 for got, want in zip(best_bits[: len(PREAMBLE)], PREAMBLE) if got == want
    )
    if preamble_hits < len(PREAMBLE) - 1:
        raise ChannelError(
            f"link preamble lock failed: best match {preamble_hits}/{len(PREAMBLE)}"
        )
    return best_bits[len(PREAMBLE):], best_start


# -- synthetic link traces ----------------------------------------------------


def link_trace(
    frame: Sequence[int],
    rng: random.Random,
    *,
    cadence: float = 780.0,
    jitter: float = 0.0,
    stray: float = 0.0,
    max_wait: float = 0.9 * SLOT,
) -> SpyTrace:
    """Probe stamps and latencies as the link spy records them.

    Idle probes tick at ``cadence`` (plus up to ``jitter`` cycles); in a
    '1' slot one or two probes block behind the flood for up to
    ``max_wait`` cycles, each returning with a contended latency, after
    which the cadence resumes.  A long block can leave the next slot's
    window empty.  ``stray`` is the chance an idle probe reads contended
    anyway.  The trojan starts after three quiet slots, as in the channel.
    """
    start = 3.0 * SLOT
    end = start + (len(frame) + 2) * SLOT
    times: List[float] = []
    latencies: List[float] = []
    t = rng.uniform(0.0, cadence)
    blocked_in = {}
    while t < end:
        times.append(t)
        slot = int((t - start) // SLOT) if t >= start else -1
        busy = 0 <= slot < len(frame) and frame[slot]
        if busy and blocked_in.setdefault(slot, rng.choice((1, 2))) > 0:
            blocked_in[slot] -= 1
            wait = rng.uniform(50.0, max_wait)
            latencies.append(IDLE_LATENCY + 100.0 + wait)
            t += wait
        else:
            noise = 500.0 if rng.random() < stray else rng.uniform(-5.0, 5.0)
            latencies.append(IDLE_LATENCY + noise)
        t += cadence + rng.uniform(0.0, jitter)
    return SpyTrace(times=times, latencies=latencies)


def _outcome(decoder, trace, payload_bits):
    try:
        return decoder(trace, CALIBRATION, SLOT, payload_bits)
    except ChannelError as error:
        return type(error), str(error)


# -- the bisected slot window -------------------------------------------------


@st.composite
def stamps_and_window(draw):
    """Sorted stamps with duplicates; ``lo``/``hi`` are stamps themselves."""
    base = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
        )
    )
    times = sorted(draw(st.lists(st.sampled_from(base), min_size=1, max_size=40)))
    lo, hi = sorted((draw(st.sampled_from(times)), draw(st.sampled_from(times))))
    num_slots = draw(st.integers(1, 4))
    return times, lo, hi, num_slots


@settings(max_examples=300, deadline=None)
@given(stamps_and_window())
def test_bisected_window_equals_linear_scan(case):
    times, lo, hi, num_slots = case
    raw = list(range(len(times)))
    seen = []

    def capture(votes):
        seen.append(list(votes))
        return 0, 0.0

    slot_cycles = hi - lo
    decode_slots(times, raw, lo, slot_cycles, num_slots, capture)
    expected = []
    for slot in range(num_slots):
        slot_lo = lo + slot * slot_cycles
        slot_hi = slot_lo + slot_cycles
        expected.append([raw[i] for i, t in enumerate(times) if slot_lo < t <= slot_hi])
    assert seen == expected


# -- decode_link_trace --------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    payload_bits=st.integers(1, 24),
    jitter=st.sampled_from((0.0, 40.0, 400.0)),
    stray=st.sampled_from((0.0, 0.05, 0.3)),
    cadence=st.sampled_from((500.0, 780.0, 1400.0)),
    trojan=st.sampled_from((True, True, True, False)),
)
def test_link_decoder_matches_linear_oracle(
    seed, payload_bits, jitter, stray, cadence, trojan
):
    rng = random.Random(seed)
    frame = list(PREAMBLE) + [rng.randrange(2) for _ in range(payload_bits)]
    if not trojan:
        frame = [0] * len(frame)
    trace = link_trace(frame, rng, cadence=cadence, jitter=jitter, stray=stray)
    assert _outcome(decode_link_trace, trace, payload_bits) == _outcome(
        linear_decode_link_trace, trace, payload_bits
    )


class TestLinkDecoder:
    def test_clean_trace_decodes(self):
        payload = [1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1]
        trace = link_trace(
            list(PREAMBLE) + payload, random.Random(4), max_wait=0.4 * SLOT
        )
        bits, start = decode_link_trace(trace, CALIBRATION, SLOT, len(payload))
        assert bits == payload
        assert abs(start - 3.0 * SLOT) < 780.0

    def test_quiet_trace_reports_no_contention(self):
        trace = link_trace([0] * 12, random.Random(5))
        with pytest.raises(ChannelError, match="no link contention observed"):
            decode_link_trace(trace, CALIBRATION, SLOT, 8)

    def test_missing_preamble_fails_lock(self):
        # Contention in every slot: the alternating preamble never shows.
        trace = link_trace([1] * 12, random.Random(6))
        with pytest.raises(ChannelError, match="link preamble lock failed"):
            decode_link_trace(trace, CALIBRATION, SLOT, 8)


class TestOutOfOrderTrace:
    """Bisection needs monotone stamps; a trace that goes back is a fault."""

    def _swapped(self, trace):
        times = list(trace.times)
        times[5], times[6] = times[6], times[5]
        return SpyTrace(times=times, latencies=list(trace.latencies))

    def test_link_decoder_raises_simulation_error(self):
        trace = link_trace(list(PREAMBLE) + [1, 0, 1], random.Random(7))
        with pytest.raises(SimulationError, match="out of order at sample 6"):
            decode_link_trace(self._swapped(trace), CALIBRATION, SLOT, 3)

    def test_l2_decoder_raises_simulation_error(self):
        latencies = [630.0] * 20 + [950.0, 950.0, 630.0, 630.0] * 4
        trace = SpyTrace(times=[300.0 * i for i in range(36)], latencies=latencies)
        thresholds = TimingThresholds(265.0, 470.0, 630.0, 950.0)
        with pytest.raises(SimulationError):
            decode_trace(self._swapped(trace), thresholds, 1000.0, 4)

    def test_lenient_channel_does_not_drop_it_as_a_failed_share(self):
        # strict=False turns a ChannelError into an all-zero share; a
        # simulator fault must surface instead.
        payload = [1, 0, 1]
        trace = link_trace(list(PREAMBLE) + payload, random.Random(7))
        channel = LinkCovertChannel(runtime=None)
        channel.calibrations = [CALIBRATION]
        pending = LinkPendingTransmission(
            bits=tuple(payload),
            frames=[list(PREAMBLE) + payload],
            slot_cycles=SLOT,
            spy_handles=[SimpleNamespace(done=True, result=self._swapped(trace))],
        )
        with pytest.raises(SimulationError):
            channel.decode_transmission(pending, strict=False)
