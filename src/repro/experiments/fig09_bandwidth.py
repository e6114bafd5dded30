"""Fig 9: covert channel bandwidth and error rate vs number of sets."""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ..core.covert.channel import ChannelReport, PreparedChannels
from .common import ExperimentResult, default_runtime

__all__ = ["run"]


def run(
    runtime_factory=None,
    seed: int = 0,
    set_counts: Sequence[int] = (1, 2, 4, 6, 8, 12),
    payload_bits: int = 512,
    slot_cycles: float = 3000.0,
    repeats: int = 1,
) -> ExperimentResult:
    """Sweep the number of parallel cache sets, like Fig 9's x-axis.

    A fresh box per point keeps the sweep independent; ``strict=False``
    decoding lets post-knee saturation appear as error rate rather than an
    exception.  The paper averages over 1000 runs; ``repeats`` averages the
    error rate over several seeded boxes per point (bandwidth is
    deterministic given the slot length).  Points that share a seed share
    one set-up prologue: each gets a fork of the prepared channel with its
    own pairs placed (:class:`~repro.core.covert.channel.PreparedChannels`).
    """
    make_runtime = runtime_factory or default_runtime
    rng = np.random.default_rng(seed)
    bits = [int(b) for b in rng.integers(0, 2, payload_bits)]
    report = ChannelReport()
    result = ExperimentResult(
        experiment_id="fig9",
        title="Covert channel bandwidth and error rate",
        headers=["sets", "bandwidth (KB/s)", "error rate (%)", "effective KB/s"],
        paper_reference=(
            "bandwidth rises with sets; error rate rises too; best 3.95 MB/s "
            "at 4 sets with 1.3% average error"
        ),
    )
    boxes = [
        PreparedChannels(functools.partial(make_runtime, seed + 101 * repeat))
        for repeat in range(repeats)
    ]
    for num_sets in set_counts:
        errors = []
        bandwidth = 0.0
        for prepared in boxes:
            channel = prepared.channel(num_sets)
            outcome = channel.transmit(bits, slot_cycles=slot_cycles, strict=False)
            errors.append(outcome.error_rate)
            bandwidth = outcome.bandwidth_bytes_per_s
        error = float(np.mean(errors))
        report.add(num_sets, bandwidth, error)
        result.add_row(
            num_sets,
            bandwidth / 1024.0,
            error * 100.0,
            bandwidth * (1.0 - error) / 1024.0,
        )
    best_sets, best_bw, best_err = report.best()
    result.extras["report"] = report
    result.notes = (
        f"best raw bandwidth {best_bw / 1024:.0f} KB/s at {best_sets} sets "
        f"(error {best_err * 100:.1f}%); absolute numbers are simulator-scale, "
        f"the paper's shape (monotone bandwidth, rising error, knee) is the "
        f"reproduction target"
    )
    return result
