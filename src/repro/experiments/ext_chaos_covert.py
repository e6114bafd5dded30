"""Extension: covert-channel resilience under injected hardware faults.

Sweeps the :mod:`repro.chaos` presets and, for each, runs the *same*
seeded fault plan twice against an identically prepared box: once under
the plain one-shot :class:`~repro.core.covert.channel.CovertChannel`
decode, once under the :class:`~repro.core.covert.resilient.\
ResilientCovertChannel` ARQ transport (sequence-numbered CRC chunks,
preamble re-lock per chunk, rolling thresholds, NACK retransmit with
backoff, in-place eviction-set repair).  The table is the
graceful-degradation curve: raw error rate versus recovered error rate
and the price paid in retransmissions and repairs.

The injector is installed *armed after setup* so every plan perturbs the
steady-state transmission phase, not the (checkpointable) discovery
prologue; each preset row records the fault-plan hash so any row can be
replayed bit-for-bit.  Because every box is prepared identically, the
prologue runs once per sweep: each transmission gets a fork of that one
prepared channel (:class:`~repro.core.covert.channel.PreparedChannels`),
in the state a cold set-up of a fresh box reaches.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..chaos import install_chaos
from ..config import CHAOS_PRESETS, chaos_preset
from ..core.covert.channel import PreparedChannels
from ..core.covert.resilient import ResilientCovertChannel
from ..errors import SyncLostError
from ..telemetry.health import (
    ChannelHealth,
    ChaosCorrelator,
    HEALTH_SCHEMA_VERSION,
    build_health_report,
)
from .common import ExperimentResult, attach_manifest, default_runtime

__all__ = ["run"]

#: Tighter fault horizon than the preset default: the sweep's payload
#: spans a few hundred thousand cycles, and faults scheduled past the end
#: of the transmission test nothing.
_HORIZON_CYCLES = 350_000.0


def run(
    seed: int = 0,
    presets: Sequence[str] = CHAOS_PRESETS,
    payload_bits: int = 96,
    num_sets: int = 2,
    slot_cycles: float = 3000.0,
    small: bool = False,
) -> ExperimentResult:
    rng = np.random.default_rng(seed)
    bits = [int(b) for b in rng.integers(0, 2, payload_bits)]
    result = ExperimentResult(
        experiment_id="ext-chaos-covert",
        title="Covert channel under fault injection: plain vs self-healing",
        headers=[
            "preset",
            "faults",
            "plain BER (%)",
            "resilient BER (%)",
            "retransmits",
            "repairs",
            "goodput",
        ],
        paper_reference=(
            "robustness extension: the Fig 9/10 channel re-run under "
            "driver/fabric perturbations (DVFS, L2 flush storms, page "
            "migration, link flaps) with an ARQ + set-repair transport"
        ),
    )

    runtime = None
    plan_hashes = {}
    health_reports = {}
    boxes = PreparedChannels(lambda: default_runtime(seed, small=small))
    for preset in presets:
        spec = chaos_preset(preset).replace_horizon(_HORIZON_CYCLES)

        channel = boxes.channel(num_sets)
        runtime = channel.runtime
        injector = install_chaos(runtime, spec, seed=seed + 1)
        plan_hashes[preset] = injector.plan.plan_hash()
        plain = channel.transmit(bits, slot_cycles=slot_cycles, strict=False)
        faults_applied = len(injector.applied)

        channel = boxes.channel(num_sets)
        runtime = channel.runtime
        resilient_injector = install_chaos(runtime, spec, seed=seed + 1)
        monitor = ChannelHealth()
        resilient = ResilientCovertChannel(channel, monitor=monitor)
        resilience_report = None
        try:
            received, report = resilient.transmit(bits, slot_cycles=slot_cycles)
            resilience_report = report
            errors = sum(a != b for a, b in zip(bits, received))
            resilient_ber = errors / len(bits)
            goodput = f"{report.goodput_ratio:.2f}"
            retransmits = report.retransmits
            repairs = len(report.repairs)
        except SyncLostError:
            resilient_ber = 0.5
            goodput, retransmits, repairs = "lost", "-", "-"
        health_reports[preset] = build_health_report(
            f"ext-chaos-covert/{preset}",
            channel=monitor,
            eviction=resilient.health,
            resilience=resilience_report,
            correlator=ChaosCorrelator(monitor, resilient_injector),
        )
        result.add_row(
            preset,
            faults_applied,
            plain.error_rate * 100.0,
            resilient_ber * 100.0,
            retransmits,
            repairs,
            goodput,
        )

    off_row = next((row for row in result.rows if row[0] == "off"), None)
    worst = max(result.rows, key=lambda row: row[2])
    result.notes = (
        f"worst plain BER {worst[2]:.1f}% ({worst[0]} preset) recovered to "
        f"{worst[3]:.1f}% by the resilient transport"
        + (
            "; chaos off is overhead-free (identical channel, zero faults)"
            if off_row is not None and off_row[1] == 0
            else ""
        )
    )
    health_summary = {
        preset: {
            "frames": rep["channel"]["frames"],
            "mean_ber": rep["channel"]["mean_ber"],
            "retransmit_rate": rep["channel"]["retransmit_rate"],
            "total_repairs": (rep["eviction_sets"] or {}).get("total_repairs", 0),
        }
        for preset, rep in health_reports.items()
    }
    attach_manifest(
        result,
        runtime,
        seed=seed,
        extras={
            "payload_bits": payload_bits,
            "num_sets": num_sets,
            "slot_cycles": slot_cycles,
            "horizon_cycles": _HORIZON_CYCLES,
            "fault_plan_hashes": plan_hashes,
            "health": health_summary,
        },
    )
    #: Full per-preset diagnostics; the executor writes this to the
    #: ``ext-chaos-covert.health.json`` sidecar next to the manifest.
    result.extras["health"] = {
        "schema_version": HEALTH_SCHEMA_VERSION,
        "label": "ext-chaos-covert",
        "presets": health_reports,
    }
    return result
