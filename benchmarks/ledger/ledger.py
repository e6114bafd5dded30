"""Performance ledger: outside-in workloads over the ``gpu-spy report`` sections.

A workload is a list of report sections, a box size and a block of
consecutive seeds starting at ``--seed``.  One *cycle* runs every section
for every seed of the block through
:func:`repro.experiments.report.run_experiment`, one after another, the
way ``gpu-spy report`` runs them with ``--jobs 1`` and no artifact cache:
a closed loop with one caller.  The loop collects garbage before each
section, outside its timed span.  A run repeats identical cycles until
its time budget is spent.

Wall and CPU seconds are the sum over sections of each section's fastest
cycle.  Host noise on a shared machine comes in phases of seconds to
minutes that slow everything by 10-80%; a per-cycle median still moves
with the short ones, while a section is only counted slow if it was slow
in every cycle.  Set-up seconds are the median over cycles.  Peak RSS is
read when the first cycle ends: the process peak grows with every later
cycle, and how many cycles fit depends on host speed.

Every cycle checks its outputs: the SHA-256 of each section's
``summary()`` must match ``golden.json`` where that file has the
``(workload, seed, section)``, and must match the run's first cycle in
any case (a determinism check, which is all a seed without a golden
gets).

Traced runs alternate untraced and traced cycles: the untraced ones give
the per-section walls and the base of ``trace.overhead_pct``, the traced
ones the per-layer spans of :mod:`spans`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import spans

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
#: Seed blocks ``--write-golden`` records: the default and a held-out one.
GOLDEN_SEEDS = (0, 1000)

Key = Tuple[int, str]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Report sections in run order; empty means every section.
    sections: Tuple[str, ...]
    small: bool
    #: Consecutive seeds per cycle, starting at ``--seed``.
    seeds: int

    def seed_block(self, seed: int) -> range:
        return range(seed, seed + self.seeds)


# Why each workload exists is in BENCHMARK.json and README.md.  Cycle
# sizes keep two or more cycles inside a 30 s run on a 2-vCPU host: full
# table2 alone (~27 s) would not fit, so memorygram runs fig11, which has
# the same tag-store-first profile.  covert runs ext-chaos-covert first:
# after the other four its peak memory depends on the seed (86 or 121 MB),
# first it does not (83 MB).
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("report-small", (), small=True, seeds=1),
        Workload("memorygram", ("fig11",), small=False, seeds=1),
        Workload(
            "covert",
            ("ext-chaos-covert", "fig9", "fig10", "sec6-noise", "sec7-defense"),
            small=False,
            seeds=1,
        ),
        Workload("fabric", ("ext-link-covert", "ext-link-locate"), small=False, seeds=5),
    )
}


def sections_of(workload: Workload) -> Tuple[str, ...]:
    if workload.sections:
        return workload.sections
    from repro.experiments.report import EXPERIMENTS

    return EXPERIMENTS


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


# ----------------------------------------------------------------------
# One cycle
# ----------------------------------------------------------------------
@dataclass
class Cycle:
    traced: bool
    recorder: spans.Recorder
    wall: float = 0.0
    #: Per (seed, section): wall and CPU seconds, summary digest (None if
    #: the section raised) and the error it raised.
    walls: Dict[Key, float] = field(default_factory=dict)
    cpus: Dict[Key, float] = field(default_factory=dict)
    digests: Dict[Key, Optional[str]] = field(default_factory=dict)
    errors: Dict[Key, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: Process peak RSS when the cycle ended.
    peak_rss_mb: float = 0.0

    @property
    def setup(self) -> float:
        return self.recorder.layer_totals(self.recorder.sections)["core"]["setup_s"]


def run_cycle(workload: Workload, seed: int, traced: bool) -> Cycle:
    """Run every section of ``workload`` once per seed of its block."""
    from repro.experiments.report import run_experiment

    recorder = spans.Recorder()
    cycle = Cycle(traced=traced, recorder=recorder)
    patches = spans.install(recorder, traced)
    try:
        if traced:
            cycle.problems.extend(_unpatched_importers())
        start = time.perf_counter()
        for run_seed in workload.seed_block(seed):
            for section in sections_of(workload):
                key = (run_seed, section)
                # Every section starts from the same collected heap, so
                # when the cyclic collector fires inside it (and so its
                # time and the peak RSS) does not depend on what ran before.
                gc.collect()
                cpu = time.process_time()
                try:
                    result = recorder.run_section(
                        key,
                        lambda: run_experiment(section, seed=run_seed, small=workload.small),
                    )
                except Exception as exc:  # a failed section is a counted error
                    cycle.digests[key] = None
                    cycle.errors[key] = f"{type(exc).__name__}: {exc}"
                else:
                    cycle.digests[key] = digest(result.summary())
                finally:
                    cycle.cpus[key] = time.process_time() - cpu
                    cycle.walls[key] = recorder.sections[key].incl
        cycle.wall = time.perf_counter() - start
        cycle.peak_rss_mb = peak_rss_mb()
    finally:
        patches.restore()
    leftovers = spans.leftover_wrappers()
    if leftovers:
        cycle.problems.append("wrappers not restored: " + ", ".join(leftovers))
    return cycle


def _unpatched_importers() -> List[str]:
    missing = []
    for module_name, attr in spans.OCCUPANCY_IMPORTERS:
        value = getattr(sys.modules[module_name], attr)
        if getattr(value, "__ledger_layer__", None) != "hw.occupancy":
            missing.append(f"{module_name}.{attr} not wrapped")
    return missing


# ----------------------------------------------------------------------
# A run: repeated cycles within a time budget
# ----------------------------------------------------------------------
@dataclass
class Run:
    workload: Workload
    seed: int
    cycles: List[Cycle]
    attempted: int
    failed: int
    messages: List[str]
    problems: List[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def plain(self) -> List[Cycle]:
        return [cycle for cycle in self.cycles if not cycle.traced]

    @property
    def traced(self) -> List[Cycle]:
        return [cycle for cycle in self.cycles if cycle.traced]


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, golden: dict
) -> Run:
    """Run at least two cycles, then more while the next one, taking as
    long as the slower of the last two, would end within ``seconds``.

    Traced runs alternate untraced and traced cycles.
    """
    cycles: List[Cycle] = []
    start = time.perf_counter()
    while len(cycles) < 2 or (
        time.perf_counter() - start + max(cycle.wall for cycle in cycles[-2:]) <= seconds
    ):
        traced = trace and len(cycles) % 2 == 1
        cycles.append(run_cycle(workload, seed, traced))
    return check(workload, seed, cycles, golden)


def check(workload: Workload, seed: int, cycles: List[Cycle], golden: dict) -> Run:
    """Count failed sections and collect every problem the run shows."""
    expected = golden.get(workload.name, {})
    reference = cycles[0].digests
    attempted = failed = 0
    messages: List[str] = []
    problems: List[str] = []
    unchecked = [s for s in workload.seed_block(seed) if str(s) not in expected]
    if unchecked:
        messages.append(
            f"seeds {unchecked[0]}..{unchecked[-1]} of {workload.name} have no "
            "golden: determinism check only"
        )
    for index, cycle in enumerate(cycles):
        problems.extend(f"cycle {index}: {problem}" for problem in cycle.problems)
        for (run_seed, section), value in cycle.digests.items():
            attempted += 1
            where = f"section {section} seed {run_seed} (cycle {index})"
            want = expected.get(str(run_seed), {}).get(section)
            if value is None:
                failed += 1
                messages.append(f"FAILED {where}: {cycle.errors[(run_seed, section)]}")
            elif want is not None and value != want:
                failed += 1
                messages.append(f"FAILED {where}: summary digest differs from golden.json")
            elif value != reference.get((run_seed, section)):
                failed += 1
                messages.append(f"FAILED {where}: summary differs from cycle 0")
    for cycle in cycles:
        if cycle.traced:
            problems.extend(coverage_problems(workload, cycle))
    return Run(workload, seed, cycles, attempted, failed, messages, problems)


def coverage_problems(workload: Workload, cycle: Cycle) -> List[str]:
    """Layers that recorded no calls on a workload they should move, and
    sections whose layer self times do not add up to their wall."""
    recorder = cycle.recorder
    totals = recorder.layer_totals(recorder.sections)
    calls = {layer: entry["calls"] for layer, entry in totals.items()}
    calls[spans.SETUP] = totals["core"]["setup_calls"]
    problems = [
        f"layer {layer} recorded no calls on {workload.name}"
        for layer, names in spans.COVERAGE.items()
        if workload.name in names and not calls.get(layer)
    ]
    for key, root in recorder.sections.items():
        total = sum(node.self_s for node in root.walk())
        if abs(total - root.incl) > 0.01 * root.incl:
            problems.append(f"self times of {key} sum to {total:.6f}s, wall {root.incl:.6f}s")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def best(cycles: List[Cycle], attr: str, section: Optional[str] = None) -> float:
    """Sum over (seed, section) of the fastest cycle's seconds."""
    table = [getattr(cycle, attr) for cycle in cycles]
    return sum(
        min(row[key] for row in table)
        for key in table[0]
        if section is None or key[1] == section
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run) -> Dict[str, Tuple[float, str]]:
    plain = run.plain
    return {
        "wall_s": (best(plain, "walls"), "s"),
        "cpu_s": (best(plain, "cpus"), "s"),
        "setup_s": (statistics.median(cycle.setup for cycle in plain), "s"),
        "peak_rss_mb": (plain[0].peak_rss_mb, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cycle_layers(cycle: Cycle) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced cycle."""
    recorder = cycle.recorder
    totals = recorder.layer_totals(recorder.sections)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (totals[layer]["self_s"], "s")
    for layer in ("hw.cache", "hw.occupancy", "hw.system", "hw.interconnect", "analysis", "chaos"):
        metrics[f"{layer}.calls"] = (totals[layer]["calls"], "count")
    metrics["hw.cache.lines"] = (totals["hw.cache"]["units"], "count")
    metrics["hw.interconnect.transfers"] = (totals["hw.interconnect"]["units"], "count")
    engine = totals["sim.engine"]["counters"]
    engine_s = sum(
        node.incl
        for root in recorder.sections.values()
        for node in root.walk()
        if node.layer == "sim.engine"
    )
    metrics["sim.engine.events"] = (engine.get("events", 0), "count")
    metrics["sim.engine.accesses"] = (engine.get("accesses", 0), "count")
    metrics["sim.engine.accesses_per_s"] = (_ratio(engine.get("accesses", 0), engine_s), "1/s")
    metrics["sim.engine.epochs"] = (engine.get("epochs", 0), "count")
    metrics["sim.engine.accesses_per_epoch"] = (
        _ratio(engine.get("epoch_accesses", 0), engine.get("epochs", 0)),
        "count",
    )
    metrics["sim.engine.scalar_fallback_ratio"] = (
        _ratio(engine.get("scalar_fallbacks", 0), engine.get("epoch_bursts", 0)),
        "fraction",
    )
    metrics["sim.epoch.resumes"] = (totals["sim.epoch"]["calls"], "count")
    metrics["core.setup_s"] = (totals["core"]["setup_s"], "s")
    metrics["core.setup_calls"] = (totals["core"]["setup_calls"], "count")
    outside = cycle.wall - sum(cycle.walls.values())
    metrics["trace.unattributed_pct"] = (100.0 * _ratio(outside, cycle.wall), "%")
    return metrics


def per_layer(run: Run) -> Dict[str, Tuple[float, str]]:
    """Median over traced cycles of each per-layer metric."""
    samples = [cycle_layers(cycle) for cycle in run.traced]
    metrics = {
        name: (statistics.median(sample[name][0] for sample in samples), unit)
        for name, (_value, unit) in samples[0].items()
    }
    overhead = best(run.traced, "walls") / best(run.plain, "walls")
    metrics["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%")
    return metrics


def section_walls(run: Run) -> Dict[str, float]:
    """``experiments.<section>.wall_s`` over the block, untraced cycles."""
    return {
        f"experiments.{section}.wall_s": best(run.plain, "walls", section)
        for section in sections_of(run.workload)
    }


def host_fingerprint() -> Dict[str, str]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": str(os.cpu_count()),
    }


def spans_document(run: Run, seconds: float) -> dict:
    """The ``<workload>.spans.json`` payload: every traced cycle's trees."""
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "seconds": seconds,
        "host": host_fingerprint(),
        "sections": section_walls(run),
        "cycles": [
            {
                "traced": cycle.traced,
                "wall_s": cycle.wall,
                "setup_s": cycle.setup,
                "sections": [
                    {
                        "seed": seed,
                        "section": section,
                        "wall_s": cycle.walls[(seed, section)],
                        "cpu_s": cycle.cpus[(seed, section)],
                        "tree": root.to_json() if cycle.traced else None,
                    }
                    for (seed, section), root in cycle.recorder.sections.items()
                ],
            }
            for cycle in run.cycles
        ],
    }


# ----------------------------------------------------------------------
# Golden outputs
# ----------------------------------------------------------------------
def write_golden() -> None:
    """Record one untraced cycle's digests per workload and golden block."""
    golden: Dict[str, Dict[str, Dict[str, str]]] = {}
    for workload in WORKLOADS.values():
        per_seed = golden.setdefault(workload.name, {})
        for seed in GOLDEN_SEEDS:
            cycle = run_cycle(workload, seed, traced=False)
            if cycle.errors:
                raise RuntimeError(f"{workload.name} seed {seed}: {cycle.errors}")
            for (run_seed, section), value in cycle.digests.items():
                per_seed.setdefault(str(run_seed), {})[section] = value
            print(
                f"# golden {workload.name} seeds {seed}..{seed + workload.seeds - 1}: "
                f"{len(cycle.digests)} sections in {cycle.wall:.2f}s"
            )
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
