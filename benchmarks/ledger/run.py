"""Performance ledger command line.

    python3 benchmarks/ledger/run.py --workload covert --seed 0 --seconds 30 --trace 0

runs one workload (see ``ledger.WORKLOADS``) in this process, single
threaded, for at most ``--seconds`` seconds unless two cycles take
longer, and prints every metric as
``name value unit`` followed by one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones and writes the span
trees to ``<out>/<workload>.spans.json``.  Lines starting with ``#`` are
context: host fingerprint, per-section walls, golden coverage, failures.

Other modes:

* ``--repeat N`` runs N fresh processes on seeds ``seed..seed+N-1`` and
  prints each end-to-end metric's median, quartiles and spread, flagging
  any spread (IQR / median) above the metric's bound in BENCHMARK.json.
* ``--write-golden`` rewrites ``golden.json`` from the current code.

The simulator is imported from ``src/`` of the checkout this file sits
in; the command exits with status 2, printing no result, without it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(ledger.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--write-golden", action="store_true")
    return parser.parse_args(argv)


def emit(metrics, wanted) -> dict:
    """Print ``name value unit`` lines; return the JSON ``metrics`` map.

    Metrics BENCHMARK.json does not declare print as ``#`` context lines.
    """
    out = {}
    for name, (value, unit) in metrics.items():
        if name in wanted:
            print(f"{name} {value!r} {unit}")
            out[name] = {"value": value, "unit": unit}
        else:
            print(f"# {name} {value!r} {unit}")
    return out


def declared(kind: str):
    """Metric names of ``kind`` (end_to_end/per_layer) in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in spec[kind]}


def run_once(args) -> int:
    workload = ledger.WORKLOADS[args.workload]
    run = ledger.run_workload(
        workload, args.seed, args.seconds, bool(args.trace), ledger.load_golden()
    )
    print(
        f"# ledger workload={workload.name} seeds={args.seed}..{args.seed + workload.seeds - 1}"
        f" small={workload.small} untraced_cycles={len(run.plain)}"
        f" traced_cycles={len(run.traced)}"
    )
    host = ledger.host_fingerprint()
    print("# host " + " ".join(f"{key}={value!r}" for key, value in host.items()))
    for name, seconds in ledger.section_walls(run).items():
        print(f"# {name} {seconds!r} s")
    for message in run.messages + run.problems:
        print(f"# {message}")
    if args.trace:
        metrics = ledger.per_layer(run)
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{workload.name}.spans.json"
        path.write_text(json.dumps(ledger.spans_document(run, args.seconds), indent=1) + "\n")
        print(f"# spans written to {path}")
        kind = "per_layer"
    else:
        metrics = ledger.end_to_end(run)
        kind = "end_to_end"
    shown = emit(metrics, declared(kind))
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": shown,
            }
        )
    )
    return 0 if run.correct else 1


def repeat(args) -> int:
    """Fresh-process runs on consecutive seeds; spread against bounds."""
    bounds = declared("end_to_end")
    values = {name: [] for name in bounds}
    failures = 0
    for index in range(args.repeat):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed + index),
            "--seconds", repr(args.seconds), "--trace", "0",
        ]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            failures += 1
            print(f"# run {index} (seed {args.seed + index}) failed: exit {done.returncode}")
            sys.stdout.write(done.stdout + done.stderr)
            continue
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"# run {index} seed {args.seed + index}: " + " ".join(
            f"{name}={result['metrics'][name]['value']:.4f}" for name in values))
    flagged = 0
    for name, samples in values.items():
        if len(samples) < 2:
            continue
        q1, median, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / median
        bound = bounds[name]["bound"]
        flag = spread > bound
        flagged += flag
        print(
            f"{name} median={median:.4f} q1={q1:.4f} q3={q3:.4f} "
            f"spread={spread:.4f} bound={bound}" + (" FLAG" if flag else "")
        )
    return 1 if failures or flagged else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SOURCE}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Whether numpy's madvise for huge pages is granted depends on the
    # host's free memory, and moved peak RSS by up to 8% between runs.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(SOURCE))
    if args.write_golden:
        ledger.write_golden()
        return 0
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
