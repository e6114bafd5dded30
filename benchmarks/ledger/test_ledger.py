"""Self-checks of the performance ledger on tiny inputs.

    python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = ledger.Workload("tiny", ("fig4", "ext-link-locate"), small=True, seeds=1)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def traced_cycle():
    return ledger.run_cycle(TINY, seed=0, traced=True)


def _bindings():
    """Every current binding of every wrapped boundary."""
    found = {}
    for target in [t for _l, t, _u in spans.BOUNDARIES] + list(spans.SETUP_BOUNDARIES):
        owner, attr = spans._resolve(target)
        original = vars(owner)[attr]
        found[target] = original
        for name, module in spans._repro_modules():
            for key, value in vars(module).items():
                if value is original:
                    found[(name, key)] = value
    return found


def test_self_times_partition_each_section_wall(traced_cycle):
    # problems would list unpatched importers and wrappers left behind.
    assert not traced_cycle.errors and traced_cycle.problems == []
    assert set(traced_cycle.recorder.sections) == {(0, "fig4"), (0, "ext-link-locate")}
    for key, root in traced_cycle.recorder.sections.items():
        nodes = list(root.walk())
        assert len(nodes) > 1, key
        assert all(node.self_s >= 0.0 for node in nodes), key
        total = sum(node.self_s for node in nodes)
        assert total == pytest.approx(traced_cycle.walls[key], rel=0.01)
    totals = traced_cycle.recorder.layer_totals(traced_cycle.recorder.sections)
    assert totals["hw.system"]["calls"] > 0 and totals["core"]["setup_calls"] > 0


def test_originals_restored_and_importers_patched():
    before = _bindings()
    recorder = spans.Recorder()
    patches = spans.install(recorder, traced=True)
    try:
        for module_name, attr in spans.OCCUPANCY_IMPORTERS:
            value = getattr(sys.modules[module_name], attr)
            assert value.__ledger_layer__ == "hw.occupancy", (module_name, attr)
        assert spans.leftover_wrappers()
    finally:
        patches.restore()
    assert spans.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tampered_digest_is_a_failure(traced_cycle):
    plain = ledger.run_cycle(TINY, seed=0, traced=False)
    good = {"tiny": {"0": {k[1]: v for k, v in plain.digests.items()}}}
    clean = ledger.check(TINY, 0, [plain, traced_cycle], good)
    assert clean.correct and clean.attempted == 4 and clean.failed == 0

    bad = json.loads(json.dumps(good))
    bad["tiny"]["0"]["fig4"] = "0" * 64
    tampered = ledger.check(TINY, 0, [plain, traced_cycle], bad)
    assert not tampered.correct
    assert tampered.failed == 2
    assert any("section fig4 seed 0" in m for m in tampered.messages)


def _printed(capsys, argv):
    status = run.run_once(run.parse_args(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    names = [line.split()[0] for line in lines[:-1] if not line.startswith("#")]
    return status, result, names


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_names_are_declared(monkeypatch, capsys, tmp_path, trace, kind):
    monkeypatch.setitem(ledger.WORKLOADS, "tiny", TINY)
    status, result, names = _printed(
        capsys,
        ["--workload", "tiny", "--seconds", "0", "--trace", trace, "--out", str(tmp_path)],
    )
    declared = run.declared(kind)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert names == list(result["metrics"])
    assert set(names) == set(declared)
    for name in names:
        assert NAME.fullmatch(name), name
        assert result["metrics"][name]["unit"] == declared[name]["unit"]
    if trace == "1":
        assert (tmp_path / "tiny.spans.json").exists()


def test_missing_sources_exit_without_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SOURCE", tmp_path)
    assert run.main(["--workload", "fabric"]) == 2
    assert capsys.readouterr().out == ""
