"""Artifact cache: keys, invalidation, warm==cold equivalence, safety gate.

The cache memoizes the discovery/calibration prologue as a whole-runtime
checkpoint, so the two properties that matter are (1) a warm restore is
*byte-identical* to a cold run -- same simulator state, same downstream
measurements -- and (2) anything that would make the checkpoint unsound
(stale hardware spec, attached tracer, outside observers) falls through
to the uncached path instead of restoring wrong state.
"""

import json

import numpy as np
import pytest

from repro.cache import (
    CACHE_ENV_VAR,
    ArtifactCache,
    activated,
    resolve_cache_dir,
    runtime_is_pristine,
)
from repro.config import DGXSpec
from repro.core.sidechannel.prober import MemorygramProber
from repro.runtime.api import Runtime
from repro.workloads.vectoradd import VectorAdd


def _small_runtime(seed=3):
    return Runtime(DGXSpec.small(num_sets=32, associativity=4), seed=seed)


# ----------------------------------------------------------------------
# Store semantics
# ----------------------------------------------------------------------
def test_store_then_load_round_trips(tmp_path):
    cache = ArtifactCache(tmp_path)
    digest = cache.digest_for("discovery", "abc123", 7, num_sets=16)
    assert cache.load("discovery", digest, "abc123") is None  # cold miss
    cache.store("discovery", digest, {"sets": [1, 2, 3]}, "abc123", 7,
                params={"num_sets": 16})
    assert cache.load("discovery", digest, "abc123") == {"sets": [1, 2, 3]}
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)


def test_digest_separates_kind_seed_params_and_hash():
    base = ArtifactCache.digest_for("discovery", "abc123", 7, num_sets=16)
    assert base != ArtifactCache.digest_for("calibration", "abc123", 7, num_sets=16)
    assert base != ArtifactCache.digest_for("discovery", "abc124", 7, num_sets=16)
    assert base != ArtifactCache.digest_for("discovery", "abc123", 8, num_sets=16)
    assert base != ArtifactCache.digest_for("discovery", "abc123", 7, num_sets=32)
    assert base == ArtifactCache.digest_for("discovery", "abc123", 7, num_sets=16)


def test_config_hash_mismatch_invalidates_entry(tmp_path):
    cache = ArtifactCache(tmp_path)
    digest = cache.digest_for("discovery", "abc123", 7)
    cache.store("discovery", digest, "payload", "abc123", 7)
    # A hand-edited sidecar must never resurrect state for another spec.
    meta_path = tmp_path / "discovery" / f"{digest}.json"
    meta = json.loads(meta_path.read_text())
    meta["config_hash"] = "deadbeef00000000"
    meta_path.write_text(json.dumps(meta))
    assert cache.load("discovery", digest, "abc123") is None
    assert cache.invalidations == 1
    assert not (tmp_path / "discovery" / f"{digest}.pkl.gz").exists()
    assert cache.load("discovery", digest, "abc123") is None  # stays gone


def test_corrupt_payload_invalidates_entry(tmp_path):
    cache = ArtifactCache(tmp_path)
    digest = cache.digest_for("calibration", "abc123", 7)
    cache.store("calibration", digest, "payload", "abc123", 7)
    (tmp_path / "calibration" / f"{digest}.pkl.gz").write_bytes(b"not gzip")
    assert cache.load("calibration", digest, "abc123") is None
    assert cache.invalidations == 1


def test_invalidate_config_and_clear(tmp_path):
    cache = ArtifactCache(tmp_path)
    for config_hash in ("aaaa", "bbbb"):
        digest = cache.digest_for("discovery", config_hash, 1)
        cache.store("discovery", digest, config_hash, config_hash, 1)
    assert cache.invalidate_config("aaaa") == 1
    assert cache.load(
        "discovery", cache.digest_for("discovery", "bbbb", 1), "bbbb"
    ) == "bbbb"
    assert cache.clear() == 1


def test_resolve_cache_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert resolve_cache_dir(None) is None
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    assert resolve_cache_dir(tmp_path / "flag") == tmp_path / "flag"  # flag wins


def test_snapshot_reports_stats_and_events(tmp_path):
    cache = ArtifactCache(tmp_path)
    digest = cache.digest_for("discovery", "abc", 0)
    cache.load("discovery", digest, "abc")
    snap = cache.snapshot()
    assert snap["misses"] == 1 and snap["hits"] == 0
    assert snap["events"] == [
        {"kind": "discovery", "digest": digest, "outcome": "miss"}
    ]


# ----------------------------------------------------------------------
# Warm == cold
# ----------------------------------------------------------------------
def _memorygram(cache):
    runtime = _small_runtime()
    prober = MemorygramProber(runtime, victim_gpu=0, spy_gpu=1)
    prober.setup(num_sets=8, cache=cache)
    gram = prober.record(VectorAdd(scale=0.02, seed=3), bin_cycles=10_000.0)
    return gram.data


def test_warm_run_reproduces_cold_run_exactly(tmp_path):
    cache = ArtifactCache(tmp_path)
    cold = _memorygram(cache)
    assert cache.stores > 0 and cache.hits == 0
    warm = _memorygram(cache)
    assert cache.hits > 0
    # The checkpoint restores the *whole* post-setup simulator state, so
    # the downstream measurement must be bit-for-bit the uncached one.
    assert np.array_equal(cold, warm)


def test_ambient_cache_is_picked_up(tmp_path):
    with activated(ArtifactCache(tmp_path)) as cache:
        _memorygram(cache=None)  # setup finds the ambient cache itself
    assert cache.stores > 0


def test_manifest_records_cache_hits(tmp_path):
    from repro.experiments.executor import run_experiments

    for json_dir in ("cold", "warm"):
        outcomes = run_experiments(
            ["fig10"], seed=3, small=True,
            json_dir=tmp_path / json_dir, cache_dir=tmp_path / "cache",
        )
        assert outcomes[0].ok
    cold = json.loads((tmp_path / "cold" / "fig10.manifest.json").read_text())
    warm = json.loads((tmp_path / "warm" / "fig10.manifest.json").read_text())
    assert cold["extras"]["artifact_cache"]["stores"] > 0
    assert warm["extras"]["artifact_cache"]["hits"] > 0
    assert warm["extras"]["artifact_cache"]["misses"] == 0


# ----------------------------------------------------------------------
# Pristine gate (checkpoint soundness)
# ----------------------------------------------------------------------
def test_fresh_runtime_is_pristine():
    assert runtime_is_pristine(_small_runtime())


def test_used_runtime_is_not_pristine():
    runtime = _small_runtime()
    prober = MemorygramProber(runtime, victim_gpu=0, spy_gpu=1)
    prober.setup(num_sets=4)
    assert not runtime_is_pristine(runtime)


def test_traced_runtime_is_not_pristine():
    from repro.telemetry import attach_tracer

    runtime = _small_runtime()
    attach_tracer(runtime)
    assert not runtime_is_pristine(runtime)


@pytest.mark.parametrize("hook", ["metrics", "profiler"])
def test_hooked_runtime_is_not_pristine(hook):
    # A restore or a fork would hand the runtime a copy of the hook that
    # its owner never reads.
    from repro.telemetry.metrics import attach_metrics
    from repro.telemetry.profiler import attach_profiler

    runtime = _small_runtime()
    (attach_metrics if hook == "metrics" else attach_profiler)(runtime)
    assert not runtime_is_pristine(runtime)


@pytest.mark.parametrize("defense", ["mig", "lane"])
def test_defended_runtime_is_not_pristine(defense):
    # Defenses swap in subclassed components the config hash cannot see;
    # a checkpoint keyed on the hash would restore the undefended box.
    from repro.defense.partitioning import (
        enable_lane_partitioning,
        enable_mig_partitioning,
    )

    runtime = _small_runtime()
    if defense == "mig":
        enable_mig_partitioning(runtime.system, gpu_id=0)
    else:
        enable_lane_partitioning(runtime.system, num_slices=2)
    assert not runtime_is_pristine(runtime)


def test_outside_system_reference_is_not_pristine():
    # An object built against the current system (e.g. a detector) would
    # silently keep watching the abandoned graph after a restore.
    runtime = _small_runtime()
    holder = runtime.system
    assert not runtime_is_pristine(runtime)
    del holder
    assert runtime_is_pristine(runtime)
