"""Differential tests pinning the vectorized L2 backend to the scalar one.

The vectorized fast path (``repro.hw.tagstore`` + ``VectorL2Cache`` +
the batched service cores in ``MultiGPUSystem``) must be *semantically
identical* to the scalar reference: same hits, same evictions, same
counter totals, bit-for-bit identical cache state.  The system-level
trace differential compares latencies and per-link fabric counters
exactly; epoch results, whose batched queue formulas may add the same
terms in a different order, are compared with ``allclose``.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import find, settings, strategies as st
from hypothesis.errors import NoSuchExample

from repro.config import CacheSpec, DGXSpec
from repro.hw.cache import L2Cache, VectorL2Cache, make_l2
from repro.hw.occupancy import multi_server_waits, single_server_waits
from repro.hw.replacement import LruSet, make_set
from repro.hw.system import MultiGPUSystem
from repro.hw.tagstore import LruTagStore
from repro.runtime.api import Runtime
from repro.sim.ops import Access, ProbeEpoch, ProbeSet


# ----------------------------------------------------------------------
# Unit level: occupancy queue helpers vs brute-force loops
# ----------------------------------------------------------------------
def _single_ref(busy, stamps, service):
    waits = []
    for stamp in stamps:
        wait = busy - stamp if busy > stamp else 0.0
        busy = stamp + wait + service
        waits.append(wait)
    return waits, busy


def _multi_ref(lanes, stamps, service):
    lanes = list(lanes)
    waits = []
    for stamp in stamps:
        lane = min(range(len(lanes)), key=lambda i: lanes[i])
        wait = lanes[lane] - stamp if lanes[lane] > stamp else 0.0
        lanes[lane] = stamp + wait + service
        waits.append(wait)
    return waits, sorted(lanes)


def test_single_server_waits_matches_reference_loop():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 40)
        service = rng.choice([1.0, 4.0, 7.5])
        busy = rng.uniform(0.0, 60.0)
        stamps = np.cumsum([rng.uniform(0.0, 12.0) for _ in range(n)])
        waits, busy_end = single_server_waits(busy, stamps, service)
        ref_waits, ref_end = _single_ref(busy, stamps.tolist(), service)
        assert np.allclose(waits, ref_waits)
        assert busy_end == pytest.approx(ref_end)


def test_multi_server_waits_matches_least_busy_lane_loop():
    rng = random.Random(13)
    for _ in range(300):
        num_lanes = rng.randrange(1, 5)
        n = rng.randrange(1, 40)
        service = rng.choice([2.0, 8.0, 13.0])
        lanes = np.array(sorted(rng.uniform(0.0, 80.0) for _ in range(num_lanes)))
        stamps = np.cumsum([rng.uniform(0.0, 10.0) for _ in range(n)])
        waits, new_lanes = multi_server_waits(lanes.copy(), stamps, service)
        ref_waits, ref_lanes = _multi_ref(lanes.tolist(), stamps.tolist(), service)
        assert np.allclose(waits, ref_waits)
        assert np.allclose(new_lanes, ref_lanes)


# ----------------------------------------------------------------------
# Unit level: LruTagStore vs the scalar LruSet, interleaved batch/scalar
# ----------------------------------------------------------------------
def test_tagstore_matches_lru_sets():
    num_sets, ways = 8, 4
    rng = random.Random(17)
    generator = np.random.default_rng(17)
    for _trial in range(25):
        store = LruTagStore(num_sets, ways)
        sets = [make_set("lru", ways, generator) for _ in range(num_sets)]
        for _step in range(30):
            action = rng.random()
            if action < 0.6:  # batched access
                count = rng.randrange(1, 12)
                set_idx = np.array([rng.randrange(num_sets) for _ in range(count)])
                tags = np.array([rng.randrange(10) for _ in range(count)])
                hits, evictions = store.access_lines(set_idx, tags)
                for at, (s, t) in enumerate(zip(set_idx, tags)):
                    hit, evicted = sets[s].access(int(t))
                    assert bool(hits[at]) == hit
                    assert bool(evictions[at]) == (evicted is not None)
            elif action < 0.85:  # scalar access
                s, t = rng.randrange(num_sets), rng.randrange(10)
                hit, evicted = store.access_one(s, t)
                ref_hit, ref_evicted = sets[s].access(t)
                assert hit == ref_hit and evicted == ref_evicted
            else:  # invalidate
                s, t = rng.randrange(num_sets), rng.randrange(10)
                assert store.invalidate(s, t) == sets[s].invalidate(t)
        for s in range(num_sets):
            assert store.resident_tags(s) == sets[s].resident_tags()


# ----------------------------------------------------------------------
# Unit level: whole-burst programs vs LruSet, shrunk to a minimal burst
# ----------------------------------------------------------------------
_SETS, _WAYS, _TAGS = 4, 4, 9

# Up to 80 accesses over 4 sets of 4 ways with 9 tags: repeated (set, tag)
# pairs and walks longer than ``ways`` are the norm, not the exception.
_burst = st.lists(
    st.tuples(st.integers(0, _SETS - 1), st.integers(0, _TAGS - 1)),
    min_size=1,
    max_size=80,
)
_step = st.one_of(
    st.tuples(st.just("lines"), _burst),
    st.tuples(st.just("plan"), _burst),
    # Replaying a planned burst whose lines are still resident takes the
    # planned path's all-resident age scatter.
    st.tuples(st.just("replay"), st.integers(0, 7)),
    st.tuples(
        st.just("invalidate"),
        st.integers(0, _SETS - 1),
        st.integers(0, _TAGS - 1),
    ),
    st.tuples(st.just("reset")),
)
_programs = st.lists(_step, min_size=1, max_size=12)


def _diverges(program) -> bool:
    """Run ``program`` on a tag store and on LruSets; True on any mismatch."""
    store = LruTagStore(_SETS, _WAYS)
    ref = [LruSet(_WAYS) for _ in range(_SETS)]
    plans = []
    for step in program:
        kind = step[0]
        if kind == "invalidate":
            _kind, s, t = step
            if store.invalidate(s, t) != ref[s].invalidate(t):
                return True
        elif kind == "reset":
            store.reset()
            ref = [LruSet(_WAYS) for _ in range(_SETS)]
        else:
            if kind == "replay":
                if not plans:
                    continue
                pairs, plan = plans[step[1] % len(plans)]
            else:
                pairs = step[1]
                set_idx = np.array([s for s, _t in pairs], dtype=np.int64)
                tags = np.array([t for _s, t in pairs], dtype=np.int64)
                plan = None
                if kind == "plan":
                    plan = store.plan_walk(set_idx, tags)
                    plans.append((pairs, plan))
            if plan is None:
                hits, evictions = store.access_lines(set_idx, tags)
            else:
                hits, evictions = store.access_lines_planned(plan)
            expected = [ref[s].access(t) for s, t in pairs]
            if hits.tolist() != [hit for hit, _evicted in expected]:
                return True
            if evictions.tolist() != [ev is not None for _hit, ev in expected]:
                return True
        if any(store.resident_tags(s) != ref[s].resident_tags() for s in range(_SETS)):
            return True
    return False


def test_burst_walks_match_lru_sets():
    """No program of bursts, plan replays, invalidations and resets makes
    the tag store diverge from LruSet; a divergence is shrunk to the
    minimal program that shows it."""
    try:
        program = find(
            _programs,
            _diverges,
            settings=settings(max_examples=400, database=None),
        )
    except NoSuchExample:
        return
    pytest.fail(f"tag store diverges from LruSet; minimal program: {program!r}")


def test_planned_replay_of_resident_lines_reorders_recency():
    """A replayed plan over resident lines (the age-scatter branch) hits
    everywhere and leaves each set in the order its walk touched them."""
    store = LruTagStore(_SETS, _WAYS)
    # Ways 0-2 of set 0 hold 7, 6, 5: way order is the reverse of the
    # walk order below, so equal ages would show up as [7, 6, 5].
    store.access_lines(
        np.array([0, 0, 0, 1], dtype=np.int64), np.array([7, 6, 5, 9], dtype=np.int64)
    )
    plan = store.plan_walk(
        np.array([0, 1, 0, 0], dtype=np.int64), np.array([5, 9, 6, 7], dtype=np.int64)
    )
    assert plan.distinct and plan.longest == 3
    hits, evictions = store.access_lines_planned(plan)
    assert hits.all() and not evictions.any()
    assert store.resident_tags(0) == [5, 6, 7]
    assert store.resident_tags(1) == [9]


# ----------------------------------------------------------------------
# Backend construction
# ----------------------------------------------------------------------
def _cache_spec(**overrides):
    base = CacheSpec(num_sets=16, associativity=4, num_banks=8)
    return replace(base, **overrides) if overrides else base


def test_make_l2_selects_backend_by_flag():
    rng = np.random.default_rng(0)
    assert isinstance(make_l2(_cache_spec(), rng), VectorL2Cache)
    assert type(make_l2(_cache_spec(l2_backend="scalar"), rng)) is L2Cache


def test_make_l2_falls_back_to_scalar_for_non_lru():
    rng = np.random.default_rng(0)
    cache = make_l2(_cache_spec(replacement="plru"), rng)
    assert type(cache) is L2Cache


def test_vector_cache_rejects_non_lru():
    with pytest.raises(ValueError):
        VectorL2Cache(_cache_spec(replacement="random"), np.random.default_rng(0))


def test_l2_backend_flag_validated():
    with pytest.raises(Exception):
        _cache_spec(l2_backend="turbo")


def _eviction_pattern(cache, spec):
    evicted = []
    for i in range(3 * spec.associativity):
        paddr = i * spec.num_sets * spec.line_size  # set 0, distinct tags
        outcome = cache.access(paddr, float(i))
        if outcome.evicted_tag is not None:
            evicted.append(outcome.evicted_tag)
    return evicted


def test_invalidate_all_keeps_seeded_replacement_stream():
    """After invalidate_all, random-policy eviction choices must follow the
    cache's own seeded generator, not a fixed fresh default_rng(0)."""
    spec = _cache_spec(replacement="random")
    one = L2Cache(spec, np.random.default_rng(1))
    two = L2Cache(spec, np.random.default_rng(2))
    twin = L2Cache(spec, np.random.default_rng(1))
    for cache in (one, two, twin):
        cache.invalidate_all()
    assert _eviction_pattern(one, spec) == _eviction_pattern(twin, spec)
    assert _eviction_pattern(one, spec) != _eviction_pattern(two, spec)


# ----------------------------------------------------------------------
# System level: random traces through both backends must agree
# ----------------------------------------------------------------------
def _twin_runtimes(seed, hashed):
    spec = DGXSpec.small(num_sets=64, associativity=4)
    if hashed:
        cache = replace(spec.gpu.cache, index_hashing=True)
        spec = replace(spec, gpu=replace(spec.gpu, cache=cache))
    vec = Runtime(spec.with_l2_backend("vectorized"), seed=seed)
    ref = Runtime(spec.with_l2_backend("scalar"), seed=seed)
    assert isinstance(vec.system.gpus[0].l2, VectorL2Cache)
    assert type(ref.system.gpus[0].l2) is L2Cache
    return vec, ref


def _random_batches(rng, num_lines, wpl, total_batches):
    batches = []
    for _ in range(total_batches):
        # 32 and up take access_batch's vectorized branch.
        size = rng.choice([1, 1, 4, 8, 16, 24, 32, 48, 64])
        batches.append(
            [rng.randrange(num_lines) * wpl for _ in range(size)]
        )
    return batches


def _discovery_batches(rng, groups, ways, total_batches):
    """Algorithm-1-shaped chases: 1-4 interleaved sets, each drawn from a
    pool of more lines than ``ways`` with repeats, so walks run past the
    associativity.  Every one of them stays under the width gate."""
    batches = []
    for _ in range(total_batches):
        size = rng.choice([2, 5, 16, 17, 31, 32, 33, 47, 64])
        pools = [
            groups[row][: ways + 2]
            for row in rng.sample(sorted(groups), rng.randint(1, 4))
        ]
        batches.append(
            [rng.choice(pools[at % len(pools)]) for at in range(size)]
        )
    return batches


def _trace_kernel(buf, batches, parallel, out):
    for batch in batches:
        if len(batch) == 1:
            result = yield Access(buf, batch[0])
            out.append(([result.latency], [result.hit]))
        else:
            probe = yield ProbeSet(buf, batch, parallel=parallel)
            out.append((list(probe.latencies), list(probe.hits)))


def _trace_side(rt, remote, num_lines):
    """Process, issuing GPU and a buffer homed on GPU 0 for a trace run."""
    proc = rt.create_process()
    exec_gpu = 1 if remote else 0
    if remote:
        rt.enable_peer_access(proc, exec_gpu, 0)
    return proc, exec_gpu, rt.malloc_lines(proc, 0, num_lines)


def _set_groups(rt, buf, num_lines, wpl):
    """Ground-truth word indices of ``buf``'s lines, grouped by L2 set."""
    groups = {}
    for line in range(num_lines):
        row = rt.system.set_index_of(buf, line * wpl)
        groups.setdefault(row, []).append(line * wpl)
    return groups


def _run_trace(rt, side, parallel, streams, num_lines):
    """Run each batch list in ``streams`` as its own concurrent kernel, so
    bursts of different streams overlap in time and queue on each other's
    banks, HBM channels and links."""
    proc, exec_gpu, buf = side
    out = [[] for _ in streams]
    rt.run_concurrent(
        [
            dict(
                kernel=_trace_kernel(buf, batches, parallel, stream_out),
                gpu_id=exec_gpu,
                process=proc,
            )
            for batches, stream_out in zip(streams, out)
        ]
    )
    home = rt.system.gpus[0]
    resident = [
        home.l2.probe_line(buf.paddr(i * (rt.system.spec.gpu.cache.line_size // 8)))
        for i in range(num_lines)
    ]
    return out, home.counters, resident


@pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
@pytest.mark.parametrize("parallel", [True, False], ids=["parallel", "sequential"])
@pytest.mark.parametrize("hashed", [False, True], ids=["plain", "hashed"])
def test_random_trace_backends_agree(remote, parallel, hashed, monkeypatch):
    scalar_core = MultiGPUSystem._service_batch_scalar

    def reference_only(self, home_gpu, *args):
        # A VectorL2Cache home takes the fused core or the array path.
        assert not isinstance(home_gpu.l2, VectorL2Cache)
        return scalar_core(self, home_gpu, *args)

    monkeypatch.setattr(MultiGPUSystem, "_service_batch_scalar", reference_only)
    vec, ref = _twin_runtimes(seed=5, hashed=hashed)
    num_lines = 3 * 64 * 4  # 3x the cache's line capacity
    wpl = vec.system.spec.gpu.cache.line_size // 8
    vec_side = _trace_side(vec, remote, num_lines)
    ref_side = _trace_side(ref, remote, num_lines)
    groups = _set_groups(vec, vec_side[2], num_lines, wpl)
    assert groups == _set_groups(ref, ref_side[2], num_lines, wpl)
    rng = random.Random(23)
    streams = [
        _random_batches(rng, num_lines, wpl, 40),
        _discovery_batches(rng, groups, 4, 40),
    ]

    vec_out, vec_counters, vec_resident = _run_trace(
        vec, vec_side, parallel, streams, num_lines
    )
    ref_out, ref_counters, ref_resident = _run_trace(
        ref, ref_side, parallel, streams, num_lines
    )

    for batches, vec_stream, ref_stream in zip(streams, vec_out, ref_out):
        assert len(vec_stream) == len(ref_stream) == len(batches)
        for (v_lat, v_hit), (r_lat, r_hit) in zip(vec_stream, ref_stream):
            assert v_hit == r_hit
            assert v_lat == r_lat
    # Discrete state and counters must match exactly.
    assert vec_resident == ref_resident
    assert vec_counters.l2_hits == ref_counters.l2_hits
    assert vec_counters.l2_misses == ref_counters.l2_misses
    assert vec_counters.l2_evictions == ref_counters.l2_evictions
    assert vec_counters.dram_reads == ref_counters.dram_reads
    assert vec_counters.remote_requests_in == ref_counters.remote_requests_in
    assert vec_counters.nvlink_bytes_out == ref_counters.nvlink_bytes_out
    vec_fabric, ref_fabric = vec.system.interconnect, ref.system.interconnect
    assert vec_fabric._transfers == ref_fabric._transfers
    assert vec_fabric.busy_cycles() == ref_fabric.busy_cycles()
    # Every walk books each hop's waits in transfer order, like the
    # reference's one-transfer-at-a-time counters.
    assert vec_fabric._queued_cycles == ref_fabric._queued_cycles


@pytest.mark.parametrize("parallel", [True, False], ids=["parallel", "sequential"])
def test_probe_epoch_backends_agree(parallel):
    vec, ref = _twin_runtimes(seed=9, hashed=False)
    wpl = vec.system.spec.gpu.cache.line_size // 8
    rng = random.Random(31)
    num_lines = 256
    sets = [
        [rng.randrange(num_lines) * wpl for _ in range(rng.choice([0, 4, 8, 16]))]
        for _ in range(12)
    ]

    def epoch_kernel(buf, out):
        epoch = yield ProbeEpoch(buf, sets, parallel=parallel)
        out.append(epoch)

    results = []
    for rt in (vec, ref):
        proc = rt.create_process()
        rt.enable_peer_access(proc, 1, 0)
        buf = rt.malloc_lines(proc, 0, num_lines)
        out = []
        rt.run_kernel(epoch_kernel(buf, out), 1, proc)
        results.append(out[0])

    vec_epoch, ref_epoch = results
    assert vec_epoch.set_hits == ref_epoch.set_hits
    assert vec_epoch.num_sets == ref_epoch.num_sets == 12
    for v_lats, r_lats in zip(vec_epoch.set_latencies, ref_epoch.set_latencies):
        assert np.allclose(v_lats, r_lats)
    assert np.allclose(vec_epoch.set_starts, ref_epoch.set_starts)
    assert np.allclose(vec_epoch.set_totals, ref_epoch.set_totals)
    assert vec_epoch.total_latency == pytest.approx(ref_epoch.total_latency)
    assert vec_epoch.remote and ref_epoch.remote


def test_epoch_equivalent_to_concatenated_probe_sets():
    """In sequential mode an epoch's cache-state effect equals running the
    same sets as back-to-back atomic ProbeSets."""
    spec = DGXSpec.small(num_sets=64, associativity=4)
    one = Runtime(spec, seed=4)
    two = Runtime(spec, seed=4)
    wpl = spec.gpu.cache.line_size // 8
    sets = [[(8 * s + i) * wpl for i in range(8)] for s in range(6)]

    def epoch_kernel(buf):
        epoch = yield ProbeEpoch(buf, sets, parallel=False)
        return epoch

    def probes_kernel(buf):
        probes = []
        for indices in sets:
            probe = yield ProbeSet(buf, indices, parallel=False)
            probes.append(probe)
        return probes

    proc1 = one.create_process()
    buf1 = one.malloc_lines(proc1, 0, 64)
    epoch = one.run_kernel(epoch_kernel(buf1), 0, proc1)
    proc2 = two.create_process()
    buf2 = two.malloc_lines(proc2, 0, 64)
    probes = two.run_kernel(probes_kernel(buf2), 0, proc2)

    for at, probe in enumerate(probes):
        assert tuple(probe.hits) == epoch.set_hits[at]
    assert one.system.gpus[0].counters.l2_misses == (
        two.system.gpus[0].counters.l2_misses
    )
