"""Numpy-backed tag store: the vectorized L2 fast path's cache state.

The scalar reference model (:mod:`repro.hw.replacement`) keeps one Python
object per cache set; at memorygram scale (256-1024 monitored sets x 16
lines per probe x thousands of sweeps) the per-access dict operations
dominate the whole simulator.  :class:`LruTagStore` holds every set's tags
in one ``(num_sets, ways)`` int64 matrix plus an age matrix, and services a
whole batch of accesses per call.

Exact-LRU equivalence
---------------------

Age-stamp LRU is exactly equivalent to the reference ``LruSet`` (an
``OrderedDict`` in recency order): on a hit the line's age is bumped to the
current tick, on a miss an invalid way is filled first, otherwise the
minimum-age (least recently used) valid way is evicted.  The differential
tests in ``tests/test_vector_cache.py`` pin the two implementations to
identical hit/miss/eviction sequences.

A batch is serviced as one *walk* per set: the accesses to each distinct
set, in program order, against that set's row.  Sets never interact, so
the walks can run in any order.  The access at position ``q`` of its
set's walk is stamped with age ``tick + q``, and the batch advances the
tick by its longest walk, so every later access is younger than the whole
batch.  A walk runs in plain Python on a list copy of its row --
``list.index`` for the hit way, else the first invalid way, else the
first minimum age -- and the row is written back once: at ``ways``-sized
rows, list scans are several times cheaper than numpy reductions.

A caller that replays one stream sweep after sweep (a prober epoch) builds
a :class:`WalkPlan` once.  The planned path first compares every access's
tag with its row in one array pass.  A set whose walk tags are all
resident cannot miss -- nothing is filled, so nothing is evicted -- and
settles with one age scatter; only the sets with a miss are walked.  A
warm memorygram sweep, where every monitored set still holds the spy's
lines, therefore costs a handful of array ops.

Only true LRU is vectorized -- the policy the paper reverse-engineers on
the P100 ("evicted consistently after the 16th address", Fig 5).  The
pLRU/random ablation policies stay on the scalar reference path.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["LruTagStore", "WalkPlan"]

_INVALID = -1

#: One set's walk: ``(row, positions in the batch, tags)``, in program order.
Walk = Tuple[int, List[int], List[int]]


def _group(sets: List[int], tags: List[int]) -> List[Walk]:
    """Split a stream into per-set walks, in order of first appearance."""
    walks = {}
    for at, (row, tag) in enumerate(zip(sets, tags)):
        walk = walks.get(row)
        if walk is None:
            walk = walks[row] = (row, [], [])
        walk[1].append(at)
        walk[2].append(tag)
    return list(walks.values())


class WalkPlan(NamedTuple):
    """State-independent walk layout of one access stream.

    Built by :meth:`LruTagStore.plan_walk`; the per-access arrays are in
    program order.
    """

    #: Set row of each access.
    sets: np.ndarray
    #: Tag of each access, as a column that broadcasts against its row.
    tags: np.ndarray
    #: ``arange(count)``: picks each access's matched way out of its row
    #: (cheaper than an ``any`` reduction over ``ways``-wide rows).
    index: np.ndarray
    #: Position of each access in its set's walk (its age offset).
    steps: np.ndarray
    #: Index into ``walks`` of each access's set.
    slots: np.ndarray
    walks: List[Walk]
    #: Length of the longest walk: the ticks one pass consumes.
    longest: int
    #: Whether the ``(set, tag)`` pairs are distinct.  Only then may the
    #: age scatter run: numpy leaves the order of repeated fancy-index
    #: writes undefined.
    distinct: bool


class LruTagStore:
    """All cache sets of one L2 as flat matrices, with batched access.

    Validity is encoded in the tag matrix itself: real tags are physical
    addresses shifted right, hence always >= 0, so ``_INVALID`` (-1) can
    never collide with a resident line.
    """

    __slots__ = ("num_sets", "ways", "_tags", "_age", "_tick")

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self._tags = np.full((num_sets, ways), _INVALID, dtype=np.int64)
        self._age = np.zeros((num_sets, ways), dtype=np.int64)
        self._tick = 1

    # ------------------------------------------------------------------
    # Batched access (the fast path)
    # ------------------------------------------------------------------
    def access_lines(
        self, set_indices: np.ndarray, tags: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lookup-and-fill a batch of lines in order; returns masks.

        ``set_indices`` and ``tags`` are parallel int64 arrays, one entry
        per access, in program order.  Returns ``(hits, evictions)`` bool
        arrays: whether each access hit, and whether it evicted a valid
        line (a fill into an invalid way is a miss without an eviction).
        """
        count = set_indices.size
        hits = [False] * count
        evictions = [False] * count
        if count:
            walks = _group(set_indices.tolist(), tags.tolist())
            tick = self._tick
            self._tick = tick + max(len(walk[1]) for walk in walks)
            self._walk(walks, tick, hits, evictions)
        return np.array(hits, dtype=bool), np.array(evictions, dtype=bool)

    def plan_walk(self, set_indices: np.ndarray, tags: np.ndarray) -> WalkPlan:
        """Precompute the walk layout of one access stream.

        The split into per-set walks depends only on the ``(set, tag)``
        layout of the batch, not on cache state, so callers that replay
        the same stream every sweep (a prober epoch) build it once and
        feed it to :meth:`access_lines_planned`.
        """
        walks = _group(set_indices.tolist(), tags.tolist())
        count = set_indices.size
        steps = [0] * count
        slots = [0] * count
        distinct = True
        for slot, (_row, positions, walk_tags) in enumerate(walks):
            for step, at in enumerate(positions):
                steps[at] = step
                slots[at] = slot
            distinct = distinct and len(set(walk_tags)) == len(walk_tags)
        return WalkPlan(
            sets=set_indices,
            tags=tags[:, None],
            index=np.arange(count),
            steps=np.array(steps, dtype=np.int64),
            slots=np.array(slots, dtype=np.int64),
            walks=walks,
            longest=max((len(walk[1]) for walk in walks), default=0),
            distinct=distinct,
        )

    def access_lines_planned(self, plan: WalkPlan) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`access_lines` over a precomputed walk layout.

        State transitions are identical to the unplanned walk over the
        same stream.
        """
        count = plan.sets.size
        tick = self._tick
        self._tick = tick + plan.longest
        evictions = np.zeros(count, dtype=bool)
        if not plan.distinct:
            hits = np.zeros(count, dtype=bool)
            self._walk(plan.walks, tick, hits, evictions)
            return hits, evictions
        match = self._tags[plan.sets] == plan.tags
        way = match.argmax(axis=1)
        hits = match[plan.index, way]
        if hits.all():
            self._age[plan.sets, way] = tick + plan.steps
            return hits, evictions
        missed = np.zeros(len(plan.walks), dtype=bool)
        missed[plan.slots[~hits]] = True
        settled = ~missed[plan.slots]
        self._age[plan.sets[settled], way[settled]] = tick + plan.steps[settled]
        walks = plan.walks
        self._walk(
            [walks[slot] for slot in np.flatnonzero(missed).tolist()],
            tick, hits, evictions,
        )
        return hits, evictions

    def _walk(self, walks: List[Walk], tick: int, hits, evictions) -> None:
        """Run each set's walk on list copies of its row (shared core).

        Writes every access's hit flag into ``hits`` and marks evicting
        accesses in ``evictions`` (lists or bool arrays); each row goes
        back to the matrices in one assignment.  Membership tests, not
        ``try``/``except``, find the way: a walked set usually misses in
        a cascade, and a raised ``ValueError`` costs more than a scan.
        """
        tags_matrix = self._tags
        age_matrix = self._age
        for row, positions, walk_tags in walks:
            row_tags = tags_matrix[row].tolist()
            ages = age_matrix[row].tolist()
            filled = False
            age = tick
            for at, tag in zip(positions, walk_tags):
                if tag in row_tags:
                    way = row_tags.index(tag)
                    hits[at] = True
                else:
                    hits[at] = False
                    if _INVALID in row_tags:
                        way = row_tags.index(_INVALID)
                    else:
                        # All ways valid: evict the first-minimum age.
                        way = ages.index(min(ages))
                        evictions[at] = True
                    row_tags[way] = tag
                    filled = True
                ages[way] = age
                age += 1
            if filled:
                tags_matrix[row] = row_tags
            age_matrix[row] = ages

    # ------------------------------------------------------------------
    # Scalar access (kept for the single-word path and maintenance ops)
    # ------------------------------------------------------------------
    def access_one(self, set_index: int, tag: int) -> Tuple[bool, Optional[int]]:
        """One lookup-and-fill; returns ``(hit, evicted_tag_or_None)``.

        Works on a plain-Python copy of the (small) set row: list scans
        are several times cheaper than the equivalent numpy reductions at
        ``ways``-sized operands, which matters for scalar-access-heavy
        kernels (victim workloads, reverse-engineering probes).
        """
        row = self._tags[set_index]
        tag_list = row.tolist()
        tick = self._tick
        self._tick = tick + 1
        try:
            way = tag_list.index(tag)
            self._age[set_index, way] = tick
            return True, None
        except ValueError:
            pass
        evicted: Optional[int] = None
        try:
            way = tag_list.index(_INVALID)
        except ValueError:
            ages = self._age[set_index].tolist()
            way = min(range(self.ways), key=ages.__getitem__)
            evicted = tag_list[way]
        row[way] = tag
        self._age[set_index, way] = tick
        return False, evicted

    def contains(self, set_index: int, tag: int) -> bool:
        return tag in self._tags[set_index].tolist()

    def invalidate(self, set_index: int, tag: int) -> bool:
        try:
            way = self._tags[set_index].tolist().index(tag)
        except ValueError:
            return False
        self._tags[set_index, way] = _INVALID
        return True

    def resident_tags(self, set_index: int) -> List[int]:
        """Resident tags in LRU-to-MRU order (matches ``LruSet``)."""
        row = self._tags[set_index]
        ways = np.nonzero(row != _INVALID)[0]
        ordered = ways[np.argsort(self._age[set_index, ways], kind="stable")]
        return [int(t) for t in row[ordered]]

    def occupancy(self, set_index: int) -> int:
        return int((self._tags[set_index] != _INVALID).sum())

    def reset(self) -> None:
        self._tags.fill(_INVALID)
        self._age.fill(0)
        self._tick = 1
