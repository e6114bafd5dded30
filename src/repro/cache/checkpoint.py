"""Whole-runtime setup checkpoints: on disk, and forked in process.

The attack objects (:class:`~repro.core.sidechannel.prober.MemorygramProber`,
:class:`~repro.core.covert.channel.CovertChannel`) use :class:`SetupMemo`
to memoize their ``setup()`` prologue -- latency calibration and
eviction-set discovery -- across runs.  A checkpoint is the pickled tuple
``(runtime, *derived)``; on a hit the stored runtime's guts are adopted
into the caller's runtime object in place, so every reference the caller
already holds (engine, system, tracer hook point) stays valid while the
simulator lands in the byte-identical state a cold setup would have
produced.

Within one experiment run, :class:`SetupTemplate` shares a prologue
between boxes that would all set up identically: it keeps one deep copy
of the prepared graph and hands out further deep copies (*forks*), each
in that same byte-identical state.
"""

from __future__ import annotations

import copy
from typing import Any, Optional, Tuple

from ..errors import SimulationError
from .store import ArtifactCache, get_active_cache, runtime_is_pristine

__all__ = ["SetupMemo", "SetupTemplate", "adopt_runtime"]


def adopt_runtime(runtime, snapshot) -> None:
    """Swap ``runtime``'s state for an unpickled snapshot, in place."""
    runtime.__dict__.clear()
    runtime.__dict__.update(snapshot.__dict__)


class SetupMemo:
    """One setup's view of the artifact cache (key context + load/store).

    Built via :meth:`for_runtime`, which returns ``None`` -- disabling
    memoization -- when no cache is active or the runtime is not pristine
    (see :func:`~repro.cache.store.runtime_is_pristine`).
    """

    def __init__(self, cache: ArtifactCache, runtime, config_hash: str) -> None:
        self.cache = cache
        self.runtime = runtime
        self.config_hash = config_hash
        self.seed = runtime.system.rng.seed

    @classmethod
    def for_runtime(
        cls, runtime, cache: Optional[ArtifactCache] = None
    ) -> Optional["SetupMemo"]:
        cache = cache if cache is not None else get_active_cache()
        if cache is None or not runtime_is_pristine(runtime):
            return None
        from ..telemetry.manifest import config_hash

        return cls(cache, runtime, config_hash(runtime.system.spec))

    # ------------------------------------------------------------------
    def load(self, kind: str, **params: Any) -> Optional[Tuple[Any, ...]]:
        """Restore a checkpoint into this runtime; returns the derived
        objects stored alongside it, or ``None`` on miss."""
        digest = self.cache.digest_for(kind, self.config_hash, self.seed, **params)
        entry = self.cache.load(kind, digest, self.config_hash)
        if entry is None:
            return None
        snapshot, *derived = entry
        adopt_runtime(self.runtime, snapshot)
        return tuple(derived)

    def store(self, kind: str, derived: Tuple[Any, ...], **params: Any) -> None:
        """Checkpoint the runtime plus its ``derived`` setup products."""
        digest = self.cache.digest_for(kind, self.config_hash, self.seed, **params)
        self.cache.store(
            kind,
            digest,
            (self.runtime, *derived),
            config_hash=self.config_hash,
            seed=self.seed,
            params=params,
        )


class SetupTemplate:
    """A prepared ``(runtime, *derived)`` graph that forks on demand.

    Construction deep-copies the graph as it stands, so the caller may go
    on using the original; each :meth:`fork` is a further deep copy of
    that snapshot -- processes, buffers, eviction sets, the L2 and link
    state, the clock and the jitter stream position all included -- and
    lands in the state a cold set-up of the same box reaches.  A fork
    copies an attached hook along with everything else, so only a runtime
    that was pristine (:func:`~repro.cache.store.runtime_is_pristine`)
    before its set-up may be captured.  The engine must be quiescent: a
    queued kernel is a live generator, which cannot be copied.
    """

    def __init__(self, runtime, *derived: Any) -> None:
        if runtime.engine.pending_streams:
            raise SimulationError(
                f"cannot capture a set-up with {runtime.engine.pending_streams} "
                "streams still queued"
            )
        self._graph = copy.deepcopy((runtime, *derived))

    def fork(self) -> Tuple[Any, ...]:
        """An independent ``(runtime, *derived)`` copy of the snapshot."""
        return copy.deepcopy(self._graph)
