"""Content-addressed artifact cache for expensive experiment setup.

Every paper experiment rebuilds the same runtime, re-runs the Fig 4
latency calibration, and re-derives Algorithm-1 eviction sets before it
measures anything new.  That shared prologue is deterministic -- it is a
pure function of the hardware spec (via the RunManifest config hash), the
root seed, and the setup parameters -- so it is memoized on disk:
``gpu-spy report`` warms the cache once and every later run (or ablation
sweep point with the same spec) skips straight to the measurement phase.

What is stored is a *checkpoint of the whole post-setup object graph*
(runtime + derived processes/thresholds/eviction sets, pickled together),
not just the derived knowledge.  Restoring only, say, the thresholds
would leave the simulator clock, the jitter stream position, and the L2
residency behind where a cold run would have them, silently changing
every downstream measurement.  Restoring the complete graph puts the
simulation in the byte-identical state the cold run reaches, so warm and
cold runs produce identical results -- the same property the executor's
determinism tests pin for parallel report runs.

Layout: ``<root>/<kind>/<digest>.pkl.gz`` next to ``<digest>.json``
metadata (schema version, config hash, seed, parameters, creation info).
Entries are invalidated -- deleted and counted -- when their metadata
does not match the requested config hash or cannot be read back.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import os
import pickle
import time
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "ArtifactCache",
    "CACHE_ENV_VAR",
    "CACHE_SCHEMA_VERSION",
    "activated",
    "get_active_cache",
    "resolve_cache_dir",
    "runtime_is_pristine",
    "set_active_cache",
]

#: Bump when the checkpoint contents change shape (new pickle layout, new
#: simulator state that must be part of a checkpoint): old entries then
#: miss on key instead of resurrecting stale state.
CACHE_SCHEMA_VERSION = 5

CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: Cap on the per-instance event log kept for manifests.
_MAX_EVENTS = 32


def resolve_cache_dir(explicit: Optional[os.PathLike] = None) -> Optional[Path]:
    """Pick the cache root: explicit flag > ``REPRO_CACHE_DIR`` > off."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV_VAR, "").strip()
    if env:
        return Path(env)
    return None


#: ``sys.getrefcount`` of a freshly built runtime's system: the Runtime,
#: its Engine, plus the count call's own argument reference.
_PRISTINE_SYSTEM_REFS = 3


def runtime_is_pristine(runtime) -> bool:
    """True if ``runtime`` is still in its post-construction state.

    A setup checkpoint replaces the *entire* simulator state, so it may
    only be captured or restored while nothing has happened yet: no
    simulated time, no dispatched events, no processes, and no attached
    tracer, metrics or profiler (a restore would truncate the trace and
    hand the runtime the checkpoint's own copy of the hook, which its
    owner never reads).  Callers that share one runtime across several
    attack objects (the scanner) fail this gate and simply run setup
    uncached.

    Two subtler disqualifiers, both observed in the defense ablations:

    * The system must still be exactly what the spec would construct --
      an installed defense (MIG way-partitioning, lane partitioning)
      swaps in subclassed components that the config hash cannot see, so
      a checkpoint keyed on the hash would restore the *undefended* box.
    * Nobody else may hold a reference to the system: restoring adopts a
      whole new object graph, and an outsider built against the old one
      (a ContentionDetector watching counters) would silently keep
      reading the abandoned objects.

    An installed chaos injector (:mod:`repro.chaos`) also disqualifies:
    it holds runtime references and its fault plan perturbs the very
    setup a checkpoint would memoise as clean.
    """
    import sys

    system = runtime.system
    if not (
        runtime.engine.now == 0.0
        and runtime.engine.stats.events == 0
        and getattr(system, "_next_pid", 1) == 0
        and system.tracer is None
        and getattr(runtime, "metrics", None) is None
        and getattr(runtime, "profiler", None) is None
        and getattr(runtime.engine, "chaos", None) is None
    ):
        return False
    from ..hw.cache import L2Cache, VectorL2Cache
    from ..hw.interconnect import Interconnect

    if type(system.interconnect) is not Interconnect:
        return False
    if any(type(gpu.l2) not in (L2Cache, VectorL2Cache) for gpu in system.gpus):
        return False
    return sys.getrefcount(system) <= _PRISTINE_SYSTEM_REFS + 1


class ArtifactCache:
    """Disk-backed store of setup checkpoints, keyed by content digest.

    Thread/process safe for concurrent readers and writers of *different*
    digests (writes are atomic rename); concurrent writers of the same
    digest last-write-wins with identical bytes, which is harmless.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0
        self.events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def digest_for(kind: str, config_hash: str, seed: int, **params: Any) -> str:
        """Content digest of one cache key.

        ``params`` must repr deterministically (numbers, strings, tuples,
        frozen dataclasses); the schema version is folded in so layout
        changes invalidate wholesale.
        """
        blob = repr(
            (
                CACHE_SCHEMA_VERSION,
                kind,
                config_hash,
                int(seed),
                sorted(params.items()),
            )
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    # ------------------------------------------------------------------
    # Entry paths
    # ------------------------------------------------------------------
    def _entry_paths(self, kind: str, digest: str) -> tuple:
        folder = self.root / kind
        return folder / f"{digest}.pkl.gz", folder / f"{digest}.json"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, kind: str, digest: str, config_hash: str) -> Optional[Any]:
        """Return the checkpoint for ``digest`` or ``None`` on miss.

        The metadata sidecar's config hash is cross-checked even though
        the hash is folded into the digest: a truncated-digest collision
        or a hand-edited entry must drop out as an invalidation, never
        resurrect state for the wrong hardware spec.
        """
        payload_path, meta_path = self._entry_paths(kind, digest)
        if not payload_path.exists():
            self.misses += 1
            self._event(kind, digest, "miss")
            return None
        try:
            meta = json.loads(meta_path.read_text())
            if (
                meta.get("schema") != CACHE_SCHEMA_VERSION
                or meta.get("config_hash") != config_hash
            ):
                raise ValueError(
                    f"metadata mismatch: entry hash "
                    f"{meta.get('config_hash')!r} != requested {config_hash!r}"
                )
            obj = pickle.loads(gzip.decompress(payload_path.read_bytes()))
        except Exception:
            self.invalidate_entry(kind, digest)
            self.misses += 1
            self._event(kind, digest, "invalidated")
            return None
        self.hits += 1
        self._event(kind, digest, "hit")
        return obj

    def store(
        self,
        kind: str,
        digest: str,
        obj: Any,
        config_hash: str,
        seed: int,
        params: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist one checkpoint atomically (temp file + rename)."""
        payload_path, meta_path = self._entry_paths(kind, digest)
        payload_path.parent.mkdir(parents=True, exist_ok=True)
        payload = gzip.compress(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL), 1)
        meta = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "digest": digest,
            "config_hash": config_hash,
            "seed": int(seed),
            "params": {k: repr(v) for k, v in sorted((params or {}).items())},
            "size_bytes": len(payload),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        for path, data in (
            (payload_path, payload),
            (meta_path, (json.dumps(meta, indent=2) + "\n").encode()),
        ):
            tmp = path.with_suffix(path.suffix + f".tmp-{os.getpid()}")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        self.stores += 1
        self._event(kind, digest, "store")

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_entry(self, kind: str, digest: str) -> None:
        """Drop one entry (payload + metadata) from disk."""
        for path in self._entry_paths(kind, digest):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
        self.invalidations += 1

    def invalidate_config(self, config_hash: str) -> int:
        """Drop every entry recorded for ``config_hash``; returns count."""
        dropped = 0
        for meta_path in self.root.glob("*/*.json"):
            try:
                meta = json.loads(meta_path.read_text())
            except Exception:
                meta = {}
            if meta.get("config_hash") == config_hash:
                self.invalidate_entry(meta_path.parent.name, meta_path.stem)
                dropped += 1
        return dropped

    def clear(self) -> int:
        """Drop every entry; returns the number of payloads removed."""
        dropped = 0
        for payload_path in self.root.glob("*/*.pkl.gz"):
            self.invalidate_entry(
                payload_path.parent.name, payload_path.name[: -len(".pkl.gz")]
            )
            dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _event(self, kind: str, digest: str, outcome: str) -> None:
        if len(self.events) < _MAX_EVENTS:
            self.events.append(
                {"kind": kind, "digest": digest, "outcome": outcome}
            )

    def snapshot(self) -> Dict[str, Any]:
        """Stats + event log for run manifests (see ``attach_manifest``)."""
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "events": list(self.events),
        }


# ----------------------------------------------------------------------
# Active cache (ambient, per execution context)
# ----------------------------------------------------------------------
_ACTIVE: ContextVar[Optional[ArtifactCache]] = ContextVar(
    "repro_active_cache", default=None
)


def get_active_cache() -> Optional[ArtifactCache]:
    """The ambient cache consulted by setup call sites, or ``None``."""
    return _ACTIVE.get()


def set_active_cache(cache: Optional[ArtifactCache]):
    """Install ``cache`` as the ambient cache; returns the reset token."""
    return _ACTIVE.set(cache)


@contextlib.contextmanager
def activated(cache: Optional[ArtifactCache]) -> Iterator[Optional[ArtifactCache]]:
    """Scope ``cache`` as the ambient cache for a ``with`` block."""
    token = _ACTIVE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE.reset(token)
