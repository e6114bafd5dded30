"""Cross-experiment artifact cache (see :mod:`repro.cache.store`)."""

from .checkpoint import SetupMemo, SetupTemplate, adopt_runtime
from .store import (
    CACHE_ENV_VAR,
    CACHE_SCHEMA_VERSION,
    ArtifactCache,
    activated,
    get_active_cache,
    resolve_cache_dir,
    runtime_is_pristine,
    set_active_cache,
)

__all__ = [
    "ArtifactCache",
    "CACHE_ENV_VAR",
    "CACHE_SCHEMA_VERSION",
    "SetupMemo",
    "SetupTemplate",
    "activated",
    "adopt_runtime",
    "get_active_cache",
    "resolve_cache_dir",
    "runtime_is_pristine",
    "set_active_cache",
]
