"""Persistent, content-addressed analysis cache (cross-run reuse).

See :mod:`repro.cache.manager` for the architecture: four layers
(parsed units, per-method frontend artifacts, per-visit solve outcomes,
tier-1 check verdicts), all addressed by canonical SHA-256 fingerprints
(:mod:`repro.cache.fingerprints`) so invalidation is automatic — a
changed input simply addresses a different artifact.
"""

from repro.cache.fingerprints import SCHEMA_TAG
from repro.cache.manager import (
    DEFAULT_CACHE_DIR,
    AnalysisCache,
    BoundCache,
    CacheStats,
)

__all__ = [
    "SCHEMA_TAG",
    "DEFAULT_CACHE_DIR",
    "AnalysisCache",
    "BoundCache",
    "CacheStats",
]
