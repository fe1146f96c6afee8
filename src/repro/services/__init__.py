"""Framework services (Figure 2 of the paper).

* :mod:`~repro.services.bds` — the Basic Data Source Service: one instance
  per storage node, turning local chunks into basic sub-tables through an
  extractor; plus the sub-table *providers* that let query execution run
  either functionally (real bytes) or model-only (size stubs).
* :mod:`~repro.services.cache` — the Caching Service: byte-budgeted object
  cache with pluggable eviction (LRU — the paper's choice — plus FIFO, LFU
  and Belady's offline-optimal policy for the cache ablation), pinning, and
  hit/miss statistics.

The Query Execution Systems themselves (Indexed Join, Grace Hash) live in
:mod:`repro.joins`; the Query Planning Service in :mod:`repro.core`.
"""

from repro.services.bds import (
    BasicDataSourceService,
    FunctionalProvider,
    StubProvider,
    SubTableProvider,
)
from repro.services.cache import (
    BeladyPolicy,
    CacheStats,
    CachingService,
    EvictionPolicy,
    FIFOPolicy,
    LFUPolicy,
    LRUPolicy,
    make_policy,
)

__all__ = [
    "BasicDataSourceService",
    "BeladyPolicy",
    "CacheStats",
    "CachingService",
    "EvictionPolicy",
    "FIFOPolicy",
    "FunctionalProvider",
    "LFUPolicy",
    "LRUPolicy",
    "StubProvider",
    "SubTableProvider",
    "make_policy",
]
