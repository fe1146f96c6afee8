"""MetaData Service.

"The MetaData Service stores information about chunks and may also be used
by other services to store persistent information" (Section 4).  Given the
range part of a query, the service "may be queried ... to retrieve ids of
all matching sub-tables ... done efficiently using index structures such as
R-Trees [6]".

* :mod:`~repro.metadata.rtree` — a from-scratch packed R-tree over
  n-dimensional boxes: bulk-loaded in sort-tile-recursive order on the
  first search, one array pair per level (load-once: fill it, then
  query it).
* :mod:`~repro.metadata.service` — the chunk catalog: registration,
  per-table R-tree indexes on coordinate attributes, range queries, and
  the key-value store that holds each precomputed join index as the
  built object.
"""

from repro.metadata.rtree import RTree
from repro.metadata.service import MetaDataService, TableCatalog

__all__ = ["MetaDataService", "RTree", "TableCatalog"]
