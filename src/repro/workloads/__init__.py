"""Workload generators: the paper's synthetic datasets and sweeps.

* :mod:`~repro.workloads.generator` — regular grid partitioning and the
  closed-form dataset statistics of Section 6 (component size ``C``,
  ``N_C``, ``E_C``, ``n_e``, ``T``, ``c_R``, ``c_S``), plus partition/chunk
  generation for both functional and model-only runs.
* :mod:`~repro.workloads.oilres` — the oil-reservoir datasets: the
  evaluation's two-table form (T1(x,y,z,oilp), T2(x,y,z,wp)) and the
  21-attribute Section 2 form, assembled end to end (written chunks,
  metadata, BDS instances, providers).
* :mod:`~repro.workloads.sweeps` — parameter sweeps used by the
  benchmarks: the constant-edge-ratio ``n_e·c_S`` sweep of Figure 4 and
  friends.
* :mod:`~repro.workloads.arrivals` — seeded multi-tenant query-arrival
  streams (Poisson and bursty) for the query server.
"""

from repro.workloads.arrivals import (
    QueryArrival,
    TenantSpec,
    bursty_gaps,
    generate_workload,
    poisson_gaps,
)
from repro.workloads.generator import (
    GridDataset,
    GridSpec,
    make_grid_chunk_descriptors,
    make_grid_partitions,
)
from repro.workloads.oilres import (
    OilReservoirDataset,
    build_oil_reservoir_dataset,
    oil_reservoir_schema_full,
)
from repro.workloads.sweeps import (
    SweepPoint,
    constant_edge_ratio_sweep,
)

__all__ = [
    "GridDataset",
    "GridSpec",
    "OilReservoirDataset",
    "QueryArrival",
    "SweepPoint",
    "TenantSpec",
    "build_oil_reservoir_dataset",
    "bursty_gaps",
    "constant_edge_ratio_sweep",
    "generate_workload",
    "make_grid_chunk_descriptors",
    "make_grid_partitions",
    "oil_reservoir_schema_full",
    "poisson_gaps",
]
