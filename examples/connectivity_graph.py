#!/usr/bin/env python
"""Figure 3 made concrete: the sub-table connectivity graph.

Builds the page-level join index for a small mixed partitioning whose
components have the paper's example shape (a=2 left, b=4 right sub-tables),
prints the component structure, and shows how a range constraint prunes
nodes and edges.

Run:  python examples/connectivity_graph.py
"""

from repro import BoundingBox, build_join_index
from repro.workloads import GridSpec, make_grid_chunk_descriptors
from repro.workloads.generator import dim_names


def main() -> None:
    # p=(1,4) slices the left table into thin vertical strips, q=(2,1) the
    # right table into wide flat strips: each component couples a=2 left
    # with b=4 right sub-tables — Figure 3's example shape.
    spec = GridSpec(g=(4, 8), p=(1, 4), q=(2, 1))
    print(f"{spec.describe()}\n")

    on = dim_names(spec.ndim)
    left = make_grid_chunk_descriptors(1, spec.g, spec.p, record_size=16, num_storage=2)
    right = make_grid_chunk_descriptors(2, spec.g, spec.q, record_size=16, num_storage=2)
    index = build_join_index(left, right, on=on)
    components = index.components()
    num_right = sum(comp.b for comp in components)

    print(f"connectivity graph: {index.num_edges} edges, "
          f"{index.num_components} components, "
          f"avg right-sub-table degree {index.num_edges / num_right:.1f}")
    assert index.num_edges == spec.n_e, "graph disagrees with the closed form!"

    for k, comp in enumerate(components):
        print(f"\ncomponent {k}:  a={comp.a} left, b={comp.b} right, "
              f"{comp.num_edges} edges")
        for lid in comp.left_ids:
            partners = sorted(r.chunk_id for l, r in comp.pairs if l == lid)
            print(f"  T1 chunk {lid.chunk_id:2d}  --  T2 chunks {partners}")

    constraint = BoundingBox({"y": (0, 3)})
    boxes = {c.id: c.bbox for c in left + right}
    pruned = index.restrict(constraint, boxes)
    print(f"\nwith range constraint y ∈ [0, 3]: "
          f"{pruned.num_edges} edges remain "
          f"({index.num_edges - pruned.num_edges} pruned), "
          f"{len(pruned.components())} components")


if __name__ == "__main__":
    main()
