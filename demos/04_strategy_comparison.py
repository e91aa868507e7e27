"""Flow-based selection versus the reference selectors at a matched budget.

The flow pipeline fixes the kept-point count; top-M, grid bucketing, and
radius suppression then pick the same number of points. Connectivity C and
occupancy S show the trade-off each strategy makes.
"""

import numpy as np

from mapsparse import (
    GraphConfig,
    SparsifyConfig,
    SynthConfig,
    apply_selection,
    attribute_C,
    attribute_S,
    generate,
    select_grid_bucketed,
    select_radius_suppressed,
    select_top_m,
    sparsify,
)
from mapsparse.sparsifier import selection_from_kept

stats = {name: [] for name in ("flow", "topm", "grid", "radius")}
for seed in range(6):
    slam_map, _ = generate(
        SynthConfig(
            n_points=500, n_keyframes=20, trajectory="circle", trajectory_scale=2.0,
            extent=12.0, dropout=0.25, cluster_fraction=0.3, seed=seed,
        )
    )
    flow_sel = sparsify(slam_map, SparsifyConfig(graph=GraphConfig(capacity_m=12)))
    budget = len(flow_sel.kept_point_ids)
    picks = {
        "flow": flow_sel,
        "topm": selection_from_kept(slam_map, select_top_m(slam_map, budget), 10),
        "grid": selection_from_kept(slam_map, select_grid_bucketed(slam_map, budget), 10),
        "radius": selection_from_kept(slam_map, select_radius_suppressed(slam_map, budget), 10),
    }
    for name, sel in picks.items():
        out = apply_selection(slam_map, sel)
        stats[name].append((attribute_C(out), attribute_S(out), out.n_keyframes))

print(f"{'strategy':<10}{'C':>8}{'S%':>8}{'keyframes':>11}")
for name, vals in stats.items():
    arr = np.array(vals)
    print(f"{name:<10}{arr[:, 0].mean():>8.2f}{arr[:, 1].mean():>8.2f}{arr[:, 2].mean():>11.1f}")

print("\nflow balances the two axes: more connectivity than the spatial")
print("selectors (radius, grid) and more spread than raw top-M, without")
print("sacrificing keyframes the way per-cell bucketing does.")
