"""Effect of each cost term on the selected map's attributes.

Runs the sparsifier with every cost subset used in practice and reports the
attributes of the surviving map:

  C  mean keyframe connections per point (higher = stronger constraints)
  F  max seq-index span bridged by one point (higher = wider temporal reach)
  S  mean percentage of occupied 64x48 image cells (higher = better spread)

The baseline cost cb only shifts total_cost. No source edge of the graph can
bind, so every maximum flow fills each frame pair to min(M, k) and pays the
same sum of cb * min(M, k); the rows with and without cb are equal.
"""

import numpy as np

from mapsparse import (
    GraphConfig,
    SparsifyConfig,
    SynthConfig,
    apply_selection,
    attribute_C,
    attribute_F,
    attribute_S,
    generate,
    sparsify,
)

CONFIGS = {
    "all costs": dict(),
    "cc only": dict(enable_cs=False, enable_cb=False),
    "cc + cb": dict(enable_cs=False),
    "cc + cs": dict(enable_cb=False),
}

rows = {name: [] for name in CONFIGS}
for seed in range(6):
    slam_map, _ = generate(
        SynthConfig(
            n_points=500, n_keyframes=20, trajectory="circle", trajectory_scale=2.0,
            extent=12.0, dropout=0.25, cluster_fraction=0.3, seed=seed,
        )
    )
    for name, toggles in CONFIGS.items():
        config = SparsifyConfig(graph=GraphConfig(capacity_m=12, **toggles))
        out = apply_selection(slam_map, sparsify(slam_map, config))
        rows[name].append((attribute_C(out), attribute_F(out), attribute_S(out), out.n_points))

print(f"{'costs':<12}{'C':>8}{'F':>8}{'S%':>8}{'points':>9}")
for name, vals in rows.items():
    arr = np.array(vals)
    print(f"{name:<12}{arr[:, 0].mean():>8.2f}{arr[:, 1].mean():>8.1f}"
          f"{arr[:, 2].mean():>8.2f}{arr[:, 3].mean():>9.0f}")

print("\nenabling the spatial term lifts S: flow is rerouted away from")
print("clustered keypoints toward spread ones. F saturates on these small")
print("scenes because points near the scene center bridge the whole run")
print("under every cost subset.")

print("\n'cc only' equals 'cc + cb', and 'cc + cs' equals 'all costs': every")
print("maximum flow fills each frame pair to min(M, k), so the baseline cost")
print("cb adds the same sum of cb * min(M, k) to each one. It only shifts")
print("total_cost and cannot change which points are kept.")
