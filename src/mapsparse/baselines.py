"""Reference point-selection strategies to compare against the flow pipeline.

These are deliberately simplified stand-ins for the usual top-M, bucketing,
and non-maximal-suppression selectors; the comparison target is directional
(connectivity and occupancy trends), not replication of any specific method.
All selectors are deterministic and input-order invariant.
"""

from __future__ import annotations

import math

import numpy as np

from .map_model import SlamMap
from .metrics import GRID_CELL


def _connectivity_order(slam_map: SlamMap) -> np.ndarray:
    """Rows of ``slam_map.points`` by descending observer count, ties broken by lower id."""
    return np.lexsort((slam_map.points.id, -slam_map.observer_counts()))


def select_top_m(slam_map: SlamMap, budget: int) -> set[int]:
    """The ``budget`` points with the most observing keyframes."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    return set(slam_map.points.id[_connectivity_order(slam_map)[:budget]].tolist())


def select_grid_bucketed(slam_map: SlamMap, budget: int) -> set[int]:
    """Round-robin over the per-keyframe image grid cells, the GRID_CELL cells of attribute S.

    Cells are visited keyframe by keyframe (ascending id) in row-major order;
    each visit picks the highest-connectivity point of the cell not selected
    yet, repeating passes until the budget is met or every bucket is empty.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    budget = min(budget, slam_map.n_points)
    if budget == 0:
        return set()

    # One bucket per (keyframe, cell row, cell column), its members by
    # descending observer count and then ascending id.
    point, frame, u, v = slam_map.observation_arrays()
    cell_width, cell_height = GRID_CELL
    row = (v // cell_height).astype(np.int64)
    col = (u // cell_width).astype(np.int64)
    count = slam_map.observer_counts()[point]
    order = np.lexsort((point, -count, col, row, frame))
    cell = np.column_stack((frame, row, col))[order]
    new_cell = np.ones(len(order), bool)
    new_cell[1:] = (cell[1:] != cell[:-1]).any(axis=1)
    bounds = np.append(np.flatnonzero(new_cell), len(order)).tolist()
    members = slam_map.points.id[point[order]].tolist()
    ordered_buckets = [members[a:b] for a, b in zip(bounds, bounds[1:])]

    selected: set[int] = set()
    # points never observed don't appear in any bucket; they are only pulled
    # in by top-connectivity fill at the end if the buckets run dry
    progress = True
    while len(selected) < budget and progress:
        progress = False
        for members in ordered_buckets:
            if len(selected) >= budget:
                break
            for pid in members:
                if pid not in selected:
                    selected.add(pid)
                    progress = True
                    break
    if len(selected) < budget:
        for pid in slam_map.points.id[_connectivity_order(slam_map)].tolist():
            if len(selected) >= budget:
                break
            selected.add(pid)
    return selected


def select_radius_suppressed(slam_map: SlamMap, budget: int) -> set[int]:
    """Greedy radius suppression on each point's first-keyframe keypoint.

    Points are visited by descending connectivity; one is selected when its
    keypoint lies strictly farther than the suppression radius from every
    already-selected keypoint. The radius is bisected until the selection
    lands within 5% above the budget, then truncated to exactly the budget.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if budget == 0:
        return set()
    rows = _connectivity_order(slam_map)
    rows = rows[slam_map.observer_counts()[rows] > 0]
    order = slam_map.points.id[rows].tolist()
    if budget >= len(order):
        return set(order)  # radius 0: everything survives

    # Each point's keypoint in its lowest-id keyframe: the first row of its run.
    point, _, u, v = slam_map.observation_arrays()
    first = np.searchsorted(point, rows)
    uv = np.column_stack((u[first], v[first]))
    widths = [kf.intrinsics.width for kf in slam_map.keyframes]
    heights = [kf.intrinsics.height for kf in slam_map.keyframes]
    lo, hi = 0.0, math.hypot(max(widths), max(heights))

    # Chosen keypoints are kept in a dict of square cells, and a candidate is
    # compared only with those in its own and the eight neighbouring cells. A
    # cell is a little wider than the radius and at least 2**-40 of the
    # largest coordinate (radius 0 included, where a difference below about
    # 1e-162 squares to 0), so that rounding in floor(uv / side) and in d2
    # cannot hide a chosen keypoint within the radius beyond those cells.
    finite = np.isfinite(uv).all(axis=1)
    min_side = max(float(np.abs(uv[finite]).max(initial=0.0)) * 2**-40, 2**-500)
    points = list(zip(uv[:, 0].tolist(), uv[:, 1].tolist(), finite.tolist()))

    def run(radius: float) -> list[int]:
        r2 = radius * radius
        side = max(radius, min_side) * (1 + 2**-8)
        cells: dict[tuple[int, int], list[tuple[float, float]]] = {}
        chosen_idx: list[int] = []
        for i, (x, y, is_finite) in enumerate(points):
            if is_finite:  # a non-finite keypoint is within no radius
                cx, cy = math.floor(x / side), math.floor(y / side)
                if any(
                    (px - x) * (px - x) + (py - y) * (py - y) <= r2
                    for gx in (cx - 1, cx, cx + 1)
                    for gy in (cy - 1, cy, cy + 1)
                    for px, py in cells.get((gx, gy), ())
                ):
                    continue
                cells.setdefault((cx, cy), []).append((x, y))
            chosen_idx.append(i)
        return chosen_idx

    best = run(0.0)  # the densest achievable selection
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        got = run(mid)
        if budget <= len(got) <= math.ceil(budget * 1.05):
            best = got
            break
        if len(got) < budget:
            hi = mid
        else:
            lo = mid
            best = got
    return {order[i] for i in best[:budget]}
