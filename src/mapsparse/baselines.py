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


def _connectivity_order(slam_map: SlamMap) -> list[int]:
    """Point ids by descending observer count, ties broken by lower id."""
    return sorted(
        slam_map.points.id.tolist(),
        key=lambda pid: (-len(slam_map.frames_of_point(pid)), pid),
    )


def select_top_m(slam_map: SlamMap, budget: int) -> set[int]:
    """The ``budget`` points with the most observing keyframes."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    return set(_connectivity_order(slam_map)[:budget])


def select_grid_bucketed(slam_map: SlamMap, budget: int, cell_width: int = 64, cell_height: int = 48) -> set[int]:
    """Round-robin over the per-keyframe image grid cells.

    Cells are visited keyframe by keyframe (ascending id) in row-major order;
    each visit picks the highest-connectivity point of the cell not selected
    yet, repeating passes until the budget is met or every bucket is empty.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    budget = min(budget, slam_map.n_points)
    if budget == 0:
        return set()

    buckets: dict[tuple[int, int, int], list[int]] = {}
    for kf in slam_map.keyframes:
        for pid in slam_map.points_of_frame(kf.id):
            obs = slam_map.observation(pid, kf.id)
            cell = (kf.id, int(obs.v // cell_height), int(obs.u // cell_width))
            buckets.setdefault(cell, []).append(pid)
    ordered_buckets = []
    for cell in sorted(buckets):
        members = sorted(
            buckets[cell], key=lambda pid: (-len(slam_map.frames_of_point(pid)), pid)
        )
        ordered_buckets.append(members)

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
        for pid in _connectivity_order(slam_map):
            if len(selected) >= budget:
                break
            selected.add(pid)
    return selected


def _representative_uv(slam_map: SlamMap, pid: int) -> tuple[float, float]:
    fid = slam_map.frames_of_point(pid)[0]
    obs = slam_map.observation(pid, fid)
    return obs.u, obs.v


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
    order = [pid for pid in _connectivity_order(slam_map) if slam_map.frames_of_point(pid)]
    if budget >= len(order):
        return set(order)  # radius 0: everything survives

    uv = np.array([_representative_uv(slam_map, pid) for pid in order])
    widths = [kf.intrinsics.width for kf in slam_map.keyframes]
    heights = [kf.intrinsics.height for kf in slam_map.keyframes]
    lo, hi = 0.0, math.hypot(max(widths), max(heights))

    def run(radius: float) -> list[int]:
        r2 = radius * radius
        chosen_idx: list[int] = []
        coords = np.empty((len(order), 2))
        for i in range(len(order)):
            if chosen_idx:
                d2 = ((coords[: len(chosen_idx)] - uv[i]) ** 2).sum(axis=1)
                if float(d2.min()) <= r2:
                    continue
            coords[len(chosen_idx)] = uv[i]
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
