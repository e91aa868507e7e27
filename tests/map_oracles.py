"""Record-by-record references for the columnar map code: writer, validator, indices, map
filters, covisibility and the baselines."""

import json
import math
from collections.abc import Mapping
from itertools import combinations

import numpy as np

from conftest import map_from_records
from mapsparse import _quat
from mapsparse.map_model import SlamMap

_POSE_TOL = 1e-9


def save_map_oracle(slam_map: SlamMap) -> str:
    """The map file text, written by json.dumps from one dict per record."""
    doc = {
        "keyframes": [
            {
                "id": kf.id,
                "seq_index": kf.seq_index,
                "timestamp": kf.timestamp,
                "pose": {"q": list(kf.pose.q), "t": list(kf.pose.t)},
                "intrinsics": {
                    "fx": kf.intrinsics.fx,
                    "fy": kf.intrinsics.fy,
                    "cx": kf.intrinsics.cx,
                    "cy": kf.intrinsics.cy,
                    "width": kf.intrinsics.width,
                    "height": kf.intrinsics.height,
                },
            }
            for kf in slam_map.keyframes
        ],
        "points": [{"id": pt.id, "xyz": list(pt.position)} for pt in slam_map.points],
        "observations": [
            {"point": o.point_id, "frame": o.keyframe_id, "uv": [o.u, o.v]}
            for o in slam_map.observations
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def validate_oracle(slam_map: SlamMap) -> list[str]:
    """Every violation of the model invariants, found by walking the records one at a time."""
    v: list[str] = []

    seen_kf: dict[int, object] = {}  # first keyframe of each id
    for kf in slam_map.keyframes:
        if kf.id in seen_kf:
            v.append(f"duplicate keyframe id {kf.id}")
            continue
        seen_kf[kf.id] = kf
        if kf.id < 0:
            v.append(f"keyframe {kf.id}: id must be non-negative")
        if kf.seq_index < 0:
            v.append(f"keyframe {kf.id}: seq_index must be non-negative")
        intr = kf.intrinsics
        if not (intr.fx > 0 and intr.fy > 0):
            v.append(f"keyframe {kf.id}: focal lengths must be positive")
        if not (0 < intr.cx < intr.width) or not (0 < intr.cy < intr.height):
            v.append(f"keyframe {kf.id}: principal point outside image")
        if intr.width < 64 or intr.height < 48:
            v.append(f"keyframe {kf.id}: image must be at least 64x48")
        q = np.array(kf.pose.q)
        with np.errstate(all="ignore"):
            norm_dev = abs(float(np.linalg.norm(q)) - 1.0)
        if not math.isfinite(norm_dev) or norm_dev > _POSE_TOL:
            v.append(f"keyframe {kf.id}: quaternion norm deviates from 1 by {norm_dev:.3e}")
        else:
            R = _quat.to_matrix(q)
            dev = float(np.max(np.abs(R @ R.T - np.eye(3))))
            if dev > _POSE_TOL:
                v.append(f"keyframe {kf.id}: rotation times its inverse deviates from identity by {dev:.3e}")
        if not all(math.isfinite(x) for x in kf.pose.t):
            v.append(f"keyframe {kf.id}: non-finite translation")

    ordered = sorted((kf for kf in slam_map.keyframes), key=lambda k: k.seq_index)
    for a, b in zip(ordered, ordered[1:]):
        if a.seq_index == b.seq_index:
            v.append(f"keyframes {a.id} and {b.id}: duplicate seq_index {a.seq_index}")
        elif a.timestamp >= b.timestamp:
            v.append(
                f"keyframes {a.id} and {b.id}: seq_index not strictly increasing with timestamp"
            )

    seen_pt: set[int] = set()
    for pt in slam_map.points:
        if pt.id in seen_pt:
            v.append(f"duplicate point id {pt.id}")
            continue
        seen_pt.add(pt.id)
        if pt.id < 0:
            v.append(f"point {pt.id}: id must be non-negative")
        if not all(math.isfinite(x) for x in pt.position):
            v.append(f"point {pt.id}: non-finite position")

    seen_obs: set[tuple[int, int]] = set()
    for obs in slam_map.observations:
        key = (obs.point_id, obs.keyframe_id)
        if key in seen_obs:
            v.append(f"duplicate observation (point {obs.point_id}, frame {obs.keyframe_id})")
            continue
        seen_obs.add(key)
        if obs.point_id not in seen_pt:
            v.append(f"observation references missing point id {obs.point_id}")
            continue
        if obs.keyframe_id not in seen_kf:
            v.append(f"observation references missing keyframe id {obs.keyframe_id}")
            continue
        intr = seen_kf[obs.keyframe_id].intrinsics
        if not (0.0 <= obs.u < intr.width):
            v.append(
                f"observation (point {obs.point_id}, frame {obs.keyframe_id}): "
                f"u {obs.u} outside [0, {intr.width})"
            )
        if not (0.0 <= obs.v < intr.height):
            v.append(
                f"observation (point {obs.point_id}, frame {obs.keyframe_id}): "
                f"v {obs.v} outside [0, {intr.height})"
            )

    return v


def index_oracle(slam_map: SlamMap):
    """(frames of each point id, points of each keyframe id, observation of each (point id,
    keyframe id)) as dicts, indexed record by record; id tuples sorted ascending.

    Only the first observation of each (point, keyframe) pair whose point and
    keyframe exist is indexed.
    """
    kf_ids = {kf.id for kf in slam_map.keyframes}
    pt_ids = {pt.id for pt in slam_map.points}
    obs_by_key = {}
    frames_of = {p: [] for p in pt_ids}
    points_of = {k: [] for k in kf_ids}
    for obs in slam_map.observations:
        key = (obs.point_id, obs.keyframe_id)
        if key in obs_by_key or obs.point_id not in pt_ids or obs.keyframe_id not in kf_ids:
            continue
        obs_by_key[key] = obs
        frames_of[obs.point_id].append(obs.keyframe_id)
        points_of[obs.keyframe_id].append(obs.point_id)
    return (
        {p: tuple(sorted(f)) for p, f in frames_of.items()},
        {k: tuple(sorted(p)) for k, p in points_of.items()},
        obs_by_key,
    )


def apply_selection_oracle(slam_map: SlamMap, selection) -> SlamMap:
    kept = set(map(int, selection.kept_point_ids))
    culled = set(map(int, selection.culled_keyframe_ids))
    return map_from_records(
        [kf for kf in slam_map.keyframes if kf.id not in culled],
        [pt for pt in slam_map.points if pt.id in kept],
        [o for o in slam_map.observations if o.point_id in kept and o.keyframe_id not in culled],
    )


def cull_keyframes_oracle(slam_map: SlamMap, kept_points, keyframe_min_points: int) -> set[int]:
    if not slam_map.keyframes:
        return set()
    by_seq = sorted(slam_map.keyframes, key=lambda k: k.seq_index)
    anchors = {by_seq[0].id, by_seq[-1].id}
    points_of = index_oracle(slam_map)[1]
    culled = set()
    for kf in slam_map.keyframes:
        if kf.id in anchors:
            continue
        count = sum(1 for pid in points_of[kf.id] if pid in kept_points)
        if count < keyframe_min_points:
            culled.add(kf.id)
    return culled


def window_maps_oracle(slam_map: SlamMap, window: int) -> list[SlamMap]:
    frames = sorted(slam_map.keyframes, key=lambda kf: kf.seq_index)
    maps = []
    for lo in range(0, len(frames), window):
        chunk = frames[lo : lo + window]
        ids = {kf.id for kf in chunk}
        obs = [o for o in slam_map.observations if o.keyframe_id in ids]
        pids = {o.point_id for o in obs}
        maps.append(map_from_records(chunk, [pt for pt in slam_map.points if pt.id in pids], obs))
    return maps


def point_flow_items(point_flow) -> list[tuple[int, tuple[int, int]]]:
    """(id, (flow, capacity)) of a {id: (flow, capacity)} mapping or of (id, flow, capacity) rows, by id."""
    if isinstance(point_flow, Mapping):
        return sorted(point_flow.items())
    return sorted((pid, (f, c)) for pid, f, c in point_flow.tolist())


def selection_json_oracle(selection, include_timings: bool = True) -> str:
    """The report as json.dumps writes the whole document."""
    doc = {
        "kept_point_ids": sorted(map(int, selection.kept_point_ids)),
        "dropped_point_ids": sorted(map(int, selection.dropped_point_ids)),
        "culled_keyframe_ids": sorted(map(int, selection.culled_keyframe_ids)),
        "underviewed_point_ids": sorted(map(int, selection.underviewed_point_ids)),
        "point_flow": {
            str(pid): {"flow": f, "capacity": c}
            for pid, (f, c) in point_flow_items(selection.point_flow)
        },
        "total_flow": selection.total_flow,
        "total_cost": selection.total_cost,
        "counts": {
            "input_points": selection.n_input_points,
            "input_keyframes": selection.n_input_keyframes,
            "kept_points": len(selection.kept_point_ids),
            "dropped_points": len(selection.dropped_point_ids),
            "culled_keyframes": len(selection.culled_keyframe_ids),
        },
        "mp_pct": selection.mp_pct,
        "kf_pct": selection.kf_pct,
    }
    if include_timings:
        doc["timings_ms"] = {"build": selection.build_ms, "solve": selection.solve_ms}
    return json.dumps(doc, indent=2, sort_keys=True)


def attribute_C_oracle(slam_map: SlamMap) -> float:
    frames_of = index_oracle(slam_map)[0]
    total = sum(len(frames_of[pt.id]) for pt in slam_map.points)
    return total / slam_map.n_points


def attribute_F_oracle(slam_map: SlamMap) -> int | None:
    seq_of = {kf.id: kf.seq_index for kf in slam_map.keyframes}
    frames_of = index_oracle(slam_map)[0]
    best = None
    for pt in slam_map.points:
        fids = frames_of[pt.id]
        if len(fids) < 2:
            continue
        seqs = [seq_of[f] for f in fids]
        span = max(seqs) - min(seqs)
        if best is None or span > best:
            best = span
    return best


def attribute_S_oracle(slam_map: SlamMap, cell_width: int = 64, cell_height: int = 48) -> float:
    _, points_of, obs_by_key = index_oracle(slam_map)
    percents = []
    for kf in slam_map.keyframes:
        cols = math.ceil(kf.intrinsics.width / cell_width)
        rows = math.ceil(kf.intrinsics.height / cell_height)
        occupied = set()
        for pid in points_of[kf.id]:
            obs = obs_by_key[(pid, kf.id)]
            occupied.add((int(obs.u // cell_width), int(obs.v // cell_height)))
        percents.append(100.0 * len(occupied) / (cols * rows))
    return float(np.mean(percents))


def covisibility_oracle(slam_map: SlamMap) -> list[tuple[int, int, frozenset[int]]]:
    """Covisible keyframe pairs (frame_a, frame_b, shared point ids) from each point's frames,
    pair by pair, in (frame_a, frame_b) order."""
    frames_of = index_oracle(slam_map)[0]
    shared: dict[tuple[int, int], set[int]] = {}
    for pt in slam_map.points:
        for a, b in combinations(frames_of[pt.id], 2):
            shared.setdefault((a, b), set()).add(pt.id)
    return [(a, b, frozenset(pids)) for (a, b), pids in sorted(shared.items())]


def _connectivity_order_oracle(slam_map: SlamMap, frames_of) -> list[int]:
    return sorted(slam_map.points.id.tolist(), key=lambda pid: (-len(frames_of[pid]), pid))


def select_top_m_oracle(slam_map: SlamMap, budget: int) -> set[int]:
    return set(_connectivity_order_oracle(slam_map, index_oracle(slam_map)[0])[:budget])


def select_grid_bucketed_oracle(slam_map: SlamMap, budget: int, cell_width=64, cell_height=48) -> set[int]:
    frames_of, points_of, obs_by_key = index_oracle(slam_map)
    budget = min(budget, slam_map.n_points)
    if budget == 0:
        return set()
    buckets: dict[tuple[int, int, int], list[int]] = {}
    for kf in slam_map.keyframes:
        for pid in points_of[kf.id]:
            obs = obs_by_key[(pid, kf.id)]
            cell = (kf.id, int(obs.v // cell_height), int(obs.u // cell_width))
            buckets.setdefault(cell, []).append(pid)
    ordered_buckets = [sorted(buckets[cell], key=lambda pid: (-len(frames_of[pid]), pid)) for cell in sorted(buckets)]

    selected: set[int] = set()
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
        for pid in _connectivity_order_oracle(slam_map, frames_of):
            if len(selected) >= budget:
                break
            selected.add(pid)
    return selected


def select_radius_suppressed_oracle(slam_map: SlamMap, budget: int) -> set[int]:
    frames_of, _, obs_by_key = index_oracle(slam_map)
    if budget == 0:
        return set()
    order = [pid for pid in _connectivity_order_oracle(slam_map, frames_of) if frames_of[pid]]
    if budget >= len(order):
        return set(order)
    first = [obs_by_key[(pid, frames_of[pid][0])] for pid in order]
    uv = np.array([(o.u, o.v) for o in first])
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

    best = run(0.0)
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
