"""Sparsification pipeline: build graph, solve, threshold flows, cull keyframes."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .flow_graph import FlowGraph, GraphConfig, build_graph
from .map_model import SlamMap
from .mcmf import FlowResult, solve


@dataclass(frozen=True)
class SparsifyConfig:
    graph: GraphConfig
    theta_ratio: float = 0.5
    keyframe_min_points: int = 10
    drop_underviewed: bool = True

    def __post_init__(self):
        if not 0.0 <= self.theta_ratio <= 1.0:
            raise ValueError("theta_ratio must be in [0, 1]")
        if self.keyframe_min_points < 1:
            raise ValueError("keyframe_min_points must be >= 1")


@dataclass
class SelectionResult:
    """Outcome of one sparsification run.

    ``point_flow`` maps each graph-eligible point id to its (flow, capacity)
    on the source edge. Points observed by fewer than two keyframes never
    enter the graph; they are listed in ``underviewed_point_ids`` and routed
    to kept or dropped according to ``drop_underviewed``.
    """

    kept_point_ids: frozenset[int]
    dropped_point_ids: frozenset[int]
    culled_keyframe_ids: frozenset[int]
    underviewed_point_ids: frozenset[int]
    point_flow: dict[int, tuple[int, int]]
    total_flow: int | None
    total_cost: int | None
    n_input_points: int
    n_input_keyframes: int
    build_ms: float = 0.0
    solve_ms: float = 0.0

    @property
    def mp_pct(self) -> float:
        """Kept points as a percentage of the input points."""
        if self.n_input_points == 0:
            return 0.0
        return 100.0 * len(self.kept_point_ids) / self.n_input_points

    @property
    def kf_pct(self) -> float:
        """Surviving keyframes as a percentage of the input keyframes."""
        if self.n_input_keyframes == 0:
            return 0.0
        kept = self.n_input_keyframes - len(self.culled_keyframe_ids)
        return 100.0 * kept / self.n_input_keyframes

    def to_json(self, include_timings: bool = True) -> str:
        """The report: ``json.dumps(doc, indent=2, sort_keys=True)`` of the result's fields.

        The id lists and ``point_flow``, the bulk of a report, are joined as
        text in the layout json.dumps gives them; the rest goes through json.
        """
        bulk = {
            "kept_point_ids": _json_ints(self.kept_point_ids),
            "dropped_point_ids": _json_ints(self.dropped_point_ids),
            "culled_keyframe_ids": _json_ints(self.culled_keyframe_ids),
            "underviewed_point_ids": _json_ints(self.underviewed_point_ids),
            "point_flow": _json_point_flow(self.point_flow),
        }
        doc = {
            **{key: key for key in bulk},  # placeholders, replaced below
            "total_flow": self.total_flow,
            "total_cost": self.total_cost,
            "counts": {
                "input_points": self.n_input_points,
                "input_keyframes": self.n_input_keyframes,
                "kept_points": len(self.kept_point_ids),
                "dropped_points": len(self.dropped_point_ids),
                "culled_keyframes": len(self.culled_keyframe_ids),
            },
            "mp_pct": self.mp_pct,
            "kf_pct": self.kf_pct,
        }
        if include_timings:
            doc["timings_ms"] = {"build": self.build_ms, "solve": self.solve_ms}
        text = json.dumps(doc, indent=2, sort_keys=True)
        for key, value in bulk.items():
            text = text.replace(f'"{key}": "{key}"', f'"{key}": {value}', 1)
        return text


# Entries of a list, and one point_flow item, at depth 1 of an indent=2 document.
_LIST_ITEM_SEP = ",\n    "
_POINT_FLOW_ITEM = '    "%s": {\n      "capacity": %s,\n      "flow": %s\n    }'


def _json_ints(ids) -> str:
    """Sorted integer ids as json.dumps(indent=2) writes a list at depth 1."""
    if not ids:
        return "[]"
    return "[\n    " + _LIST_ITEM_SEP.join(map(str, sorted(ids))) + "\n  ]"


def _json_point_flow(point_flow: dict[int, tuple[int, int]]) -> str:
    """point_flow as json.dumps(indent=2, sort_keys=True) writes it at depth 1: keys in string order."""
    if not point_flow:
        return "{}"
    items = sorted((str(pid), c, f) for pid, (f, c) in point_flow.items())
    return "{\n" + ",\n".join(_POINT_FLOW_ITEM % item for item in items) + "\n  }"


def select_points(result: FlowResult, graph: FlowGraph, theta_ratio: float) -> set[int]:
    """Points whose source-edge flow strictly exceeds theta_ratio * capacity.

    The comparison is exact: the ratio is cross-multiplied as a fraction, so
    the default 0.5 reduces to the integer test 2*flow > capacity and a point
    sitting exactly on the threshold is dropped.
    """
    return _above_threshold(_point_flow(result, graph), theta_ratio)


def _above_threshold(point_flow: dict[int, tuple[int, int]], theta_ratio: float) -> set[int]:
    """The ids of ``point_flow`` whose flow strictly exceeds theta_ratio * capacity, exactly."""
    frac = Fraction(theta_ratio)
    return {pid for pid, (flow, cap) in point_flow.items() if flow * frac.denominator > frac.numerator * cap}


def _point_flow(result: FlowResult, graph: FlowGraph) -> dict[int, tuple[int, int]]:
    """Point id -> (flow, capacity) of its source edge, as Python ints."""
    source = slice(len(graph.point_ids))
    return dict(zip(graph.point_ids.tolist(), zip(result.edge_flows[source].tolist(), graph.capacity[source].tolist())))


def cull_keyframes(slam_map: SlamMap, kept_points: set[int], keyframe_min_points: int) -> set[int]:
    """Keyframes observing fewer than ``keyframe_min_points`` kept points.

    The first and last keyframes (by seq_index) are never culled; they anchor
    the trajectory.
    """
    if keyframe_min_points < 1:
        raise ValueError("keyframe_min_points must be >= 1")
    if not slam_map.keyframes:
        return set()
    by_seq = sorted(slam_map.keyframes, key=lambda k: k.seq_index)
    anchors = {by_seq[0].id, by_seq[-1].id}
    point, frame, _, _ = slam_map.observation_arrays()
    kept = np.isin(slam_map.points.id[point], _id_array(kept_points))
    counts = np.bincount(frame[kept], minlength=slam_map.n_keyframes)
    # A repeated keyframe id shares the count of its first entry, the row its observations refer to.
    ids = [kf.id for kf in slam_map.keyframes]
    counts = counts[np.searchsorted(np.array(ids, np.int64), ids)]
    return {
        kid for kid, count in zip(ids, counts.tolist())
        if count < keyframe_min_points and kid not in anchors
    }


def sparsify(slam_map: SlamMap, config: SparsifyConfig) -> SelectionResult:
    """Full pipeline on one map; deterministic for fixed (map, config)."""
    t0 = time.perf_counter()
    graph = build_graph(slam_map, config.graph)
    t1 = time.perf_counter()
    result = solve(graph)
    t2 = time.perf_counter()

    point_flow = _point_flow(result, graph)
    kept = _above_threshold(point_flow, config.theta_ratio)
    if not config.drop_underviewed:
        kept |= underviewed_points(slam_map)
    return selection_from_kept(
        slam_map,
        kept,
        config.keyframe_min_points,
        point_flow=point_flow,
        total_flow=result.total_flow,
        total_cost=result.total_cost,
        build_ms=(t1 - t0) * 1000.0,
        solve_ms=(t2 - t1) * 1000.0,
    )


def selection_from_kept(
    slam_map: SlamMap,
    kept: set[int],
    keyframe_min_points: int,
    *,
    point_flow: dict[int, tuple[int, int]] | None = None,
    total_flow: int | None = None,
    total_cost: int | None = None,
    build_ms: float = 0.0,
    solve_ms: float = 0.0,
) -> SelectionResult:
    """The SelectionResult of keeping ``kept`` in ``slam_map``.

    The dropped points, the culled keyframes, the underviewed points and the
    input counts follow from the map; a run without a flow graph (a baseline
    or a ``--window`` run) leaves ``point_flow`` empty and the totals None.
    """
    return SelectionResult(
        kept_point_ids=frozenset(kept),
        dropped_point_ids=frozenset(slam_map.points.id.tolist()) - kept,
        culled_keyframe_ids=frozenset(cull_keyframes(slam_map, kept, keyframe_min_points)),
        underviewed_point_ids=underviewed_points(slam_map),
        point_flow={} if point_flow is None else point_flow,
        total_flow=total_flow,
        total_cost=total_cost,
        n_input_points=slam_map.n_points,
        n_input_keyframes=slam_map.n_keyframes,
        build_ms=build_ms,
        solve_ms=solve_ms,
    )


def apply_selection(slam_map: SlamMap, selection: SelectionResult) -> SlamMap:
    """New map containing only kept points, surviving keyframes, and their observations."""
    kept = _id_array(selection.kept_point_ids)
    culled = selection.culled_keyframe_ids
    points, obs = slam_map.points, slam_map.observations
    on_point = np.isin(points.id, kept)
    on_obs = np.isin(obs.point_id, kept) & ~np.isin(obs.keyframe_id, _id_array(culled))
    return SlamMap(
        [kf for kf in slam_map.keyframes if kf.id not in culled],
        points.id[on_point],
        points.xyz[on_point],
        *(column[on_obs] for column in (obs.point_id, obs.keyframe_id, obs.u, obs.v)),
    )


def underviewed_points(slam_map: SlamMap) -> frozenset[int]:
    """Ids of the points observed by fewer than two keyframes."""
    return frozenset(slam_map.points.id[slam_map.observer_counts() < 2].tolist())


def _id_array(ids) -> np.ndarray:
    """A set of ids as an int64 array, for np.isin against the map's columns."""
    return np.fromiter(ids, np.int64, len(ids))
