"""Sparsification pipeline: build graph, solve, threshold flows, cull keyframes."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .flow_graph import FlowGraph, GraphConfig, build_graph
from .map_model import (
    _INT64_MAX, SlamMap, _check_int, _frozen, _json_object, _json_rows, _positions, _repeats, _sealed, _sub_map
)
from .mcmf import FlowResult, solve


@dataclass(frozen=True)
class SparsifyConfig:
    graph: GraphConfig
    theta_ratio: float = 0.5
    keyframe_min_points: int = 10
    drop_underviewed: bool = True
    window: int = 0  # keyframes per window, taken in seq_index order; 0 sparsifies the whole map at once

    def __post_init__(self):
        theta = self.theta_ratio  # a type that Fraction takes exactly, as _above_threshold does
        if isinstance(theta, bool) or not isinstance(theta, (Rational, float)) or not 0 <= theta <= 1:
            raise ValueError(f"theta_ratio must be a number in [0, 1], got {theta!r}")
        _check_int(self.keyframe_min_points, "keyframe_min_points", 1, ValueError)
        _check_int(self.window, "window", 0, ValueError)


@dataclass(eq=False)
class SelectionResult:
    """Outcome of one sparsification run, held as read-only int64 arrays.

    ``kept_point_ids``, ``dropped_point_ids``, ``culled_keyframe_ids`` and
    ``underviewed_point_ids`` are sorted arrays of distinct ids.
    ``point_flow`` is a (P, 3) array with one (point id, flow, capacity) row
    per graph-eligible point, in id order: the flow and capacity of the
    point's source edge. Points observed by fewer than two keyframes never
    enter the graph; they are listed in ``underviewed_point_ids`` and routed
    to kept or dropped according to ``drop_underviewed``.

    The constructor also accepts any collection of ids for the id fields and
    a ``{id: (flow, capacity)}`` mapping for ``point_flow``, and stores them
    in the form above.
    """

    kept_point_ids: np.ndarray
    dropped_point_ids: np.ndarray
    culled_keyframe_ids: np.ndarray
    underviewed_point_ids: np.ndarray
    point_flow: np.ndarray
    total_flow: int | None
    total_cost: int | None
    n_input_points: int
    n_input_keyframes: int
    build_ms: float = 0.0
    solve_ms: float = 0.0

    def __post_init__(self):
        for name in ("kept_point_ids", "dropped_point_ids", "culled_keyframe_ids", "underviewed_point_ids"):
            setattr(self, name, _id_array(getattr(self, name)))
        self.point_flow = _flow_rows(self.point_flow)

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

        The id lists and ``point_flow``, the bulk of a report, are formatted
        from their arrays a block of entries at a time, in the layout
        json.dumps gives them.
        """
        doc = {
            "counts": {
                "input_points": self.n_input_points,
                "input_keyframes": self.n_input_keyframes,
                "kept_points": len(self.kept_point_ids),
                "dropped_points": len(self.dropped_point_ids),
                "culled_keyframes": len(self.culled_keyframe_ids),
            },
            "culled_keyframe_ids": _json_rows(_ID_ITEM, (self.culled_keyframe_ids,), "  "),
            "dropped_point_ids": _json_rows(_ID_ITEM, (self.dropped_point_ids,), "  "),
            "kept_point_ids": _json_rows(_ID_ITEM, (self.kept_point_ids,), "  "),
            "kf_pct": self.kf_pct,
            "mp_pct": self.mp_pct,
            # (id, capacity, flow) columns, ids in string order: numpy orders str ids by code point, as Python
            # does ("-3" < "10" < "100" < "9"). Only the writer holds the columns, so they are freed once written.
            "point_flow": _json_rows(
                _POINT_FLOW_ITEM,
                self.point_flow[np.argsort(self.point_flow[:, 0].astype(str), kind="stable")].T[[0, 2, 1]],
                "  ",
                "{}",
            ),
            "total_cost": self.total_cost,
            "total_flow": self.total_flow,
            "underviewed_point_ids": _json_rows(_ID_ITEM, (self.underviewed_point_ids,), "  "),
        }
        if include_timings:
            doc["timings_ms"] = {"build": self.build_ms, "solve": self.solve_ms}
        return "".join(_json_object(doc, "  ", sort_keys=True))


# One id list entry, and one point_flow item, at depth 1 of an indent=2 document.
_ID_ITEM = "    %s"
_POINT_FLOW_ITEM = '    "%s": {\n      "capacity": %s,\n      "flow": %s\n    }'


def _id_array(ids) -> np.ndarray:
    """Any collection of ids as a sorted, read-only int64 array of distinct ids.

    An array already in that form is kept or copied by the rule of
    :func:`map_model._frozen`; any other input is sorted into a fresh array.
    """
    a = np.asarray(ids, np.int64) if isinstance(ids, np.ndarray) else _sealed(np.fromiter(ids, np.int64))
    if a.ndim != 1:
        raise ValueError("ids must form a 1-d collection")
    if (a[1:] > a[:-1]).all():
        return _frozen(a, np.int64)
    a = np.sort(a)
    return _sealed(a[~_repeats(a)])


def _flow_rows(point_flow) -> np.ndarray:
    """A ``{id: (flow, capacity)}`` mapping or (P, 3) rows as read-only (id, flow, capacity) rows in id order.

    Rows already in id order are kept or copied by the rule of
    :func:`map_model._frozen`; any other input is sorted into a fresh array.
    """
    if isinstance(point_flow, np.ndarray):
        rows = np.asarray(point_flow, np.int64)
    else:
        items = ((pid, flow, cap) for pid, (flow, cap) in point_flow.items())
        rows = _sealed(np.fromiter(items, np.dtype((np.int64, 3)), len(point_flow)))
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError("point_flow must be (P, 3) rows of (point id, flow, capacity)")
    if (rows[1:, 0] > rows[:-1, 0]).all():
        return _frozen(rows, np.int64)
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    if _repeats(rows[:, 0]).any():
        raise ValueError("point_flow lists a point id twice")
    return _sealed(rows)


def _above_threshold(point_flow: np.ndarray, theta_ratio: float) -> np.ndarray:
    """The ids of the ``point_flow`` rows whose flow strictly exceeds theta_ratio * capacity.

    The comparison is exact: the ratio is cross-multiplied as a fraction, so
    the default 0.5 reduces to the integer test 2*flow > capacity and a point
    sitting exactly on the threshold is dropped. The products are taken on
    int64 where they fit, and as Python ints where they might not.
    """
    frac = Fraction(theta_ratio)
    ids, flow, cap = point_flow.T
    bound = int(point_flow[:, 1:].max(initial=0))
    if max(frac.numerator, frac.denominator) > _INT64_MAX // max(bound, 1):
        flow, cap = flow.astype(object), cap.astype(object)
    return _sealed(ids[flow * frac.denominator > frac.numerator * cap])


def _point_flow(result: FlowResult, graph: FlowGraph) -> np.ndarray:
    """(point id, flow, capacity) of each point's source edge, as rows in id order.

    The flows and capacities are copied, so that the rows keep no edge
    array of the graph or the result alive.
    """
    source = slice(len(graph.point_ids))
    rows = np.column_stack((graph.point_ids, result.edge_flows[source], graph.capacity[source]))
    return _flow_rows(_sealed(rows))


def cull_keyframes(slam_map: SlamMap, kept_points, keyframe_min_points: int) -> np.ndarray:
    """Ids of the keyframes observing fewer than ``keyframe_min_points`` kept points, as a sorted array.

    ``kept_points`` is any collection of point ids. The first and last
    keyframes (by seq_index) are never culled; they anchor the trajectory.
    """
    _check_int(keyframe_min_points, "keyframe_min_points", 1, ValueError)
    if not slam_map.keyframes:
        return _id_array(())
    by_seq = sorted(slam_map.keyframes, key=lambda k: k.seq_index)
    point, frame, _, _ = slam_map.observation_arrays()
    kept = _positions(_id_array(kept_points), slam_map.points.id) >= 0
    counts = np.bincount(frame[kept[point]], minlength=slam_map.n_keyframes)
    # A repeated keyframe id shares the count of its first entry, the row its observations refer to.
    ids = slam_map._keyframe_ids
    counts = counts[np.searchsorted(ids, ids)]
    culled = (counts < keyframe_min_points) & (ids != by_seq[0].id) & (ids != by_seq[-1].id)
    return _id_array(ids[culled])


def _window_rows(slam_map: SlamMap, window: int) -> list[np.ndarray]:
    """The rows of ``slam_map.observation_arrays()`` of each run of ``window`` keyframes by seq_index, in row order."""
    n_frames = slam_map.n_keyframes
    by_seq = sorted(range(n_frames), key=lambda i: slam_map.keyframes[i].seq_index)
    window_of_frame = np.empty(n_frames, np.int64)
    window_of_frame[by_seq] = np.arange(n_frames) // min(window, max(n_frames, 1))
    window_of_row = window_of_frame[slam_map.observation_arrays()[1]]
    order = np.argsort(window_of_row, kind="stable")
    bounds = np.searchsorted(window_of_row[order], np.arange(1, -(-n_frames // window)))
    return np.split(order, bounds)


def sparsify(slam_map: SlamMap, config: SparsifyConfig) -> SelectionResult:
    """Full pipeline on one map, or window by window; deterministic for fixed (map, config).

    A window run solves, as the map cut to the window would be, each window
    where some point has two observers, and keeps what each keeps; with
    ``drop_underviewed`` off, that includes the points a solved window sees
    once. It reports no ``point_flow`` or totals, and sums its times.
    """
    kept = [] if config.drop_underviewed else [underviewed_points(slam_map)]
    build_ms = solve_ms = 0.0
    for rows in _window_rows(slam_map, config.window) if config.window else [None]:
        if rows is not None:
            seen = np.bincount(slam_map.observation_arrays()[0][rows], minlength=slam_map.n_points)
            if not (seen >= 2).any():
                continue
            if not config.drop_underviewed:
                kept.append(slam_map.points.id[seen == 1])
        t0 = time.perf_counter()
        graph = build_graph(slam_map, config.graph, rows)
        t1 = time.perf_counter()
        result = solve(graph)
        t2 = time.perf_counter()
        build_ms += (t1 - t0) * 1000.0
        solve_ms += (t2 - t1) * 1000.0
        point_flow = _point_flow(result, graph)
        totals = dict(total_flow=result.total_flow, total_cost=result.total_cost)
        del graph, result  # free this window's graph and flows before the next window's are built
        kept.append(_above_threshold(point_flow, config.theta_ratio))
    if config.window:
        point_flow, totals = None, {}
    return selection_from_kept(
        slam_map, np.concatenate(kept) if kept else (), config.keyframe_min_points,
        point_flow=point_flow, build_ms=build_ms, solve_ms=solve_ms, **totals,
    )


def selection_from_kept(
    slam_map: SlamMap,
    kept,
    keyframe_min_points: int,
    *,
    point_flow: np.ndarray | None = None,
    total_flow: int | None = None,
    total_cost: int | None = None,
    build_ms: float = 0.0,
    solve_ms: float = 0.0,
) -> SelectionResult:
    """The SelectionResult of keeping ``kept``, any collection of point ids, in ``slam_map``.

    The dropped points, the culled keyframes, the underviewed points and the
    input counts follow from the map; a run without a flow graph (a baseline
    or a window run) leaves ``point_flow`` empty and the totals None.
    """
    kept = _id_array(kept)
    ids = slam_map.points.id
    return SelectionResult(
        kept_point_ids=kept,
        dropped_point_ids=_id_array(ids[_positions(kept, ids) < 0]),
        culled_keyframe_ids=cull_keyframes(slam_map, kept, keyframe_min_points),
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
    kept, culled = selection.kept_point_ids, selection.culled_keyframe_ids
    obs = slam_map.observations
    on_obs = (_positions(kept, obs.point_id) >= 0) & (_positions(culled, obs.keyframe_id) < 0)
    on_frame = _positions(culled, slam_map._keyframe_ids) < 0
    return _sub_map(slam_map, itertools.compress(slam_map.keyframes, on_frame.tolist()), kept, on_obs)


def underviewed_points(slam_map: SlamMap) -> np.ndarray:
    """Ids of the points observed by fewer than two keyframes, as a sorted array."""
    return _id_array(slam_map.points.id[slam_map.observer_counts() < 2])
