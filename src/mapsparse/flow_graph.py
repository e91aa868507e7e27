"""Layered point/frame-pair flow graph with connectivity, spatial, and baseline costs.

The graph has four layers: a source, one vertex per map point observed by at
least two keyframes, one vertex per covisible keyframe pair, and a sink.
Source->point edges carry the connectivity cost and capacity n*(n-1)/2;
point->pair edges carry the spatial-diversity cost and capacity 1; pair->sink
edges carry the baseline cost and the per-pair budget capacity M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .map_model import SlamMap

SOURCE = ("source",)
SINK = ("sink",)

# Costs stay far below 2**62 at any realistic map size; the solver relies on it.
_COST_LIMIT = 1 << 62


class GraphError(ValueError):
    """Raised when a flow graph cannot be built or is structurally invalid."""


def point_vertex(point_id: int) -> tuple:
    return ("point", point_id)


def pair_vertex(frame_a: int, frame_b: int) -> tuple:
    if not frame_a < frame_b:
        raise GraphError(f"frame pair must be ordered, got ({frame_a}, {frame_b})")
    return ("pair", frame_a, frame_b)


@dataclass(frozen=True)
class FlowEdge:
    """Directed edge between vertex indices, integer capacity >= 1, cost >= 0."""

    tail: int
    head: int
    capacity: int
    cost: int


@dataclass(frozen=True)
class GraphConfig:
    """Knobs for graph construction.

    capacity_m is the per-frame-pair point budget. The enable_* switches
    replace the corresponding cost by ``disabled_cost`` (ablation toggles);
    the constant 1 keeps the max-flow structure intact while removing cost
    discrimination. ``baseline_scale`` rescales camera-center distances for
    maps whose unit is not meters.
    """

    capacity_m: int
    box_width: int = 64
    box_height: int = 48
    enable_cc: bool = True
    enable_cs: bool = True
    enable_cb: bool = True
    disabled_cost: int = 1
    baseline_scale: float = 1.0

    def __post_init__(self):
        if self.capacity_m < 1:
            raise GraphError("capacity_m must be >= 1")
        if self.box_width < 1 or self.box_height < 1:
            raise GraphError("box dimensions must be >= 1")
        if self.disabled_cost < 0:
            raise GraphError("disabled_cost must be >= 0")


class FlowGraph:
    """Immutable layered DAG; vertex 0 is always usable via ``source_index``.

    The constructor enforces the layering (source->point, point->pair,
    pair->sink only), rejects parallel edges, and requires capacity >= 1 and
    cost >= 0 on every edge.
    """

    def __init__(self, vertices, edges):
        self.vertices: tuple = tuple(vertices)
        self.vertex_index: dict = {v: i for i, v in enumerate(self.vertices)}
        if len(self.vertex_index) != len(self.vertices):
            raise GraphError("duplicate vertices")
        if SOURCE not in self.vertex_index or SINK not in self.vertex_index:
            raise GraphError("graph must contain source and sink vertices")
        self.source_index: int = self.vertex_index[SOURCE]
        self.sink_index: int = self.vertex_index[SINK]

        self.edges: tuple[FlowEdge, ...] = tuple(edges)
        self._edge_by_pair: dict[tuple[int, int], int] = {}
        self.point_source_edge: dict[int, int] = {}
        self.pair_sink_edge: dict[tuple[int, int], int] = {}
        for i, e in enumerate(self.edges):
            tail_kind = self.vertices[e.tail][0]
            head_kind = self.vertices[e.head][0]
            if (tail_kind, head_kind) not in (("source", "point"), ("point", "pair"), ("pair", "sink")):
                raise GraphError(f"edge {self.vertices[e.tail]} -> {self.vertices[e.head]} breaks layering")
            if e.capacity < 1:
                raise GraphError("edge capacity must be >= 1")
            if not 0 <= e.cost < _COST_LIMIT:
                raise GraphError("edge cost must be in [0, 2**62)")
            key = (e.tail, e.head)
            if key in self._edge_by_pair:
                raise GraphError(f"parallel edge {self.vertices[e.tail]} -> {self.vertices[e.head]}")
            self._edge_by_pair[key] = i
            if tail_kind == "source":
                self.point_source_edge[self.vertices[e.head][1]] = i
            elif head_kind == "sink":
                self.pair_sink_edge[self.vertices[e.tail][1:]] = i

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_between(self, tail_vertex, head_vertex) -> int | None:
        """Edge index for a (tail, head) vertex-id pair, or None."""
        ti = self.vertex_index.get(tail_vertex)
        hi = self.vertex_index.get(head_vertex)
        if ti is None or hi is None:
            return None
        return self._edge_by_pair.get((ti, hi))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def connectivity_cost(n: int, m: int) -> int:
    """Source-edge cost for a point seen by n of at most m keyframes.

    Defined by the backward recursion c(m) = 1,
    c(n) = ceil((n+1)/(n-1) * c(n+1)), evaluated in exact integer arithmetic,
    so highly connected points are the cheapest to route flow through.
    """
    if n < 2:
        raise ValueError(f"connectivity cost needs n >= 2, got {n}")
    if n > m:
        raise ValueError(f"n ({n}) must not exceed m ({m})")
    return _connectivity_table(m)[n]


def _connectivity_table(m: int) -> dict[int, int]:
    """connectivity_cost(n, m) for every n in [2, m], from one pass of the recursion."""
    table = {m: 1}
    c = 1
    for k in range(m - 1, 1, -1):
        c = _ceil_div((k + 1) * c, k - 1)
        table[k] = c
    return table


def point_capacity(n: int) -> int:
    """Source-edge capacity: the n*(n-1)/2 frame pairs that view the point."""
    if n < 2:
        raise ValueError(f"point capacity needs n >= 2, got {n}")
    return n * (n - 1) // 2


def nearby_count(
    slam_map: SlamMap,
    point_id: int,
    frame_id: int,
    box_width: int = 64,
    box_height: int = 48,
) -> int:
    """Number of other keypoints on the frame inside the box centered on this one.

    The box test is closed (<= half-extent per axis) and the reference
    keypoint itself is excluded.
    """
    ref = slam_map.observation(point_id, frame_id)
    if ref is None:
        raise ValueError(f"no observation of point {point_id} in keyframe {frame_id}")
    half_u = box_width / 2.0
    half_v = box_height / 2.0
    count = 0
    for pid in slam_map.points_of_frame(frame_id):
        if pid == point_id:
            continue
        obs = slam_map.observation(pid, frame_id)
        if abs(obs.u - ref.u) <= half_u and abs(obs.v - ref.v) <= half_v:
            count += 1
    return count


def spatial_cost(n_j: int, n_k: int) -> int:
    """floor(log10(n_j*n_k + 1)), exact for integers of any size."""
    if n_j < 0 or n_k < 0:
        raise ValueError("nearby counts must be >= 0")
    return len(str(n_j * n_k + 1)) - 1


def baseline_cost(d: float) -> int:
    """ceil(10 / (0.1*d + 1)) for a camera-center distance d in meters."""
    if not math.isfinite(d) or d < 0:
        raise ValueError(f"baseline distance must be finite and >= 0, got {d}")
    return math.ceil(10.0 / (0.1 * d + 1.0))


def _nearby_counts(slam_map: SlamMap, box_width: int, box_height: int) -> dict[tuple[int, int], int]:
    """Nearby-keypoint count for every observation, batched per keyframe."""
    half_u = box_width / 2.0
    half_v = box_height / 2.0
    out: dict[tuple[int, int], int] = {}
    for kf in slam_map.keyframes:
        pids = slam_map.points_of_frame(kf.id)
        if not pids:
            continue
        uv = np.array(
            [(o.u, o.v) for o in (slam_map.observation(p, kf.id) for p in pids)]
        )
        k = len(pids)
        counts = np.zeros(k, dtype=int)
        # k x k distance masks in blocks to bound memory on dense frames
        block = 1024
        for lo in range(0, k, block):
            hi = min(lo + block, k)
            du = np.abs(uv[lo:hi, 0:1] - uv[None, :, 0].reshape(1, k))
            dv = np.abs(uv[lo:hi, 1:2] - uv[None, :, 1].reshape(1, k))
            counts[lo:hi] = ((du <= half_u) & (dv <= half_v)).sum(axis=1) - 1
        for pid, c in zip(pids, counts):
            out[(pid, kf.id)] = int(c)
    return out


def build_graph(slam_map: SlamMap, config: GraphConfig) -> FlowGraph:
    """Construct the layered flow graph for all points with n >= 2 observers.

    Deterministic: vertices and edges are emitted in sorted id order, and the
    connectivity recursion anchor m is the maximum observer count over the
    eligible points of this map.
    """
    eligible = [
        (pt.id, slam_map.frames_of_point(pt.id))
        for pt in slam_map.points
        if len(slam_map.frames_of_point(pt.id)) >= 2
    ]
    if not eligible:
        raise GraphError("no map point is observed by at least two keyframes")

    m = max(len(frames) for _, frames in eligible)
    cc_table = _connectivity_table(m)
    nearby = _nearby_counts(slam_map, config.box_width, config.box_height)

    pair_ids: set[tuple[int, int]] = set()
    for _, frames in eligible:
        pair_ids.update(combinations(frames, 2))
    pairs = sorted(pair_ids)

    vertices = [SOURCE]
    vertices.extend(point_vertex(pid) for pid, _ in eligible)
    vertices.extend(pair_vertex(a, b) for a, b in pairs)
    vertices.append(SINK)
    index = {v: i for i, v in enumerate(vertices)}
    src = index[SOURCE]
    snk = index[SINK]

    edges: list[FlowEdge] = []
    for pid, frames in eligible:
        n = len(frames)
        cost = cc_table[n] if config.enable_cc else config.disabled_cost
        edges.append(FlowEdge(src, index[point_vertex(pid)], point_capacity(n), cost))

    for pid, frames in eligible:
        pi = index[point_vertex(pid)]
        for a, b in combinations(frames, 2):
            if config.enable_cs:
                cost = spatial_cost(nearby[(pid, a)], nearby[(pid, b)])
            else:
                cost = config.disabled_cost
            edges.append(FlowEdge(pi, index[pair_vertex(a, b)], 1, cost))

    centers = {kf.id: kf.pose.center() for kf in slam_map.keyframes}
    for a, b in pairs:
        if config.enable_cb:
            d = float(np.linalg.norm(centers[a] - centers[b])) * config.baseline_scale
            cost = baseline_cost(d)
        else:
            cost = config.disabled_cost
        edges.append(FlowEdge(index[pair_vertex(a, b)], snk, config.capacity_m, cost))

    return FlowGraph(vertices, edges)


def to_dimacs(graph: FlowGraph, supply: int) -> str:
    """DIMACS min-cost-flow dump (`p min`, `n`, `a` lines), node ids 1-based.

    ``supply`` should be the max-flow value (e.g. from the solver), so that
    third-party min-cost-flow solvers solve the equivalent problem.
    """
    lines = [f"p min {graph.n_vertices} {graph.n_edges}"]
    lines.append(f"n {graph.source_index + 1} {supply}")
    lines.append(f"n {graph.sink_index + 1} {-supply}")
    for e in graph.edges:
        lines.append(f"a {e.tail + 1} {e.head + 1} 0 {e.capacity} {e.cost}")
    return "\n".join(lines) + "\n"
