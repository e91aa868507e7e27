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

import numpy as np

from .map_model import ColumnView, SlamMap

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


# Layer of each vertex kind; an edge must go from one layer to the next.
_LAYER = {"source": 0, "point": 1, "pair": 2, "sink": 3}
_NO_LAYER = -10  # any other kind: no edge may touch it


class FlowGraph:
    """Immutable layered DAG; vertex 0 is always usable via ``source_index``.

    Edges are held as four read-only int64 arrays, ``tail``, ``head``,
    ``capacity`` and ``cost``, indexed by edge; ``edges`` views them as
    :class:`FlowEdge` objects. Construction enforces the layering
    (source->point, point->pair, pair->sink only), rejects parallel edges,
    and requires capacity in [1, 2**62) and cost in [0, 2**62) on every edge.
    """

    def __init__(self, vertices, edges):
        edges = tuple(edges)
        k = len(edges)
        try:
            columns = [
                np.fromiter((getattr(e, name) for e in edges), np.int64, k)
                for name in ("tail", "head", "capacity", "cost")
            ]
        except OverflowError as e:
            raise GraphError("edge fields must lie in [0, 2**62)") from e
        self._set(vertices, *columns)

    @classmethod
    def from_arrays(cls, vertices, tail, head, capacity, cost) -> FlowGraph:
        """Graph from per-edge integer sequences, checked as the constructor checks edges."""
        try:
            columns = [np.array(a, dtype=np.int64) for a in (tail, head, capacity, cost)]
        except OverflowError as e:
            raise GraphError("edge fields must lie in [0, 2**62)") from e
        if len({a.shape for a in columns}) != 1 or columns[0].ndim != 1:
            raise GraphError("tail, head, capacity and cost must be 1-d and of equal length")
        graph = cls.__new__(cls)
        graph._set(vertices, *columns)
        return graph

    def _set(self, vertices, tail, head, capacity, cost) -> None:
        self.vertices: tuple = tuple(vertices)
        self.vertex_index: dict = {v: i for i, v in enumerate(self.vertices)}
        if len(self.vertex_index) != len(self.vertices):
            raise GraphError("duplicate vertices")
        if SOURCE not in self.vertex_index or SINK not in self.vertex_index:
            raise GraphError("graph must contain source and sink vertices")
        self.source_index: int = self.vertex_index[SOURCE]
        self.sink_index: int = self.vertex_index[SINK]

        n = len(self.vertices)
        if len(tail) and not (0 <= min(tail.min(), head.min()) and max(tail.max(), head.max()) < n):
            raise GraphError("edge endpoint is not a vertex index")
        layer = np.array([_LAYER.get(v[0], _NO_LAYER) for v in self.vertices], np.int64)
        tail_layer = layer[tail]
        head_layer = layer[head]
        bad = np.flatnonzero((head_layer != tail_layer + 1) | (tail_layer < 0))
        if len(bad):
            i = bad[0]
            raise GraphError(f"edge {self.vertices[tail[i]]} -> {self.vertices[head[i]]} breaks layering")
        if len(tail):
            if capacity.min() < 1 or capacity.max() >= _COST_LIMIT:
                raise GraphError("edge capacity must be in [1, 2**62)")
            if cost.min() < 0 or cost.max() >= _COST_LIMIT:
                raise GraphError("edge cost must be in [0, 2**62)")
        # A sort, not np.unique: numpy's hash-based unique took 1.1 s on the
        # 1.3M keys of a 10000x150 map, against 0.02 s for this.
        key = np.sort(tail * n + head)
        repeated = key[1:][key[1:] == key[:-1]]
        if len(repeated):
            t, h = divmod(int(repeated[0]), n)
            raise GraphError(f"parallel edge {self.vertices[t]} -> {self.vertices[h]}")

        for a in (tail, head, capacity, cost):
            a.flags.writeable = False
        self.tail: np.ndarray = tail
        self.head: np.ndarray = head
        self.capacity: np.ndarray = capacity
        self.cost: np.ndarray = cost
        self.edges: EdgeView = EdgeView(tail, head, capacity, cost)

        from_source = np.flatnonzero(tail_layer == 0)
        self.point_source_edge: dict[int, int] = {
            self.vertices[h][1]: i for i, h in zip(from_source.tolist(), head[from_source].tolist())
        }
        into_sink = np.flatnonzero(head_layer == 3)
        self.pair_sink_edge: dict[tuple[int, int], int] = {
            self.vertices[t][1:]: i for i, t in zip(into_sink.tolist(), tail[into_sink].tolist())
        }

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.tail)


class EdgeView(ColumnView):
    """Read-only sequence of a graph's edges as :class:`FlowEdge`, built one at a time.

    ``view[i]`` builds edge i alone, so indexing a few edges of a large
    graph stays cheap. Compares equal to any sequence of equal edges.
    """

    __slots__ = ()
    _record_type = FlowEdge


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


# Candidate (keypoint, neighbour) pairs tested at once by _nearby_counts: a
# block's arrays stay in cache (timed 2x faster than 2**20 on the benchmark
# maps), and memory stays bounded where many keypoints share one strip.
_STRIP_BLOCK = 1 << 16

# 10**0 .. 10**18, every power of ten below 2**63, for exact digit counts.
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)


def _nearby_counts(slam_map: SlamMap, box_width: int, box_height: int) -> np.ndarray:
    """nearby_count of every observation, aligned with ``slam_map.observation_arrays()``.

    Per keyframe the keypoints are sorted by u, and each one's candidates
    are the keypoints in a strip of half-width box_width/2 + 1 around its u
    (two searchsorted calls). Each candidate then takes the exact closed box
    test of :func:`nearby_count`; the strip only narrows the candidates, so
    rounding in the strip bounds cannot change a count.
    """
    _, frame, u, v = slam_map.observation_arrays()
    half_u = box_width / 2.0
    half_v = box_height / 2.0
    order = np.lexsort((u, frame))
    frame, u, v = frame[order], u[order], v[order]
    k = len(order)

    lo = np.empty(k, np.int64)
    hi = np.empty(k, np.int64)
    bounds = np.flatnonzero(np.diff(frame)) + 1
    for a, b in zip(np.r_[0, bounds].tolist(), np.r_[bounds, k].tolist()):
        strip = u[a:b]
        lo[a:b] = a + np.searchsorted(strip, strip - (half_u + 1), "left")
        hi[a:b] = a + np.searchsorted(strip, strip + (half_u + 1), "right")

    counts = np.empty(k, np.int64)
    width = hi - lo
    reach = np.cumsum(width)  # candidates of keypoints 0..i
    a = 0
    while a < k:
        done = reach[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(reach, done + _STRIP_BLOCK, "right")))
        w = width[a:b]
        row_end = np.cumsum(w)
        j = np.arange(row_end[-1]) + np.repeat(lo[a:b] - (row_end - w), w)
        du = u[j]
        du -= np.repeat(u[a:b], w)
        dv = v[j]
        dv -= np.repeat(v[a:b], w)
        near = np.abs(du, out=du) <= half_u
        near &= np.abs(dv, out=dv) <= half_v
        counts[a:b] = np.diff(np.cumsum(near)[row_end - 1], prepend=0)
        a = b
    # Every strip holds its own keypoint, which nearby_count does not count.
    counts -= (np.abs(u - u) <= half_u) & (np.abs(v - v) <= half_v)
    out = np.empty(k, np.int64)
    out[order] = counts
    return out


def build_graph(slam_map: SlamMap, config: GraphConfig) -> FlowGraph:
    """Construct the layered flow graph for all points with n >= 2 observers.

    Deterministic: vertices and edges are emitted in sorted id order, and the
    connectivity recursion anchor m is the maximum observer count over the
    eligible points of this map. Point->pair edges follow each point's frame
    pairs in ``itertools.combinations`` order.
    """
    point, frame, _, _ = slam_map.observation_arrays()
    k = len(point)
    # Observations come in one run per point, frames ascending.
    starts = np.flatnonzero(np.diff(point, prepend=-1))
    n_run = np.diff(starts, append=k)
    eligible = n_run >= 2
    if not eligible.any():
        raise GraphError("no map point is observed by at least two keyframes")
    n = n_run[eligible]
    n_points = len(n)
    m = int(n.max())

    # Every (observation, later observation of the same point): one edge each.
    run_end = np.repeat(starts + n_run, n_run)
    later = run_end - np.arange(k) - 1
    first = np.repeat(np.arange(k), later)
    second = np.arange(len(first)) + np.repeat(np.arange(k) + 1 - (np.cumsum(later) - later), later)
    n_frames = len(slam_map.keyframes)
    pair_keys, pair_of = np.unique(frame[first] * n_frames + frame[second], return_inverse=True)
    n_pairs = len(pair_keys)
    point_rank = np.repeat(np.cumsum(eligible) - 1, n_run)

    frame_ids = [kf.id for kf in slam_map.keyframes]
    pairs = [
        (frame_ids[a], frame_ids[b])
        for a, b in zip((pair_keys // n_frames).tolist(), (pair_keys % n_frames).tolist())
    ]
    vertices = [SOURCE]
    vertices.extend(point_vertex(pid) for pid in slam_map.points.id[point[starts[eligible]]].tolist())
    vertices.extend(pair_vertex(a, b) for a, b in pairs)
    vertices.append(SINK)
    snk = len(vertices) - 1

    if config.enable_cc:
        cc_table = _connectivity_table(m)
        source_cost = np.array([0, 0] + [cc_table[c] for c in range(2, m + 1)], np.int64)[n]
    else:
        source_cost = np.full(n_points, config.disabled_cost, np.int64)

    if config.enable_cs:
        nearby = _nearby_counts(slam_map, config.box_width, config.box_height)
        product = nearby[first] * nearby[second] + 1
        middle_cost = np.searchsorted(_POWERS_OF_TEN, product, "right") - 1
    else:
        middle_cost = np.full(len(first), config.disabled_cost, np.int64)

    if config.enable_cb:
        centers = {kf.id: kf.pose.center() for kf in slam_map.keyframes}
        sink_cost = [
            baseline_cost(float(np.linalg.norm(centers[a] - centers[b])) * config.baseline_scale)
            for a, b in pairs
        ]
    else:
        sink_cost = [config.disabled_cost] * n_pairs

    point_index = np.arange(1, n_points + 1)
    pair_index = np.arange(n_points + 1, n_points + 1 + n_pairs)
    return FlowGraph.from_arrays(
        vertices,
        np.concatenate([np.zeros(n_points, np.int64), 1 + point_rank[first], pair_index]),
        np.concatenate([point_index, n_points + 1 + pair_of, np.full(n_pairs, snk)]),
        np.concatenate([n * (n - 1) // 2, np.ones(len(first), np.int64), np.full(n_pairs, config.capacity_m)]),
        np.concatenate([source_cost, middle_cost, np.array(sink_cost, np.int64)]),
    )


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
