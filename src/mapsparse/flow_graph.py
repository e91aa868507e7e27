"""Layered point/frame-pair flow graph with connectivity, spatial, and baseline costs.

The graph has four layers: a source, one vertex per map point observed by at
least two keyframes, one vertex per covisible keyframe pair, and a sink.
Source->point edges carry the connectivity cost and capacity n*(n-1)/2;
point->pair edges carry the spatial-diversity cost and capacity 1; pair->sink
edges carry the baseline cost and the per-pair budget capacity M.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .map_model import ColumnView, SlamMap, _check_int, _frozen, _sealed

# Costs stay far below 2**62 at any realistic map size; the solver relies on it.
_COST_LIMIT = 1 << 62

# What a cost switched off in GraphConfig becomes: the constant keeps the
# max-flow structure intact while removing cost discrimination.
_DISABLED_COST = 1

class GraphError(ValueError):
    """Raised when a flow graph cannot be built or is structurally invalid."""


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
    replace the corresponding cost by the constant 1 (ablation toggles).
    Camera-center distances are taken to be in meters.
    """

    capacity_m: int
    box_width: int = 64
    box_height: int = 48
    enable_cc: bool = True
    enable_cs: bool = True
    enable_cb: bool = True

    def __post_init__(self):
        for name in ("capacity_m", "box_width", "box_height"):
            _check_int(getattr(self, name), name, 1, GraphError)
        if self.capacity_m >= _COST_LIMIT:
            raise GraphError(f"capacity_m must be below 2**62, the bound on edge capacities, got {self.capacity_m}")


class FlowGraph:
    """Immutable four-layer DAG whose vertices and edges are numbered layer by layer.

    Vertex 0 is the source, vertices 1..P are the points of ``point_ids``,
    vertices P+1..P+Q are the frame pairs of ``pairs`` (a (Q, 2) array with
    frame_a < frame_b in each row), and vertex P+Q+1 is the sink. Edges are
    held as four read-only int64 arrays, ``tail``, ``head``, ``capacity`` and
    ``cost``, indexed by edge; ``edges`` iterates them, or builds edge i,
    as :class:`FlowEdge` objects. The edges come in one fixed layout: edge i < P is the source
    edge 0 -> i+1 of point i, the last Q edges are the sink edges of the
    pairs in order, and the point->pair edges in between (the slice
    ``middle``) are sorted by (point, pair). Construction enforces that
    layout, which also rules out parallel edges, rejects repeated point ids
    and repeated pairs, and requires capacity in [1, 2**62) and cost in
    [0, 2**62) on every edge.

    Each array argument is kept or copied by the rule of
    :func:`map_model._frozen`: a read-only int64 array that owns its data is
    kept as it is, and any other is copied.
    """

    def __init__(self, point_ids, pairs, tail, head, capacity, cost):
        try:
            point_ids, tail, head, capacity, cost = (
                _frozen(a, np.int64) for a in (point_ids, tail, head, capacity, cost)
            )
            pairs = _frozen(pairs, np.int64).reshape(len(pairs), 2)
        except OverflowError as e:
            raise GraphError("ids must fit in int64 and edge fields lie in [0, 2**62)") from e
        if point_ids.ndim != 1 or tail.ndim != 1 or len({a.shape for a in (tail, head, capacity, cost)}) != 1:
            raise GraphError("point_ids, tail, head, capacity and cost must be 1-d, the last four of one length")

        # Sorts, not np.unique: numpy's hash-based unique took 1.1 s on the
        # 1.3M keys of a 10000x150 map, against 0.02 s for a sort.
        for layer, rows in (("point", point_ids[:, None]), ("pair", pairs)):
            rows = rows[np.lexsort(rows.T[::-1])]
            repeated = rows[1:][(rows[1:] == rows[:-1]).all(axis=1)].tolist()
            if repeated:
                raise GraphError(f"duplicate vertices: {layer} {', '.join(map(str, repeated[0]))} is listed twice")
        unordered = pairs[pairs[:, 0] >= pairs[:, 1]].tolist()
        if unordered:
            raise GraphError(f"frame pair must be ordered, got {tuple(unordered[0])}")
        _check_layout(len(point_ids), len(pairs), tail, head)
        if len(tail):
            if capacity.min() < 1 or capacity.max() >= _COST_LIMIT:
                raise GraphError("edge capacity must be in [1, 2**62)")
            if cost.min() < 0 or cost.max() >= _COST_LIMIT:
                raise GraphError("edge cost must be in [0, 2**62)")

        n_points, n_pairs, n_edges = len(point_ids), len(pairs), len(tail)
        self.point_ids, self.pairs = point_ids, pairs
        self.tail, self.head, self.capacity, self.cost = tail, head, capacity, cost
        self.edges: EdgeView = EdgeView(tail, head, capacity, cost)
        self.n_vertices, self.source_index, self.sink_index = n_points + n_pairs + 2, 0, n_points + n_pairs + 1
        self.middle = slice(n_points, n_edges - n_pairs)

    @property
    def n_edges(self) -> int:
        return len(self.tail)

    # Built on first use: nothing on the sparsify path reads it.
    @cached_property
    def pair_sink_edge(self) -> dict[tuple[int, int], int]:
        """The sink edge of each (frame_a, frame_b) pair: the last Q edges, in the order of ``pairs``."""
        first = self.n_edges - len(self.pairs)
        return dict(zip(map(tuple, self.pairs.tolist()), range(first, self.n_edges)))


def _check_layout(n_points: int, n_pairs: int, tail: np.ndarray, head: np.ndarray) -> None:
    """GraphError unless the edges are the P source edges, the point->pair edges by (point, pair), the Q sink edges."""
    n, n_edges = n_points + n_pairs + 2, len(tail)
    if n_edges < n_points + n_pairs:
        raise GraphError(f"{n_edges} edges cannot hold the {n_points} source and {n_pairs} sink edges")
    outer = np.r_[0:n_points, n_edges - n_pairs : n_edges]  # the source edges, then the sink edges
    want_tail = np.r_[np.zeros(n_points, np.int64), n_points + 1 : n - 1]
    want_head = np.r_[1 : n_points + 1, np.full(n_pairs, n - 1)]
    wrong = np.flatnonzero((tail[outer] != want_tail) | (head[outer] != want_head))
    if len(wrong):
        j, i = wrong[0], outer[wrong[0]]
        name = "source" if i < n_points else "sink"
        raise GraphError(f"edge {i} must be the {name} edge {want_tail[j]} -> {want_head[j]}, got {tail[i]} -> {head[i]}")
    tail, head = tail[n_points : n_edges - n_pairs], head[n_points : n_edges - n_pairs]
    wrong = np.flatnonzero((tail < 1) | (tail > n_points) | (head <= n_points) | (head >= n - 1))
    if len(wrong):
        i = wrong[0]
        raise GraphError(f"edge {n_points + i}: {tail[i]} -> {head[i]} breaks layering, where edges go point -> pair")
    key = tail * n + head  # strictly increasing: in (point, pair) order, and no two edges parallel
    wrong = np.flatnonzero(key[1:] <= key[:-1])
    if len(wrong):
        i = wrong[0] + 1
        what = "parallel edge" if key[i] == key[i - 1] else "point->pair edges out of (point, pair) order at"
        raise GraphError(f"{what} {tail[i]} -> {head[i]} (edge {n_points + i}, after {tail[i - 1]} -> {head[i - 1]})")


class EdgeView(ColumnView):
    """A graph's edges, iterated or indexed as :class:`FlowEdge`; ``view[i]`` builds edge i alone."""

    __slots__ = ()
    _record_type = FlowEdge

    def __getitem__(self, i: int) -> FlowEdge:
        return FlowEdge(*(c.item(i) for c in self._columns))


def _counts(x, name: str) -> np.ndarray:
    """x as an int64 array; ValueError unless it holds integers (Python or numpy, not bool)."""
    a = np.asarray(x)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integer counts, got {a.ravel()[:1].tolist()[0]!r} ({a.dtype})")
    return a.astype(np.int64, copy=False)


def connectivity_cost(n, m: int):
    """Source-edge cost for a point seen by n of at most m keyframes, elementwise over n.

    Defined by the backward recursion c(m) = 1,
    c(n) = ceil((n+1)/(n-1) * c(n+1)), evaluated in exact integer arithmetic,
    so highly connected points are the cheapest to route flow through.
    """
    n = _counts(n, "n")
    m = int(_counts(m, "m"))
    if (n < 2).any():
        raise ValueError(f"connectivity cost needs n >= 2, got {n.min()}")
    if (n > m).any():
        raise ValueError(f"n ({n.max()}) must not exceed m ({m})")
    table = np.ones(max(m, 2) + 1, np.int64)
    for k in range(m - 1, 1, -1):
        table[k] = -(-(k + 1) * int(table[k + 1]) // (k - 1))
    return table[n]


def point_capacity(n):
    """Source-edge capacity: the n*(n-1)/2 frame pairs that view the point, elementwise over n."""
    n = _counts(n, "n")
    if (n < 2).any():
        raise ValueError(f"point capacity needs n >= 2, got {n.min()}")
    return n * (n - 1) // 2


def spatial_cost(n_j, n_k):
    """floor(log10(n_j*n_k + 1)) elementwise, exact on int64 counts; raises where n_j*n_k + 1 leaves int64."""
    n_j, n_k = _counts(n_j, "n_j"), _counts(n_k, "n_k")
    if (n_j < 0).any() or (n_k < 0).any():
        raise ValueError("nearby counts must be >= 0")
    if ((n_k > 0) & (n_j > (2**63 - 2) // np.maximum(n_k, 1))).any():
        raise ValueError("nearby count product n_j*n_k + 1 must fit in int64")
    # The digits of n_j*n_k + 1 less one, found among 10**0 .. 10**18, the powers of ten below 2**63.
    return np.searchsorted(10 ** np.arange(19, dtype=np.int64), n_j * n_k + 1, "right") - 1


def baseline_cost(d):
    """ceil(10 / (0.1*d + 1)) for camera-center distances d in meters, elementwise."""
    d = np.asarray(d, np.float64)
    bad = d[~(np.isfinite(d) & (d >= 0))]
    if bad.size:
        raise ValueError(f"baseline distance must be finite and >= 0, got {bad.flat[0]}")
    return np.ceil(10.0 / (0.1 * d + 1.0)).astype(np.int64)


# Candidate (keypoint, neighbour) pairs tested at once by _nearby_counts: a
# block's arrays (128 KiB each) stay in cache, where 2**14 and 2**15 timed
# fastest of 2**12..2**17 on the benchmark maps, and memory stays bounded
# where many keypoints share a cell.
_CANDIDATE_BLOCK = 1 << 14
# Observations whose nearby counts are taken at a time, in blocks of whole
# keyframes, so that the counting arrays are bounded by a block, not the map.
_FRAME_BLOCK = 1 << 14


def _runs(sizes: np.ndarray, limit: int):
    """Consecutive ranges [a, b) of entries whose sizes sum to at most ``limit``; an entry over it stands alone."""
    reach = np.cumsum(sizes)
    a = 0
    while a < len(sizes):
        done = reach[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(reach, done + limit, "right")))
        yield a, b
        a = b


def _nearby_counts(
    slam_map: SlamMap, box_width: int, box_height: int, wanted: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Per observation, the other keypoints of its keyframe inside the box centered on it.

    The counts are aligned with ``slam_map.observation_arrays()``, or with its
    ``rows`` (whole keyframes' rows) where given; only the rows of ``wanted``, a
    boolean mask aligned with the counts, are counted, and the others read 0.
    The box test is closed: |du| <= box_width/2 and |dv| <= box_height/2, and
    a keypoint with a non-finite coordinate passes it with no other keypoint.

    A keypoint's count reads only its own keyframe, so the keyframes are
    counted in blocks of whole keyframes of about :data:`_FRAME_BLOCK`
    observations, and a map that fits in one block is counted in place.
    """
    _, frame, u, v = slam_map.observation_arrays()
    if rows is not None:
        frame, u, v = frame[rows], u[rows], v[rows]
    blocks = list(_runs(np.bincount(frame, minlength=slam_map.n_keyframes), _FRAME_BLOCK))
    if len(blocks) <= 1:
        return _nearby_block(frame, u, v, wanted, box_width, box_height)
    out = np.zeros(len(frame), np.int64)
    for a, b in blocks:
        block = np.flatnonzero((frame >= a) & (frame < b))
        out[block] = _nearby_block(frame[block], u[block], v[block], wanted[block], box_width, box_height)
    return out


def _nearby_block(frame, u, v, wanted, box_width: int, box_height: int) -> np.ndarray:
    """:func:`_nearby_counts` of the keypoints in the columns (frame, u, v), rows of ``wanted`` only.

    The keypoints sit on a grid of cells, one per keyframe and column
    floor(u / box_width), each cell sorted by v. A queried keypoint visits
    the columns that overlap [u - box_width/2 - 1, u + box_width/2 + 1]
    (two or three for a box at least 2 wide), and in each the run of
    keypoints with v in [v - box_height/2 - 1, v + box_height/2 + 1]
    (searchsorted). Every candidate then takes the exact box test; the
    widened bounds only narrow the candidates, so rounding in them cannot
    change a count.
    """
    half_u = box_width / 2.0
    half_v = box_height / 2.0
    finite = np.flatnonzero(np.isfinite(u) & np.isfinite(v))
    n = len(finite)
    u, v = u[finite], v[finite]

    # Columns are ranked among the distinct floor(u / box_width) values, and
    # cells among the distinct (frame, column) pairs, so that no key overflows.
    # (np.unique of floats would import numpy.ma into every job.)
    col = np.floor(u / box_width)
    cols = np.sort(col)
    distinct = np.ones(n, bool)
    distinct[1:] = cols[1:] != cols[:-1]
    cols = cols[distinct]
    col = np.searchsorted(cols, col)
    cells, cell = np.unique(frame[finite] * len(cols) + col, return_inverse=True)

    # Grid order: by cell, then by v, through a key of cell and rank of v
    # (equal values share a rank). Each keypoint's v-run is a rank range too,
    # found with sorted needles.
    by_v = np.argsort(v)
    v_sorted = v[by_v]
    rank = np.arange(n)
    rank[1:][v_sorted[1:] == v_sorted[:-1]] = 0
    np.maximum.accumulate(rank, out=rank)
    key = cell * (n + 1)
    key[by_v] += rank
    v_lo, v_hi = np.empty((2, n), np.int64)
    v_lo[by_v] = np.searchsorted(v_sorted, v_sorted - (half_v + 1), "left")
    v_hi[by_v] = np.searchsorted(v_sorted, v_sorted + (half_v + 1), "right")
    del by_v, v_sorted, rank
    order = np.argsort(key)
    key, u, v = key[order], u[order], v[order]

    # Queries go in grid order too, so that the searches below take sorted
    # needles. Arrays are dropped as soon as they are spent, to keep the peak low.
    q = np.flatnonzero(wanted[finite[order]])
    qu, qv = u[q], v[q]
    q = order[q]
    q_rows = finite[q]
    del order, finite
    # The visited columns are col + d for d in [d_lo, d_hi).
    d_lo = np.searchsorted(cols, np.floor((qu - (half_u + 1)) / box_width), "left") - col[q]
    d_hi = np.searchsorted(cols, np.floor((qu + (half_u + 1)) / box_width), "right") - col[q]
    q_cell, q_lo = cell[q], v_lo[q]
    q_span = v_hi[q] - q_lo
    del q, col, cell, v_lo, v_hi

    counts = np.full(len(q_rows), -1, np.int64)  # each query's own cell holds it
    for d in range(int(d_lo.min()), int(d_hi.max())) if len(q_rows) else ():
        # The queries that visit the cell d columns over from their own: for
        # others, cells + d may be a cell of another keyframe.
        sel = np.flatnonzero((d_lo <= d) & (d < d_hi))
        # That cell's index, or -1 where the keyframe has none, so that both
        # needles fall before every key.
        over = np.searchsorted(cells, cells + d)
        over[cells[np.minimum(over, len(cells) - 1)] != cells + d] = -1
        needle = over[q_cell[sel]] * (n + 1) + q_lo[sel]
        lo = np.searchsorted(key, needle)
        needle += q_span[sel]
        width = np.searchsorted(key, needle)
        width -= lo
        del needle
        counts[sel] += _count_near(u, v, qu[sel], qv[sel], lo, width, half_u, half_v)
    out = np.zeros(len(frame), np.int64)
    out[q_rows] = counts
    return out


def _count_near(u, v, qu, qv, lo, width, half_u, half_v) -> np.ndarray:
    """Per query i, how many of keypoints lo[i] .. lo[i] + width[i] - 1 lie in its closed box."""
    counts = np.empty(len(lo), np.int64)
    for a, b in _runs(width, _CANDIDATE_BLOCK):
        w = width[a:b]
        run_end = np.cumsum(w)
        j = np.arange(run_end[-1]) + np.repeat(lo[a:b] - (run_end - w), w)
        du = u[j]
        du -= np.repeat(qu[a:b], w)
        dv = v[j]
        dv -= np.repeat(qv[a:b], w)
        near = np.abs(du, out=du) <= half_u
        near &= np.abs(dv, out=dv) <= half_v
        counts[a:b] = np.diff(np.r_[0, np.cumsum(near)][run_end], prepend=0)
    return counts


def build_graph(slam_map: SlamMap, config: GraphConfig, rows: np.ndarray | None = None) -> FlowGraph:
    """Construct the layered flow graph for all points with n >= 2 observers.

    With ``rows``, the sorted rows of ``slam_map.observation_arrays()`` of some
    whole keyframes, it is the graph of the map cut to those rows and keyframes.

    Deterministic: points and pairs are numbered, and edges emitted, in
    sorted id order, and the connectivity recursion anchor m is the maximum
    observer count over the eligible points. Point->pair edges follow each
    point's frame pairs in ``itertools.combinations`` order.
    """
    point, frame, _, _ = slam_map.observation_arrays()
    if rows is None:
        offsets = slam_map._point_offsets
    else:
        point, frame = point[rows], frame[rows]
        offsets = np.searchsorted(point, np.arange(slam_map.n_points + 1))
    # Observations come in one run per point row, frames ascending; a repeated point id's later rows have none.
    n_run = np.diff(offsets)
    eligible = n_run >= 2
    if not eligible.any():
        raise GraphError("no map point is observed by at least two keyframes")
    n = n_run[eligible]
    n_points = len(n)
    m = int(n.max())

    # Counted before the pairs are enumerated, so that the counting's arrays and the pairs' are not held at once.
    if config.enable_cs:
        # Only the rows of eligible points are read, through first and second.
        nearby = _nearby_counts(slam_map, config.box_width, config.box_height, np.repeat(eligible, n_run), rows)

    # Every (observation, later observation of the same point), in combinations order: one edge each.
    k = len(point)
    later = offsets[point + 1] - np.arange(k) - 1
    first = np.repeat(np.arange(k), later)
    second = np.arange(len(first)) + np.repeat(np.arange(k) + 1 - (np.cumsum(later) - later), later)
    del later  # each array is dropped once spent, so that it does not raise the peak below
    if config.enable_cs:
        middle_cost = spatial_cost(nearby[first], nearby[second])
        del nearby
    else:
        middle_cost = np.full(len(first), _DISABLED_COST)
    n_frames = len(slam_map.keyframes)
    pair_keys, pair_of = np.unique(frame[first] * n_frames + frame[second], return_inverse=True)
    del second
    n_pairs = len(pair_keys)
    pair_frames = np.column_stack(np.divmod(pair_keys, n_frames))
    pairs = slam_map._keyframe_ids[pair_frames]

    source_cost = connectivity_cost(n, m) if config.enable_cc else np.full(n_points, _DISABLED_COST)
    if config.enable_cb:
        centers = np.array([kf.pose.t for kf in slam_map.keyframes], np.float64)
        sink_cost = baseline_cost(np.linalg.norm(centers[pair_frames[:, 0]] - centers[pair_frames[:, 1]], axis=1))
    else:
        sink_cost = np.full(n_pairs, _DISABLED_COST)

    point_rank = np.repeat(np.cumsum(eligible) - 1, n_run)
    pair_index = np.arange(n_points + 1, n_points + 1 + n_pairs)
    tail = np.concatenate([np.zeros(n_points, np.int64), 1 + point_rank[first], pair_index])
    sink = np.full(n_pairs, n_points + n_pairs + 1)
    head = np.concatenate([np.arange(1, n_points + 1), n_points + 1 + pair_of, sink])
    del pair_of
    capacity = np.concatenate([point_capacity(n), np.ones(len(first), np.int64), np.full(n_pairs, config.capacity_m)])
    del first
    cost = np.concatenate([source_cost, middle_cost, sink_cost])
    del middle_cost
    # The columns are fresh, so the graph keeps them as they are.
    return FlowGraph(*map(_sealed, (slam_map.points.id[eligible], pairs, tail, head, capacity, cost)))


def to_dimacs(graph: FlowGraph, supply: int) -> str:
    """DIMACS min-cost-flow dump (`p min`, `n`, `a` lines), node ids 1-based.

    ``supply`` should be the max-flow value (e.g. from the solver), so that
    third-party min-cost-flow solvers solve the equivalent problem. Comment
    lines `c point NODE ID` and `c pair NODE FRAME_A FRAME_B` name the map
    point and the frame pair of each point and pair node.
    """
    lines = [f"p min {graph.n_vertices} {graph.n_edges}"]
    lines.append(f"n {graph.source_index + 1} {supply}")
    lines.append(f"n {graph.sink_index + 1} {-supply}")
    first_pair = len(graph.point_ids) + 2
    lines.extend(map("c point {} {}".format, range(2, first_pair), graph.point_ids.tolist()))
    lines.extend(map("c pair {} {} {}".format, range(first_pair, graph.sink_index + 1), *graph.pairs.T.tolist()))
    columns = (graph.tail + 1, graph.head + 1, graph.capacity, graph.cost)
    lines.extend(map("a {} {} 0 {} {}".format, *(c.tolist() for c in columns)))
    return "\n".join(lines) + "\n"
