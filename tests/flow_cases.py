"""Shared flow-graph builders and brute-force oracles for the solver tests."""

import itertools

import numpy as np

from map_oracles import index_oracle
from mapsparse.flow_graph import (
    FlowEdge,
    FlowGraph,
    GraphError,
    baseline_cost,
    connectivity_cost,
    point_capacity,
    spatial_cost,
)

LAYERS = ("source", "point", "pair", "sink")


def layer(graph, v):
    """Name of the layer of vertex index v: "source", "point", "pair" or "sink"."""
    n_points = len(graph.point_ids)
    return LAYERS[int(np.searchsorted([1, n_points + 1, graph.sink_index], v, "right"))]


def graph_from_edges(point_ids, pairs, edges):
    """FlowGraph from a sequence of FlowEdge."""
    columns = [[getattr(e, name) for e in edges] for name in ("tail", "head", "capacity", "cost")]
    return FlowGraph(point_ids, pairs, *columns)


def build_layered(source_edges, middle_edges, sink_edges):
    """Construct a FlowGraph from explicit layer specs.

    source_edges: list of (cap, cost) per first-layer vertex.
    middle_edges: list of (i, j, cap, cost) from layer-1 vertex i to layer-2 vertex j.
    sink_edges: list of (cap, cost) per second-layer vertex.
    """
    n1 = len(source_edges)
    n2 = len(sink_edges)
    edges = []
    for i, (cap, cost) in enumerate(source_edges):
        edges.append(FlowEdge(0, 1 + i, cap, cost))
    for i, j, cap, cost in middle_edges:
        edges.append(FlowEdge(1 + i, 1 + n1 + j, cap, cost))
    for j, (cap, cost) in enumerate(sink_edges):
        edges.append(FlowEdge(1 + n1 + j, 1 + n1 + n2, cap, cost))
    return graph_from_edges(range(n1), [(1000 + j, 1001 + j) for j in range(n2)], edges)


def random_layered_graph(rng, max_vertices=20, cap_max=5, cost_max=10):
    """Random layered graph with at most max_vertices vertices in total."""
    budget = max_vertices - 2
    n1 = int(rng.integers(1, min(9, budget - 1) + 1))
    n2 = int(rng.integers(1, min(9, budget - n1) + 1))
    source_edges = [
        (int(rng.integers(1, cap_max + 1)), int(rng.integers(0, cost_max + 1)))
        for _ in range(n1)
    ]
    sink_edges = [
        (int(rng.integers(1, cap_max + 1)), int(rng.integers(0, cost_max + 1)))
        for _ in range(n2)
    ]
    middle = []
    for i in range(n1):
        for j in range(n2):
            if rng.random() < 0.6:
                middle.append(
                    (i, j, int(rng.integers(1, cap_max + 1)), int(rng.integers(0, cost_max + 1)))
                )
    if not middle:
        middle.append((0, 0, int(rng.integers(1, cap_max + 1)), int(rng.integers(0, cost_max + 1))))
    return build_layered(source_edges, middle, sink_edges)


def random_tiny_graph(rng, max_edges=10, cap_max=2, cost_max=10):
    """Random layered graph small enough to enumerate every feasible flow."""
    n1 = int(rng.integers(1, 4))
    n2 = int(rng.integers(1, 4))
    room = max_edges - n1 - n2
    cells = [(i, j) for i in range(n1) for j in range(n2)]
    k = int(rng.integers(1, min(len(cells), max(room, 1)) + 1))
    chosen = rng.choice(len(cells), size=k, replace=False)
    source_edges = [
        (int(rng.integers(1, cap_max + 1)), int(rng.integers(0, cost_max + 1)))
        for _ in range(n1)
    ]
    sink_edges = [
        (int(rng.integers(1, cap_max + 1)), int(rng.integers(0, cost_max + 1)))
        for _ in range(n2)
    ]
    middle = [
        (cells[c][0], cells[c][1], int(rng.integers(1, cap_max + 1)), int(rng.integers(0, cost_max + 1)))
        for c in sorted(chosen)
    ]
    return build_layered(source_edges, middle, sink_edges)


def enumerate_min_cost_max_flow(graph):
    """Brute-force oracle: enumerate every integer flow vector, keep the
    feasible ones, and return (max total flow, min cost among maximum flows)."""
    caps = [e.capacity for e in graph.edges]
    combos = np.array(
        list(itertools.product(*[range(c + 1) for c in caps])), dtype=np.int64
    )
    inc = np.zeros((graph.n_vertices, graph.n_edges), dtype=np.int64)
    for i, e in enumerate(graph.edges):
        inc[e.tail, i] -= 1
        inc[e.head, i] += 1
    internal = [
        v for v in range(graph.n_vertices) if v not in (graph.source_index, graph.sink_index)
    ]
    feasible = combos[np.all(combos @ inc[internal].T == 0, axis=1)]
    src_mask = np.array(
        [1 if e.tail == graph.source_index else 0 for e in graph.edges], dtype=np.int64
    )
    costs = np.array([e.cost for e in graph.edges], dtype=np.int64)
    total_flows = feasible @ src_mask
    total_costs = feasible @ costs
    max_flow = int(total_flows.max())
    return max_flow, int(total_costs[total_flows == max_flow].min())


def flow_violations(graph, result):
    """Independent feasibility re-check of a FlowResult against its graph."""
    problems = []
    if len(result.edge_flows) != graph.n_edges:
        return ["flow vector length mismatch"]
    net = [0] * graph.n_vertices
    for f, e in zip(result.edge_flows, graph.edges):
        if not 0 <= f <= e.capacity:
            problems.append(f"flow {f} outside [0, {e.capacity}]")
        net[e.tail] -= f
        net[e.head] += f
    for v in range(graph.n_vertices):
        if v in (graph.source_index, graph.sink_index):
            continue
        if net[v] != 0:
            problems.append(f"conservation violated at vertex {v}")
    if sum(f for f, e in zip(result.edge_flows, graph.edges) if e.tail == graph.source_index) != result.total_flow:
        problems.append("total_flow does not match source edges")
    if sum(f * e.cost for f, e in zip(result.edge_flows, graph.edges)) != result.total_cost:
        problems.append("total_cost does not match per-edge sum")
    return problems


def nearby_count(slam_map, point_id, frame_id, box_width=64, box_height=48, index=None):
    """Number of other keypoints on the frame inside the box centered on this one.

    The box test is closed (<= half-extent per axis) and the reference
    keypoint itself is excluded. Single-query oracle for ``_nearby_counts``;
    ``index`` is the map's ``index_oracle``, built here when not given.
    """
    _, points_of, obs_by_key = index_oracle(slam_map) if index is None else index
    ref = obs_by_key.get((point_id, frame_id))
    if ref is None:
        raise ValueError(f"no observation of point {point_id} in keyframe {frame_id}")
    half_u = box_width / 2.0
    half_v = box_height / 2.0
    count = 0
    for pid in points_of[frame_id]:
        if pid == point_id:
            continue
        obs = obs_by_key[(pid, frame_id)]
        if abs(obs.u - ref.u) <= half_u and abs(obs.v - ref.v) <= half_v:
            count += 1
    return count


def build_graph_oracle(slam_map, config):
    """Scalar reference for ``build_graph``: one FlowEdge at a time, every cost
    from its single-value function, disabled costs 1. Returns (point_ids,
    pairs, edges, point_source_edge, pair_sink_edge)."""
    index = index_oracle(slam_map)
    frames_of = index[0]
    eligible = [(pt.id, frames_of[pt.id]) for pt in slam_map.points if len(frames_of[pt.id]) >= 2]
    if not eligible:
        raise GraphError("no map point is observed by at least two keyframes")
    m = max(len(frames) for _, frames in eligible)
    pairs = sorted({ab for _, frames in eligible for ab in itertools.combinations(frames, 2)})

    point_ids = [pid for pid, _ in eligible]
    point_index = {pid: 1 + i for i, pid in enumerate(point_ids)}
    pair_index = {ab: 1 + len(point_ids) + i for i, ab in enumerate(pairs)}
    snk = 1 + len(point_ids) + len(pairs)

    edges = []
    point_source_edge = {}
    for pid, frames in eligible:
        n = len(frames)
        cost = connectivity_cost(n, m) if config.enable_cc else 1
        point_source_edge[pid] = len(edges)
        edges.append(FlowEdge(0, point_index[pid], point_capacity(n), cost))

    counts = {}

    def nearby(pid, fid):
        if (pid, fid) not in counts:
            counts[(pid, fid)] = nearby_count(slam_map, pid, fid, config.box_width, config.box_height, index)
        return counts[(pid, fid)]

    for pid, frames in eligible:
        for a, b in itertools.combinations(frames, 2):
            cost = spatial_cost(nearby(pid, a), nearby(pid, b)) if config.enable_cs else 1
            edges.append(FlowEdge(point_index[pid], pair_index[(a, b)], 1, cost))

    centers = {kf.id: kf.pose.center() for kf in slam_map.keyframes}
    pair_sink_edge = {}
    for a, b in pairs:
        cost = baseline_cost(float(np.linalg.norm(centers[a] - centers[b]))) if config.enable_cb else 1
        pair_sink_edge[(a, b)] = len(edges)
        edges.append(FlowEdge(pair_index[(a, b)], snk, config.capacity_m, cost))
    return point_ids, pairs, edges, point_source_edge, pair_sink_edge
