"""Shared flow-graph builders and brute-force oracles for the solver tests.

The general solvers here, successive shortest paths (``solve_ssp``), an
augmenting-path max flow (``max_flow_oracle``) and the residual-graph
certificate (``verify_residual``), work on any layered graph, including those
on which a source edge can bind and ``mapsparse.mcmf.solve`` raises. They are
the references the closed form is checked against.
"""

import heapq
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
from mapsparse.mcmf import FlowResult, solve, verify_optimality

LAYERS = ("source", "point", "pair", "sink")

_INF = 1 << 62


def layer(graph, v):
    """Name of the layer of vertex index v: "source", "point", "pair" or "sink"."""
    n_points = len(graph.point_ids)
    return LAYERS[int(np.searchsorted([1, n_points + 1, graph.sink_index], v, "right"))]


def graph_from_edges(point_ids, pairs, edges):
    """FlowGraph from a sequence of FlowEdge."""
    columns = [[getattr(e, name) for e in edges] for name in ("tail", "head", "capacity", "cost")]
    return FlowGraph(point_ids, pairs, *columns)


def graphs_equal(a: FlowGraph, b: FlowGraph) -> bool:
    """Whether two graphs hold equal point ids, pairs and edge columns."""
    names = ("point_ids", "pairs", "tail", "head", "capacity", "cost")
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in names)


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


def lift_to_closed_form(graph):
    """The graph with each source capacity raised to its point's out-capacity, where below it.

    No source edge of the result can bind, so ``solve`` takes it. Returns
    ``graph`` itself when no source edge of it can bind.
    """
    from_source = graph.tail == graph.source_index
    middle = ~from_source & (graph.head != graph.sink_index)
    out_cap = np.zeros(graph.n_vertices, np.int64)
    np.add.at(out_cap, graph.tail[middle], graph.capacity[middle])
    capacity = np.where(from_source, np.maximum(graph.capacity, out_cap[graph.head]), graph.capacity)
    if np.array_equal(capacity, graph.capacity):
        return graph
    return FlowGraph(graph.point_ids, graph.pairs, graph.tail, graph.head, capacity, graph.cost)


def refused(graph) -> bool:
    """Whether solve and verify_optimality both raise a GraphError saying a source edge can bind."""
    refusals = 0
    for call in (lambda: solve(graph), lambda: verify_optimality(graph, solve_ssp(graph))):
        try:
            call()
        except GraphError as e:
            refusals += "source edge can bind" in str(e)
    return refusals == 2


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
    pairs, edges, pair_sink_edge)."""
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
    for pid, frames in eligible:
        n = len(frames)
        cost = connectivity_cost(n, m) if config.enable_cc else 1
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

    centers = {kf.id: np.array(kf.pose.t) for kf in slam_map.keyframes}
    pair_sink_edge = {}
    for a, b in pairs:
        cost = baseline_cost(float(np.linalg.norm(centers[a] - centers[b]))) if config.enable_cb else 1
        pair_sink_edge[(a, b)] = len(edges)
        edges.append(FlowEdge(pair_index[(a, b)], snk, config.capacity_m, cost))
    return point_ids, pairs, edges, pair_sink_edge


def _residual_arrays(graph: FlowGraph):
    """Paired forward/reverse residual arrays; reverse of edge e is e^1."""
    head, cap, cost = (
        np.column_stack((forward, reverse)).ravel().tolist()
        for forward, reverse in (
            (graph.head, graph.tail),
            (graph.capacity, np.zeros_like(graph.capacity)),
            (graph.cost, -graph.cost),
        )
    )
    adj: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    for r in range(len(head)):  # arc r leaves the head of its reverse r^1
        adj[head[r ^ 1]].append(r)
    return head, cap, cost, adj


def solve_ssp(graph: FlowGraph) -> FlowResult:
    """Successive shortest paths on any layered graph; the reference solver ``solve`` is tested against."""
    n = graph.n_vertices
    s = graph.source_index
    t = graph.sink_index
    head, cap, cost, adj = _residual_arrays(graph)
    heappush = heapq.heappush
    heappop = heapq.heappop

    # Reduced costs are refreshed in one bulk pass after each potential lift;
    # numpy keeps that O(E) pass cheap while the scan loops index plain lists.
    head_np = np.array(head, dtype=np.int64)
    tail_np = np.empty_like(head_np)
    tail_np[0::2] = head_np[1::2]
    tail_np[1::2] = head_np[0::2]
    cost_np = np.array(cost, dtype=np.int64)
    pot_np = np.zeros(n, dtype=np.int64)
    rc = cost[:]  # equals the reduced cost while potentials are all zero

    while True:
        # Dijkstra on reduced costs, early exit once the sink is settled.
        dist = [_INF] * n
        dist[s] = 0
        done = bytearray(n)
        heap = [(0, s)]
        dist_t = _INF
        while heap:
            d, v = heappop(heap)
            if done[v]:
                continue
            done[v] = 1
            if v == t:
                dist_t = d
                break
            for e in adj[v]:
                if cap[e] > 0:
                    w = head[e]
                    if not done[w]:
                        nd = d + rc[e]
                        if nd < dist[w]:
                            dist[w] = nd
                            heappush(heap, (nd, w))
        if dist_t >= _INF:
            break
        lift = np.fromiter(dist, dtype=np.int64, count=n)
        np.minimum(lift, dist_t, out=lift)
        pot_np += lift
        rc_np = cost_np + pot_np[tail_np] - pot_np[head_np]
        rc = rc_np.tolist()

        # Hop levels over the tight (zero reduced cost) residual arcs, as
        # vectorized frontier rounds; expansion stops once the sink is leveled.
        cap_np = np.fromiter(cap, dtype=np.int64, count=len(cap))
        tight = (cap_np > 0) & (rc_np == 0)
        level_np = np.full(n, -1, dtype=np.int64)
        level_np[s] = 0
        frontier = np.zeros(n, dtype=bool)
        frontier[s] = True
        depth = 0
        while frontier.any() and level_np[t] < 0:
            depth += 1
            hit = np.zeros(n, dtype=bool)
            hit[head_np[tight & frontier[tail_np]]] = True
            frontier = hit & (level_np < 0)
            level_np[frontier] = depth
        if level_np[t] < 0:
            continue

        # Admissible = tight and level-monotone; prune arcs whose head cannot
        # reach the sink so the walk below never wanders into dead ends.
        adm = tight & (level_np[tail_np] >= 0) & (level_np[tail_np] + 1 == level_np[head_np])
        reach = np.zeros(n, dtype=bool)
        reach[t] = True
        while True:
            grow = adm & reach[head_np] & ~reach[tail_np]
            if not grow.any():
                break
            reach[tail_np[grow]] = True
        adm &= reach[head_np]
        adm_idx = np.flatnonzero(adm)
        order = np.argsort(tail_np[adm_idx], kind="stable")
        adm_sorted = adm_idx[order]
        arc_of = adm_sorted.tolist()
        start = np.searchsorted(tail_np[adm_sorted], np.arange(n + 1)).tolist()

        # Blocking flow on the admissible arc lists (current-arc discipline:
        # pointers only advance, on saturation or on retreat from a dead head).
        it = start[:-1]
        path: list[int] = []
        v = s
        while True:
            if v == t:
                push = min(cap[e] for e in path)
                sat = -1
                for j, e in enumerate(path):
                    cap[e] -= push
                    cap[e ^ 1] += push
                    if sat < 0 and cap[e] == 0:
                        sat = j
                first_saturated = path[sat]
                del path[sat:]
                v = head[first_saturated ^ 1]
                continue
            i = it[v]
            end = start[v + 1]
            chosen = -1
            while i < end:
                e = arc_of[i]
                if cap[e] > 0:
                    chosen = e
                    break
                i += 1
            it[v] = i
            if chosen >= 0:
                path.append(chosen)
                v = head[chosen]
            else:
                if v == s:
                    break
                e = path.pop()
                v = head[e ^ 1]
                it[v] += 1  # the arc into the dead vertex is done for this phase

    flows = tuple(cap[1::2])
    total_flow = sum(f for f, tl in zip(flows, graph.tail.tolist()) if tl == s)
    total_cost = sum(f * c for f, c in zip(flows, graph.cost.tolist()))
    assert abs(total_cost) < _INF and total_flow < _INF
    return FlowResult(flows, total_flow, total_cost)


def max_flow_oracle(graph: FlowGraph) -> int:
    """Classical shortest-augmenting-path max flow, used to cross-check totals."""
    n = graph.n_vertices
    s = graph.source_index
    t = graph.sink_index
    head, cap, _, adj = _residual_arrays(graph)
    total = 0
    while True:
        parent = [-1] * n
        parent[s] = -2
        queue = [s]
        qi = 0
        reached = False
        while qi < len(queue) and not reached:
            v = queue[qi]
            qi += 1
            for e in adj[v]:
                w = head[e]
                if cap[e] > 0 and parent[w] == -1:
                    parent[w] = e
                    if w == t:
                        reached = True
                        break
                    queue.append(w)
        if not reached:
            return total
        push = _INF
        v = t
        while v != s:
            e = parent[v]
            if cap[e] < push:
                push = cap[e]
            v = head[e ^ 1]
        v = t
        while v != s:
            e = parent[v]
            cap[e] -= push
            cap[e ^ 1] += push
            v = head[e ^ 1]
        total += push


def verify_residual(graph: FlowGraph, result: FlowResult) -> bool:
    """Residual-graph certificate for any layered graph.

    True iff the flow respects capacities and conservation, the residual
    graph admits no augmenting s-t path (maximality), and it contains no
    negative-cost cycle (minimality among maximum flows).
    """
    n = graph.n_vertices
    s = graph.source_index
    t = graph.sink_index
    flows = result.edge_flows.tolist()
    if len(flows) != graph.n_edges:
        return False

    edges = list(zip(flows, *(a.tolist() for a in (graph.tail, graph.head, graph.capacity, graph.cost))))
    net = [0] * n
    for f, tl, h, cap, _ in edges:
        if not 0 <= f <= cap:
            return False
        net[tl] -= f
        net[h] += f
    for v in range(n):
        if v not in (s, t) and net[v] != 0:
            return False

    arcs = []
    for f, tl, h, cap, cost in edges:
        if f < cap:
            arcs.append((tl, h, cost))
        if f > 0:
            arcs.append((h, tl, -cost))

    # (a) maximality: sink unreachable in the residual graph
    reach = [False] * n
    reach[s] = True
    frontier = [s]
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, c in arcs:
        out[u].append((v, c))
    while frontier:
        u = frontier.pop()
        for v, _ in out[u]:
            if not reach[v]:
                reach[v] = True
                frontier.append(v)
    if reach[t]:
        return False

    # (b) minimality: no negative cycle (Bellman-Ford from an all-zero start).
    # A pass that changes nothing proves there is none; a cycle among the
    # predecessor pointers that relaxation keeps is a negative cycle.
    dist = [0] * n
    pred = [-1] * n
    for it in range(n):
        changed = False
        for u, v, c in arcs:
            nd = dist[u] + c
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                changed = True
        if not changed:
            return True
        if _has_cycle(pred):
            return False
    return not changed


def _has_cycle(pred: list[int]) -> bool:
    """Whether following predecessor pointers (-1: none) from some vertex returns to it."""
    walk_of = [0] * len(pred)  # 1 + the start of the walk that first reached each vertex
    for start in range(len(pred)):
        v = start
        while v != -1 and not walk_of[v]:
            walk_of[v] = start + 1
            v = pred[v]
        if v != -1 and walk_of[v] == start + 1:
            return True
    return False
