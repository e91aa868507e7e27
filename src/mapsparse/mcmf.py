"""Integer minimum-cost maximum-flow on the layered graph, plus optimality certificates.

:func:`solve` first checks, in O(E), whether any source edge can bind: a
point's source edge cannot bind when its capacity is at least the sum of the
point's outgoing capacities. ``build_graph`` always builds such graphs (a
point seen by n keyframes has capacity n(n-1)/2 and exactly that many
capacity-1 pair edges). The points then pass on whatever their pairs ask
for, so the problem splits into independent pairs. The maximum flow is the
sum over pairs of min(M, in-capacity), every maximum flow fills each pair to
that level, and the cheapest way to do so is for each pair to fill itself
with the candidates of lowest cc(point) + cs(point, pair), in that order.
That closed form is one lexsort and a segmented running sum over the
point->pair edges.

Tie rule: among candidates of equal cc + cs, the lower edge index is taken
first. ``build_graph`` emits the point->pair edges in point-id order, so on
its graphs the lower point id wins.

Graphs where some source edge can bind (DIMACS inputs, random test graphs),
or whose capacity and cost sums could leave int64, go to the general solver,
``_solve_ssp``. It runs successive shortest augmenting paths with vertex
potentials: each phase computes reduced-cost shortest distances with Dijkstra
(all costs are non-negative), lifts the potentials, and then saturates every
remaining shortest path at once with a level-restricted blocking flow.
Augmentation order is fixed (lowest edge index first), so results are
reproducible. It stays the reference the closed form is tested against.

:func:`verify_optimality` picks its certificate the same way: per-pair
cheapest-fill checks in O(E) when no source edge can bind, and the
residual-graph certificate (reachability plus Bellman-Ford) otherwise.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flow_graph import FlowGraph, GraphError

_INF = 1 << 62


@dataclass(frozen=True)
class FlowResult:
    """Per-edge flows aligned with ``graph.edges``, plus the solved totals."""

    edge_flows: tuple[int, ...]
    total_flow: int
    total_cost: int


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


class _Pairwise(NamedTuple):
    """Edge arrays of a graph whose source edges cannot bind."""

    tail: np.ndarray
    head: np.ndarray
    cap: np.ndarray
    cost: np.ndarray
    is_source: np.ndarray  # per edge: leaves the source
    is_sink: np.ndarray  # per edge: enters the sink
    middle: np.ndarray  # indices of the point->pair edges
    key: np.ndarray  # cc(tail) + cs, per point->pair edge
    budget: np.ndarray  # per vertex: capacity of its pair->sink edge, else 0


def _pairwise(graph: FlowGraph) -> _Pairwise | None:
    """Edge arrays for the per-pair closed form, or None where it does not apply.

    It applies when every point's source-edge capacity covers the sum of its
    outgoing capacities (a point without a source edge counts as capacity 0)
    and every flow and cost sum stays below 2**62.
    """
    tail, head, cap, cost = graph.tail, graph.head, graph.capacity, graph.cost
    m = graph.n_edges
    if m and int(cap.max()) * max(int(cost.max()), 1) * m >= _INF:
        return None
    n = graph.n_vertices
    is_source = tail == graph.source_index
    is_sink = head == graph.sink_index
    middle = np.flatnonzero(~(is_source | is_sink))
    source_cap = np.zeros(n, np.int64)
    source_cap[head[is_source]] = cap[is_source]
    out_cap = np.zeros(n, np.int64)
    np.add.at(out_cap, tail[middle], cap[middle])
    if (out_cap > source_cap).any():
        return None
    cc = np.zeros(n, np.int64)
    cc[head[is_source]] = cost[is_source]
    budget = np.zeros(n, np.int64)
    budget[tail[is_sink]] = cap[is_sink]
    key = cc[tail[middle]] + cost[middle]
    return _Pairwise(tail, head, cap, cost, is_source, is_sink, middle, key, budget)


def _solve_pairwise(graph: FlowGraph, pw: _Pairwise) -> FlowResult:
    """Fill each pair to its budget with its cheapest candidates (see module doc)."""
    order = np.lexsort((pw.middle, pw.key, pw.head[pw.middle]))
    mid = pw.middle[order]
    pair = pw.head[mid]
    cap = pw.cap[mid]
    before = np.cumsum(cap) - cap  # units ahead of each candidate, over all pairs
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    before -= np.repeat(before[starts], np.diff(starts, append=len(pair)))
    taken = np.clip(pw.budget[pair] - before, 0, cap)

    flows = np.zeros(len(pw.cap), np.int64)
    flows[mid] = taken
    through = np.zeros(graph.n_vertices, np.int64)  # flow through each point and pair
    np.add.at(through, pw.tail[mid], taken)
    np.add.at(through, pair, taken)
    flows[pw.is_source] = through[pw.head[pw.is_source]]
    flows[pw.is_sink] = through[pw.tail[pw.is_sink]]
    return FlowResult(tuple(flows.tolist()), int(flows[pw.is_source].sum()), int(flows @ pw.cost))


def solve(graph: FlowGraph) -> FlowResult:
    """Maximum s-t flow of minimum total cost, deterministic for fixed input.

    Uses the per-pair closed form when no source edge can bind, and
    successive shortest paths otherwise (see the module docstring).
    """
    pw = _pairwise(graph)
    if pw is None:
        return _solve_ssp(graph)
    return _solve_pairwise(graph, pw)


def _solve_ssp(graph: FlowGraph) -> FlowResult:
    """Successive shortest paths on any layered graph; the general reference solver."""
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


def verify_optimality(graph: FlowGraph, result: FlowResult) -> bool:
    """Certify the solved flow: feasible, maximal, and of minimum cost.

    Uses the O(E) per-pair certificate when no source edge can bind, and the
    residual-graph certificate otherwise (see the module docstring).
    """
    if len(result.edge_flows) != graph.n_edges:
        return False
    pw = _pairwise(graph)
    if pw is None:
        return _verify_residual(graph, result)
    return _verify_pairwise(graph, pw, result)


def _verify_pairwise(graph: FlowGraph, pw: _Pairwise, result: FlowResult) -> bool:
    """Per-pair certificate for graphs whose source edges cannot bind.

    True iff the flow respects capacities and conservation, every pair
    carries min(M, its in-capacity) (so the flow is maximal), and in every
    pair the costliest cc + cs carrying flow is no dearer than the cheapest
    cc + cs with spare capacity (so no exchange lowers the cost).
    """
    try:
        flows = np.array(result.edge_flows, dtype=np.int64)
    except OverflowError:  # beyond int64 is beyond every capacity
        return False
    if ((flows < 0) | (flows > pw.cap)).any():
        return False
    net = np.zeros(graph.n_vertices, np.int64)
    np.add.at(net, pw.head, flows)
    np.subtract.at(net, pw.tail, flows)
    net[[graph.source_index, graph.sink_index]] = 0
    if net.any():
        return False

    pair = pw.head[pw.middle]
    used = flows[pw.middle]
    cap = pw.cap[pw.middle]
    inflow = np.zeros(graph.n_vertices, np.int64)
    np.add.at(inflow, pair, used)
    in_cap = np.zeros(graph.n_vertices, np.int64)
    np.add.at(in_cap, pair, cap)
    if (inflow != np.minimum(pw.budget, in_cap)).any():
        return False

    dearest_used = np.full(graph.n_vertices, -1, np.int64)
    np.maximum.at(dearest_used, pair[used > 0], pw.key[used > 0])
    cheapest_spare = np.full(graph.n_vertices, np.iinfo(np.int64).max, np.int64)
    np.minimum.at(cheapest_spare, pair[used < cap], pw.key[used < cap])
    return bool((dearest_used <= cheapest_spare).all())


def _verify_residual(graph: FlowGraph, result: FlowResult) -> bool:
    """Residual-graph certificate for any layered graph.

    True iff the flow respects capacities and conservation, the residual
    graph admits no augmenting s-t path (maximality), and it contains no
    negative-cost cycle (minimality among maximum flows).
    """
    n = graph.n_vertices
    s = graph.source_index
    t = graph.sink_index
    flows = result.edge_flows
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


def _ints(fields: list[str], lineno: int, form: str) -> list[int]:
    """The integer fields of one DIMACS record, or a GraphError naming the line."""
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise GraphError(f"line {lineno}: expected integers in '{form}'") from None


# The comment lines that carry vertex labels, as to_dimacs writes them.
_LABEL_FORMS = {"point": "c point NODE ID", "pair": "c pair NODE FRAME_A FRAME_B"}


def parse_dimacs(text: str) -> tuple[FlowGraph, int]:
    """Parse a DIMACS min-cost-flow file describing a layered graph.

    Layer membership is recovered from the arc pattern: heads of source arcs
    become points and tails of sink arcs become pairs, each layer in node id
    order. When every point and pair node has a ``c point NODE ID`` or
    ``c pair NODE FRAME_A FRAME_B`` line (as ``to_dimacs`` writes), those
    label the vertices; otherwise point node N is point N and pair node N the
    pair (N, N+1). Returns the graph and the declared supply. Malformed
    records, label lines included, raise :class:`GraphError` naming the line.
    """
    n_decl = None
    supplies: dict[int, int] = {}
    raw_arcs: list[list[int]] = []
    labels: dict[str, dict[int, tuple[int, ...]]] = {kind: {} for kind in _LABEL_FORMS}
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "c":
            form = _LABEL_FORMS.get(parts[1]) if len(parts) > 1 else None
            if form is not None:
                if len(parts) != len(form.split()):
                    raise GraphError(f"line {lineno}: expected '{form}'")
                node, *label = _ints(parts[2:], lineno, form)
                labels[parts[1]][node] = tuple(label)
            continue
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "min":
                raise GraphError(f"line {lineno}: expected 'p min N M'")
            n_decl, _ = _ints(parts[2:], lineno, "p min N M")
        elif parts[0] == "n":
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'n ID FLOW'")
            node, flow = _ints(parts[1:], lineno, "n ID FLOW")
            supplies[node] = flow
        elif parts[0] == "a":
            if len(parts) != 6:
                raise GraphError(f"line {lineno}: expected 'a from to low cap cost'")
            raw_arcs.append(_ints(parts[1:], lineno, "a from to low cap cost"))
        else:
            raise GraphError(f"line {lineno}: unknown record '{parts[0]}'")
    if n_decl is None:
        raise GraphError("missing problem line")
    positives = [v for v, sup in supplies.items() if sup > 0]
    negatives = [v for v, sup in supplies.items() if sup < 0]
    if len(positives) != 1 or len(negatives) != 1:
        raise GraphError("expected exactly one supply and one demand node")
    src, snk = positives[0], negatives[0]
    supply = supplies[src]

    points = sorted({h for tl, h, *_ in raw_arcs if tl == src})
    pairs = sorted({tl for tl, h, *_ in raw_arcs if h == snk})
    nodes = [src, *points, *pairs, snk]
    index = {node: i for i, node in enumerate(nodes)}
    if len(index) != len(nodes):
        twice = next(node for i, node in enumerate(nodes) if index[node] != i)
        raise GraphError(f"node {twice} is on two layers")
    for tl, h, low, _, _ in raw_arcs:
        if low != 0:
            raise GraphError("only zero lower bounds are supported")
        if tl not in index or h not in index:
            raise GraphError(f"arc {tl}->{h} does not fit the layered structure")
    if all(node in labels["point"] for node in points) and all(node in labels["pair"] for node in pairs):
        point_ids = [labels["point"][node][0] for node in points]
        pair_rows = [labels["pair"][node] for node in pairs]
    else:
        point_ids, pair_rows = points, [(node, node + 1) for node in pairs]
    tail, head, _, capacity, cost = zip(*raw_arcs) if raw_arcs else ((),) * 5
    return FlowGraph(
        point_ids,
        pair_rows,
        [index[tl] for tl in tail],
        [index[h] for h in head],
        capacity,
        cost,
    ), supply
