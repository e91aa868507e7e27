"""Integer minimum-cost maximum flow on the layered graph, and its optimality certificate.

:func:`solve` first checks, in O(E), that no source edge can bind: a point's
source edge cannot bind when its capacity is at least the sum of the point's
outgoing capacities. ``build_graph`` always builds such graphs (a point seen
by n keyframes has capacity n(n-1)/2 and exactly that many capacity-1 pair
edges). The points then pass on whatever their pairs ask for, so the problem
splits into independent pairs. The maximum flow is the sum over pairs of
min(M, in-capacity), every maximum flow fills each pair to that level, and
the cheapest way to do so is for each pair to fill itself with the
candidates of lowest cc(point) + cs(point, pair), in that order. That closed
form is one lexsort and a segmented running sum over the point->pair edges.

Tie rule: among candidates of equal cc + cs, the lower edge index is taken
first. ``build_graph`` emits the point->pair edges in point-id order, so on
its graphs the lower point id wins.

A graph on which some source edge can bind (say, a hand-written DIMACS
file) is outside the closed form: :func:`solve` and
:func:`verify_optimality` raise :class:`GraphError` naming the first such
point. They raise it too where a flow or cost sum could leave int64.

:func:`verify_optimality` checks the per-pair conditions in O(E): the flow
is feasible, fills every pair to min(M, in-capacity), and never leaves a
cheaper candidate unused while a dearer one in the same pair carries flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flow_graph import FlowGraph, GraphError, _counts

# Every flow and cost sum of the closed form stays below this bound.
_SUM_LIMIT = 1 << 62


@dataclass(frozen=True, eq=False)
class FlowResult:
    """Per-edge flows aligned with ``graph.edges``, plus the solved totals.

    ``edge_flows`` is held as a read-only int64 array; the constructor
    converts a sequence or array of integers and raises ValueError on any
    other. Two results are equal when their flows and totals are.
    """

    edge_flows: np.ndarray
    total_flow: int
    total_cost: int

    def __post_init__(self):
        flows = _counts(self.edge_flows, "edge_flows").view()
        flows.flags.writeable = False
        object.__setattr__(self, "edge_flows", flows)

    def __eq__(self, other):
        if not isinstance(other, FlowResult):
            return NotImplemented
        return (self.total_flow, self.total_cost) == (other.total_flow, other.total_cost) and np.array_equal(
            self.edge_flows, other.edge_flows
        )

    __hash__ = None


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


def _pairwise(graph: FlowGraph) -> _Pairwise:
    """Edge arrays for the per-pair closed form; GraphError where it does not apply.

    It applies when every point's source-edge capacity covers the sum of its
    outgoing capacities (a point without a source edge counts as capacity 0)
    and the flow and cost sums stay below 2**62. No flow exceeds U, the sum
    of the point->pair capacities, and no unit of flow costs more than the
    largest cc + cs plus the largest cb, so U times that cost bounds every
    sum; the per-pair budget M enters only through min(M, in-capacity).
    """
    tail, head, cap, cost = graph.tail, graph.head, graph.capacity, graph.cost
    n = graph.n_vertices
    is_source = tail == graph.source_index
    is_sink = head == graph.sink_index
    middle = np.flatnonzero(~(is_source | is_sink))
    middle_cap = cap[middle]
    # A float sum first: below 2**62 it proves that the int64 sums cannot wrap.
    if middle_cap.sum(dtype=np.float64) >= _SUM_LIMIT:
        raise GraphError("the point->pair capacities sum to 2**62 or more")
    units = int(middle_cap.sum())
    source_cap = np.zeros(n, np.int64)
    source_cap[head[is_source]] = cap[is_source]
    out_cap = np.zeros(n, np.int64)
    np.add.at(out_cap, tail[middle], middle_cap)
    binds = np.flatnonzero(out_cap > source_cap)
    if len(binds):
        v = binds[0]
        raise GraphError(
            f"point {graph.point_ids[v - 1]}: source capacity {source_cap[v]} is below its {out_cap[v]} units "
            "of pair capacity, so its source edge can bind and the per-pair closed form does not apply"
        )
    cc = np.zeros(n, np.int64)
    cc[head[is_source]] = cost[is_source]
    budget = np.zeros(n, np.int64)
    budget[tail[is_sink]] = cap[is_sink]
    key = cc[tail[middle]] + cost[middle]
    dearest = int(key.max(initial=0)) + int(cost[is_sink].max(initial=0))
    if units * dearest >= _SUM_LIMIT:
        raise GraphError("the flow's cost could reach 2**62, beyond what the closed form carries in int64")
    return _Pairwise(tail, head, cap, cost, is_source, is_sink, middle, key, budget)


def solve(graph: FlowGraph) -> FlowResult:
    """Maximum s-t flow of minimum total cost, by the per-pair closed form (see the module docstring).

    Each pair fills itself to its budget with its cheapest candidates.
    Raises GraphError on a graph where a source edge can bind.
    """
    pw = _pairwise(graph)
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
    return FlowResult(flows, int(flows[pw.is_source].sum()), int(flows @ pw.cost))


def verify_optimality(graph: FlowGraph, result: FlowResult) -> bool:
    """Certify the solved flow: feasible, maximal, and of minimum cost.

    True iff the flow respects capacities and conservation, every pair
    carries min(M, its in-capacity) (so the flow is maximal), and in every
    pair the costliest cc + cs carrying flow is no dearer than the cheapest
    cc + cs with spare capacity (so no exchange lowers the cost). Raises
    GraphError on a graph where a source edge can bind.
    """
    pw = _pairwise(graph)
    flows = result.edge_flows
    if len(flows) != graph.n_edges:
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
