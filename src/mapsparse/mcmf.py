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

Tie rule: among candidates of equal cc + cs, the lower point vertex is taken
first. ``build_graph`` numbers the points in id order, so on its graphs the
lower point id wins.

Every pass reads :class:`FlowGraph`'s edge layout: the source edges are
``[:P]``, the point->pair edges ``[graph.middle]``, sorted by point, and
the sink edges ``[-Q:]``, so per-point sums are sums over runs.

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
from .map_model import _frozen, _sealed

# Every flow and cost sum of the closed form stays below this bound.
_SUM_LIMIT = 1 << 62


@dataclass(frozen=True, eq=False)
class FlowResult:
    """Per-edge flows aligned with ``graph.edges``, plus the solved totals.

    ``edge_flows`` is held as a read-only int64 array; the constructor
    converts a sequence or array of integers and raises ValueError on any
    other. An array is kept or copied by the rule of
    :func:`map_model._frozen`. Two results are equal when their flows and
    totals are.
    """

    edge_flows: np.ndarray
    total_flow: int
    total_cost: int

    def __post_init__(self):
        object.__setattr__(self, "edge_flows", _frozen(_counts(self.edge_flows, "edge_flows"), np.int64))

    def __eq__(self, other):
        if not isinstance(other, FlowResult):
            return NotImplemented
        return (self.total_flow, self.total_cost) == (other.total_flow, other.total_cost) and np.array_equal(
            self.edge_flows, other.edge_flows
        )

    __hash__ = None


class _Pairwise(NamedTuple):
    """The point->pair edges of a graph whose source edges cannot bind, with what the closed form reads."""

    cap: np.ndarray  # capacity of each point->pair edge
    pair: np.ndarray  # pair of each point->pair edge, 0..Q-1
    key: np.ndarray  # cc(point) + cs of each point->pair edge
    budget: np.ndarray  # per pair: capacity of its sink edge
    point_runs: np.ndarray  # point i's edges are the point->pair edges point_runs[i]:point_runs[i + 1]


def _run_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """values[bounds[i]:bounds[i + 1]].sum() for each i, exact while the total fits in int64."""
    return np.diff(np.concatenate(([0], np.cumsum(values)))[bounds])


def _pairwise(graph: FlowGraph) -> _Pairwise:
    """Edge arrays for the per-pair closed form; GraphError where it does not apply.

    It applies when every point's source-edge capacity covers the sum of its
    outgoing capacities and the flow and cost sums stay below 2**62. No flow
    exceeds U, the sum of the point->pair capacities, and no unit of flow
    costs more than the largest cc + cs plus the largest cb, so U times that
    cost bounds every sum; the per-pair budget M enters only through
    min(M, in-capacity).
    """
    n_points, n_pairs = len(graph.point_ids), len(graph.pairs)
    point = graph.tail[graph.middle]
    cap = graph.capacity[graph.middle]
    # A float sum first: below 2**62 it proves that the int64 sums cannot wrap.
    if cap.sum(dtype=np.float64) >= _SUM_LIMIT:
        raise GraphError("the point->pair capacities sum to 2**62 or more")
    units = int(cap.sum())
    runs = np.searchsorted(point, np.arange(1, n_points + 2))
    source_cap = graph.capacity[:n_points]
    out_cap = _run_sums(cap, runs)
    binds = np.flatnonzero(out_cap > source_cap)
    if len(binds):
        i = binds[0]
        raise GraphError(
            f"point {graph.point_ids[i]}: source capacity {source_cap[i]} is below its {out_cap[i]} units "
            "of pair capacity, so its source edge can bind and the per-pair closed form does not apply"
        )
    key = graph.cost[point - 1] + graph.cost[graph.middle]  # the source edge of point vertex v is edge v - 1
    sink = slice(graph.n_edges - n_pairs, graph.n_edges)
    dearest = int(key.max(initial=0)) + int(graph.cost[sink].max(initial=0))
    if units * dearest >= _SUM_LIMIT:
        raise GraphError("the flow's cost could reach 2**62, beyond what the closed form carries in int64")
    return _Pairwise(cap, graph.head[graph.middle] - (n_points + 1), key, graph.capacity[sink], runs)


def solve(graph: FlowGraph) -> FlowResult:
    """Maximum s-t flow of minimum total cost, by the per-pair closed form (see the module docstring).

    Each pair fills itself to its budget with its cheapest candidates.
    Raises GraphError on a graph where a source edge can bind.
    """
    cap, pair, key, budget, point_runs = _pairwise(graph)
    # Each edge-length array is dropped once spent, so that few are held at once.
    order = np.lexsort((key, pair))  # stable: a tie keeps point order
    del key
    pair = pair[order]
    cap = cap[order]
    ahead = np.concatenate(([0], np.cumsum(cap)))  # units ahead of each candidate, over all pairs
    pair_runs = np.searchsorted(pair, np.arange(len(budget) + 1))
    before = ahead[:-1] - np.repeat(ahead[pair_runs[:-1]], np.diff(pair_runs))
    del ahead
    taken = np.clip(budget[pair] - before, 0, cap)
    del pair, cap, before

    used = np.empty_like(taken)
    used[order] = taken
    del order
    through_points = _run_sums(used, point_runs)
    flows = np.concatenate((through_points, used, _run_sums(taken, pair_runs)))
    return FlowResult(_sealed(flows), int(through_points.sum()), int(flows @ graph.cost))


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
    if ((flows < 0) | (flows > graph.capacity)).any():
        return False
    n_points, n_pairs = len(graph.point_ids), len(graph.pairs)
    used = flows[graph.middle]
    inflow = np.zeros(n_pairs, np.int64)
    np.add.at(inflow, pw.pair, used)
    # Conservation: each point passes on its source flow, each pair its inflow.
    if not (np.array_equal(flows[:n_points], _run_sums(used, pw.point_runs))
            and np.array_equal(flows[graph.n_edges - n_pairs :], inflow)):
        return False

    in_cap = np.zeros(n_pairs, np.int64)
    np.add.at(in_cap, pw.pair, pw.cap)
    if (inflow != np.minimum(pw.budget, in_cap)).any():
        return False

    dearest_used = np.full(n_pairs, -1, np.int64)
    np.maximum.at(dearest_used, pw.pair[used > 0], pw.key[used > 0])
    cheapest_spare = np.full(n_pairs, np.iinfo(np.int64).max, np.int64)
    np.minimum.at(cheapest_spare, pw.pair[used < pw.cap], pw.key[used < pw.cap])
    return bool((dearest_used <= cheapest_spare).all())
