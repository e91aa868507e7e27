import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_cases import (
    build_layered,
    enumerate_min_cost_max_flow,
    flow_violations,
    graph_from_edges,
    layer,
    lift_to_closed_form,
    max_flow_oracle,
    random_layered_graph,
    random_tiny_graph,
    refused,
    solve_ssp,
    verify_residual,
)
from mapsparse.flow_graph import FlowEdge, FlowGraph, GraphConfig, GraphError, build_graph
from mapsparse.mcmf import FlowResult, solve, verify_optimality
from mapsparse.sparsifier import SparsifyConfig, sparsify
from mapsparse.synth import SynthConfig, generate
from test_acceptance import CLUSTER_M, CLUSTER_SYNTH, SWEEP_SYNTH

# An int64 overflow warning in the solver's run sums fails the test that raised it.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_single_path():
    graph = build_layered([(1, 6)], [(0, 0, 1, 0)], [(9, 10)])
    result = solve(graph)
    assert result.total_flow == 1
    assert result.total_cost == 16
    assert verify_optimality(graph, result)


def test_two_points_one_pair_picks_cheaper():
    # both points feed the same pair vertex; the sink edge admits one unit
    graph = build_layered(
        [(1, 1), (1, 5)],
        [(0, 0, 1, 0), (1, 0, 1, 0)],
        [(1, 2)],
    )
    result = solve(graph)
    assert result.total_flow == 1
    assert result.total_cost == 3  # 1 (cheap source) + 0 + 2
    assert result.edge_flows[0] == 1 and result.edge_flows[1] == 0


def test_four_frame_fixture_matches_exhaustive_search(four_frame_map):
    graph = build_graph(four_frame_map, GraphConfig(capacity_m=2))
    result = solve(graph)
    assert not flow_violations(graph, result)
    assert verify_optimality(graph, result)

    # independent oracle: middle (unit) edges determine the whole flow
    mid = [(i, e) for i, e in enumerate(graph.edges) if layer(graph, e.tail) == "point"]
    best_flow, best_cost = 0, None
    for pattern in itertools.product((0, 1), repeat=len(mid)):
        per_edge = dict(zip((i for i, _ in mid), pattern))
        load_tail: dict[int, int] = {}
        load_head: dict[int, int] = {}
        for (i, e), f in zip(mid, pattern):
            load_tail[e.tail] = load_tail.get(e.tail, 0) + f
            load_head[e.head] = load_head.get(e.head, 0) + f
        ok = True
        cost = 0
        for i, e in enumerate(graph.edges):
            kind = layer(graph, e.tail)
            if kind == "source":
                f = load_tail.get(e.head, 0)
            elif kind == "point":
                f = per_edge[i]
            else:
                f = load_head.get(e.tail, 0)
            if f > e.capacity:
                ok = False
                break
            cost += f * e.cost
        if not ok:
            continue
        flow = sum(pattern)
        if flow > best_flow or (flow == best_flow and (best_cost is None or cost < best_cost)):
            best_flow, best_cost = flow, cost
    assert result.total_flow == best_flow
    assert result.total_cost == best_cost


def test_equal_cost_tie_goes_to_lower_edge_index():
    # both candidates cost 1 + 2; the pair admits one, and edge 2 precedes edge 3
    graph = build_layered(
        [(1, 1), (1, 1)],
        [(0, 0, 1, 2), (1, 0, 1, 2)],
        [(1, 0)],
    )
    result = solve(graph)
    assert result.edge_flows.tolist() == [1, 0, 1, 0, 1]
    assert result == solve_ssp(graph)


def test_flow_result_holds_read_only_int64_flows():
    given = np.array([1, 0, 1])
    result = FlowResult(given, 1, 2)
    assert result.edge_flows.dtype == np.int64 and not result.edge_flows.flags.writeable
    assert given.flags.writeable
    assert result == FlowResult((1, 0, 1), 1, 2) == FlowResult([np.int32(1), 0, 1], 1, 2)
    assert result != FlowResult((1, 1, 1), 1, 2) and result != FlowResult((1, 0, 1), 1, 3)
    for flows in ((0.5, 1), np.array([1.0, 0.0]), (True, False), (2**70, 0)):
        with pytest.raises(ValueError, match="edge_flows must be integer counts"):
            FlowResult(flows, 1, 0)


def test_zero_flow_is_not_optimal():
    graph = build_layered([(1, 1)], [(0, 0, 1, 1)], [(1, 1)])
    zero = FlowResult(edge_flows=(0, 0, 0), total_flow=0, total_cost=0)
    assert not verify_optimality(graph, zero)


def test_costlier_reroute_is_not_optimal():
    # one unit must flow, so the point's source edge binds: solve refuses the
    # graph, and the SSP oracle uses the cost-1 pair; forcing the unit
    # through the cost-5 pair fails the residual negative-cycle check
    graph = build_layered(
        [(1, 0)],
        [(0, 0, 1, 0), (0, 1, 1, 0)],
        [(1, 1), (1, 5)],
    )
    forced = FlowResult(edge_flows=(1, 0, 1, 0, 1), total_flow=1, total_cost=5)
    for call in (lambda: solve(graph), lambda: verify_optimality(graph, forced)):
        with pytest.raises(GraphError, match="point 0: source capacity 1 is below its 2 units"):
            call()
    optimal = solve_ssp(graph)
    assert optimal.total_cost == 1
    assert not flow_violations(graph, forced)
    assert not verify_residual(graph, forced)
    assert verify_residual(graph, optimal)


def test_graph_error_names_the_first_point_whose_source_edge_can_bind():
    # point 7 covers its one pair edge; points 9 and 4 have two pair edges each but capacity 1
    edges = [FlowEdge(0, v, 1, 0) for v in (1, 2, 3)]
    edges += [FlowEdge(1, 4, 1, 0), FlowEdge(2, 4, 1, 0), FlowEdge(2, 5, 1, 0), FlowEdge(3, 4, 1, 0), FlowEdge(3, 5, 1, 0)]
    edges += [FlowEdge(4, 6, 1, 0), FlowEdge(5, 6, 1, 0)]
    graph = graph_from_edges([7, 9, 4], [(0, 1), (0, 2)], edges)
    with pytest.raises(GraphError, match="^point 9: source capacity 1 is below its 2 units"):
        solve(graph)
    with pytest.raises(GraphError, match="^point 9: "):
        verify_optimality(graph, solve_ssp(graph))


def test_infeasible_result_rejected():
    graph = build_layered([(1, 1)], [(0, 0, 1, 1)], [(1, 1)])
    over = FlowResult(edge_flows=(2, 2, 2), total_flow=2, total_cost=8)
    assert not verify_optimality(graph, over)


@pytest.mark.parametrize(
    "n_points, capacity, cost",
    [
        pytest.param(1, 1 << 61, 2, id="cost-sum-2**62"),
        pytest.param(3, (1 << 62) - 1, 0, id="capacity-sum-beyond-int64"),
    ],
)
def test_sums_beyond_int64_raise_graph_error(n_points, capacity, cost):
    # points with one pair edge each, of the source edge's capacity; in the
    # second case the int64 sum of the pair edges' capacities would wrap
    graph = build_layered([(capacity, cost)] * n_points, [(i, 0, capacity, 0) for i in range(n_points)], [(1, 0)])
    zero = FlowResult(np.zeros(graph.n_edges, np.int64), 0, 0)
    for call in (lambda: solve(graph), lambda: verify_optimality(graph, zero)):
        with pytest.raises(GraphError, match="2\\*\\*62"):
            call()


@pytest.mark.parametrize("capacity_m", [10**11, 2**62 - 1])
def test_a_budget_above_every_pair_stays_in_the_closed_form(capacity_m):
    # M enters the int64 bound only through min(M, k): a budget far above
    # every pair's k must neither raise nor change a flow
    slam_map, _ = generate(SynthConfig(seed=0, **SWEEP_SYNTH))
    graph = build_graph(slam_map, GraphConfig(capacity_m=1))
    middle = (graph.tail != graph.source_index) & (graph.head != graph.sink_index)
    max_k = int(np.bincount(graph.head[middle]).max())
    reference, selection = (
        sparsify(slam_map, SparsifyConfig(graph=GraphConfig(capacity_m=m))) for m in (max_k, capacity_m)
    )
    assert np.array_equal(selection.point_flow, reference.point_flow)
    assert np.array_equal(selection.kept_point_ids, reference.kept_point_ids)
    assert (selection.total_flow, selection.total_cost) == (reference.total_flow, reference.total_cost)
    graph = build_graph(slam_map, GraphConfig(capacity_m=capacity_m))
    assert verify_optimality(graph, solve(graph))


def test_solve_matches_enumeration_on_tiny_graphs():
    # each draw lifted to the closed form; the SSP oracle also solves it as drawn
    rng = np.random.default_rng(1234)
    for _ in range(60):
        drawn = random_tiny_graph(rng)
        graph = lift_to_closed_form(drawn)
        if graph is not drawn:
            assert refused(drawn)
            ssp = solve_ssp(drawn)
            assert (ssp.total_flow, ssp.total_cost) == enumerate_min_cost_max_flow(drawn)
        result = solve(graph)
        max_flow, min_cost = enumerate_min_cost_max_flow(graph)
        assert result.total_flow == max_flow
        assert result.total_cost == min_cost
        assert not flow_violations(graph, result)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_solve_matches_oracle_and_certificate(seed):
    rng = np.random.default_rng(seed)
    drawn = random_layered_graph(rng)
    graph = lift_to_closed_form(drawn)
    if graph is not drawn:
        assert refused(drawn)
        # the oracles agree with each other on the graph as drawn
        ssp = solve_ssp(drawn)
        assert ssp.total_flow == max_flow_oracle(drawn)
        assert verify_residual(drawn, ssp)
    result = solve(graph)
    ssp = solve_ssp(graph)
    assert result.total_flow == max_flow_oracle(graph)
    assert (result.total_flow, result.total_cost) == (ssp.total_flow, ssp.total_cost)
    assert verify_optimality(graph, result)
    assert verify_residual(graph, result)
    assert not flow_violations(graph, result)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), bump=st.integers(1, 4))
def test_flow_monotone_in_sink_capacity(seed, bump):
    rng = np.random.default_rng(seed)
    graph = lift_to_closed_form(random_layered_graph(rng))
    raised = FlowGraph(
        graph.point_ids,
        graph.pairs,
        graph.tail,
        graph.head,
        graph.capacity + bump * (graph.head == graph.sink_index),
        graph.cost,
    )
    assert solve(raised).total_flow >= solve(graph).total_flow


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 7))
def test_cost_scaling_invariance(seed, k):
    rng = np.random.default_rng(seed)
    graph = lift_to_closed_form(random_layered_graph(rng))
    scaled = FlowGraph(graph.point_ids, graph.pairs, graph.tail, graph.head, graph.capacity, graph.cost * k)
    base = solve(graph)
    result = solve(scaled)
    assert result.total_cost == base.total_cost * k
    assert np.array_equal(result.edge_flows, base.edge_flows)


def test_solve_is_deterministic():
    rng = np.random.default_rng(99)
    graph = lift_to_closed_form(random_layered_graph(rng))
    a = solve(graph)
    b = solve(graph)
    assert a == b


@pytest.fixture(scope="module")
def map_sweep():
    """build_graph outputs on the acceptance maps, M in {50, 100, 200}, seeds 0-5, both solvers' flows."""
    cells = []
    for seed in range(6):
        slam_map, _ = generate(SynthConfig(seed=seed, **SWEEP_SYNTH))
        for m_value in (50, 100, 200):
            graph = build_graph(slam_map, GraphConfig(capacity_m=m_value))
            cells.append((graph, solve(graph), solve_ssp(graph)))
    return cells


def test_closed_form_matches_ssp_on_map_sweep(map_sweep):
    for graph, closed, ssp in map_sweep:
        assert (closed.total_flow, closed.total_cost) == (ssp.total_flow, ssp.total_cost)
        assert closed == ssp


def test_both_certificates_accept_map_sweep(map_sweep):
    for graph, closed, _ in map_sweep:
        assert verify_optimality(graph, closed)
        assert verify_residual(graph, closed)


def _swap_for_a_dearer_candidate(graph, result) -> FlowResult:
    """The flow with one used candidate moved to a strictly dearer unused one in the same pair."""
    flows = result.edge_flows.copy()
    source_edge = {e.head: i for i, e in enumerate(graph.edges) if e.tail == graph.source_index}

    def key(i):
        e = graph.edges[i]
        return graph.edges[source_edge[e.tail]].cost + e.cost

    by_pair: dict[int, list[int]] = {}
    for i, e in enumerate(graph.edges):
        if e.tail != graph.source_index and e.head != graph.sink_index:
            by_pair.setdefault(e.head, []).append(i)
    used, dearer = next(
        (u, d)
        for members in by_pair.values()
        for u in members
        for d in members
        if flows[u] == 1 and flows[d] == 0 and key(d) > key(u)
    )
    flows[used], flows[dearer] = 0, 1
    flows[source_edge[graph.edges[used].tail]] -= 1
    flows[source_edge[graph.edges[dearer].tail]] += 1
    return FlowResult(
        flows,
        result.total_flow,
        result.total_cost + key(dearer) - key(used),
    )


def test_both_certificates_reject_a_cheaper_unused_candidate():
    # the acceptance suite's clustered map
    slam_map, _ = generate(SynthConfig(seed=0, **CLUSTER_SYNTH))
    graph = build_graph(slam_map, GraphConfig(capacity_m=CLUSTER_M))
    swapped = _swap_for_a_dearer_candidate(graph, solve(graph))
    assert not flow_violations(graph, swapped)
    assert not verify_optimality(graph, swapped)
    assert not verify_residual(graph, swapped)


def test_residual_certificate_rejects_a_swap_at_acceptance_size_quickly():
    # Bellman-Ford stops at the first negative cycle among its predecessor
    # pointers instead of running all n passes (seconds on this graph).
    slam_map, _ = generate(SynthConfig(seed=0, **SWEEP_SYNTH))
    graph = build_graph(slam_map, GraphConfig(capacity_m=100))
    result = solve(graph)
    swapped = _swap_for_a_dearer_candidate(graph, result)
    assert not flow_violations(graph, swapped)
    t0 = time.perf_counter()
    assert not verify_residual(graph, swapped)
    assert time.perf_counter() - t0 < 1.0
    assert verify_residual(graph, result)


@pytest.mark.parametrize("m_value", [50, 100, 200])
def test_solve_matches_networkx_at_acceptance_size(m_value):
    # An outside solver on a real build_graph output (2000 points, 50 keyframes).
    nx = pytest.importorskip("networkx")
    slam_map, _ = generate(SynthConfig(seed=0, **SWEEP_SYNTH))
    graph = build_graph(slam_map, GraphConfig(capacity_m=m_value))
    result = solve(graph)

    g = nx.DiGraph()
    for tail, head, capacity, cost in zip(*(a.tolist() for a in (graph.tail, graph.head, graph.capacity, graph.cost))):
        g.add_edge(tail, head, capacity=capacity, weight=cost)
    max_flow = nx.maximum_flow_value(g, graph.source_index, graph.sink_index)
    g.nodes[graph.source_index]["demand"] = -max_flow
    g.nodes[graph.sink_index]["demand"] = max_flow
    min_cost, _ = nx.network_simplex(g)
    assert (result.total_flow, result.total_cost) == (max_flow, min_cost)
