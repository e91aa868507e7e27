import dataclasses
import itertools
import json
import re
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_map, map_from_records
from flow_cases import build_layered
from map_oracles import (
    apply_selection_oracle, cull_keyframes_oracle, index_oracle, selection_json_oracle, window_maps_oracle,
)
from mapsparse import map_model
from mapsparse.flow_graph import FlowGraph, GraphConfig, GraphError, build_graph
from mapsparse.map_model import Keyframe, maps_equal, validate
from mapsparse.mcmf import FlowResult, solve
from mapsparse.sparsifier import (
    SelectionResult,
    SparsifyConfig,
    apply_selection,
    _above_threshold,
    _point_flow,
    _window_rows,
    cull_keyframes,
    selection_from_kept,
    sparsify,
    underviewed_points,
)
from mapsparse.synth import GenerationError, SynthConfig, generate
from test_flow_graph import graph_configs, grid_maps
from test_map_model import messy_maps


ID_FIELDS = ("kept_point_ids", "dropped_point_ids", "culled_keyframe_ids", "underviewed_point_ids")
# Ids whose string order differs from their numeric order ("-3" < "10" < "100" < "9"), and the int64 extremes.
report_ids = st.one_of(st.integers(-20, 120), st.integers(-(2**63), 2**63 - 1))


def config(m, **kwargs):
    return SparsifyConfig(graph=GraphConfig(capacity_m=m), **kwargs)


def test_disjoint_pairs_keep_everything():
    # every point seen by its own two frames: no pair-edge competition, so
    # each capacity-1 source edge saturates and every point survives
    slam_map = make_map(
        frame_positions=[(i, 0, 0) for i in range(10)],
        point_obs={i: [(2 * i, 10, 10), (2 * i + 1, 10, 10)] for i in range(5)},
    )
    selection = sparsify(slam_map, config(1, keyframe_min_points=1))
    assert selection.kept_point_ids.tolist() == [0, 1, 2, 3, 4]
    assert selection.dropped_point_ids.tolist() == []


def test_shared_pair_budget_forces_single_survivor():
    slam_map = make_map(
        frame_positions=[(0, 0, 0), (1, 0, 0)],
        point_obs={pid: [(0, 10 + 40 * pid, 10), (1, 10 + 40 * pid, 10)] for pid in range(10)},
    )
    selection = sparsify(slam_map, config(1, keyframe_min_points=1))
    assert len(selection.kept_point_ids) == 1
    assert len(selection.dropped_point_ids) == 9
    assert selection.kept_point_ids.tolist() == [0]  # deterministic lowest-edge tie break
    assert selection.total_flow == 1


def test_theta_one_keeps_nothing():
    slam_map = make_map(
        frame_positions=[(0, 0, 0), (1, 0, 0)],
        point_obs={0: [(0, 10, 10), (1, 10, 10)]},
    )
    selection = sparsify(slam_map, config(5, theta_ratio=1.0, keyframe_min_points=1))
    # strict inequality: flow can never exceed capacity
    assert selection.kept_point_ids.tolist() == []


def select_points(result, graph, theta_ratio):
    """The kept point ids as sparsify thresholds them, as a list."""
    return _above_threshold(_point_flow(result, graph), theta_ratio).tolist()


class TestSelectPoints:
    def graph_with_caps(self):
        return build_layered(
            [(3, 1), (6, 1), (1, 1)],
            [(i, 0, 1, 0) for i in range(3)],
            [(10, 1)],
        )

    def test_integer_threshold_boundaries(self):
        graph = self.graph_with_caps()
        flows = {0: 2, 1: 3, 2: 1}  # per source edge
        edge_flows = [0] * graph.n_edges
        for ei, pid in enumerate(graph.point_ids.tolist()):  # edge i is the source edge of point_ids[i]
            edge_flows[ei] = flows[pid]
        result = FlowResult(tuple(edge_flows), sum(flows.values()), 0)
        kept = select_points(result, graph, 0.5)
        assert kept == [0, 2]  # 2*2 > 3 and 2*1 > 1, but 2*3 > 6 is false

    def test_quarter_ratio(self):
        graph = build_layered([(4, 1)], [(0, 0, 1, 0)], [(4, 1)])
        ei = 0  # the source edge of point_ids[0], point 0
        flows = [0] * graph.n_edges
        flows[ei] = 1
        assert select_points(FlowResult(tuple(flows), 1, 0), graph, 0.25) == []
        flows[ei] = 2
        assert select_points(FlowResult(tuple(flows), 2, 0), graph, 0.25) == [0]


@settings(max_examples=200, deadline=None)
@given(
    flows=st.dictionaries(
        report_ids, st.integers(1, 2**62 - 1).flatmap(lambda cap: st.tuples(st.integers(0, cap), st.just(cap)))
    ),
    theta_ratio=st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1 / 3, 1.0, 5e-324]), st.floats(0, 1)),
)
def test_threshold_is_exact_fraction_arithmetic(flows, theta_ratio):
    # a float ratio such as 0.1 is a fraction over 2**55 or more, so flow * denominator can leave int64
    rows = np.array(sorted((pid, f, c) for pid, (f, c) in flows.items()), np.int64).reshape(-1, 3)
    expected = [pid for pid, (f, c) in sorted(flows.items()) if f > Fraction(theta_ratio) * c]
    assert _above_threshold(rows, theta_ratio).tolist() == expected


class TestCullKeyframes:
    def test_zero_connection_interior_frame_culled(self):
        slam_map = make_map(
            frame_positions=[(0, 0, 0), (1, 0, 0), (2, 0, 0)],
            point_obs={0: [(0, 5, 5), (2, 5, 5)]},
        )
        assert cull_keyframes(slam_map, {0}, 1).tolist() == [1]

    def test_all_frames_above_threshold(self):
        slam_map = make_map(
            frame_positions=[(0, 0, 0), (1, 0, 0)],
            point_obs={0: [(0, 5, 5), (1, 5, 5)]},
        )
        assert cull_keyframes(slam_map, {0}, 1).tolist() == []

    def test_trajectory_anchors_exempt(self):
        # interior frame 1 and last frame 3 both observe too few kept points;
        # threshold 3 culls only the interior one
        slam_map = make_map(
            frame_positions=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
            point_obs={
                0: [(0, 5, 5), (1, 5, 5), (2, 5, 5), (3, 5, 5)],
                1: [(0, 9, 9), (1, 9, 9), (2, 9, 9), (3, 9, 9)],
                2: [(0, 13, 13), (2, 13, 13)],
            },
        )
        culled = cull_keyframes(slam_map, {0, 1, 2}, 3)
        assert culled.tolist() == [1]  # frame 2 sees 3 kept, frame 3 sees 2 but is the last


def test_apply_selection_output_validates():
    slam_map, _ = generate(SynthConfig(n_points=150, n_keyframes=10, dropout=0.3, seed=2))
    selection = sparsify(slam_map, config(3))
    out = apply_selection(slam_map, selection)
    assert validate(out).ok
    assert out.points.id.tolist() == selection.kept_point_ids.tolist()
    assert {k.id for k in out.keyframes}.isdisjoint(selection.culled_keyframe_ids.tolist())


def test_kept_bounded_by_total_flow():
    slam_map, _ = generate(SynthConfig(n_points=200, n_keyframes=12, dropout=0.4, seed=6))
    selection = sparsify(slam_map, config(2))
    kept, underviewed = (set(ids.tolist()) for ids in (selection.kept_point_ids, selection.underviewed_point_ids))
    assert len(kept - underviewed) <= selection.total_flow


def test_partition_of_input_points():
    slam_map, _ = generate(SynthConfig(n_points=120, n_keyframes=8, dropout=0.5, seed=7))
    selection = sparsify(slam_map, config(2))
    all_ids = {p.id for p in slam_map.points}
    kept, dropped = (set(ids.tolist()) for ids in (selection.kept_point_ids, selection.dropped_point_ids))
    assert kept | dropped == all_ids
    assert not kept & dropped


def test_underviewed_points_follow_drop_flag():
    slam_map = make_map(
        frame_positions=[(0, 0, 0), (1, 0, 0)],
        point_obs={0: [(0, 10, 10), (1, 10, 10)], 1: [(0, 50, 50)]},
    )
    dropped = sparsify(slam_map, config(5, keyframe_min_points=1))
    assert 1 in dropped.dropped_point_ids.tolist()
    assert dropped.underviewed_point_ids.tolist() == [1]
    kept = sparsify(slam_map, config(5, keyframe_min_points=1, drop_underviewed=False))
    assert 1 in kept.kept_point_ids.tolist()


def test_selection_result_json_is_deterministic():
    slam_map, _ = generate(SynthConfig(n_points=100, n_keyframes=8, dropout=0.3, seed=11))
    a = sparsify(slam_map, config(3)).to_json(include_timings=False)
    b = sparsify(slam_map, config(3)).to_json(include_timings=False)
    assert a == b
    doc = json.loads(a)
    assert doc["counts"]["input_points"] == 100
    assert "timings_ms" not in doc
    assert "timings_ms" in json.loads(sparsify(slam_map, config(3)).to_json())


def test_percentages():
    slam_map, _ = generate(SynthConfig(n_points=100, n_keyframes=10, dropout=0.3, seed=13))
    selection = sparsify(slam_map, config(3))
    assert selection.mp_pct == pytest.approx(100.0 * len(selection.kept_point_ids) / 100)
    kept_kf = 10 - len(selection.culled_keyframe_ids)
    assert selection.kf_pct == pytest.approx(100.0 * kept_kf / 10)


def test_propagates_graph_error():
    slam_map = make_map([(0, 0, 0), (1, 0, 0)], {0: [(0, 10, 10)]})
    with pytest.raises(GraphError):
        sparsify(slam_map, config(1))


def test_config_validation():
    with pytest.raises(ValueError):
        SparsifyConfig(graph=GraphConfig(capacity_m=1), theta_ratio=1.5)
    with pytest.raises(ValueError):
        SparsifyConfig(graph=GraphConfig(capacity_m=1), keyframe_min_points=0)


@pytest.mark.parametrize("config_type, field, value, error, what", [
    (SparsifyConfig, "keyframe_min_points", True, ValueError, "an integer >= 1"),
    (SparsifyConfig, "keyframe_min_points", 2.5, ValueError, "an integer >= 1"),
    (SparsifyConfig, "keyframe_min_points", "3", ValueError, "an integer >= 1"),
    (SparsifyConfig, "window", 2.0, ValueError, "an integer >= 0"),
    (SparsifyConfig, "theta_ratio", "0.5", ValueError, "a number in"),
    (SparsifyConfig, "theta_ratio", True, ValueError, "a number in"),
    (SparsifyConfig, "theta_ratio", np.bool_(True), ValueError, "a number in"),
    (SparsifyConfig, "theta_ratio", np.float32(0.5), ValueError, "a number in"),
    (SparsifyConfig, "theta_ratio", float("nan"), ValueError, "a number in"),
    (GraphConfig, "capacity_m", 2.0, GraphError, "an integer >= 1"),
    (SynthConfig, "n_points", 2.5, GenerationError, "an integer >= 1"),
    (SynthConfig, "n_points", True, GenerationError, "an integer >= 1"),
    (SynthConfig, "n_keyframes", 2.0, GenerationError, "an integer >= 1"),
    (SynthConfig, "seed", 1.5, GenerationError, "an integer >= 0"),
    (SynthConfig, "seed", -1, GenerationError, "an integer >= 0"),
])
def test_configs_refuse_values_of_the_wrong_type_with_their_own_error(config_type, field, value, error, what):
    base = {"capacity_m": 1} if config_type is GraphConfig else {}
    if config_type is SparsifyConfig:
        base["graph"] = GraphConfig(capacity_m=1)
    with pytest.raises(error, match=f"^{field} must be {re.escape(what)}.*, got {re.escape(repr(value))}$"):
        config_type(**{**base, field: value})


def test_configs_take_python_and_numpy_numbers():
    config = SparsifyConfig(graph=GraphConfig(capacity_m=np.int64(3)), theta_ratio=Fraction(1, 3),
                            keyframe_min_points=np.int32(2), window=np.uint8(4))
    assert (config.theta_ratio, config.keyframe_min_points, config.window) == (Fraction(1, 3), 2, 4)
    SparsifyConfig(graph=GraphConfig(capacity_m=1), theta_ratio=np.float64(0.25))
    SparsifyConfig(graph=GraphConfig(capacity_m=1), theta_ratio=1)
    assert SynthConfig(n_points=np.int64(5), n_keyframes=np.int32(2), seed=np.uint64(7)).n_points == 5


@pytest.mark.parametrize("keyframe_min_points", [0, -3])
def test_cull_keyframes_rejects_a_minimum_below_one(keyframe_min_points):
    slam_map = make_map([(0, 0, 0), (1, 0, 0)], {0: [(0, 10, 10), (1, 10, 10)]})
    with pytest.raises(ValueError, match=f"keyframe_min_points must be an integer >= 1, got {keyframe_min_points}"):
        cull_keyframes(slam_map, {0}, keyframe_min_points)


@settings(max_examples=150, deadline=None)
@given(slam_map=messy_maps(), data=st.data())
def test_column_steps_match_record_by_record_oracles(slam_map, data):
    # repeated and dangling ids included: the steps must index maps as the oracles do
    point_ids = sorted({p.id for p in slam_map.points} | {o.point_id for o in slam_map.observations} | {-5})
    frame_ids = sorted({k.id for k in slam_map.keyframes} | {o.keyframe_id for o in slam_map.observations} | {-5})
    kept = frozenset(data.draw(st.lists(st.sampled_from(point_ids))))
    culled = frozenset(data.draw(st.lists(st.sampled_from(frame_ids))))
    for keyframe_min_points in (1, 2, 3):
        assert cull_keyframes(slam_map, kept, keyframe_min_points).tolist() == sorted(
            cull_keyframes_oracle(slam_map, kept, keyframe_min_points)
        )
    frames_of = index_oracle(slam_map)[0]
    assert underviewed_points(slam_map).tolist() == sorted({p.id for p in slam_map.points if len(frames_of[p.id]) < 2})
    selection = SelectionResult(kept, frozenset(), culled, frozenset(), {}, None, None, 0, 0)
    assert maps_equal(apply_selection(slam_map, selection), apply_selection_oracle(slam_map, selection))


@pytest.mark.parametrize("include_timings", [True, False])
def test_report_json_is_the_bytes_of_json_dumps(include_timings):
    slam_map, _ = generate(SynthConfig(n_points=100, n_keyframes=8, dropout=0.3, seed=11))
    results = [
        sparsify(slam_map, config(3)),
        SelectionResult(frozenset(), frozenset(), frozenset(), frozenset(), {}, None, None, 0, 0),
        # point_flow keys sort as strings: "-3" < "10" < "100" < "9"
        SelectionResult(
            frozenset({9, 10, -3}), frozenset({2**62}), frozenset({1}), frozenset({10}),
            {9: (1, 3), 10: (0, 1), -3: (2, 2), 100: (5, 6)}, 7, 12345678901234, 4, 2, 1.5, 0.1,
        ),
    ]
    for result, block in itertools.product(results, (1, 2, map_model._ROW_BLOCK)):  # entries formatted at a time
        with mock.patch.object(map_model, "_ROW_BLOCK", block):
            assert result.to_json(include_timings) == selection_json_oracle(result, include_timings)


@settings(max_examples=150, deadline=None)
@given(slam_map=messy_maps(), data=st.data())
def test_array_and_set_inputs_give_one_selection(slam_map, data):
    # frozensets plus a {id: (flow, capacity)} mapping, the form perfbench's gate passes, and arrays in any
    # order with repeats must both be held as sorted, distinct, read-only int64 arrays
    map_ids = sorted({p.id for p in slam_map.points} | {k.id for k in slam_map.keyframes})
    ids = st.frozensets(st.one_of(st.sampled_from(map_ids), report_ids) if map_ids else report_ids)
    sets = [data.draw(ids) for _ in ID_FIELDS]
    flows = data.draw(st.dictionaries(report_ids, st.tuples(st.integers(0, 2**62 - 1), st.integers(1, 2**62 - 1))))
    totals = [data.draw(st.none() | st.integers(0, 2**62)) for _ in range(2)]
    counts = (slam_map.n_points, slam_map.n_keyframes)

    def shuffled(rows):  # in a drawn order, some rows twice
        rows = data.draw(st.permutations(rows))
        return rows + rows[: data.draw(st.integers(0, len(rows)))]

    as_sets = SelectionResult(*sets, flows, *totals, *counts)
    as_arrays = SelectionResult(
        *(np.array(shuffled(sorted(s)), np.int64) for s in sets),
        np.array(data.draw(st.permutations([(pid, f, c) for pid, (f, c) in flows.items()])), np.int64).reshape(-1, 3),
        *totals,
        *counts,
    )
    raw = SimpleNamespace(
        **dict(zip(ID_FIELDS, sets)), point_flow=flows, total_flow=totals[0], total_cost=totals[1],
        n_input_points=counts[0], n_input_keyframes=counts[1],
        mp_pct=100.0 * len(sets[0]) / counts[0] if counts[0] else 0.0,
        kf_pct=100.0 * (counts[1] - len(sets[2])) / counts[1] if counts[1] else 0.0,
    )
    expected = selection_json_oracle(raw, include_timings=False)
    for result in (as_sets, as_arrays):
        for name, id_set in zip(ID_FIELDS, sets):
            field = getattr(result, name)
            assert field.dtype == np.int64 and not field.flags.writeable
            assert field.tolist() == sorted(id_set)
        assert result.point_flow.dtype == np.int64 and not result.point_flow.flags.writeable
        assert result.point_flow.tolist() == [[pid, f, c] for pid, (f, c) in sorted(flows.items())]
        assert result.to_json(include_timings=False) == expected
        assert maps_equal(apply_selection(slam_map, result), apply_selection_oracle(slam_map, raw))


def test_selection_result_refuses_malformed_arrays():
    with pytest.raises(ValueError, match="point id twice"):
        SelectionResult((), (), (), (), np.array([[4, 1, 2], [4, 0, 2]]), None, None, 0, 0)
    with pytest.raises(ValueError, match="P, 3"):
        SelectionResult((), (), (), (), np.zeros((2, 2), np.int64), None, None, 0, 0)
    with pytest.raises(ValueError, match="1-d"):
        SelectionResult(np.zeros((2, 2), np.int64), (), (), (), {}, None, None, 0, 0)


@settings(max_examples=120, deadline=None)
@given(
    slam_map=grid_maps(),
    config=graph_configs,
    theta_ratio=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    data=st.data(),
)
def test_baseline_cost_only_shifts_total_cost(slam_map, config, theta_ratio, data):
    # No source edge can bind, so every maximum flow fills each pair to
    # min(M, k) and pays the same sum of cb * min(M, k): cb, even an arbitrary
    # one, moves no flow and no selection.
    configs = [dataclasses.replace(config, enable_cb=flag) for flag in (True, False)]
    try:
        graphs = [build_graph(slam_map, c) for c in configs]
    except GraphError:
        assume(False)  # no point is seen by two keyframes
    on = graphs[0]
    sink = on.head == on.sink_index
    any_cb = data.draw(st.lists(st.integers(0, 2**32), min_size=int(sink.sum()), max_size=int(sink.sum())))
    cost = on.cost.copy()
    cost[sink] = any_cb
    graphs.append(FlowGraph(on.point_ids, on.pairs, on.tail, on.head, on.capacity, cost))
    middle = (on.tail != on.source_index) & ~sink
    k = np.bincount(on.head[middle], minlength=on.n_vertices)[on.tail[sink]]
    filled = np.minimum(config.capacity_m, k)

    results = [solve(graph) for graph in graphs]
    off = results[1]  # every cb is 1
    for graph, result in zip(graphs, results):
        assert np.array_equal(result.edge_flows, off.edge_flows)
        assert result.total_flow == off.total_flow
        assert result.total_cost - off.total_cost == sum(((graph.cost[sink] - 1) * filled).tolist())
        assert select_points(result, graph, theta_ratio) == select_points(off, graphs[1], theta_ratio)

    sel_on, sel_off = (sparsify(slam_map, SparsifyConfig(graph=c, theta_ratio=theta_ratio)) for c in configs)
    assert np.array_equal(sel_on.kept_point_ids, sel_off.kept_point_ids)
    assert np.array_equal(sel_on.culled_keyframe_ids, sel_off.culled_keyframe_ids)
    assert np.array_equal(sel_on.point_flow, sel_off.point_flow)
    assert sel_on.total_cost - sel_off.total_cost == sum(((on.cost[sink] - 1) * filled).tolist())


@st.composite
def window_runs(draw):
    """A valid map whose seq_index order is a drawn permutation of its id order, a window size from
    1 to past the keyframe count, and a config. Points may be seen by no keyframe, once, or more often
    than a window holds, so some windows have no point with two observers."""
    n_frames = draw(st.integers(1, 9))
    seq = draw(st.permutations(range(n_frames)))
    u, v = st.integers(0, 40).map(lambda i: 8.0 * i), st.integers(0, 30).map(lambda i: 8.0 * i)
    point_obs = {}
    for i in range(draw(st.integers(0, 14))):
        frames = draw(st.lists(st.integers(0, n_frames - 1), unique=True, max_size=n_frames))
        point_obs[3 * i + 2] = [(f, draw(u), draw(v)) for f in frames]
    slam_map = make_map([(0, 0, 7 * f) for f in range(n_frames)], point_obs)
    keyframes = [Keyframe(kf.id, seq[kf.id], 0.1 * seq[kf.id], kf.pose, kf.intrinsics) for kf in slam_map.keyframes]
    slam_map = map_from_records(keyframes, slam_map.points, slam_map.observations)
    window = draw(st.one_of(st.just(1), st.integers(1, n_frames + 1), st.just(n_frames + 5)))
    config = SparsifyConfig(
        graph=draw(graph_configs),
        theta_ratio=draw(st.sampled_from([0.5, 0.0, 1.0, 1 / 3])),
        keyframe_min_points=draw(st.integers(1, 3)),
        drop_underviewed=draw(st.booleans()),
        window=window,
    )
    return slam_map, config


def window_run_oracle(slam_map, config):
    """A window run as whole-map sparsify runs on each window's own map, joined by selection_from_kept."""
    whole = dataclasses.replace(config, window=0)
    kept = [] if config.drop_underviewed else [underviewed_points(slam_map)]
    for sub in window_maps_oracle(slam_map, config.window):
        if (sub.observer_counts() >= 2).any():
            kept.append(sparsify(sub, whole).kept_point_ids)
    return selection_from_kept(slam_map, np.concatenate(kept) if kept else (), config.keyframe_min_points)


@settings(max_examples=200, deadline=None)
@given(case=window_runs())
def test_a_window_run_is_the_runs_on_each_windows_own_map(case):
    slam_map, config = case
    assert validate(slam_map).ok
    got = sparsify(slam_map, config)
    assert got.to_json(include_timings=False) == window_run_oracle(slam_map, config).to_json(include_timings=False)
    assert len(got.point_flow) == 0 and got.total_flow is None and got.total_cost is None

    windows = _window_rows(slam_map, config.window)
    subs = window_maps_oracle(slam_map, config.window)
    assert len(windows) == len(subs)
    for rows, sub in zip(windows, subs):
        try:
            expected = build_graph(sub, config.graph)
        except GraphError:
            with pytest.raises(GraphError):
                build_graph(slam_map, config.graph, rows)
            continue
        graph = build_graph(slam_map, config.graph, rows)
        for name in ("point_ids", "pairs", "tail", "head", "capacity", "cost"):
            assert np.array_equal(getattr(graph, name), getattr(expected, name)), name


@pytest.mark.parametrize("window", [-1, 1.5, True, "3"])
def test_window_must_be_an_integer_at_least_zero(window):
    with pytest.raises(ValueError, match="window must be an integer >= 0"):
        SparsifyConfig(graph=GraphConfig(capacity_m=1), window=window)


def test_a_window_run_keeps_the_points_each_solved_window_sees_once():
    # windows of 2: keyframes 0-1 solve point 0, keyframes 2-3 solve point 2; point 1 is seen once in
    # each window, so it enters no graph, and only --keep-underviewed keeps it, as each window's own map does
    slam_map = make_map([(0, 0, 0), (0, 0, 5), (0, 0, 10), (0, 0, 15)],
                        {0: [(0, 10, 10), (1, 10, 10)], 1: [(1, 300, 200), (2, 300, 200)],
                         2: [(2, 500, 400), (3, 500, 400)]})
    for drop, kept in ((True, [0, 2]), (False, [0, 1, 2])):
        config = SparsifyConfig(graph=GraphConfig(capacity_m=5), keyframe_min_points=1,
                                drop_underviewed=drop, window=2)
        selection = sparsify(slam_map, config)
        assert selection.kept_point_ids.tolist() == kept
        assert selection.underviewed_point_ids.tolist() == []
        assert selection.to_json(include_timings=False) == window_run_oracle(slam_map, config).to_json(
            include_timings=False)
