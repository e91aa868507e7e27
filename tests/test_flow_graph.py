import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEFAULT_INTRINSICS, IDENTITY_Q, WORKLOAD_SHAPES, make_map, map_from_records
from flow_cases import build_graph_oracle, graph_from_edges, graphs_equal, layer, nearby_count
from map_oracles import index_oracle, window_maps_oracle
from mapsparse import flow_graph
from mapsparse.flow_graph import (
    FlowEdge,
    FlowGraph,
    GraphConfig,
    GraphError,
    baseline_cost,
    build_graph,
    connectivity_cost,
    point_capacity,
    spatial_cost,
    to_dimacs,
    _nearby_counts,
)
from mapsparse.map_model import CameraIntrinsics, Keyframe, Pose, SlamMap
from mapsparse.mcmf import solve
from mapsparse.synth import SynthConfig, generate

# An int64 overflow warning in the graph's cost and count arithmetic fails the test that raised it.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestConnectivityCost:
    def test_base_case_is_one(self):
        assert connectivity_cost(4, 4) == 1

    def test_recursion_table_m4(self):
        assert connectivity_cost(3, 4) == 2
        assert connectivity_cost(2, 4) == 6

    def test_recursion_table_m5(self):
        assert connectivity_cost(4, 5) == 2
        assert connectivity_cost(3, 5) == 4
        assert connectivity_cost(2, 5) == 12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            connectivity_cost(1, 4)
        with pytest.raises(ValueError):
            connectivity_cost(5, 4)

    def test_strictly_decreasing_in_n(self):
        for m in range(2, 31):
            values = [connectivity_cost(n, m) for n in range(2, m + 1)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert values[-1] == 1


class TestPointCapacity:
    def test_values(self):
        assert point_capacity(2) == 1
        assert point_capacity(4) == 6
        assert point_capacity(10) == 45

    def test_requires_two_observers(self):
        with pytest.raises(ValueError):
            point_capacity(1)


class TestNearbyCount:
    def test_lone_keypoint(self):
        slam_map = make_map([(0, 0, 0), (1, 0, 0)], {0: [(0, 100, 100), (1, 100, 100)]})
        assert nearby_count(slam_map, 0, 0) == 0

    def test_counts_inside_box_only(self):
        slam_map = make_map(
            [(0, 0, 0), (1, 0, 0)],
            {
                0: [(0, 100, 100), (1, 5, 5)],
                1: [(0, 120, 110), (1, 6, 5)],
                2: [(0, 200, 100), (1, 7, 5)],
            },
        )
        assert nearby_count(slam_map, 0, 0) == 1  # (200,100) is 100 px away in u

    def test_closed_box_boundary(self):
        slam_map = make_map(
            [(0, 0, 0), (1, 0, 0)],
            {0: [(0, 100, 100), (1, 5, 5)], 1: [(0, 132, 100), (1, 6, 5)]},
        )
        assert nearby_count(slam_map, 0, 0) == 1  # du == 32 on a 64-wide box counts

    def test_missing_observation(self):
        slam_map = make_map([(0, 0, 0), (1, 0, 0)], {0: [(0, 1, 1), (1, 1, 1)]})
        with pytest.raises(ValueError):
            nearby_count(slam_map, 0, 5)

    def test_batch_counts_match_single_queries(self):
        slam_map, _ = generate(SynthConfig(n_points=80, n_keyframes=6, dropout=0.2, seed=12))
        assert_counts_match(slam_map, 64, 48)


class TestSpatialCost:
    def test_examples(self):
        assert spatial_cost(0, 5) == 0
        assert spatial_cost(3, 3) == 1
        assert spatial_cost(10, 10) == 2

    def test_exact_at_decade_boundaries(self):
        assert spatial_cost(9, 11) == 2  # product + 1 == 100
        assert spatial_cost(1, 9) == 1  # product + 1 == 10
        assert spatial_cost(1, 8) == 0  # product + 1 == 9

    def test_non_decreasing_in_product(self):
        values = [spatial_cost(1, k) for k in range(0, 2000)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spatial_cost(-1, 3)


class TestBaselineCost:
    def test_examples(self):
        assert baseline_cost(0.0) == 10
        assert baseline_cost(10.0) == 5
        assert baseline_cost(90.0) == 1

    def test_bounds_and_monotonicity(self):
        values = [baseline_cost(d / 10.0) for d in range(0, 3000)]
        assert all(1 <= v <= 10 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            baseline_cost(-1.0)
        with pytest.raises(ValueError):
            baseline_cost(float("nan"))


def connectivity_reference(m):
    """c(n) for n in [2, m] from c(n) = ceil((n+1)/(n-1) * c(n+1)), c(m) = 1, in fractions."""
    c = [1]
    for n in range(m - 1, 1, -1):
        c.append(math.ceil(Fraction(n + 1, n - 1) * c[-1]))
    return c[::-1]


INT64_MAX = 2**63 - 1


def baseline_steps():
    """Distances on each ceil step of the baseline cost, 10 / (0.1*d + 1) = k, and one ulp either side."""
    steps = np.array([100.0 / k - 10.0 for k in range(1, 11)])
    d = np.concatenate([steps, np.nextafter(steps, np.inf), np.nextafter(steps, -np.inf)])
    return np.sort(d[d >= 0])


class TestCostsOnArrays:
    """Each cost function, given arrays, equals its scalar calls element by element."""

    def test_connectivity_cost_for_every_n_up_to_m(self):
        for m in range(2, 151):
            n = np.arange(2, m + 1)
            costs = connectivity_cost(n, m)
            assert costs.dtype == np.int64 and costs.shape == n.shape
            assert costs.tolist() == [connectivity_cost(int(k), m) for k in n] == connectivity_reference(m)
            column = n[::-1].reshape(-1, 1)
            assert connectivity_cost(column, m).tolist() == [[c] for c in connectivity_reference(m)[::-1]]

    def test_point_capacity(self):
        n = np.array([2, 3, 4, 10, 150, 10**6, 3_037_000_499])  # the last: n*(n-1) just below 2**63
        assert point_capacity(n).tolist() == [point_capacity(int(k)) for k in n] == [k * (k - 1) // 2 for k in n.tolist()]

    def test_spatial_cost_at_decade_boundaries(self):
        product = np.array([10**d + e for d in range(19) for e in (-2, -1, 0) if 0 <= 10**d + e < INT64_MAX])
        for n_j, n_k in ((product, 1), (1, product), (product, np.ones_like(product))):
            costs = spatial_cost(n_j, n_k)
            expected = [len(str(p + 1)) - 1 for p in product.tolist()]
            assert costs.tolist() == [spatial_cost(int(p), 1) for p in product] == expected
        factored = np.array([[9, 11], [3, 3], [1, 9], [1, 8], [99, 101], [3, 333], [31622, 31623], [3_037_000_499] * 2])
        assert spatial_cost(factored[:, 0], factored[:, 1]).tolist() == [
            len(str(a * b + 1)) - 1 for a, b in factored.tolist()
        ]

    def test_spatial_cost_up_to_the_int64_limit(self):
        assert spatial_cost(INT64_MAX - 1, 1) == 18
        assert spatial_cost(np.array([0, INT64_MAX]), np.array([INT64_MAX, 0])).tolist() == [0, 0]
        assert spatial_cost(np.array([[4, 5], [6, 7]]), 3).tolist() == [[1, 1], [1, 1]]

    @pytest.mark.parametrize("n_j, n_k", [(INT64_MAX, 1), (2**62, 2), (3_037_000_500, 3_037_000_500), (2, INT64_MAX)])
    def test_spatial_cost_raises_where_the_product_leaves_int64(self, n_j, n_k):
        with pytest.raises(ValueError, match="int64"):
            spatial_cost(n_j, n_k)
        with pytest.raises(ValueError, match="int64"):
            spatial_cost(np.array([3, n_j, 5]), np.array([4, n_k, 6]))

    def test_baseline_cost_one_ulp_either_side_of_each_ceil_step(self):
        d = baseline_steps()
        costs = baseline_cost(d)
        assert costs.dtype == np.int64
        assert costs.tolist() == [baseline_cost(float(x)) for x in d] == [math.ceil(10.0 / (0.1 * x + 1.0)) for x in d]
        assert set(costs.tolist()) == set(range(1, 11))
        assert all(a >= b for a, b in zip(costs.tolist(), costs.tolist()[1:]))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: point_capacity(np.array([2, 3, 1, 4])),
            lambda: connectivity_cost(np.array([2, 3, 1]), 5),
            lambda: connectivity_cost(np.array([2, 6, 3]), 5),
            lambda: spatial_cost(np.array([1, 2, 3]), np.array([3, -1, 4])),
            lambda: spatial_cost(np.array([1, -2, 3]), 4),
            lambda: baseline_cost(np.array([1.0, np.inf, 2.0])),
            lambda: baseline_cost(np.array([1.0, 2.0, np.nan])),
            lambda: baseline_cost(np.array([[1.0, np.nextafter(0.0, -1.0)]])),
        ],
    )
    def test_one_bad_element_raises(self, call):
        with pytest.raises(ValueError):
            call()

    def test_scalar_calls_return_numpy_integers(self):
        values = (connectivity_cost(2, 5), point_capacity(4), spatial_cost(3, 3), baseline_cost(10.0))
        assert all(isinstance(v, np.integer) for v in values) and values == (12, 6, 1, 5)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: point_capacity(2.5), "n"),
            (lambda: point_capacity(np.array([2.0, 3.0])), "n"),
            (lambda: point_capacity(True), "n"),
            (lambda: spatial_cost(1.9, 9), "n_j"),
            (lambda: spatial_cost(np.array([1, 2]), np.array([3.0, 4.0])), "n_k"),
            (lambda: connectivity_cost(2.7, 5), "n"),
            (lambda: connectivity_cost(np.array([2, 3]), 5.0), "m"),
        ],
    )
    def test_non_integer_counts_raise(self, call, name):
        # once truncated without a word: point_capacity(2.5) was 1, connectivity_cost(2.7, 5) was 12
        with pytest.raises(ValueError, match=f"^{name} must be integer counts"):
            call()

    @pytest.mark.parametrize("count", [4, np.int64(4), np.int32(4), np.uint8(4), np.array([4], np.int16)])
    def test_python_and_numpy_integer_counts_are_accepted(self, count):
        assert np.ravel(point_capacity(count)).tolist() == [6]
        assert np.ravel(spatial_cost(count, count)).tolist() == [1]
        assert np.ravel(connectivity_cost(count, 5)).tolist() == [2]
        assert connectivity_cost(2, np.ravel(count)[0]) == 6


class TestBuildGraph:
    def test_four_frame_fixture_structure(self, four_frame_map):
        graph = build_graph(four_frame_map, GraphConfig(capacity_m=2))
        # source + 3 points + 6 pairs + sink
        assert graph.n_vertices == 11
        assert graph.n_edges == 3 + 8 + 6

        # edge i is the source edge of point_ids[i]
        assert graph.point_ids.tolist() == [0, 1, 2]
        sources = list(graph.edges)[:3]
        assert [(e.tail, e.head) for e in sources] == [(0, 1), (0, 2), (0, 3)]
        assert [e.capacity for e in sources] == [1, 6, 1]
        assert [e.cost for e in sources] == [6, 1, 6]  # m = 4

        # keypoints are far apart so every point->pair cost is zero
        pair_edges = [e for e in graph.edges if layer(graph, e.tail) == "point"]
        assert all(e.capacity == 1 and e.cost == 0 for e in pair_edges)

        sink_costs = {
            pair: graph.edges[ei].cost for pair, ei in graph.pair_sink_edge.items()
        }
        # hand-evaluated from the camera centers at z = 0, 10, 30, 90
        assert sink_costs == {
            (0, 1): 5, (0, 2): 3, (0, 3): 1, (1, 2): 4, (1, 3): 2, (2, 3): 2,
        }
        assert all(graph.edges[ei].capacity == 2 for ei in graph.pair_sink_edge.values())

    def test_single_point_two_frames(self):
        slam_map = make_map([(0, 0, 0), (5, 0, 0)], {0: [(0, 10, 10), (1, 10, 10)]})
        graph = build_graph(slam_map, GraphConfig(capacity_m=7))
        assert graph.n_edges == 3
        caps = [e.capacity for e in graph.edges]
        assert caps == [1, 1, 7]

    def test_disable_spatial_cost_uses_substitute(self, four_frame_map):
        graph = build_graph(four_frame_map, GraphConfig(capacity_m=2, enable_cs=False))
        mid = [e for e in graph.edges if layer(graph, e.tail) == "point"]
        assert all(e.cost == 1 for e in mid)

    def test_disable_connectivity_and_baseline(self, four_frame_map):
        graph = build_graph(
            four_frame_map,
            GraphConfig(capacity_m=2, enable_cc=False, enable_cb=False),
        )
        assert all(e.cost == 1 for e in list(graph.edges)[: len(graph.point_ids)])
        assert all(graph.edges[ei].cost == 1 for ei in graph.pair_sink_edge.values())

    def test_underviewed_points_excluded(self):
        slam_map = make_map(
            [(0, 0, 0), (1, 0, 0)],
            {0: [(0, 10, 10), (1, 10, 10)], 1: [(0, 50, 50)]},
        )
        graph = build_graph(slam_map, GraphConfig(capacity_m=1))
        assert list(graph.point_ids) == [0]
        assert [(e.tail, e.head) for e in graph.edges if e.tail == 0] == [(0, 1)]

    def test_no_eligible_point_raises(self):
        slam_map = make_map([(0, 0, 0), (1, 0, 0)], {0: [(0, 10, 10)]})
        with pytest.raises(GraphError):
            build_graph(slam_map, GraphConfig(capacity_m=1))

    def test_source_capacity_equals_out_degree(self):
        slam_map, _ = generate(SynthConfig(n_points=120, n_keyframes=8, dropout=0.3, seed=5))
        graph = build_graph(slam_map, GraphConfig(capacity_m=3))
        sources = list(graph.edges)[: len(graph.point_ids)]
        total_cap = sum(e.capacity for e in sources)
        n_mid = sum(1 for e in graph.edges if layer(graph, e.tail) == "point")
        assert total_cap == n_mid
        # per point: out-degree equals source capacity
        for e in sources:
            out_deg = sum(1 for f in graph.edges if f.tail == e.head)
            assert out_deg == e.capacity

    def test_deterministic_and_input_order_invariant(self):
        slam_map, _ = generate(SynthConfig(n_points=60, n_keyframes=6, dropout=0.2, seed=8))
        permuted = map_from_records(
            list(reversed(slam_map.keyframes)),
            list(slam_map.points)[::-1],
            list(slam_map.observations)[::-1],
        )
        g1 = build_graph(slam_map, GraphConfig(capacity_m=4))
        g2 = build_graph(permuted, GraphConfig(capacity_m=4))
        assert graphs_equal(g1, g2)

    def test_topological_layering(self, four_frame_map):
        graph = build_graph(four_frame_map, GraphConfig(capacity_m=2))
        order = {"source": 0, "point": 1, "pair": 2, "sink": 3}
        for e in graph.edges:
            assert order[layer(graph, e.head)] == order[layer(graph, e.tail)] + 1


def every_count(slam_map, box_width, box_height):
    """_nearby_counts of every observation row."""
    return _nearby_counts(slam_map, box_width, box_height, np.ones(slam_map.n_observations, bool))


def assert_counts_match(slam_map, box_width, box_height, wanted=None):
    """_nearby_counts equals the single-query oracle on the ``wanted`` rows (all by default) and is 0 elsewhere."""
    if wanted is None:
        wanted = np.ones(slam_map.n_observations, bool)
    batch = _nearby_counts(slam_map, box_width, box_height, wanted)
    point, frame, _, _ = slam_map.observation_arrays()
    assert len(batch) == len(point) == slam_map.n_observations
    index = index_oracle(slam_map)
    for row, (p, f, count) in enumerate(zip(point, frame, batch)):
        if wanted[row]:
            pid, fid = slam_map.points.id.item(p), slam_map.keyframes[f].id
            assert count == nearby_count(slam_map, pid, fid, box_width, box_height, index)
        else:
            assert count == 0


def graph_rows(slam_map):
    """Mask of the observation_arrays() rows that build_graph reads: those of points with two or more observers."""
    point = slam_map.observation_arrays()[0]
    return np.bincount(point, minlength=slam_map.n_points)[point] >= 2


def one_frame_map(keypoints, image=(640, 480)):
    """Map of two keyframes with images of ``image`` (width, height): frame 0 holds the (u, v) keypoints,
    each of its own point, and frame 1 one keypoint."""
    point_obs = {i: [(0, u, v)] for i, (u, v) in enumerate(keypoints)}
    point_obs[len(keypoints)] = [(1, 5.0, 5.0)]
    width, height = image
    intrinsics = CameraIntrinsics(525.0, 525.0, width / 2, height / 2, width, height)
    return make_map([(0, 0, 0), (0, 0, 1)], point_obs, intrinsics)


class TestNearbyGrid:
    @pytest.mark.parametrize("box_width", [64, 63, 65, 1, 17])
    def test_keypoints_on_and_one_ulp_beside_column_edges(self, box_width):
        half_u, half_v = box_width / 2.0, 24.0
        keypoints = []
        for k in range(12):
            edge = float(k * box_width)
            us = [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf), edge + half_u]
            vs = [200.0, 200.0 + half_v, np.nextafter(200.0 + half_v, np.inf)]
            keypoints += [(u, v) for u in us if u >= 0 for v in vs]
        assert_counts_match(one_frame_map(keypoints, image=(1024, 480)), box_width, 48)

    def test_keypoints_on_the_image_edges(self):
        right, bottom = np.nextafter(640.0, 0.0), np.nextafter(480.0, 0.0)
        keypoints = [(u, v) for u in (0.0, 5e-324, 32.0, 608.0, right - 32.0, right) for v in (0.0, 24.0, bottom - 24.0, bottom)]
        assert_counts_match(one_frame_map(keypoints), 64, 48)

    def test_hundreds_of_keypoints_in_one_cell(self):
        rng = np.random.default_rng(3)
        crowded = rng.uniform((64.0, 48.0), (128.0, 96.0), size=(400, 2))
        around = rng.uniform((0.0, 0.0), (640.0, 480.0), size=(60, 2))
        slam_map = one_frame_map([tuple(uv) for uv in np.vstack([crowded, around]).tolist()])
        assert_counts_match(slam_map, 64, 48)
        assert every_count(slam_map, 64, 48).max() >= 300

    def test_a_keyframe_with_a_single_keypoint(self):
        slam_map = one_frame_map([(5.0, 5.0), (10.0, 8.0), (600.0, 400.0)])
        assert every_count(slam_map, 64, 48).tolist() == [1, 1, 0, 0]
        lone = make_map([(0, 0, 0)], {7: [(0, 320.0, 240.0)]})
        assert every_count(lone, 64, 48).tolist() == [0]

    def test_keypoints_of_other_keyframes_are_never_counted(self):
        # Column 1 of keyframe 0 and column 0 of keyframe 1 are neighbours in
        # the grid's order, and their keypoints lie 10 px apart.
        slam_map = make_map([(0, 0, 0), (0, 0, 1)], {0: [(0, 70.0, 100.0), (1, 60.0, 100.0)]})
        assert every_count(slam_map, 64, 48).tolist() == [0, 0]
        shifted = make_map([(0, 0, 0), (0, 0, 1)], {0: [(0, 60.0, 100.0), (1, 70.0, 100.0)], 1: [(0, 100.0, 100.0)]})
        assert every_count(shifted, 64, 48).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("box_width, box_height", [(64, 48), (63, 47), (1, 1)])
    def test_coordinates_where_the_widened_bounds_round(self, box_width, box_height):
        # At 2**54 the spacing of doubles is 4, so v + box_height/2 + 1 rounds
        # onto v + box_height/2 and the box edge is the run's last value.
        base = 2.0**54
        keypoints = [(base + 4.0 * i, base + 4.0 * j) for i in range(-9, 10) for j in range(-7, 8)]
        assert_counts_match(one_frame_map(keypoints, image=(2**56, 2**56)), box_width, box_height)

    def test_only_wanted_rows_are_counted(self):
        slam_map, _ = generate(SynthConfig(n_points=200, n_keyframes=5, dropout=0.3, seed=2))
        every = every_count(slam_map, 64, 48)
        assert every.min() >= 0 and every.max() > 0
        wanted = np.zeros(len(every), bool)
        wanted[[17, 3, len(every) - 1, 0]] = True
        assert _nearby_counts(slam_map, 64, 48, wanted).tolist() == np.where(wanted, every, 0).tolist()
        assert not _nearby_counts(slam_map, 64, 48, wanted & False).any()

    @pytest.mark.parametrize("synth, window", WORKLOAD_SHAPES)
    def test_rows_build_graph_reads_on_workload_shaped_maps(self, synth, window):
        slam_map, _ = generate(SynthConfig(seed=4, **synth))
        maps = [slam_map] + (window_maps_oracle(slam_map, window) if window else [])
        for sub in maps:
            assert_counts_match(sub, 64, 48, graph_rows(sub))


@st.composite
def uneven_keyframe_maps(draw):
    """A map of up to six keyframes holding 0 to 12 keypoints each, and a mask over its observation rows."""
    coord = st.floats(0.0, 160.0)
    per_frame = draw(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    point_obs = {}
    for frame, k in enumerate(per_frame):
        for _ in range(k):
            point_obs[len(point_obs)] = [(frame, draw(coord), draw(coord))]
    slam_map = make_map([(0, 0, f) for f in range(len(per_frame))], point_obs)
    wanted = draw(st.lists(st.booleans(), min_size=len(point_obs), max_size=len(point_obs)))
    return slam_map, np.array(wanted, bool)


def grid_of_keypoints(n_frames, per_frame=2000):
    """A map of n_frames keyframes, each holding per_frame keypoints spread over the image, one point each."""
    rng = np.random.default_rng(n_frames)
    keyframes = [Keyframe(f, f, 0.1 * f, Pose(IDENTITY_Q, (0.0, 0.0, float(f))), DEFAULT_INTRINSICS)
                 for f in range(n_frames)]
    n = n_frames * per_frame
    uv = rng.uniform((0.0, 0.0), (640.0, 480.0), size=(n, 2))
    return SlamMap(keyframes, np.arange(n), np.zeros((n, 3)), np.arange(n),
                   np.repeat(np.arange(n_frames), per_frame), uv[:, 0], uv[:, 1])


class TestNearbyBlocks:
    """_nearby_counts takes whole keyframes a block of about _FRAME_BLOCK observations at a time."""

    @pytest.mark.parametrize("block", [1, 3, 7])
    @settings(max_examples=60, deadline=None)
    @given(case=uneven_keyframe_maps())
    def test_any_block_size_gives_the_one_block_counts(self, block, case):
        slam_map, wanted = case
        whole = _nearby_counts(slam_map, 64, 48, wanted)
        with mock.patch.object(flow_graph, "_FRAME_BLOCK", block):
            assert _nearby_counts(slam_map, 64, 48, wanted).tolist() == whole.tolist()
            assert_counts_match(slam_map, 64, 48, wanted)

    def test_peak_memory_is_bounded_by_a_block_not_the_map(self):
        peaks = {}
        for n_frames in (20, 40):
            slam_map = grid_of_keypoints(n_frames)
            wanted = np.ones(slam_map.n_observations, bool)
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                counts = _nearby_counts(slam_map, 64, 48, wanted)
                # Less the result, which is map-sized by definition.
                peaks[n_frames] = tracemalloc.get_traced_memory()[1] - held - counts.nbytes
            finally:
                tracemalloc.stop()
            with mock.patch.object(flow_graph, "_FRAME_BLOCK", 1 << 30):
                assert _nearby_counts(slam_map, 64, 48, wanted).tolist() == counts.tolist()
        block_bytes = flow_graph._FRAME_BLOCK * 8  # one int64 per observation of a block
        assert peaks[20] < 32 * block_bytes
        # 40000 more observations add a few bytes each of masks, not the counting arrays.
        assert peaks[40] - peaks[20] < 4 * 40000


def assert_matches_oracle(slam_map, config):
    try:
        point_ids, pairs, edges, pair_sink_edge = build_graph_oracle(slam_map, config)
    except GraphError:
        with pytest.raises(GraphError):
            build_graph(slam_map, config)
        return
    graph = build_graph(slam_map, config)
    assert graph.point_ids.tolist() == point_ids
    assert graph.pairs.tolist() == [list(ab) for ab in pairs]
    assert graph.n_vertices == len(point_ids) + len(pairs) + 2
    assert list(graph.edges) == edges
    assert graph.pair_sink_edge == pair_sink_edge


@st.composite
def grid_maps(draw):
    """Small maps whose keypoints sit on an 8 px grid, so that du == 32.0 and
    dv == 24.0 (the default box edges) and duplicate uv both occur; points
    may be seen by fewer than two frames."""
    n_frames = draw(st.integers(2, 5))
    u = st.integers(0, 12).map(lambda i: 100.0 + 8.0 * i)
    v = st.integers(0, 9).map(lambda i: 100.0 + 8.0 * i)
    point_obs = {}
    for i in range(draw(st.integers(1, 10))):
        frames = draw(st.lists(st.integers(0, n_frames - 1), unique=True, max_size=n_frames))
        point_obs[3 * i + 5] = [(f, draw(u), draw(v)) for f in frames]
    centers = [(0, 0, draw(st.integers(0, 60))) for _ in range(n_frames)]
    return make_map(centers, point_obs)


graph_configs = st.builds(
    GraphConfig,
    capacity_m=st.integers(1, 4),
    box_width=st.sampled_from([64, 63, 65, 1, 17]),
    box_height=st.sampled_from([48, 47, 49, 1, 9]),
    enable_cc=st.booleans(),
    enable_cs=st.booleans(),
    enable_cb=st.booleans(),
)


class TestBuildGraphMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(slam_map=grid_maps(), config=graph_configs)
    def test_small_grid_maps(self, slam_map, config):
        assert_counts_match(slam_map, config.box_width, config.box_height)
        assert_matches_oracle(slam_map, config)

    def test_box_edges_are_closed(self):
        slam_map = make_map(
            [(0, 0, 0), (0, 0, 5)],
            {1: [(0, 100, 100), (1, 100, 100)], 2: [(0, 132, 124), (1, 68, 76)], 3: [(0, 100, 100), (1, 300, 300)]},
        )
        assert list(every_count(slam_map, 64, 48)) == [2, 1, 2, 1, 2, 0]
        assert list(every_count(slam_map, 63, 47)) == [1, 0, 0, 0, 1, 0]
        for config in (GraphConfig(capacity_m=2), GraphConfig(capacity_m=2, box_width=63, box_height=47)):
            assert_matches_oracle(slam_map, config)

    @pytest.mark.parametrize("synth, window", WORKLOAD_SHAPES)
    def test_workload_shaped_maps(self, synth, window):
        slam_map, _ = generate(SynthConfig(seed=4, **synth))
        maps = window_maps_oracle(slam_map, window) if window else [slam_map]
        for sub in maps:
            assert_matches_oracle(sub, GraphConfig(capacity_m=20))


class TestFlowGraphArrays:
    def test_edges_view_iterates_and_indexes_flow_edges(self, four_frame_map):
        graph = build_graph(four_frame_map, GraphConfig(capacity_m=2))
        expected = [
            FlowEdge(int(t), int(h), int(c), int(w))
            for t, h, c, w in zip(graph.tail, graph.head, graph.capacity, graph.cost)
        ]
        assert len(graph.edges) == graph.n_edges == len(expected)
        assert list(graph.edges) == expected
        assert graph.edges[0] == expected[0]
        assert graph.edges[len(expected) - 1] == expected[-1]
        assert type(graph.edges[0].cost) is int
        with pytest.raises(IndexError):
            graph.edges[len(expected)]
        with pytest.raises(ValueError):
            graph.capacity[0] = 5

    def test_rebuilt_from_its_own_arrays(self, four_frame_map):
        graph = build_graph(four_frame_map, GraphConfig(capacity_m=2))
        rebuilt = FlowGraph(graph.point_ids, graph.pairs, graph.tail, graph.head, graph.capacity, graph.cost)
        assert graphs_equal(rebuilt, graph)
        assert (rebuilt.n_vertices, rebuilt.source_index, rebuilt.sink_index) == (11, 0, 10)
        assert rebuilt.pair_sink_edge == graph.pair_sink_edge

    @pytest.mark.parametrize(
        "edge",
        [
            pytest.param((0, 2, 1, 0), id="source-to-pair"),
            pytest.param((1, 3, 1, 0), id="endpoint-out-of-range"),
            pytest.param((0, 1, 0, 0), id="capacity-zero"),
            pytest.param((0, 1, 1 << 62, 0), id="capacity-2**62"),
            pytest.param((0, 1, 1 << 64, 0), id="capacity-beyond-int64"),
            pytest.param((0, 1, 1, -1), id="cost-negative"),
            pytest.param((0, 1, 1, 1 << 62), id="cost-2**62"),
        ],
    )
    def test_rejects_bad_edges(self, edge):
        with pytest.raises(GraphError):
            FlowGraph([7], [], *([x] for x in edge))

    def test_rejects_parallel_edges(self):
        with pytest.raises(GraphError, match="^parallel edge 1 -> 2 \\(edge 2, after 1 -> 2\\)$"):
            graph_from_edges([7], [(0, 1)], [FlowEdge(0, 1, 2, 0), FlowEdge(1, 2, 1, 0), FlowEdge(1, 2, 1, 0), FlowEdge(2, 3, 1, 0)])
        # a second source edge of a point lands among the point -> pair edges
        with pytest.raises(GraphError, match="^edge 1: 0 -> 1 breaks layering, where edges go point -> pair$"):
            graph_from_edges([7], [], [FlowEdge(0, 1, 1, 0), FlowEdge(0, 1, 2, 0)])

    def test_rejects_repeated_point_id(self):
        with pytest.raises(GraphError, match="point 7"):
            FlowGraph([7, 3, 7], [(0, 1)], [0], [1], [1], [0])

    def test_rejects_unordered_pair_row(self):
        with pytest.raises(GraphError, match="ordered"):
            FlowGraph([0], [(3, 3)], [], [], [], [])

    def test_rejects_repeated_pair_row(self):
        with pytest.raises(GraphError, match="pair 0, 1 is listed twice"):
            FlowGraph([7], [(0, 1), (2, 5), (0, 1)], [0], [1], [1], [0])

    def test_layers_follow_index_ranges(self):
        graph = FlowGraph(LAYOUT_POINTS, LAYOUT_PAIRS, *zip(*LAYOUT_EDGES))
        assert [layer(graph, v) for v in range(graph.n_vertices)] == [
            "source", "point", "point", "pair", "pair", "pair", "sink",
        ]
        assert graph.middle == slice(2, 6)
        assert [(layer(graph, e.tail), layer(graph, e.head)) for e in graph.edges] == (
            [("source", "point")] * 2 + [("point", "pair")] * 4 + [("pair", "sink")] * 3
        )
        assert graph.point_ids.tolist() == [9, 4]  # source edges 0 and 1
        assert graph.pair_sink_edge == {(0, 1): 6, (0, 2): 7, (1, 2): 8}

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param({1: None}, "edge 1 must be the source edge 0 -> 2, got 1 -> 3", id="missing-source-edge"),
            pytest.param({0: (0, 2), 1: (0, 1)}, "edge 0 must be the source edge 0 -> 1, got 0 -> 2",
                         id="source-edges-out-of-order"),
            pytest.param({7: None}, "edge 5 must be the sink edge 3 -> 6, got 2 -> 5", id="missing-sink-edge"),
            pytest.param({8: (4, 6)}, "edge 8 must be the sink edge 5 -> 6, got 4 -> 6", id="sink-edge-of-another-pair"),
            pytest.param({3: (1, 6)}, "edge 3: 1 -> 6 breaks layering, where edges go point -> pair", id="point-to-sink"),
            pytest.param({3: (0, 4)}, "edge 3: 0 -> 4 breaks layering, where edges go point -> pair", id="source-to-pair"),
            pytest.param({3: (1, 7)}, "edge 3: 1 -> 7 breaks layering, where edges go point -> pair", id="beyond-the-sink"),
            pytest.param({3: (2, 4), 4: (1, 4)}, "point->pair edges out of \\(point, pair\\) order at 1 -> 4 \\(edge 4, after 2 -> 4\\)",
                         id="middle-out-of-point-order"),
            pytest.param({2: (1, 4), 3: (1, 3)}, "point->pair edges out of \\(point, pair\\) order at 1 -> 3 \\(edge 3, after 1 -> 4\\)",
                         id="middle-out-of-pair-order"),
            pytest.param({3: (1, 3)}, "parallel edge 1 -> 3 \\(edge 3, after 1 -> 3\\)", id="repeated-middle-edge"),
            pytest.param({2: None, 3: None, 4: None, 5: None, 6: None}, "4 edges cannot hold the 2 source and 3 sink edges",
                         id="too-few-edges"),
        ],
    )
    def test_rejects_edges_out_of_the_layout(self, edit, message):
        edges = [edit.get(i, edge[:2]) for i, edge in enumerate(LAYOUT_EDGES)]
        edges = [(*ends, 1, 0) for ends in edges if ends is not None]
        with pytest.raises(GraphError, match=f"^{message}$"):
            FlowGraph(LAYOUT_POINTS, LAYOUT_PAIRS, *zip(*edges))


# Points 9 and 4 (vertices 1, 2), pairs (0, 1), (0, 2), (1, 2) (vertices 3, 4, 5)
# and their edges in the layout: source edges, point -> pair edges by (point,
# pair), sink edges; as (tail, head, capacity, cost).
LAYOUT_POINTS, LAYOUT_PAIRS = [9, 4], [(0, 1), (0, 2), (1, 2)]
LAYOUT_EDGES = [(0, 1, 2, 0), (0, 2, 2, 1), (1, 3, 1, 2), (1, 4, 1, 0), (2, 4, 1, 3), (2, 5, 1, 1),
                (3, 6, 1, 1), (4, 6, 1, 2), (5, 6, 1, 0)]


class TestGraphConfig:
    def test_validation(self):
        with pytest.raises(GraphError):
            GraphConfig(capacity_m=0)
        with pytest.raises(GraphError):
            GraphConfig(capacity_m=1, box_width=0)

    def test_capacity_below_the_edge_capacity_bound(self):
        assert GraphConfig(capacity_m=2**62 - 1).capacity_m == 2**62 - 1
        for capacity_m in (2**62, 2**64):
            with pytest.raises(GraphError, match="^capacity_m must be below 2\\*\\*62"):
                GraphConfig(capacity_m=capacity_m)

    @pytest.mark.parametrize("capacity_m", [1.5, 2.0, True, False, np.float64(3), np.bool_(True), "4", None])
    def test_capacity_must_be_an_integer(self, capacity_m):
        with pytest.raises(GraphError, match="capacity_m must be an integer >= 1"):
            GraphConfig(capacity_m=capacity_m)

    @pytest.mark.parametrize("capacity_m", [1, 7, np.int64(7), np.int32(7), np.uint8(7)])
    def test_python_and_numpy_integers_are_accepted(self, capacity_m, four_frame_map):
        graph = build_graph(four_frame_map, GraphConfig(capacity_m=capacity_m))
        assert graph.capacity[list(graph.pair_sink_edge.values())].tolist() == [int(capacity_m)] * 6

    @pytest.mark.parametrize("name", ["box_width", "box_height"])
    @pytest.mark.parametrize("value", [True, False, 1.5, 64.0, np.float64(48), np.bool_(True), "64", None, 0, -1])
    def test_box_dimensions_must_be_integers(self, name, value):
        with pytest.raises(GraphError, match=f"{name} must be an integer >= 1"):
            GraphConfig(capacity_m=2, **{name: value})

    @pytest.mark.parametrize("value", [1, 63, np.int64(63), np.int32(63), np.uint8(63)])
    def test_box_dimensions_accept_python_and_numpy_integers(self, value, four_frame_map):
        config = GraphConfig(capacity_m=2, box_width=value, box_height=value)
        assert graphs_equal(
            build_graph(four_frame_map, config),
            build_graph(four_frame_map, GraphConfig(capacity_m=2, box_width=int(value), box_height=int(value))),
        )


def dimacs_oracle(graph, supply):
    """The DIMACS text of ``graph``, written line by line from its records."""
    n_points, n_vertices = len(graph.point_ids), len(graph.point_ids) + len(graph.pairs) + 2
    lines = [f"p min {n_vertices} {len(graph.edges)}", f"n 1 {supply}", f"n {n_vertices} {-supply}"]
    for node, pid in enumerate(graph.point_ids.tolist(), start=2):
        lines.append(f"c point {node} {pid}")
    for node, (a, b) in enumerate(graph.pairs.tolist(), start=n_points + 2):
        lines.append(f"c pair {node} {a} {b}")
    for e in graph.edges:
        lines.append(f"a {e.tail + 1} {e.head + 1} 0 {e.capacity} {e.cost}")
    return "".join(line + "\n" for line in lines)


def read_dimacs(text):
    """The graph and supply that a ``to_dimacs`` text describes: vertices labelled by their
    ``c point`` and ``c pair`` lines, the supply of node 1, and the arcs in file order."""
    points, pairs, arcs, supplies = {}, {}, [], {}
    for line in text.splitlines():
        kind, *fields = line.split()
        if fields[:1] == ["point"]:
            points[int(fields[1])] = int(fields[2])
        elif fields[:1] == ["pair"]:
            pairs[int(fields[1])] = (int(fields[2]), int(fields[3]))
        elif kind == "n":
            supplies[int(fields[0])] = int(fields[1])
        elif kind == "a":
            arcs.append([int(x) for x in fields])
    tail, head, _, capacity, cost = (np.array(c, np.int64) for c in zip(*arcs))
    graph = FlowGraph([points[k] for k in sorted(points)], [pairs[k] for k in sorted(pairs)], tail - 1, head - 1, capacity, cost)
    return graph, supplies[1]


class TestDimacs:
    def test_small_graph(self):
        graph = FlowGraph(LAYOUT_POINTS, LAYOUT_PAIRS, *zip(*LAYOUT_EDGES))
        assert to_dimacs(graph, 3).splitlines() == [
            "p min 7 9", "n 1 3", "n 7 -3",
            "c point 2 9", "c point 3 4", "c pair 4 0 1", "c pair 5 0 2", "c pair 6 1 2",
            "a 1 2 0 2 0", "a 1 3 0 2 1", "a 2 4 0 1 2", "a 2 5 0 1 0", "a 3 5 0 1 3", "a 3 6 0 1 1",
            "a 4 7 0 1 1", "a 5 7 0 1 2", "a 6 7 0 1 0",
        ]

    @pytest.mark.parametrize("synth, window", [pytest.param(None, 0, id="four_frame"), *WORKLOAD_SHAPES])
    def test_matches_lines_built_from_the_records(self, synth, window, four_frame_map):
        if synth is None:
            maps = [four_frame_map]
        else:
            slam_map, _ = generate(SynthConfig(seed=4, **synth))
            maps = [slam_map, *(window_maps_oracle(slam_map, window) if window else [])]
        for sub in maps:
            graph = build_graph(sub, GraphConfig(capacity_m=2 if synth is None else 20))
            supply = solve(graph).total_flow
            text = to_dimacs(graph, supply)
            assert text == dimacs_oracle(graph, supply)
            assert text.count("\na ") == graph.n_edges

    def test_format_and_round_trip(self, four_frame_map):
        graph = build_graph(four_frame_map, GraphConfig(capacity_m=2))
        result = solve(graph)
        text = to_dimacs(graph, result.total_flow)
        lines = text.strip().splitlines()
        assert lines[0] == f"p min {graph.n_vertices} {graph.n_edges}"
        assert lines[1].startswith("n ")
        assert sum(1 for ln in lines if ln.startswith("a ")) == graph.n_edges

        parsed, supply = read_dimacs(text)
        assert supply == result.total_flow
        reparsed = solve(parsed)
        assert reparsed.total_flow == result.total_flow
        assert reparsed.total_cost == result.total_cost

    def test_labels_round_trip(self, four_frame_map):
        slam_map, _ = generate(SynthConfig(seed=4, **WORKLOAD_SHAPES[2].values[0]))
        for graph in (build_graph(four_frame_map, GraphConfig(capacity_m=2)), build_graph(slam_map, GraphConfig(capacity_m=20))):
            text = to_dimacs(graph, 3)
            assert "c point 2 %d" % graph.point_ids[0] in text.splitlines()
            parsed, supply = read_dimacs(text)
            assert supply == 3
            assert parsed.point_ids.tolist() == graph.point_ids.tolist()
            assert parsed.pairs.tolist() == graph.pairs.tolist()
            assert graphs_equal(parsed, graph)
            assert parsed.pair_sink_edge == graph.pair_sink_edge
