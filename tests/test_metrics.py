import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WORKLOAD_SHAPES, make_map, map_from_records
from map_oracles import attribute_C_oracle, attribute_F_oracle, attribute_S_oracle
from mapsparse import _quat, metrics
from mapsparse.map_model import CameraIntrinsics, MapPoint, Observation
from mapsparse.metrics import (
    AlignmentError,
    MetricsError,
    Trajectory,
    associate,
    ate,
    ate_rot,
    attribute_C,
    attribute_F,
    attribute_S,
    load_trajectory,
    map_report,
    save_trajectory,
    transform_trajectory,
)
from mapsparse.synth import SynthConfig, generate, perturb_trajectory
from test_map_model import messy_maps

# A float warning (overflow, invalid value) in the metrics fails the test that raised it.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def random_trajectory(rng, n=25):
    stamps = np.arange(n) * 0.1
    positions = np.cumsum(rng.normal(size=(n, 3)), axis=0)
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return Trajectory(stamps, positions, q)


def random_rigid(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return _quat.to_matrix(q), rng.normal(scale=5.0, size=3)


class TestAte:
    def test_identical_is_exactly_zero(self):
        traj = random_trajectory(np.random.default_rng(0))
        assert ate(traj, traj, alignment="none") == 0.0
        assert ate_rot(traj, traj, alignment="none") == 0.0

    def test_constant_offset_absorbed_by_alignment(self):
        traj = random_trajectory(np.random.default_rng(1))
        shifted = Trajectory(traj.stamps, traj.positions + np.array([4.0, -2.0, 7.0]), traj.quaternions)
        assert ate(shifted, traj, alignment="rigid") < 1e-9

    def test_square_path_single_displacement(self):
        stamps = [0.0, 0.1, 0.2, 0.3]
        square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        quats = np.tile(_quat.IDENTITY, (4, 1))
        gt = Trajectory(stamps, square, quats)
        est_pos = square.copy()
        est_pos[2, 0] += 0.1
        est = Trajectory(stamps, est_pos, quats)
        assert ate(est, gt, alignment="none") == pytest.approx(0.1 / math.sqrt(4), abs=1e-12)

    def test_similarity_alignment_recovers_scale(self):
        traj = random_trajectory(np.random.default_rng(2))
        scaled = Trajectory(traj.stamps, 0.5 * traj.positions, traj.quaternions)
        assert ate(scaled, traj, alignment="sim") < 1e-9
        assert ate(scaled, traj, alignment="rigid") > 0.01

    def test_rigid_invariance_of_aligned_ate(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gt = random_trajectory(rng)
            est = Trajectory(gt.stamps, gt.positions + rng.normal(scale=0.05, size=(len(gt), 3)), gt.quaternions)
            base = ate(est, gt, alignment="rigid")
            R, t = random_rigid(rng)
            moved = transform_trajectory(est, 1.0, R, t)
            assert abs(ate(moved, gt, alignment="rigid") - base) < 1e-9


class TestAteRot:
    def test_constant_one_degree_offset(self):
        rng = np.random.default_rng(4)
        gt = random_trajectory(rng, n=50)
        axis = np.array([0.3, -0.5, 0.8])
        axis /= np.linalg.norm(axis)
        dq = _quat.from_rotvec(np.radians(1.0) * axis)
        est = Trajectory(gt.stamps, gt.positions, _quat.multiply(gt.quaternions, dq[None, :]))
        assert ate_rot(est, gt, alignment="none") == pytest.approx(1.0, abs=1e-9)

    def test_antipodal_single_pair(self):
        gt = Trajectory([0.0], [[0, 0, 0]], [[1.0, 0, 0, 0]])
        est = Trajectory([0.0], [[0, 0, 0]], [[0.0, 1.0, 0, 0]])
        assert ate_rot(est, gt, alignment="none") == pytest.approx(180.0)

    def test_invariant_under_common_rotation(self):
        rng = np.random.default_rng(5)
        gt = random_trajectory(rng)
        est = perturb_trajectory(gt, 0.0, 2.0, seed=8)
        base = ate_rot(est, gt, alignment="none")
        R, t = random_rigid(rng)
        assert ate_rot(
            transform_trajectory(est, 1.0, R, t),
            transform_trajectory(gt, 1.0, R, t),
            alignment="none",
        ) == pytest.approx(base, abs=1e-9)


class TestAssociate:
    def test_nearest_neighbor_with_window(self):
        gt = [0.0, 0.1, 0.2]
        est = [0.005, 0.095, 0.3]
        assert associate(est, gt) == [(0, 0), (1, 1)]

    def test_each_pose_used_once(self):
        gt = [0.0, 1.0]
        est = [0.001, 0.002]
        assert associate(est, gt) == [(0, 0)]

    @pytest.mark.parametrize("max_offset", [math.nan, -0.01, -math.inf])
    def test_a_max_offset_not_at_least_zero_raises(self, max_offset):
        # once no pair was associated, and ate named that instead of the argument
        traj = Trajectory([0.0, 0.1, 0.2], np.zeros((3, 3)), np.tile(_quat.IDENTITY, (3, 1)))
        with pytest.raises(MetricsError, match="max_offset must be >= 0"):
            associate(traj.stamps, traj.stamps, max_offset)
        with pytest.raises(MetricsError, match="max_offset must be >= 0"):
            ate(traj, traj, alignment="none", max_offset=max_offset)

    def test_unassociated_raises_in_metrics(self):
        a = Trajectory([0.0, 0.1, 0.2], np.zeros((3, 3)), np.tile(_quat.IDENTITY, (3, 1)))
        b = Trajectory([5.0, 5.1, 5.2], np.zeros((3, 3)), np.tile(_quat.IDENTITY, (3, 1)))
        with pytest.raises(MetricsError):
            ate(a, b, alignment="none")


class TestAlign:
    """The association and Umeyama fit that ``ate`` and ``ate_rot`` run before measuring."""

    def test_requires_three_pairs(self):
        for n in (1, 2):
            a = Trajectory(np.arange(n) * 0.1, [[i, i * i, 0] for i in range(n)], np.tile(_quat.IDENTITY, (n, 1)))
            for metric in (ate, ate_rot):
                with pytest.raises(AlignmentError):
                    metric(a, a, alignment="rigid")

    def test_collinear_is_degenerate(self):
        stamps = [0.0, 0.1, 0.2, 0.3]
        line = np.array([[i, 0, 0] for i in range(4)], dtype=float)
        quats = np.tile(_quat.IDENTITY, (4, 1))
        traj = Trajectory(stamps, line, quats)
        for alignment in ("rigid", "sim"):
            with pytest.raises(AlignmentError):
                ate(traj, traj, alignment=alignment)

    @pytest.mark.parametrize("scale", [1e-8, 1e-7, 1e-6, 1.0, 1e6])
    def test_degeneracy_is_judged_relative_to_the_path_size(self, scale):
        walk = random_trajectory(np.random.default_rng(7), n=20)
        small = Trajectory(walk.stamps, walk.positions * scale, walk.quaternions)
        for alignment in ("rigid", "sim"):
            assert ate(small, small, alignment=alignment) < 1e-9 * scale
        quats = np.tile(_quat.IDENTITY, (4, 1))
        line = Trajectory(walk.stamps[:4], np.outer(np.arange(4.0), [1.0, 2.0, 3.0]) * scale, quats)
        point = Trajectory(walk.stamps[:4], np.full((4, 3), 5.0 * scale), quats)
        for degenerate in (line, point):
            for alignment in ("rigid", "sim"):
                with pytest.raises(AlignmentError):
                    ate(degenerate, degenerate, alignment=alignment)

    def test_recovers_applied_transform(self):
        rng = np.random.default_rng(6)
        gt = random_trajectory(rng)
        R, t = random_rigid(rng)
        moved = transform_trajectory(gt, 1.0, R, t)
        assert ate(moved, gt, alignment="none") > 1.0
        assert ate(moved, gt, alignment="rigid") < 1e-9
        assert ate_rot(moved, gt, alignment="rigid") < 1e-6


class TestAttributes:
    def test_C_uniform(self):
        slam_map = make_map(
            [(0, 0, 0), (1, 0, 0)],
            {0: [(0, 5, 5), (1, 5, 5)], 1: [(0, 9, 9), (1, 9, 9)]},
        )
        assert attribute_C(slam_map) == 2.0

    def test_C_mixed(self):
        slam_map = make_map(
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
            {0: [(0, 5, 5), (1, 5, 5)], 1: [(0, 9, 9), (1, 9, 9), (2, 9, 9), (3, 9, 9)]},
        )
        assert attribute_C(slam_map) == 3.0

    def test_C_empty_map_errors(self):
        slam_map = make_map([(0, 0, 0)], {})
        with pytest.raises(MetricsError):
            attribute_C(slam_map)

    def test_F_span(self):
        slam_map = make_map(
            [(i, 0, 0) for i in range(11)],
            {0: [(3, 5, 5), (10, 5, 5)]},
        )
        assert attribute_F(slam_map) == 7

    def test_F_adjacent_frames(self):
        slam_map = make_map(
            [(0, 0, 0), (1, 0, 0)],
            {0: [(0, 5, 5), (1, 5, 5)]},
        )
        assert attribute_F(slam_map) == 1

    def test_F_requires_connected_point(self):
        slam_map = make_map([(0, 0, 0)], {0: [(0, 5, 5)]})
        with pytest.raises(MetricsError):
            attribute_F(slam_map)

    def test_S_single_keypoint_640x480(self):
        slam_map = make_map([(0, 0, 0), (1, 0, 0)], {0: [(0, 100, 100), (1, 100, 100)]})
        # both frames: 1 occupied cell of the 10x10 grid
        assert attribute_S(slam_map) == pytest.approx(1.0)

    def test_S_full_grid(self):
        obs = []
        for ci in range(10):
            for cj in range(10):
                obs.append((0, 64 * ci + 32, 48 * cj + 24))
        slam_map = make_map([(0, 0, 0)], {i: [o] for i, o in enumerate(obs)})
        assert attribute_S(slam_map) == pytest.approx(100.0)

    def test_S_zero_observation_keyframe_counts_as_zero(self):
        slam_map = make_map(
            [(0, 0, 0), (1, 0, 0)],
            {0: [(0, 100, 100)]},
        )
        assert attribute_S(slam_map) == pytest.approx(0.5)  # mean of 1% and 0%

    def test_S_partial_edge_cells(self):
        intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=325.0, cy=240.0, width=650, height=480)
        slam_map = make_map([(0, 0, 0)], {0: [(0, 645.0, 100.0)]}, intrinsics=intr)
        # 11 x 10 grid: the 645-pixel column lands in the partial last cell
        assert attribute_S(slam_map) == pytest.approx(100.0 / 110.0)

    def test_S_order_invariant_and_monotone(self):
        slam_map = make_map([(0, 0, 0)], {0: [(0, 10, 10)], 1: [(0, 200, 200)]})
        reordered = map_from_records(
            slam_map.keyframes, slam_map.points, list(slam_map.observations)[::-1]
        )
        assert attribute_S(slam_map) == attribute_S(reordered)
        grown = map_from_records(
            slam_map.keyframes,
            list(slam_map.points) + [MapPoint(9, (0.0, 0.0, 1.0))],
            list(slam_map.observations) + [Observation(9, 0, 400.0, 400.0)],
        )
        assert attribute_S(grown) > attribute_S(slam_map)


class TestTrajectoryIO:
    def test_round_trip(self):
        traj = random_trajectory(np.random.default_rng(7))
        buf = io.StringIO()
        save_trajectory(traj, buf)
        back = load_trajectory(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.stamps, traj.stamps)
        assert np.array_equal(back.positions, traj.positions)
        assert np.array_equal(back.quaternions, traj.quaternions)

    def test_empty_trajectory_round_trip(self):
        empty = Trajectory([], np.empty((0, 3)), np.empty((0, 4)))
        buf = io.StringIO()
        save_trajectory(empty, buf)
        assert buf.getvalue() == "# timestamp tx ty tz qx qy qz qw\n"
        back = load_trajectory(io.StringIO(buf.getvalue()))
        assert len(back) == 0
        assert back.positions.shape == (0, 3) and back.quaternions.shape == (0, 4)
        assert len(load_trajectory(io.StringIO(""))) == 0

    def test_comments_and_blank_lines_ignored(self):
        text = "# comment\n\n0.0 1 2 3 0 0 0 1\n0.1 4 5 6 0 0 0 1\n"
        traj = load_trajectory(io.StringIO(text))
        assert len(traj) == 2
        assert traj.positions[1].tolist() == [4.0, 5.0, 6.0]
        assert traj.quaternions[0].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_bad_field_count(self):
        with pytest.raises(MetricsError, match="line 1"):
            load_trajectory(io.StringIO("0.0 1 2 3\n"))

    def test_non_number_field_names_the_line(self):
        with pytest.raises(MetricsError, match="line 2"):
            load_trajectory(io.StringIO("0.0 1 2 3 0 0 0 1\n0.1 4 5 x 0 0 0 1\n"))

    def test_bytes_that_are_not_utf8(self, tmp_path):
        with pytest.raises(MetricsError, match="not UTF-8"):
            load_trajectory(io.BytesIO(b"0.0 1 2 3 0 0 0 \xff1\n"))
        path = tmp_path / "traj.tum"
        path.write_bytes(b"\xfe0.0 1 2 3 0 0 0 1\n")
        with pytest.raises(MetricsError, match="not UTF-8"):
            load_trajectory(path)

    def test_save_to_a_binary_stream(self):
        traj = random_trajectory(np.random.default_rng(3))
        text, binary = io.StringIO(), io.BytesIO()
        save_trajectory(traj, text)
        save_trajectory(traj, binary)
        assert binary.getvalue() == text.getvalue().encode()
        assert np.array_equal(load_trajectory(io.BytesIO(binary.getvalue())).stamps, traj.stamps)

    def test_timestamps_must_increase(self):
        with pytest.raises(MetricsError):
            Trajectory([0.0, 0.0], np.zeros((2, 3)), np.tile(_quat.IDENTITY, (2, 1)))

    @pytest.mark.parametrize("stamps", [("inf", "inf"), ("-inf", "-inf"), ("nan", "0.1"), ("0.0", "nan"), ("inf", "nan")])
    def test_non_finite_timestamps_raise_a_metrics_error_not_a_warning(self, stamps):
        text = "".join(f"{ts} 1 2 3 0 0 0 1\n" for ts in stamps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetricsError, match="strictly increasing"):
                load_trajectory(io.StringIO(text))


_tum_fields = st.one_of(
    st.floats().map(repr), st.integers(-3, 3).map(str), st.sampled_from(["x", "nan", "-inf", "1e400", "0x1", "#"])
)
_tum_lines = st.one_of(st.lists(_tum_fields, min_size=8, max_size=8), st.lists(_tum_fields, max_size=9)).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(source=st.one_of(
    st.text().map(io.StringIO),
    st.binary().map(io.BytesIO),
    st.lists(_tum_lines, max_size=6).map("\n".join).map(io.StringIO),
))
def test_any_text_loads_a_trajectory_or_raises_a_metrics_error(source):
    try:
        traj = load_trajectory(source)
    except MetricsError:
        return
    assert isinstance(traj, Trajectory)


def test_map_report_fields():
    slam_map, _ = generate(SynthConfig(n_points=80, n_keyframes=8, dropout=0.2, seed=20))
    doc = map_report(slam_map).to_dict()
    assert set(doc) == {"C", "F", "S", "points", "keyframes", "observations"}
    assert doc["points"] == 80 and doc["keyframes"] == 8 and doc["observations"] == slam_map.n_observations
    assert doc["C"] > 0 and doc["S"] > 0 and doc["F"] >= 1


def assert_attributes_match_oracles(slam_map):
    if slam_map.n_points:
        assert attribute_C(slam_map) == attribute_C_oracle(slam_map)
    expected_f = attribute_F_oracle(slam_map)
    if expected_f is None:
        with pytest.raises(MetricsError):
            attribute_F(slam_map)
    else:
        assert attribute_F(slam_map) == expected_f
    if slam_map.n_keyframes:
        assert attribute_S(slam_map) == attribute_S_oracle(slam_map, 64, 48)
        with mock.patch.object(metrics, "GRID_CELL", (7, 5)):
            assert attribute_S(slam_map) == attribute_S_oracle(slam_map, 7, 5)


@settings(max_examples=150, deadline=None)
@given(slam_map=messy_maps())
def test_attributes_match_record_by_record_oracles(slam_map):
    # finite keypoints only: the oracle's int() of a non-finite grid cell raises
    finite = [o for o in slam_map.observations if math.isfinite(o.u) and math.isfinite(o.v)]
    assert_attributes_match_oracles(map_from_records(slam_map.keyframes, slam_map.points, finite))


@pytest.mark.parametrize("synth, window", WORKLOAD_SHAPES)
def test_attributes_match_oracles_on_workload_shaped_maps(synth, window):
    slam_map, _ = generate(SynthConfig(seed=4, **synth))
    assert_attributes_match_oracles(slam_map)
