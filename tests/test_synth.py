import io
import math

import numpy as np
import pytest

from mapsparse import _quat
from mapsparse.map_model import CameraIntrinsics, save_map, validate
from mapsparse.metrics import ate, ate_rot
from mapsparse.synth import GenerationError, SynthConfig, generate, perturb_trajectory


def test_full_visibility_when_points_at_center():
    cfg = SynthConfig(
        n_points=30, n_keyframes=8, extent=1e-6, cluster_fraction=0.0, dropout=0.0, seed=0
    )
    slam_map, _ = generate(cfg)
    assert slam_map.observer_counts().tolist() == [8] * 30


def test_total_dropout_raises():
    with pytest.raises(GenerationError):
        generate(SynthConfig(n_points=20, n_keyframes=4, dropout=1.0, seed=0))


def test_seed_determinism_is_byte_identical():
    cfg = SynthConfig(n_points=60, n_keyframes=6, dropout=0.3, pixel_noise=0.4, seed=17)
    a, b = io.StringIO(), io.StringIO()
    save_map(generate(cfg)[0], a)
    save_map(generate(cfg)[0], b)
    assert a.getvalue() == b.getvalue()


def test_generated_maps_validate():
    for traj_kind in ("circle", "line", "random_walk"):
        slam_map, _ = generate(
            SynthConfig(n_points=60, n_keyframes=6, trajectory=traj_kind, dropout=0.2, seed=3)
        )
        assert validate(slam_map).ok


def test_noiseless_observations_reproject_exactly():
    slam_map, _ = generate(SynthConfig(n_points=50, n_keyframes=6, dropout=0.1, seed=5))
    keyframes = {kf.id: kf for kf in slam_map.keyframes}
    points = {pt.id: pt for pt in slam_map.points}
    for obs in slam_map.observations:
        kf = keyframes[obs.keyframe_id]
        pt = points[obs.point_id]
        R = _quat.to_matrix(np.array(kf.pose.q))
        local = R.T @ (np.array(pt.position) - np.array(kf.pose.t))
        u = kf.intrinsics.fx * local[0] / local[2] + kf.intrinsics.cx
        v = kf.intrinsics.fy * local[1] / local[2] + kf.intrinsics.cy
        assert abs(u - obs.u) < 1e-6 and abs(v - obs.v) < 1e-6


def test_observation_count_bounded_by_keyframes():
    slam_map, _ = generate(SynthConfig(n_points=100, n_keyframes=7, dropout=0.0, seed=6))
    assert slam_map.observer_counts().max() <= 7


def test_trajectory_matches_keyframes():
    slam_map, traj = generate(SynthConfig(n_points=40, n_keyframes=5, seed=9))
    assert len(traj) == 5
    assert traj.stamps.tolist() == [kf.timestamp for kf in slam_map.keyframes]
    assert traj.positions.tolist() == [list(kf.pose.t) for kf in slam_map.keyframes]
    assert traj.quaternions.tolist() == [list(kf.pose.q) for kf in slam_map.keyframes]


def test_every_keyframe_has_the_640x480_camera():
    # The benchmark maps' image grid (attribute S, the grid baseline, the
    # nearby-count boxes) is laid over this camera's 640 x 480 images.
    camera = CameraIntrinsics(fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480)
    for trajectory in ("circle", "line", "random_walk"):
        slam_map, _ = generate(SynthConfig(n_points=60, n_keyframes=6, trajectory=trajectory, seed=3))
        # repr also tells 525.0 from 525, which save_map writes differently
        assert all(repr(kf.intrinsics) == repr(camera) for kf in slam_map.keyframes)
        _, _, u, v = slam_map.observation_arrays()
        assert ((0 <= u) & (u < 640) & (0 <= v) & (v < 480)).all()


def test_perturb_zero_sigma_is_identity():
    _, traj = generate(SynthConfig(n_points=30, n_keyframes=6, seed=1))
    same = perturb_trajectory(traj, 0.0, 0.0, seed=42)
    assert np.array_equal(same.positions, traj.positions)
    assert np.array_equal(same.quaternions, traj.quaternions)


def test_perturb_noise_magnitudes_track_sigma():
    # closed form for both noises: RMS = sigma * sqrt(3), because the error
    # vector (translation offset / rotation vector) is N(0, sigma^2 I_3)
    _, traj = generate(SynthConfig(n_points=30, n_keyframes=300, seed=2))
    noisy = perturb_trajectory(traj, 0.05, 0.0, seed=3)
    assert ate(noisy, traj, alignment="none") == pytest.approx(0.05 * np.sqrt(3), rel=0.2)
    noisy = perturb_trajectory(traj, 0.0, 1.0, seed=4)
    assert ate_rot(noisy, traj, alignment="none") == pytest.approx(np.sqrt(3), rel=0.2)


def test_config_validation():
    with pytest.raises(GenerationError):
        SynthConfig(n_points=0)
    with pytest.raises(GenerationError):
        SynthConfig(trajectory="spiral")
    with pytest.raises(GenerationError):
        SynthConfig(dropout=1.5)


@pytest.mark.parametrize("field", ["trajectory_scale", "extent", "pixel_noise"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_numbers(field, value):
    # Such values once passed: inf ended in an OverflowError from the uniform
    # draw, and NaN in a misleading error or in a map with no noise added.
    with pytest.raises(GenerationError, match="must be finite"):
        SynthConfig(**{field: value})


def test_cluster_fraction_produces_tight_groups():
    cfg = SynthConfig(n_points=400, n_keyframes=4, cluster_fraction=0.5, seed=8)
    slam_map, _ = generate(cfg)
    xyz = np.array([p.position for p in slam_map.points])
    # clustered points are appended after the uniform block
    clustered = xyz[200:]
    uniform = xyz[:200]
    def mean_nn(block):
        d = np.linalg.norm(block[:, None, :] - block[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        return d.min(axis=1).mean()
    assert mean_nn(clustered) < mean_nn(uniform) / 2
