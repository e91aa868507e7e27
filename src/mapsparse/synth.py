"""Synthetic SLAM maps with ground-truth trajectories for desk-scale experiments.

A pinhole camera (:data:`CAMERA`; z forward, y down, no distortion) moves
along a simple trajectory looking at the scene center; scene points are
sampled uniformly in a cube plus optional tight clusters (spread extent / 80)
so that spatial-diversity costs have structure to discriminate. Everything is
a pure function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _quat
from .map_model import CameraIntrinsics, Keyframe, Pose, SlamMap, _check_int, _sealed
from .metrics import Trajectory

TRAJECTORIES = ("circle", "line", "random_walk")

# The camera of every generated keyframe: 640 x 480 pixels, 525 px focal length, principal point at the center.
CAMERA = CameraIntrinsics(fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480)


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class SynthConfig:
    n_points: int = 500
    n_keyframes: int = 20
    trajectory: str = "circle"
    trajectory_scale: float = 3.0  # circle radius / line length / walk step, meters
    extent: float = 8.0  # scene cube side, meters
    pixel_noise: float = 0.0
    dropout: float = 0.0
    cluster_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_points", 1), ("n_keyframes", 1), ("seed", 0)):
            _check_int(getattr(self, name), name, low, GenerationError)
        if self.trajectory not in TRAJECTORIES:
            raise GenerationError(f"trajectory must be one of {TRAJECTORIES}")
        if not 0.0 <= self.dropout <= 1.0:
            raise GenerationError("dropout must be in [0, 1]")
        if not 0.0 <= self.cluster_fraction <= 1.0:
            raise GenerationError("cluster_fraction must be in [0, 1]")
        if self.pixel_noise < 0 or self.trajectory_scale <= 0 or self.extent <= 0:
            raise GenerationError("noise, trajectory_scale and extent must be positive")
        if not all(map(math.isfinite, (self.trajectory_scale, self.extent, self.pixel_noise))):
            raise GenerationError("noise, trajectory_scale and extent must be finite")


def _look_at(position: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Camera-to-world rotation with z toward target and y pointing down."""
    forward = target - position
    dist = np.linalg.norm(forward)
    if dist < 1e-12:
        return np.eye(3)
    z = forward / dist
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(z @ up)) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(z, up)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    return np.column_stack([x, y, z])


def _camera_positions(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    k = config.n_keyframes
    scale = config.trajectory_scale
    if config.trajectory == "circle":
        theta = 2.0 * np.pi * np.arange(k) / k
        return np.column_stack([scale * np.cos(theta), scale * np.sin(theta), np.zeros(k)])
    if config.trajectory == "line":
        x = np.linspace(-scale / 2.0, scale / 2.0, k)
        y = np.full(k, -(config.extent / 2.0 + 1.0))
        return np.column_stack([x, y, np.zeros(k)])
    # random walk starting just outside the scene
    steps = rng.normal(size=(k - 1, 3)) if k > 1 else np.zeros((0, 3))
    norms = np.linalg.norm(steps, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    steps = scale * steps / norms
    start = np.array([config.extent / 2.0 + scale, 0.0, 0.0])
    return start + np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])


def generate(config: SynthConfig) -> tuple[SlamMap, Trajectory]:
    """Build a (map, ground-truth trajectory) pair fully determined by the seed.

    An observation is emitted where a point projects in front of the camera
    and inside the image, then survives the visibility dropout; keypoints are
    the true projections plus Gaussian pixel noise clamped to image bounds.
    Raises :class:`GenerationError` if no point ends up with two observers, or
    if the camera poses or projections overflow to non-finite values.
    """
    rng = np.random.default_rng(config.seed)
    half = config.extent / 2.0

    n_cluster = int(round(config.n_points * config.cluster_fraction))
    n_free = config.n_points - n_cluster
    xyz_parts = []
    if n_free:
        xyz_parts.append(rng.uniform(-half, half, size=(n_free, 3)))
    if n_cluster:
        n_clusters = max(1, n_cluster // 25)
        centers = rng.uniform(-half, half, size=(n_clusters, 3))
        assign = rng.integers(0, n_clusters, size=n_cluster)
        xyz_parts.append(centers[assign] + rng.normal(0.0, config.extent / 80.0, size=(n_cluster, 3)))
    xyz = np.vstack(xyz_parts)

    # Huge finite settings overflow the poses or projections to inf or NaN: checked for, not warned about.
    at = f"at trajectory_scale={config.trajectory_scale!r} and extent={config.extent!r}"
    with np.errstate(all="ignore"):
        cam_pos = _camera_positions(config, rng)
        rotations = [_look_at(position, np.zeros(3)) for position in cam_pos]
    if not (np.isfinite(cam_pos).all() and np.isfinite(rotations).all()):
        raise GenerationError(f"camera poses are not finite {at}")

    keyframes = []
    for i, R in enumerate(rotations):
        q = _quat.from_matrix(R)
        keyframes.append(
            Keyframe(
                id=i,
                seq_index=i,
                timestamp=0.1 * i,
                pose=Pose(q=tuple(float(x) for x in q), t=tuple(float(x) for x in cam_pos[i])),
                intrinsics=CAMERA,
            )
        )

    u_max = np.nextafter(float(CAMERA.width), 0.0)
    v_max = np.nextafter(float(CAMERA.height), 0.0)
    obs_point, obs_u, obs_v = [], [], []  # per keyframe, its visible points in id order
    for i in range(config.n_keyframes):
        keep_draw = rng.random(config.n_points)
        noise = rng.normal(0.0, config.pixel_noise, size=(config.n_points, 2))
        with np.errstate(all="ignore"):  # z may be 0; a point that is not in front is never visible
            local = (xyz - cam_pos[i]) @ rotations[i]  # camera coordinates (R^T (X - t))
            z = local[:, 2]
            u = CAMERA.fx * local[:, 0] / z + CAMERA.cx
            v = CAMERA.fy * local[:, 1] / z + CAMERA.cy
        front = z > 1e-9
        if not (np.isfinite(local).all() and np.isfinite(u[front]).all() and np.isfinite(v[front]).all()):
            raise GenerationError(f"projections are not finite {at}")
        visible = (
            front
            & (u >= 0.0)
            & (u < CAMERA.width)
            & (v >= 0.0)
            & (v < CAMERA.height)
            & (keep_draw >= config.dropout)
        )
        if config.pixel_noise > 0:
            u = np.clip(u + noise[:, 0], 0.0, u_max)
            v = np.clip(v + noise[:, 1], 0.0, v_max)
        seen = np.flatnonzero(visible)
        obs_point.append(seen)
        obs_u.append(u[seen])
        obs_v.append(v[seen])

    columns = (
        np.arange(config.n_points),
        xyz,
        np.concatenate(obs_point),
        np.repeat(np.arange(config.n_keyframes), [len(seen) for seen in obs_point]),
        np.concatenate(obs_u),
        np.concatenate(obs_v),
    )
    slam_map = SlamMap(keyframes, *map(_sealed, columns))  # fresh columns: kept, or gathered once where unsorted
    if not (slam_map.observer_counts() >= 2).any():
        raise GenerationError("configuration produced no point observed by two keyframes")
    trajectory = Trajectory(
        [kf.timestamp for kf in keyframes],
        cam_pos,
        [kf.pose.q for kf in keyframes],
    )
    return slam_map, trajectory


def perturb_trajectory(
    traj: Trajectory, sigma_t: float, sigma_r_deg: float, seed: int = 0
) -> Trajectory:
    """Add i.i.d. Gaussian noise: translation in meters, rotation as a random
    rotation vector with per-axis sigma in degrees (applied on the right).

    With both sigmas zero this is exactly the identity.
    """
    rng = np.random.default_rng(seed)
    n = len(traj)
    dt = rng.normal(0.0, sigma_t, size=(n, 3))
    w = rng.normal(0.0, np.radians(sigma_r_deg), size=(n, 3))
    return Trajectory(
        traj.stamps,
        traj.positions + dt,
        _quat.multiply(traj.quaternions, _quat.from_rotvec(w)),
    )
