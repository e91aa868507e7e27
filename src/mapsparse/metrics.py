"""Trajectory accuracy (translational and rotational RMS error) and map attributes.

Trajectories are timestamped camera-to-world poses. Error metrics associate
estimate and ground truth by nearest timestamp (20 ms window, the usual
convention for TUM-style tooling), optionally align them with a least-squares
rigid or similarity transform, and report RMS statistics of the per-pose
relative transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

import numpy as np

from . import _quat
from .map_model import SlamMap, _read_text, _write_blocks


class MetricsError(ValueError):
    pass


class AlignmentError(MetricsError):
    """Degenerate (collinear or coincident) point sets cannot be aligned."""


class Trajectory:
    """Timestamped poses stored as parallel arrays (read-only after init)."""

    def __init__(self, stamps, positions, quaternions):
        stamps = np.asarray(stamps, dtype=float)
        positions = np.asarray(positions, dtype=float)
        quaternions = np.asarray(quaternions, dtype=float)
        if stamps.ndim != 1 or positions.shape != (len(stamps), 3) or quaternions.shape != (len(stamps), 4):
            raise MetricsError("trajectory arrays must be (n,), (n, 3) and (n, 4)")
        with np.errstate(invalid="ignore"):  # inf - inf is nan, and nan fails the test
            if len(stamps) > 1 and not np.all(np.diff(stamps) > 0):
                raise MetricsError("timestamps must be strictly increasing")
        self.stamps = stamps.copy()
        self.positions = positions.copy()
        self.quaternions = quaternions.copy()
        for arr in (self.stamps, self.positions, self.quaternions):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.stamps)


def load_trajectory(source: Union[str, Path, IO[bytes], IO[str]]) -> Trajectory:
    """Read TUM-format text: `timestamp tx ty tz qx qy qz qw`, '#' comments.

    Text that is not UTF-8, or a line that is not eight numbers, raises
    :class:`MetricsError`; text without a pose line is an empty trajectory.
    """
    text = _read_text(source, MetricsError)
    stamps, positions, quats = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise MetricsError(f"line {lineno}: expected 8 fields, got {len(parts)}")
        try:
            vals = [float(x) for x in parts]
        except ValueError:
            raise MetricsError(f"line {lineno}: expected 8 numbers") from None
        stamps.append(vals[0])
        positions.append(vals[1:4])
        quats.append([vals[7], vals[4], vals[5], vals[6]])  # file is xyzw, we store wxyz
    return Trajectory(stamps, np.reshape(positions, (-1, 3)), np.reshape(quats, (-1, 4)))


def save_trajectory(traj: Trajectory, sink: Union[str, Path, IO[bytes], IO[str]]) -> None:
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for ts, t, q in zip(traj.stamps.tolist(), traj.positions.tolist(), traj.quaternions.tolist()):
        lines.append(
            f"{ts!r} {t[0]!r} {t[1]!r} {t[2]!r} {q[1]!r} {q[2]!r} {q[3]!r} {q[0]!r}"
        )
    _write_blocks(sink, ["\n".join(lines) + "\n"])


def associate(stamps_est, stamps_gt, max_offset: float = 0.02) -> list[tuple[int, int]]:
    """Greedy nearest-timestamp association; unmatched poses are dropped.

    Candidates are each estimate's nearest ground-truth neighbors within
    ``max_offset`` seconds, matched smallest time difference first, one use
    per pose on either side.
    """
    if not max_offset >= 0:
        raise MetricsError(f"max_offset must be >= 0, got {max_offset!r}")
    stamps_est = np.asarray(stamps_est, dtype=float)
    stamps_gt = np.asarray(stamps_gt, dtype=float)
    candidates = []
    pos = np.searchsorted(stamps_gt, stamps_est)
    for i, (ts, j) in enumerate(zip(stamps_est, pos)):
        for jj in (j - 1, j):
            if 0 <= jj < len(stamps_gt):
                diff = abs(ts - stamps_gt[jj])
                if diff <= max_offset:
                    candidates.append((diff, i, jj))
    candidates.sort()
    used_i: set[int] = set()
    used_j: set[int] = set()
    matches = []
    for _, i, j in candidates:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        matches.append((i, j))
    matches.sort()
    return matches


def _umeyama(src: np.ndarray, dst: np.ndarray, with_scale: bool):
    n = len(src)
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    xs = src - mu_s
    xd = dst - mu_d
    cov = xd.T @ xs / n
    U, D, Vt = np.linalg.svd(cov)
    if D[1] <= 1e-12 * D[0]:  # relative, so that a small path is judged by its shape alone
        raise AlignmentError(
            "degenerate point set (coincident or collinear): a collinear path, such as a --trajectory line "
            'ground truth, can only be compared with alignment "none"'
        )
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    if with_scale:
        var_s = (xs ** 2).sum() / n
        s = float(np.trace(np.diag(D) @ S) / var_s)
    else:
        s = 1.0
    t = mu_d - s * R @ mu_s
    return s, R, t


def _similarity(s: float, R: np.ndarray, t: np.ndarray, positions: np.ndarray, quaternions: np.ndarray):
    """The poses (positions, quaternions) moved by the similarity transform (s, R, t)."""
    return s * (positions @ R.T) + t, _quat.multiply(_quat.from_matrix(R)[None, :], quaternions)


def transform_trajectory(traj: Trajectory, s: float, R: np.ndarray, t: np.ndarray) -> Trajectory:
    """Apply a similarity transform to every pose of a trajectory."""
    return Trajectory(traj.stamps, *_similarity(s, R, t, traj.positions, traj.quaternions))


def _aligned_pairs(traj_est, traj_gt, alignment, max_offset):
    pairs = associate(traj_est.stamps, traj_gt.stamps, max_offset)
    if not pairs:
        raise MetricsError("no pose pairs associated within the timestamp window")
    idx_e = [i for i, _ in pairs]
    idx_g = [j for _, j in pairs]
    pos_e = traj_est.positions[idx_e]
    quat_e = traj_est.quaternions[idx_e]
    pos_g = traj_gt.positions[idx_g]
    quat_g = traj_gt.quaternions[idx_g]
    if alignment != "none":
        if alignment not in ("rigid", "sim"):
            raise MetricsError(f"unknown alignment mode '{alignment}'")
        pos_e, quat_e = _similarity(*_umeyama(pos_e, pos_g, with_scale=(alignment == "sim")), pos_e, quat_e)
    return pos_e, quat_e, pos_g, quat_g


def ate(
    traj_est: Trajectory,
    traj_gt: Trajectory,
    alignment: str = "rigid",
    max_offset: float = 0.02,
) -> float:
    """RMS absolute trajectory error (meters).

    Per associated timestamp the error is the translation magnitude of the
    relative pose gt^-1 * est after alignment, which equals the straight
    distance between the two camera centers.
    """
    pos_e, _, pos_g, _ = _aligned_pairs(traj_est, traj_gt, alignment, max_offset)
    err = pos_e - pos_g
    return float(np.sqrt((err ** 2).sum(axis=1).mean()))


def ate_rot(
    traj_est: Trajectory,
    traj_gt: Trajectory,
    alignment: str = "rigid",
    max_offset: float = 0.02,
) -> float:
    """RMS absolute rotational error (degrees).

    Per associated timestamp the error is the absolute rotation angle of the
    relative pose gt^-1 * est, extracted as 2*atan2(|vec|, |w|) of the
    relative quaternion.
    """
    _, quat_e, _, quat_g = _aligned_pairs(traj_est, traj_gt, alignment, max_offset)
    rel = _quat.multiply(_quat.conjugate(quat_g), quat_e)
    angles = np.degrees(_quat.angle(rel))
    return float(np.sqrt((angles ** 2).mean()))


def attribute_C(slam_map: SlamMap) -> float:
    """Mean observing-keyframe count per map point."""
    if slam_map.n_points == 0:
        raise MetricsError("map has no points")
    return int(slam_map.observer_counts().sum()) / slam_map.n_points


def attribute_F(slam_map: SlamMap) -> int:
    """Largest seq_index span between keyframes observing a common point."""
    seq_of = {kf.id: kf.seq_index for kf in slam_map.keyframes}  # a repeated id: its last entry
    seq = np.array([seq_of[kf.id] for kf in slam_map.keyframes], np.int64)
    point, frame, _, _ = slam_map.observation_arrays()
    starts = np.flatnonzero(np.diff(point, prepend=-1))  # one run of frames per point
    seen_twice = np.diff(starts, append=len(point)) >= 2
    if not seen_twice.any():
        raise MetricsError("no point is observed by at least two keyframes")
    seqs = seq[frame]
    spans = np.maximum.reduceat(seqs, starts) - np.minimum.reduceat(seqs, starts)
    return int(spans[seen_twice].max())


# (width, height) in pixels of the image-grid cells of attribute_S and the grid-bucketing baseline.
GRID_CELL = (64, 48)


def attribute_S(slam_map: SlamMap) -> float:
    """Mean percentage of occupied image-grid cells over keyframes.

    Each image is partitioned into GRID_CELL (64 x 48) pixel cells (edge
    cells may be smaller, so every keypoint lands in exactly one cell); a
    keyframe's occupancy is the percentage of its cells holding at least one
    observation.
    """
    if slam_map.n_keyframes == 0:
        raise MetricsError("map has no keyframes")
    cell_width, cell_height = GRID_CELL
    _, frame, u, v = slam_map.observation_arrays()
    col = np.floor_divide(u, cell_width)
    row = np.floor_divide(v, cell_height)
    order = np.lexsort((row, col, frame))
    frame, col, row = frame[order], col[order], row[order]
    new_cell = np.ones(len(frame), bool)
    new_cell[1:] = (frame[1:] != frame[:-1]) | (col[1:] != col[:-1]) | (row[1:] != row[:-1])
    occupied = np.bincount(frame[new_cell], minlength=slam_map.n_keyframes)
    ids = slam_map._keyframe_ids
    occupied = occupied[np.searchsorted(ids, ids)]  # a repeated id: the cells of its first entry
    cells = np.array(
        [math.ceil(kf.intrinsics.width / cell_width) * math.ceil(kf.intrinsics.height / cell_height)
         for kf in slam_map.keyframes],
        np.int64,
    )
    return float(np.mean(100.0 * occupied / cells))


@dataclass
class MetricsReport:
    C: float
    F: int | None
    S: float
    n_points: int
    n_keyframes: int
    n_observations: int

    def to_dict(self) -> dict:
        return {
            "C": self.C,
            "F": self.F,
            "S": self.S,
            "points": self.n_points,
            "keyframes": self.n_keyframes,
            "observations": self.n_observations,
        }


def map_report(slam_map: SlamMap) -> MetricsReport:
    """Bundle the C/F/S attributes and the map's sizes; F is None where no point has two observers."""
    try:
        f_value: int | None = attribute_F(slam_map)
    except MetricsError:
        f_value = None
    return MetricsReport(
        C=attribute_C(slam_map),
        F=f_value,
        S=attribute_S(slam_map),
        n_points=slam_map.n_points,
        n_keyframes=slam_map.n_keyframes,
        n_observations=slam_map.n_observations,
    )
