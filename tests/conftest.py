import numpy as np
import pytest

from mapsparse.map_model import (
    CameraIntrinsics,
    Keyframe,
    MapPoint,
    Observation,
    Pose,
    SlamMap,
)

DEFAULT_INTRINSICS = CameraIntrinsics(fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480)

IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)

# Reduced maps of each benchmark workload's shape (perfbench/workloads.py):
# SynthConfig arguments other than the seed, and the window its jobs use.
WORKLOAD_SHAPES = [
    pytest.param(dict(n_points=2000, n_keyframes=20, trajectory="circle",
                      trajectory_scale=2.0, extent=12.0, dropout=0.4), 0, id="dense_whole"),
    pytest.param(dict(n_points=16000, n_keyframes=6, trajectory="circle",
                      trajectory_scale=6.0, extent=12.0, dropout=0.85), 0, id="wide_keypoints"),
    pytest.param(dict(n_points=400, n_keyframes=20, trajectory="line",
                      trajectory_scale=60.0, extent=60.0, dropout=0.4), 10, id="windowed"),
]


def map_from_records(keyframes, points, observations):
    """SlamMap from Keyframe, MapPoint and Observation records, in any order."""
    points, observations = list(points), list(observations)
    return SlamMap(
        keyframes,
        [p.id for p in points],
        np.array([p.position for p in points], np.float64).reshape(-1, 3),
        [o.point_id for o in observations],
        [o.keyframe_id for o in observations],
        [o.u for o in observations],
        [o.v for o in observations],
    )


def make_map(frame_positions, point_obs, intrinsics=DEFAULT_INTRINSICS):
    """Small-map builder for tests.

    frame_positions: list of (x, y, z) camera centers, frame id = index.
    point_obs: dict point_id -> list of (frame_id, u, v).
    """
    keyframes = [
        Keyframe(
            id=i,
            seq_index=i,
            timestamp=0.1 * i,
            pose=Pose(q=IDENTITY_Q, t=tuple(float(c) for c in pos)),
            intrinsics=intrinsics,
        )
        for i, pos in enumerate(frame_positions)
    ]
    points = [
        MapPoint(id=pid, position=(float(pid), 0.0, 5.0)) for pid in sorted(point_obs)
    ]
    observations = [
        Observation(point_id=pid, keyframe_id=fid, u=float(u), v=float(v))
        for pid, obs in point_obs.items()
        for (fid, u, v) in obs
    ]
    return map_from_records(keyframes, points, observations)


@pytest.fixture
def four_frame_map():
    """Four keyframes sharing three points: p0 on frames 0+1, p1 on all four,
    p2 on frames 2+3. Camera centers give hand-checkable baseline costs and
    keypoints sit far apart so every spatial cost is zero."""
    return make_map(
        frame_positions=[(0, 0, 0), (0, 0, 10), (0, 0, 30), (0, 0, 90)],
        point_obs={
            0: [(0, 50, 50), (1, 50, 50)],
            1: [(0, 300, 240), (1, 300, 240), (2, 300, 240), (3, 300, 240)],
            2: [(2, 550, 400), (3, 550, 400)],
        },
    )
