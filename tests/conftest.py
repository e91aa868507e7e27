import math

import numpy as np
import pytest
from hypothesis import strategies as st

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


# Images of the drawn maps' keyframes: the default, the smallest allowed, and one of odd size.
_IMAGES = [
    DEFAULT_INTRINSICS,
    CameraIntrinsics(fx=525.0, fy=525.0, cx=32.0, cy=24.0, width=64, height=48),
    CameraIntrinsics(fx=math.inf, fy=5e-324, cx=50.5, cy=40.5, width=101, height=81),
]


def _coords(size: int):
    """Keypoint coordinates in [0, size): the image edges, -0.0, the edges of 64x48 cells, or any."""
    edges = [0.0, -0.0, 47.99999999999999, 48.0, 63.99999999999999, 64.0, math.nextafter(size, 0.0)]
    return st.one_of(st.sampled_from([x for x in edges if x < size]), st.floats(0.0, size, exclude_max=True))


@st.composite
def valid_records(draw, ids=st.integers(0, 60), floats=st.floats(-1e3, 1e3)):
    """(keyframes, points, observations) records of a valid map, each list in drawn order.

    The ids have gaps, seq_index order differs from id order, some points
    may have no observation, and keypoints may sit on the image edges. ``ids``
    draws the keyframe and point ids, ``floats`` the point positions.
    """
    frame_ids = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    n_frames = len(frame_ids)
    seqs = sorted(draw(st.lists(ids, min_size=n_frames, max_size=n_frames, unique=True)))
    stamps = sorted(draw(st.lists(st.floats(allow_nan=False), min_size=n_frames, max_size=n_frames, unique=True)))
    ranks = draw(st.permutations(range(n_frames)))  # each keyframe's place in seq_index order
    keyframes = [
        Keyframe(kid, seqs[r], stamps[r], Pose(IDENTITY_Q, (float(r), 0.0, 0.0)), draw(st.sampled_from(_IMAGES)))
        for kid, r in zip(frame_ids, ranks)
    ]
    points = [MapPoint(pid, draw(st.tuples(floats, floats, floats)))
              for pid in draw(st.lists(ids, max_size=16, unique=True))]
    keys = []
    if points:
        keys = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(keyframes)),
                             unique_by=lambda key: (key[0].id, key[1].id), max_size=40))
    observations = [
        Observation(pt.id, kf.id, draw(_coords(kf.intrinsics.width)), draw(_coords(kf.intrinsics.height)))
        for pt, kf in keys
    ]
    return keyframes, points, observations


def valid_maps(**kwargs):
    """Maps of :func:`valid_records`."""
    return valid_records(**kwargs).map(lambda records: map_from_records(*records))
