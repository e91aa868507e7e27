"""SLAM map data model: keyframes, map points, observations, and covisibility.

Everything here is immutable after construction; a :class:`SlamMap` builds its
point<->keyframe indices once and can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import IO, Iterable, Union

import numpy as np

from . import _quat

Source = Union[str, Path, IO[bytes], IO[str]]


class MapFormatError(ValueError):
    """Raised when a map file cannot be parsed into the expected schema."""


class MapIntegrityError(ValueError):
    """Raised when a parsed map violates model invariants (dangling ids, bad ranges)."""


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int


@dataclass(frozen=True)
class Pose:
    """Camera-to-world pose: unit quaternion (w, x, y, z) plus camera center."""

    q: tuple[float, float, float, float]
    t: tuple[float, float, float]

    def rotation(self) -> np.ndarray:
        """3x3 camera-to-world rotation matrix (assumes unit quaternion)."""
        return _quat.to_matrix(np.array(self.q))

    def center(self) -> np.ndarray:
        return np.array(self.t, dtype=float)


@dataclass(frozen=True)
class Keyframe:
    id: int
    seq_index: int
    timestamp: float
    pose: Pose
    intrinsics: CameraIntrinsics


@dataclass(frozen=True)
class MapPoint:
    id: int
    position: tuple[float, float, float]


@dataclass(frozen=True)
class Observation:
    point_id: int
    keyframe_id: int
    u: float
    v: float


@dataclass(frozen=True)
class CovisPair:
    """Unordered keyframe pair (frame_a < frame_b) sharing at least one point."""

    frame_a: int
    frame_b: int
    shared_point_ids: frozenset[int]


@dataclass
class ValidationReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


class SlamMap:
    """Immutable map container with derived point<->keyframe indices.

    Duplicate or dangling observations are tolerated at construction (so that
    :func:`validate` can report them); indices only reflect the first
    occurrence of each (point, keyframe) pair with valid references.
    """

    def __init__(
        self,
        keyframes: Iterable[Keyframe],
        points: Iterable[MapPoint],
        observations: Iterable[Observation],
    ):
        self.keyframes: tuple[Keyframe, ...] = tuple(sorted(keyframes, key=lambda k: k.id))
        self.points: tuple[MapPoint, ...] = tuple(sorted(points, key=lambda p: p.id))
        self.observations: tuple[Observation, ...] = tuple(
            sorted(observations, key=lambda o: (o.point_id, o.keyframe_id))
        )

        self._kf_by_id = {}
        for kf in self.keyframes:
            self._kf_by_id.setdefault(kf.id, kf)
        self._pt_by_id = {}
        for pt in self.points:
            self._pt_by_id.setdefault(pt.id, pt)

        self._obs_by_key: dict[tuple[int, int], Observation] = {}
        frames_of: dict[int, list[int]] = {p: [] for p in self._pt_by_id}
        points_of: dict[int, list[int]] = {k: [] for k in self._kf_by_id}
        for obs in self.observations:
            key = (obs.point_id, obs.keyframe_id)
            if key in self._obs_by_key:
                continue
            if obs.point_id not in self._pt_by_id or obs.keyframe_id not in self._kf_by_id:
                continue
            self._obs_by_key[key] = obs
            frames_of[obs.point_id].append(obs.keyframe_id)
            points_of[obs.keyframe_id].append(obs.point_id)
        self._frames_of_point = {p: tuple(sorted(f)) for p, f in frames_of.items()}
        self._points_of_frame = {k: tuple(sorted(p)) for k, p in points_of.items()}
        self._observation_arrays: tuple[np.ndarray, ...] | None = None

    @property
    def n_keyframes(self) -> int:
        return len(self.keyframes)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_observations(self) -> int:
        return len(self.observations)

    def keyframe(self, keyframe_id: int) -> Keyframe:
        return self._kf_by_id[keyframe_id]

    def point(self, point_id: int) -> MapPoint:
        return self._pt_by_id[point_id]

    def has_keyframe(self, keyframe_id: int) -> bool:
        return keyframe_id in self._kf_by_id

    def has_point(self, point_id: int) -> bool:
        return point_id in self._pt_by_id

    def observation(self, point_id: int, keyframe_id: int) -> Observation | None:
        return self._obs_by_key.get((point_id, keyframe_id))

    def frames_of_point(self, point_id: int) -> tuple[int, ...]:
        """Ids of keyframes observing the point, sorted ascending."""
        return self._frames_of_point[point_id]

    def points_of_frame(self, keyframe_id: int) -> tuple[int, ...]:
        """Ids of points observed in the keyframe, sorted ascending."""
        return self._points_of_frame[keyframe_id]

    def observation_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(point, frame, u, v) of every indexed observation, in (point id, frame id) order.

        ``point`` and ``frame`` are int64 positions in :attr:`points` and
        :attr:`keyframes` (the first entry of a repeated id), so they sort
        exactly as the ids do and never overflow, whatever the ids; ``u`` and
        ``v`` are float64. Built on the first call; the arrays are read-only.
        """
        if self._observation_arrays is None:
            point_pos: dict[int, int] = {}
            for i, pt in enumerate(self.points):
                point_pos.setdefault(pt.id, i)
            frame_pos: dict[int, int] = {}
            for i, kf in enumerate(self.keyframes):
                frame_pos.setdefault(kf.id, i)
            keys = self._obs_by_key
            k = len(keys)
            arrays = (
                np.fromiter((point_pos[p] for p, _ in keys), np.int64, k),
                np.fromiter((frame_pos[f] for _, f in keys), np.int64, k),
                np.fromiter((o.u for o in keys.values()), np.float64, k),
                np.fromiter((o.v for o in keys.values()), np.float64, k),
            )
            for a in arrays:
                a.flags.writeable = False
            self._observation_arrays = arrays
        return self._observation_arrays


def maps_equal(a: SlamMap, b: SlamMap) -> bool:
    """Exact field-by-field equality (floats compared bitwise)."""
    return (
        a.keyframes == b.keyframes
        and a.points == b.points
        and a.observations == b.observations
    )


def _require(entry: dict, key: str, where: str):
    if key not in entry:
        raise MapFormatError(f"{where}: missing field '{key}'")
    return entry[key]


def _read_text(source: Source) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _write_text(sink: Union[str, Path, IO[bytes], IO[str]], text: str) -> None:
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
        return
    try:
        sink.write(text)
    except TypeError:
        sink.write(text.encode("utf-8"))


def _int(x, where: str, field: str) -> int:
    """A JSON integer; booleans, floats and strings are refused, never coerced."""
    if type(x) is not int:
        raise MapFormatError(f"{where}: {field} must be an integer, got {x!r}")
    return x


def _num(x, where: str, field: str) -> float:
    """A JSON number (integer or float) as a float; booleans and strings are refused."""
    if type(x) is not float and type(x) is not int:
        raise MapFormatError(f"{where}: {field} must be a number, got {x!r}")
    return float(x)


def _parse_keyframe(entry, where: str) -> Keyframe:
    pose = _require(entry, "pose", where)
    intr = _require(entry, "intrinsics", where)
    q = _require(pose, "q", where + ".pose")
    t = _require(pose, "t", where + ".pose")
    if len(q) != 4 or len(t) != 3:
        raise MapFormatError(f"{where}.pose: q must have 4 entries and t must have 3")
    iw = where + ".intrinsics"
    return Keyframe(
        id=_int(_require(entry, "id", where), where, "id"),
        seq_index=_int(_require(entry, "seq_index", where), where, "seq_index"),
        timestamp=_num(_require(entry, "timestamp", where), where, "timestamp"),
        pose=Pose(
            q=tuple(_num(x, where, "pose.q") for x in q),
            t=tuple(_num(x, where, "pose.t") for x in t),
        ),
        intrinsics=CameraIntrinsics(
            fx=_num(_require(intr, "fx", iw), iw, "fx"),
            fy=_num(_require(intr, "fy", iw), iw, "fy"),
            cx=_num(_require(intr, "cx", iw), iw, "cx"),
            cy=_num(_require(intr, "cy", iw), iw, "cy"),
            width=_int(_require(intr, "width", iw), iw, "width"),
            height=_int(_require(intr, "height", iw), iw, "height"),
        ),
    )


def _parse_point(entry, where: str) -> MapPoint:
    xyz = _require(entry, "xyz", where)
    if len(xyz) != 3:
        raise MapFormatError(f"{where}: xyz must have 3 entries")
    return MapPoint(
        id=_int(_require(entry, "id", where), where, "id"),
        position=tuple(_num(x, where, "xyz") for x in xyz),
    )


def _parse_observation(entry, where: str) -> Observation:
    uv = _require(entry, "uv", where)
    if len(uv) != 2:
        raise MapFormatError(f"{where}: uv must have 2 entries")
    return Observation(
        point_id=_int(_require(entry, "point", where), where, "point"),
        keyframe_id=_int(_require(entry, "frame", where), where, "frame"),
        u=_num(uv[0], where, "uv"),
        v=_num(uv[1], where, "uv"),
    )


def _parse_records(doc: dict, key: str, parse) -> list:
    """Parse ``doc[key]`` record by record; any failure names the record."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise MapFormatError(f"'{key}' must be an array")
    records = []
    for i, entry in enumerate(entries):
        where = f"{key}[{i}]"
        try:
            records.append(parse(entry, where))
        except MapFormatError:
            raise
        except (TypeError, ValueError, OverflowError) as e:
            raise MapFormatError(f"{where}: {e}") from e
    return records


def load_map(source: Source) -> SlamMap:
    """Parse a JSON map file and return a validated :class:`SlamMap`.

    Raises :class:`MapFormatError` with a line/field location on malformed
    input, and :class:`MapIntegrityError` naming the offending ids when the
    parsed map violates invariants (e.g. an observation referencing a
    missing point).
    """
    text = _read_text(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MapFormatError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise MapFormatError("top-level value must be an object")

    slam_map = SlamMap(
        _parse_records(doc, "keyframes", _parse_keyframe),
        _parse_records(doc, "points", _parse_point),
        _parse_records(doc, "observations", _parse_observation),
    )
    report = validate(slam_map)
    if not report.ok:
        raise MapIntegrityError("; ".join(report.violations))
    return slam_map


def save_map(slam_map: SlamMap, sink: Union[str, Path, IO[bytes], IO[str]]) -> None:
    """Serialize to the JSON map format, arrays sorted by id, full float precision."""
    doc = {
        "keyframes": [
            {
                "id": kf.id,
                "seq_index": kf.seq_index,
                "timestamp": kf.timestamp,
                "pose": {"q": list(kf.pose.q), "t": list(kf.pose.t)},
                "intrinsics": {
                    "fx": kf.intrinsics.fx,
                    "fy": kf.intrinsics.fy,
                    "cx": kf.intrinsics.cx,
                    "cy": kf.intrinsics.cy,
                    "width": kf.intrinsics.width,
                    "height": kf.intrinsics.height,
                },
            }
            for kf in slam_map.keyframes
        ],
        "points": [{"id": pt.id, "xyz": list(pt.position)} for pt in slam_map.points],
        "observations": [
            {"point": o.point_id, "frame": o.keyframe_id, "uv": [o.u, o.v]}
            for o in slam_map.observations
        ],
    }
    _write_text(sink, json.dumps(doc, indent=1) + "\n")


_POSE_TOL = 1e-9


def validate(slam_map: SlamMap) -> ValidationReport:
    """Check every model invariant; violations are reported, never raised."""
    v: list[str] = []

    seen_kf: set[int] = set()
    for kf in slam_map.keyframes:
        if kf.id in seen_kf:
            v.append(f"duplicate keyframe id {kf.id}")
            continue
        seen_kf.add(kf.id)
        if kf.id < 0:
            v.append(f"keyframe {kf.id}: id must be non-negative")
        if kf.seq_index < 0:
            v.append(f"keyframe {kf.id}: seq_index must be non-negative")
        intr = kf.intrinsics
        if not (intr.fx > 0 and intr.fy > 0):
            v.append(f"keyframe {kf.id}: focal lengths must be positive")
        if not (0 < intr.cx < intr.width) or not (0 < intr.cy < intr.height):
            v.append(f"keyframe {kf.id}: principal point outside image")
        if intr.width < 64 or intr.height < 48:
            v.append(f"keyframe {kf.id}: image must be at least 64x48")
        q = np.array(kf.pose.q)
        norm_dev = abs(float(np.linalg.norm(q)) - 1.0)
        if not math.isfinite(norm_dev) or norm_dev > _POSE_TOL:
            v.append(f"keyframe {kf.id}: quaternion norm deviates from 1 by {norm_dev:.3e}")
        else:
            R = _quat.to_matrix(q)
            dev = float(np.max(np.abs(R @ R.T - np.eye(3))))
            if dev > _POSE_TOL:
                v.append(f"keyframe {kf.id}: rotation times its inverse deviates from identity by {dev:.3e}")
        if not all(math.isfinite(x) for x in kf.pose.t):
            v.append(f"keyframe {kf.id}: non-finite translation")

    ordered = sorted((kf for kf in slam_map.keyframes), key=lambda k: k.seq_index)
    for a, b in zip(ordered, ordered[1:]):
        if a.seq_index == b.seq_index:
            v.append(f"keyframes {a.id} and {b.id}: duplicate seq_index {a.seq_index}")
        elif a.timestamp >= b.timestamp:
            v.append(
                f"keyframes {a.id} and {b.id}: seq_index not strictly increasing with timestamp"
            )

    seen_pt: set[int] = set()
    for pt in slam_map.points:
        if pt.id in seen_pt:
            v.append(f"duplicate point id {pt.id}")
            continue
        seen_pt.add(pt.id)
        if pt.id < 0:
            v.append(f"point {pt.id}: id must be non-negative")
        if not all(math.isfinite(x) for x in pt.position):
            v.append(f"point {pt.id}: non-finite position")

    seen_obs: set[tuple[int, int]] = set()
    for obs in slam_map.observations:
        key = (obs.point_id, obs.keyframe_id)
        if key in seen_obs:
            v.append(f"duplicate observation (point {obs.point_id}, frame {obs.keyframe_id})")
            continue
        seen_obs.add(key)
        if obs.point_id not in seen_pt:
            v.append(f"observation references missing point id {obs.point_id}")
            continue
        if obs.keyframe_id not in seen_kf:
            v.append(f"observation references missing keyframe id {obs.keyframe_id}")
            continue
        intr = slam_map.keyframe(obs.keyframe_id).intrinsics
        if not (0.0 <= obs.u < intr.width):
            v.append(
                f"observation (point {obs.point_id}, frame {obs.keyframe_id}): "
                f"u {obs.u} outside [0, {intr.width})"
            )
        if not (0.0 <= obs.v < intr.height):
            v.append(
                f"observation (point {obs.point_id}, frame {obs.keyframe_id}): "
                f"v {obs.v} outside [0, {intr.height})"
            )

    return ValidationReport(v)


def covisibility(slam_map: SlamMap) -> list[CovisPair]:
    """All unordered keyframe pairs sharing at least one point.

    Returned in lexicographic (frame_a, frame_b) order, each pair carrying its
    full shared-point set. A point observed by n keyframes contributes to
    exactly n*(n-1)/2 pairs.
    """
    shared: dict[tuple[int, int], set[int]] = {}
    for pt in slam_map.points:
        fids = slam_map.frames_of_point(pt.id)
        for a, b in combinations(fids, 2):
            shared.setdefault((a, b), set()).add(pt.id)
    return [
        CovisPair(frame_a=a, frame_b=b, shared_point_ids=frozenset(pids))
        for (a, b), pids in sorted(shared.items())
    ]
