"""SLAM map data model: keyframes, map points and observations, and map file I/O.

Everything here is immutable after construction and can be shared freely
across threads. A :class:`SlamMap` keeps its keyframes as objects and its
points and observations, the bulk of a map, as read-only numpy columns.
"""

from __future__ import annotations

import io
import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass
from numbers import Integral
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


@dataclass
class ValidationReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


class ColumnView:
    """Records over equal-length numpy columns, built one at a time as they are iterated.

    A subclass names its ``_record_type``, whose fields are the columns in order.
    """

    __slots__ = ("_columns",)
    _record_type: type

    def __init__(self, *columns: np.ndarray):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        return map(self._record_type, *(c.tolist() for c in self._columns))


class PointView(ColumnView):
    """A map's points, iterated as :class:`MapPoint`; columns ``id`` (int64) and ``xyz`` ((P, 3) float64)."""

    __slots__ = ()

    @property
    def id(self) -> np.ndarray:
        return self._columns[0]

    @property
    def xyz(self) -> np.ndarray:
        return self._columns[1]

    def __iter__(self):
        return map(MapPoint, self.id.tolist(), map(tuple, self.xyz.tolist()))


class ObservationView(ColumnView):
    """A map's observations, iterated as :class:`Observation`; columns ``point_id`` and
    ``keyframe_id`` (int64), ``u`` and ``v`` (float64)."""

    __slots__ = ()
    _record_type = Observation

    @property
    def point_id(self) -> np.ndarray:
        return self._columns[0]

    @property
    def keyframe_id(self) -> np.ndarray:
        return self._columns[1]

    @property
    def u(self) -> np.ndarray:
        return self._columns[2]

    @property
    def v(self) -> np.ndarray:
        return self._columns[3]


def _sealed(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: for a fresh array handed to a constructor, which then keeps it as it is."""
    a.flags.writeable = False
    return a


def _frozen(a, dtype) -> np.ndarray:
    """``a`` as a read-only ``dtype`` array that no other holder can write through.

    The one rule for what a constructor copies: an ndarray is kept as it is
    only when it is read-only, of ``dtype`` and owns its data (``base is
    None``), as a :func:`_sealed` fresh array does. Any other ndarray, such
    as a caller's writable array or a read-only view of one, is copied, and
    anything else is converted once.
    """
    if not (isinstance(a, np.ndarray) and not a.flags.writeable and a.dtype == dtype and a.base is None):
        a = _sealed(np.array(a, dtype))
    return a


def _repeats(sorted_ids: np.ndarray) -> np.ndarray:
    """Whether each entry of a sorted array equals the one before it."""
    out = np.zeros(len(sorted_ids), bool)
    out[1:] = sorted_ids[1:] == sorted_ids[:-1]
    return out


def _sorted(major: np.ndarray, minor: np.ndarray | None = None) -> bool:
    """Whether the rows are in ascending (major, minor) order, equal rows allowed."""
    down = major[1:] < major[:-1]
    if minor is not None:
        down |= (major[1:] == major[:-1]) & (minor[1:] < minor[:-1])
    return not down.any()


def _positions(sorted_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index of the first entry equal to each key in ``sorted_ids``, or -1 where there is none."""
    if not len(sorted_ids):
        return np.full(len(keys), -1, np.intp)
    pos = np.searchsorted(sorted_ids, keys)
    # A key past the last id is compared with the last id, which it cannot equal.
    return np.where(sorted_ids[np.minimum(pos, len(sorted_ids) - 1)] == keys, pos, -1)


class SlamMap:
    """Immutable map: keyframe objects plus point and observation columns.

    ``keyframes`` is a tuple of :class:`Keyframe` sorted by id. ``points`` is
    a :class:`PointView` over the columns ``id`` and ``xyz``, sorted by id;
    ``observations`` is an :class:`ObservationView` over the columns
    ``point_id``, ``keyframe_id``, ``u`` and ``v``, sorted by (point id,
    keyframe id). The constructor takes the point columns (id, (P, 3) xyz)
    and the observation columns (point id, keyframe id, u, v) in any order;
    both sorts are stable, and every id must fit in int64. Columns that come
    sorted are kept or copied by the rule of :func:`_frozen`: a read-only
    column of the right dtype that owns its data is kept as it is, any other
    is copied. Unsorted columns are gathered into sorted ones.

    Duplicate or dangling observations are tolerated at construction (so that
    :func:`validate` can report them); :meth:`observation_arrays` only holds
    the first occurrence of each (point, keyframe) pair with valid references.
    """

    def __init__(self, keyframes: Iterable[Keyframe], point_id, xyz, obs_point_id, obs_keyframe_id, u, v):
        point_id, obs_point_id, obs_keyframe_id = (
            _frozen(c, np.int64) for c in (point_id, obs_point_id, obs_keyframe_id)
        )
        xyz, u, v = (_frozen(c, np.float64) for c in (xyz, u, v))
        observation_columns = (obs_point_id, obs_keyframe_id, u, v)
        if (
            point_id.ndim != 1
            or xyz.shape != (len(point_id), 3)
            or any(c.shape != obs_point_id.shape or c.ndim != 1 for c in observation_columns)
        ):
            raise ValueError("points need ids (P,) and xyz (P, 3); observations need four 1-d columns of one length")
        self.keyframes: tuple[Keyframe, ...] = tuple(sorted(keyframes, key=lambda k: k.id))
        self._keyframe_ids = np.array([kf.id for kf in self.keyframes], np.int64)

        # load_map and _sub_map pass sorted columns, which are kept as they
        # are: a stable sort would leave them in place.
        if not _sorted(point_id):
            order = np.argsort(point_id, kind="stable")
            point_id, xyz = _sealed(point_id[order]), _sealed(xyz[order])
        if not _sorted(obs_point_id, obs_keyframe_id):
            order = np.lexsort((obs_keyframe_id, obs_point_id))
            observation_columns = tuple(_sealed(c[order]) for c in observation_columns)
        point, frame, u, v = observation_columns
        del observation_columns, obs_point_id, obs_keyframe_id  # free the unsorted columns, where they were gathered

        # Row of each observation's point and keyframe (the first entry of a
        # repeated id), or -1 where the id is missing.
        point_pos = _positions(point_id, point)
        frame_pos = _positions(self._keyframe_ids, frame)
        first = np.ones(len(point), bool)  # first observation of its (point, keyframe) pair
        first[1:] = (point[1:] != point[:-1]) | (frame[1:] != frame[:-1])
        indexed = first & (point_pos >= 0) & (frame_pos >= 0)
        arrays = (point_pos, frame_pos, u, v)
        if not indexed.all():
            arrays = tuple(a[indexed] for a in arrays)
        for a in (self._keyframe_ids, point_pos, frame_pos, first, *arrays):
            a.flags.writeable = False

        self.points: PointView = PointView(point_id, xyz)
        self.observations: ObservationView = ObservationView(point, frame, u, v)
        self._obs_point_pos = point_pos
        self._obs_frame_pos = frame_pos
        self._obs_first = first
        self._observation_arrays = arrays
        # The indexed observations of the point in row i are rows
        # point_offsets[i]:point_offsets[i + 1] of observation_arrays().
        self._point_offsets = np.searchsorted(arrays[0], np.arange(len(point_id) + 1))

    @property
    def n_keyframes(self) -> int:
        return len(self.keyframes)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_observations(self) -> int:
        return len(self.observations)

    def observer_counts(self) -> np.ndarray:
        """Per entry of :attr:`points`, the number of keyframes observing its id (int64)."""
        ids = self.points.id
        return np.diff(self._point_offsets)[np.searchsorted(ids, ids)]

    def observation_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(point, frame, u, v) of every indexed observation, in (point id, frame id) order.

        ``point`` and ``frame`` are int64 positions in :attr:`points` and
        :attr:`keyframes` (the first entry of a repeated id), so they sort
        exactly as the ids do; ``u`` and ``v`` are float64. On a map whose
        every observation is indexed, ``u`` and ``v`` are the
        :attr:`observations` columns themselves. The arrays are read-only.
        """
        return self._observation_arrays


def _sub_map(slam_map: SlamMap, keyframes: Iterable[Keyframe], point_ids: np.ndarray, on_obs: np.ndarray) -> SlamMap:
    """The map of ``keyframes``, the points whose ids are in the sorted array
    ``point_ids``, and the observations where the mask ``on_obs`` holds."""
    points, obs = slam_map.points, slam_map.observations
    on_point = _positions(point_ids, points.id) >= 0
    columns = (points.id[on_point], points.xyz[on_point], *(c[on_obs] for c in obs._columns))
    return SlamMap(keyframes, *map(_sealed, columns))


def maps_equal(a: SlamMap, b: SlamMap) -> bool:
    """Exact equality: keyframes field by field, point and observation columns bitwise."""

    def columns(m: SlamMap):
        return (*m.points._columns, *m.observations._columns)

    return a.keyframes == b.keyframes and all(
        np.array_equal(x.view(np.int64), y.view(np.int64)) for x, y in zip(columns(a), columns(b))
    )


def _require(entry: dict, key: str, where: str):
    if key not in entry:
        raise MapFormatError(f"{where}: missing field '{key}'")
    return entry[key]


def _read_text(source: Source, error: type[ValueError] = MapFormatError) -> str:
    """The text of a path or a file object, read as UTF-8; bytes that are not UTF-8 raise ``error``."""
    try:
        if isinstance(source, (str, Path)):
            return Path(source).read_text(encoding="utf-8")
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        raise error(f"input is not UTF-8 text: {e.reason} at byte {e.start}") from e


def _write_blocks(sink: Union[str, Path, IO[bytes], IO[str]], blocks: Iterable[str]) -> None:
    """Write each block of text in turn to a path (opened once, as UTF-8), a text stream or a binary stream."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as f:
            f.writelines(blocks)
        return
    for block in blocks:
        try:
            sink.write(block)
        except TypeError:
            sink.write(block.encode("utf-8"))


_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _int(x, where: str, field: str) -> int:
    """A JSON integer within int64; booleans, floats and strings are refused, never coerced."""
    if type(x) is not int:
        raise MapFormatError(f"{where}: {field} must be an integer, got {x!r}")
    if not _INT64_MIN <= x <= _INT64_MAX:
        raise MapFormatError(f"{where}: {field} must fit in a signed 64-bit integer, got {x!r}")
    return x


def _check_int(value, name: str, low: int, error: type[ValueError]) -> None:
    """Raise ``error`` unless ``value`` is an integer >= ``low`` (Python or numpy, never bool)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


def _num(x, where: str, field: str) -> float:
    """A JSON number (integer or float) as a float; booleans and strings are refused."""
    if type(x) is not float and type(x) is not int:
        raise MapFormatError(f"{where}: {field} must be a number, got {x!r}")
    return float(x)


def _all_int(column: list) -> bool:
    """Whether every entry is a JSON integer; np.array(column, np.int64) checks the range."""
    return set(map(type, column)) <= {int}


def _all_num(column: list) -> bool:
    """Whether :func:`_num` accepts every entry."""
    return set(map(type, column)) <= {int, float}


def _array(entry, key: str, n: int, where: str) -> list:
    """Field ``key`` of a record, which must be a JSON array of n entries."""
    value = _require(entry, key, where)
    if type(value) is not list or len(value) != n:
        raise MapFormatError(f"{where}: {key} must be an array of {n} numbers")
    return value


def _parse_keyframe(entry, where: str) -> Keyframe:
    pose = _require(entry, "pose", where)
    intr = _require(entry, "intrinsics", where)
    q = _array(pose, "q", 4, where + ".pose")
    t = _array(pose, "t", 3, where + ".pose")
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
    xyz = _array(entry, "xyz", 3, where)
    return MapPoint(
        id=_int(_require(entry, "id", where), where, "id"),
        position=tuple(_num(x, where, "xyz") for x in xyz),
    )


def _parse_observation(entry, where: str) -> Observation:
    uv = _array(entry, "uv", 2, where)
    return Observation(
        point_id=_int(_require(entry, "point", where), where, "point"),
        keyframe_id=_int(_require(entry, "frame", where), where, "frame"),
        u=_num(uv[0], where, "uv"),
        v=_num(uv[1], where, "uv"),
    )


def _section(doc: dict, key: str) -> list:
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise MapFormatError(f"'{key}' must be an array")
    return entries


def _parse_records(entries: list, key: str, parse) -> list:
    """Parse the records of section ``key`` one by one; any failure names the record."""
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


def _record_error(entries: list, key: str, parse) -> MapFormatError:
    """The error naming the first record of section ``key`` that does not parse.

    For a section whose columns failed a check: a record that parses on its
    own passes every column check, so some record raises here.
    """
    _parse_records(entries, key, parse)
    return MapFormatError(f"'{key}' failed a column check that each of its records passes")


def _point_columns(entries: list) -> tuple[np.ndarray, np.ndarray] | None:
    """(id, xyz) columns of a list of point records, checked column by column; None where a check fails."""
    try:
        ids = [e["id"] for e in entries]
        xyz = [e["xyz"] for e in entries]
        if _all_int(ids) and set(map(len, xyz)) <= {3}:
            flat = [x for p in xyz for x in p]
            if _all_num(flat):
                return np.array(ids, np.int64), np.array(flat, np.float64).reshape(-1, 3)
    except (KeyError, TypeError, OverflowError):
        pass
    return None


def _observation_columns(entries: list) -> tuple[np.ndarray, ...] | None:
    """(point, frame, u, v) columns of a list of observation records, checked as :func:`_point_columns` does."""
    try:
        point = [e["point"] for e in entries]
        frame = [e["frame"] for e in entries]
        uv = [e["uv"] for e in entries]
        if _all_int(point) and _all_int(frame) and set(map(len, uv)) <= {2}:
            flat = [x for w in uv for x in w]
            if _all_num(flat):
                uv = np.array(flat, np.float64).reshape(-1, 2)
                return np.array(point, np.int64), np.array(frame, np.int64), uv[:, 0], uv[:, 1]
    except (KeyError, TypeError, OverflowError):
        pass
    return None


def _checked_columns(doc: dict, key: str, columns, parse) -> tuple[np.ndarray, ...]:
    """The columns of section ``key``; where a column check fails, the error naming the first bad record."""
    entries = _section(doc, key)
    result = columns(entries)
    if result is None:
        raise _record_error(entries, key, parse)
    return result


def _parse_whole(text: str) -> tuple[list, tuple, tuple]:
    """Keyframes, point columns and observation columns of a map document, parsed in one piece."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MapFormatError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # too many digits in an integer, or arrays nested too deep
        raise MapFormatError(f"parse error: {e}") from e
    if not isinstance(doc, dict):
        raise MapFormatError("top-level value must be an object")
    return (
        _parse_records(_section(doc, "keyframes"), "keyframes", _parse_keyframe),
        _checked_columns(doc, "points", _point_columns, _parse_point),
        _checked_columns(doc, "observations", _observation_columns, _parse_observation),
    )


# How save_map lays out the end of a document: the points and then the
# observations are the last two members of the top-level object.
_POINTS_KEY = ',\n "points": '
_OBSERVATIONS_KEY = ',\n "observations": '
_DOCUMENT_END = "\n}\n"
# Bytes read from a map file at a time, and about the bytes of a points or
# observations array parsed at a time: 2**16 parsed as fast as 2**18 on the
# benchmark maps, and holds a quarter of the records as Python objects.
_CHUNK_CHARS = 1 << 16


class _Pieces:
    """A binary stream read forward in blocks of :data:`_CHUNK_CHARS` bytes.

    ``data`` holds the bytes read and not yet taken: no more than about two
    blocks while an array is read in pieces.
    """

    def __init__(self, stream: IO[bytes]):
        self._stream = stream
        self.data = bytearray()

    def _read(self) -> bool:
        """Append the next block to ``data``; False at the end of the stream."""
        block = self._stream.read(_CHUNK_CHARS)
        self.data += block
        return bool(block)

    def find(self, sub: bytes, start: int) -> int:
        """Index in ``data`` of the first ``sub`` at or after ``start``, reading on as needed; -1 at the end."""
        while True:
            at = self.data.find(sub, start)
            if at >= 0:
                return at
            start = max(start, len(self.data) - len(sub) + 1)
            if not self._read():
                return -1

    def take(self, prefix: bytes) -> bool:
        """Whether the unread bytes start with ``prefix``, which is then taken."""
        while len(self.data) < len(prefix) and self._read():
            pass
        if not self.data.startswith(prefix):
            return False
        del self.data[: len(prefix)]
        return True

    def at_end(self) -> bool:
        return not self.data and not self._read()

    def array(self, after: bytes, columns) -> tuple[np.ndarray, ...] | None:
        """Columns of the JSON array that comes next and is followed by ``after``; None where a piece fails.

        The array is ``[]`` or runs to the first ``\n ]`` followed by
        ``after``, and is cut after the first ``},`` past each
        :data:`_CHUNK_CHARS` bytes, never past its end. Each piece is decoded as
        strict UTF-8 and turned into columns at once. When every piece parses
        to a non-empty array, each comma at a cut separates two elements, so
        the array is the pieces' concatenation. A piece that does not decode
        or parse, parses to an empty array or fails its column check gives
        None. On success ``after`` is taken too.
        """
        if self.take(b"[]" + after):
            return columns([])
        if not self.take(b"["):
            return None
        close = b"\n ]" + after
        parts = []
        while True:
            cut = self.find(b"},", _CHUNK_CHARS)
            # close holds no "}," and does not end in "}", so it never overlaps the cut.
            stop = self.data.find(close, 0, len(self.data) if cut < 0 else cut)
            if stop < 0 and cut < 0:
                return None
            entries = json.loads("[" + self.data[: cut + 1 if stop < 0 else stop].decode("utf-8") + "]")
            part = columns(entries) if entries else None
            if part is None:
                return None
            parts.append(part)
            if stop >= 0:
                del self.data[: stop + len(close)]
                return tuple(np.concatenate(c) for c in zip(*parts))
            del self.data[: cut + 2]


def _parse_pieces(stream: IO[bytes]) -> tuple[list, tuple, tuple] | None:
    """What :func:`_parse_whole` returns for the document in a binary stream, read forward a piece at a time.

    The document must be laid out as :func:`save_map` ends one: a head up to
    the first ``,\n "points": ``, the points array, exactly ``,\n
    "observations": ``, the observations array, and ``\n}\n`` at the end of
    the stream. Gives None where it is not, or where the skeleton (the head
    with both arrays empty), a piece or a column check fails; the caller then
    parses the whole document. A raw newline cannot sit inside a JSON string,
    so the keys found here lie outside strings. When the skeleton parses, the
    closing ``\n}\n`` makes them the last two members of the top-level
    object, and json keeps the last of a repeated key, so these are the
    arrays a whole parse would use. Putting the two arrays, each valid, back
    into the skeleton gives the whole document, so it parses as the skeleton
    and the arrays do, and its strict UTF-8 decoding is the pieces' (every
    cut falls on an ASCII byte).
    """
    pieces = _Pieces(stream)
    points_key = _POINTS_KEY.encode()
    try:
        at = pieces.find(points_key, 0)
        if at < 0:
            return None
        head = pieces.data[:at].decode("utf-8")
        del pieces.data[: at + len(points_key)]
        skeleton = json.loads(head + _POINTS_KEY + "[]" + _OBSERVATIONS_KEY + "[]" + _DOCUMENT_END)
        points = pieces.array(_OBSERVATIONS_KEY.encode(), _point_columns)
        observations = points and pieces.array(_DOCUMENT_END.encode(), _observation_columns)
    except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        return None
    if observations is None or not pieces.at_end():
        return None
    return _parse_records(_section(skeleton, "keyframes"), "keyframes", _parse_keyframe), points, observations


def load_map(source: Source) -> SlamMap:
    """Parse a JSON map file and return a validated :class:`SlamMap`.

    Raises :class:`MapFormatError` with a line/field location on malformed
    input, and :class:`MapIntegrityError` naming the offending ids when the
    parsed map violates invariants (e.g. an observation referencing a
    missing point). Every integer field must fit in int64.

    A path is read forward :data:`_CHUNK_CHARS` (2**16) bytes at a time. A document
    laid out as :func:`save_map` writes it has its points and observations
    parsed in pieces of about that size, so neither its bytes, its text nor
    more than a piece of its records as Python objects are held at once; any
    other document, and any document that fails, is read and parsed whole,
    with the same result. A file object is read whole, then parsed the same
    way.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            sections = _parse_pieces(stream)
        if sections is None:
            sections = _parse_whole(_read_text(source))
    else:  # read whole, since a pipe cannot be read again should the pieces fail
        data = source.read()
        from_text = isinstance(data, str)
        if from_text:  # surrogatepass round-trips any str; a lone surrogate then fails the pieces' strict decoding
            data = data.encode("utf-8", "surrogatepass")
        sections = _parse_pieces(io.BytesIO(data))
        if sections is None:
            text = data.decode("utf-8", "surrogatepass") if from_text else _read_text(io.BytesIO(data))
            sections = _parse_whole(text)
    keyframes, points, observations = sections
    del sections
    # The parsed columns are fresh and sorted as save_map writes them, so the map keeps them without a copy.
    slam_map = SlamMap(keyframes, *map(_sealed, (*points, *observations)))
    del points, observations
    report = validate(slam_map)
    if not report.ok:
        raise MapIntegrityError("; ".join(report.violations))
    return slam_map


# One point and one observation record as json.dumps(doc, indent=1) lays
# them out inside the document's top-level arrays.
_POINT_RECORD = '  {\n   "id": %s,\n   "xyz": [\n    %s,\n    %s,\n    %s\n   ]\n  }'
_OBSERVATION_RECORD = '  {\n   "point": %s,\n   "frame": %s,\n   "uv": [\n    %s,\n    %s\n   ]\n  }'
# Rows formatted at a time, in map files and in reports.
_ROW_BLOCK = 1 << 12


def _json_numbers(column: np.ndarray) -> list:
    """The column's values, each of which ``%s`` writes as json.dumps would."""
    values = column.tolist()  # str() of a Python int or float is json's text for it
    if column.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            values[i] = json.dumps(values[i])  # NaN, Infinity, -Infinity
    return values


def _json_rows(template: str, columns, indent: str, brackets: str = "[]") -> Iterator[str]:
    """One ``template`` entry per row of the columns, as a member of a top-level object laid out with ``indent``.

    ``brackets`` are the member's: ``"[]"`` for a list, ``"{}"`` for an
    object whose template writes each entry's key. The text comes in blocks
    of :data:`_ROW_BLOCK` rows.
    """
    n = len(columns[0])
    if not n:
        yield brackets
        return
    width = len(columns)
    for lo in range(0, n, _ROW_BLOCK):
        rows = min(_ROW_BLOCK, n - lo)
        values = [None] * (width * rows)  # row by row: the first row's values, then the second's
        for i, column in enumerate(columns):
            values[i::width] = _json_numbers(column[lo : lo + rows])
        yield brackets[0] + "\n" if lo == 0 else ",\n"
        yield ",\n".join([template] * rows) % tuple(values)
    yield "\n" + indent + brackets[1]


def _json_object(members: dict, indent: str, sort_keys: bool = False) -> Iterator[str]:
    """The text of ``json.dumps(members, indent=indent, sort_keys=sort_keys)``, member by member.

    A member given as an iterator of text, such as :func:`_json_rows`, is
    written as it comes. Any other member goes through json, each of its
    newlines followed by ``indent``: json escapes every newline inside a
    string, so each one it writes is layout.
    """
    sep = "{\n"
    for key in sorted(members) if sort_keys else members:
        yield sep + indent + json.dumps(key) + ": "
        sep = ",\n"
        value = members[key]
        if isinstance(value, Iterator):
            yield from value
        else:
            yield json.dumps(value, indent=indent, sort_keys=sort_keys).replace("\n", "\n" + indent)
    yield "\n}" if members else "{}"


def save_map(slam_map: SlamMap, sink: Union[str, Path, IO[bytes], IO[str]]) -> None:
    """Serialize to the JSON map format, arrays sorted by id, full float precision.

    Writes the bytes of ``json.dumps(doc, indent=1)`` plus a newline. The
    points and observations are formatted from the columns with fixed record
    templates and written a block of records at a time; only the keyframes
    go through :mod:`json`.
    """
    keyframes = [
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
    ]
    xyz = slam_map.points.xyz
    obs = slam_map.observations
    points = (slam_map.points.id, xyz[:, 0], xyz[:, 1], xyz[:, 2])
    observations = (obs.point_id, obs.keyframe_id, obs.u, obs.v)
    document = {
        "keyframes": keyframes,
        "points": _json_rows(_POINT_RECORD, points, " "),
        "observations": _json_rows(_OBSERVATION_RECORD, observations, " "),
    }
    _write_blocks(sink, itertools.chain(_json_object(document, " "), ["\n"]))


_POSE_TOL = 1e-9


def validate(slam_map: SlamMap) -> ValidationReport:
    """Check every model invariant; violations are reported, never raised.

    Every check runs on whole columns; only the flagged records are visited,
    to word their violations. They come in order: keyframes by id, then
    consecutive keyframes by seq_index, then points and observations.
    """
    v: list[str] = []

    keyframes = slam_map.keyframes
    intr = [kf.intrinsics for kf in keyframes]
    kf_id = slam_map._keyframe_ids
    seq = np.array([kf.seq_index for kf in keyframes], np.int64)
    timestamp = np.array([kf.timestamp for kf in keyframes], np.float64)
    fx, fy, cx, cy = (np.array([getattr(c, name) for c in intr], np.float64) for name in ("fx", "fy", "cx", "cy"))
    width = np.array([c.width for c in intr], np.int64)
    height = np.array([c.height for c in intr], np.int64)
    q = np.array([kf.pose.q for kf in keyframes], np.float64).reshape(-1, 4)
    t = np.array([kf.pose.t for kf in keyframes], np.float64).reshape(-1, 3)
    with np.errstate(all="ignore"):
        norm_dev = np.abs(np.linalg.norm(q, axis=1) - 1.0)
        # One keyframe's norm (a dot product) can differ in the last bit from
        # the batched one, so keyframes anywhere near the tolerance are measured
        # one by one.
        for i in np.flatnonzero(~(norm_dev < _POSE_TOL / 2)).tolist():
            norm_dev[i] = abs(float(np.linalg.norm(q[i])) - 1.0)
        R = _quat.to_matrix(q)
        rot_dev = np.abs(R @ np.swapaxes(R, 1, 2) - np.eye(3)).max(axis=(1, 2))
    repeated = _repeats(kf_id)
    checks = (
        kf_id < 0,
        seq < 0,
        ~((fx > 0) & (fy > 0)),
        ~((0 < cx) & (cx < width) & (0 < cy) & (cy < height)),
        (width < 64) | (height < 48),
        ~(norm_dev <= _POSE_TOL) | (rot_dev > _POSE_TOL),
        ~np.isfinite(t).all(axis=1),
    )
    for i in np.flatnonzero(repeated | np.any(checks, axis=0)).tolist():
        kf = keyframes[i]
        if repeated[i]:
            v.append(f"duplicate keyframe id {kf.id}")
            continue
        negative_id, negative_seq, focal, principal, small, _, translation = (c[i] for c in checks)
        if negative_id:
            v.append(f"keyframe {kf.id}: id must be non-negative")
        if negative_seq:
            v.append(f"keyframe {kf.id}: seq_index must be non-negative")
        if focal:
            v.append(f"keyframe {kf.id}: focal lengths must be positive")
        if principal:
            v.append(f"keyframe {kf.id}: principal point outside image")
        if small:
            v.append(f"keyframe {kf.id}: image must be at least 64x48")
        if not norm_dev[i] <= _POSE_TOL:
            v.append(f"keyframe {kf.id}: quaternion norm deviates from 1 by {norm_dev[i]:.3e}")
        elif rot_dev[i] > _POSE_TOL:
            v.append(f"keyframe {kf.id}: rotation times its inverse deviates from identity by {rot_dev[i]:.3e}")
        if translation:
            v.append(f"keyframe {kf.id}: non-finite translation")

    order = np.argsort(seq, kind="stable")
    same_seq = _repeats(seq[order])[1:]
    stamp = timestamp[order]
    for i in np.flatnonzero(same_seq | (stamp[:-1] >= stamp[1:])).tolist():
        a, b = keyframes[order[i]], keyframes[order[i + 1]]
        if same_seq[i]:
            v.append(f"keyframes {a.id} and {b.id}: duplicate seq_index {a.seq_index}")
        else:
            v.append(f"keyframes {a.id} and {b.id}: seq_index not strictly increasing with timestamp")

    point_id = slam_map.points.id
    repeated = _repeats(point_id)
    negative = ~repeated & (point_id < 0)
    non_finite = ~repeated & ~np.isfinite(slam_map.points.xyz).all(axis=1)
    for i in np.flatnonzero(repeated | negative | non_finite).tolist():
        pid = point_id.item(i)
        if repeated[i]:
            v.append(f"duplicate point id {pid}")
            continue
        if negative[i]:
            v.append(f"point {pid}: id must be non-negative")
        if non_finite[i]:
            v.append(f"point {pid}: non-finite position")

    obs = slam_map.observations
    frame_pos = slam_map._obs_frame_pos
    repeated = ~slam_map._obs_first
    no_point = ~repeated & (slam_map._obs_point_pos < 0)
    no_frame = ~repeated & ~no_point & (frame_pos < 0)
    rows = np.flatnonzero(~(repeated | no_point | no_frame))
    bad_u = np.zeros(len(obs), bool)
    bad_v = np.zeros(len(obs), bool)
    for bad, coord, bound in ((bad_u, obs.u, width), (bad_v, obs.v, height)):
        x = coord[rows]
        bad[rows] = ~((0.0 <= x) & (x < bound[frame_pos[rows]]))
    for i in np.flatnonzero(repeated | no_point | no_frame | bad_u | bad_v).tolist():
        pid, fid = obs.point_id.item(i), obs.keyframe_id.item(i)
        if repeated[i]:
            v.append(f"duplicate observation (point {pid}, frame {fid})")
        elif no_point[i]:
            v.append(f"observation references missing point id {pid}")
        elif no_frame[i]:
            v.append(f"observation references missing keyframe id {fid}")
        else:
            intr = keyframes[frame_pos[i]].intrinsics
            if bad_u[i]:
                v.append(f"observation (point {pid}, frame {fid}): u {obs.u.item(i)} outside [0, {intr.width})")
            if bad_v[i]:
                v.append(f"observation (point {pid}, frame {fid}): v {obs.v.item(i)} outside [0, {intr.height})")

    return ValidationReport(v)
