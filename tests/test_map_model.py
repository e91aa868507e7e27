import io
import itertools
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DEFAULT_INTRINSICS, IDENTITY_Q, WORKLOAD_SHAPES, make_map, map_from_records, valid_maps
from map_oracles import (
    covisibility_oracle, index_oracle, map_records, save_map_oracle, validate_oracle, window_maps_oracle,
)
from mapsparse import map_model
from mapsparse.flow_graph import GraphConfig, GraphError, build_graph
from mapsparse.map_model import (
    CameraIntrinsics,
    Keyframe,
    MapFormatError,
    MapIntegrityError,
    MapPoint,
    Observation,
    Pose,
    SlamMap,
    _parse_keyframe,
    _parse_observation,
    _parse_point,
    _parse_records,
    _section,
    load_map,
    maps_equal,
    save_map,
)
from mapsparse.synth import SynthConfig, generate

MINIMAL = {
    "keyframes": [
        {
            "id": 0,
            "seq_index": 0,
            "timestamp": 0.0,
            "pose": {"q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]},
            "intrinsics": {"fx": 525.0, "fy": 525.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480},
        },
        {
            "id": 1,
            "seq_index": 1,
            "timestamp": 0.1,
            "pose": {"q": [1.0, 0.0, 0.0, 0.0], "t": [1.0, 0.0, 0.0]},
            "intrinsics": {"fx": 525.0, "fy": 525.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480},
        },
    ],
    "points": [{"id": 0, "xyz": [0.0, 0.0, 5.0]}],
    "observations": [
        {"point": 0, "frame": 0, "uv": [320.0, 240.0]},
        {"point": 0, "frame": 1, "uv": [215.0, 240.0]},
    ],
}


def test_load_minimal_map():
    slam_map = load_map(io.StringIO(json.dumps(MINIMAL)))
    assert slam_map.n_keyframes == 2
    assert slam_map.n_points == 1
    assert index_oracle(slam_map)[0] == {0: (0, 1)}


def test_load_reports_missing_point_reference():
    doc = json.loads(json.dumps(MINIMAL))
    doc["observations"].append({"point": 99, "frame": 0, "uv": [1.0, 1.0]})
    with pytest.raises(MapIntegrityError, match="99"):
        load_map(io.StringIO(json.dumps(doc)))


def test_load_parse_error_has_location():
    with pytest.raises(MapFormatError, match="line"):
        load_map(io.StringIO('{"keyframes": [}'))


def test_load_missing_field_is_named():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["keyframes"][0]["pose"]
    with pytest.raises(MapFormatError, match="pose"):
        load_map(io.StringIO(json.dumps(doc)))


def _with(section, field, raw):
    """MINIMAL as JSON text, with the first record's field set to the raw JSON value."""
    doc = json.loads(json.dumps(MINIMAL))
    doc[section][0][field] = "@"
    return json.dumps(doc).replace('"@"', raw)


@pytest.mark.parametrize(
    "text, record",
    [
        pytest.param('{"keyframes": [5]}', "keyframes[0]", id="keyframe-not-object"),
        pytest.param(_with("points", "xyz", "5"), "points[0]", id="xyz-number"),
        pytest.param(_with("observations", "uv", "null"), "observations[0]", id="uv-null"),
        pytest.param(_with("points", "id", "1e400"), "points[0]", id="id-overflow"),
        pytest.param(_with("points", "id", '"x"'), "points[0]", id="id-string"),
        pytest.param(_with("points", "xyz", '[1, 2, "a"]'), "points[0]", id="xyz-string-entry"),
        pytest.param(_with("points", "id", "true"), "points[0]", id="id-bool"),
        pytest.param(_with("observations", "point", '"0"'), "observations[0]", id="point-string"),
        pytest.param(_with("points", "id", "1.9"), "points[0]", id="id-float"),
        pytest.param(
            json.dumps(MINIMAL).replace('"width": 640', '"width": 640.7', 1), "keyframes[0]", id="width-float"
        ),
        pytest.param(_with("keyframes", "seq_index", '"1"'), "keyframes[0]", id="seq-index-string"),
        pytest.param(_with("observations", "uv", '["5", 3]'), "observations[0]", id="uv-string-entry"),
        pytest.param(_with("points", "xyz", "[true, 0, 1]"), "points[0]", id="xyz-bool-entry"),
        pytest.param(_with("points", "id", str(2**63)), "points[0]", id="id-above-int64"),
        pytest.param(_with("observations", "frame", str(-(2**63) - 1)), "observations[0]", id="frame-below-int64"),
        pytest.param(_with("observations", "uv", '{"": null, "0": null}'), "observations[0]", id="uv-object"),
        pytest.param(_with("points", "xyz", '{"a": 1, "b": 2, "c": 3}'), "points[0]", id="xyz-object"),
        pytest.param(_with("points", "xyz", '"abc"'), "points[0]", id="xyz-string"),
        pytest.param(
            json.dumps(MINIMAL).replace('"q": [1.0, 0.0, 0.0, 0.0]', '"q": {"w": 1, "x": 0, "y": 0, "z": 0}', 1),
            "keyframes[0].pose",
            id="q-object",
        ),
    ],
)
def test_load_malformed_record_raises_format_error(text, record):
    with pytest.raises(MapFormatError, match=re.escape(record)):
        load_map(io.StringIO(text))


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
        pytest.param('{"points": [{"id": ' + "1" * 5000 + ', "xyz": [0, 0, 0]}]}', id="integer-too-long"),
    ],
)
def test_load_unparseable_document_raises_format_error(text):
    with pytest.raises(MapFormatError, match="parse error"):
        load_map(io.StringIO(text))


def test_load_bytes_that_are_not_utf8_raise_format_error(tmp_path):
    with pytest.raises(MapFormatError, match="not UTF-8"):
        load_map(io.BytesIO(b"\xff{}"))
    path = tmp_path / "map.json"
    path.write_bytes(json.dumps(MINIMAL).encode() + b"\xc3")
    with pytest.raises(MapFormatError, match="not UTF-8"):
        load_map(path)


def test_round_trip_identity_on_synthetic_map():
    slam_map, _ = generate(SynthConfig(n_points=100, n_keyframes=8, dropout=0.2, pixel_noise=0.5, seed=3))
    buf = io.StringIO()
    save_map(slam_map, buf)
    reloaded = load_map(io.StringIO(buf.getvalue()))
    assert maps_equal(slam_map, reloaded)


def test_save_orders_arrays_by_id():
    slam_map = load_map(io.StringIO(json.dumps(MINIMAL)))
    # rebuild with scrambled input order; serialization must not change
    scrambled = map_from_records(
        list(reversed(slam_map.keyframes)),
        slam_map.points,
        list(slam_map.observations)[::-1],
    )
    a, b = io.StringIO(), io.StringIO()
    save_map(slam_map, a)
    save_map(scrambled, b)
    assert a.getvalue() == b.getvalue()
    ids = [kf["id"] for kf in json.loads(a.getvalue())["keyframes"]]
    assert ids == sorted(ids)


def test_validate_clean_map_is_empty(four_frame_map):
    assert maps_equal(map_from_records(*map_records(four_frame_map)), four_frame_map)


def integrity_error(keyframes, points, observations) -> str:
    """The message of the MapIntegrityError that building a map of the records raises."""
    with pytest.raises(MapIntegrityError) as raised:
        map_from_records(keyframes, points, observations)
    return str(raised.value)


def test_validate_duplicate_observation():
    slam_map = make_map(
        frame_positions=[(0, 0, 0), (1, 0, 0)],
        point_obs={0: [(0, 10, 10), (1, 10, 10)]},
    )
    keyframes, points, observations = map_records(slam_map)
    message = integrity_error(keyframes, points, observations + [Observation(0, 0, 99.0, 99.0)])
    assert message == "duplicate observation (point 0, frame 0)"


def test_validate_u_at_width_boundary():
    with pytest.raises(MapIntegrityError) as raised:
        make_map(frame_positions=[(0, 0, 0), (1, 0, 0)], point_obs={0: [(0, 640.0, 10), (1, 10, 10)]})
    assert str(raised.value) == "observation (point 0, frame 0): u 640.0 outside [0, 640)"


def test_validate_bad_quaternion_flagged():
    slam_map = make_map([(0, 0, 0)], {0: [(0, 5, 5)]})
    kf = slam_map.keyframes[0]
    bad = [type(kf)(kf.id, kf.seq_index, kf.timestamp, type(kf.pose)((2.0, 0.0, 0.0, 0.0), kf.pose.t), kf.intrinsics)]
    assert "quaternion" in integrity_error(bad, slam_map.points, slam_map.observations)


def test_validate_seq_timestamp_order():
    slam_map = make_map([(0, 0, 0), (1, 0, 0)], {0: [(0, 5, 5)]})
    k0, k1 = slam_map.keyframes
    swapped = [k0, type(k1)(k1.id, k1.seq_index, -1.0, k1.pose, k1.intrinsics)]
    assert "strictly increasing" in integrity_error(swapped, slam_map.points, slam_map.observations)


def covisibility(slam_map):
    """The frame pairs of ``build_graph``'s graph as (frame_a, frame_b, ids of the points whose
    edges enter the pair), in the graph's pair order; [] where no point is seen twice."""
    try:
        graph = build_graph(slam_map, GraphConfig(capacity_m=1, enable_cc=False, enable_cs=False, enable_cb=False))
    except GraphError:
        return []
    n_points = len(graph.point_ids)
    shared = [set() for _ in range(len(graph.pairs))]
    for point_vertex, pair_vertex in zip(graph.tail[graph.middle].tolist(), graph.head[graph.middle].tolist()):
        shared[pair_vertex - n_points - 1].add(int(graph.point_ids[point_vertex - 1]))
    return [(a, b, frozenset(pids)) for (a, b), pids in zip(graph.pairs.tolist(), shared)]


def test_covisibility_four_frame_fixture(four_frame_map):
    pairs = covisibility(four_frame_map)
    assert [(a, b) for a, b, _ in pairs] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    counts = {(a, b): len(pids) for a, b, pids in pairs}
    assert counts == {(0, 1): 2, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 2}
    assert pairs[0][2] == {0, 1}


def test_covisibility_no_shared_points():
    slam_map = make_map(
        frame_positions=[(0, 0, 0), (1, 0, 0)],
        point_obs={0: [(0, 5, 5)], 1: [(1, 5, 5)]},
    )
    assert covisibility(slam_map) == []


def test_covisibility_three_frames_one_point():
    slam_map = make_map(
        frame_positions=[(0, 0, 0), (1, 0, 0), (2, 0, 0)],
        point_obs={0: [(0, 5, 5), (1, 5, 5), (2, 5, 5)]},
    )
    pairs = covisibility(slam_map)
    assert [(a, b) for a, b, _ in pairs] == [(0, 1), (0, 2), (1, 2)]
    assert all(pids == {0} for _, _, pids in pairs)


def test_covisibility_pair_count_matches_choose_two():
    slam_map, _ = generate(SynthConfig(n_points=60, n_keyframes=7, dropout=0.3, seed=9))
    membership = {}
    for _, _, pids in covisibility(slam_map):
        for pid in pids:
            membership[pid] = membership.get(pid, 0) + 1
    for pid, n in zip(slam_map.points.id.tolist(), slam_map.observer_counts().tolist()):
        assert membership.get(pid, 0) == n * (n - 1) // 2


def test_covisibility_input_order_invariant():
    slam_map, _ = generate(SynthConfig(n_points=40, n_keyframes=6, dropout=0.2, seed=4))
    permuted = map_from_records(
        list(reversed(slam_map.keyframes)),
        list(slam_map.points)[::-1],
        list(slam_map.observations)[::-1],
    )
    assert covisibility(slam_map) == covisibility(permuted)


@pytest.mark.parametrize("synth, window", WORKLOAD_SHAPES)
def test_covisibility_matches_the_per_point_oracle_on_workload_shaped_maps(synth, window):
    slam_map, _ = generate(SynthConfig(seed=4, **synth))
    for sub in [slam_map, *(window_maps_oracle(slam_map, window) if window else [])]:
        assert covisibility(sub) == covisibility_oracle(sub)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_points=st.integers(5, 40),
    n_keyframes=st.integers(2, 8),
    dropout=st.floats(0.0, 0.5),
)
def test_round_trip_property(seed, n_points, n_keyframes, dropout):
    try:
        slam_map, _ = generate(
            SynthConfig(
                n_points=n_points,
                n_keyframes=n_keyframes,
                dropout=dropout,
                pixel_noise=0.3,
                seed=seed,
            )
        )
    except Exception:
        return  # configs that fail to produce an eligible point are not maps
    buf = io.StringIO()
    save_map(slam_map, buf)
    assert maps_equal(slam_map, load_map(io.StringIO(buf.getvalue())))


def _saved(slam_map) -> str:
    buf = io.StringIO()
    save_map(slam_map, buf)
    return buf.getvalue()


def _keyframe(kid, seq=None, timestamp=None, q=IDENTITY_Q, t=(0.0, 0.0, 0.0), intrinsics=DEFAULT_INTRINSICS):
    seq = kid if seq is None else seq
    return Keyframe(kid, seq, 0.1 * seq if timestamp is None else timestamp, Pose(q, t), intrinsics)


# Floats whose JSON text needs care: signed zero, exponents, extremes, non-finite.
SPECIAL_FLOATS = [0.0, -0.0, 1e-07, 1e16, 1e22, 123456789.125, 5e-324, 1.7976931348623157e308,
                  math.nan, math.inf, -math.inf]
any_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
finite_floats = st.one_of(st.sampled_from([x for x in SPECIAL_FLOATS if math.isfinite(x)]),
                          st.floats(allow_nan=False, allow_infinity=False))
int64s = st.integers(-(2**63), 2**63 - 1)


@st.composite
def any_records(draw):
    """(keyframes, points, observations) records built in code: any int64 ids, any floats (non-finite
    too), sections possibly empty."""
    keyframes = draw(st.lists(st.builds(
        Keyframe, int64s, int64s, any_floats,
        st.builds(Pose, st.tuples(*[any_floats] * 4), st.tuples(*[any_floats] * 3)),
        st.builds(CameraIntrinsics, any_floats, any_floats, any_floats, any_floats, int64s, int64s),
    ), max_size=3))
    points = draw(st.lists(st.builds(MapPoint, int64s, st.tuples(*[any_floats] * 3)), max_size=12))
    observations = draw(st.lists(st.builds(Observation, int64s, int64s, any_floats, any_floats), max_size=12))
    return keyframes, points, observations


# Valid maps built in code: any non-negative int64 ids, and any finite floats for the point positions.
code_built_maps = valid_maps(ids=st.integers(0, 2**63 - 1), floats=finite_floats)


@settings(max_examples=200, deadline=None)
@given(slam_map=code_built_maps)
def test_save_map_writes_the_bytes_of_json_dumps(slam_map):
    expected = save_map_oracle(*map_records(slam_map))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.json"
        for block in (1, 2, map_model._ROW_BLOCK):
            text, binary = io.StringIO(), io.BytesIO()
            with mock.patch.object(map_model, "_ROW_BLOCK", block):
                for sink in (path, text, binary):
                    save_map(slam_map, sink)
            assert text.getvalue() == expected
            assert binary.getvalue() == path.read_bytes() == expected.encode("utf-8")


# Text with the characters json escapes: newlines, quotes, backslashes and non-ASCII.
_json_text = st.text(st.one_of(st.sampled_from('\n"\\\u00e9\u2603'), st.characters()), max_size=4)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | any_floats | _json_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_json_text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _bulk_members(draw):
    """(ids, columns) of a :func:`map_model._json_rows` member: int64 and finite float64 columns, possibly empty.

    With ids, the member is an object from each id to its row, keyed in the
    order json's sort_keys gives; else ids is None and it is a list of rows.
    """
    n = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from([np.int64, np.float64]), min_size=1, max_size=3))
    columns = tuple(
        np.array(draw(st.lists(int64s if kind is np.int64 else finite_floats, min_size=n, max_size=n)), kind)
        for kind in kinds
    )
    if not draw(st.booleans()):
        return None, columns
    ids = np.array(draw(st.lists(int64s, min_size=n, max_size=n, unique=True)), np.int64)
    order = np.argsort(ids.astype(str), kind="stable")
    return ids[order], tuple(column[order] for column in columns)


def _rows_member(ids, columns, indent):
    """The member as :func:`map_model._json_rows` text, and as the value json.dumps writes the same text for."""
    row = "[\n" + ",\n".join([indent * 3 + "%s"] * len(columns)) + "\n" + indent * 2 + "]"
    rows = [list(values) for values in zip(*(column.tolist() for column in columns))]
    if ids is None:
        return map_model._json_rows(indent * 2 + row, columns, indent), rows
    text = map_model._json_rows(indent * 2 + '"%s": ' + row, (ids, *columns), indent, "{}")
    return text, dict(zip(map(str, ids.tolist()), rows))


@settings(max_examples=300, deadline=None)
@given(members=st.dictionaries(_json_text, _json_values | _bulk_members(), max_size=5),
       indent=st.sampled_from([" ", "  "]), sort_keys=st.booleans())
def test_json_object_writes_the_text_of_json_dumps(members, indent, sort_keys):
    plain = {key: _rows_member(*value, indent)[1] if isinstance(value, tuple) else value
             for key, value in members.items()}
    expected = json.dumps(plain, indent=len(indent), sort_keys=sort_keys)
    for block in (1, 2, map_model._ROW_BLOCK):  # rows formatted at a time
        doc = {key: _rows_member(*value, indent)[0] if isinstance(value, tuple) else value
               for key, value in members.items()}
        with mock.patch.object(map_model, "_ROW_BLOCK", block):
            assert "".join(map_model._json_object(doc, indent, sort_keys)) == expected


@pytest.mark.parametrize("synth, window", WORKLOAD_SHAPES)
def test_save_of_load_reproduces_the_file(synth, window, tmp_path):
    generated, _ = generate(SynthConfig(seed=4, **synth))
    text = save_map_oracle(*map_records(generated))
    path = tmp_path / "map.json"
    path.write_text(text, encoding="utf-8")
    loaded = load_map(path)
    assert maps_equal(loaded, generated)
    assert _saved(loaded) == text


def test_load_and_save_hold_a_chunk_of_records_at_a_time(tmp_path):
    # A wide_keypoints-shaped map of about 7 MB: many load pieces and save blocks.
    generated, _ = generate(SynthConfig(n_points=32000, n_keyframes=20, trajectory="circle",
                                        trajectory_scale=6.0, extent=12.0, dropout=0.85, seed=0))
    path = tmp_path / "map.json"
    save_map(generated, path)
    size = path.stat().st_size
    assert size > 4 * map_model._CHUNK_CHARS
    tracemalloc.start()
    try:
        loaded = load_map(path)
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        save_map(loaded, tmp_path / "again.json")
        save_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # Reading holds about two blocks of the file's bytes and a piece of its
    # records as Python objects, so the peak is mostly the map's own columns
    # while they are sorted (0.90x the file size here; 2.4x when the file's
    # bytes and text were held whole, 5.2x when the whole document was parsed
    # at once).
    assert load_peak < 1.12 * size
    # Saving holds about a block of records as Python numbers and text (0.21x
    # the output size here; 0.84x with blocks of 2**14 records, 2.0x when the
    # whole output was one string).
    assert save_peak < 0.27 * size
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


coords = st.one_of(
    st.sampled_from([0.0, -0.0, 47.5, 63.5, 64.0, 479.99999999999994, 480.0, 639.9999999999999, 640.0,
                     -1e-300, math.nan, math.inf, -math.inf]),
    st.floats(-10.0, 700.0),
)
quaternions = st.one_of(
    st.sampled_from([
        IDENTITY_Q,
        (2.0, 0.0, 0.0, 0.0),
        (0.0, 1.0 + 5e-10, 0.0, 0.0),  # norm within tolerance, rotation not
        (0.0, 1.0 + 2e-9, 0.0, 0.0),
        (math.nan, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        (1e200, 0.0, 0.0, 0.0),
    ]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 4),
)
intrinsics = st.builds(
    CameraIntrinsics,
    fx=st.sampled_from([525.0, 0.0, -1.0, math.nan]),
    fy=st.sampled_from([525.0, 0.0]),
    cx=st.sampled_from([320.0, 0.0, 63.0, 640.0, 700.0]),
    cy=st.sampled_from([240.0, 0.0, 47.0, 480.0]),
    width=st.sampled_from([640, 64, 63]),
    height=st.sampled_from([480, 48, 47]),
)


@st.composite
def messy_records(draw):
    """(keyframes, points, observations) records with every kind of violation: repeated and dangling
    ids, boundary u/v, bad poses and orders."""
    keyframes = draw(st.lists(st.builds(
        Keyframe, st.integers(-2, 4), st.integers(-1, 4), coords,
        st.builds(Pose, quaternions, st.tuples(coords, coords, coords)), intrinsics,
    ), max_size=5))
    points = draw(st.lists(st.builds(MapPoint, st.integers(-2, 6), st.tuples(coords, coords, coords)), max_size=8))
    observations = draw(st.lists(
        st.builds(Observation, st.integers(-2, 7), st.integers(-2, 5), coords, coords), max_size=16
    ))
    return keyframes, points, observations


@settings(max_examples=200, deadline=None)
@given(slam_map=valid_maps())
def test_covisibility_matches_the_per_point_oracle(slam_map):
    assert covisibility(slam_map) == covisibility_oracle(slam_map)


_BAD_INTRINSICS = CameraIntrinsics(fx=0.0, fy=525.0, cx=700.0, cy=240.0, width=63, height=480)
# Records with every kind of violation.
EVERY_KIND = (
    [
        _keyframe(0),
        _keyframe(1, intrinsics=_BAD_INTRINSICS),
        _keyframe(1),  # repeated id
        _keyframe(-2, seq=-1, q=(2.0, 0.0, 0.0, 0.0)),
        _keyframe(3, q=(0.0, 1.0 + 5e-10, 0.0, 0.0)),  # norm within tolerance, rotation not
        _keyframe(4, seq=3, t=(math.inf, 0.0, 0.0)),  # repeated seq_index
        _keyframe(5, seq=5, timestamp=0.0),  # earlier than seq 3
    ],
    [
        MapPoint(5, (0.0, 0.0, 1.0)),
        MapPoint(5, (1.0, 0.0, 1.0)),
        MapPoint(-1, (0.0, 0.0, 1.0)),
        MapPoint(7, (math.nan, 0.0, 1.0)),
    ],
    [
        Observation(5, 0, 10.0, 10.0),
        Observation(5, 0, 20.0, 20.0),
        Observation(99, 0, 10.0, 10.0),
        Observation(7, 42, 10.0, 10.0),
        Observation(7, 0, 640.0, 479.99),
        Observation(-1, 0, -0.0, 480.0),
        Observation(5, 3, math.nan, 10.0),
    ],
)
# This quaternion's own norm (a dot product) exceeds 1 + 1e-9 by a few ulps,
# where a norm taken over a batch of rows may not.
NEAR_TOLERANCE = (
    [_keyframe(0, q=(-0.3047746039910224, 0.19743447247407622, 0.8087358375867766, 0.46268608888080237)),
     _keyframe(1)],
    [],
    [],
)


@settings(max_examples=300, deadline=None)
@given(records=messy_records())
@example(records=EVERY_KIND)
@example(records=NEAR_TOLERANCE)
def test_building_from_records_raises_the_violations_the_oracle_finds(records):
    expected = "; ".join(validate_oracle(*records))
    for build in (lambda: map_from_records(*records), lambda: load_map(io.StringIO(save_map_oracle(*records)))):
        try:
            build()
        except MapIntegrityError as e:
            assert str(e) == expected
        else:
            assert not expected


def test_every_violation_kind_is_named():
    message = integrity_error(*EVERY_KIND)
    for kind in [
        "duplicate keyframe id", "keyframe -2: id must be non-negative", "seq_index must be non-negative",
        "focal lengths", "principal point", "at least 64x48", "quaternion norm", "rotation times its inverse",
        "non-finite translation", "duplicate seq_index", "not strictly increasing", "duplicate point id",
        "point -1: id must be non-negative", "non-finite position", "duplicate observation",
        "missing point id 99", "missing keyframe id 42", "u 640.0 outside", "v 480.0 outside", "u nan outside",
    ]:
        assert kind in message, kind


@settings(max_examples=200, deadline=None)
@given(slam_map=valid_maps())
def test_indices_match_record_by_record_oracle(slam_map):
    assert_indices_match_oracle(slam_map)


@pytest.mark.parametrize("synth, window", WORKLOAD_SHAPES)
def test_indices_on_workload_shaped_maps(synth, window):
    slam_map, _ = generate(SynthConfig(seed=4, **synth))
    for sub in [slam_map, *(window_maps_oracle(slam_map, window) if window else [])]:
        assert_indices_match_oracle(sub)


def assert_indices_match_oracle(slam_map):
    """Observer counts, observation arrays and their id gathers against :func:`index_oracle`."""
    frames_of, _, obs_by_key = index_oracle(slam_map)
    assert slam_map.observer_counts().tolist() == [len(frames_of[p.id]) for p in slam_map.points]

    point, frame, u, v = slam_map.observation_arrays()
    ids = slam_map.points.id
    assert [(ids[p], slam_map.keyframes[f].id) for p, f in zip(point, frame)] == sorted(obs_by_key)
    obs = slam_map.observations
    assert list(zip(obs.point_id.tolist(), obs.keyframe_id.tolist())) == sorted(obs_by_key)
    assert [repr((x, y)) for x, y in zip(u.tolist(), v.tolist())] == [
        repr((obs_by_key[key].u, obs_by_key[key].v)) for key in sorted(obs_by_key)
    ]


_ids = st.one_of(st.integers(-3, 3), st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1]))


@settings(max_examples=300, deadline=None)
@given(sorted_ids=st.lists(_ids, max_size=8).map(sorted), keys=st.lists(_ids, max_size=8))
def test_positions_is_the_first_entry_of_each_key(sorted_ids, keys):
    got = map_model._positions(np.array(sorted_ids, np.int64), np.array(keys, np.int64))
    assert got.tolist() == [sorted_ids.index(k) if k in sorted_ids else -1 for k in keys]


@pytest.mark.parametrize(
    "sorted_ids, keys, expected",
    [
        pytest.param([], [], [], id="empty-ids-and-keys"),
        pytest.param([], [0, -(2**63), 2**63 - 1], [-1, -1, -1], id="empty-ids"),
        pytest.param([1, 4], [5, 2**63 - 1, 4], [-1, -1, 1], id="keys-past-the-last-id"),
        pytest.param([1, 4], [0, -(2**63), 1], [-1, -1, 0], id="keys-before-the-first-id"),
        pytest.param(
            [-(2**63), -5, 2**63 - 1], [-(2**63), -5, 2**63 - 1, -(2**63) + 1, 2**63 - 2, -6],
            [0, 1, 2, -1, -1, -1], id="negative-and-int64-extreme-keys",
        ),
        pytest.param([-2, 0, 0, 0, 3, 3], [0, 3, -2, 1, 3], [1, 4, 0, -1, 4], id="repeated-ids"),
    ],
)
def test_positions_cases(sorted_ids, keys, expected):
    got = map_model._positions(np.array(sorted_ids, np.int64), np.array(keys, np.int64))
    assert got.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(slam_map=valid_maps(), data=st.data())
def test_sub_map_keeps_the_given_keyframes_points_and_observations(slam_map, data):
    def mask(n):
        return np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)

    on_frame, on_point = mask(slam_map.n_keyframes), mask(slam_map.n_points)
    point, frame, _, _ = slam_map.observation_arrays()
    on_obs = mask(slam_map.n_observations) & on_point[point] & on_frame[frame]  # of kept points and keyframes
    got = map_model._sub_map(slam_map, on_frame, on_point, on_obs)
    expected = map_from_records(
        itertools.compress(slam_map.keyframes, on_frame),
        itertools.compress(slam_map.points, on_point),
        itertools.compress(slam_map.observations, on_obs),
    )
    assert maps_equal(got, expected)


def _map_of_sorted_records(keyframes, point_rows, obs_rows):
    """SlamMap of (id, xyz) and (point, frame, u, v) rows put in order by Python's stable sort."""
    point_rows = sorted(point_rows, key=lambda r: r[0])
    obs_rows = sorted(obs_rows, key=lambda r: r[:2])
    return SlamMap(
        keyframes,
        np.array([r[0] for r in point_rows], np.int64),
        np.array([r[1] for r in point_rows], np.float64).reshape(-1, 3),
        *(np.array([r[i] for r in obs_rows], t) for i, t in enumerate((np.int64, np.int64, np.float64, np.float64))),
    )


@settings(max_examples=200, deadline=None)
@given(slam_map=valid_maps(), data=st.data())
def test_sorted_and_shuffled_columns_give_the_same_map(slam_map, data):
    keyframes = slam_map.keyframes
    obs = slam_map.observations
    columns = [c.copy() for c in (*slam_map.points._columns, obs.point_id, obs.keyframe_id, obs.u, obs.v)]
    # A map's own columns are sorted, as load_map and _sub_map pass them: read-only ones are kept as they
    # are, so none was sorted again.
    sealed = [c.copy() for c in columns]
    for c in sealed:
        c.flags.writeable = False
    from_sorted = SlamMap(keyframes, *sealed)
    assert maps_equal(from_sorted, slam_map)
    kept = (*from_sorted.points._columns, *from_sorted.observation_arrays()[2:])
    assert all(a is b for a, b in zip(kept, sealed[:2] + sealed[4:], strict=True))

    # Shuffled columns sort as Python's stable sort does: shuffled whole, or
    # the observations only within each point, still in point order.
    point_order = np.array(data.draw(st.permutations(range(slam_map.n_points))), np.intp)
    shuffle = np.array(data.draw(st.permutations(range(slam_map.n_observations))), np.intp)
    maps, inputs = [], []
    for obs_order in (shuffle, np.lexsort((shuffle, columns[2]))):
        shuffled = [c[point_order] for c in columns[:2]] + [c[obs_order] for c in columns[2:]]
        got = SlamMap(keyframes, *shuffled)
        expected = _map_of_sorted_records(
            keyframes,
            zip(shuffled[0].tolist(), shuffled[1].tolist()),
            zip(*(c.tolist() for c in shuffled[2:])),
        )
        assert maps_equal(got, expected)
        assert maps_equal(got, slam_map)
        maps.append((got, expected))
        inputs += shuffled

    # Every map copied its input: writing to the caller's arrays changes none of them.
    for c in inputs:
        c[...] = -7
    for got, expected in maps:
        assert maps_equal(got, expected)


def test_point_and_observation_views_iterate_records(four_frame_map):
    points, obs = four_frame_map.points, four_frame_map.observations
    expected_points = [MapPoint(i, tuple(x)) for i, x in zip(points.id.tolist(), points.xyz.tolist())]
    expected_obs = [
        Observation(*row) for row in zip(obs.point_id.tolist(), obs.keyframe_id.tolist(), obs.u.tolist(), obs.v.tolist())
    ]
    assert expected_points == [MapPoint(0, (0.0, 0.0, 5.0)), MapPoint(1, (1.0, 0.0, 5.0)), MapPoint(2, (2.0, 0.0, 5.0))]
    assert expected_obs[0] == Observation(0, 0, 50.0, 50.0)
    for view, expected in ((points, expected_points), (obs, expected_obs)):
        assert len(view) == len(expected)
        assert list(view) == expected
        assert not hasattr(view, "__getitem__")
    with pytest.raises(ValueError):
        points.xyz[0, 0] = 1.0
    with pytest.raises(ValueError):
        obs.u[0] = 1.0


def test_constructor_takes_columns_in_any_order():
    slam_map, _ = generate(SynthConfig(n_points=60, n_keyframes=6, dropout=0.3, seed=2))
    points, obs = slam_map.points, slam_map.observations
    backwards = slice(None, None, -1)
    rebuilt = SlamMap(
        list(reversed(slam_map.keyframes)),
        points.id[backwards],
        points.xyz[backwards],
        *(c[backwards] for c in (obs.point_id, obs.keyframe_id, obs.u, obs.v)),
    )
    assert maps_equal(rebuilt, slam_map)
    assert maps_equal(map_from_records(slam_map.keyframes, list(points), list(obs)), slam_map)
    with pytest.raises(ValueError):
        SlamMap([], [1, 2], [[0.0, 0.0, 0.0]], [], [], [], [])
    with pytest.raises(ValueError):
        SlamMap([], [], [], [], [], [], [])  # xyz must be (0, 3)
    with pytest.raises(ValueError):
        SlamMap([], [], np.empty((0, 3)), [1], [2], [3.0], [])


def test_maps_equal_compares_floats_bitwise():
    base = make_map([(0, 0, 0), (1, 0, 0)], {0: [(0, 10.0, 10.0), (1, 10.0, 10.0)]})

    def with_u(u):
        return map_from_records(base.keyframes, base.points, [Observation(0, 0, u, 10.0), list(base.observations)[1]])

    assert maps_equal(with_u(0.0), with_u(0.0))
    assert not maps_equal(with_u(0.0), with_u(-0.0))
    assert maps_equal(with_u(5e-324), with_u(5e-324))
    assert not maps_equal(base, map_from_records(base.keyframes, base.points, list(base.observations)[:1]))


def _any_json():
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=8,
    )


def _one_in(odds, rare, common):
    # Hypothesis favours the ends of a range, so the rare branch sits inside it.
    return st.integers(1, odds).flatmap(lambda k: rare if k == odds // 2 else common)


def _mostly(strategy, odds=20):
    """The strategy's value, or once in ``odds`` draws any JSON value."""
    return _one_in(odds, _any_json(), strategy)


_json_ints = _one_in(
    20, st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]), st.one_of(st.integers(0, 3), st.integers(-3, 700))
)
_json_numbers = st.one_of(_json_ints, st.floats())


def _json_array(strategy, n):
    return _mostly(st.lists(_mostly(strategy), min_size=n, max_size=n))


_map_docs = _one_in(
    5,
    _any_json(),
    st.fixed_dictionaries({
        "keyframes": _mostly(st.lists(_mostly(st.fixed_dictionaries({
            "id": _mostly(_json_ints, 100),
            "seq_index": _mostly(_json_ints, 100),
            "timestamp": _mostly(_json_numbers, 100),
            "pose": st.fixed_dictionaries({"q": _json_array(_json_numbers, 4), "t": _json_array(_json_numbers, 3)}),
            "intrinsics": st.fixed_dictionaries({
                **{k: _mostly(_json_numbers, 100) for k in ("fx", "fy", "cx", "cy")},
                **{k: _mostly(_json_ints, 100) for k in ("width", "height")},
            }),
        })), max_size=3)),
        "points": _mostly(st.lists(_mostly(st.fixed_dictionaries({
            "id": _mostly(_json_ints), "xyz": _json_array(_json_numbers, 3),
        })), max_size=4)),
        "observations": _mostly(st.lists(_mostly(st.fixed_dictionaries({
            "point": _mostly(_json_ints), "frame": _mostly(_json_ints), "uv": _json_array(_json_numbers, 2),
        })), max_size=6)),
    }),
)


@settings(max_examples=300, deadline=None)
@given(doc=_map_docs)
# A two-entry object for uv passed the column length check, and its record parse read uv[0].
@example(doc={"observations": [{"point": 2**63 - 1, "frame": 0, "uv": {"": None, "0": None}}]})
def test_any_json_document_loads_or_raises_a_map_error(doc):
    error = slam_map = None
    try:
        slam_map = load_map(io.StringIO(json.dumps(doc)))
    except (MapFormatError, MapIntegrityError) as e:
        error = e
    if not isinstance(doc, dict):
        assert isinstance(error, MapFormatError)
        return
    # The column-by-column parse agrees with parsing every record on its own.
    try:
        records = (
            _parse_records(_section(doc, "keyframes"), "keyframes", _parse_keyframe),
            _parse_records(_section(doc, "points"), "points", _parse_point),
            _parse_records(_section(doc, "observations"), "observations", _parse_observation),
        )
    except MapFormatError as e:
        assert isinstance(error, MapFormatError) and str(error) == str(e)
        return
    violations = validate_oracle(*records)
    if violations:
        assert isinstance(error, MapIntegrityError) and str(error) == "; ".join(violations)
    else:
        assert error is None and maps_equal(slam_map, map_from_records(*records))


def _bytes(fragment) -> bytes:
    return fragment if isinstance(fragment, bytes) else fragment.encode("utf-8")


def _edit(data: bytes, edit: tuple) -> bytes:
    """The file's bytes with one edit of the kind a hand-edited, foreign or damaged map file might carry."""
    kind, *args = edit
    if kind == "insert":
        at, fragment = args
        at %= len(data) + 1
        return data[:at] + _bytes(fragment) + data[at:]
    if kind == "delete":
        at, width = args
        at %= len(data) + 1
        return data[:at] + data[at + width :]
    if kind in ("note", "member", "replace"):
        # A string field, or a member laid out as save_map lays out the top-level ones,
        # added at the nth record end; or the nth `old` replaced.
        if kind == "replace":
            (old, new), nth = args
        else:
            nth, value = args
            field = ',\n   "note": ' + json.dumps(value, ensure_ascii=False) if kind == "note" else f',\n "{value}": []'
            old, new = "\n  }", field + "\n  }"
        old, new = _bytes(old), _bytes(new)
        starts = [m.start() for m in re.finditer(re.escape(old), data)]
        if not starts:
            return data
        at = starts[nth % len(starts)]
        return data[:at] + new + data[at + len(old) :]
    if kind in ("swap", "repeat"):
        head, points_key, rest = data.partition(b',\n "points": ')
        points, observations_key, observations = rest.partition(b',\n "observations": ')
        if not (points_key and observations_key and observations.endswith(b"\n}\n")):
            return data
        if kind == "repeat":  # the points member twice, as save_map lays it out
            return head + points_key + points + points_key + points + observations_key + observations
        # observations before points
        return head + observations_key + observations[:-3] + points_key + points + b"\n}\n"
    if kind == "duplicate":  # an earlier top-level points member
        return data.replace(b"{\n", b'{\n "points": ' + _bytes(args[0]) + b",\n", 1)
    if kind == "newline":  # every line ending
        return data.replace(b"\n", _bytes(args[0]))
    if kind == "truncate":
        return data[: args[0] % (len(data) + 1)]
    if kind == "append":
        return data + _bytes(args[0])
    assert kind == "strip"  # the trailing newline
    return data[:-1]


_edits = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.sampled_from([
        "},", ",", "[", "]", "{", "}", "[]", "\n", '"', " ", "0", "-", ".5", "},\n  {", ',\n "points": ',
        ',\n "observations": ', "\n}\n", "NaN", "-Infinity", "null", '"x"', "\r", "\r\n", "\ufeff", "€",
        b"\xff", b"\x80", b"\xe2\x82",  # bytes that are not UTF-8
    ])),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16), st.integers(1, 3)),
    st.tuples(st.just("note"), st.integers(0, 40), st.text(st.sampled_from('},{[]" \né€\U0001f600'), max_size=5)),
    st.tuples(st.just("member"), st.integers(0, 40), st.sampled_from(["points", "observations"])),
    st.tuples(st.just("replace"), st.sampled_from([
        ('"point": ', '"point": 0.5, "p": '),
        ('"id": ', '"id": true, "i": '),
        ('"uv": [', '"uv": ["x", '),
        ("[\n", "{\n"),
        ("\n  }", ', "xyz": 3\n  }'),
        ("\n  }\n ]", "\n  },\n ]"),  # a trailing comma
        ("\n}\n", ",}\n"),
        ("\n", "\r"),
    ]), st.integers(0, 40)),
    st.tuples(st.just("swap")),
    st.tuples(st.just("repeat")),
    st.tuples(st.just("strip")),
    st.tuples(st.just("duplicate"), st.sampled_from(["[]", "5", '[{"id": 1, "xyz": [0, 0, 0]}]'])),
    st.tuples(st.just("newline"), st.sampled_from(["\r\n", "\r"])),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("append"), st.sampled_from(["\n", " ", "x", "{}", "\n}\n", b"\xff"])),
), max_size=3)

# Three frames seeing six points: observation records of about 80
# characters, so that 200-character chunks hold three of them.
_SMALL = map_records(make_map([(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                              {p: [(f, 10.0 + p, 20.0) for f in range(3)] for p in range(6)}))


# Records of maps that validate: three keyframes, up to eight points seen in up to three of them.
_valid_records = st.builds(make_map, st.just([(0, 0, 0), (1, 0, 0), (2, 0, 0)]), st.dictionaries(
    st.integers(0, 1000),
    st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 639.0), st.floats(0.0, 479.0)),
             min_size=1, max_size=3, unique_by=lambda o: o[0]),
    max_size=8,
)).map(map_records)


class _Pipe(io.BytesIO):
    """A binary stream that cannot seek, as a pipe is."""

    def seekable(self) -> bool:
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def _load_outcome(source):
    """The map load_map reads from the source, or the map error it raises."""
    try:
        return load_map(source)
    except (MapFormatError, MapIntegrityError) as e:
        return e


# _SMALL's file has 2709 bytes; its points array starts at byte 965 and
# its observations array at byte 1370. Read 200 bytes at a time, offsets
# 1000 and 2000 start a piece.
@settings(max_examples=300, deadline=None)
@given(records=st.one_of(_valid_records, code_built_maps.map(map_records), any_records(), messy_records()),
       edits=_edits)
@example(records=_SMALL, edits=[("note", i, "},") for i in range(27)])  # every cut falls inside a string
@example(records=_SMALL, edits=[("duplicate", '[{"id": 1, "xyz": [0, 0, 0]}]')])
@example(records=_SMALL, edits=[("swap",)])
@example(records=_SMALL, edits=[("strip",)])
@example(records=_SMALL, edits=[("replace", ("\n  }\n ]", "\n  },\n ]"), 2)])  # a trailing comma
@example(records=_SMALL, edits=[("replace", ("\n}\n", ",}\n"), 0)])
@example(records=_SMALL, edits=[("member", 4, "points"), ("member", 12, "observations")])
@example(records=([_keyframe(0)], [], []), edits=[])
@example(records=(*_SMALL[:2], []), edits=[])
@example(records=([_keyframe(0)], [MapPoint(0, (math.nan, math.inf, -math.inf))],
                  [Observation(0, 0, -math.inf, math.nan)]), edits=[])
@example(records=_SMALL, edits=[("replace", ('"point": ', '"point": 0.5, "p": '), 7)])  # in the third chunk
@example(records=_SMALL, edits=[("newline", "\r\n")])  # CRLF line endings
@example(records=_SMALL, edits=[("newline", "\r")])
@example(records=_SMALL, edits=[("replace", ("\n", "\r"), 100)])  # a lone \r in the points
@example(records=_SMALL, edits=[("insert", 0, "\ufeff")])  # a UTF-8 byte order mark
@example(records=_SMALL, edits=[("insert", 999, b"\xff")])  # the last byte of a piece
@example(records=_SMALL, edits=[("insert", 1000, b"\xff")])  # the first byte of a piece
@example(records=_SMALL, edits=[("insert", 1001, b"\xff")])
@example(records=_SMALL, edits=[("insert", 2000, b"\xe2\x82")])  # a character cut short
@example(records=_SMALL, edits=[("replace", ("\n  },", "\n  }\xff,"), 5)])  # in a cut
@example(records=_SMALL, edits=[("note", 4, "ab"), ("replace", ('"ab"', b'"a\xffb"'), 0)])  # in a string
@example(records=_SMALL, edits=[("note", 1, "ab"), ("replace", ('"ab"', b'"a\xe2\x82b"'), 0)])  # in the head
@example(records=_SMALL, edits=[("replace", (',\n "points": [', ',\n "points": '), 0)])  # no opening [
@example(records=_SMALL, edits=[("replace", ("\n  },", "\n  },\xff"), 5)])
# 900 bytes of three-byte characters in a point record: of any three
# consecutive piece starts, two fall inside a character.
@example(records=_SMALL, edits=[("note", 4, "€" * 300)])
@example(records=_SMALL, edits=[("truncate", 2000)])
@example(records=_SMALL, edits=[("append", "\n")])  # bytes after the final \n}\n
@example(records=_SMALL, edits=[("append", "x")])
@example(records=_SMALL, edits=[("repeat",)])  # a repeated points member
def test_chunked_and_whole_document_loads_agree(records, edits):
    data = save_map_oracle(*records).encode("utf-8")
    with mock.patch.object(map_model, "_CHUNK_CHARS", 200), tempfile.TemporaryDirectory() as tmp:
        assert map_model._parse_pieces(io.BytesIO(data)) is not None  # save_map's layout is read in pieces
        for edit in edits:
            data = _edit(data, edit)
        path = Path(tmp) / "map.json"
        path.write_bytes(data)
        sources = {
            "path": lambda: path,
            "binary stream": lambda: io.BytesIO(data),
            "text stream": lambda: io.StringIO(data.decode("utf-8", "surrogateescape")),
            "pipe": lambda: _Pipe(data),
        }
        for kind, source in sources.items():
            pieces = _load_outcome(source())
            with mock.patch.object(map_model, "_parse_pieces", lambda stream: None):
                whole = _load_outcome(source())  # _parse_whole of the text, as before pieces
            assert type(pieces) is type(whole), kind
            if isinstance(whole, SlamMap):
                assert maps_equal(pieces, whole), kind
            else:
                assert str(pieces) == str(whole), kind
