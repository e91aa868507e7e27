import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_map
from mapsparse.map_model import (
    MapFormatError,
    MapIntegrityError,
    Observation,
    SlamMap,
    covisibility,
    load_map,
    maps_equal,
    save_map,
    validate,
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
    assert slam_map.frames_of_point(0) == (0, 1)


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
    ],
)
def test_load_malformed_record_raises_format_error(text, record):
    with pytest.raises(MapFormatError, match=re.escape(record)):
        load_map(io.StringIO(text))


def test_round_trip_identity_on_synthetic_map():
    slam_map, _ = generate(SynthConfig(n_points=100, n_keyframes=8, dropout=0.2, pixel_noise=0.5, seed=3))
    buf = io.StringIO()
    save_map(slam_map, buf)
    reloaded = load_map(io.StringIO(buf.getvalue()))
    assert maps_equal(slam_map, reloaded)


def test_save_orders_arrays_by_id():
    slam_map = load_map(io.StringIO(json.dumps(MINIMAL)))
    # rebuild with scrambled input order; serialization must not change
    scrambled = SlamMap(
        keyframes=list(reversed(slam_map.keyframes)),
        points=slam_map.points,
        observations=list(reversed(slam_map.observations)),
    )
    a, b = io.StringIO(), io.StringIO()
    save_map(slam_map, a)
    save_map(scrambled, b)
    assert a.getvalue() == b.getvalue()
    ids = [kf["id"] for kf in json.loads(a.getvalue())["keyframes"]]
    assert ids == sorted(ids)


def test_validate_clean_map_is_empty(four_frame_map):
    assert validate(four_frame_map).ok


def test_validate_duplicate_observation():
    slam_map = make_map(
        frame_positions=[(0, 0, 0), (1, 0, 0)],
        point_obs={0: [(0, 10, 10), (1, 10, 10)]},
    )
    dup = SlamMap(
        slam_map.keyframes,
        slam_map.points,
        list(slam_map.observations) + [Observation(0, 0, 99.0, 99.0)],
    )
    report = validate(dup)
    assert len(report.violations) == 1
    assert "duplicate observation" in report.violations[0]


def test_validate_u_at_width_boundary():
    slam_map = make_map(
        frame_positions=[(0, 0, 0), (1, 0, 0)],
        point_obs={0: [(0, 640.0, 10), (1, 10, 10)]},
    )
    report = validate(slam_map)
    assert len(report.violations) == 1
    assert "outside [0, 640)" in report.violations[0]


def test_validate_bad_quaternion_flagged():
    slam_map = make_map([(0, 0, 0)], {0: [(0, 5, 5)]})
    kf = slam_map.keyframes[0]
    bad = SlamMap(
        [type(kf)(kf.id, kf.seq_index, kf.timestamp, type(kf.pose)((2.0, 0.0, 0.0, 0.0), kf.pose.t), kf.intrinsics)],
        slam_map.points,
        slam_map.observations,
    )
    report = validate(bad)
    assert any("quaternion" in msg for msg in report.violations)


def test_validate_seq_timestamp_order():
    slam_map = make_map([(0, 0, 0), (1, 0, 0)], {0: [(0, 5, 5)]})
    k0, k1 = slam_map.keyframes
    swapped = SlamMap(
        [k0, type(k1)(k1.id, k1.seq_index, -1.0, k1.pose, k1.intrinsics)],
        slam_map.points,
        slam_map.observations,
    )
    report = validate(swapped)
    assert any("strictly increasing" in msg for msg in report.violations)


def test_covisibility_four_frame_fixture(four_frame_map):
    pairs = covisibility(four_frame_map)
    assert [(p.frame_a, p.frame_b) for p in pairs] == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    counts = {(p.frame_a, p.frame_b): len(p.shared_point_ids) for p in pairs}
    assert counts == {(0, 1): 2, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 2}
    assert pairs[0].shared_point_ids == {0, 1}


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
    assert [(p.frame_a, p.frame_b) for p in pairs] == [(0, 1), (0, 2), (1, 2)]
    assert all(len(p.shared_point_ids) == 1 for p in pairs)


def test_covisibility_pair_count_matches_choose_two():
    slam_map, _ = generate(SynthConfig(n_points=60, n_keyframes=7, dropout=0.3, seed=9))
    pairs = covisibility(slam_map)
    membership = {}
    for p in pairs:
        for pid in p.shared_point_ids:
            membership[pid] = membership.get(pid, 0) + 1
    for pt in slam_map.points:
        n = len(slam_map.frames_of_point(pt.id))
        assert membership.get(pt.id, 0) == n * (n - 1) // 2


def test_covisibility_input_order_invariant():
    slam_map, _ = generate(SynthConfig(n_points=40, n_keyframes=6, dropout=0.2, seed=4))
    permuted = SlamMap(
        list(reversed(slam_map.keyframes)),
        list(reversed(slam_map.points)),
        list(reversed(slam_map.observations)),
    )
    assert covisibility(slam_map) == covisibility(permuted)


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
