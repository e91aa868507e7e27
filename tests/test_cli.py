import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mapsparse

from conftest import make_map, map_from_records
from map_oracles import window_maps_oracle
from mapsparse.cli import main
from mapsparse.flow_graph import FlowEdge
from mapsparse.map_model import Keyframe, MapPoint, Observation, SlamMap, load_map, save_map, validate
from mapsparse.metrics import load_trajectory, map_report
from mapsparse.sparsifier import _window_rows
from mapsparse.synth import SynthConfig, generate


@pytest.fixture
def generated(tmp_path):
    map_path = tmp_path / "map.json"
    gt_path = tmp_path / "gt.txt"
    rc = main([
        "generate", "--out", str(map_path), "--gt-out", str(gt_path),
        "--seed", "5", "--points", "150", "--keyframes", "10", "--dropout", "0.3",
    ])
    assert rc == 0
    return map_path, gt_path


def test_generate_writes_loadable_files(generated, capsys):
    map_path, gt_path = generated
    slam_map = load_map(map_path)
    assert slam_map.n_points == 150
    assert validate(slam_map).ok
    assert len(load_trajectory(gt_path)) == 10


def test_generate_echoes_seed(tmp_path, capsys):
    main([
        "generate", "--out", str(tmp_path / "m.json"), "--gt-out", str(tmp_path / "g.txt"),
        "--seed", "42", "--points", "30", "--keyframes", "4",
    ])
    assert "seed: 42" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("options, what", [
    (["--traj-scale", "1e308"], "camera poses are not finite at trajectory_scale=1e+308 and extent=8.0"),
    (["--traj-scale", "1e300", "--trajectory", "random_walk"],
     "camera poses are not finite at trajectory_scale=1e+300 and extent=8.0"),
    (["--extent", "1e308"], "projections are not finite at trajectory_scale=3.0 and extent=1e+308"),
], ids=["traj-scale-1e308", "random-walk-1e300", "extent-1e308"])
def test_generate_overflowing_settings_fail_on_non_finite_poses_without_a_warning(options, what, tmp_path, capsys):
    # once numpy overflow warnings, then "configuration produced no point observed by two keyframes"
    argv = ["generate", "--out", str(tmp_path / "m.json"), "--gt-out", str(tmp_path / "g.txt"), "--seed", "0"]
    assert main(argv + options) == 1
    assert capsys.readouterr().err == f"error: {what}\n"


def test_sparsify_flow_writes_map_and_report(generated, tmp_path):
    map_path, _ = generated
    out_path = tmp_path / "sparse.json"
    report_path = tmp_path / "report.json"
    rc = main([
        "sparsify", "--map", str(map_path), "--capacity-m", "5",
        "--out", str(out_path), "--report", str(report_path),
    ])
    assert rc == 0
    out_map = load_map(out_path)
    report = json.loads(report_path.read_text())
    assert validate(out_map).ok
    assert out_map.n_points == report["counts"]["kept_points"]
    assert report["counts"]["input_points"] == 150
    assert report["total_flow"] > 0
    assert 0 <= report["mp_pct"] <= 100
    assert "timings_ms" in report


def test_sparsify_requires_capacity_for_flow(generated):
    map_path, _ = generated
    assert main(["sparsify", "--map", str(map_path)]) == 1


def test_sparsify_ablation_flags(generated, tmp_path, capsys):
    map_path, _ = generated
    rc = main([
        "sparsify", "--map", str(map_path), "--capacity-m", "5",
        "--no-cs", "--no-cb",
    ])
    assert rc == 0
    json.loads(capsys.readouterr().out)  # report lands on stdout


def test_sparsify_baseline_needs_budget(generated):
    map_path, _ = generated
    assert main(["sparsify", "--map", str(map_path), "--strategy", "topm"]) == 1


def test_sparsify_baseline_strategy(generated, tmp_path):
    map_path, _ = generated
    out_path = tmp_path / "topm.json"
    rc = main([
        "sparsify", "--map", str(map_path), "--strategy", "topm",
        "--budget", "40", "--out", str(out_path), "--report", str(tmp_path / "r.json"),
    ])
    assert rc == 0
    assert load_map(out_path).n_points == 40


def test_sparsify_windowed(generated, tmp_path, capsys):
    map_path, _ = generated
    rc = main([
        "sparsify", "--map", str(map_path), "--capacity-m", "5", "--window", "4",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["kept_points"] > 0


def test_sparsify_windowed_keeps_nothing_from_a_window_without_an_eligible_point(tmp_path, capsys):
    # keyframes 0 and 1 share point 0; keyframes 2 and 3 share no point
    slam_map = make_map([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
                        {0: [(0, 10, 10), (1, 10, 10)], 1: [(2, 20, 20)], 2: [(3, 30, 30)]})
    map_path = tmp_path / "map.json"
    save_map(slam_map, map_path)
    assert main(["sparsify", "--map", str(map_path), "--capacity-m", "1", "--window", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kept_point_ids"] == [0]
    assert report["dropped_point_ids"] == [1, 2]


def test_sparsify_windowed_keep_underviewed_keeps_those_of_a_window_without_an_eligible_point(tmp_path, capsys):
    # window 0 (keyframes 0, 1) holds points 0 and 1 and the underviewed point 2;
    # window 1 (keyframes 2, 3) holds only the underviewed point 3, so it is not solved
    slam_map = make_map([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
                        {0: [(0, 10, 10), (1, 10, 10)], 1: [(0, 200, 200), (1, 200, 200)],
                         2: [(0, 400, 400)], 3: [(3, 30, 30)]})
    map_path = tmp_path / "map.json"
    save_map(slam_map, map_path)
    reports = []
    for window in ([], ["--window", "2"]):
        argv = ["sparsify", "--map", str(map_path), "--capacity-m", "5", "--keep-underviewed", *window]
        assert main(argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    whole, windowed = reports
    assert windowed["underviewed_point_ids"] == [2, 3]
    assert windowed["kept_point_ids"] == whole["kept_point_ids"] == [0, 1, 2, 3]
    assert windowed["dropped_point_ids"] == []


def test_no_sparsify_job_imports_numpy_ma(generated, tmp_path):
    # np.unique, np.union1d and np.setdiff1d import numpy.ma on first use, 1-3 MiB of a job's peak RSS;
    # np.isin calls np.unique when the ids lie far apart, so the points here get ids 10**12 apart
    slam_map = load_map(generated[0])
    obs = slam_map.observations
    map_path = tmp_path / "spread.json"
    save_map(SlamMap(slam_map.keyframes, slam_map.points.id * 10**12, slam_map.points.xyz,
                     obs.point_id * 10**12, obs.keyframe_id, obs.u, obs.v), map_path)
    argv = ["sparsify", "--map", str(map_path), "--capacity-m", "5",
            "--out", str(tmp_path / "out.json"), "--report", str(tmp_path / "report.json")]
    script = (
        "import sys\n"
        "from mapsparse import cli\n"
        f"for extra in ([], ['--window', '4']):\n"
        f"    assert cli.main({argv!r} + extra) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(mapsparse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_sparsify_windowed_fails_on_a_budget_beyond_the_edge_capacity_bound(generated, capsys):
    # once every window's GraphError was taken for "no eligible point": exit 0 with nothing kept
    map_path, _ = generated
    rc = main(["sparsify", "--map", str(map_path), "--capacity-m", str(2**62), "--window", "4"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: capacity_m must be below 2**62")


def test_a_window_job_builds_no_map_per_window(tmp_path):
    # only the loaded map and the output map are built, however many windows the job has
    slam_map, _ = generate(SynthConfig(n_points=400, n_keyframes=30, trajectory="line",
                                       trajectory_scale=60.0, extent=60.0, dropout=0.4, seed=4))
    map_path = tmp_path / "map.json"
    save_map(slam_map, map_path)
    init, built = SlamMap.__init__, []

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with mock.patch.object(SlamMap, "__init__", counted):
        assert main(["sparsify", "--map", str(map_path), "--capacity-m", "100", "--window", "10",
                     "--out", str(tmp_path / "sparse.json"), "--report", str(tmp_path / "report.json")]) == 0
    assert len(built) == 2


def test_sparsify_rejects_a_negative_window(generated, tmp_path, capsys):
    map_path, _ = generated
    out_path = tmp_path / "sparse.json"
    rc = main(["sparsify", "--map", str(map_path), "--capacity-m", "5", "--window", "-3", "--out", str(out_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: window must be an integer >= 0, got -3\n"
    assert not out_path.exists()


@pytest.mark.parametrize("strategy", ["flow", "topm", "grid", "radius"])
@pytest.mark.parametrize("min_kf_points", ["0", "-3"])
def test_sparsify_rejects_min_kf_points_below_one(strategy, min_kf_points, generated, tmp_path, capsys):
    map_path, _ = generated
    out_path = tmp_path / "sparse.json"
    rc = main([
        "sparsify", "--map", str(map_path), "--strategy", strategy, "--capacity-m", "5", "--budget", "50",
        "--min-kf-points", min_kf_points, "--out", str(out_path),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: keyframe_min_points must be an integer >= 1, got {min_kf_points}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("strategy", ["topm", "grid", "radius"])
def test_sparsify_rejects_a_window_with_a_baseline_strategy(strategy, generated, tmp_path, capsys):
    map_path, _ = generated
    out_path = tmp_path / "sparse.json"
    rc = main([
        "sparsify", "--map", str(map_path), "--strategy", strategy, "--budget", "50", "--window", "5",
        "--out", str(out_path),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: --window applies only to --strategy flow\n"
    assert not out_path.exists()


@pytest.mark.parametrize("window", [1, 3, 10, 25])
@pytest.mark.parametrize("reverse_seq", [False, True])
def test_window_maps_match_record_by_record_split(window, reverse_seq):
    slam_map, _ = generate(SynthConfig(n_points=400, n_keyframes=20, trajectory="line",
                                       trajectory_scale=60.0, extent=60.0, dropout=0.4, seed=4))
    if reverse_seq:  # windows then run from the highest keyframe id down
        n = slam_map.n_keyframes
        slam_map = map_from_records(
            [Keyframe(kf.id, n - 1 - kf.seq_index, kf.timestamp, kf.pose, kf.intrinsics) for kf in slam_map.keyframes],
            slam_map.points,
            slam_map.observations,
        )
    got = _window_rows(slam_map, window)
    expected = window_maps_oracle(slam_map, window)
    assert len(got) == len(expected)
    point, frame, u, v = slam_map.observation_arrays()
    for rows, sub in zip(got, expected):
        assert (np.diff(rows) > 0).all()
        columns = (slam_map.points.id[point[rows]], slam_map._keyframe_ids[frame[rows]], u[rows], v[rows])
        assert all(np.array_equal(a, b) for a, b in zip(columns, sub.observations._columns))


def test_metrics_map_attributes(generated, capsys):
    map_path, gt_path = generated
    rc = main(["metrics", "--map", str(map_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"C", "F", "S", "points", "keyframes"}


def test_metrics_trajectories(generated, tmp_path, capsys):
    map_path, gt_path = generated
    rc = main(["metrics", "--est", str(gt_path), "--gt", str(gt_path), "--align", "none"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ate_rms_m"] == 0.0
    assert doc["ate_rot_rms_deg"] == 0.0


def test_metrics_map_and_trajectories_print_the_map_keys_and_the_ate(generated, capsys):
    map_path, gt_path = generated
    rc = main(["metrics", "--map", str(map_path), "--est", str(gt_path), "--gt", str(gt_path), "--align", "sim"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    map_keys = map_report(load_map(map_path)).to_dict()
    assert set(doc) == set(map_keys) | {"ate_rms_m", "ate_rot_rms_deg", "alignment"}
    assert {key: doc[key] for key in map_keys} == map_keys
    assert doc["alignment"] == "sim"


def test_metrics_rejects_a_nan_max_offset(generated, capsys):
    _, gt_path = generated
    assert main(["metrics", "--est", str(gt_path), "--gt", str(gt_path), "--max-offset", "nan"]) == 1
    assert capsys.readouterr().err == "error: max_offset must be >= 0, got nan\n"


def test_metrics_on_a_line_trajectory_points_to_alignment_none(tmp_path, capsys):
    gt_path = tmp_path / "gt.txt"
    argv = ["generate", "--out", str(tmp_path / "m.json"), "--gt-out", str(gt_path), "--seed", "0",
            "--trajectory", "line"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["metrics", "--est", str(gt_path), "--gt", str(gt_path)]) == 1
    assert capsys.readouterr().err == (
        "error: degenerate point set (coincident or collinear): a collinear path, such as a --trajectory line "
        'ground truth, can only be compared with alignment "none"\n'
    )
    assert main(["metrics", "--est", str(gt_path), "--gt", str(gt_path), "--align", "none"]) == 0


def test_metrics_requires_inputs():
    assert main(["metrics"]) == 1


@pytest.mark.parametrize("with_map", [False, True])
@pytest.mark.parametrize("half", ["--est", "--gt"])
def test_metrics_rejects_half_a_trajectory_pair(half, with_map, generated, capsys):
    map_path, gt_path = generated
    argv = ["metrics", half, str(gt_path)] + (["--map", str(map_path)] if with_map else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --est and --gt must be given together\n"


def test_compare_csv_shape(tmp_path):
    out = tmp_path / "table.csv"
    rc = main([
        "compare", "--capacities", "3,6", "--strategies", "flow,topm",
        "--seeds", "2", "--points", "80", "--keyframes", "6",
        "--dropout", "0.3", "--out", str(out),
    ])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2  # capacities x seeds x strategies
    assert {r["strategy"] for r in rows} == {"flow", "topm"}
    for row in rows:
        assert 0 <= float(row["mp_pct"]) <= 100
    # sorted output: capacity ascending
    caps = [int(r["capacity_m"]) for r in rows]
    assert caps == sorted(caps)


def test_compare_matched_budgets(tmp_path):
    out = tmp_path / "table.csv"
    main([
        "compare", "--capacities", "4", "--strategies", "flow,radius",
        "--seeds", "1", "--points", "80", "--keyframes", "6",
        "--dropout", "0.3", "--out", str(out),
    ])
    with open(out, newline="") as fh:
        rows = {r["strategy"]: r for r in csv.DictReader(fh)}
    assert rows["flow"]["points_kept"] == rows["radius"]["points_kept"]


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_compare_without_a_map_needs_a_seed(seeds, tmp_path, capsys):
    # once exit 0, with a CSV of only a header and "(seeds 0..-1)"
    out = tmp_path / "table.csv"
    assert main(["compare", "--seeds", seeds, "--points", "80", "--keyframes", "6", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --seeds must be >= 1 without --map, got {seeds}\n"
    assert not out.exists()


def test_no_command_builds_a_record(tmp_path):
    # Jobs read the map and graph columns only: with the record classes unable to
    # construct, each command writes what it writes unpatched.
    slam_map, _ = generate(SynthConfig(n_points=400, n_keyframes=30, trajectory="line",
                                       trajectory_scale=60.0, extent=60.0, dropout=0.4, seed=4))
    map_path = tmp_path / "map.json"
    save_map(slam_map, map_path)
    sparsify = ["sparsify", "--map", str(map_path)]
    jobs = {
        "whole": sparsify + ["--capacity-m", "100"],
        "window": sparsify + ["--capacity-m", "100", "--window", "10"],
        "grid": sparsify + ["--strategy", "grid", "--budget", "150"],
    }

    def outputs(tag):
        written = {}
        for name, argv in jobs.items():
            out, report = tmp_path / f"{name}-{tag}.json", tmp_path / f"{name}-{tag}-report.json"
            assert main(argv + ["--out", str(out), "--report", str(report)]) == 0
            doc = json.loads(report.read_text(encoding="utf-8"))
            del doc["timings_ms"]
            written[name] = (out.read_bytes(), doc)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["metrics", "--map", str(map_path)]) == 0
        written["metrics"] = stdout.getvalue()
        return written

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a command built a {type(self).__name__}")

    expected = outputs("plain")
    with contextlib.ExitStack() as patches:
        for record in (MapPoint, Observation, FlowEdge):
            patches.enter_context(mock.patch.object(record, "__init__", refuse))
        assert outputs("patched") == expected


def test_unknown_strategy_rejected(generated):
    map_path, _ = generated
    with pytest.raises(SystemExit):
        main(["sparsify", "--map", str(map_path), "--strategy", "best"])


def test_missing_map_file():
    assert main(["metrics", "--map", "/nonexistent/map.json"]) == 1


# Argument values that have ended commands in tracebacks: non-finite and huge
# floats, and ints beyond int64 or below zero. Map sizes stay a few hundred.
_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0]),
                    st.floats(-1e3, 1e3, allow_nan=False))
_INTS = st.one_of(st.sampled_from([-(2**63), -1, 0, 2**62, 2**63 - 1, 2**63]), st.integers(-5, 300))
_FRACTIONS = st.one_of(_FLOATS, st.floats(0.0, 1.0))  # valid values too, so that runs get past the checks


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding a 300-point map and its trajectory, the inputs of the drawn commands."""
    path = tmp_path_factory.mktemp("fuzz")
    assert main(["generate", "--out", str(path / "map.json"), "--gt-out", str(path / "gt.txt"),
                 "--seed", "3", "--points", "300", "--keyframes", "12", "--dropout", "0.3"]) == 0
    return path


@st.composite
def _options(draw, **values):
    """``--name=value`` arguments, each option drawn or left out; ``=`` lets a value start with a minus."""
    argv = []
    for name, value in values.items():
        if draw(st.booleans()):
            argv.append(f"--{name.replace('_', '-')}={draw(value)}")
    return argv


def _flags(*names):
    return st.lists(st.sampled_from([f"--{n}" for n in names]), unique=True)


def assert_exits_cleanly(argv):
    """main(argv) returns 0, or returns 1 with one ``error:`` line on stderr; any exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    message = err.getvalue()
    assert rc == 0 or (rc == 1 and message.startswith("error: ") and message.count("\n") == 1), (rc, message)


@settings(max_examples=100, deadline=None)
@example(seed=0, options=["--extent=inf"])  # once an OverflowError from the generator's uniform draw
@given(seed=_INTS, options=_options(points=st.integers(-3, 300), keyframes=st.integers(-3, 40),
                        trajectory=st.sampled_from(["circle", "line", "random_walk"]), traj_scale=_FLOATS,
                        extent=_FLOATS, dropout=_FRACTIONS, pixel_noise=_FLOATS, cluster_fraction=_FRACTIONS))
def test_generate_with_any_argument_values_exits_cleanly(fuzz_dir, seed, options):
    argv = ["generate", "--out", str(fuzz_dir / "out.json"), "--gt-out", str(fuzz_dir / "out.txt"), f"--seed={seed}"]
    assert_exits_cleanly(argv + options)


@settings(max_examples=100, deadline=None)
@given(options=_options(capacity_m=_INTS, theta_ratio=_FRACTIONS, box_width=_INTS, box_height=_INTS, budget=_INTS,
                        strategy=st.sampled_from(["flow", "topm", "grid", "radius"]), min_kf_points=_INTS,
                        window=_INTS),
       flags=_flags("no-cc", "no-cs", "no-cb", "keep-underviewed"))
def test_sparsify_with_any_argument_values_exits_cleanly(fuzz_dir, options, flags):
    argv = ["sparsify", "--map", str(fuzz_dir / "map.json"), "--out", str(fuzz_dir / "sparse.json"),
            "--report", str(fuzz_dir / "report.json")]
    assert_exits_cleanly(argv + options + flags)


@settings(max_examples=60, deadline=None)
@given(options=_options(align=st.sampled_from(["rigid", "sim", "none"]), max_offset=_FLOATS),
       inputs=st.sampled_from([["--map"], ["--est", "--gt"], ["--map", "--est", "--gt"]]))
def test_metrics_with_any_argument_values_exits_cleanly(fuzz_dir, options, inputs):
    files = {"--map": "map.json", "--est": "gt.txt", "--gt": "gt.txt"}
    assert_exits_cleanly(["metrics", *(f"{o}={fuzz_dir / files[o]}" for o in inputs), *options])


@settings(max_examples=50, deadline=None)
@example(options=["--extent=nan"], use_map=False)
@given(options=_options(capacities=st.lists(_INTS, max_size=3).map(lambda c: ",".join(map(str, c))),
                        strategies=st.sampled_from(["flow", "topm,grid", "flow,radius"]), seeds=st.integers(-2, 2),
                        points=st.integers(-3, 120), keyframes=st.integers(-3, 15),
                        trajectory=st.sampled_from(["circle", "line", "random_walk"]), traj_scale=_FLOATS,
                        extent=_FLOATS, dropout=_FRACTIONS, cluster_fraction=_FRACTIONS, min_kf_points=_INTS),
       use_map=st.booleans())
def test_compare_with_any_argument_values_exits_cleanly(fuzz_dir, options, use_map):
    argv = ["compare", "--out", str(fuzz_dir / "table.csv")]
    assert_exits_cleanly(argv + options + (["--map", str(fuzz_dir / "map.json")] if use_map else []))
