import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mapsparse

from conftest import make_map, map_from_records
from map_oracles import window_maps_oracle
from mapsparse.cli import _window_maps, main
from mapsparse.map_model import Keyframe, SlamMap, load_map, maps_equal, save_map, validate
from mapsparse.metrics import load_trajectory, map_report
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


def test_sparsify_rejects_a_negative_window(generated, tmp_path, capsys):
    map_path, _ = generated
    out_path = tmp_path / "sparse.json"
    rc = main(["sparsify", "--map", str(map_path), "--capacity-m", "5", "--window", "-3", "--out", str(out_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: --window must be >= 0\n"
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
    assert capsys.readouterr().err == "error: keyframe_min_points must be >= 1\n"
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
    got = list(_window_maps(slam_map, window))
    expected = window_maps_oracle(slam_map, window)
    assert len(got) == len(expected)
    assert all(maps_equal(a, b) for a, b in zip(got, expected))


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


def test_unknown_strategy_rejected(generated):
    map_path, _ = generated
    with pytest.raises(SystemExit):
        main(["sparsify", "--map", str(map_path), "--strategy", "best"])


def test_missing_map_file():
    assert main(["metrics", "--map", "/nonexistent/map.json"]) == 1
