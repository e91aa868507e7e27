"""Self-tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import InputMap, Job, check_jobs, reference_totals  # noqa: E402
from spans import Span, Tracer, by_job, self_times  # noqa: E402
from workloads import import_mapsparse  # noqa: E402

ms = import_mapsparse()
import mapsparse.cli  # noqa: E402


def _small_map(seed: int):
    config = ms.SynthConfig(n_points=300, n_keyframes=12, trajectory_scale=2.0, extent=12.0,
                            dropout=0.3, seed=seed)
    return ms.generate(config)[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("capacity_m", [3, 1000])
def test_reference_matches_solver(seed, capacity_m):
    graph = ms.build_graph(_small_map(seed), ms.GraphConfig(capacity_m=capacity_m))
    pair_k = {}
    for e in graph.edges:
        pair_k[e.head] = pair_k.get(e.head, 0) + 1
    sink_caps = [graph.edges[ei].capacity for ei in graph.pair_sink_edge.values()]
    binding = any(pair_k[graph.edges[ei].tail] > graph.edges[ei].capacity
                  for ei in graph.pair_sink_edge.values())
    # M = 3 binds on some pair, M = 1000 on none: both regimes of min(M, k) are covered.
    assert binding == (max(sink_caps) == 3)
    result = ms.solve(graph)
    assert reference_totals(graph) == (result.total_flow, result.total_cost)


def test_self_times_on_hand_built_tree():
    def span(sid, parent, start, end, name="x"):
        return Span(name, sid, parent, 0, start, end)

    # root [0, 10] has children [1, 4] and [5, 9]; the second has a child [6, 8]
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 4.0), span(3, 1, 5.0, 9.0), span(4, 3, 6.0, 8.0)]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 3.0, 3: 2.0, 4: 2.0})
    assert sum(selfs.values()) == pytest.approx(spans[0].duration)


def test_tracer_nests_records_errors_and_restores():
    class Module:
        @staticmethod
        def inner(x):
            if x < 0:
                raise ValueError("negative")
            return x * 2

        @staticmethod
        def outer(x):
            return Module.inner(x) + 1

    original_inner, original_outer = Module.inner, Module.outer
    tracer = Tracer()
    tracer.wrap(Module, "outer", "outer")
    tracer.wrap(Module, "inner", "inner", lambda args, result: {"doubled": result})
    assert not tracer.wrap(Module, "missing", "missing")
    tracer.job_id = 7
    with tracer.span("job"):
        assert Module.outer(3) == 7
        with pytest.raises(ValueError):
            Module.inner(-1)
    tracer.restore()
    assert Module.inner is original_inner and Module.outer is original_outer

    job, outer, inner, failed = tracer.spans
    assert (outer.parent_id, inner.parent_id, failed.parent_id) == (job.span_id, outer.span_id, job.span_id)
    assert failed.error == "ValueError" and inner.error is None
    totals = by_job(tracer.spans)[7]
    assert totals.calls["inner"] == 2 and totals.attrs[("inner", "doubled")] == 6
    assert totals.errors[("inner", "ValueError")] == 1
    assert sum(totals.self_s.values()) == pytest.approx(job.duration)


def _run_job(index, map_path, out_dir):
    out_path, report_path = out_dir / f"{index}-map.json", out_dir / f"{index}-report.json"
    argv = ["sparsify", "--map", str(map_path), "--capacity-m", "5",
            "--out", str(out_path), "--report", str(report_path)]
    return Job(index, 0, 0.0, mapsparse.cli.main(argv), None, out_path, report_path)


def test_corrupted_output_counts_as_failure(tmp_path):
    slam_map = _small_map(0)
    map_path = tmp_path / "input.json"
    ms.save_map(slam_map, map_path)
    jobs = [_run_job(i, map_path, tmp_path) for i in range(3)]
    inputs = [InputMap(slam_map, reference_totals(ms.build_graph(slam_map, ms.GraphConfig(capacity_m=5))))]
    assert check_jobs(ms, inputs, jobs).failed == 0

    text = jobs[1].out_path.read_text(encoding="utf-8")
    jobs[1].out_path.write_text(text[: len(text) // 2], encoding="utf-8")  # truncated: does not parse
    moved = re.sub(r'"uv": \[\s*[-0-9.e]+', '"uv": [1.25', text, count=1)
    assert moved != text
    jobs[2].out_path.write_text(moved, encoding="utf-8")  # parses, but one keypoint moved

    result = check_jobs(ms, inputs, jobs)
    assert result.failed == 2
    assert set(result.problems) == {1, 2} and set(result.outputs) == {0}


def test_wrong_totals_and_exit_code_fail(tmp_path):
    slam_map = _small_map(1)
    map_path = tmp_path / "input.json"
    ms.save_map(slam_map, map_path)
    jobs = [_run_job(0, map_path, tmp_path)]
    jobs.append(Job(1, 0, 0.0, 1, None, jobs[0].out_path, jobs[0].report_path))
    flow, cost = reference_totals(ms.build_graph(slam_map, ms.GraphConfig(capacity_m=5)))
    result = check_jobs(ms, [InputMap(slam_map, (flow, cost + 1))], jobs)
    assert result.failed == 2
