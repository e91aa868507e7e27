"""Correctness gate for benchmark jobs, and the closed-form flow reference.

Every job's outputs are checked after the timed loop; a job that fails any
check counts as failed, never as skipped.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path


def reference_totals(graph) -> tuple[int, int]:
    """Total flow and cost of a min-cost max flow on a ``build_graph`` graph.

    A point's source edge has capacity n(n-1)/2, the number of its pair
    edges, so it never binds. The pairs are then independent: each takes its
    min(M, k) cheapest candidates by cc + cs, and pays its cb per unit.
    Raises ValueError on a graph where a source edge could bind.
    """
    s, t = graph.source_index, graph.sink_index
    source_edge = {}  # point vertex -> (capacity, cc)
    pair_budget = {}  # pair vertex -> (M, cb)
    for e in graph.edges:
        if e.tail == s:
            source_edge[e.head] = (e.capacity, e.cost)
        elif e.head == t:
            pair_budget[e.tail] = (e.capacity, e.cost)
    candidates = defaultdict(list)  # pair vertex -> cc + cs of each candidate point
    out_degree = Counter()
    for e in graph.edges:
        if e.tail != s and e.head != t:
            candidates[e.head].append(source_edge[e.tail][1] + e.cost)
            out_degree[e.tail] += 1
    for v, (capacity, _) in source_edge.items():
        if capacity < out_degree[v]:
            raise ValueError("a source edge can bind; the per-pair closed form does not apply")
    flow = cost = 0
    for pair, (m, cb) in pair_budget.items():
        taken = sorted(candidates[pair])[:m]
        flow += len(taken)
        cost += sum(taken) + cb * len(taken)
    return flow, cost


def graph_eligible(slam_map, window: int) -> set[int]:
    """Points that enter some sparsify graph: seen by >= 2 keyframes of one window.

    Windows are consecutive runs of ``window`` keyframes by seq_index, as the
    CLI forms them; 0 means the whole map is one window.
    """
    frames = sorted(slam_map.keyframes, key=lambda kf: kf.seq_index)
    size = window or max(len(frames), 1)
    window_of = {kf.id: i // size for i, kf in enumerate(frames)}
    seen = Counter((o.point_id, window_of[o.keyframe_id]) for o in slam_map.observations)
    return {pid for (pid, _), n in seen.items() if n >= 2}


@dataclass
class Job:
    """One ``cli.main`` call, the input map it read and where it wrote."""

    index: int
    map_index: int
    seconds: float
    exit_code: int | None
    error: str | None  # traceback, when cli.main raised
    out_path: Path
    report_path: Path


@dataclass
class InputMap:
    slam_map: object
    reference: tuple[int, int] | None  # closed-form (flow, cost); None for windowed jobs


@dataclass
class JobOutput:
    """What one passing job produced, as the per-layer metrics use it."""

    kept_points: int
    culled_keyframes: int
    C: float
    S: float
    bytes_out: int
    report_s: float  # seconds map_report took on the output


@dataclass
class GateResult:
    failed: int = 0
    problems: dict = field(default_factory=dict)  # job index -> list of messages
    outputs: dict = field(default_factory=dict)  # job index -> JobOutput, passing jobs only


def _stripped(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "timings_ms"}, indent=2, sort_keys=True)


def _check_one(ms, source: InputMap, job: Job, first: dict) -> tuple[list[str], JobOutput | None]:
    if job.error is not None:
        return ["raised: " + job.error.strip().splitlines()[-1]], None
    if job.exit_code != 0:
        return [f"exit code {job.exit_code}"], None
    problems = []
    input_map = source.slam_map
    report = json.loads(job.report_path.read_text(encoding="utf-8"))
    kept = set(report["kept_point_ids"])
    dropped = set(report["dropped_point_ids"])
    if kept & dropped or kept | dropped != {pt.id for pt in input_map.points}:
        problems.append("kept and dropped ids do not partition the input points")
    totals = (report["total_flow"], report["total_cost"])
    if source.reference is not None and totals != source.reference:
        problems.append(f"flow/cost {totals} != closed-form reference {source.reference}")
    stripped = _stripped(report)
    if stripped != first.setdefault("report", stripped):
        problems.append("report differs from the first on this map once timings_ms is stripped")

    out_map = ms.load_map(job.out_path)
    selection = ms.SelectionResult(
        kept_point_ids=frozenset(kept),
        dropped_point_ids=frozenset(dropped),
        culled_keyframe_ids=frozenset(report["culled_keyframe_ids"]),
        underviewed_point_ids=frozenset(report["underviewed_point_ids"]),
        point_flow={},
        total_flow=report["total_flow"],
        total_cost=report["total_cost"],
        n_input_points=input_map.n_points,
        n_input_keyframes=input_map.n_keyframes,
    )
    if not ms.maps_equal(out_map, ms.apply_selection(input_map, selection)):
        problems.append("written map != apply_selection(input, selection)")

    t0 = time.perf_counter()
    quality = ms.map_report(out_map)
    report_s = time.perf_counter() - t0
    if (quality.C, quality.S) != first.setdefault("quality", (quality.C, quality.S)):
        problems.append("C/S of the output differ from the first on this map")
    if problems:
        return problems, None
    return [], JobOutput(len(kept), len(report["culled_keyframe_ids"]), quality.C, quality.S,
                         job.out_path.stat().st_size, report_s)


def check_jobs(ms, inputs: list[InputMap], jobs: list[Job]) -> GateResult:
    """Check every job's exit, report and written map; count each failing job once.

    Jobs on the same input map must repeat the stripped report and the C/S
    of the first job checked on that map.
    """
    res = GateResult()
    first_by_map: dict = defaultdict(dict)
    for job in jobs:
        try:
            problems, output = _check_one(ms, inputs[job.map_index], job, first_by_map[job.map_index])
        except Exception as e:  # an unreadable output is a failed job, not a crashed benchmark
            problems, output = [f"check raised {type(e).__name__}: {e}"], None
        if problems:
            res.failed += 1
            res.problems[job.index] = problems
        else:
            res.outputs[job.index] = output
    return res
