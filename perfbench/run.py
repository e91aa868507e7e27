"""mapsparse benchmark: the user's ``mapsparse sparsify`` job on seeded synthetic maps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One client in one process runs jobs back to back (a closed loop); a job is
one in-process ``cli.main(["sparsify", ...])`` call. Set-up (package import,
map generation, map save) runs in separate processes before the loop. After
the loop every job's outputs are checked (gate.py). ``--trace 1`` first runs
the jobs with spans around each layer, then again without, and reports the
per-layer metrics; ``--trace 0`` reports the end-to-end ones. Human-readable
lines come first; the last line of standard output is one JSON object.
``--workload all`` runs every workload in both modes, each in its own process.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from gate import InputMap, Job, check_jobs, graph_eligible, reference_totals
from spans import Tracer, by_job, maxrss_kib, maxrss_rise_mib
from workloads import ROOT, THREAD_ENV, WORKLOADS, import_mapsparse, pin_threads

HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"  # inputs and job outputs, removed after each run
OUT_DIR = ROOT / ".perfbench_out"  # span files, kept
MIN_SETUPS = 3  # set-up processes per run at least; setup_s is their median
CHILD_TIMEOUT_S = 170


def set_up(workload, seed: int, work: Path) -> tuple[list[Path], list[dict], bool]:
    """Make the run's input maps, one make_map.py process per map and at least MIN_SETUPS.

    Returns the map paths, each process's timings, and whether a map made
    twice came out byte-identical.
    """
    paths = [work / f"input{i}.json" for i in range(workload.maps)]
    timings, digests, repeatable = [], {}, True
    for k in range(max(workload.maps, MIN_SETUPS)):
        i = k % workload.maps
        proc = subprocess.run(
            [sys.executable, str(HERE / "make_map.py"), "--workload", workload.name,
             "--seed", str(seed), "--map-index", str(i), "--out", str(paths[i])],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        timings.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        digest = hashlib.sha256(paths[i].read_bytes()).hexdigest()
        repeatable &= digests.setdefault(i, digest) == digest
    return paths, timings, repeatable


def install_spans(tracer: Tracer, ms) -> bool:
    """Wrap the attributes callers look up; return whether _nearby_counts exists."""
    cli, sparsifier = ms.cli, ms.sparsifier

    def graph_counts(args, graph):
        return {"vertices": graph.n_vertices, "edges": graph.n_edges, "pairs": len(graph.pair_sink_edge)}

    def solve_counts(args, result):
        graph = args[0]
        flows = result.edge_flows
        saturated = sum(1 for ei in graph.pair_sink_edge.values() if flows[ei] == graph.edges[ei].capacity)
        return {"total_flow": result.total_flow, "total_cost": result.total_cost,
                "edges": graph.n_edges, "saturated_pairs": saturated}

    tracer.wrap(cli, "load_map", "map_model.load")
    tracer.wrap(ms.map_model, "validate", "map_model.validate")
    tracer.wrap(cli, "sparsify", "sparsifier.sparsify")
    tracer.wrap(sparsifier, "build_graph", "flow_graph.build", graph_counts)
    has_nearby = tracer.wrap(ms.flow_graph, "_nearby_counts", "flow_graph.nearby")
    tracer.wrap(sparsifier, "solve", "mcmf.solve", solve_counts)
    tracer.wrap(cli, "apply_selection", "sparsifier.apply")
    tracer.wrap(cli, "save_map", "map_model.save")
    return has_nearby


def run_jobs(ms, workload, map_paths: list[Path], work: Path, seconds: float, tag: str,
             tracer: Tracer | None = None, first_index: int = 0) -> list[Job]:
    """Closed loop over the input maps in turn, one job after another.

    Runs in whole rounds (one job per map), at least two, so that every map
    weighs the same in the medians and the gate can compare repeats, and
    starts no new round once ``seconds`` have passed.
    """
    jobs: list[Job] = []
    rounds_end = 2 * len(map_paths)
    deadline = time.perf_counter() + seconds
    while len(jobs) < rounds_end or len(jobs) % len(map_paths) or time.perf_counter() < deadline:
        index, map_index = first_index + len(jobs), len(jobs) % len(map_paths)
        out_path, report_path = work / f"{tag}{index}-map.json", work / f"{tag}{index}-report.json"
        argv = workload.sparsify_argv(map_paths[map_index], out_path, report_path)
        exit_code = error = None
        gc.collect()  # start every job from a collected heap, as a fresh process would
        t0 = time.perf_counter()
        try:
            if tracer is None:
                exit_code = ms.cli.main(argv)
            else:
                tracer.job_id = index
                with tracer.span("cli.main"):
                    exit_code = ms.cli.main(argv)
        except Exception:  # a raising job is a failed job; the loop goes on
            error = traceback.format_exc()
        seconds_taken = time.perf_counter() - t0
        jobs.append(Job(index, map_index, seconds_taken, exit_code, error, out_path, report_path))
    return jobs


def certify_dense(ms, seed: int) -> bool:
    """verify_optimality and the closed form, on one dense_whole solve of this seed."""
    slam_map, _ = ms.generate(WORKLOADS["dense_whole"].synth_config(seed, 0))
    graph = ms.build_graph(slam_map, ms.GraphConfig(capacity_m=WORKLOADS["dense_whole"].capacity_m))
    result = ms.solve(graph)
    return ((result.total_flow, result.total_cost) == reference_totals(graph)
            and ms.verify_optimality(graph, result))


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_stamp(args, jobs: int) -> dict:
    import numpy  # not at module level: the thread pins must come first

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "jobs": {args.workload: jobs}, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": git_sha(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def end_to_end(jobs, setup, peak_mib, gate) -> dict:
    times = [j.seconds for j in jobs]
    observations = [t["observations"] for t in setup]  # setup[i] made map i
    quality = {j.map_index: gate.outputs[j.index] for j in jobs if j.index in gate.outputs}
    setup_totals = [t["import_s"] + t["generate_s"] + t["save_s"] for t in setup]
    out = {
        "job_p50_s": (statistics.median(times), "s", len(times)),
        "obs_per_s": (sum(observations[j.map_index] for j in jobs) / sum(times), "obs/s", len(times)),
        "peak_rss_mb": (peak_mib, "MiB", 1),
        "setup_s": (statistics.median(setup_totals), "s", len(setup_totals)),
        "fail_ratio": (gate.failed / len(jobs), "ratio", len(jobs)),
        # means over the run's maps of the C and S of each map's output
        "out_C": (statistics.fmean(o.C for o in quality.values()) if quality else None,
                  "frames/point", len(quality)),
        "out_S": (statistics.fmean(o.S for o in quality.values()) if quality else None, "%", len(quality)),
    }
    if len(times) >= 100:
        out["job_p90_s"] = (statistics.quantiles(times, n=10)[-1], "s", len(times))
    return out


def per_layer(tracer, traced, plain, workload, gate, bytes_in, eligible, has_nearby) -> dict:
    """Per-job sums over the traced jobs' spans, reported as medians over those jobs.

    ``bytes_in`` and ``eligible`` (graph-eligible point count) are per input map.
    """
    spans_of = by_job(tracer.spans)
    rows = []
    for job in traced:
        j = spans_of[job.index]
        load, save = j.total_s["map_model.load"], j.total_s["map_model.save"]
        build, solve = j.total_s["flow_graph.build"], j.total_s["mcmf.solve"]
        edges = j.attrs[("flow_graph.build", "edges")]
        windows = j.calls["sparsifier.sparsify"] if workload.window else 0
        skipped = j.errors[("sparsifier.sparsify", "GraphError")] if workload.window else 0
        output = gate.outputs.get(job.index)
        kept = output.kept_points if output else 0
        bytes_out = output.bytes_out if output else 0
        row = {
            "map_model.load_s": load,
            "map_model.validate_s": j.total_s["map_model.validate"],
            "map_model.save_s": save,
            "map_model.bytes_in": bytes_in[job.map_index],
            "map_model.bytes_out": bytes_out,
            "map_model.load_mb_per_s": bytes_in[job.map_index] / 1e6 / load if load else 0.0,
            "map_model.save_mb_per_s": bytes_out / 1e6 / save if save else 0.0,
            "flow_graph.build_s": build,
            "flow_graph.vertices": j.attrs[("flow_graph.build", "vertices")],
            "flow_graph.edges": edges,
            "flow_graph.pairs": j.attrs[("flow_graph.build", "pairs")],
            "flow_graph.saturated_pairs": j.attrs[("mcmf.solve", "saturated_pairs")],
            "flow_graph.edges_per_s": edges / build if build else 0.0,
            "mcmf.solve_s": solve,
            "mcmf.total_flow": j.attrs[("mcmf.solve", "total_flow")],
            "mcmf.total_cost": j.attrs[("mcmf.solve", "total_cost")],
            "mcmf.edges_per_s": j.attrs[("mcmf.solve", "edges")] / solve if solve else 0.0,
            "sparsifier.sparsify_s": j.total_s["sparsifier.sparsify"],
            "sparsifier.self_s": j.self_s["sparsifier.sparsify"],
            "sparsifier.apply_s": j.total_s["sparsifier.apply"],
            "sparsifier.calls": j.calls["sparsifier.sparsify"],
            "sparsifier.kept_points": kept,
            "sparsifier.culled_keyframes": output.culled_keyframes if output else 0,
            "sparsifier.kept_ratio": kept / eligible[job.map_index] if eligible[job.map_index] else 0.0,
            "cli.self_s": j.self_s["cli.main"],
            "cli.windows": windows,
            "cli.windows_skipped": skipped,
            "cli.window_skip_ratio": skipped / windows if windows else 0.0,
            "trace.job_p50_s": job.seconds,
        }
        if has_nearby:
            row["flow_graph.nearby_s"] = j.total_s["flow_graph.nearby"]
        rows.append(row)
    units = {"mb_per_s": "MB/s", "edges_per_s": "edges/s", "_s": "s", "bytes_in": "bytes", "bytes_out": "bytes",
             "ratio": "ratio"}
    out = {}
    for name in rows[0]:
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        out[name] = (statistics.median(r[name] for r in rows), unit, len(rows))
    report_s = [o.report_s for o in gate.outputs.values()]
    out.update({
        "flow_graph.maxrss_rise_mb": (maxrss_rise_mib(tracer.spans, "flow_graph.build"), "MiB", len(rows)),
        "mcmf.maxrss_rise_mb": (maxrss_rise_mib(tracer.spans, "mcmf.solve"), "MiB", len(rows)),
        "metrics.report_s": (statistics.median(report_s) if report_s else 0.0, "s", len(report_s)),
        "trace.overhead_s": (out["trace.job_p50_s"][0] - statistics.median(j.seconds for j in plain), "s",
                             len(rows) + len(plain)),
    })
    return out


def print_metric(workload: str, name: str, value, unit: str, n: int) -> None:
    print(f"{workload:15s} {name:28s} {value!s:>22} {unit:12s} n={n}")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    ms = import_mapsparse()
    for module in ("cli", "sparsifier", "flow_graph", "map_model"):
        importlib.import_module(f"mapsparse.{module}")
    work = WORK_DIR / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        map_paths, setup, inputs_repeat = set_up(workload, args.seed, work)

        tracer = traced = has_nearby = None
        if args.trace:
            tracer = Tracer()
            has_nearby = install_spans(tracer, ms)
            try:
                traced = run_jobs(ms, workload, map_paths, work, args.seconds, "traced", tracer)
            finally:
                tracer.restore()
        plain = run_jobs(ms, workload, map_paths, work, args.seconds, "plain",
                         first_index=len(traced) if traced else 0)
        peak_mib = maxrss_kib() / 1024.0

        inputs = []
        for path in map_paths:
            slam_map = ms.load_map(path)
            reference = None
            if not workload.window:
                graph = ms.build_graph(slam_map, ms.GraphConfig(capacity_m=workload.capacity_m))
                reference = reference_totals(graph)
            inputs.append(InputMap(slam_map, reference))
        jobs = (traced or []) + plain
        gate = check_jobs(ms, inputs, jobs)
        certified = certify_dense(ms, args.seed)

        for index, problems in sorted(gate.problems.items()):
            print(f"job {index} failed: {'; '.join(problems)}", file=sys.stderr)
        if not inputs_repeat:
            print("set-up wrote different maps for the same seed", file=sys.stderr)
        if not certified:
            print("dense_whole solve was not certified optimal", file=sys.stderr)

        if args.trace:
            metrics = per_layer(tracer, traced, plain, workload, gate, [p.stat().st_size for p in map_paths],
                                [len(graph_eligible(i.slam_map, workload.window)) for i in inputs], has_nearby)
            if not has_nearby:
                print("flow_graph.nearby_s absent: flow_graph has no _nearby_counts", file=sys.stderr)
        else:
            metrics = end_to_end(plain, setup, peak_mib, gate)
        stamp = run_stamp(args, len(jobs))
        for name, (value, unit, n) in metrics.items():
            print_metric(workload.name, name, value, unit, n)
        if args.trace:
            layer_sum = sum(metrics[k][0] for k in (
                "map_model.load_s", "map_model.save_s", "flow_graph.build_s", "mcmf.solve_s",
                "sparsifier.self_s", "sparsifier.apply_s", "cli.self_s"))
            print(f"{workload.name:15s} layer self times sum to {layer_sum:.6f} s; "
                  f"traced job_p50_s {metrics['trace.job_p50_s'][0]:.6f} s")
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_jsonl(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl", stamp)
        print("stamp " + json.dumps(stamp, sort_keys=True))
        metrics.pop("fail_ratio", None)  # carried by "failed" / "attempted"
        print(json.dumps({
            "correct": gate.failed == 0 and certified and inputs_repeat,
            "attempted": len(jobs),
            "failed": gate.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in both modes, each run in its own process, plus a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=4 * args.seconds + CHILD_TIMEOUT_S, check=False,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum length of each timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except (RuntimeError, ImportError, OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
