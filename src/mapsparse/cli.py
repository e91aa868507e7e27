"""Command-line entry point: generate, sparsify, metrics, compare."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import baselines, metrics, synth
from .flow_graph import GraphConfig
from .map_model import SlamMap, load_map, save_map
from .sparsifier import SelectionResult, SparsifyConfig, apply_selection, selection_from_kept, sparsify

_BASELINES = {
    "topm": baselines.select_top_m,
    "grid": baselines.select_grid_bucketed,
    "radius": baselines.select_radius_suppressed,
}


def _add_generate(sub):
    p = sub.add_parser("generate", help="write a synthetic map and its ground-truth trajectory")
    p.add_argument("--out", required=True, help="output map JSON path")
    p.add_argument("--gt-out", required=True, help="output TUM trajectory path")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--points", type=int, default=500)
    p.add_argument("--keyframes", type=int, default=20)
    p.add_argument("--trajectory", choices=synth.TRAJECTORIES, default="circle")
    p.add_argument("--traj-scale", type=float, default=3.0)
    p.add_argument("--extent", type=float, default=8.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--pixel-noise", type=float, default=0.0)
    p.add_argument("--cluster-fraction", type=float, default=0.3)
    return p


def _add_sparsify(sub):
    p = sub.add_parser("sparsify", help="sparsify a map with the flow pipeline or a baseline")
    p.add_argument("--map", required=True, help="input map JSON")
    p.add_argument("--capacity-m", type=int, help="per-frame-pair budget M (required for --strategy flow)")
    p.add_argument("--theta-ratio", type=float, default=0.5)
    p.add_argument("--no-cc", action="store_true", help="disable the connectivity cost")
    p.add_argument("--no-cs", action="store_true", help="disable the spatial-diversity cost")
    p.add_argument(
        "--no-cb",
        action="store_true",
        help="disable the baseline cost; it only shifts total_cost, since every maximum flow fills each "
        "frame pair to min(M, k), so the kept points and culled keyframes stay the same",
    )
    p.add_argument("--box-width", type=int, default=64)
    p.add_argument("--box-height", type=int, default=48)
    p.add_argument("--strategy", choices=("flow", *_BASELINES), default="flow")
    p.add_argument("--budget", type=int, help="kept-point budget for the baseline strategies")
    p.add_argument("--min-kf-points", type=int, default=10)
    p.add_argument("--keep-underviewed", action="store_true")
    p.add_argument("--window", type=int, default=0,
                   help="sparsify consecutive keyframe windows of this size instead of the whole map "
                        "(flow strategy only)")
    p.add_argument("--out", help="output map JSON")
    p.add_argument("--report", help="output JSON report path (default: stdout)")
    return p


def _add_metrics(sub):
    p = sub.add_parser("metrics", help="map attributes and trajectory errors")
    p.add_argument("--map", help="map JSON for the C/F/S attributes")
    p.add_argument("--est", help="estimated trajectory (TUM format)")
    p.add_argument("--gt", help="ground-truth trajectory (TUM format)")
    p.add_argument("--align", choices=("rigid", "sim", "none"), default="rigid")
    p.add_argument("--max-offset", type=float, default=0.02)
    return p


def _add_compare(sub):
    p = sub.add_parser("compare", help="CSV sweep over strategies, capacities, and seeds")
    p.add_argument("--map", help="use this map for every row instead of generating per seed")
    p.add_argument("--capacities", default="50,100,200", help="comma-separated M values")
    p.add_argument("--strategies", default="flow,topm,grid,radius")
    p.add_argument("--seeds", type=int, default=3, help="number of generation seeds (0..N-1)")
    p.add_argument("--points", type=int, default=500)
    p.add_argument("--keyframes", type=int, default=20)
    p.add_argument("--trajectory", choices=synth.TRAJECTORIES, default="circle")
    p.add_argument("--traj-scale", type=float, default=2.0)
    p.add_argument("--extent", type=float, default=12.0)
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--cluster-fraction", type=float, default=0.3)
    p.add_argument("--min-kf-points", type=int, default=10)
    p.add_argument("--out", help="CSV path (default: stdout)")
    return p


def _synth_config(args, seed: int) -> synth.SynthConfig:
    return synth.SynthConfig(
        n_points=args.points,
        n_keyframes=args.keyframes,
        trajectory=args.trajectory,
        trajectory_scale=args.traj_scale,
        extent=args.extent,
        dropout=args.dropout,
        cluster_fraction=args.cluster_fraction,
        seed=seed,
        pixel_noise=getattr(args, "pixel_noise", 0.0),
    )


def _cmd_generate(args) -> int:
    slam_map, traj = synth.generate(_synth_config(args, args.seed))
    save_map(slam_map, args.out)
    metrics.save_trajectory(traj, args.gt_out)
    print(f"seed: {args.seed}")
    print(f"map: {args.out} ({slam_map.n_points} points, {slam_map.n_keyframes} keyframes, "
          f"{slam_map.n_observations} observations)")
    print(f"trajectory: {args.gt_out}")
    return 0


def _baseline_result(slam_map: SlamMap, strategy: str, budget: int, min_kf_points: int) -> SelectionResult:
    t0 = time.perf_counter()
    kept = _BASELINES[strategy](slam_map, budget)
    return selection_from_kept(slam_map, kept, min_kf_points, solve_ms=(time.perf_counter() - t0) * 1000.0)


def _cmd_sparsify(args) -> int:
    if args.window and args.strategy != "flow":
        raise ValueError("--window applies only to --strategy flow")
    if args.strategy == "flow":
        if args.capacity_m is None:
            raise ValueError("--capacity-m is required for the flow strategy")
        config = SparsifyConfig(
            graph=GraphConfig(
                capacity_m=args.capacity_m,
                box_width=args.box_width,
                box_height=args.box_height,
                enable_cc=not args.no_cc,
                enable_cs=not args.no_cs,
                enable_cb=not args.no_cb,
            ),
            theta_ratio=args.theta_ratio,
            keyframe_min_points=args.min_kf_points,
            drop_underviewed=not args.keep_underviewed,
            window=args.window,
        )
    elif args.budget is None:
        raise ValueError("--budget is required for baseline strategies")
    slam_map = load_map(args.map)
    if args.strategy == "flow":
        selection = sparsify(slam_map, config)
    else:
        selection = _baseline_result(slam_map, args.strategy, args.budget, args.min_kf_points)

    if args.out:
        out_map = apply_selection(slam_map, selection)
        del slam_map  # nothing below reads the input map
        save_map(out_map, args.out)
        del out_map
    report = selection.to_json()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(report)
            f.write("\n")
    else:
        print(report)
    return 0


def _cmd_metrics(args) -> int:
    if (args.est is None) != (args.gt is None):
        raise ValueError("--est and --gt must be given together")
    if args.map is None and args.est is None:
        raise ValueError("provide --map and/or both --est and --gt")
    doc = {}
    if args.map:
        doc.update(metrics.map_report(load_map(args.map)).to_dict())
    if args.est:
        est = metrics.load_trajectory(args.est)
        gt = metrics.load_trajectory(args.gt)
        doc["ate_rms_m"] = metrics.ate(est, gt, alignment=args.align, max_offset=args.max_offset)
        doc["ate_rot_rms_deg"] = metrics.ate_rot(est, gt, alignment=args.align, max_offset=args.max_offset)
        doc["alignment"] = args.align
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


_CSV_COLUMNS = [
    "strategy", "capacity_m", "seed", "points_in", "keyframes_in",
    "points_kept", "mp_pct", "keyframes_kept", "kf_pct",
    "C", "F", "S", "total_flow", "total_cost", "build_ms", "solve_ms",
]


def _compare_row(strategy, capacity, seed_label, slam_map, selection) -> dict:
    out_map = apply_selection(slam_map, selection)
    report = metrics.map_report(out_map) if out_map.n_points else None
    return {
        "strategy": strategy,
        "capacity_m": capacity,
        "seed": seed_label,
        "points_in": slam_map.n_points,
        "keyframes_in": slam_map.n_keyframes,
        "points_kept": len(selection.kept_point_ids),
        "mp_pct": round(selection.mp_pct, 2),
        "keyframes_kept": slam_map.n_keyframes - len(selection.culled_keyframe_ids),
        "kf_pct": round(selection.kf_pct, 2),
        "C": round(report.C, 3) if report else "",
        "F": report.F if report and report.F is not None else "",
        "S": round(report.S, 3) if report else "",
        "total_flow": selection.total_flow if selection.total_flow is not None else "",
        "total_cost": selection.total_cost if selection.total_cost is not None else "",
        "build_ms": round(selection.build_ms, 2),
        "solve_ms": round(selection.solve_ms, 2),
    }


def _cmd_compare(args) -> int:
    capacities = [int(x) for x in args.capacities.split(",") if x]
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for s in strategies:
        if s != "flow" and s not in _BASELINES:
            raise ValueError(f"unknown strategy '{s}'")
    if args.map:
        cases = [("-", load_map(args.map))]
    elif args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1 without --map, got {args.seeds}")
    else:
        cases = []
        for seed in range(args.seeds):
            slam_map, _ = synth.generate(_synth_config(args, seed))
            cases.append((seed, slam_map))

    rows = []
    for capacity in capacities:
        for seed_label, slam_map in cases:
            config = SparsifyConfig(
                graph=GraphConfig(capacity_m=capacity),
                keyframe_min_points=args.min_kf_points,
            )
            flow_selection = sparsify(slam_map, config)
            budget = len(flow_selection.kept_point_ids)
            if "flow" in strategies:
                rows.append(_compare_row("flow", capacity, seed_label, slam_map, flow_selection))
            for strategy in strategies:
                if strategy == "flow":
                    continue
                selection = _baseline_result(slam_map, strategy, budget, args.min_kf_points)
                rows.append(_compare_row(strategy, capacity, seed_label, slam_map, selection))

    rows.sort(key=lambda r: (r["capacity_m"], str(r["seed"]), r["strategy"]))
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out} (seeds 0..{args.seeds - 1})"
              if not args.map else f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mapsparse",
        description="Sparsify feature-based SLAM maps with min-cost max-flow point selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_sparsify(sub)
    _add_metrics(sub)
    _add_compare(sub)
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "sparsify": _cmd_sparsify,
        "metrics": _cmd_metrics,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
