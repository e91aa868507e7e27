"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4-6 share seeded synthetic-map sweeps computed once per session in
module fixtures; criterion 8's integrity checks run inline on every one of
those sparsification runs, and criterion 9 repeats criterion 4's runs to pin
byte-level determinism.
"""

import time

import numpy as np
import pytest

from flow_cases import (
    enumerate_min_cost_max_flow,
    lift_to_closed_form,
    max_flow_oracle,
    random_layered_graph,
    random_tiny_graph,
    refused,
    solve_ssp,
    verify_residual,
)
from mapsparse import _quat
from mapsparse.baselines import select_radius_suppressed
from mapsparse.flow_graph import GraphConfig, baseline_cost, connectivity_cost, spatial_cost
from mapsparse.map_model import validate
from mapsparse.mcmf import solve, verify_optimality
from mapsparse.metrics import Trajectory, ate, ate_rot, attribute_C, attribute_F, attribute_S, transform_trajectory
from mapsparse.sparsifier import SelectionResult, SparsifyConfig, apply_selection, sparsify
from mapsparse.synth import SynthConfig, generate, perturb_trajectory

# desk-scale sweep configurations (seeded; all runs deterministic)
SWEEP_SEEDS = list(range(20))
SWEEP_CAPACITIES = (50, 100, 200)
SWEEP_SYNTH = dict(
    n_points=2000,
    n_keyframes=50,
    trajectory="circle",
    trajectory_scale=2.0,
    extent=12.0,
    dropout=0.4,
    cluster_fraction=0.3,
)
CLUSTER_SYNTH = dict(
    n_points=500,
    n_keyframes=20,
    trajectory="circle",
    trajectory_scale=2.0,
    extent=12.0,
    dropout=0.25,
    cluster_fraction=0.3,
)
CLUSTER_M = 12


def _integrity_check(slam_map, selection):
    """Criterion 8 inline checks; returns a list of failure descriptions."""
    failures = []
    if not validate(apply_selection(slam_map, selection)).ok:
        failures.append("apply_selection output failed validation")
    point_flow = {pid: (flow, cap) for pid, flow, cap in selection.point_flow.tolist()}
    for pid in selection.kept_point_ids.tolist():
        flow, cap = point_flow[pid]
        if not 2 * flow > cap:
            failures.append(f"kept point {pid} violates 2*flow > capacity ({flow}/{cap})")
    return failures


def _run_checked(slam_map, m_value, **graph_kwargs):
    config = SparsifyConfig(graph=GraphConfig(capacity_m=m_value, **graph_kwargs))
    selection = sparsify(slam_map, config)
    return selection, _integrity_check(slam_map, selection)


@pytest.fixture(scope="module")
def capacity_sweep():
    """Criterion 4 runs: 20 maps x M in {50, 100, 200}."""
    t0 = time.perf_counter()
    runs = []
    integrity_failures = []
    for seed in SWEEP_SEEDS:
        slam_map, _ = generate(SynthConfig(seed=seed, **SWEEP_SYNTH))
        per_m = {}
        for m_value in SWEEP_CAPACITIES:
            selection, failures = _run_checked(slam_map, m_value)
            integrity_failures.extend(failures)
            per_m[m_value] = selection
        runs.append((seed, slam_map, per_m))
    return {
        "runs": runs,
        "integrity_failures": integrity_failures,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def cluster_sweep():
    """Criteria 5/6 runs: 20 clustered maps under three cost configurations."""
    t0 = time.perf_counter()
    entries = []
    integrity_failures = []
    for seed in SWEEP_SEEDS:
        slam_map, _ = generate(SynthConfig(seed=seed, **CLUSTER_SYNTH))
        sel_all, fail_a = _run_checked(slam_map, CLUSTER_M)
        sel_cc, fail_b = _run_checked(slam_map, CLUSTER_M, enable_cs=False, enable_cb=False)
        sel_ccb, fail_c = _run_checked(slam_map, CLUSTER_M, enable_cs=False)
        integrity_failures.extend(fail_a + fail_b + fail_c)
        entries.append({
            "map": slam_map,
            "all": sel_all,
            "cc": sel_cc,
            "ccb": sel_ccb,
        })
    return {
        "entries": entries,
        "integrity_failures": integrity_failures,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_1_cost_function_exactness():
    t0 = time.perf_counter()
    assert {n: connectivity_cost(n, 4) for n in (2, 3, 4)} == {2: 6, 3: 2, 4: 1}
    assert connectivity_cost(2, 5) == 12
    assert {d: baseline_cost(d) for d in (0, 10, 90)} == {0: 10, 10: 5, 90: 1}
    assert spatial_cost(0, 7) == 0
    assert spatial_cost(3, 3) == 1
    assert spatial_cost(10, 10) == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[acceptance] criterion 1 (cost exactness): PASS in {elapsed:.3f}s")


def test_criterion_2_solver_matches_oracle_on_1000_graphs():
    # A draw on which a source edge can bind is outside the closed form: both
    # entry points must refuse it. Every draw, lifted to the closed form by
    # raising each source capacity to its point's out-capacity, must match the
    # max-flow and SSP oracles and pass both certificates.
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    refusals = binding = flow_matches = cost_matches = certificates = 0
    for _ in range(1000):
        drawn = random_layered_graph(rng, max_vertices=20, cap_max=5, cost_max=10)
        assert drawn.n_vertices <= 20
        graph = lift_to_closed_form(drawn)
        if graph is not drawn:
            binding += 1
            refusals += refused(drawn)
        result = solve(graph)
        ssp = solve_ssp(graph)
        flow_matches += result.total_flow == max_flow_oracle(graph) == ssp.total_flow
        cost_matches += result.total_cost == ssp.total_cost
        certificates += verify_optimality(graph, result) and verify_residual(graph, result)
    elapsed = time.perf_counter() - t0
    assert refusals == binding > 0
    assert flow_matches == cost_matches == certificates == 1000
    assert elapsed < 10.0
    print(f"\n[acceptance] criterion 2 (oracle equivalence): PASS 1000/1000 lifted to the closed form "
          f"({binding} refused as drawn) in {elapsed:.1f}s")


def test_criterion_3_exhaustive_min_cost_on_200_graphs():
    # As in criterion 2: a draw on which a source edge can bind must be
    # refused, and its lift to the closed form must match the enumeration.
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    refusals = binding = matches = 0
    for _ in range(200):
        drawn = random_tiny_graph(rng, max_edges=10, cap_max=2)
        assert drawn.n_edges <= 10
        graph = lift_to_closed_form(drawn)
        if graph is not drawn:
            binding += 1
            refusals += refused(drawn)
        result = solve(graph)
        max_flow, min_cost = enumerate_min_cost_max_flow(graph)
        matches += result.total_flow == max_flow and result.total_cost == min_cost
    elapsed = time.perf_counter() - t0
    assert refusals == binding
    assert matches == 200
    assert elapsed < 30.0
    print(f"\n[acceptance] criterion 3 (exhaustive min-cost): PASS 200/200 lifted to the closed form "
          f"({binding} refused as drawn) in {elapsed:.1f}s")


def test_criterion_4_flow_monotone_in_capacity(capacity_sweep):
    flow_ok = 0
    kept_ok = 0
    mp_by_m = {m: [] for m in SWEEP_CAPACITIES}
    for seed, slam_map, per_m in capacity_sweep["runs"]:
        flows = [per_m[m].total_flow for m in SWEEP_CAPACITIES]
        kepts = [len(per_m[m].kept_point_ids) for m in SWEEP_CAPACITIES]
        flow_ok += all(a <= b for a, b in zip(flows, flows[1:]))
        kept_ok += all(a <= b for a, b in zip(kepts, kepts[1:]))
        for m in SWEEP_CAPACITIES:
            mp_by_m[m].append(per_m[m].mp_pct)
    elapsed = capacity_sweep["elapsed"]
    assert flow_ok == 20, f"total_flow not monotone on {20 - flow_ok} maps"
    assert kept_ok >= 18, f"kept count monotone on only {kept_ok}/20 maps"
    assert elapsed < 120.0
    mp = " -> ".join(f"{np.mean(mp_by_m[m]):.1f}%" for m in SWEEP_CAPACITIES)
    print(f"\n[acceptance] criterion 4 (flow monotone in M): PASS flow 20/20, kept {kept_ok}/20, "
          f"mean MP% {mp}, in {elapsed:.1f}s")


def test_criterion_5_ablation_directionality(cluster_sweep):
    s_all = []
    s_cc = []
    f_ccb = []
    f_cc = []
    for entry in cluster_sweep["entries"]:
        slam_map = entry["map"]
        s_all.append(attribute_S(apply_selection(slam_map, entry["all"])))
        s_cc.append(attribute_S(apply_selection(slam_map, entry["cc"])))
        f_ccb.append(attribute_F(apply_selection(slam_map, entry["ccb"])))
        f_cc.append(attribute_F(apply_selection(slam_map, entry["cc"])))
    elapsed = cluster_sweep["elapsed"]
    assert np.mean(s_all) >= np.mean(s_cc), (
        f"spatial occupancy regressed: all={np.mean(s_all):.3f} < cc={np.mean(s_cc):.3f}"
    )
    assert np.mean(f_ccb) >= np.mean(f_cc), (
        f"keyframe span regressed: cc+cb={np.mean(f_ccb):.2f} < cc={np.mean(f_cc):.2f}"
    )
    assert elapsed < 120.0
    print(f"\n[acceptance] criterion 5 (ablation direction): PASS "
          f"S {np.mean(s_all):.2f} >= {np.mean(s_cc):.2f}, "
          f"F {np.mean(f_ccb):.1f} >= {np.mean(f_cc):.1f}, sweeps in {elapsed:.1f}s")


def test_criterion_6_connectivity_beats_radius_baseline(cluster_sweep):
    t0 = time.perf_counter()
    c_flow = []
    c_radius = []
    for entry in cluster_sweep["entries"]:
        slam_map = entry["map"]
        selection = entry["all"]
        c_flow.append(attribute_C(apply_selection(slam_map, selection)))
        budget = len(selection.kept_point_ids)
        kept = select_radius_suppressed(slam_map, budget)
        radius_selection = SelectionResult(
            kept_point_ids=frozenset(kept),
            dropped_point_ids=frozenset(p.id for p in slam_map.points if p.id not in kept),
            culled_keyframe_ids=frozenset(),
            underviewed_point_ids=frozenset(),
            point_flow={},
            total_flow=None,
            total_cost=None,
            n_input_points=slam_map.n_points,
            n_input_keyframes=slam_map.n_keyframes,
        )
        assert len(kept) == budget  # matched kept-point counts
        c_radius.append(attribute_C(apply_selection(slam_map, radius_selection)))
    elapsed = cluster_sweep["elapsed"] + time.perf_counter() - t0
    assert np.mean(c_flow) > np.mean(c_radius), (
        f"connectivity did not improve: flow={np.mean(c_flow):.2f} radius={np.mean(c_radius):.2f}"
    )
    assert elapsed < 120.0
    print(f"\n[acceptance] criterion 6 (connectivity vs radius): PASS "
          f"C {np.mean(c_flow):.2f} > {np.mean(c_radius):.2f}, in {elapsed:.1f}s")


def _random_trajectory(rng, n=25):
    stamps = np.arange(n) * 0.1
    positions = np.cumsum(rng.normal(size=(n, 3)), axis=0)
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    return Trajectory(stamps, positions, quats)


def test_criterion_7_metrics_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)

    # exact zeros on identical trajectories
    traj = _random_trajectory(rng, n=200)
    assert ate(traj, traj, alignment="none") == 0.0
    assert ate_rot(traj, traj, alignment="none") == 0.0

    # rigid-transform invariance of aligned ATE on 100 random trajectories
    worst = 0.0
    for _ in range(100):
        gt = _random_trajectory(rng)
        est = Trajectory(
            gt.stamps, gt.positions + rng.normal(scale=0.05, size=(len(gt), 3)), gt.quaternions
        )
        base = ate(est, gt, alignment="rigid")
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        moved = transform_trajectory(est, 1.0, _quat.to_matrix(q), rng.normal(scale=3.0, size=3))
        worst = max(worst, abs(ate(moved, gt, alignment="rigid") - base))
    assert worst < 1e-9, f"aligned ATE moved by {worst:.2e} under a rigid transform"

    # constant 1-degree rotation offset, alignment off
    gt = _random_trajectory(rng, n=500)
    axis = np.array([1.0, 2.0, -2.0])
    axis /= np.linalg.norm(axis)
    dq = _quat.from_rotvec(np.radians(1.0) * axis)
    est = Trajectory(gt.stamps, gt.positions, _quat.multiply(gt.quaternions, dq[None, :]))
    one_deg = ate_rot(est, gt, alignment="none")
    assert abs(one_deg - 1.0) < 1e-6

    # Monte-Carlo noise at n = 10,000 poses against the closed form sigma*sqrt(3)
    # (both noises are N(0, sigma^2 I_3) vectors: translation offset directly,
    # rotation through its rotation vector whose norm is the angle)
    sigma_t, sigma_r = 0.05, 1.0
    mc = np.sqrt((np.linalg.norm(rng.normal(scale=sigma_t, size=(200_000, 3)), axis=1) ** 2).mean())
    closed_form_t = sigma_t * np.sqrt(3.0)
    assert abs(mc - closed_form_t) / closed_form_t < 0.02  # oracle agrees with closed form

    n = 10_000
    big = Trajectory(
        np.arange(n) * 0.05,
        np.cumsum(rng.normal(size=(n, 3)), axis=0),
        np.tile(_quat.IDENTITY, (n, 1)),
    )
    noisy = perturb_trajectory(big, sigma_t, 0.0, seed=101)
    measured_t = ate(noisy, big, alignment="none")
    assert abs(measured_t - closed_form_t) / closed_form_t < 0.10

    closed_form_r = sigma_r * np.sqrt(3.0)
    noisy = perturb_trajectory(big, 0.0, sigma_r, seed=102)
    measured_r = ate_rot(noisy, big, alignment="none")
    assert abs(measured_r - closed_form_r) / closed_form_r < 0.10

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\n[acceptance] criterion 7 (metrics correctness): PASS "
          f"invariance {worst:.1e} m, 1deg -> {one_deg:.6f}, "
          f"MC ate {measured_t:.4f} vs {closed_form_t:.4f}, "
          f"MC ate_rot {measured_r:.3f} vs {closed_form_r:.3f}, in {elapsed:.1f}s")


def test_criterion_8_pipeline_integrity(capacity_sweep, cluster_sweep):
    failures = capacity_sweep["integrity_failures"] + cluster_sweep["integrity_failures"]
    n_runs = len(capacity_sweep["runs"]) * len(SWEEP_CAPACITIES) + 3 * len(cluster_sweep["entries"])
    assert n_runs == 120
    assert not failures, f"{len(failures)} integrity failures: {failures[:5]}"
    print(f"\n[acceptance] criterion 8 (pipeline integrity): PASS 0 failures across {n_runs} runs")


def test_criterion_9_determinism(capacity_sweep):
    mismatches = 0
    for seed, slam_map, per_m in capacity_sweep["runs"]:
        fresh_map, _ = generate(SynthConfig(seed=seed, **SWEEP_SYNTH))
        for m_value in SWEEP_CAPACITIES:
            fresh = sparsify(fresh_map, SparsifyConfig(graph=GraphConfig(capacity_m=m_value)))
            a = per_m[m_value].to_json(include_timings=False)
            b = fresh.to_json(include_timings=False)
            if a != b:
                mismatches += 1
    assert mismatches == 0, f"{mismatches} reports differed between repeated runs"
    print("\n[acceptance] criterion 9 (determinism): PASS 60/60 byte-identical reports")
