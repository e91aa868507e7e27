import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WORKLOAD_SHAPES, make_map, map_from_records, valid_maps
from map_oracles import (
    index_oracle,
    select_grid_bucketed_oracle,
    select_radius_suppressed_oracle,
    select_top_m_oracle,
)
from mapsparse.baselines import select_grid_bucketed, select_radius_suppressed, select_top_m
from mapsparse.synth import SynthConfig, generate


def connectivity_map():
    # counts: point 0 -> 5 frames, point 1 -> 3, point 2 -> 2, point 3 -> 2
    return make_map(
        frame_positions=[(i, 0, 0) for i in range(5)],
        point_obs={
            0: [(f, 10, 10) for f in range(5)],
            1: [(f, 100, 100) for f in range(3)],
            2: [(f, 200, 200) for f in range(2)],
            3: [(f, 300, 300) for f in range(2)],
        },
    )


class TestTopM:
    def test_budget_covers_everything(self):
        slam_map = connectivity_map()
        assert select_top_m(slam_map, 99) == {0, 1, 2, 3}

    def test_budget_one_takes_highest_count(self):
        assert select_top_m(connectivity_map(), 1) == {0}

    def test_tie_breaks_to_lower_id(self):
        assert select_top_m(connectivity_map(), 3) == {0, 1, 2}

    def test_budget_zero(self):
        assert select_top_m(connectivity_map(), 0) == set()

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            select_top_m(connectivity_map(), -1)


class TestGridBucketed:
    def test_one_point_per_cell_all_selected(self):
        obs = {}
        pid = 0
        for ci in range(10):
            for cj in range(10):
                obs[pid] = [(0, 64 * ci + 32, 48 * cj + 24)]
                pid += 1
        slam_map = make_map([(0, 0, 0)], obs)
        assert select_grid_bucketed(slam_map, 100) == set(range(100))

    def test_round_robin_spreads_over_cells(self):
        # ten points crowd cell (0,0); two more sit alone in other cells
        obs = {pid: [(0, 2.0 + pid, 2.0)] for pid in range(10)}
        obs[10] = [(0, 100, 100)]
        obs[11] = [(0, 400, 400)]
        slam_map = make_map([(0, 0, 0)], obs)
        picked = select_grid_bucketed(slam_map, 3)
        assert len(picked) == 3
        assert 10 in picked and 11 in picked
        assert len(picked & set(range(10))) == 1

    def test_budget_zero(self):
        assert select_grid_bucketed(connectivity_map(), 0) == set()

    def test_exact_count(self):
        slam_map, _ = generate(SynthConfig(n_points=120, n_keyframes=6, dropout=0.2, seed=3))
        for budget in (0, 1, 17, 80, 120, 500):
            assert len(select_grid_bucketed(slam_map, budget)) == min(budget, 120)


class TestRadiusSuppressed:
    def test_full_budget_keeps_all(self):
        slam_map = connectivity_map()
        assert select_radius_suppressed(slam_map, 4) == {0, 1, 2, 3}

    def test_keypoints_closer_than_any_square_suppress_like_coincident_ones(self):
        # (1e-170)**2 underflows to 0, so at radius 0 the first three keypoints
        # suppress one another; (1e-160)**2 does not.
        us = [0.0, 1e-170, 5e-324, 1e-160, 3.0]
        slam_map = make_map([(0, 0, 0)], {pid: [(0, u, 100.0)] for pid, u in enumerate(us)})
        assert select_radius_suppressed(slam_map, 4) == {0, 3, 4}
        for budget in range(1, 6):
            assert select_radius_suppressed(slam_map, budget) == select_radius_suppressed_oracle(slam_map, budget)

    def test_coincident_keypoints_keep_higher_connectivity(self):
        slam_map = make_map(
            frame_positions=[(0, 0, 0), (1, 0, 0), (2, 0, 0)],
            point_obs={
                0: [(0, 50, 50), (1, 50, 50)],
                1: [(0, 50, 50), (1, 50, 50), (2, 50, 50)],
            },
        )
        assert select_radius_suppressed(slam_map, 1) == {1}

    def test_uniform_grid_quarter_budget_doubles_spacing(self):
        spacing = 30.0
        obs = {}
        pid = 0
        for i in range(20):
            for j in range(15):
                obs[pid] = [(0, 10 + spacing * i, 10 + spacing * j)]
                pid += 1
        slam_map = make_map([(0, 0, 0)], obs)
        picked = select_radius_suppressed(slam_map, 75)  # a quarter of 300
        assert len(picked) == 75
        obs_by_key = index_oracle(slam_map)[2]
        uv = np.array([(obs_by_key[(p, 0)].u, obs_by_key[(p, 0)].v) for p in sorted(picked)])
        d = np.linalg.norm(uv[:, None, :] - uv[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        nn = d.min(axis=1)
        assert np.all(nn >= 2 * spacing - 1e-9)
        assert nn.mean() == pytest.approx(2 * spacing, rel=0.1)

    def test_count_within_tolerance(self):
        slam_map, _ = generate(SynthConfig(n_points=300, n_keyframes=6, dropout=0.2, seed=5))
        for budget in (10, 60, 150):
            picked = select_radius_suppressed(slam_map, budget)
            assert len(picked) == budget


def test_all_selectors_deterministic_and_order_invariant():
    slam_map, _ = generate(SynthConfig(n_points=150, n_keyframes=6, dropout=0.3, seed=7))
    permuted = map_from_records(
        list(reversed(slam_map.keyframes)),
        list(slam_map.points)[::-1],
        list(slam_map.observations)[::-1],
    )
    for select in (select_top_m, select_grid_bucketed, select_radius_suppressed):
        assert select(slam_map, 40) == select(permuted, 40)
        assert select(slam_map, 40) == select(slam_map, 40)


SELECTORS = [
    pytest.param(select_top_m, select_top_m_oracle, id="topm"),
    pytest.param(select_grid_bucketed, select_grid_bucketed_oracle, id="grid"),
    pytest.param(select_radius_suppressed, select_radius_suppressed_oracle, id="radius"),
]


@pytest.mark.parametrize("select, oracle", SELECTORS)
@settings(max_examples=150, deadline=None)
@given(slam_map=valid_maps(), budget=st.integers(0, 12))
def test_selectors_match_the_per_point_oracles(select, oracle, slam_map, budget):
    assert select(slam_map, budget) == oracle(slam_map, budget)


@pytest.mark.parametrize("select, oracle", SELECTORS)
@pytest.mark.parametrize("synth, window", WORKLOAD_SHAPES)
def test_selectors_match_the_per_point_oracles_on_workload_shaped_maps(select, oracle, synth, window):
    slam_map, _ = generate(SynthConfig(seed=4, **synth))
    for fraction in (0.05, 0.3):
        budget = int(fraction * slam_map.n_points)
        assert select(slam_map, budget) == oracle(slam_map, budget)
