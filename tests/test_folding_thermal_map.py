"""Folding-only baseline and the spatial thermal map."""

import numpy as np
import pytest

from repro.core.thermal import vertical_conductance
from repro.experiments.folding import format_folding, run_folding
from repro.physical.flow import run_flow
from repro.physical.thermal_map import (
    GRID,
    power_density_grid,
    solve_grid,
    solve_thermal_map,
)


@pytest.fixture(scope="module")
def folding(pdk):
    return run_folding(pdk)


@pytest.fixture(scope="module")
def flows(pdk, baseline, m3d):
    return run_flow(baseline, pdk), run_flow(m3d, pdk)


@pytest.fixture(scope="module")
def maps(flows):
    flow_2d, flow_m3d = flows
    return (solve_thermal_map(flow_2d.floorplan, flow_2d.power),
            solve_thermal_map(flow_m3d.floorplan, flow_m3d.power))


# --- folding ---------------------------------------------------------------------

def test_folded_footprint_shrinks(folding):
    assert folding.footprint_folded < folding.footprint_2d
    assert 0.5 < folding.footprint_ratio < 0.8


def test_folded_wirelength_about_80pct(folding):
    """Prior work [3-4] reports ~20% wirelength reduction."""
    assert folding.wirelength_ratio == pytest.approx(0.8, abs=0.05)


def test_folded_edp_in_prior_work_band(folding):
    """[3-4]: folding alone is worth ~1.1-1.4x."""
    assert 1.05 <= folding.folded_edp_benefit <= 1.5


def test_architecture_dwarfs_folding(folding):
    """The paper's thesis: design points, not folding, carry the benefit."""
    assert folding.architectural_edp_benefit > 4 * folding.folded_edp_benefit


def test_folding_components_multiply(folding):
    assert folding.folded_edp_benefit == pytest.approx(
        folding.folded_speedup * folding.folded_energy_benefit)


def test_folding_format(folding):
    text = format_folding(folding)
    assert "folded EDP benefit" in text
    assert "architecture / folding" in text


# --- thermal map -----------------------------------------------------------------------

def test_power_grid_conserves_power(flows):
    flow_2d, _ = flows
    grid, _ = power_density_grid(flow_2d.floorplan, flow_2d.power)
    assert grid.sum() == pytest.approx(flow_2d.power.total, rel=0.01)


def test_power_grid_shape(flows):
    flow_2d, _ = flows
    grid, cell = power_density_grid(flow_2d.floorplan, flow_2d.power)
    assert grid.shape == (GRID, GRID)
    assert cell > 0


def test_thermal_rise_nonnegative(maps):
    for thermal in maps:
        assert float(thermal.rise.min()) >= 0.0


def test_hotspot_at_least_average(maps):
    for thermal in maps:
        assert thermal.hotspot >= thermal.average


def test_case_study_thermally_trivial(maps):
    """Obs. 2's conclusion: no additional thermal management needed."""
    _, m3d_map = maps
    assert m3d_map.hotspot < 0.1  # kelvin


def test_mean_rise_balances_injected_power(flows, maps):
    """Energy balance: at steady state every injected watt leaves through
    the vertical path, so the mean rise is sum(P) / (G_v * cells)."""
    for flow, thermal in zip(flows, maps):
        source, cell = power_density_grid(flow.floorplan, flow.power)
        cells_on_die = flow.floorplan.die.area / (cell * cell)
        g_vertical = vertical_conductance(cells_on_die)
        expected = source.sum() / (g_vertical * source.size)
        assert thermal.average == pytest.approx(expected, rel=1e-9)


def test_m3d_average_warmer(maps):
    """More total power -> warmer on average, but spread, not peaked."""
    map_2d, map_m3d = maps
    assert map_m3d.average > map_2d.average


def test_hotspot_location_in_die(flows, maps):
    flow_2d, _ = flows
    thermal, _ = maps
    x, y = thermal.hotspot_location
    die = flow_2d.floorplan.die
    assert 0 <= x <= die.width * (1 + 1 / GRID)
    assert 0 <= y <= die.height * (1 + 1 / GRID)


def test_rise_at_matches_grid(maps):
    thermal, _ = maps
    x, y = thermal.hotspot_location
    assert thermal.rise_at(x, y) == pytest.approx(thermal.hotspot)


def test_uniform_power_gives_flat_field():
    """Property: a uniform source solves to the flat field P / G_v (the
    lateral terms cancel)."""
    g_vertical = vertical_conductance(GRID * GRID)
    rise = solve_grid(np.full((GRID, GRID), 1e-4), g_vertical)
    assert np.allclose(rise, 1e-4 / g_vertical, rtol=1e-12, atol=0.0)
