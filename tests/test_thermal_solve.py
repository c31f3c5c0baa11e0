"""Invariants of the exact modal thermal solve.

Every expectation comes from the grid model itself — energy balance,
mirror symmetry, linearity and positivity of the operator's inverse, and
agreement with a dense direct solve — never from the solver's own output.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.thermal import vertical_conductance
from repro.errors import ReproError
from repro.physical.flow import run_flow
from repro.physical.thermal_map import (
    GRID,
    LATERAL_CONDUCTANCE,
    modal_basis,
    power_density_grid,
    solve_grid,
    solve_thermal_map,
)

#: The case-study vertical conductance (one die split over GRID^2 cells):
#: G_v / G_l is about 3e-4, the regime where iterative smoothers stall.
G_V = vertical_conductance(GRID * GRID)

grids = st.integers(min_value=4, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
conductances = st.sampled_from([(G_V, LATERAL_CONDUCTANCE), (1.0, 1.0),
                                (0.5, 0.0), (1e-3, 10.0)])


def _power(n: int, seed: int) -> np.ndarray:
    """A sparse non-negative power map with a few hot cells."""
    rng = np.random.default_rng(seed)
    power = rng.random((n, n)) * 1e-3
    power[rng.random((n, n)) < 0.5] = 0.0
    power[rng.integers(n), rng.integers(n)] += 0.05
    return power


def _path_laplacian(n: int) -> np.ndarray:
    """1-D Laplacian of an n-node path with zero-flux (Neumann) ends."""
    laplacian = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    laplacian[0, 0] = laplacian[-1, -1] = 1.0
    return laplacian


def _stencil(rise: np.ndarray, g_vertical: float,
             g_lateral: float) -> np.ndarray:
    """Left-hand side of the grid equations, from the 4-neighbour stencil."""
    padded = np.pad(rise, 1, mode="edge")  # edge copy == zero flux
    flux = (4 * rise - padded[:-2, 1:-1] - padded[2:, 1:-1]
            - padded[1:-1, :-2] - padded[1:-1, 2:])
    return g_vertical * rise + g_lateral * flux


@pytest.fixture(scope="module")
def case_study(pdk, baseline, m3d):
    """(source, G_v, solved map) for the 2D and M3D case-study designs."""
    out = []
    for design in (baseline, m3d):
        flow = run_flow(design, pdk)
        source, cell = power_density_grid(flow.floorplan, flow.power)
        g_vertical = vertical_conductance(
            flow.floorplan.die.area / (cell * cell))
        out.append((source, g_vertical,
                    solve_thermal_map(flow.floorplan, flow.power)))
    return out


@pytest.mark.parametrize("n", [2, 4, 7, 12, GRID])
def test_cached_basis_is_orthonormal_eigenbasis(n):
    eigenvalues, basis = modal_basis(n)
    assert np.allclose(basis.T @ basis, np.eye(n), rtol=0, atol=1e-12)
    assert np.allclose(_path_laplacian(n) @ basis, basis * eigenvalues,
                       rtol=0, atol=1e-12)
    assert modal_basis(n)[1] is basis
    assert not basis.flags.writeable and not eigenvalues.flags.writeable


@settings(max_examples=40, deadline=None)
@given(n=grids, seed=seeds, g=conductances)
def test_matches_dense_direct_solve(n, seed, g):
    g_vertical, g_lateral = g
    power = _power(n, seed)
    identity = np.eye(n)
    laplacian = _path_laplacian(n)
    operator = g_vertical * np.eye(n * n) + g_lateral * (
        np.kron(laplacian, identity) + np.kron(identity, laplacian))
    dense = np.linalg.solve(operator, power.ravel()).reshape(n, n)
    rise = solve_grid(power, g_vertical, g_lateral)
    assert np.max(np.abs(rise - dense)) <= 1e-10 * np.max(np.abs(dense))


@settings(max_examples=40, deadline=None)
@given(n=grids, seed=seeds, g=conductances)
def test_energy_balance(n, seed, g):
    """Steady state: all injected power leaves through the vertical path."""
    g_vertical, g_lateral = g
    power = _power(n, seed)
    rise = solve_grid(power, g_vertical, g_lateral)
    assert (g_vertical * rise).sum() == pytest.approx(power.sum(), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(n=grids, seed=seeds, g=conductances)
def test_field_mirrors_with_power_map(n, seed, g):
    power = _power(n, seed)
    rise = solve_grid(power, *g)
    scale = np.max(rise)
    for flip in (np.fliplr, np.flipud):
        mirrored = solve_grid(flip(power), *g)
        assert np.max(np.abs(mirrored - flip(rise))) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(n=grids, seed=seeds, extra=seeds, c=st.floats(1e-3, 1e3),
       g=conductances)
def test_linear_and_monotone_in_power(n, seed, extra, c, g):
    power = _power(n, seed)
    rise = solve_grid(power, *g)
    scale = np.max(rise)
    assert np.max(np.abs(solve_grid(c * power, *g) - c * rise)) \
        <= 1e-12 * c * scale
    hotter = solve_grid(power + _power(n, extra), *g)
    assert np.min(hotter - rise) >= -1e-12 * np.max(hotter)


def test_case_study_satisfies_grid_equations(case_study):
    """Full-size (64x64) fields solve the stencil equations and balance
    the injected power to 1e-9."""
    for source, g_vertical, thermal in case_study:
        residual = _stencil(thermal.rise, g_vertical, LATERAL_CONDUCTANCE) \
            - source
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(source)
        assert (g_vertical * thermal.rise).sum() \
            == pytest.approx(source.sum(), rel=1e-9)


def test_solve_grid_rejects_bad_inputs():
    with pytest.raises(ReproError):
        solve_grid(np.zeros((4, 5)), G_V)
    with pytest.raises(ReproError):
        solve_grid(np.zeros((4, 4)), 0.0)
