"""Coarse 2D steady-state thermal map of a placed design.

Extends the paper's Obs. 2 from a scalar peak-power-density check to a
spatial one: the placed blocks' power densities drive a grid model with a
vertical (through-package) conductance to ambient per cell and lateral
(in-silicon) spreading between neighbours, with zero-flux die edges:

    G_v * T[i,j] + sum_nbr G_l * (T[i,j] - T[nbr]) = P[i,j]

The operator is separable, ``G_v*I + G_l*(L (x) I + I (x) L)`` with ``L``
the 1-D Neumann path-graph Laplacian, whose eigenvectors are the
orthonormal DCT-II basis.  :func:`solve_grid` therefore solves it exactly
in that basis — two small matrix products each way, no iteration — and
the field balances the injected power to rounding (sum G_v*T == sum P).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.thermal import ThermalStack, vertical_conductance
from repro.errors import require
from repro.physical.floorplan import Floorplan
from repro.physical.power import PowerReport

#: Grid resolution (cells per die edge).
GRID = 64

#: Lateral spreading conductance between neighbouring cells, W/K.
#: Silicon spreads heat well; a few W/K per ~0.3 mm cell is representative.
LATERAL_CONDUCTANCE = 2.0


@dataclass(frozen=True)
class ThermalMap:
    """Solved temperature field for one design.

    Attributes:
        design_name: Design identifier.
        rise: Temperature-rise grid (K above ambient), shape (GRID, GRID).
        cell_size: Grid cell edge, metres.
    """

    design_name: str
    rise: np.ndarray
    cell_size: float

    @property
    def hotspot(self) -> float:
        """Peak temperature rise, K."""
        return float(self.rise.max())

    @property
    def average(self) -> float:
        """Mean temperature rise, K."""
        return float(self.rise.mean())

    @property
    def hotspot_location(self) -> tuple[float, float]:
        """(x, y) of the hottest cell centre, metres."""
        index = int(self.rise.argmax())
        row, col = divmod(index, self.rise.shape[1])
        return ((col + 0.5) * self.cell_size, (row + 0.5) * self.cell_size)

    def rise_at(self, x: float, y: float) -> float:
        """Temperature rise at a die coordinate, K."""
        col = min(self.rise.shape[1] - 1, max(0, int(x / self.cell_size)))
        row = min(self.rise.shape[0] - 1, max(0, int(y / self.cell_size)))
        return float(self.rise[row, col])


def power_density_grid(floorplan: Floorplan, power: PowerReport,
                       grid: int = GRID) -> tuple[np.ndarray, float]:
    """Rasterize per-block power onto a grid; returns (P per cell, cell size).

    Upper-tier (M3D) block power lands on the same (x, y) cells as the
    silicon below it — heat has to come down through the stack.
    """
    require(grid >= 4, "grid must be at least 4x4")
    die = floorplan.die
    cell = max(die.width, die.height) / grid
    field = np.zeros((grid, grid))
    for placed in floorplan.placements:
        watts = power.per_block.get(placed.name, 0.0)
        if watts <= 0:
            continue
        rect = placed.rect
        col0 = int(rect.x / cell)
        col1 = max(col0 + 1, int(np.ceil((rect.x + rect.width) / cell)))
        row0 = int(rect.y / cell)
        row1 = max(row0 + 1, int(np.ceil((rect.y + rect.height) / cell)))
        col1 = min(col1, grid)
        row1 = min(row1, grid)
        cells = max(1, (row1 - row0) * (col1 - col0))
        field[row0:row1, col0:col1] += watts / cells
    return field, cell


@lru_cache(maxsize=8)
def modal_basis(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(lam, V)`` of the 1-D Neumann Laplacian on ``grid`` nodes.

    Closed form (no eigensolver): column ``k`` of ``V`` is the orthonormal
    DCT-II vector ``c_k * cos(pi*k*(i + 1/2)/grid)`` and
    ``lam[k] = 2 - 2*cos(pi*k/grid)``.  Cached per grid size; the arrays
    are read-only because every caller shares them.
    """
    modes = np.arange(grid)
    eigenvalues = 2.0 - 2.0 * np.cos(np.pi * modes / grid)
    basis = np.sqrt(2.0 / grid) * np.cos(
        np.pi * np.outer(modes + 0.5, modes) / grid)
    basis[:, 0] = np.sqrt(1.0 / grid)
    eigenvalues.flags.writeable = False
    basis.flags.writeable = False
    return eigenvalues, basis


def solve_grid(source: np.ndarray, g_vertical: float,
               g_lateral: float = LATERAL_CONDUCTANCE) -> np.ndarray:
    """Exact steady-state rise for a square per-cell power map ``source``.

    ``T = V [(V^T P V) / (G_v + G_l (lam_i + lam_j))] V^T`` in the cached
    DCT-II basis of :func:`modal_basis`.
    """
    require(source.ndim == 2 and source.shape[0] == source.shape[1],
            "power map must be a square grid")
    require(g_vertical > 0, "vertical conductance must be positive")
    eigenvalues, basis = modal_basis(source.shape[0])
    modal = basis.T @ source @ basis
    modal /= g_vertical + g_lateral * (eigenvalues[:, None]
                                       + eigenvalues[None, :])
    return basis @ modal @ basis.T


def solve_thermal_map(
    floorplan: Floorplan,
    power: PowerReport,
    grid: int = GRID,
    stack: ThermalStack | None = None,
) -> ThermalMap:
    """Solve the steady-state grid model of a placed design exactly."""
    source, cell = power_density_grid(floorplan, power, grid)
    # Vertical conductance per cell from the stack's K/W resistance,
    # apportioned by cell area share of the die (shared definition in
    # repro.core.thermal, so the scalar Eq. 17 check cannot diverge).
    cells_on_die = floorplan.die.area / (cell * cell)
    rise = solve_grid(source, vertical_conductance(cells_on_die, stack))
    return ThermalMap(design_name=floorplan.name, rise=rise, cell_size=cell)
