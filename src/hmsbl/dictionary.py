"""Steering dictionaries over direction-cosine grids.

Two forms are used by the solvers.  The block solver works on the reduced
dictionary Phi_u kron I_ny, never enumerating a v grid.  The flat baseline
works on the columns of the full 2-D dictionary Phi_u kron Phi_v at the
feasible (u^2 + v^2 <= 1) cells of the grid; it is described by the pair
and those cells, and the solver never materializes it.  The algebraic link
between the two is

    (Phi_u kron I_ny) (I_mu kron Phi_v) = Phi_u kron Phi_v

which ``kron_factorization_check`` evaluates numerically.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .signal_model import UraConfig, in_unit_disk

__all__ = [
    "Grid1D",
    "DictionaryPair",
    "KronDictionary",
    "uniform_grid",
    "steering",
    "steering_matrix",
    "dictionary_pair",
    "effective_dictionary",
    "kron_dictionary",
    "kron_factorization_check",
]


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing grid of direction cosines inside [-1, 1]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid must be a non-empty 1-D array")
        if np.any(pts < -1.0) or np.any(pts > 1.0):
            raise ValueError("grid points must lie in [-1, 1]")
        if pts.size > 1 and np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")

    @property
    def size(self) -> int:
        return self.points.size


def uniform_grid(m: int) -> Grid1D:
    """Endpoint-inclusive uniform grid of m >= 2 points on [-1, 1]."""
    if m < 2:
        raise ValueError(f"uniform grid needs at least 2 points, got {m}")
    return Grid1D(np.linspace(-1.0, 1.0, m))


def steering(freq: float, n: int) -> np.ndarray:
    """Length-n steering vector exp(j pi p freq), p = 0..n-1."""
    if n < 1:
        raise ValueError("steering vector length must be >= 1")
    return np.exp(1j * np.pi * np.arange(n) * freq)


def steering_matrix(grid: Grid1D, n: int) -> np.ndarray:
    """n x m matrix whose columns are steering vectors over the grid."""
    if n < 1:
        raise ValueError("steering vector length must be >= 1")
    return np.exp(1j * np.pi * np.outer(np.arange(n), grid.points))


@dataclass(frozen=True)
class DictionaryPair:
    """The 1-D steering dictionaries of an nx x ny array over two grids:
    Phi_u = ``steering_matrix(grid_u, nx)`` (nx x mu) and
    Phi_v = ``steering_matrix(grid_v, ny)`` (ny x mv).

    A pair is its grids and row counts; ``phi_u`` and ``phi_v`` are derived
    from them on first read.  So every factor is a steering matrix, which
    the solver's kernels rely on: they work from the grid points alone.
    """

    grid_u: Grid1D
    grid_v: Grid1D
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("nx", "ny"):
            rows = getattr(self, name)
            if int(rows) != rows or rows < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {rows!r}")
            object.__setattr__(self, name, int(rows))

    @cached_property
    def phi_u(self) -> np.ndarray:
        return steering_matrix(self.grid_u, self.nx)

    @cached_property
    def phi_v(self) -> np.ndarray:
        return steering_matrix(self.grid_v, self.ny)


def dictionary_pair(config: UraConfig, grid_u: Grid1D, grid_v: Grid1D) -> DictionaryPair:
    """The steering pair of an array geometry over two grids."""
    return DictionaryPair(grid_u=grid_u, grid_v=grid_v, nx=config.nx, ny=config.ny)


def effective_dictionary(phi_u: np.ndarray, ny: int) -> np.ndarray:
    """Materialize Phi_u kron I_ny.  Intended for small problems and tests;
    the solver applies the same operator implicitly."""
    if ny < 1:
        raise ValueError("block size must be >= 1")
    return np.kron(phi_u, np.eye(ny))


@dataclass(frozen=True)
class KronDictionary:
    """Flat 2-D dictionary: the columns of Phi_u kron Phi_v at ``cells``.

    ``cells`` holds strictly increasing flat indices i mv + j of grid cells
    (grid_u[i], grid_v[j]), so columns are ordered u-major (v varies
    fastest), matching the vec(S^T) stacking of the signal model.
    ``column_labels`` (P, 2) holds the (u, v) pair of each column and
    ``matrix`` (nx ny, P) the columns themselves; both are derived from the
    pair on first read, and the solver reads neither.
    """

    pair: DictionaryPair
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 1 or (cells.size and not np.issubdtype(cells.dtype, np.integer)):
            raise ValueError("cells must be a 1-D array of integer grid indices")
        cells = cells.astype(np.intp, copy=False)
        object.__setattr__(self, "cells", cells)
        n_cells = self.pair.grid_u.size * self.pair.grid_v.size
        if cells.size and (cells[0] < 0 or cells[-1] >= n_cells or np.any(np.diff(cells) <= 0)):
            raise ValueError(f"cells must be strictly increasing indices below {n_cells}")

    @property
    def size(self) -> int:
        return self.cells.size

    def _axes(self):
        """(u index, v index) of every column."""
        return np.divmod(self.cells, self.pair.grid_v.size)

    @cached_property
    def column_labels(self) -> np.ndarray:
        iu, iv = self._axes()
        return np.column_stack([self.pair.grid_u.points[iu], self.pair.grid_v.points[iv]])

    @cached_property
    def matrix(self) -> np.ndarray:
        iu, iv = self._axes()
        phi_u, phi_v = self.pair.phi_u, self.pair.phi_v
        cols = phi_u[:, None, iu] * phi_v[None, :, iv]
        return cols.reshape(phi_u.shape[0] * phi_v.shape[0], self.size)


def kron_dictionary(pair: DictionaryPair, prune: bool = True) -> KronDictionary:
    """Full 2-D dictionary over the grid product.

    With ``prune`` (the default) cells that are not ``in_unit_disk`` are
    dropped; the boundary itself is kept.  Nothing of size (n x Mu Mv) is
    formed.
    """
    uu, vv = np.meshgrid(pair.grid_u.points, pair.grid_v.points, indexing="ij")
    keep = in_unit_disk(uu, vv) if prune else np.ones(uu.shape, dtype=bool)
    return KronDictionary(pair=pair, cells=np.flatnonzero(keep))


def kron_factorization_check(phi_u: np.ndarray, phi_v: np.ndarray) -> float:
    """Max-abs deviation of (Phi_u kron I)(I kron Phi_v) from Phi_u kron Phi_v."""
    ny = phi_v.shape[0]
    mu = phi_u.shape[1]
    lhs = np.kron(phi_u, np.eye(ny)) @ np.kron(np.eye(mu), phi_v)
    rhs = np.kron(phi_u, phi_v)
    return float(np.max(np.abs(lhs - rhs)))
