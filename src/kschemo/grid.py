"""Uniform cell-centered meshes on boxes, field reductions and snapshot IO.

Fields are plain numpy arrays with one value per cell center, shape
``(nx,)`` in 1D and ``(nx, ny)`` in 2D.  A batch of fields, one per
parameter point, stacks them along a leading axis, ``(B, *grid.shape)``;
the operators and solvers act on the trailing ``grid.dim`` axes.
Homogeneous Neumann boundaries are realized by the operators through zero
boundary fluxes (equivalent to one layer of reflected ghost cells); the grid
itself only carries geometry.

Reductions are one vectorised pass of numpy's pairwise summation: blocks of
128 terms, each summed in eight interleaved running sums, joined pairwise.
Every term then passes through at most m ~ log2(n/128) + 26 additions, so
the error is at most gamma_m * sum|x_i| (Higham, SIAM J. Sci. Comput. 14,
1993), about 4e-15 relative for a nonnegative 512^2 field: far inside the
1e-9 mass-identity and consistency checks.  The summation order depends only
on the array's shape and layout, so a reduction of the same field is bitwise
reproducible.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

from .params import require

SNAPSHOT_MAGIC = b"KSCHSNP1"
_HEADER_FMT = "<8sIII4xd"  # magic, dim, nx, ny (0 in 1D), pad, time
assert struct.calcsize(_HEADER_FMT) == 32

# fewest cells per axis of a Grid, and so of a snapshot
_MIN_CELLS = 4


def _constant(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float array, for a scalar operand of ufuncs
    that a march calls every step: numpy converts a Python float operand on
    each call (about 0.3 us of a 1 us ufunc on 256 cells), and a 0-d array
    gives the same bits."""
    array = np.array(float(value))
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered box mesh in 1 or 2 dimensions.

    extent and cells are per-axis tuples; spacing h = extent / cells.
    """

    extent: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.extent) != len(self.cells):
            raise ValueError("extent and cells must have the same length")
        if len(self.cells) not in (1, 2):
            raise ValueError(f"only 1D/2D grids supported, got dim {len(self.cells)}")
        for axis, L in enumerate(self.extent):
            require(math.isfinite(L) and L > 0, "extent", "> 0", L, axis)
        for axis, n in enumerate(self.cells):
            whole = isinstance(n, numbers.Integral)
            require(whole and n >= _MIN_CELLS, "cells", f"integer >= {_MIN_CELLS}", n, axis)

    @property
    def dim(self) -> int:
        return len(self.cells)

    @functools.cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extent, self.cells))

    @functools.cached_property
    def field_axes(self) -> tuple[int, ...]:
        """Axes of one field within a batch ``(B, *shape)``: the trailing dim."""
        return tuple(range(-self.dim, 0))

    @functools.cached_property
    def faces(self) -> tuple[tuple, ...]:
        """Per axis, (h, the cells left of each interior face, the cells
        right of it), the two as indices into a batch ``(B, *shape)``.  h is
        a read-only 0-d array: numpy divides by it with the bits of the float
        and without converting a Python scalar on every call."""
        inner = (slice(None),) * (self.dim - 1)
        return tuple(
            (_constant(h), (Ellipsis, slice(None, -1)) + inner[axis:],
             (Ellipsis, slice(1, None)) + inner[axis:])
            for axis, h in enumerate(self.h)
        )

    @property
    def measure(self) -> float:
        """Domain measure |Omega|."""
        return math.prod(self.extent)

    @functools.cached_property
    def cell_volume(self) -> float:
        return math.prod(self.h)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.cells)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def full(self, value: float) -> np.ndarray:
        return np.full(self.shape, float(value))

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.cells[axis]
        h = self.h[axis]
        return (np.arange(n) + 0.5) * h

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of cell centers, meshed in 'ij' order for 2D."""
        axes = [self.axis_centers(i) for i in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def sample(self, fn) -> np.ndarray:
        """Evaluate ``fn(*coords)`` on the cell centers."""
        return np.asarray(fn(*self.cell_centers()), dtype=float)


# depth below zero that a field may dip to and still count as nonnegative
_POSITIVITY_TOL = 1e-12


def _require_field(values, grid: Grid, name: str = "field", nonnegative: bool = False):
    """``values`` as a float array: finite, shaped like ``grid`` and, when
    ``nonnegative``, no lower than -_POSITIVITY_TOL.  ValueError names ``name``."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    if arr.shape != grid.shape:
        raise ValueError(f"{name} shape {arr.shape} does not match grid {grid.shape}")
    if nonnegative:
        lo = float(arr.min())
        if lo < -_POSITIVITY_TOL:
            raise ValueError(f"{name} dips to {lo}, below -{_POSITIVITY_TOL}")
    return arr


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Midpoint quadrature of a cell field: cell_volume * sum(values)."""
    return grid.cell_volume * float(_require_field(values, grid).sum())


def lp_norm_pow(values: np.ndarray, grid: Grid, k: float) -> float:
    """Integral of |field|^k over the domain (the L^k norm raised to k);
    FieldError ``k`` unless k is finite and >= 1."""
    require(1 <= k < math.inf, "k", "finite >= 1", k)
    powed = np.abs(_require_field(values, grid))
    if k != 1:
        powed **= k
    return grid.cell_volume * float(powed.sum())


@dataclass
class State:
    """Solution pair (cell density u, chemical signal v) at one time level."""

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0
    dt_last: float = 0.0

    def validate(self, grid: Grid) -> None:
        for name, f in (("u", self.u), ("v", self.v)):
            _require_field(f, grid, name, nonnegative=True)


def write_snapshot(path, values: np.ndarray, grid: Grid, t: float) -> None:
    """Write one field: 32-byte header then the flat little-endian f64 array."""
    arr = _require_field(values, grid)
    nx = grid.cells[0]
    ny = grid.cells[1] if grid.dim == 2 else 0
    header = struct.pack(_HEADER_FMT, SNAPSHOT_MAGIC, grid.dim, nx, ny, float(t))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_snapshot(path) -> tuple[np.ndarray, float]:
    """Read a field snapshot; returns (values, time).

    A header that no Grid could have written (dim not 1 or 2, ny set in 1D,
    an axis below _MIN_CELLS cells), a short payload or bytes after it
    raise ValueError naming ``path``.
    """
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32:
            raise ValueError(f"{path}: truncated snapshot header")
        magic, dim, nx, ny, t = struct.unpack(_HEADER_FMT, header)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: bad snapshot magic {magic!r}")
        if dim not in (1, 2):
            raise ValueError(f"{path}: snapshot dim {dim} is not 1 or 2")
        if dim == 1 and ny != 0:
            raise ValueError(f"{path}: 1D snapshot with ny = {ny}, not 0")
        shape = (nx,) if dim == 1 else (nx, ny)
        if min(shape) < _MIN_CELLS:
            raise ValueError(f"{path}: snapshot shape {shape} has an axis below {_MIN_CELLS} cells")
        # the payload the header declares is weighed against the bytes left
        # before any is read, so a huge header allocates nothing
        size, left = 8 * math.prod(shape), os.fstat(fh.fileno()).st_size - len(header)
        if size > left:
            raise ValueError(f"{path}: truncated snapshot payload")
        if size < left:
            raise ValueError(f"{path}: bytes after the snapshot payload")
        values = np.frombuffer(fh.read(size), dtype="<f8").astype(float).reshape(shape)
    return values, t


def field_to_csv(path, values: np.ndarray, grid: Grid) -> None:
    """Plain-text export of a field, one cell per row: x[,y],value."""
    arr = _require_field(values, grid)
    coords = grid.cell_centers()
    with open(path, "w") as fh:
        if grid.dim == 1:
            fh.write("x,value\n")
            for x, val in zip(coords[0], arr):
                fh.write(f"{x:.17g},{val:.17g}\n")
        else:
            fh.write("x,y,value\n")
            X, Y = coords
            for x, y, val in zip(X.ravel(), Y.ravel(), arr.ravel()):
                fh.write(f"{x:.17g},{y:.17g},{val:.17g}\n")
