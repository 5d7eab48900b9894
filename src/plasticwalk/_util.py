"""Small shared numerics helpers."""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .mat2 import _power, unitarity_defect

# Largest unitarity defect a walk power W^n may carry.  Squaring adds about 5e-16 of
# defect per step (measured), so this admits about 2e12 steps; by 1e16 steps the
# power is noise, and by 1e50 it overflows.
POWER_TOL = 1e-3

# Most k-points a k-grid command holds its 2x2 stacks for at once.  Measured on 256^2:
# the peak traced memory of an evolution is 1.7x the field's bytes at 2**12 k-points a
# tile (3.9x at 2**14), and 512^2 x 1000 steps is no slower than with larger tiles.
K_BLOCK = 2 ** 12


def k_tiles(kx, ky):
    """(index into the grid, kx tile, ky tile) for each tile of the momentum grid kx x ky.

    Factors kx (nx, 1) and ky (1, ny) are sliced along their own axes into tiles of whole
    kx rows, or of one row's ky columns when a row alone is longer than ``K_BLOCK``.  Any
    other shape (scalars, 1-D momentum lists) is one tile."""
    kx, ky = np.asarray(kx, dtype=np.float64), np.asarray(ky, dtype=np.float64)
    if not (kx.ndim == ky.ndim == 2 and kx.shape[1] == ky.shape[0] == 1):
        return [(..., kx, ky)]
    nx, ny = kx.shape[0], ky.shape[1]
    rows, cols = max(1, K_BLOCK // ny), min(ny, K_BLOCK)
    return (((r, c), kx[r], ky[:, c])
            for r in (slice(i, i + rows) for i in range(0, nx, rows))
            for c in (slice(j, j + cols) for j in range(0, ny, cols)))


def check_unitary(m, what: str, tol: float) -> NDArray[np.complex128]:
    """``m`` as a complex array, if every 2x2 slice is unitary to ``tol``."""
    m = np.asarray(m, dtype=np.complex128)
    defect = float(np.max(unitarity_defect(m)))
    if not defect <= tol:  # a NaN defect fails too
        raise ValueError(f"{what} is not unitary to {tol:g} (defect {defect:.3e})")
    return m


def stack_power(m: NDArray[np.complex128], n: int) -> NDArray[np.complex128]:
    """n-th matrix power over the trailing (2, 2) axes, n >= 0, by squaring.

    Squaring, not the closed-form U(2) power e^{in alpha}(cos n beta - i sin n
    beta n.sigma): against an extended-precision reference the closed form is
    about five times less accurate at every n.
    """
    if n < 0:
        raise ValueError("negative powers not supported")
    return _power(m, n)


def flat2(m: NDArray[np.complex128]) -> list[float]:
    """A 2x2 matrix as row-major (re, im) float pairs, the JSON matrix layout."""
    return [float(x) for entry in np.asarray(m).reshape(-1) for x in (entry.real, entry.imag)]
