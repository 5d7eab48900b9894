"""Small shared numerics helpers."""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .mat2 import _power

# Largest unitarity defect a walk power W^n may carry.  Squaring adds about 5e-16 of
# defect per step (measured), so this admits about 2e12 steps; by 1e16 steps the
# power is noise, and by 1e50 it overflows.
POWER_TOL = 1e-3


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
