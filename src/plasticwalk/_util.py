"""Small shared numerics helpers."""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray


def stack_power(m: NDArray[np.complex128], n: int) -> NDArray[np.complex128]:
    """n-th matrix power over the trailing (2, 2) axes, n >= 0, by squaring."""
    if n < 0:
        raise ValueError("negative powers not supported")
    out = np.broadcast_to(np.eye(2, dtype=np.complex128), np.asarray(m).shape).copy()
    base = np.asarray(m, dtype=np.complex128).copy()
    while n > 0:
        if n & 1:
            out = out @ base
        base = base @ base
        n >>= 1
    return out


def flat2(m: NDArray[np.complex128]) -> list[float]:
    """A 2x2 matrix as row-major (re, im) float pairs, the JSON matrix layout."""
    return [float(x) for entry in np.asarray(m).reshape(-1) for x in (entry.real, entry.imag)]
