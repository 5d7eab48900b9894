"""Dense 2x2 complex linear algebra in closed form.

Everything in this package lives in the space of 2x2 complex matrices:
coins, shift symbols, walk operators, Hamiltonian symbols, transport
matrices.  This module provides the shared primitives as broadcast-aware
closed forms over numpy arrays of shape (..., 2, 2), so k-grid sweeps
stay vectorized.  Products and norms are written as entry formulas on
whole arrays: numpy's gufunc matmul on a stack of 2x2 matrices costs
about ten times as much.  A single (2, 2) matrix goes through the same
formulas on Python complex scalars, which skips numpy's per-call cost.

Rotation convention, fixed once for the whole package:

    rot(m, w) = exp(-i w sigma_m / 2)

All tolerances are absolute; default 1e-12 for algebraic identities and
1e-10 for decomposition preconditions.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "ID2",
    "SX",
    "SY",
    "SZ",
    "pauli",
    "rot",
    "dag",
    "det2",
    "mul2",
    "diag_mul",
    "op_norm",
    "unitarity_defect",
    "eigvals2",
    "exp_herm",
    "is_unitary",
    "is_hermitian",
]

ID2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

_PAULI = {"x": SX, "y": SY, "z": SZ}


def pauli(axis: str) -> NDArray[np.complex128]:
    """Return sigma_x, sigma_y or sigma_z (a fresh copy)."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None


def rot(axis: str, angle) -> NDArray[np.complex128]:
    """SU(2) rotation exp(-i angle sigma_axis / 2).

    Parameters
    ----------
    axis : {'x', 'y', 'z'}
    angle : float or array_like
        Rotation angle(s) in radians; broadcasts to output shape
        ``angle.shape + (2, 2)``.
    """
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    w = np.asarray(angle, dtype=np.float64)
    c = np.cos(w / 2.0).astype(np.complex128)
    s = np.sin(w / 2.0).astype(np.complex128)
    out = np.zeros(w.shape + (2, 2), dtype=np.complex128)
    if axis == "z":
        out[..., 0, 0] = c - 1j * s
        out[..., 1, 1] = c + 1j * s
    elif axis == "y":
        out[..., 0, 0] = c
        out[..., 0, 1] = -s
        out[..., 1, 0] = s
        out[..., 1, 1] = c
    else:
        out[..., 0, 0] = c
        out[..., 0, 1] = -1j * s
        out[..., 1, 0] = -1j * s
        out[..., 1, 1] = c
    return out


def dag(m: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Conjugate transpose over the trailing two axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def det2(m: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Determinant of a (..., 2, 2) stack."""
    m = np.asarray(m)
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _entries(m):
    """The four entries (m00, m01, m10, m11) of a (..., 2, 2) stack.

    A single (2, 2) matrix gives Python complex scalars, a stack gives
    array views.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim == 2:
        (a, b), (c, d) = m.tolist()
        return a, b, c, d
    return m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]


def _from_entries(a, b, c, d) -> NDArray[np.complex128]:
    """The (..., 2, 2) stack [[a, b], [c, d]]; the entries broadcast."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    out = np.empty(a.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = c
    out[..., 1, 1] = d
    return out


def _mul(x: tuple, y: tuple) -> tuple:
    """Entries of the product of two matrices given by their entries."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def mul2(x, y) -> NDArray[np.complex128]:
    """Matrix product x @ y of two broadcastable (..., 2, 2) stacks."""
    return _from_entries(*_mul(_entries(x), _entries(y)))


def _power(m, n: int) -> NDArray[np.complex128]:
    """m^n over the trailing (2, 2) axes for n >= 0, by repeated squaring."""
    m = np.asarray(m, dtype=np.complex128)
    out, base = None, _entries(m)
    while n > 0:
        if n & 1:
            out = base if out is None else _mul(out, base)
        n >>= 1
        if n:
            base = _mul(base, base)
    if out is None:
        return np.broadcast_to(ID2, m.shape).copy()
    return _from_entries(*out)


def diag_mul(e, m) -> NDArray[np.complex128]:
    """diag(e, conj(e)) @ m, the form of every shift symbol and shift word.

    The diagonal only scales the rows of m; ``e`` broadcasts against the
    stack axes of m.
    """
    e = np.asarray(e, dtype=np.complex128)
    return np.stack([e, e.conj()], axis=-1)[..., None] * m


def _gram(a, b, c, d):
    """(p, r, q): the entries [[p, q], [q*, r]] of M^dag M for M = [[a, b], [c, d]]."""
    p = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
    r = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
    q = a.conjugate() * b + c.conjugate() * d
    return p, r, q


def _radius(p, r, q):
    """sqrt(((p - r)/2)^2 + |q|^2): half the eigenvalue gap of [[p, q], [q*, r]]."""
    h = 0.5 * (p - r)
    return (h * h + q.real * q.real + q.imag * q.imag) ** 0.5


def op_norm(m: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Largest singular value, via the closed-form 2x2 SVD.

    ||M||^2 is the larger eigenvalue of the Hermitian matrix M^dag M,
    written as mean + sqrt(((p - r)/2)^2 + |q|^2) so the discriminant is
    a sum of nonnegative terms (no cancellation when the two singular
    values are close).
    """
    p, r, q = _gram(*_entries(m))
    lam = 0.5 * (p + r) + _radius(p, r, q)
    return np.sqrt(np.maximum(lam, 0.0))


def unitarity_defect(m: NDArray[np.complex128]) -> NDArray[np.float64]:
    """||M^dag M - I||, the distance of each slice from U(2).

    M^dag M - I is Hermitian, so its norm is its largest eigenvalue in
    modulus: |(p + r)/2 - 1| + sqrt(((p - r)/2)^2 + |q|^2).
    """
    p, r, q = _gram(*_entries(m))
    return abs(0.5 * (p + r) - 1.0) + _radius(p, r, q)


def eigvals2(m: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Both eigenvalues of a (..., 2, 2) stack, by the quadratic formula.

    Returns shape (..., 2).  No eigenvectors.
    """
    m = np.asarray(m, dtype=np.complex128)
    half_tr = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    disc = np.sqrt(half_tr * half_tr - det2(m) + 0j)
    return np.stack([half_tr + disc, half_tr - disc], axis=-1)


def exp_herm(h: NDArray[np.complex128], t) -> NDArray[np.complex128]:
    """exp(-i H t) for Hermitian H, via the Pauli decomposition.

    H = h0 I + h . sigma gives
    exp(-i H t) = e^{-i h0 t} (cos(|h| t) I - i sin(|h| t) hhat . sigma),
    with the |h| = 0 case handled by the identity branch.

    Accepts a (..., 2, 2) stack and scalar or broadcastable ``t``.
    Raises ValueError if any slice deviates from Hermiticity by more
    than 1e-10 in operator norm.
    """
    h = np.asarray(h, dtype=np.complex128)
    herm_defect = op_norm(h - dag(h))
    if np.any(herm_defect > 1e-10):
        raise ValueError(
            f"exp_herm requires Hermitian input; max deviation {float(np.max(herm_defect)):.3e}"
        )
    t = np.asarray(t, dtype=np.float64)
    h0 = 0.5 * (h[..., 0, 0] + h[..., 1, 1]).real
    hx = 0.5 * (h[..., 0, 1] + h[..., 1, 0]).real
    hy = 0.5 * (h[..., 1, 0] - h[..., 0, 1]).imag
    hz = 0.5 * (h[..., 0, 0] - h[..., 1, 1]).real
    r = np.sqrt(hx * hx + hy * hy + hz * hz)

    phase = np.exp(-1j * h0 * t)
    c = np.cos(r * t)
    # sin(r t)/r, finite at r = 0
    sinc = np.where(r > 0.0, np.sin(r * t) / np.where(r > 0.0, r, 1.0), t)

    out = np.zeros(np.broadcast(phase, c).shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = phase * (c - 1j * sinc * hz)
    out[..., 1, 1] = phase * (c + 1j * sinc * hz)
    out[..., 0, 1] = phase * (-1j * sinc * (hx - 1j * hy))
    out[..., 1, 0] = phase * (-1j * sinc * (hx + 1j * hy))
    return out


def is_unitary(m: NDArray[np.complex128], tol: float = 1e-10) -> bool:
    """True when every slice satisfies M^dag M = I within tol."""
    return bool(np.all(unitarity_defect(m) <= tol))


def is_hermitian(m: NDArray[np.complex128], tol: float = 1e-10) -> bool:
    """True when every slice satisfies M = M^dag within tol."""
    m = np.asarray(m, dtype=np.complex128)
    return bool(np.all(op_norm(m - dag(m)) <= tol))
