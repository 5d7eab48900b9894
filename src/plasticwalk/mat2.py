"""Dense 2x2 complex linear algebra in closed form.

Everything in this package lives in the space of 2x2 complex matrices:
coins, shift symbols, walk operators, Hamiltonian symbols, transport
matrices.  This module provides the shared primitives as broadcast-aware
closed forms over numpy arrays of shape (..., 2, 2), so k-grid sweeps
stay vectorized.  Products and norms are written as entry formulas on
whole arrays: numpy's gufunc matmul on a stack of 2x2 matrices costs
about ten times as much.

Entry planes: the private kernels (``_mul``, ``_power``, ``_norm``, ``_defect``)
take a matrix [[a, b], [c, d]] as the tuple (a, b, c, d) of four arrays that
broadcast; the stack functions run the same kernels, bit for bit.

Two-plane form: a matrix g [[a, b], [-b*, a*]], a scalar phase g times an SU(2)
part, is the tuple (g, a, b).  Every coin e^{i delta} R_z R_y R_z, every shift
diag(e^{ik}, e^{-ik}) times a coin, and so the walk symbol W(k) and its powers
have this form, and products keep it.  The k-space tile loops carry W(k) so:
``_mul_su2``, the squaring (a^2 - |b|^2, 2 Re(a) b) in ``_power``, the defect
``_defect`` (M^dag M = |g|^2 (|a|^2 + |b|^2) I exactly, so
||M^dag M - I|| = ||g|^2 (|a|^2 + |b|^2) - 1|) and the eigenphases
``_phases_su2`` work on half the arrays of four entry planes, and
``_entries_su2`` expands the four entries where a general matrix meets them.

Rotation convention, fixed once for the whole package:

    rot(m, w) = exp(-i w sigma_m / 2)

All tolerances are absolute; default 1e-12 for algebraic identities and
1e-10 for decomposition preconditions.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "ID2",
    "SX",
    "SY",
    "SZ",
    "rot",
    "dag",
    "diag_mul",
    "op_norm",
    "eigvals2",
    "exp_herm",
]

ID2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def rot(axis: str, angle) -> NDArray[np.complex128]:
    """SU(2) rotation exp(-i angle sigma_axis / 2).

    Parameters
    ----------
    axis : {'x', 'y', 'z'}
    angle : float or array_like
        Rotation angle(s) in radians; broadcasts to output shape
        ``angle.shape + (2, 2)``.
    """
    if axis not in ("x", "y", "z"):
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


def _entries(m):
    """The four entries (m00, m01, m10, m11) of a (..., 2, 2) stack, as array views."""
    m = np.asarray(m, dtype=np.complex128)
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


def _mul_su2(x: tuple, y: tuple) -> tuple:
    """The two-plane form of the product of two matrices in the two-plane form."""
    g, a, b = x
    h, e, f = y
    p = a * e
    p -= b * f.conjugate()
    q = a * f
    q += b * e.conjugate()
    return g * h, p, q


def _square_su2(x: tuple) -> tuple:
    """The two-plane form (g^2, a^2 - |b|^2, 2 Re(a) b) of the square of x = (g, a, b)."""
    g, a, b = x
    twice_re = a.conjugate()
    twice_re += a
    twice_re *= b
    norm_b = b.conjugate()
    norm_b *= b
    square = a * a
    square -= norm_b
    return g * g, square, twice_re


def _power(x: tuple, n: int) -> tuple:
    """M^n for n >= 0 by repeated squaring, M given by its four entries x or in the
    two-plane form x = (g, a, b); M^n comes in the same form."""
    if n < 0:
        raise ValueError("negative powers not supported")
    su2 = len(x) == 3
    mul, square = (_mul_su2, _square_su2) if su2 else (_mul, lambda m: _mul(m, m))
    out, base = None, x
    while n > 0:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if n:
            base = square(base)
    if out is None:
        one = np.ones(np.broadcast(*x).shape, dtype=np.complex128)
        return (1.0 + 0j, one, 0 * one) if su2 else (one, 0 * one, 0 * one, one)
    return out


def _entries_su2(x: tuple) -> tuple:
    """The four entries (g a, g b, -g b*, g a*) of the matrix x = (g, a, b)."""
    g, a, b = x
    return g * a, g * b, -g * b.conjugate(), g * a.conjugate()


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


def _norm(x: tuple):
    """Largest singular value of the matrix with entries x (see :func:`op_norm`)."""
    p, r, q = _gram(*x)
    lam = 0.5 * (p + r) + _radius(p, r, q)
    return np.sqrt(np.maximum(lam, 0.0))


def _defect(x: tuple):
    """||M^dag M - I|| of the matrix given by its four entries x, |(p + r)/2 - 1| +
    sqrt(((p - r)/2)^2 + |q|^2) for M^dag M = [[p, q], [q*, r]] (the norm of a Hermitian
    matrix), or in the two-plane form x = (g, a, b): ||g|^2 (|a|^2 + |b|^2) - 1|."""
    if len(x) == 4:
        p, r, q = _gram(*x)
        return abs(0.5 * (p + r) - 1.0) + _radius(p, r, q)
    g, a, b = x
    s = a.real * a.real
    s += a.imag * a.imag
    s += b.real * b.real
    s += b.imag * b.imag
    s *= g.real * g.real + g.imag * g.imag
    s -= 1.0
    return abs(s)


def _wrap(p):
    """The phases of the float array p, in [-2 pi, 2 pi], as the same angles in (-pi, pi],
    in place; every phase within 1e-15 of -pi becomes pi exactly.  Each shift by 2 pi
    is exact."""
    p = np.asarray(p)
    np.subtract(p, 2.0 * np.pi, out=p, where=p > np.pi)
    np.add(p, 2.0 * np.pi, out=p, where=p < -np.pi - 1e-15)
    np.copyto(p, np.pi, where=p <= -np.pi + 1e-15)
    return p


def _phases_su2(x: tuple) -> tuple:
    """The eigenphases (lower, upper) of the matrix x = (g, a, b), in (-pi, pi].

    Its eigenvalues are g (Re a +- i sqrt(Im(a)^2 + |b|^2)) when |a|^2 + |b|^2 = 1, so
    the phases are arg g +- atan2(sqrt(Im(a)^2 + |b|^2), Re a), each wrapped by
    :func:`_wrap`.
    """
    g, a, b = x
    half_gap = np.arctan2(np.sqrt(a.imag * a.imag + b.real * b.real + b.imag * b.imag), a.real)
    arg = math.atan2(g.imag, g.real)
    p1, p2 = _wrap(arg + half_gap), _wrap(arg - half_gap)
    return np.minimum(p1, p2), np.maximum(p1, p2)


def op_norm(m: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Largest singular value, via the closed-form 2x2 SVD.

    ||M||^2 is the larger eigenvalue of the Hermitian matrix M^dag M,
    written as mean + sqrt(((p - r)/2)^2 + |q|^2) so the discriminant is
    a sum of nonnegative terms (no cancellation when the two singular
    values are close).
    """
    return _norm(_entries(m))


def eigvals2(m: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Both eigenvalues of a (..., 2, 2) stack, by the quadratic formula.

    Returns shape (..., 2).  No eigenvectors.  A single matrix runs as 0-d arrays.
    """
    m = np.asarray(m, dtype=np.complex128)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    half_tr = 0.5 * (a + d)
    disc = np.sqrt(half_tr * half_tr - (a * d - b * c) + 0j)
    return np.stack((half_tr + disc, half_tr - disc), axis=-1)


def exp_herm(h: NDArray[np.complex128], t, what: str = "exp_herm input") -> NDArray[np.complex128]:
    """exp(-i H t) for Hermitian H, via the Pauli decomposition.

    H = h0 I + h . sigma gives
    exp(-i H t) = e^{-i h0 t} (cos(|h| t) I - i sin(|h| t) hhat . sigma),
    with the |h| = 0 case handled by the identity branch.

    Accepts a (..., 2, 2) stack and scalar or broadcastable ``t``.
    Raises ValueError, naming H ``what``, if any slice deviates from
    Hermiticity by more than 1e-10 in operator norm.
    """
    h = np.asarray(h, dtype=np.complex128)
    herm_defect = op_norm(h - dag(h))
    if not np.all(herm_defect <= 1e-10):  # a NaN defect fails too
        raise ValueError(f"{what} is not Hermitian to 1e-10 "
                         f"(defect {float(np.max(herm_defect)):.3e})")
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

