"""Dense 2x2 complex linear algebra in closed form.

Everything in this package lives in the space of 2x2 complex matrices:
coins, shift symbols, walk operators, Hamiltonian symbols, transport
matrices.  This module provides the shared primitives as broadcast-aware
closed forms over numpy arrays of shape (..., 2, 2), so k-grid sweeps
stay vectorized.  Products and norms are written as entry formulas on
whole arrays: numpy's gufunc matmul on a stack of 2x2 matrices costs
about ten times as much.

Two-plane form: a matrix g [[a, b], [-b*, a*]], a scalar phase g times an SU(2)
part, is the tuple (g, a, b).  Every coin e^{i delta} R_z R_y R_z, every shift
diag(e^{ik}, e^{-ik}) times a coin, and so the walk symbol W(k), its powers and
the evolution e^{-iHt} of a Hermitian H have this form, and products keep it.
Products and powers are taken only in it: ``_mul_su2`` and the squaring
(a^2 - |b|^2, 2 Re(a) b) of ``_power``, on half the arrays of four entry planes.
``_power`` takes a list of step counts, ``[n]`` for one power or a count for each
leading row of a stack, as ``converge`` stacks the eps of its ladder: one loop over the
bits of the counts squares the rows together, and each row multiplies its own slice of
the square into its own product, the power its count alone gives, bit for bit.
``exp_herm`` returns its result so, and the k-space tile loops carry W(k) and
its powers so, with the defect ``_defect`` (M^dag M = |g|^2 (|a|^2 + |b|^2) I
exactly, so ||M^dag M - I|| = ||g|^2 (|a|^2 + |b|^2) - 1|) and the eigenphases
``_phases_su2``.  Every unitarity check of the package takes this form.

Entry planes: a general matrix [[a, b], [c, d]] is the tuple (a, b, c, d) of four arrays
of one shape.  Norms of general matrices run on them (``_norm``, its Gram sums taken in
place); ``_entries``, the one reader of a stack's entries, views a (..., 2, 2) stack so
(``exp_herm`` checks Hermiticity on its planes), and ``_entries_su2`` expands the
two-plane form to them, as ``converge`` does its target e^{-iHt} once a tile for the
distinct horizons of a group of eps, and ``lattice.step`` its coins.  The difference of
two evolutions is formed where it is normed: ``_norm_diff`` takes W^n in the two-plane
form and the target's entry planes and forms the four entries of W^n - target in place,
so W^n is never expanded.

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
    "SY",
    "SZ",
    "rot",
    "op_norm",
    "eigvals2",
    "exp_herm",
]

SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def rot(axis: str, angle) -> NDArray[np.complex128]:
    """SU(2) rotation exp(-i angle sigma_axis / 2) about the y or the z axis, the two
    axes of every coin.

    Parameters
    ----------
    axis : {'y', 'z'}
    angle : float or array_like
        Rotation angle(s) in radians; broadcasts to output shape
        ``angle.shape + (2, 2)``.
    """
    if axis not in ("y", "z"):
        raise ValueError(f"axis must be 'y' or 'z', got {axis!r}")
    w = np.asarray(angle, dtype=np.float64)
    c = np.cos(w / 2.0).astype(np.complex128)
    s = np.sin(w / 2.0).astype(np.complex128)
    out = np.zeros(w.shape + (2, 2), dtype=np.complex128)
    if axis == "z":
        out[..., 0, 0] = c - 1j * s
        out[..., 1, 1] = c + 1j * s
    else:
        out[..., 0, 0] = c
        out[..., 0, 1] = -s
        out[..., 1, 0] = s
        out[..., 1, 1] = c
    return out


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


def _mul_su2(x: tuple, y: tuple) -> tuple:
    """The two-plane form of the product of two matrices in the two-plane form.

    A complex product whose right operand is a temporary is taken by ``np.multiply``:
    numpy evaluates ``x * temporary`` of 256 KiB or more (2**14 complex points) as
    ``temporary *= x``, and its complex product is not commutative bit for bit, so the
    operator would make the last bits depend on the array size."""
    g, a, b = x
    h, e, f = y
    p = a * e
    p -= np.multiply(b, f.conjugate())
    q = a * f
    q += np.multiply(b, e.conjugate())
    return g * h, p, q


def _square_su2(x: tuple) -> tuple:
    """The two-plane form (g^2, a^2 - |b|^2, 2 Re(a) b) of the square of x = (g, a, b).

    |b|^2 is taken by ``np.multiply``, not in place: numpy evaluates ``b* *= b`` of a
    one-element array on a scalar path that leaves its imaginary part exactly 0, where
    its loop leaves about 1e-17, so a one-point tile would differ from a longer one."""
    g, a, b = x
    twice_re = a.conjugate()
    twice_re += a
    twice_re *= b
    norm_b = np.multiply(b.conjugate(), b)
    square = a * a
    square -= norm_b
    return g * g, square, twice_re


def _rows(x: tuple, s) -> tuple:
    """The rows ``s`` of x = (g, a, b), each array indexed along its leading axis; a
    scalar g, the phase of every row, stays as it is."""
    return tuple(p[s] if isinstance(p, np.ndarray) else p for p in x)


def _power(x: tuple, counts: list) -> tuple:
    """M^n by repeated squaring, M and M^n in the two-plane form (g, a, b), for each
    count n of ``counts``: ascending step counts >= 1, one a leading row of a and b, or
    ``[n]`` for planes with no row axis.

    One loop runs over the bits of the counts.  At each bit a row whose count has it
    multiplies the current square, its own one-row slice, into its product, or takes the
    slice as its first factor; so each row is the power its count alone gives, bit for
    bit.  The rows whose counts are spent leave the squaring as a leading slice.  The
    phase g is one numpy scalar for every row, so each row's phase is its own chain of
    scalar products (numpy's scalar ``*`` and its array loop round complex products
    differently); the phases become one complex array of shape (rows, 1, ...) at the end,
    and a single row comes back as it is.
    """
    if counts[0] < 1:
        raise ValueError("a step count must be at least 1")
    rows, first, bit = len(counts), 0, 1
    acc = [None] * rows
    while True:
        for i in range(first, rows):
            if counts[i] & bit:
                part = x if rows == 1 else _rows(x, slice(i - first, i - first + 1))
                acc[i] = part if acc[i] is None else _mul_su2(acc[i], part)
        bit <<= 1
        if counts[first] < bit:  # the counts ascend: a leading slice of rows is spent
            spent = sum(c < bit for c in counts)
            if spent == rows:
                break
            x, first = _rows(x, slice(spent - first, None)), spent
        x = _square_su2(x)
    if rows == 1:
        return acc[0]
    g, a, b = zip(*acc)
    return np.reshape(g, (rows,) + (1,) * (a[0].ndim - 1)), np.concatenate(a), np.concatenate(b)


def _entries_su2(x: tuple) -> tuple:
    """The four entries (g a, g b, -g b*, g a*) of the matrix x = (g, a, b); the products
    with a conjugate are taken by ``np.multiply``, as in :func:`_mul_su2`."""
    g, a, b = x
    return g * a, g * b, np.multiply(-g, b.conjugate()), np.multiply(g, a.conjugate())


def _squares(*parts):
    """parts[0]^2 + parts[1]^2 + ..., summed left to right in place."""
    total = parts[0] * parts[0]
    for x in parts[1:]:
        total += x * x
    return total


def _gram(a, b, c, d):
    """(p, r, q): the entries [[p, q], [q*, r]] of M^dag M for M = [[a, b], [c, d]], the
    four planes of one shape.  Its complex products are ufunc calls, the loop numpy runs
    at any size: a matrix alone (0-d planes, whose conjugates are numpy scalars) would
    otherwise take numpy's scalar ``*``, which can round them differently."""
    q = np.multiply(a.conjugate(), b)
    q += np.multiply(c.conjugate(), d)
    return _squares(a.real, a.imag, c.real, c.imag), _squares(b.real, b.imag, d.real, d.imag), q


def _radius(p, r, q):
    """sqrt(((p - r)/2)^2 + |q|^2): half the eigenvalue gap of [[p, q], [q*, r]]."""
    h = p - r
    h *= 0.5
    h = _squares(h, q.real, q.imag)
    h **= 0.5
    return h


def _norm(x):
    """Largest singular value of the matrix with entries x (see :func:`op_norm`)."""
    p, r, q = _gram(*x)
    radius = _radius(p, r, q)
    p += r
    p *= 0.5
    p += radius
    return np.sqrt(np.maximum(p, 0.0))


def _norm_diff(x: tuple, target: tuple):
    """||M - T|| for M = (g, a, b) in the two-plane form and T by its four entry planes,
    which broadcast against those of M: the entries of M (:func:`_entries_su2`) less
    those of T, in place."""
    diff = list(_entries_su2(x))
    for i, t in enumerate(target):
        diff[i] -= t
    return _norm(diff)


def _defect(x: tuple):
    """||M^dag M - I|| of the matrix x = (g, a, b) in the two-plane form: M^dag M =
    |g|^2 (|a|^2 + |b|^2) I exactly, so it is ||g|^2 (|a|^2 + |b|^2) - 1|."""
    g, a, b = x
    s = _squares(a.real, a.imag, b.real, b.imag)
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
    half_gap = np.arctan2(np.sqrt(_squares(a.imag, b.real, b.imag)), a.real)
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
    a, b, c, d = _entries(m)
    half_tr = 0.5 * (a + d)
    disc = np.sqrt(half_tr * half_tr - (a * d - b * c) + 0j)
    return np.stack((half_tr + disc, half_tr - disc), axis=-1)


def exp_herm(h: NDArray[np.complex128], t, what: str = "exp_herm input") -> tuple:
    """exp(-i H t) for Hermitian H, via the Pauli decomposition, in the two-plane form.

    H = h0 I + h . sigma gives
    exp(-i H t) = e^{-i h0 t} (cos(|h| t) I - i sin(|h| t) hhat . sigma),
    returned as the tuple (e^{-i h0 t}, cos(|h| t) - i sinc hz, -i sinc (hx - i hy))
    with sinc = sin(|h| t)/|h|, which is t at |h| = 0.

    Accepts a (..., 2, 2) stack and scalar or broadcastable ``t``.
    Raises ValueError, naming H ``what``, if any slice deviates from Hermiticity by
    more than 1e-10 in operator norm, ``_norm`` of the entry planes of H - H^dag.
    """
    h00, h01, h10, h11 = _entries(h)
    herm_defect = _norm((h00 - h00.conjugate(), h01 - h10.conjugate(),
                         h10 - h01.conjugate(), h11 - h11.conjugate()))
    if not np.all(herm_defect <= 1e-10):  # a NaN defect fails too
        raise ValueError(f"{what} is not Hermitian to 1e-10 "
                         f"(defect {float(np.max(herm_defect)):.3e})")
    t = np.asarray(t, dtype=np.float64)
    h0 = 0.5 * (h00 + h11).real
    hx = 0.5 * (h01 + h10).real
    hy = 0.5 * (h10 - h01).imag
    hz = 0.5 * (h00 - h11).real
    r = np.sqrt(hx * hx + hy * hy + hz * hz)
    # sin(r t)/r, finite at r = 0
    sinc = np.where(r > 0.0, np.sin(r * t) / np.where(r > 0.0, r, 1.0), t)
    return np.exp(-1j * h0 * t), np.cos(r * t) - 1j * sinc * hz, -1j * sinc * (hx - 1j * hy)
