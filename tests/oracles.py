"""Reference implementations that only the tests use.

They stay here as oracles for the library's closed forms: a full 2x2
eigendecomposition, the first-order expansion of W^tau, the
zeroth-order constraint functions of the plastic walk, and the gufunc
matmul forms of the elementwise 2x2 kernels (walk symbol, squaring,
operator norm, unitarity defect, Hamiltonian symbol), with an
extended-precision matrix power as the reference for both squarings.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from plasticwalk.coins import WalkConfig, coin_at, first_order_blocks, shift_symbol
from plasticwalk.mat2 import ID2, dag, eigvals2, op_norm
from plasticwalk.plastic import gamma_hat
from plasticwalk._util import stack_power


class Eig2Result(NamedTuple):
    values: NDArray[np.complex128]      # shape (2,)
    vectors: NDArray[np.complex128]     # shape (2, 2), columns are eigenvectors
    degenerate: bool                    # eigenvalues coincide within tolerance
    defective: bool                     # no independent eigenvector pair found


def eig2(m: NDArray[np.complex128], assume: str = "general",
         tol: float = 1e-10) -> Eig2Result:
    """Closed-form eigendecomposition of a single 2x2 matrix.

    Parameters
    ----------
    m : (2, 2) complex array
    assume : {'general', 'unitary', 'hermitian'}
        'hermitian' projects the eigenvalues onto the real axis,
        'unitary' onto the unit circle; both assume the corresponding
        precondition holds to ~tol.
    tol : float
        Degeneracy / defectiveness threshold.

    Returns
    -------
    Eig2Result
        Unit-norm eigenvector columns; ``m @ v = lam * v`` to 1e-12 for
        diagonalizable input.  For a degenerate scalar matrix the
        canonical basis is returned and ``degenerate`` is set.
        ``defective`` flags inputs with a double eigenvalue but only a
        one-dimensional eigenspace (e.g. a Jordan block).
    """
    if assume not in ("general", "unitary", "hermitian"):
        raise ValueError(f"unknown assume={assume!r}")
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"eig2 expects a single (2, 2) matrix, got {m.shape}")

    lam = eigvals2(m)
    if assume == "hermitian":
        lam = lam.real.astype(np.complex128)
    elif assume == "unitary":
        lam = lam / np.abs(lam)

    scale = max(float(op_norm(m)), 1.0)
    degenerate = bool(abs(lam[0] - lam[1]) <= tol * scale)

    vectors = np.empty((2, 2), dtype=np.complex128)
    defective = False
    if degenerate and op_norm(m - lam[0] * ID2) <= tol * scale:
        # scalar matrix: canonical basis, by convention
        vectors[:] = ID2
    else:
        for j in range(2):
            a = m - lam[j] * ID2
            # null vector of a singular 2x2: pick the larger row
            r0, r1 = a[0], a[1]
            row = r0 if np.linalg.norm(r0) >= np.linalg.norm(r1) else r1
            v = np.array([-row[1], row[0]], dtype=np.complex128)
            nrm = np.linalg.norm(v)
            if nrm <= tol * scale:
                v = np.array([1.0, 0.0], dtype=np.complex128)
                nrm = 1.0
            vectors[:, j] = v / nrm
        overlap = abs(np.vdot(vectors[:, 0], vectors[:, 1]))
        if degenerate and overlap > 1.0 - 1e-10:
            defective = True
    return Eig2Result(lam, vectors, degenerate, defective)


def walk_power_expansion(cfg: WalkConfig, kx, ky) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Zeroth- and first-order coefficients of W(k)^tau in eps.

    Returns (zeroth, first) with

        W^tau = zeroth + eps * first + O(eps^2)
        zeroth = (e^{i delta} A)^tau
        first  = -(i/2) zeroth A^{-1} sum_{j=0}^{tau-1} A^{-j} B A^j

    where A = A_x A_y and B = A_x B_y + B_x A_y.  Time mode only.
    """
    if cfg.mode != "time":
        raise ValueError("walk_power_expansion applies to time-mode configs only")
    ax, bx = first_order_blocks(cfg.coin_x, kx)
    ay, by = first_order_blocks(cfg.coin_y, ky)
    a = ax @ ay
    b = ax @ by + bx @ ay
    phase = np.exp(1j * cfg.delta_sum)

    a_inv = dag(a)  # A is unitary
    zeroth = stack_power(phase * a, cfg.tau)

    total = np.zeros_like(b)
    conj = b
    for _ in range(cfg.tau):
        total = total + conj
        conj = a_inv @ conj @ a
    first = -0.5j * (zeroth @ a_inv @ total)
    return zeroth, first


def zeroth_order_residual(cfg: WalkConfig) -> float:
    """|| e^{2 i delta} Gamma_0000^2 - I ||, the zeroth-order gate."""
    g0 = gamma_hat(cfg, 0, 0, 0, 0)
    return float(op_norm(np.exp(2j * cfg.delta_sum) * (g0 @ g0) - np.eye(2)))


def constraint_f2(cfg: WalkConfig, l: int = 0) -> float:
    """Root-of-unity constraint function of the zeroth-order plastic word."""
    jx, jy = cfg.coin_x, cfg.coin_y
    zx, thx, phx, zy, thy, phy = jx.zeta0, jx.theta0, jx.phi0, jy.zeta0, jy.theta0, jy.phi0
    w1 = np.cos(thx / 2.0) * np.cos(thy / 2.0)
    w2 = np.sin(thx / 2.0) * np.sin(thy / 2.0)
    c = np.cos(2.0 * np.pi * l / cfg.tau - cfg.delta_sum)
    return float(w1 * np.cos((phx + phy + zx + zy) / 2.0)
                 - w2 * np.cos((phy - phx + zx - zy) / 2.0) - c)


def walk_k_matmul(cfg: WalkConfig, kx, ky, eps: float) -> NDArray[np.complex128]:
    """W(k) = S_x(kx) C_x S_y(ky) C_y as a chain of matmuls over full shift matrices."""
    spacing = cfg.spacing(eps)
    return (shift_symbol(kx, spacing) @ coin_at(cfg.coin_x, eps)
            @ shift_symbol(ky, spacing) @ coin_at(cfg.coin_y, eps))


def stack_power_matmul(m: NDArray[np.complex128], n: int,
                       dtype=np.complex128) -> NDArray[np.complex128]:
    """n-th power over the trailing (2, 2) axes by squaring with matmul, in ``dtype``.

    With ``dtype=np.clongdouble`` (64-bit mantissa on x86-64) it is the
    extended-precision reference for the double-precision squarings.
    """
    out = np.broadcast_to(np.eye(2, dtype=dtype), np.shape(m)).copy()
    base = np.asarray(m).astype(dtype)
    while n > 0:
        if n & 1:
            out = out @ base
        base = base @ base
        n >>= 1
    return out


def op_norm_matmul(m: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Largest singular value from the matmul-built Gram matrix M^dag M."""
    g = dag(m) @ np.asarray(m, dtype=np.complex128)
    p = g[..., 0, 0].real
    r = g[..., 1, 1].real
    q = g[..., 0, 1]
    lam = 0.5 * (p + r) + np.sqrt((0.5 * (p - r)) ** 2 + np.abs(q) ** 2)
    return np.sqrt(np.maximum(lam, 0.0))


def unitarity_defect_matmul(m: NDArray[np.complex128]) -> NDArray[np.float64]:
    """||M^dag M - I|| with the product and the norm both through matmul."""
    m = np.asarray(m, dtype=np.complex128)
    return op_norm_matmul(dag(m) @ m - ID2)


def time_symbol_matmul(terms, kx, ky) -> NDArray[np.complex128]:
    """H(k) = sum of shift words diag(e^{i phase}, e^{-i phase}) @ term matrix."""
    kx = np.asarray(kx, dtype=np.float64)
    ky = np.asarray(ky, dtype=np.float64)
    shape = np.broadcast(kx, ky).shape
    out = np.zeros(shape + (2, 2), dtype=np.complex128)
    for term in terms:
        phase = term.px * kx + term.py * ky
        word = np.zeros(shape + (2, 2), dtype=np.complex128)
        word[..., 0, 0] = np.exp(1j * phase)
        word[..., 1, 1] = np.exp(-1j * phase)
        out = out + word @ term.coeff
    return out
