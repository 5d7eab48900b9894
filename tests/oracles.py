"""Reference implementations that only the tests use.

The package holds what the CLI runs; the steps of the derivation that
no command needs stay here, as oracles for the library's closed forms:

* the Fourier-space shift symbol and the first-order expansion blocks
  (A, B) of one shift-coin factor, the first-order expansion of W^tau,
  and the root-of-unity mechanism of the time limit (the constraint
  function, the eigenvalues of the zeroth-order block, the odd-tau
  obstruction);
* the zeroth-order constraint functions of the plastic walk, the
  commutator [Px, Py] of the a = b = 1/2 transport matrices, the
  cancellation of the mixed-derivative words, and the spacetime gate and
  generator in closed form;
* fields of a unit amplitude at any site and component, and plane waves of any
  spinor, beside the library's initial states;
* the real-space shift, the coin applied to every site as a (2, 2) matrix
  and one walk step chained from them (``step_chain``, the reference for
  ``lattice.step``), shift words, the componentwise DFT and evolution by a
  momentum-space symbol, the site-by-site CSV writer and the whole-table
  CSV loader, the reference for the library's row-block loader;
* the walk symbol W(k), its power and ``evolve`` as (..., 2, 2) stacks over
  the whole momentum grid at once (the shift-coin factors through
  ``diag_mul`` and ``mul2``, the power by ``mul2`` squarings), and
  ``dispersion`` and the convergence loop on them: the four-entry references
  for the library's tile-at-a-time loops on the two-plane form;
* the same whole-grid commands on the library's two-plane kernels (W(k)^n by
  ``walk_planes`` and the two-plane squaring, the bands by ``_phases_su2``):
  the references the tile loops equal bit for bit;
* the convergence loop one eps at a time (``converge_eps_by_eps``), each eps's coins,
  power and checks on their own: the reference for the loop that walks the eps
  ladder at once, in its samples and in the error it raises first;
* W(k) and its power in extended precision, from the walk's float64 angles;
* the identity ``ID2``, the Pauli matrix ``SX`` and the x-axis rotation
  ``rot_x``, which no coin needs, the conjugate transpose ``dag`` of a stack, and
  the Hermiticity defect ||H - H^dag|| on a second stack
  (``hermiticity_defect_stack``) and ``exp_herm`` on it (``exp_herm_stack``), the
  references for ``exp_herm``'s check on entry planes;
* the stack product ``mul2`` by the entry formulas, ``unitarity_defect`` of a
  stack on ``gram_sums`` and ``radius_sums`` and the check ``check_unitary_stack``
  built on it (the library checks only the two-plane form), and the determinant
  ``det2``;
* the four Hamiltonian terms of the time limit built one coefficient at a time
  (``time_terms_per_term``), the reference for the library's one stack of them;
* the shift-word row scaling ``diag_mul`` and the Hamiltonian symbol as a sum of
  its stacks (``time_symbol_stack``), the reference for the library's symbol on
  entry planes, and the Gram entries and half-gap radius of ``mat2._norm`` as whole
  expressions (``gram_sums``, ``radius_sums``), the references for its in-place sums;
* a full 2x2 eigendecomposition, the unitarity and Hermiticity
  predicates, and the gufunc matmul forms of the elementwise 2x2
  kernels (walk symbol, squaring, operator norm, unitarity defect,
  Hamiltonian symbol), with an extended-precision matrix power as the
  reference for both squarings;
* plain-function views of library results: a report's integer
  witnesses, a term's order and an assembly's derivative coefficients;
* the (sum_l, sum_n) pairs of order 1 or in (0, 1) by an exact Fraction
  scan of every pair of order at most 1, counted and budgeted after the
  scan, with the a = 0 refusal from the pure-n pairs, the reference for the
  term engine's integer pair table;
* the six coin rotations of the Gamma words, one scalar ``rot`` call each, and
  the Gamma word one matmul at a time from them, the references for the term
  engine's two stacked ``rot`` calls and its batched table of the 16 parity
  words;
* the grouped coefficient sums one index tuple at a time: a word product,
  a scalar coefficient and an in-place add per tuple, the reference for
  the term engine's class-word sums;
* the same grouped sums one (sum_l, sum_n) pair at a time, from a float64
  class matrix, the reference the engine's one table of all groups equals bit
  for bit, and that table as DivergenceGroups (``grouped_sums``);
* the smallest live order of a rejected plastic walk in closed form
  (``divergence_order``), every live order below 1 (``live_orders``) and the
  quotient max ||(W^2 - I) / (2 eps)|| over a walk's momenta that grows as
  eps^(f_min - 1) (``divergence_quotient``);
* the Richardson fit of the PDE prefactor against the numerical limit
  (W^2 - I)/(2 eps), which checks the closed form CALIBRATION = -1/2;
* the ``terms`` listing written one dict per index tuple through
  json.dumps, the reference for the CLI's templated rows;
* json.dumps(sort_keys=True, indent=2), the reference for the CLI's JSON
  writer;
* the config loader as it was before its fast paths (each angle through its
  key's parser, each exponent through Fraction's string parser, the range
  checks as generator expressions, the config built without its own checks),
  and the ``pde`` and ``hamiltonian`` text from np.round on the complex stack
  and matrices flattened one numpy scalar at a time: the references for the
  CLI's loader and renderers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from plasticwalk.coins import CoinJet, WalkConfig, coin_at, coin_pair, walk_k, walk_planes
from plasticwalk.config import ConfigError, ExperimentConfig
from plasticwalk.lattice import SpinorField, momentum_grid
from plasticwalk.mat2 import (
    SY, SZ, _entries, _entries_su2, _from_entries, _norm_diff, _phases_su2, _power,
    eigvals2, exp_herm, op_norm, rot,
)
from plasticwalk.plastic import (
    _SPLITS, CALIBRATION, TUPLE_BUDGET, PdeAssembly, TermIndex, _angles, _group_table,
    _index_tuples, _integer_orders, _pairs, _words, enumerate_terms, gamma_hat,
    half_half_pde, spacetime_hamiltonian,
)
from plasticwalk.timelimit import (
    ANGLE_TOL, ConstraintReport, HamiltonianTerm, _require_branch, check_time_limit,
    time_hamiltonian,
)
from plasticwalk._util import CONVERGE_BLOCK, POWER_TOL, check_unitary, k_tiles, stack_power


# ----------------------------------------------------------------- 2x2 algebra

ID2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def rot_x(angle) -> NDArray[np.complex128]:
    """exp(-i angle sigma_x / 2): the rotation about the x axis, which no coin has
    (``mat2.rot`` turns about y and z only)."""
    w = np.asarray(angle, dtype=np.float64)
    c, s = np.cos(w / 2.0), np.sin(w / 2.0)
    return _from_entries(c, -1j * s, -1j * s, c)


def dag(m: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Conjugate transpose over the trailing two axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def hermiticity_defect_stack(h) -> NDArray[np.float64]:
    """||H - H^dag|| of each slice, with H - H^dag formed as a second (..., 2, 2) stack:
    the reference for the check ``exp_herm`` takes on its entry planes."""
    h = np.asarray(h, dtype=np.complex128)
    return op_norm(h - dag(h))


def exp_herm_stack(h, t, what: str = "exp_herm input") -> tuple:
    """``exp_herm`` with its Hermiticity check on a second stack
    (:func:`hermiticity_defect_stack`) and the Pauli parts read by ``[..., i, j]``
    subscripts of the stack."""
    h = np.asarray(h, dtype=np.complex128)
    herm_defect = hermiticity_defect_stack(h)
    if not np.all(herm_defect <= 1e-10):
        raise ValueError(f"{what} is not Hermitian to 1e-10 "
                         f"(defect {float(np.max(herm_defect)):.3e})")
    t = np.asarray(t, dtype=np.float64)
    h0 = 0.5 * (h[..., 0, 0] + h[..., 1, 1]).real
    hx = 0.5 * (h[..., 0, 1] + h[..., 1, 0]).real
    hy = 0.5 * (h[..., 1, 0] - h[..., 0, 1]).imag
    hz = 0.5 * (h[..., 0, 0] - h[..., 1, 1]).real
    r = np.sqrt(hx * hx + hy * hy + hz * hz)
    sinc = np.where(r > 0.0, np.sin(r * t) / np.where(r > 0.0, r, 1.0), t)
    return np.exp(-1j * h0 * t), np.cos(r * t) - 1j * sinc * hz, -1j * sinc * (hx - 1j * hy)


def mul2(x, y) -> NDArray[np.complex128]:
    """Matrix product x @ y of two broadcastable (..., 2, 2) stacks, by the entry formulas."""
    a, b, c, d = _entries(x)
    e, f, g, h = _entries(y)
    return _from_entries(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def diag_mul(e, m) -> NDArray[np.complex128]:
    """diag(e, conj(e)) @ m, the form of every shift symbol and shift word.

    The diagonal only scales the rows of m; ``e`` broadcasts against the
    stack axes of m.
    """
    e = np.asarray(e, dtype=np.complex128)
    return np.stack([e, e.conj()], axis=-1)[..., None] * m


def det2(m: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Determinant of a (..., 2, 2) stack."""
    m = np.asarray(m)
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def unitarity_defect(m: NDArray[np.complex128]) -> NDArray[np.float64]:
    """||M^dag M - I||, the distance of each slice from U(2): |(p + r)/2 - 1| plus the
    half-gap radius of M^dag M = [[p, q], [q*, r]] (the norm of a Hermitian matrix), by
    :func:`gram_sums` and :func:`radius_sums`."""
    p, r, q = gram_sums(*_entries(m))
    return abs(0.5 * (p + r) - 1.0) + radius_sums(p, r, q)


def check_unitary_stack(m, what: str, tol: float) -> NDArray[np.complex128]:
    """``m`` as a complex (..., 2, 2) array, if every slice is unitary to ``tol`` by
    :func:`unitarity_defect`; the stack form of ``_util.check_unitary``."""
    m = np.asarray(m, dtype=np.complex128)
    defect = float(np.max(unitarity_defect(m)))
    if not defect <= tol:  # a NaN defect fails too
        raise ValueError(f"{what} is not unitary to {tol:g} (defect {defect:.3e})")
    return m


def gram_sums(a, b, c, d):
    """(p, r, q) of M^dag M = [[p, q], [q*, r]] for M = [[a, b], [c, d]], each entry one
    expression over the four planes.  The complex products are ufunc calls, the loop numpy
    runs on arrays of any size: ``*`` on numpy scalars takes numpy's scalar math, which can
    round a complex product differently."""
    p = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
    r = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
    q = np.multiply(a.conjugate(), b) + np.multiply(c.conjugate(), d)
    return p, r, q


def radius_sums(p, r, q):
    """sqrt(((p - r)/2)^2 + |q|^2) as one expression."""
    h = 0.5 * (p - r)
    return (h * h + q.real * q.real + q.imag * q.imag) ** 0.5


def is_unitary(m: NDArray[np.complex128], tol: float = 1e-10) -> bool:
    """True when every slice satisfies M^dag M = I within tol."""
    return bool(np.all(unitarity_defect(m) <= tol))


def is_hermitian(m: NDArray[np.complex128], tol: float = 1e-10) -> bool:
    """True when every slice satisfies M = M^dag within tol."""
    return bool(np.all(hermiticity_defect_stack(m) <= tol))


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


# ----------------------------------------------------------- continuous time


def shift_symbol(k, delta_spatial: float = 1.0) -> NDArray[np.complex128]:
    """Fourier symbol e^{i k Delta sigma_z} of the spin-dependent shift.

    Equals rot('z', -2 k Delta); diagonal and unitary.  ``k`` may be an
    array, giving a (..., 2, 2) stack.
    """
    return rot("z", -2.0 * np.asarray(k, dtype=np.float64) * delta_spatial)


def first_order_blocks(jet: CoinJet, k) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Zeroth/first expansion blocks (A_j, B_j) of one shift-coin factor.

    With zeta' = zeta0 - 2k,

        A = rot('z', zeta') rot('y', theta0) rot('z', phi0)
        B = zeta1 sz A  +  theta1 sy rot('z', -2 zeta') A  +  phi1 A sz

    so that S(k) C(eps) = e^{i delta} (A - i eps B / 2) + O(eps^2) when
    the coin is driven at s = eps (time mode).  ``k`` may be an array.
    """
    k = np.asarray(k, dtype=np.float64)
    zp = jet.zeta0 - 2.0 * k
    a = rot("z", zp) @ rot("y", jet.theta0) @ rot("z", jet.phi0)
    b = jet.zeta1 * (SZ @ a) + jet.theta1 * (SY @ rot("z", -2.0 * zp) @ a) + jet.phi1 * (a @ SZ)
    return a, b


def constraint_f(cfg: WalkConfig, kx, ky, l: int = 0):
    """Root-of-unity constraint function; identically zero on compliant configs.

    f = W1 cos(g) - W2 cos(h) - c with
    W1 = cos(theta0x/2) cos(theta0y/2), W2 = sin(theta0x/2) sin(theta0y/2),
    g = (phi0x + phi0y + zeta'0x + zeta'0y)/2,
    h = (phi0y - phi0x + zeta'0x - zeta'0y)/2, c = cos(2 pi l / tau - delta).
    """
    jx, jy = cfg.coin_x, cfg.coin_y
    kx = np.asarray(kx, dtype=np.float64)
    ky = np.asarray(ky, dtype=np.float64)
    zpx = jx.zeta0 - 2.0 * kx
    zpy = jy.zeta0 - 2.0 * ky
    w1 = np.cos(jx.theta0 / 2.0) * np.cos(jy.theta0 / 2.0)
    w2 = np.sin(jx.theta0 / 2.0) * np.sin(jy.theta0 / 2.0)
    g = 0.5 * (jx.phi0 + jy.phi0 + zpx + zpy)
    h = 0.5 * (jy.phi0 - jx.phi0 + zpx - zpy)
    c = np.cos(2.0 * np.pi * l / cfg.tau - cfg.delta_sum)
    return w1 * np.cos(g) - w2 * np.cos(h) - c


def walk_block(cfg: WalkConfig, kx, ky) -> NDArray[np.complex128]:
    """The zeroth-order block e^{i delta} A(k) with A = A_x A_y."""
    ax, _ = first_order_blocks(cfg.coin_x, kx)
    ay, _ = first_order_blocks(cfg.coin_y, ky)
    return np.exp(1j * cfg.delta_sum) * (ax @ ay)


def roots_of_unity_residual(cfg: WalkConfig, kx, ky) -> float:
    """max over the grid of |lambda^tau - 1| for eigenvalues of e^{i delta} A."""
    lam = eigvals2(walk_block(cfg, kx, ky))
    return float(np.max(np.abs(lam ** cfg.tau - 1.0)))


def odd_tau_gap(cfg: WalkConfig, tau_odd: int, kx, ky) -> float:
    """max over the grid of ||(e^{i delta} A)^tau - I|| for odd tau."""
    if tau_odd % 2 == 0:
        raise ValueError("tau_odd must be odd")
    block = stack_power(walk_block(cfg, kx, ky), tau_odd)
    return float(np.max(op_norm(block - np.eye(2))))


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


# ------------------------------------------------------- continuous spacetime


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


def transport_commutator(cfg: WalkConfig) -> NDArray[np.complex128]:
    """[Px, Py] in closed form: -2i (thx^2 sin(a2-a1) + thx thy (sin a2 - sin a1)) sz.

    Vanishes identically when a1 = phi_x + zeta_y and a2 = phi_y + zeta_x
    are the integer-pi values the divergence gate enforces.
    """
    zx, _, phx, zy, _, phy = _angles(cfg)
    thx, thy = cfg.coin_x.theta1, cfg.coin_y.theta1
    a1, a2 = phx + zy, phy + zx
    scalar = thx * thx * np.sin(a2 - a1) + thx * thy * (np.sin(a2) - np.sin(a1))
    return -2j * scalar * SZ


def cross_term_report(cfg: WalkConfig) -> dict:
    """Cancellation test for the mixed-derivative words.

    Sums the four J words (index patterns 1100, 1001, 0110, 0011) whose
    vanishing removes every d_x d_y term from the limit, and reports the
    norm of the sum.
    """
    _, thx0, _, _, thy0, _ = _angles(cfg)
    a1 = cfg.coin_x.phi0 + cfg.coin_y.zeta0
    a2 = cfg.coin_y.phi0 + cfg.coin_x.zeta0

    def j_word(l1x, l1y, l2x, l2y):
        s1 = (-1.0) ** (l1y + l2x + l2y)
        s2 = (-1.0) ** (l2x + l2y)
        s3 = (-1.0) ** l2y
        return rot("y", s1 * thx0) @ rot("z", a1) @ rot("y", s2 * thy0) \
            @ rot("z", a2) @ rot("y", s3 * thx0)

    total = (j_word(1, 1, 0, 0) + j_word(1, 0, 0, 1)
             + j_word(0, 1, 1, 0) + j_word(0, 0, 1, 1))
    residual = float(op_norm(total))
    return {"cancels": residual <= 1e-12, "residual": residual}


def _on_shell(cfg: WalkConfig) -> bool:
    """cos((a1 - a2) / 2) = cos((a1 + a2) / 2) = 0 to ANGLE_TOL, with a1 = zeta0y + phi0x and
    a2 = zeta0x + phi0y: a1 and a2 in pi Z with an odd sum."""
    a1 = cfg.coin_y.zeta0 + cfg.coin_x.phi0
    a2 = cfg.coin_x.zeta0 + cfg.coin_y.phi0
    return max(abs(np.cos((a1 - a2) / 2.0)), abs(np.cos((a1 + a2) / 2.0))) <= ANGLE_TOL


def closed_form_gate(cfg: WalkConfig) -> bool:
    """The spacetime gate at the walk's (a, b) in closed form: the theta0 branch nu = 0,
    the delta quantization, order-1 terms, a + b >= 1, and b = 1 or the shell.

    Below order 1 the pure-l groups always cancel, the pure-n groups (there are some iff
    b < 1) cancel on the shell alone, and the mixed groups (some iff a + b < 1) never
    cancel.  The shell is cos((a1 - a2) / 2) = cos((a1 + a2) / 2) = 0 with a1 = zeta0y +
    phi0x and a2 = zeta0x + phi0y: a1 and a2 in pi Z with an odd sum.  With tau = 2 the
    delta quantization is cos(delta_x + delta_y) = 0.
    """
    jx, jy = cfg.coin_x, cfg.coin_y
    a, b = cfg.a_exp, cfg.b_exp
    theta = max(abs(np.sin(jx.theta0 / 2.0)), abs(np.cos(jy.theta0 / 2.0))) <= ANGLE_TOL / 2
    delta = abs(np.cos(cfg.delta_sum)) <= ANGLE_TOL
    # a * sl + b * sn = 1 in nonnegative integers: sn = (1 - a * sl) / b for some sl
    order_one = a > 0 and any(((1 - a * sl) / b).denominator == 1 for sl in range(int(1 / a) + 1))
    return bool(theta and delta and order_one and a + b >= 1 and (b == 1 or _on_shell(cfg)))


def closed_form_generator(cfg: WalkConfig):
    """The d/dt generator G(k) of the spacetime limit in closed form, for a walk that
    passes the gate: a function of the momenta (kx, ky) to (..., 2, 2) stacks, or None
    where every order-1 group cancels (a + b > 1 on the shell).

    On the shell with a + b = 1 it is Px d/dx + Py d/dy, d/dx = i kx, with the (Px, Py) of
    ``half_half_pde``, along the whole line.  At b = 1 off the shell it is
    (-i/2)(theta1x {W0, W_nx} + theta1y {W0, W_ny}), no derivatives, with W0, W_nx and W_ny
    the words with no sigma insertion, with sy after Rz(zeta_x) and with sy after
    Rz(zeta_y).  Both carry the prefactor CALIBRATION.
    """
    thx, thy = cfg.coin_x.theta1, cfg.coin_y.theta1
    if _on_shell(cfg):
        if cfg.a_exp + cfg.b_exp != 1:
            return None
        px, py = half_half_pde(dataclasses.replace(cfg, a_exp=Fraction(1, 2), b_exp=Fraction(1, 2)))

        def transport(kx, ky):
            kx, ky = np.broadcast_arrays(np.asarray(kx, dtype=np.float64),
                                         np.asarray(ky, dtype=np.float64))
            return CALIBRATION * (1j * kx[..., None, None] * px + 1j * ky[..., None, None] * py)

        return transport
    w0, w_nx, w_ny = (word_chain(cfg, 0, 0, nx, ny) for nx, ny in ((0, 0), (1, 0), (0, 1)))
    m = -0.5j * (thx * (w0 @ w_nx + w_nx @ w0) + thy * (w0 @ w_ny + w_ny @ w0))

    def constant(kx, ky):
        shape = np.broadcast(np.asarray(kx), np.asarray(ky)).shape
        return np.broadcast_to(CALIBRATION * m, shape + (2, 2))

    return constant


# ----------------------------------------------------------------- real space


def site_field(nx: int, ny: int, site: tuple[int, int], component: int) -> SpinorField:
    """Unit amplitude in one component at one site (``SpinorField.delta`` is component 0
    at (0, 0))."""
    d = np.zeros((2, nx, ny), dtype=np.complex128)
    d[(component, *site)] = 1.0
    return SpinorField(d)


def plane_wave_field(nx: int, ny: int, kx: float, ky: float, spinor) -> SpinorField:
    """The normalized plane wave e^{i(kx l + ky m)} times the spinor scaled to norm 1
    (``SpinorField.plane_wave`` is the spinor (1, 0))."""
    sp = np.asarray(spinor, dtype=np.complex128)
    wave = np.exp(1j * (kx * np.arange(nx)[:, None] + ky * np.arange(ny)[None, :]))
    return SpinorField((sp / np.linalg.norm(sp))[:, None, None] * wave / np.sqrt(nx * ny))


def shift(field: SpinorField, axis: str) -> SpinorField:
    """Spin-dependent shift along 'x' or 'y'; an exact permutation."""
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    ax = 0 if axis == "x" else 1
    out = np.empty_like(field.data)
    out[0] = np.roll(field.data[0], -1, axis=ax)  # L at l reads input at l+1
    out[1] = np.roll(field.data[1], +1, axis=ax)  # R at l reads input at l-1
    return SpinorField(out)


def apply_coin(field: SpinorField, c: NDArray[np.complex128]) -> SpinorField:
    """Left-multiply the spinor at every site by the unitary 2x2 coin."""
    return SpinorField(np.einsum("ab,bxy->axy", check_unitary_stack(c, "coin", 1e-10),
                                 field.data))


def step_chain(field: SpinorField, cfg: WalkConfig, eps: float) -> SpinorField:
    """One walk step W = V_x V_y (the y factor acts first) as the chain coin_at ->
    apply_coin -> shift: the reference for ``lattice.step``."""
    s = cfg.drive(eps)
    out = apply_coin(field, coin_at(cfg.coin_y, s))
    out = shift(out, "y")
    out = apply_coin(out, coin_at(cfg.coin_x, s))
    return shift(out, "x")


def apply_shift_word(field: SpinorField, px: int, py: int) -> SpinorField:
    """Apply the shift word S_x^px S_y^py (negative powers are inverses)."""
    l_part = np.roll(np.roll(field.data[0], -px, axis=0), -py, axis=1)
    r_part = np.roll(np.roll(field.data[1], +px, axis=0), +py, axis=1)
    return SpinorField(np.stack([l_part, r_part]))


def dft(field: SpinorField) -> NDArray[np.complex128]:
    """Componentwise 2D DFT, unnormalized forward kernel e^{-i k.x}."""
    return np.fft.fft2(field.data, axes=(1, 2))


def idft(fhat: NDArray[np.complex128]) -> SpinorField:
    """Inverse of :func:`dft` (carries the 1/(Nx Ny) factor)."""
    return SpinorField(np.fft.ifft2(np.asarray(fhat, dtype=np.complex128), axes=(1, 2)))


def save_csv_per_site(field: SpinorField, path) -> None:
    """The CSV form of a field, written one site at a time with its own f-string."""
    nx, ny = field.shape
    with open(path, "w") as fh:
        fh.write("l,m,re_L,im_L,re_R,im_R\n")
        for l in range(nx):
            for m in range(ny):
                vl = field.data[0, l, m]
                vr = field.data[1, l, m]
                fh.write(f"{l},{m},{vl.real:.17g},{vl.imag:.17g},{vr.real:.17g},{vr.imag:.17g}\n")


def load_csv_table(path) -> SpinorField:
    """A field CSV parsed by one ``np.loadtxt`` of the whole file, then scattered.

    Rows may come in any order here; ``lattice.load_csv`` reads row-major rows
    only, as ``save_csv`` writes them, so the two agree bit for bit on ``save_csv``
    files (signed zeros too: the real and imaginary parts are set one at a time) and
    the oracle also reads the shuffled files the library refuses.
    """
    with warnings.catch_warnings():  # a header-only file is refused below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = len(raw)
    if raw.shape[1] != 6 or not rows:
        raise ValueError(f"{path}: need rows of six columns, one a site")
    missing = f"{path}: need each site of the grid of l, m >= 0 once, got {rows} rows"
    nx, ny = raw[:, 0].max() + 1, raw[:, 1].max() + 1
    if not (min(raw[:, 0].min(), raw[:, 1].min()) >= 0 and nx * ny == rows):
        raise ValueError(missing)
    nx, ny = int(nx), int(ny)
    d = np.zeros((2, nx, ny), dtype=np.complex128)
    ll, mm = raw[:, 0].astype(np.int64), raw[:, 1].astype(np.int64)
    for spin in range(2):
        d[spin].real[ll, mm] = raw[:, 2 + 2 * spin]
        d[spin].imag[ll, mm] = raw[:, 3 + 2 * spin]
    seen = np.zeros((nx, ny), dtype=bool)
    seen[ll, mm] = True
    if not seen.all():  # with nx * ny rows, a site given twice leaves another out
        raise ValueError(missing)
    if not ((ll == raw[:, 0]).all() and (mm == raw[:, 1]).all()):
        raise ValueError(f"{path}: site indices l, m must be integers")
    return SpinorField(d)


def evolve_by_symbol(field: SpinorField, symbol, t: float,
                     generator: bool = False) -> SpinorField:
    """Evolve by a momentum-space 2x2 symbol.

    symbol(kx, ky) must accept broadcastable momentum grids and return a
    (..., 2, 2) stack.  With ``generator=False`` the symbol is a
    Hamiltonian H(k) (Hermitian, checked) and the evolution is
    e^{-i H t}; with ``generator=True`` the symbol G(k) is the d/dt
    generator and the evolution is e^{G t} (G must be anti-Hermitian,
    checked, so the evolution stays unitary).
    """
    nx, ny = field.shape
    kx, ky = momentum_grid(nx, ny)
    sym = np.asarray(symbol(kx, ky), dtype=np.complex128)
    sym = np.broadcast_to(sym, (nx, ny, 2, 2))
    if generator:
        h = 1j * sym  # anti-Hermitian G => Hermitian iG, e^{G t} = e^{-i (iG) t}
    else:
        h = sym
    u = _from_entries(*_entries_su2(exp_herm(h, t)))
    fhat = dft(field)
    out = np.einsum("xyab,bxy->axy", u, fhat)
    return idft(out)


# ------------------------------------------------- whole-grid k-space commands


def walk_k_stack(cfg: WalkConfig, kx, ky, eps: float) -> NDArray[np.complex128]:
    """W(k) = S_x(kx) C_x S_y(ky) C_y as a stack: diag_mul each coin by its shift phase,
    then mul2 the two factors."""
    spacing, s = cfg.spacing(eps), cfg.drive(eps)
    sx = np.exp(1j * np.asarray(kx, dtype=np.float64) * spacing)
    sy = np.exp(1j * np.asarray(ky, dtype=np.float64) * spacing)
    return mul2(diag_mul(sx, coin_at(cfg.coin_x, s)), diag_mul(sy, coin_at(cfg.coin_y, s)))


def power_stack(m: NDArray[np.complex128], n: int) -> NDArray[np.complex128]:
    """m^n for n >= 0 by repeated squaring, each product a mul2 of two stacks."""
    out, base = None, m
    while n > 0:
        if n & 1:
            out = base if out is None else mul2(out, base)
        n >>= 1
        if n:
            base = mul2(base, base)
    return np.broadcast_to(ID2, np.shape(m)).copy() if out is None else out


def walk_power_stack(cfg: WalkConfig, kx, ky, eps: float, n: int) -> NDArray[np.complex128]:
    """W(k)^n over the whole grid, four entries a matrix: power_stack of walk_k_stack."""
    return power_stack(walk_k_stack(cfg, kx, ky, eps), n)


def power_planes(x: tuple, n: int) -> tuple:
    """M^n for one count n >= 0, M and M^n in the two-plane form (g, a, b): mat2._power
    of ``[n]``, and the identity at n = 0, where ``lattice.evolve`` returns early."""
    if n == 0:
        one = np.ones(np.broadcast(*x).shape, dtype=np.complex128)
        return 1.0 + 0j, one, 0 * one
    return _power(x, [n])


def walk_power_planes(cfg: WalkConfig, kx, ky, eps: float, n: int) -> NDArray[np.complex128]:
    """W(k)^n over the whole grid in the library's two-plane form (walk_planes, then the
    squarings of mat2._power), expanded to a stack."""
    return _from_entries(*_entries_su2(power_planes(walk_planes(coin_pair(cfg, eps), kx, ky), n)))


def walk_power_extended(cfg: WalkConfig, kx, ky, eps: float, n: int) -> NDArray[np.clongdouble]:
    """W(k)^n in np.clongdouble (64-bit mantissa on x86-64): each coin e^{i delta}
    R_z(zeta) R_y(theta) R_z(phi) and shift phase k * spacing taken as the library's
    float64 values, every function of them and every product in extended precision."""
    spacing, s = cfg.spacing(eps), cfg.drive(eps)
    factors = []
    for k, jet in ((kx, cfg.coin_x), (ky, cfg.coin_y)):
        zeta, theta, phi = (np.longdouble(w0 + w1 * s) / 2 for w0, w1 in (
            (jet.zeta0, jet.zeta1), (jet.theta0, jet.theta1), (jet.phi0, jet.phi1)))
        z, p = np.exp(-1j * np.clongdouble(zeta)), np.exp(-1j * np.clongdouble(phi))
        coin = np.exp(1j * np.clongdouble(jet.delta)) * np.array(
            [[np.cos(theta) * z * p, -np.sin(theta) * z / p],
             [np.sin(theta) / z * p, np.cos(theta) / z / p]])
        e = np.exp(1j * (np.asarray(k, dtype=np.float64) * spacing).astype(np.clongdouble))
        factors.append(np.stack([e, 1 / e], axis=-1)[..., None] * coin)
    return stack_power_matmul(factors[0] @ factors[1], n, dtype=np.clongdouble)


def evolve_whole_grid(field: SpinorField, cfg: WalkConfig, eps: float, steps: int,
                      walk_power=walk_power_stack) -> NDArray[np.complex128]:
    """The data of ``steps`` walk steps on the FFT of ``field``, W(k)^steps one stack
    over the whole grid by ``walk_power``, with the FFTs of ``lattice.evolve`` in its
    axis order.  The lattice walks one site a shift: W(k) is the walk's at a = 0 (spacing
    1), at the lattice momenta of ``momentum_grid``."""
    psi = field.data.copy()
    for axis in (2, 1):
        psi = np.fft.fft(psi, axis=axis)
    w = walk_power(dataclasses.replace(cfg, a_exp=0), *momentum_grid(*field.shape), eps, steps)
    psi = np.stack([w[..., 0, 0] * psi[0] + w[..., 0, 1] * psi[1],
                    w[..., 1, 0] * psi[0] + w[..., 1, 1] * psi[1]])
    for axis in (2, 1):
        psi = np.fft.ifft(psi, axis=axis)
    return psi


def dispersion_whole_grid(cfg: WalkConfig, eps: float, kx, ky) -> NDArray[np.float64]:
    """Eigenphases of W(k), sorted per momentum, with W built over the whole grid."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = check_unitary_stack(walk_k_stack(cfg, kx, ky, eps), "walk symbol", 1e-11)
    phases = np.angle(eigvals2(w))
    phases = np.where(phases <= -np.pi + 1e-15, phases + 2.0 * np.pi, phases)
    return np.sort(phases, axis=-1)


def dispersion_planes_whole_grid(cfg: WalkConfig, eps: float, kx, ky) -> NDArray[np.float64]:
    """The eigenphases of W(k) by mat2._phases_su2, with W built over the whole grid."""
    return np.stack(_phases_su2(walk_planes(coin_pair(cfg, eps), kx, ky)), axis=-1)


def converge_whole_grid(cfg: WalkConfig, tau: int, hamiltonian, kx, ky, t_final: float,
                        eps_list, walk_power=walk_power_stack) -> list[tuple[float, float]]:
    """The (eps, error) samples of the convergence loop, eps outside, each eps over
    the whole grid: sup-norm distance between W^(tau n), by ``walk_power``, and
    exp(-i H tau n eps)."""
    h = hamiltonian(np.asarray(kx, dtype=np.float64), np.asarray(ky, dtype=np.float64))
    samples = []
    for eps in sorted(eps_list, reverse=True):
        n = max(1, round(t_final / (tau * eps)))
        with np.errstate(over="ignore", invalid="ignore"):
            check_unitary_stack(walk_power(cfg, kx, ky, eps, 1), "walk symbol", 1e-11)
            walk_pow = check_unitary_stack(walk_power(cfg, kx, ky, eps, tau * n), "W^(tau n)",
                                           POWER_TOL)
            target = _from_entries(*_entries_su2(
                check_unitary(exp_herm(h, tau * n * eps), "target", 1e-11)))
        samples.append((float(eps), float(np.max(op_norm(walk_pow - target)))))
    return samples


def converge_eps_by_eps(cfg: WalkConfig, hamiltonian, kx, ky, t_final: float, eps_list,
                        what: str) -> list[tuple[float, float]]:
    """The (eps, error) samples of ``convergence._converge`` one eps at a time, as the
    loop was before it walked the eps ladder at once: the coin pair of each eps by its
    own ``coin_pair``, and in each tile of ``CONVERGE_BLOCK`` k-points, eps by eps, W(k)
    checked, W^(tau n) by ``_power`` with that eps's count alone and checked, and the
    target e^{-iHt} rebuilt and checked where the horizon changes; the first check that
    fails raises.  The reference the ladder equals bit for bit, in its errors too."""
    tau = cfg.tau
    eps_list = [float(eps) for eps in sorted(eps_list, reverse=True)]
    steps = [tau * max(1, round(t_final / (tau * eps))) for eps in eps_list]
    errors = [0.0] * len(eps_list)
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = [coin_pair(cfg, eps) for eps in eps_list]
        for _, kx_t, ky_t in k_tiles(kx, ky, CONVERGE_BLOCK):
            h, t = hamiltonian(kx_t, ky_t), None
            for i, (eps, m, pair) in enumerate(zip(eps_list, steps, pairs)):
                w = check_unitary(walk_planes(pair, kx_t, ky_t), "walk symbol", 1e-11)
                walk_pow = check_unitary(_power(w, [m]), f"W^({tau} n) at n = {m // tau:.3g}",
                                         POWER_TOL)
                if m * eps != t:
                    t = m * eps
                    target = _entries_su2(check_unitary(exp_herm(h, t, what),
                                                        f"{what} evolution", 1e-11))
                errors[i] = max(errors[i], float(_norm_diff(walk_pow, target).max()))
    return list(zip(eps_list, errors))


# ------------------------------------------------------------ result views


def witnesses(report: ConstraintReport) -> dict[str, int]:
    """The integer witnesses of every condition of a report, merged."""
    out: dict[str, int] = {}
    for c in report.conditions:
        out.update(c.witness)
    return out


def term_order(idx: TermIndex, a: Fraction, b: Fraction) -> Fraction:
    """The eps order a * sum_l + b * sum_n of one index tuple."""
    return a * idx.sum_l + b * idx.sum_n


def sum_pairs_scan(a: Fraction, b: Fraction, order_one: bool) -> tuple[list[tuple[int, int]], int]:
    """The (sum_l, sum_n) pairs of order exactly 1 (order_one) or in (0, 1), and their
    index tuple count: every pair of order at most 1 in Fraction arithmetic, sl
    ascending, then sn ascending.  ValueError past TUPLE_BUDGET tuples, and at a = 0
    if a pure-n pair is in the set (l indices then never raise the order)."""
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        if any(b * sn == 1 if order_one else b * sn < 1 for sn in range(1, int(1 / b) + 1)):
            raise ValueError("a = 0 admits infinitely many index tuples")
        return [], 0
    pairs = [(sl, sn) for sl in range(int(1 / a) + 1)
             for sn in range(int((1 - a * sl) / b) + 1)
             if (sl or sn) and ((a * sl + b * sn == 1) if order_one else (a * sl + b * sn < 1))]
    count = sum(comb(sl + 3, 3) * comb(sn + 3, 3) for sl, sn in pairs)
    if count > TUPLE_BUDGET:
        raise ValueError(f"the exponents need {count} index tuples, over the work budget")
    return pairs, count


def scalar_coeff(idx: TermIndex) -> complex:
    """nu1 nu2 with the free monomials (k and theta1 powers) stripped."""
    denom = 1
    for p in idx:
        denom *= factorial(p)
    return (1j ** idx.sum_l) * ((-0.5j) ** idx.sum_n) / denom


def rotations_scalar(cfg: WalkConfig) -> tuple[NDArray[np.complex128], ...]:
    """Rz(zeta_x), Ry(theta0x), Rz(phi_x), Rz(zeta_y), Ry(theta0y), Rz(phi_y), one
    scalar ``rot`` call each: what the engine's two stacked calls reproduce."""
    jx, jy = cfg.coin_x, cfg.coin_y
    return (rot("z", jx.zeta0), rot("y", jx.theta0), rot("z", jx.phi0),
            rot("z", jy.zeta0), rot("y", jy.theta0), rot("z", jy.phi0))


def word_chain(cfg: WalkConfig, lx: int, ly: int, nx: int, ny: int) -> NDArray[np.complex128]:
    """The word of gamma_hat one matmul at a time, left to right, inserting each sigma
    whose index is odd, on the rotations of :func:`rotations_scalar`: the chain the
    engine's batched table of 16 words reproduces."""
    rzx, ryx, rpx, rzy, ryy, rpy = rotations_scalar(cfg)
    word = rzx
    if lx % 2:
        word = word @ SZ
    if nx % 2:
        word = word @ SY
    word = word @ ryx @ rpx @ rzy
    if ly % 2:
        word = word @ SZ
    if ny % 2:
        word = word @ SY
    return word @ ryy @ rpy


class DivergenceGroup(NamedTuple):
    """One coefficient group of the squared-walk expansion at order eps^exponent."""

    exponent: Fraction
    kx_power: int
    ky_power: int
    thx_power: int
    thy_power: int
    matrix: NDArray[np.complex128]


def grouped_sums_loop(cfg: WalkConfig, a: Fraction, b: Fraction,
                      order_one: bool) -> list[DivergenceGroup]:
    """The coefficient groups of order 1 (order_one) or in (0, 1), one tuple at a time:
    the left word (l1x, l1y, n1x, n1y) times the right word (l2x, l2y, n2x, n2y), each
    from :func:`word_chain`, scaled and added to its group (f, kx, ky, theta1x, theta1y
    powers)."""
    a, b = Fraction(a), Fraction(b)
    gammas: dict[tuple[int, int, int, int], NDArray[np.complex128]] = {}

    def gam(key):
        if key not in gammas:
            gammas[key] = word_chain(cfg, *key)
        return gammas[key]

    groups: dict[tuple, NDArray[np.complex128]] = {}
    for sl, sn in _pairs(a, b, order_one)[0]:
        order = a * sl + b * sn
        for idx in _index_tuples(sl, sn):
            key = (order, idx.l1x + idx.l2x, idx.l1y + idx.l2y,
                   idx.n1x + idx.n2x, idx.n1y + idx.n2y)
            acc = groups.setdefault(key, np.zeros((2, 2), dtype=np.complex128))
            left = gam((idx.l1x, idx.l1y, idx.n1x, idx.n1y))
            right = gam((idx.l2x, idx.l2y, idx.n2x, idx.n2y))
            acc += scalar_coeff(idx) * (left @ right)
    return [DivergenceGroup(*k, v) for k, v in sorted(groups.items())]


def grouped_sums_per_pair(cfg: WalkConfig, a: Fraction, b: Fraction,
                          order_one: bool) -> list[DivergenceGroup]:
    """The coefficient groups of order 1 (order_one) or in (0, 1), one (sum_l, sum_n)
    pair at a time: each pair's groups are its weights times a gather of class words
    from a float64 class matrix, a key tuple a group, then one sort of all groups.  The
    reference for the term engine's one table of all groups, which equals it bit for bit.
    """
    a, b = Fraction(a), Fraction(b)
    pairs = _pairs(a, b, order_one)[0]
    if not pairs:
        return []
    classes = np.einsum("aei,bfj,cgk,dhl->abcdefghijkl", *[_SPLITS] * 4).reshape(81, 256)
    words = _words(cfg)
    class_words = (classes @ (words[:, None] @ words).reshape(256, 4)).reshape(81, 2, 2)
    totals = np.arange(max(map(max, pairs)) + 1)
    weight = np.array([1.0] + [2 ** (n - 1) / factorial(n) for n in totals[1:].tolist()])
    kind = np.where(totals == 0, 0, 2 - totals % 2)
    d = lcm(a.denominator, b.denominator)
    A, B = int(a * d), int(b * d)
    groups = []
    for sl, sn in pairs:
        x, y = totals[:sl + 1], totals[:sn + 1]  # the kx and theta1x powers
        scale = (1j ** sl) * ((-0.5j) ** sn)
        coeffs = np.outer(scale * weight[x] * weight[sl - x], weight[y] * weight[sn - y])
        word = (27 * kind[x] + 9 * kind[sl - x])[:, None] + 3 * kind[y] + kind[sn - y]
        level = A * sl + B * sn
        order = Fraction(level, d)
        matrices = coeffs.reshape(-1, 1, 1) * class_words[word.ravel()]
        for (kx, thx), m in zip(product(x.tolist(), y.tolist()), matrices):
            groups.append(((level, kx, sl - kx, thx, sn - thx), order, m))
    groups.sort(key=lambda group: group[0])  # the integer order d * f, then the powers
    return [DivergenceGroup(order, *key[1:], m) for key, order, m in groups]


def _groups(keys: list[list[int]], d: int,
            matrices: NDArray[np.complex128]) -> list[DivergenceGroup]:
    """The rows of a group table as DivergenceGroups, one Fraction per order: the columns
    of the keys zipped with the matrices, each row a tuple for ``_make``."""
    if not keys:
        return []
    levels, *powers = zip(*keys)
    orders = {level: Fraction(level, d) for level in set(levels)}
    return list(map(DivergenceGroup._make, zip(map(orders.__getitem__, levels), *powers, matrices)))


def grouped_sums(cfg: WalkConfig, a: Fraction, b: Fraction,
                 order_one: bool) -> list[DivergenceGroup]:
    """The coefficient groups of ``plastic._group_table``, as DivergenceGroups whose
    orders are the table's integer levels over the exponents' common denominator."""
    keys, matrices = _group_table(cfg, a, b, order_one)
    return _groups(keys, _integer_orders(a, b)[2], matrices)


def divergence_order(cfg: WalkConfig) -> Fraction | None:
    """The smallest order f_min of a live coefficient group of a plastic walk that the
    gate rejects at its (a, b), in closed form; None where no group below order 1 lives.

    Below order 1 the pure-l groups always cancel, the pure-n groups (lowest order b, some
    iff b < 1) cancel on the shell alone, and the mixed groups (lowest order a + b, some
    iff a + b < 1) never cancel (:func:`closed_form_gate`).
    """
    a, b = cfg.a_exp, cfg.b_exp
    live = ([b] if b < 1 and not _on_shell(cfg) else []) + ([a + b] if a + b < 1 else [])
    return min(live, default=None)


def live_orders(cfg: WalkConfig) -> list[Fraction]:
    """The orders below 1 of the live coefficient groups of a plastic walk with a, b > 0,
    ascending, in closed form (:func:`closed_form_gate`): b n (n >= 1) off the shell, the
    pure-n groups, and a l + b n (l, n >= 1), the mixed groups; as integers over the common
    denominator d of a and b."""
    a, b = cfg.a_exp, cfg.b_exp
    d = lcm(a.denominator, b.denominator)
    big_a, big_b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    pure_n = () if _on_shell(cfg) else range(big_b, d, big_b)
    mixed = (x + y for x in range(big_a, d, big_a) for y in range(big_b, d - x, big_b))
    return [Fraction(o, d) for o in sorted({*pure_n, *mixed})]


def divergence_quotient(cfg: WalkConfig, kx, ky, eps: float) -> float:
    """max over the momenta (kx, ky) of ||(W^2 - I) / (2 eps)||, with W(k) from the
    four-entry chain :func:`walk_k_stack`: about eps^(f_min - 1) on a plastic walk the gate
    rejects, and bounded on one it passes."""
    w = walk_k_stack(cfg, kx, ky, eps)
    return float(np.max(op_norm((mul2(w, w) - ID2) / (2.0 * eps))))


def derivative_coefficient(asm: PdeAssembly, dx: int, dy: int) -> NDArray[np.complex128]:
    """Bare matrix multiplying d_x^dx d_y^dy with theta1 powers folded in."""
    out = np.zeros((2, 2), dtype=np.complex128)
    for term in asm.terms:
        if term.dx_power == dx and term.dy_power == dy:
            out = out + (asm.theta1x ** term.thx_power) \
                * (asm.theta1y ** term.thy_power) * term.coeff
    return out


# ---------------------------------------------------------------- PDE prefactor


def calibration_exponents(a: Fraction, b: Fraction) -> list[Fraction]:
    """Contamination exponents (relative to eps^1) present in (W^2-I)/(2 eps)."""
    out = set()
    for sl in range(int(4 / a) + 1):
        for sn in range(int(4 / b) + 1):
            if 1 < a * sl + b * sn <= 4:
                out.add(a * sl + b * sn - 1)
    return sorted(out)


def fit_lambda(cfg: WalkConfig, assembly_symbol) -> float:
    """Least-squares prefactor between the numerical limit and the bare sum, at the walk's (a, b).

    The finite-eps quotient carries contamination at known rational
    exponents; Richardson elimination over a geometric eps ladder pushes
    the fit error to ~1e-12 so constancy across configs is testable.
    """
    kappas = [(0.7, -0.3), (0.23, 0.9), (-0.51, 0.42), (0.5, 0.5), (-0.8, -0.15)]
    bare = np.stack([assembly_symbol(kx, ky) for kx, ky in kappas])
    denom = np.vdot(bare, bare)
    exponents = calibration_exponents(cfg.a_exp, cfg.b_exp)
    ratio = 4.0
    eps0 = 4e-2
    n_nodes = len(exponents) + 1
    fits = []
    for j in range(n_nodes):
        eps = eps0 / ratio ** j
        w = np.stack([walk_k(cfg, kx, ky, eps) for kx, ky in kappas])
        quotient = (w @ w - np.eye(2)) / (2.0 * eps)
        fits.append(complex(np.vdot(bare, quotient) / denom))
    # eliminate each contamination exponent in turn
    vals = fits
    for q in exponents:
        w = ratio ** float(-q)
        vals = [(vals[j + 1] - w * vals[j]) / (1.0 - w) for j in range(len(vals) - 1)]
    lam = vals[0]
    if abs(lam.imag) > 1e-8:
        raise RuntimeError(f"calibration constant came out non-real: {lam}")
    return float(lam.real)


# ------------------------------------------------------------- matmul kernels


def walk_k_matmul(cfg: WalkConfig, kx, ky, eps: float) -> NDArray[np.complex128]:
    """W(k) = S_x(kx) C_x S_y(ky) C_y as a chain of matmuls over full shift matrices."""
    spacing, s = cfg.spacing(eps), cfg.drive(eps)
    return (shift_symbol(kx, spacing) @ coin_at(cfg.coin_x, s)
            @ shift_symbol(ky, spacing) @ coin_at(cfg.coin_y, s))


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


def time_terms_per_term(cfg: WalkConfig) -> list[HamiltonianTerm]:
    """The four terms of ``time_hamiltonian``, each coefficient built on its own: one
    ``rot``, one scaling by 0.25 theta1 and one product with sy a term, the reference the
    library's one (4, 2, 2) stack equals bit for bit."""
    nu = _require_branch(check_time_limit(cfg).require("time-limit gate"))
    s = 1 if nu == 0 else -1
    jx, jy = cfg.coin_x, cfg.coin_y
    return [
        HamiltonianTerm(2, 0, 0.25 * jx.theta1 * rot("z", 2.0 * jx.zeta0) @ SY),
        HamiltonianTerm(0, 2 * s, 0.25 * jx.theta1
                        * rot("z", 2.0 * s * jy.zeta0 + 2.0 * s * jx.phi0 - 2.0 * jy.phi0) @ SY),
        HamiltonianTerm(0, 0, 0.25 * jy.theta1 * rot("z", -2.0 * jy.phi0) @ SY),
        HamiltonianTerm(2, 2 * s, 0.25 * jy.theta1
                        * rot("z", 2.0 * jx.zeta0 + 2.0 * s * jx.phi0 + 2.0 * s * jy.zeta0) @ SY),
    ]


def time_symbol_stack(terms, kx, ky) -> NDArray[np.complex128]:
    """H(k) as the sum of one (..., 2, 2) stack a term, each the term matrix scaled by
    diag_mul with its phase e^{i(px kx + py ky)} over the whole momentum grid: the
    reference the library's entry-plane symbol equals bit for bit."""
    kx = np.asarray(kx, dtype=np.float64)
    ky = np.asarray(ky, dtype=np.float64)
    return sum(diag_mul(np.exp(1j * (t.px * kx + t.py * ky)), t.coeff) for t in terms)


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


# ----------------------------------------------------------------- CLI listings


def terms_listing(a: Fraction, b: Fraction) -> tuple[str, str]:
    """The stdout of ``terms`` as (JSON, CSV): one dict per index tuple through json.dumps.

    A row is the tuple's indices, sum_l, sum_n and its group label: the nonzero
    indices as l=v and n=v, sorted as strings and joined by "+".
    """
    columns = TermIndex._fields + ("sum_l", "sum_n", "group")
    rows = []
    for idx in enumerate_terms(a, b):
        kinds = sorted([f"l={v}" for v in idx[:4] if v] + [f"n={v}" for v in idx[4:] if v])
        rows.append((*idx, sum(idx[:4]), sum(idx[4:]), "+".join(kinds)))
    doc = {"schema_version": 1, "count": len(rows),
           "terms": [dict(zip(columns, row)) for row in rows]}
    text = json_text(doc) + "\n"
    csv = ",".join(columns) + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)
    return text, csv


def json_text(value) -> str:
    """``value`` as json.dumps(sort_keys=True, indent=2) writes it: the CLI's JSON layout."""
    return json.dumps(value, sort_keys=True, indent=2)


# ------------------------------------------------------ config load and rendering
# The loader and the coefficient renderers as the CLI had them before their fast paths:
# every angle through its key's parser, every exponent through Fraction's string parser,
# every section looked up with a default, the range checks as generator expressions; each
# matrix flattened one numpy scalar at a time, and np.round on the complex stack.


def _ref_integer(key: str):
    def parse(value) -> int:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(value)
    return parse


def _ref_real(key: str):
    def parse(value) -> float:
        if isinstance(value, bool):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        return float(value)
    return parse


def ref_parse_rational(text, key: str = "exponent") -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ConfigError(f"{key} must be a 'p/q' string, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r} for {key}: {exc}") from None


def _ref_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _ref_array(value, name: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ConfigError(f"{name} must have {length} entries, got {len(value)}")
    return value


_REF_ANGLES = ("delta", "zeta0", "zeta1", "theta0", "theta1", "phi0", "phi1")


def _ref_coin(section, name: str) -> tuple[CoinJet, Fraction]:
    section = _ref_object(section, "coin section")
    angles = [_ref_real(f"walk.{name}.{k}")(section[k]) for k in _REF_ANGLES]
    b = ref_parse_rational(section.get("b", 1), f"walk.{name}.b")
    return CoinJet(*angles), b


def _ref_walk(section) -> WalkConfig:
    section = _ref_object(section, "walk")
    mode = section["mode"]
    coin_x, b_x = _ref_coin(section["coin_x"], "coin_x")
    coin_y, b_y = _ref_coin(section["coin_y"], "coin_y")
    if b_y != b_x:
        raise ConfigError(f"walk.coin_y.b must equal walk.coin_x.b (one b for both coins), "
                          f"got {b_y} and {b_x}")
    optional = {"tau": ("tau", _ref_integer("walk.tau")),
                "a": ("a_exp", lambda text: ref_parse_rational(text, "walk.a"))}
    return WalkConfig(coin_x=coin_x, coin_y=coin_y, b_exp=b_x, mode=mode,
                      **{name: parse(section[key]) for key, (name, parse) in optional.items()
                         if key in section})


def _ref_initial(section) -> dict:
    initial = dict(_ref_object(section, "run.initial"))
    initial.update({k: _ref_real(f"run.initial.{k}")(initial[k]) for k in ("kx", "ky")
                    if k in initial})
    return initial


_REF_SECTIONS = {
    "lattice": {"nx": _ref_integer("lattice.nx"), "ny": _ref_integer("lattice.ny")},
    "run": {"t_final": _ref_real("run.t_final"), "eps": _ref_real("run.eps"),
            "grid": _ref_integer("run.grid"), "steps": _ref_integer("run.steps"),
            "eps_list": lambda v, real=_ref_real("run.eps_list entry"):
                tuple(map(real, _ref_array(v, "run.eps_list"))),
            "momenta": lambda v, real=_ref_real("run.momenta entry"):
                tuple(tuple(map(real, _ref_array(k, "run.momenta entry", 2)))
                      for k in _ref_array(v, "run.momenta")),
            "initial": _ref_initial},
}


def _ref_checks(c) -> None:
    """The range checks of ExperimentConfig, on the object ``c`` of its fields, in order."""
    if not min(c.nx, c.ny) >= 2:
        raise ConfigError(f"lattice nx and ny must be >= 2, got {c.nx}, {c.ny}")
    if not c.grid >= 1:
        raise ConfigError(f"run.grid must be >= 1, got {c.grid}")
    if not c.steps >= 0:
        raise ConfigError(f"run.steps must be >= 0, got {c.steps}")
    if not c.eps > 0:
        raise ConfigError(f"run.eps must be > 0, got {c.eps}")
    if not (len(set(c.eps_list)) >= 3 and all(e > 0 for e in c.eps_list)):
        raise ConfigError(f"run.eps_list needs at least 3 distinct entries, all > 0, "
                          f"got {list(c.eps_list)}")
    if not len(c.eps_list) <= 16:
        raise ConfigError(f"run.eps_list may have at most 16 entries, got {len(c.eps_list)}")
    if not (c.t_final >= 0 and math.isfinite(c.t_final / min(c.eps_list))):
        raise ConfigError(f"run.t_final must be >= 0 with t_final / eps finite, "
                          f"got {c.t_final}")
    if len(c.momenta) == 0:
        raise ConfigError("run.momenta must not be empty")
    if not c.walk.tau <= 2 ** 53:
        raise ConfigError("walk.tau must be at most 2**53")
    if not c.seed >= 0:
        raise ConfigError(f"seed must be >= 0, got {c.seed}")
    if not all(math.isfinite(c.initial.get(k, 0.0)) for k in ("kx", "ky")):
        raise ConfigError(f"run.initial kx and ky must be finite, got {c.initial}")
    kind = c.initial.get("type", "plane_wave")
    if kind not in ("plane_wave", "delta", "random"):
        raise ConfigError(f"run.initial.type must be one of ('plane_wave', 'delta', 'random'), "
                          f"got {kind!r}")


def config_from_dict(doc, seed: int | None = None) -> ExperimentConfig:
    """ExperimentConfig.from_dict as the loader had it: the config is built field by field
    without its own __post_init__, and checked by the checks above."""
    doc = _ref_object(doc, "config root")
    sections = [(_ref_object(doc.get(name, {}), name), parsers)
                for name, parsers in _REF_SECTIONS.items()]
    try:
        walk = _ref_walk(doc.get("walk"))
        values = {key: parse(section[key]) for section, parsers in sections
                  for key, parse in parsers.items() if key in section}
        if "seed" in doc:
            values["seed"] = _ref_integer("seed")(doc["seed"])
        if seed is not None:
            values["seed"] = seed
    except KeyError as exc:
        raise ConfigError(f"walk section missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    config = object.__new__(ExperimentConfig)
    for f in dataclasses.fields(ExperimentConfig):
        default = (f.default if f.default_factory is dataclasses.MISSING
                   else f.default_factory())
        object.__setattr__(config, f.name, walk if f.name == "walk" else values.get(f.name, default))
    _ref_checks(config)
    return config


def config_load(path, seed: int | None = None) -> ExperimentConfig:
    """ExperimentConfig.load as the loader had it: open(path, "rb").read(), json.loads."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return config_from_dict(doc, seed)


def flat2_scalars(m) -> list[float]:
    """A 2x2 matrix as row-major (re, im) float pairs, one numpy scalar at a time."""
    return [float(x) for entry in np.asarray(m).reshape(-1) for x in (entry.real, entry.imag)]


def rounded_np(coeffs) -> list:
    """The 2x2 matrices ``coeffs`` rounded by np.round(coeffs, 12) on the complex stack, each
    entry kept as it is where that rounding is not finite."""
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1, 2, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        rounded = np.round(coeffs, 12)
    return np.where(np.isfinite(rounded), rounded, coeffs).tolist()


def pde_text(walk: WalkConfig) -> str:
    """The stdout of ``pde`` on ``walk``, rendered by rounded_np and flat2_scalars and
    written by json.dumps."""
    assembly = spacetime_hamiltonian(walk)
    coeffs = rounded_np(assembly.calibration
                        * np.array([t.coeff for t in assembly.terms], dtype=np.complex128))
    rendered = ["d/dt Psi = sum of the terms below (calibration folded in):"]
    for t, coeff in zip(assembly.terms, coeffs):
        mono = [f"{name}^{power}" for name, power in
                (("theta1x", t.thx_power), ("theta1y", t.thy_power),
                 ("d/dx", t.dx_power), ("d/dy", t.dy_power)) if power]
        rendered.append(f"  [{coeff}] " + " ".join(mono))
    terms = [{"dx_power": t.dx_power, "dy_power": t.dy_power, "thx_power": t.thx_power,
              "thy_power": t.thy_power, "matrix": flat2_scalars(t.coeff)}
             for t in assembly.terms]
    return json_text({"calibration": assembly.calibration, "terms": terms,
                      "rendered": rendered, "schema_version": 1}) + "\n"


def hamiltonian_text(walk: WalkConfig) -> str:
    """The stdout of ``hamiltonian`` on ``walk``, rendered by rounded_np and flat2_scalars
    and written by json.dumps."""
    terms, _ = time_hamiltonian(walk)
    rendered = [f"H = sum of {len(terms)} shift-word terms, prefactor included in matrices:"]
    for t, coeff in zip(terms, rounded_np([t.coeff for t in terms])):
        rendered.append(f"  S_x^{t.px} S_y^{t.py} x {coeff}")
    return json_text({"terms": [{"px": t.px, "py": t.py, "matrix": flat2_scalars(t.coeff)}
                                for t in terms],
                      "rendered": rendered, "schema_version": 1}) + "\n"
