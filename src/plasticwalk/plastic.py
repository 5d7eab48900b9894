"""Epsilon-expansion engine for the continuous-spacetime limit.

The squared walk expands as

    W^2 = e^{2 i delta} sum over index tuples of
          eps^(a*suml + b*sumn) nu1 nu2 Gamma1 Gamma2

where each Gamma is a rotation word with sigma_z / sigma_y insertions and
each nu carries (i k)^l (-i theta1 / 2)^n / (l! n!) factors.  Exponent
matching is exact rational arithmetic.  One engine, :func:`_grouped_sums`,
multiplies the Gamma words: orders in (0, 1) must cancel group by group
(divergence gate); order-1 groups assemble into the PDE generator, whose
overall scalar prefactor is calibrated once against the numerical limit
(W^2 - I)/(2 eps).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .coins import WalkConfig, walk_k
from .mat2 import SY, SZ, op_norm, rot
from .timelimit import (ANGLE_TOL, Condition, ConstraintReport, _delta_quantization,
                        _theta_branch)
from ._util import flat2

__all__ = [
    "TermIndex",
    "PdeTerm",
    "PdeAssembly",
    "DivergenceGroup",
    "gamma_hat",
    "enumerate_terms",
    "divergence_residual",
    "check_spacetime_limit",
    "spacetime_hamiltonian",
    "half_half_pde",
    "transport_commutator",
    "cross_term_report",
]


class TermIndex(NamedTuple):
    """Summation indices of one product term in the squared-walk expansion."""

    l1x: int
    l1y: int
    l2x: int
    l2y: int
    n1x: int
    n1y: int
    n2x: int
    n2y: int

    @property
    def sum_l(self) -> int:
        return self.l1x + self.l1y + self.l2x + self.l2y

    @property
    def sum_n(self) -> int:
        return self.n1x + self.n1y + self.n2x + self.n2y

    def order(self, a: Fraction, b: Fraction) -> Fraction:
        return a * self.sum_l + b * self.sum_n

    @property
    def first(self) -> tuple[int, int, int, int]:
        """(lx, ly, nx, ny) of the left walk factor."""
        return (self.l1x, self.l1y, self.n1x, self.n1y)

    @property
    def second(self) -> tuple[int, int, int, int]:
        return (self.l2x, self.l2y, self.n2x, self.n2y)


def _angles(cfg: WalkConfig) -> tuple[float, float, float, float, float, float]:
    jx, jy = cfg.coin_x, cfg.coin_y
    return jx.zeta0, jx.theta0, jx.phi0, jy.zeta0, jy.theta0, jy.phi0


def gamma_hat(cfg: WalkConfig, lx: int, ly: int, nx: int, ny: int) -> NDArray[np.complex128]:
    """Rotation word with sigma insertions at the given index powers.

    Rz(zeta_x) sz^lx sy^nx Ry(theta0x) Rz(phi_x) Rz(zeta_y) sz^ly sy^ny
    Ry(theta0y) Rz(phi_y); sigma powers are reduced mod 2, so shifting
    any index by 2 returns a bit-identical matrix.
    """
    if min(lx, ly, nx, ny) < 0:
        raise ValueError("indices must be nonnegative")
    zx, thx, phx, zy, thy, phy = _angles(cfg)
    word = rot("z", zx)
    if lx % 2:
        word = word @ SZ
    if nx % 2:
        word = word @ SY
    word = word @ rot("y", thx) @ rot("z", phx) @ rot("z", zy)
    if ly % 2:
        word = word @ SZ
    if ny % 2:
        word = word @ SY
    return word @ rot("y", thy) @ rot("z", phy)


def _compositions4(total: int):
    """Weak compositions of ``total`` into four nonnegative parts."""
    for i in range(total + 1):
        for j in range(total - i + 1):
            for k in range(total - i - j + 1):
                yield (i, j, k, total - i - j - k)


def _index_tuples(sum_l: int, sum_n: int):
    for ls in _compositions4(sum_l):
        for ns in _compositions4(sum_n):
            # composition order: (1x, 1y, 2x, 2y)
            yield TermIndex(ls[0], ls[1], ls[2], ls[3], ns[0], ns[1], ns[2], ns[3])


def _sum_pairs(a: Fraction, b: Fraction, low: Fraction, high: Fraction):
    """All (sum_l, sum_n) with low < a*sum_l + b*sum_n <= high, exact arithmetic."""
    a, b = Fraction(a), Fraction(b)
    if b <= 0:
        raise ValueError("b must be positive")
    if a < 0:
        raise ValueError("a must be nonnegative")
    if a == 0:
        # l indices never raise the order: any order in (low, high] hit by
        # pure-n sums would admit infinitely many l tuples
        hits = [n for n in range(int(high / b) + 1) if low < b * n <= high]
        if hits:
            raise ValueError(
                "a = 0 admits infinitely many index tuples; the pure "
                "time scaling belongs to the time-limit machinery")
        return []
    max_l = int(high / a)
    max_n = int(high / b)
    out = []
    for sl in range(max_l + 1):
        for sn in range(max_n + 1):
            if low < a * sl + b * sn <= high:
                out.append((sl, sn))
    return out


def enumerate_terms(a: Fraction, b: Fraction) -> list[TermIndex]:
    """All index tuples of exact order 1 (the terms surviving the limit).

    Exact rational arithmetic; only the all-zero tuple is excluded (it is
    the zeroth-order word, never a correction term).  With a = 0 and 1/b
    not an integer there are no solutions and the list is empty.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        if (Fraction(1) / b).denominator != 1:
            return []
        raise ValueError(
            "a = 0 admits infinitely many index tuples; the pure "
            "time scaling belongs to the time-limit machinery")
    out: list[TermIndex] = []
    for sl, sn in _sum_pairs(a, b, Fraction(0), Fraction(1)):
        if a * sl + b * sn == 1:
            out.extend(_index_tuples(sl, sn))
    return out


def _scalar_coeff(idx: TermIndex) -> complex:
    """nu1 nu2 with the free monomials (k and theta1 powers) stripped."""
    denom = 1
    for p in idx:
        denom *= factorial(p)
    return (1j ** idx.sum_l) * ((-0.5j) ** idx.sum_n) / denom


@dataclass(frozen=True)
class DivergenceGroup:
    """One coefficient group of the squared-walk expansion at order eps^exponent."""

    exponent: Fraction
    kx_power: int
    ky_power: int
    thx_power: int
    thy_power: int
    matrix: NDArray[np.complex128]

    @property
    def norm(self) -> float:
        return float(op_norm(self.matrix))


def _grouped_sums(cfg: WalkConfig, a: Fraction, b: Fraction,
                  keep: Callable[[Fraction], bool]) -> list[DivergenceGroup]:
    """Grouped coefficient sums over the index tuples of order f in (0, 1] with keep(f).

    Terms are grouped by (f, kx power, ky power, theta1x power, theta1y
    power) because momenta and the theta1 drivers are free parameters:
    a group vanishes only if its own sum cancels.
    """
    a, b = Fraction(a), Fraction(b)
    gammas: dict[tuple[int, int, int, int], NDArray[np.complex128]] = {}

    def gam(key):
        if key not in gammas:
            gammas[key] = gamma_hat(cfg, *key)
        return gammas[key]

    groups: dict[tuple, NDArray[np.complex128]] = {}
    for sl, sn in _sum_pairs(a, b, Fraction(0), Fraction(1)):
        order = a * sl + b * sn
        if not keep(order):
            continue
        for idx in _index_tuples(sl, sn):
            key = (order, idx.l1x + idx.l2x, idx.l1y + idx.l2y,
                   idx.n1x + idx.n2x, idx.n1y + idx.n2y)
            acc = groups.setdefault(key, np.zeros((2, 2), dtype=np.complex128))
            acc += _scalar_coeff(idx) * (gam(idx.first) @ gam(idx.second))
    return [DivergenceGroup(k[0], k[1], k[2], k[3], k[4], v)
            for k, v in sorted(groups.items())]


def divergence_residual(cfg: WalkConfig, a: Fraction, b: Fraction) -> tuple[float, list[DivergenceGroup]]:
    """Max norm over the coefficient groups of orders eps^f with 0 < f < 1, and the groups.

    The limit exists only if every group cancels on its own; zero means
    no divergence.
    """
    if cfg.mode != "plastic":
        raise ValueError("divergence analysis applies to plastic-mode configs")
    groups = _grouped_sums(cfg, a, b, lambda f: f < 1)
    return max((g.norm for g in groups), default=0.0), groups


def check_spacetime_limit(cfg: WalkConfig, a: Fraction, b: Fraction,
                          l: int = 0, tol: float = ANGLE_TOL) -> ConstraintReport:
    """Gate for the joint continuous-time + continuous-spacetime limit.

    Four conditions: the theta0 branch with nu = 0 (2 pi m / 2 pi t + pi),
    the total phase quantization cos(2 pi l / tau - delta) = 0, exact
    rational exponents with a usable order-1 term set, and cancellation of
    every fractional-order coefficient group.  Without order-1 terms the
    last condition is not evaluated and reads unsatisfied with residual
    1.0, as exponents_rational does.
    """
    if cfg.mode != "plastic":
        raise ValueError("check_spacetime_limit applies to plastic-mode configs")
    if cfg.tau != 2:
        raise ValueError("the spacetime limit is defined for tau = 2")
    a, b = Fraction(a), Fraction(b)
    try:
        n_terms = len(enumerate_terms(a, b))
    except ValueError:
        n_terms = 0  # a = 0: the scaling belongs to the time-limit machinery
    expo = Condition("exponents_rational", n_terms > 0, 0.0 if n_terms else 1.0,
                     {"a_num": a.numerator, "a_den": a.denominator,
                      "b_num": b.numerator, "b_den": b.denominator,
                      "order_one_terms": n_terms})
    residual = divergence_residual(cfg, a, b)[0] if n_terms else 1.0
    conds = (_theta_branch(cfg, (0,), tol), _delta_quantization(cfg, l, tol), expo,
             Condition("no_divergence", residual <= 1e-10, residual))
    return ConstraintReport(all(c.satisfied for c in conds), conds)


@dataclass(frozen=True)
class PdeTerm:
    """One generator term: matrix coefficient times theta1 powers and derivatives.

    The term contributes  coeff * theta1x^thx * theta1y^thy *
    (i kx)^dx * (i ky)^dy  to the momentum-space generator (before the
    overall calibration constant), i.e. derivatives enter as d/dx = i kx.
    """

    dx_power: int
    dy_power: int
    thx_power: int
    thy_power: int
    coeff: NDArray[np.complex128]

    def to_dict(self) -> dict:
        return {"dx_power": self.dx_power, "dy_power": self.dy_power,
                "thx_power": self.thx_power, "thy_power": self.thy_power,
                "matrix": flat2(self.coeff)}


@dataclass(frozen=True)
class PdeAssembly:
    """Order-1 term assembly plus the calibrated d/dt generator.

    ``terms`` hold the bare Kronecker-delta assembly; the physical
    generator of d/dt Psi = G Psi is ``calibration`` times the bare sum.
    """

    terms: tuple[PdeTerm, ...]
    calibration: float
    theta1x: float
    theta1y: float

    def bare_symbol(self, kx, ky) -> NDArray[np.complex128]:
        kx = np.asarray(kx, dtype=np.float64)
        ky = np.asarray(ky, dtype=np.float64)
        shape = np.broadcast(kx, ky).shape
        out = np.zeros(shape + (2, 2), dtype=np.complex128)
        for term in self.terms:
            mono = ((1j * kx) ** term.dx_power) * ((1j * ky) ** term.dy_power) \
                * (self.theta1x ** term.thx_power) * (self.theta1y ** term.thy_power)
            out = out + np.asarray(mono)[..., None, None] * term.coeff
        return out

    def generator(self, kx, ky) -> NDArray[np.complex128]:
        """Momentum-space d/dt generator (anti-Hermitian on shell)."""
        return self.calibration * self.bare_symbol(kx, ky)

    def hamiltonian(self, kx, ky) -> NDArray[np.complex128]:
        """H(k) = i G(k), the Hermitian generator of i d/dt Psi = H Psi."""
        return 1j * self.generator(kx, ky)

    def derivative_coefficient(self, dx: int, dy: int) -> NDArray[np.complex128]:
        """Bare matrix multiplying d_x^dx d_y^dy with theta1 powers folded in."""
        out = np.zeros((2, 2), dtype=np.complex128)
        for term in self.terms:
            if term.dx_power == dx and term.dy_power == dy:
                out = out + (self.theta1x ** term.thx_power) \
                    * (self.theta1y ** term.thy_power) * term.coeff
        return out

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "calibration": self.calibration,
            "terms": [t.to_dict() for t in self.terms],
        }


def _calibration_exponents(a: Fraction, b: Fraction) -> list[Fraction]:
    """Contamination exponents (relative to eps^1) present in (W^2-I)/(2 eps)."""
    out = set()
    for sl, sn in _sum_pairs(a, b, Fraction(1), Fraction(4)):
        out.add(a * sl + b * sn - 1)
    return sorted(e for e in out if e > 0)


def _fit_lambda(cfg: WalkConfig, assembly_symbol, a: Fraction, b: Fraction) -> float:
    """Least-squares prefactor between the numerical limit and the bare sum.

    The finite-eps quotient carries contamination at known rational
    exponents; Richardson elimination over a geometric eps ladder pushes
    the fit error to ~1e-12 so constancy across configs is testable.
    """
    kappas = [(0.7, -0.3), (0.23, 0.9), (-0.51, 0.42), (0.5, 0.5), (-0.8, -0.15)]
    bare = np.stack([assembly_symbol(kx, ky) for kx, ky in kappas])
    denom = np.vdot(bare, bare)
    exponents = _calibration_exponents(a, b)
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


def spacetime_hamiltonian(cfg: WalkConfig, a: Fraction, b: Fraction) -> PdeAssembly:
    """Assemble the order-1 PDE generator and calibrate its prefactor.

    Requires the spacetime gate to pass (named failing condition
    otherwise).  The terms are the order-1 coefficient groups; the
    calibration constant multiplying the bare assembly is fitted against
    the numerical limit (W^2 - I)/(2 eps).
    """
    a, b = Fraction(a), Fraction(b)
    check_spacetime_limit(cfg, a, b).require("spacetime gate")
    # the group sums carry i^sum_l, which belongs to the (i k)^d monomials of the symbol
    terms = tuple(
        PdeTerm(g.kx_power, g.ky_power, g.thx_power, g.thy_power,
                (-1j) ** (g.kx_power + g.ky_power) * g.matrix)
        for g in _grouped_sums(cfg, a, b, lambda f: f == 1) if g.norm > 1e-13
    )
    theta1x, theta1y = cfg.coin_x.theta1, cfg.coin_y.theta1
    probe = PdeAssembly(terms, 1.0, theta1x, theta1y)
    lam = _fit_lambda(cfg, probe.bare_symbol, a, b)
    return PdeAssembly(terms, lam, theta1x, theta1y)


def half_half_pde(cfg: WalkConfig) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Closed-form transport matrices (Px, Py) of the a = b = 1/2 limit.

    The bare order-1 assembly reduces to first derivatives only,
    d/dt Psi = calibration * (Px d/dx + Py d/dy) Psi, with

        Px = i thx sz Rz(2 zeta_x) sy + i thy sz sy Rz(-2 u)
        Py = i thx sz sy Rz(-2 (phi_x + zeta_y - phi_y)) + i thy sz sy Rz(-2 u)

    where u = zeta_x + zeta_y + phi_x.  Both are Hermitian and, on the
    constraint shell, commute (see :func:`transport_commutator`).
    """
    half = Fraction(1, 2)
    check_spacetime_limit(cfg, half, half).require("a=b=1/2 gate")
    zx, _, phx, zy, _, phy = _angles(cfg)
    thx, thy = cfg.coin_x.theta1, cfg.coin_y.theta1
    u = zx + zy + phx
    px = 1j * thx * SZ @ rot("z", 2.0 * zx) @ SY + 1j * thy * SZ @ SY @ rot("z", -2.0 * u)
    py = 1j * thx * SZ @ SY @ rot("z", -2.0 * (phx + zy - phy)) + 1j * thy * SZ @ SY @ rot("z", -2.0 * u)
    return px, py


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
