"""Epsilon-expansion engine for the continuous-spacetime limit.

The squared walk expands as

    W^2 = e^{2 i delta} sum over index tuples of
          eps^(a*suml + b*sumn) nu1 nu2 Gamma1 Gamma2

where each Gamma is a rotation word with sigma_z / sigma_y insertions and
each nu carries (i k)^l (-i theta1 / 2)^n / (l! n!) factors.  Exponent
matching is exact rational arithmetic.  One engine, :func:`_grouped_sums`,
multiplies the Gamma words: orders in (0, 1) must cancel group by group
(divergence gate); order-1 groups assemble into the PDE generator.  Its
overall prefactor is the closed form e^{2 i delta} / 2 = -1/2, because the
delta gate puts delta at pi/2 mod pi.

A Gamma word depends on the parities of its indices alone, so the engine
forms the 16 parity words in one batched pass and the products of the word
pairs it meets in one batched matmul, and looks each tuple's product up by
its eight index parities.  Every group
belongs to one (sum_l, sum_n) pair; a pair is summed in one numpy pass whose
``np.add.at`` adds the terms in tuple order, so each group sum is bit for
bit the sum of a tuple-by-tuple loop (``tests/oracles.py`` keeps that loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, factorial, gcd, lcm, prod
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .coins import WalkConfig
from .mat2 import SY, SZ, op_norm, rot
from .timelimit import Condition, ConstraintReport, _delta_quantization, _theta_branch
from ._util import flat2

__all__ = [
    "CALIBRATION",
    "TUPLE_BUDGET",
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
]

# Most index tuples one enumeration may visit: 15x the largest count over the
# exponent pairs with denominators up to 8 (12,870).  On a 2-core x86 host,
# check sums the 75,581 tuples below order 1 at a = b = 1/12 in about 0.02 s,
# and the 194,579 at a = 1/45, b = 1 in about 0.13 s.
TUPLE_BUDGET = 200_000

# Prefactor of the order-1 assembly: e^{2 i delta} / 2 with tau = 2, and delta = pi/2 mod pi.
CALIBRATION = -0.5


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


def _angles(cfg: WalkConfig) -> tuple[float, float, float, float, float, float]:
    jx, jy = cfg.coin_x, cfg.coin_y
    return jx.zeta0, jx.theta0, jx.phi0, jy.zeta0, jy.theta0, jy.phi0


def _rotations(cfg: WalkConfig) -> tuple[NDArray[np.complex128], ...]:
    """Rz(zeta_x), Ry(theta0x), Rz(phi_x), Rz(zeta_y), Ry(theta0y), Rz(phi_y)."""
    zx, thx, phx, zy, thy, phy = _angles(cfg)
    return rot("z", zx), rot("y", thx), rot("z", phx), rot("z", zy), rot("y", thy), rot("z", phy)


def _words(cfg: WalkConfig) -> NDArray[np.complex128]:
    """The 16 parity words of :func:`gamma_hat`, word 8 lx + 4 ly + 2 nx + ny, in one pass.

    A sigma insertion multiplies the words whose parity bit is set, so each word
    takes the matmuls of the one-word chain (kept in ``tests/oracles.py``) in the
    same order, bit for bit.  The head up to Rz(zeta_y) depends on lx and nx alone.
    """
    rzx, ryx, rpx, rzy, ryy, rpy = _rotations(cfg)
    head = np.empty((2, 2, 2, 2), dtype=np.complex128)  # axes lx, nx
    head[...] = rzx
    head[1] = head[1] @ SZ
    head[:, 1] = head[:, 1] @ SY
    words = np.empty((2, 2, 2, 2, 2, 2), dtype=np.complex128)  # axes lx, ly, nx, ny
    words[...] = (head @ ryx @ rpx @ rzy)[:, None, :, None]
    words[:, 1] = words[:, 1] @ SZ
    words[:, :, :, 1] = words[:, :, :, 1] @ SY
    return (words @ ryy @ rpy).reshape(16, 2, 2)


def gamma_hat(cfg: WalkConfig, lx: int, ly: int, nx: int, ny: int) -> NDArray[np.complex128]:
    """Rotation word with sigma insertions at the given index powers.

    Rz(zeta_x) sz^lx sy^nx Ry(theta0x) Rz(phi_x) Rz(zeta_y) sz^ly sy^ny
    Ry(theta0y) Rz(phi_y); sigma powers are reduced mod 2, so shifting
    any index by 2 returns a bit-identical matrix.
    """
    if min(lx, ly, nx, ny) < 0:
        raise ValueError("indices must be nonnegative")
    return _words(cfg)[8 * (lx % 2) + 4 * (ly % 2) + 2 * (nx % 2) + ny % 2]


def _compositions4(total: int) -> NDArray[np.int64]:
    """Weak compositions of ``total`` into four nonnegative parts, one a row, in
    lexicographic order: the gaps around three bars placed among total + 3 slots."""
    bars = np.fromiter(chain.from_iterable(combinations(range(total + 3), 3)),
                       dtype=np.int64).reshape(-1, 3)
    parts = np.empty((len(bars), 4), dtype=np.int64)
    parts[:, 0] = bars[:, 0]
    parts[:, 1:3] = np.diff(bars, axis=1) - 1
    parts[:, 3] = total + 2 - bars[:, 2]
    return parts


def _index_tuples(sum_l: int, sum_n: int):
    n_halves = _compositions4(sum_n).tolist()
    for ls in _compositions4(sum_l).tolist():
        for ns in n_halves:
            # composition order: (1x, 1y, 2x, 2y)
            yield TermIndex(*ls, *ns)


def _pairs(a: Fraction, b: Fraction, order_one: bool) -> tuple[list[tuple[int, int]], int]:
    """The (sum_l, sum_n) pairs of order 1 (``order_one``) or in (0, 1), and their tuple count.

    Orders are integers over the common denominator d, a*sl + b*sn = (A*sl + B*sn)/d,
    and the order-1 sl form an arithmetic progression; pairs come sl, then sn,
    ascending.  Each sum has C(sum + 3, 3) weak compositions into four parts.
    Raises ValueError as soon as the pairs listed so far need more than
    TUPLE_BUDGET tuples, so a few dozen pairs are visited at any d.
    """
    a, b = Fraction(a), Fraction(b)
    if a < 0 or b <= 0:
        raise ValueError("the exponents need a >= 0 and b > 0")
    d = lcm(a.denominator, b.denominator)
    A, B = int(a * d), int(b * d)
    if A == 0:
        # l indices never raise the order, so a pure-n pair in the set (sn = 1/b of
        # order 1, or sn = 1 of order b < 1) admits infinitely many l tuples
        if d % B == 0 if order_one else B < d:
            raise ValueError(
                "a = 0 admits infinitely many index tuples; the pure "
                "time scaling belongs to the time-limit machinery")
        return [], 0
    if order_one:  # A*sl = d (mod B): sl from the inverse of A/g modulo B/g
        g = gcd(A, B)
        step = B // g
        sls = range(d // g * pow(A // g, -1, step) % step, d // A + 1, step) if d % g == 0 else ()
        candidates = ((sl, (d - A * sl) // B) for sl in sls)
    else:
        candidates = ((sl, sn) for sl in range((d - 1) // A + 1)
                      for sn in range(sl == 0, (d - 1 - A * sl) // B + 1))
    pairs, tuples = [], 0
    for sl, sn in candidates:
        tuples += comb(sl + 3, 3) * comb(sn + 3, 3)
        if tuples > TUPLE_BUDGET:
            raise ValueError(f"the exponents need more than {TUPLE_BUDGET} index tuples "
                             f"(the work budget)")
        pairs.append((sl, sn))
    return pairs, tuples


def enumerate_terms(a: Fraction, b: Fraction) -> list[TermIndex]:
    """All index tuples of exact order 1 (the terms surviving the limit).

    Exact rational arithmetic; only the all-zero tuple is excluded (it is
    the zeroth-order word, never a correction term).  With a = 0 and 1/b
    not an integer there are no solutions and the list is empty.  Raises
    ValueError past TUPLE_BUDGET tuples, before enumerating any.
    """
    return [idx for sl, sn in _pairs(a, b, order_one=True)[0] for idx in _index_tuples(sl, sn)]


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


class _Half(NamedTuple):
    """The l (or n) half of the index tuples of one sum, one entry per composition
    (1x, 1y, 2x, 2y) of the sum, in :func:`_compositions4` order."""

    bits: NDArray[np.int64]  # parities of 1x, 1y, 2x, 2y as bits 5, 4, 1, 0 (an n half)
    x: NDArray[np.int64]     # 1x + 2x
    den: NDArray[np.int64]   # position of the factorial denominator in dens
    dens: list[int]          # the distinct products of the factorials of the parts


def _half(top: NDArray[np.int64], total: int) -> _Half:
    """The half of ``total`` from ``top``, the compositions of a total T >= ``total``: those
    whose last part is at least T - total, less that much, in the same order."""
    cut = top[-1, 0] - total
    parts = top[top[:, 3] >= cut] - [0, 0, 0, cut]
    # the denominator depends on the multiset of the parts alone
    multiset = np.sort(parts, axis=1) @ (total + 1) ** np.arange(4)
    _, first, den = np.unique(multiset, return_index=True, return_inverse=True)
    return _Half((parts & 1) @ np.array([32, 16, 2, 1]), parts[:, 0] + parts[:, 2], den,
                 [prod(map(factorial, parts[i].tolist())) for i in first])


def _grouped_sums(cfg: WalkConfig, a: Fraction, b: Fraction,
                  order_one: bool) -> list[DivergenceGroup]:
    """Grouped coefficient sums over the index tuples of order 1 (``order_one``) or in (0, 1).

    Terms are grouped by (f, kx power, ky power, theta1x power, theta1y
    power) because momenta and the theta1 drivers are free parameters:
    a group vanishes only if its own sum cancels.  Raises ValueError past
    TUPLE_BUDGET tuples, before summing any.

    A tuple's term is nu1 nu2 (without the k and theta1 monomials) times
    gamma_hat(l1x, l1y, n1x, n1y) @ gamma_hat(l2x, l2y, n2x, n2y); the
    scalar is evaluated once per factorial denominator of a pair.
    """
    a, b = Fraction(a), Fraction(b)
    pairs = _pairs(a, b, order_one)[0]
    if not pairs:
        return []
    totals = set().union(*pairs)
    top = _compositions4(max(totals))
    halves = {total: _half(top, total) for total in totals}
    # product index 16 * left word + right word, bits l1x l1y n1x n1y l2x l2y n2x n2y:
    # 4 * (bits of the l half) + bits of the n half
    codes = [(4 * halves[sl].bits[:, None] + halves[sn].bits).ravel() for sl, sn in pairs]
    used = np.flatnonzero(np.bincount(np.concatenate(codes), minlength=256))
    words = _words(cfg)
    products = np.empty((256, 2, 2), dtype=np.complex128)
    products[used] = words[used >> 4] @ words[used & 15]

    d = lcm(a.denominator, b.denominator)
    A, B = int(a * d), int(b * d)
    groups = []
    for (sl, sn), code in zip(pairs, codes):
        ls, ns = halves[sl], halves[sn]
        scale = (1j ** sl) * ((-0.5j) ** sn)
        coeffs = np.array([[scale / (dl * dn) for dn in ns.dens] for dl in ls.dens])
        terms = coeffs[ls.den[:, None], ns.den].reshape(-1, 1, 1) * products[code]
        acc = np.zeros(((sl + 1) * (sn + 1), 2, 2), dtype=np.complex128)
        np.add.at(acc, (ls.x[:, None] * (sn + 1) + ns.x).ravel(), terms)
        level = A * sl + B * sn
        order = Fraction(level, d)
        for g, m in enumerate(acc):
            kx, thx = divmod(g, sn + 1)
            groups.append(((level, kx, sl - kx, thx, sn - thx), order, m))
    groups.sort(key=lambda group: group[0])  # the integer order d * f, then the powers
    return [DivergenceGroup(order, *key[1:], m) for key, order, m in groups]


def divergence_residual(cfg: WalkConfig, a: Fraction, b: Fraction) -> tuple[float, list[DivergenceGroup]]:
    """Max norm over the coefficient groups of orders eps^f with 0 < f < 1, and the groups.

    The limit exists only if every group cancels on its own; zero means
    no divergence.
    """
    if cfg.mode != "plastic":
        raise ValueError("divergence analysis applies to plastic-mode configs")
    groups = _grouped_sums(cfg, a, b, order_one=False)
    if not groups:
        return 0.0, groups
    return float(np.max(op_norm(np.stack([g.matrix for g in groups])))), groups


def check_spacetime_limit(cfg: WalkConfig, a: Fraction, b: Fraction) -> ConstraintReport:
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
    # a = 0: the scaling belongs to the time-limit machinery
    n_terms = _pairs(a, b, order_one=True)[1] if a else 0
    expo = Condition("exponents_rational", n_terms > 0, 0.0 if n_terms else 1.0,
                     {"a_num": a.numerator, "a_den": a.denominator,
                      "b_num": b.numerator, "b_den": b.denominator,
                      "order_one_terms": n_terms})
    residual = divergence_residual(cfg, a, b)[0] if n_terms else 1.0
    conds = (_theta_branch(cfg, (0,)), _delta_quantization(cfg), expo,
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
    """Order-1 term assembly and the d/dt generator it defines.

    ``terms`` hold the bare Kronecker-delta assembly; the physical
    generator of d/dt Psi = G Psi is ``calibration`` (CALIBRATION, the
    closed-form -1/2) times the bare sum.
    """

    terms: tuple[PdeTerm, ...]
    calibration: float
    theta1x: float
    theta1y: float

    def generator(self, kx, ky) -> NDArray[np.complex128]:
        """Momentum-space d/dt generator (anti-Hermitian on shell)."""
        kx = np.asarray(kx, dtype=np.float64)
        ky = np.asarray(ky, dtype=np.float64)
        out = np.zeros(np.broadcast(kx, ky).shape + (2, 2), dtype=np.complex128)
        for term in self.terms:
            mono = ((1j * kx) ** term.dx_power) * ((1j * ky) ** term.dy_power) \
                * (self.theta1x ** term.thx_power) * (self.theta1y ** term.thy_power)
            out = out + np.asarray(mono)[..., None, None] * term.coeff
        return self.calibration * out

    def hamiltonian(self, kx, ky) -> NDArray[np.complex128]:
        """H(k) = i G(k), the Hermitian generator of i d/dt Psi = H Psi."""
        return 1j * self.generator(kx, ky)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "calibration": self.calibration,
            "terms": [t.to_dict() for t in self.terms],
        }


def spacetime_hamiltonian(cfg: WalkConfig, a: Fraction, b: Fraction) -> PdeAssembly:
    """Assemble the order-1 PDE generator with the closed-form prefactor CALIBRATION.

    Requires the spacetime gate to pass (named failing condition
    otherwise).  The terms are the order-1 coefficient groups that do not
    vanish.
    """
    a, b = Fraction(a), Fraction(b)
    check_spacetime_limit(cfg, a, b).require("spacetime gate")
    # the group sums carry i^sum_l, which belongs to the (i k)^d monomials of the symbol
    terms = tuple(
        PdeTerm(g.kx_power, g.ky_power, g.thx_power, g.thy_power,
                (-1j) ** (g.kx_power + g.ky_power) * g.matrix)
        for g in _grouped_sums(cfg, a, b, order_one=True) if g.norm > 1e-13
    )
    # Known defect, kept until the gate rejects it (ROADMAP item 2): when every order-1
    # group cancels (compliant a + b > 1) there are no terms, and the calibration reads
    # NaN, as the 0/0 of the earlier numerical fit did.
    calibration = CALIBRATION if terms else float("nan")
    return PdeAssembly(terms, calibration, cfg.coin_x.theta1, cfg.coin_y.theta1)


def half_half_pde(cfg: WalkConfig) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Closed-form transport matrices (Px, Py) of the a = b = 1/2 limit.

    The bare order-1 assembly reduces to first derivatives only,
    d/dt Psi = calibration * (Px d/dx + Py d/dy) Psi, with

        Px = i thx sz Rz(2 zeta_x) sy + i thy sz sy Rz(-2 u)
        Py = i thx sz sy Rz(-2 (phi_x + zeta_y - phi_y)) + i thy sz sy Rz(-2 u)

    where u = zeta_x + zeta_y + phi_x.  Both are Hermitian and, on the
    constraint shell, commute.
    """
    half = Fraction(1, 2)
    check_spacetime_limit(cfg, half, half).require("a=b=1/2 gate")
    zx, _, phx, zy, _, phy = _angles(cfg)
    thx, thy = cfg.coin_x.theta1, cfg.coin_y.theta1
    u = zx + zy + phx
    px = 1j * thx * SZ @ rot("z", 2.0 * zx) @ SY + 1j * thy * SZ @ SY @ rot("z", -2.0 * u)
    py = 1j * thx * SZ @ SY @ rot("z", -2.0 * (phx + zy - phy)) + 1j * thy * SZ @ SY @ rot("z", -2.0 * u)
    return px, py

