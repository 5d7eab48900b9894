"""Epsilon-expansion engine for the continuous-spacetime limit.

The squared walk expands as

    W^2 = e^{2 i delta} sum over index tuples of
          eps^(a*suml + b*sumn) nu1 nu2 Gamma1 Gamma2

where each Gamma is a rotation word with sigma_z / sigma_y insertions and
each nu carries (i k)^l (-i theta1 / 2)^n / (l! n!) factors.  Exponent
matching is exact rational arithmetic.  One engine, :func:`_group_table`,
builds one table of the coefficient groups of the Gamma words, integer keys
and a (G, 2, 2) stack, one row a group: orders in (0, 1) must cancel group by
group (divergence gate, the norm of the stack); order-1 groups assemble into
the PDE generator.  Its overall prefactor is the closed form
e^{2 i delta} / 2 = -1/2, because the delta gate puts delta at pi/2 mod pi.

A Gamma word depends on the parities of its indices alone.  A total L splits
between the two words as j + (L - j) with weight C(L, j) / L!, and for L > 0
the C(L, j) of either parity of j sum to 2^(L-1).  So the group of totals
(Lx, Ly, Nx, Ny) is i^sum_l (-i/2)^sum_n w(Lx) w(Ly) w(Nx) w(Ny), with
w(0) = 1 and w(L) = 2^(L-1) / L!, times one of 81 class words: the sum of
the word products that the totals' classes (zero, odd, even > 0) allow.
The engine sums per group, not per index tuple: the groups of every
(sum_l, sum_n) pair are rows of one table, built in plain Python and sorted by
their integer keys, and the 81 class words are one complex product of the 256
word products, built once a call: ``pde`` hands the same class words to its gate
and its assembly.  ``tests/oracles.py`` keeps the
tuple-by-tuple loop, the pair-by-pair sums and the table's rows as
``DivergenceGroup`` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, lcm
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
    "gamma_hat",
    "enumerate_terms",
    "divergence_residual",
    "check_spacetime_limit",
    "spacetime_hamiltonian",
    "half_half_pde",
]

# Most index tuples one call may cover: 15x the largest count at denominators up to 8
# (12,870).  check and pde sum per group, so it keeps their refusals where they were
# and bounds the rows of terms.  On a 2-core x86 host check takes about 7 ms at a = 1/45,
# b = 1 (194,579 tuples below order 1); terms at a = b = 1/15 (170,544 rows) about
# 0.05 s as JSON and 0.012 s as CSV, to a file.
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
    """Rz(zeta_x), Ry(theta0x), Rz(phi_x), Rz(zeta_y), Ry(theta0y), Rz(phi_y).

    Two calls of ``rot`` on angle tuples, the four z angles and the two y angles; each
    rotation is a view of one stack, byte for byte the scalar call's matrix.
    """
    zx, thx, phx, zy, thy, phy = _angles(cfg)
    rzx, rpx, rzy, rpy = rot("z", (zx, phx, zy, phy))
    ryx, ryy = rot("y", (thx, thy))
    return rzx, ryx, rpx, rzy, ryy, rpy


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


def _compositions4(total: int) -> list[tuple[int, int, int, int]]:
    """Weak compositions of ``total`` into four nonnegative parts, in lexicographic
    order: the gaps around three bars placed among total + 3 slots."""
    return [(i, j - i - 1, k - j - 1, total + 2 - k)
            for i, j, k in combinations(range(total + 3), 3)]


def _index_tuples(sum_l: int, sum_n: int):
    n_halves = _compositions4(sum_n)
    for ls in _compositions4(sum_l):
        for ns in n_halves:
            # composition order: (1x, 1y, 2x, 2y)
            yield TermIndex(*ls, *ns)


def _integer_orders(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """(A, B, d): the exponents as integers over their common denominator d, a = A/d and
    b = B/d, from their numerators and denominators.  An argument that is not a Fraction
    is converted first."""
    if not isinstance(a, Fraction):
        a = Fraction(a)
    if not isinstance(b, Fraction):
        b = Fraction(b)
    d = lcm(a.denominator, b.denominator)
    return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d


def _pairs(a: Fraction, b: Fraction, order_one: bool) -> tuple[list[tuple[int, int]], int]:
    """The (sum_l, sum_n) pairs of order 1 (``order_one``) or in (0, 1), and their tuple count.

    Orders are integers over the common denominator d, a*sl + b*sn = (A*sl + B*sn)/d,
    with A and B from :func:`_integer_orders` (no Fraction arithmetic), and the order-1
    sl form an arithmetic progression; pairs come sl, then sn, ascending.  Each sum has
    C(sum + 3, 3) weak compositions into four parts.  Raises ValueError as soon as the
    pairs listed so far need more than TUPLE_BUDGET tuples, so a few dozen pairs are
    visited at any d.
    """
    A, B, d = _integer_orders(a, b)
    if A < 0 or B <= 0:  # d > 0, so A and B carry the signs of a and b
        raise ValueError("the exponents need a >= 0 and b > 0")
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


# The (left, right) parities a total splits into, by its class s: 0 (zero) as (0, 0), 1 (odd)
# as (0, 1) or (1, 0), 2 (even > 0) as (0, 0) or (1, 1).  Row 27 s(Lx) + 9 s(Ly) + 3 s(Nx)
# + s(Ny) of _CLASSES marks the word products 16 * left + right that those classes allow.
# It is complex, so the class product is one zgemm with no cast of the matrix per call.
_SPLITS = np.array([[[1, 0], [0, 0]], [[0, 1], [1, 0]], [[1, 0], [0, 1]]], dtype=np.float64)
_CLASSES = np.einsum("aei,bfj,cgk,dhl->abcdefghijkl", *[_SPLITS] * 4).reshape(81, 256) + 0j


def _class_words(cfg: WalkConfig) -> NDArray[np.complex128]:
    """The (81, 2, 2) class words of the walk: one complex product of its 256 word products."""
    words = _words(cfg)
    return (_CLASSES @ (words[:, None] @ words).reshape(256, 4)).reshape(81, 2, 2)


def _group_table(cfg: WalkConfig, a: Fraction, b: Fraction, order_one: bool,
                 class_words: NDArray[np.complex128] | None = None
                 ) -> tuple[list[list[int]], NDArray[np.complex128]]:
    """All coefficient groups of order 1 (``order_one``) or in (0, 1) as one table: the
    integer key [d * f, kx, ky, theta1x, theta1y powers] of each group, ascending, and
    the (G, 2, 2) stack of group matrices, a row per key.  The level d * f = A * sum_l +
    B * sum_n is integer arithmetic on the A, B and common denominator d of
    :func:`_integer_orders`.

    Terms are grouped by these keys because momenta and the theta1 drivers are free
    parameters: a group vanishes only if its own sum cancels.  A tuple's term is
    nu1 nu2 (without the k and theta1 monomials) times gamma_hat(l1x, l1y, n1x, n1y) @
    gamma_hat(l2x, l2y, n2x, n2y); each group is its weight times its class word (module
    docstring), taken from ``class_words`` when given, else from :func:`_class_words`
    once a group exists.  Keys, weights and class-word indices are plain Python, a row
    per group, pair by pair and kx by kx: a Farey-8 scan's tables have a dozen rows at
    the median, too few to pay numpy's fixed cost a call.  A weight is ((scale * w(kx)) *
    w(ky)) * (w(theta1x) * w(theta1y)), each complex times float the bits of numpy's
    loop.  The rows are sorted by their keys, which are unique, and numpy takes only the
    product of the weights and the gathered class words.  Raises ValueError past
    TUPLE_BUDGET tuples, before summing any.
    """
    pairs = _pairs(a, b, order_one)[0]
    if not pairs:
        return [], np.empty((0, 2, 2), dtype=np.complex128)
    if class_words is None:
        class_words = _class_words(cfg)
    A, B, _ = _integer_orders(a, b)
    top = max(map(max, pairs))
    weight = [1.0] + [2 ** (n - 1) / factorial(n) for n in range(1, top + 1)]
    kind = [0] + [2 - n % 2 for n in range(1, top + 1)]  # zero, odd, even > 0
    # the theta1 powers of each sum_n: (theta1x, theta1y, weight, class digits)
    thetas = [[(thx, sn - thx, weight[thx] * weight[sn - thx], 3 * kind[thx] + kind[sn - thx])
               for thx in range(sn + 1)] for sn in range(max(sn for _, sn in pairs) + 1)]
    rows = []
    for sl, sn in pairs:
        level, scale = A * sl + B * sn, (1j ** sl) * ((-0.5j) ** sn)
        heads = [(kx, sl - kx, scale * weight[kx] * weight[sl - kx],
                  27 * kind[kx] + 9 * kind[sl - kx]) for kx in range(sl + 1)]
        rows += [([level, kx, ky, thx, thy], head * w, high + low)
                 for kx, ky, head, high in heads for thx, thy, w, low in thetas[sn]]
    rows.sort()  # by the integer order d * f, then the powers: no two keys are equal
    keys, coeffs, words = zip(*rows)
    n = len(rows)
    return list(keys), np.multiply(np.fromiter(coeffs, np.complex128, n)[:, None, None],
                                   class_words[np.fromiter(words, np.intp, n)])


def divergence_residual(cfg: WalkConfig, a: Fraction, b: Fraction, *,
                        class_words: NDArray[np.complex128] | None = None
                        ) -> tuple[float, NDArray[np.complex128]]:
    """Max norm over the coefficient groups of orders eps^f with 0 < f < 1, and the
    (G, 2, 2) stack of those groups, in the key order of :func:`_group_table`.

    The limit exists only if every group cancels on its own; zero means no divergence,
    and an empty stack (G = 0) reads 0.0.  The norm is taken of the stack at once.
    ``class_words`` are the walk's :func:`_class_words` when the caller has built them.
    """
    if cfg.mode != "plastic":
        raise ValueError("divergence analysis applies to plastic-mode configs")
    matrices = _group_table(cfg, a, b, False, class_words)[1]
    return (float(np.max(op_norm(matrices))) if len(matrices) else 0.0), matrices


def check_spacetime_limit(cfg: WalkConfig, *,
                          class_words: NDArray[np.complex128] | None = None) -> ConstraintReport:
    """Gate for the joint continuous-time + continuous-spacetime limit at the walk's (a, b).

    Four conditions: the theta0 branch with nu = 0 (2 pi m / 2 pi t + pi),
    the total phase quantization cos(2 pi l / tau - delta) = 0, exact
    rational exponents with a usable order-1 term set, and cancellation of
    every fractional-order coefficient group.  Without order-1 terms the
    last condition is not evaluated and reads unsatisfied with residual
    1.0, as exponents_rational does.  ``class_words`` go to
    :func:`divergence_residual`.
    """
    if cfg.mode != "plastic":
        raise ValueError("check_spacetime_limit applies to plastic-mode configs")
    if cfg.tau != 2:
        raise ValueError("the spacetime limit is defined for tau = 2")
    a, b = cfg.a_exp, cfg.b_exp
    # a = 0: the scaling belongs to the time-limit machinery
    n_terms = _pairs(a, b, order_one=True)[1] if a else 0
    expo = Condition("exponents_rational", n_terms > 0, 0.0 if n_terms else 1.0,
                     {"a_num": a.numerator, "a_den": a.denominator,
                      "b_num": b.numerator, "b_den": b.denominator,
                      "order_one_terms": n_terms})
    residual = divergence_residual(cfg, a, b, class_words=class_words)[0] if n_terms else 1.0
    conds = (_theta_branch(cfg, (0,)), _delta_quantization(cfg), expo,
             Condition("no_divergence", residual <= 1e-10, residual))
    return ConstraintReport(conds)


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
            "calibration": self.calibration,
            "terms": [t.to_dict() for t in self.terms],
        }


def spacetime_hamiltonian(cfg: WalkConfig) -> PdeAssembly:
    """Assemble the order-1 PDE generator at the walk's (a, b), with the prefactor CALIBRATION.

    Requires the spacetime gate to pass (named failing condition
    otherwise).  The terms are the order-1 coefficient groups that do not
    vanish.  The class words are built once, for the gate and the terms.
    """
    class_words = _class_words(cfg)
    check_spacetime_limit(cfg, class_words=class_words).require("spacetime gate")
    # the gate leaves order-1 groups; their i^sum_l belongs to the (i k)^d monomials
    keys, matrices = _group_table(cfg, cfg.a_exp, cfg.b_exp, True, class_words)
    terms = tuple(PdeTerm(kx, ky, thx, thy, (-1j) ** (kx + ky) * m)
                  for (_, kx, ky, thx, thy), m, norm in zip(keys, matrices, op_norm(matrices))
                  if norm > 1e-13)
    # Known defect, kept until the gate rejects it (ROADMAP item 1): when every order-1
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
    constraint shell, commute.  A walk at other exponents raises ValueError.
    """
    if not cfg.a_exp == cfg.b_exp == Fraction(1, 2):
        raise ValueError(f"half_half_pde needs a = b = 1/2, got a = {cfg.a_exp}, b = {cfg.b_exp}")
    check_spacetime_limit(cfg).require("a=b=1/2 gate")
    zx, _, phx, zy, _, phy = _angles(cfg)
    thx, thy = cfg.coin_x.theta1, cfg.coin_y.theta1
    u = zx + zy + phx
    px = 1j * thx * SZ @ rot("z", 2.0 * zx) @ SY + 1j * thy * SZ @ SY @ rot("z", -2.0 * u)
    py = 1j * thx * SZ @ SY @ rot("z", -2.0 * (phx + zy - phy)) + 1j * thy * SZ @ SY @ rot("z", -2.0 * u)
    return px, py

