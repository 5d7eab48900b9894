"""Coin jets and the Fourier-space walk operator.

A coin is the U(2) matrix

    C = e^{i delta} rot('z', zeta) rot('y', theta) rot('z', phi)

whose angles are first-order jets  w0 + w1 * s  in the driving step
s = eps**b.  The walk holds the jet mode and its exponents:

* ``time``     -- b = 1 and a = 0: zeta, theta, phi all expand linearly
                  in eps at a fixed lattice spacing;
* ``plastic``  -- only theta expands (zeta1 = phi1 = 0), with a rational
                  b in (0, 1], and the lattice spacing scales as eps**a.

Angles are stored unreduced (no mod-2pi normalization) so integer
witnesses stay recoverable by the constraint checkers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .mat2 import _entries_su2, _from_entries, _mul_su2, rot

__all__ = [
    "CoinJet",
    "WalkConfig",
    "coin_at",
    "coin_pair",
    "walk_planes",
    "walk_k",
]

_MODES = ("time", "plastic")
_ANGLES = ("delta", "zeta0", "zeta1", "theta0", "theta1", "phi0", "phi1")


@dataclass(frozen=True)
class CoinJet:
    """First-order jet of one coin's four angles.

    delta is the eps-independent global phase; zeta, theta and phi are
    w0 + w1 * s at the driving step s of the walk (``WalkConfig.drive``).
    """

    delta: float = 0.0
    zeta0: float = 0.0
    zeta1: float = 0.0
    theta0: float = 0.0
    theta1: float = 0.0
    phi0: float = 0.0
    phi1: float = 0.0

    def __post_init__(self):
        angles = (self.delta, self.zeta0, self.zeta1, self.theta0, self.theta1, self.phi0,
                  self.phi1)
        if not all(map(math.isfinite, angles)):
            name = next(n for n, v in zip(_ANGLES, angles) if not math.isfinite(v))
            raise ValueError(f"CoinJet.{name} must be finite")


@dataclass(frozen=True)
class WalkConfig:
    """One walk family: two coin jets, stroboscopic step, jet mode and scaling.

    The lattice spacing is Delta = eps**a_exp when a_exp > 0, else 1, and
    the coins are driven at s = eps**b_exp.  Time mode fixes a_exp = 0 and
    b_exp = 1; plastic mode expands theta only.  The total phase
    delta_x + delta_y must be finite: two finite deltas can overflow it.
    """

    coin_x: CoinJet
    coin_y: CoinJet
    tau: int = 2
    a_exp: Fraction = Fraction(0)
    b_exp: Fraction = Fraction(1)
    mode: str = "time"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        a, b = self.a_exp, self.b_exp
        if not isinstance(a, Fraction):  # a Fraction is kept as it is
            a = Fraction(a)
            object.__setattr__(self, "a_exp", a)
        if not isinstance(b, Fraction):
            b = Fraction(b)
            object.__setattr__(self, "b_exp", b)
        # a Fraction's denominator is positive: 0 <= a <= 1 is 0 <= p <= q, in integers
        if not (0 <= a.numerator <= a.denominator):
            raise ValueError(f"a_exp must lie in [0, 1], got {a}")
        if not (0 < b.numerator <= b.denominator):
            raise ValueError(f"b_exp must lie in (0, 1], got {b}")
        if not math.isfinite(self.delta_sum):
            raise ValueError("delta_x + delta_y must be finite")
        if self.mode == "time" and a.numerator != 0:
            raise ValueError("time mode fixes a_exp = 0")
        if self.mode == "time" and b.numerator != b.denominator:
            raise ValueError("time mode fixes b_exp = 1")
        x, y = self.coin_x, self.coin_y
        if self.mode == "plastic" and (x.zeta1 != 0.0 or x.phi1 != 0.0
                                       or y.zeta1 != 0.0 or y.phi1 != 0.0):
            raise ValueError("plastic mode expands theta only (zeta1 = phi1 = 0)")

    @property
    def delta_sum(self) -> float:
        """Total global phase delta_x + delta_y."""
        return self.coin_x.delta + self.coin_y.delta

    def spacing(self, eps: float) -> float:
        if self.a_exp > 0:
            if eps <= 0:
                raise ValueError("eps must be positive when the spacing scales as eps**a")
            return float(eps) ** float(self.a_exp)
        return 1.0

    def drive(self, eps: float) -> float:
        """The driving step s = eps**b of both coins' angle jets (eps itself in time mode).

        A negative eps has no real power eps**b at a fractional b.
        """
        if eps < 0 and self.b_exp.denominator != 1:
            raise ValueError(f"eps must be >= 0 when the coins are driven at eps**b with "
                             f"a fractional b, got eps = {eps}, b = {self.b_exp}")
        return float(eps) ** float(self.b_exp)


def coin_at(jet: CoinJet, s: float) -> NDArray[np.complex128]:
    """The U(2) coin matrix at the driving step s (s = 0 gives the zeroth-order coin)."""
    return np.exp(1j * jet.delta) * (rot("z", jet.zeta0 + jet.zeta1 * s)
                                     @ rot("y", jet.theta0 + jet.theta1 * s)
                                     @ rot("z", jet.phi0 + jet.phi1 * s))


def _coin_su2(jet: CoinJet, s: float) -> tuple:
    """The coin at the driving step s in the two-plane form (e^{i delta}, a, b) of ``mat2``:
    a = cos(theta/2) e^{-i(zeta + phi)/2} and b = -sin(theta/2) e^{-i(zeta - phi)/2}.

    Each is computed in np.longdouble (a 64-bit mantissa on x86-64) from the float64
    angles and rounded once: the coin's roundoff is the seed of every long power's.  An
    array of drives s gives arrays a and b, elementwise (numpy's long double functions
    have no vector loops, so an entry is what its drive alone gives).
    """
    zeta, theta, phi = (np.longdouble(w0 + w1 * s) / 2 for w0, w1 in (
        (jet.zeta0, jet.zeta1), (jet.theta0, jet.theta1), (jet.phi0, jet.phi1)))
    return tuple(np.complex128(x) for x in (
        np.exp(1j * np.longdouble(jet.delta)), np.cos(theta) * np.exp(-1j * (zeta + phi)),
        -np.sin(theta) * np.exp(-1j * (zeta - phi))))


def coin_pair(cfg: WalkConfig, eps) -> tuple:
    """(spacing, C_x, C_y) at eps, the coins in the two-plane form: all that W(k) takes
    from eps.

    eps may be an array, a ladder of step sizes: the spacings, and the a and b of each
    coin, are then arrays of its shape, each entry what its eps alone gives bit for bit
    (one ``_coin_su2`` call a coin, on the array of drives), and each coin's g, which
    does not depend on eps, is one scalar.  A scalar eps gives numpy scalars."""
    spacing, s = (np.reshape([f(e) for e in np.ravel(eps)], np.shape(eps))[()]
                  for f in (cfg.spacing, cfg.drive))
    return spacing, _coin_su2(cfg.coin_x, s), _coin_su2(cfg.coin_y, s)


def walk_planes(pair: tuple, kx, ky) -> tuple:
    """W(k) (see :func:`walk_k`) for a :func:`coin_pair`, in the two-plane form (g, a, b).

    diag(e, e*) C is (g, e a, e b) for a coin C = (g, a, b), so W(k) is the two-plane
    product of (S_x C_x) and (S_y C_y), and g = e^{i(delta_x + delta_y)}.
    """
    factors = []
    for k, (g, a, b) in zip((kx, ky), pair[1:]):
        e = np.exp(1j * np.asarray(k, dtype=np.float64) * pair[0])
        factors.append((g, e * a, e * b))
    return _mul_su2(*factors)


def walk_k(cfg: WalkConfig, kx, ky, eps: float) -> NDArray[np.complex128]:
    """One-step walk symbol W(k) = S_x(kx) C_x(eps) S_y(ky) C_y(eps).

    kx, ky broadcast; in plastic mode they are physical momenta and the
    shift phase is k * eps**a.
    """
    return _from_entries(*_entries_su2(walk_planes(coin_pair(cfg, eps), kx, ky)))

