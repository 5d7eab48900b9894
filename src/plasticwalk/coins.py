"""Coin jets and the Fourier-space walk operator.

A coin is the U(2) matrix

    C = e^{i delta} rot('z', zeta) rot('y', theta) rot('z', phi)

whose angles depend on the small parameter eps through a first-order jet.
Two jet modes exist:

* ``time``     -- zeta, theta, phi all expand linearly in eps
                  (lattice spacing held fixed);
* ``plastic``  -- only theta expands, in powers of eps**b with a rational
                  exponent b in (0, 1], and the lattice spacing scales as
                  eps**a.

Angles are stored unreduced (no mod-2pi normalization) so integer
witnesses stay recoverable by the constraint checkers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .mat2 import diag_mul, mul2, rot

__all__ = [
    "CoinJet",
    "WalkConfig",
    "coin_at",
    "walk_k",
]

_MODES = ("time", "plastic")


@dataclass(frozen=True)
class CoinJet:
    """First-order jet of one coin's four angles.

    delta is the eps-independent global phase.  In time mode the angle at
    eps is  w0 + w1 * eps  for each of zeta, theta, phi.  In plastic mode
    zeta and phi are frozen (zeta1 = phi1 = 0) and
    theta(eps) = theta0 + theta1 * eps**b_exp.
    """

    delta: float = 0.0
    zeta0: float = 0.0
    zeta1: float = 0.0
    theta0: float = 0.0
    theta1: float = 0.0
    phi0: float = 0.0
    phi1: float = 0.0
    b_exp: Fraction = Fraction(1)
    mode: str = "time"

    def __post_init__(self):
        for name in ("delta", "zeta0", "zeta1", "theta0", "theta1", "phi0", "phi1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"CoinJet.{name} must be finite")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        b = Fraction(self.b_exp)
        object.__setattr__(self, "b_exp", b)
        if not (0 < b <= 1):
            raise ValueError(f"b_exp must lie in (0, 1], got {b}")
        if self.mode == "time" and b != 1:
            raise ValueError("time mode fixes b_exp = 1")
        if self.mode == "plastic" and (self.zeta1 != 0.0 or self.phi1 != 0.0):
            raise ValueError("plastic mode expands theta only (zeta1 = phi1 = 0)")

    def angles_at(self, eps: float) -> tuple[float, float, float]:
        """(zeta, theta, phi) evaluated at eps."""
        if self.mode == "time":
            return (self.zeta0 + self.zeta1 * eps,
                    self.theta0 + self.theta1 * eps,
                    self.phi0 + self.phi1 * eps)
        step = float(eps) ** float(self.b_exp)
        return (self.zeta0, self.theta0 + self.theta1 * step, self.phi0)


@dataclass(frozen=True)
class WalkConfig:
    """One walk family: two coin jets, stroboscopic step, space scaling.

    The lattice spacing is Delta = eps**a_exp when a_exp > 0, else 1;
    time mode fixes a_exp = 0 (the pure continuous-time scaling).  The
    total phase delta_x + delta_y must be finite: two finite deltas can
    overflow it.
    """

    coin_x: CoinJet
    coin_y: CoinJet
    tau: int = 2
    a_exp: Fraction = Fraction(0)

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        a = Fraction(self.a_exp)
        object.__setattr__(self, "a_exp", a)
        if not (0 <= a <= 1):
            raise ValueError(f"a_exp must lie in [0, 1], got {a}")
        if not math.isfinite(self.delta_sum):
            raise ValueError("delta_x + delta_y must be finite")
        if self.coin_x.mode != self.coin_y.mode:
            raise ValueError("both coins must use the same jet mode")
        if self.mode == "time" and a != 0:
            raise ValueError("time mode fixes a_exp = 0")
        if self.mode == "plastic" and self.coin_x.b_exp != self.coin_y.b_exp:
            raise ValueError("plastic mode requires a common b_exp for both coins")

    @property
    def mode(self) -> str:
        return self.coin_x.mode

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


def coin_at(jet: CoinJet, eps: float) -> NDArray[np.complex128]:
    """Evaluate the U(2) coin matrix at eps (eps = 0 gives the zeroth-order coin)."""
    zeta, theta, phi = jet.angles_at(eps)
    return np.exp(1j * jet.delta) * (rot("z", zeta) @ rot("y", theta) @ rot("z", phi))


def walk_k(cfg: WalkConfig, kx, ky, eps: float) -> NDArray[np.complex128]:
    """One-step walk symbol W(k) = S_x(kx) C_x(eps) S_y(ky) C_y(eps).

    kx, ky broadcast; in plastic mode they are physical momenta and the
    shift phase is k * eps**a.
    """
    spacing = cfg.spacing(eps)
    sx = np.exp(1j * np.asarray(kx, dtype=np.float64) * spacing)
    sy = np.exp(1j * np.asarray(ky, dtype=np.float64) * spacing)
    return mul2(diag_mul(sx, coin_at(cfg.coin_x, eps)), diag_mul(sy, coin_at(cfg.coin_y, eps)))

