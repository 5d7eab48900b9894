"""Continuous-time limit of the walk: constraint gate, anticommutator
closed form, and the lattice Hamiltonian.

The time limit exists iff (i) the two zeroth-order theta angles sit on
opposite branches theta0 = 2 pi m + nu pi / 2 pi t + (1 - nu) pi, (ii)
cos(2 pi l / tau - delta) = 0 for a root-of-unity index l the gate finds,
and (iii) tau is even: on that branch, W0^tau = I.  The resulting
Hamiltonian symbol is -{A, B}/4 built from the first-order expansion
blocks; in real space it is a four-term spin-dependent shift stencil.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .coins import WalkConfig
from .mat2 import SY, diag_mul, rot
from ._util import flat2

__all__ = [
    "Condition",
    "ConstraintReport",
    "HamiltonianTerm",
    "check_time_limit",
    "anticommutator_AB",
    "time_hamiltonian",
]

ANGLE_TOL = 1e-10


@dataclass(frozen=True)
class Condition:
    name: str
    satisfied: bool
    residual: float
    witness: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "satisfied": bool(self.satisfied),
            "residual": float(self.residual),
            "witness": {k: int(v) for k, v in self.witness.items()},
        }


@dataclass(frozen=True)
class ConstraintReport:
    """Pass/fail summary with integer witnesses and numeric residuals."""

    passed: bool
    conditions: tuple[Condition, ...]

    def __getitem__(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "passed": bool(self.passed),
            "conditions": [c.to_dict() for c in self.conditions],
        }

    def require(self, gate: str) -> "ConstraintReport":
        """Return the report if it passed; else raise naming the failing conditions."""
        if not self.passed:
            failing = [c.name for c in self.conditions if not c.satisfied]
            raise ValueError(f"config fails the {gate}: {', '.join(failing)}")
        return self


def _nearest_int(x: float) -> tuple[int, float]:
    n = int(round(x))
    return n, abs(x - n)


def _theta_branch(cfg: WalkConfig, nus: tuple[int, ...]) -> Condition:
    """theta0x = 2 pi m + nu pi, theta0y = 2 pi t + (1 - nu) pi for some nu in ``nus``."""
    best = (np.inf, {})
    for nu in nus:
        m, res_m = _nearest_int((cfg.coin_x.theta0 - nu * np.pi) / (2.0 * np.pi))
        t, res_t = _nearest_int((cfg.coin_y.theta0 - (1 - nu) * np.pi) / (2.0 * np.pi))
        residual = 2.0 * np.pi * max(res_m, res_t)
        if residual < best[0]:
            best = (residual, {"nu": nu, "m": m, "t": t})
    residual, witness = best
    ok = residual <= ANGLE_TOL
    return Condition("theta_branch", ok, residual, witness if ok else {})


def _delta_quantization(cfg: WalkConfig) -> Condition:
    """cos(2 pi l / tau - delta) = 0 for the smallest l >= 0 that can satisfy it.

    That l has 2 pi l / tau = delta + pi/2 (mod pi), and is 0 if delta is not finite.
    Witnesses: l, and the odd multiple p of pi/2 that 2 pi l / tau - delta is.
    """
    r = (cfg.delta_sum + np.pi / 2.0) % np.pi  # reduced mod pi before tau scales it
    x = int(round(cfg.tau * r / np.pi)) % cfg.tau if np.isfinite(r) else 0  # 2 l = x (mod tau)
    l = (x + cfg.tau) // 2 if x % 2 and cfg.tau % 2 else x // 2
    phase = 2.0 * np.pi * l / cfg.tau - cfg.delta_sum
    c_val = abs(np.cos(phase))
    witness = {"l": l}
    if c_val <= ANGLE_TOL:
        witness["p"] = _nearest_int(phase / (np.pi / 2.0))[0]
    return Condition("delta_quantization", c_val <= ANGLE_TOL, float(c_val), witness)


def check_time_limit(cfg: WalkConfig) -> ConstraintReport:
    """Gate for the continuous-time limit; failures are report entries."""
    if cfg.mode != "time":
        raise ValueError("check_time_limit applies to time-mode configs")
    conds = (_theta_branch(cfg, (0, 1)), _delta_quantization(cfg),
             Condition("tau_even", cfg.tau % 2 == 0, float(cfg.tau % 2)))
    return ConstraintReport(all(c.satisfied for c in conds), conds)


def _require_branch(report: ConstraintReport) -> int:
    """The theta0 branch nu the gate found; raises if there is none."""
    if not report["theta_branch"].satisfied:
        raise ValueError("theta0 angles are not on a compliant branch")
    return report["theta_branch"].witness["nu"]


def anticommutator_AB(cfg: WalkConfig, kx, ky) -> NDArray[np.complex128]:
    """Closed form of {A, B} on a compliant theta0 branch.

    {A,B} = -theta1y (Rz(-2 phi0y) + Rz(2 zeta'0x + 2 s phi0x + 2 s zeta'0y)) sy
            -theta1x (Rz(2 zeta'0x) + Rz(2 s zeta'0y - 2 phi0y + 2 s phi0x)) sy
    with s = (-1)^nu for the branch nu the gate finds and zeta'0j = zeta0j - 2 k_j.
    Hermitian; broadcasts over momentum arrays.
    """
    nu = _require_branch(check_time_limit(cfg))
    s = 1.0 if nu == 0 else -1.0
    jx, jy = cfg.coin_x, cfg.coin_y
    kx = np.asarray(kx, dtype=np.float64)
    ky = np.asarray(ky, dtype=np.float64)
    zpx, zpy = np.broadcast_arrays(jx.zeta0 - 2.0 * kx, jy.zeta0 - 2.0 * ky)
    term_y = rot("z", np.full_like(zpx, -2.0 * jy.phi0)) \
        + rot("z", 2.0 * zpx + 2.0 * s * jx.phi0 + 2.0 * s * zpy)
    term_x = rot("z", 2.0 * zpx) \
        + rot("z", 2.0 * s * zpy - 2.0 * jy.phi0 + 2.0 * s * jx.phi0)
    return -(jy.theta1 * term_y + jx.theta1 * term_x) @ SY


@dataclass(frozen=True)
class HamiltonianTerm:
    """One stencil term: shift word S_x^px S_y^py times a fixed 2x2 matrix."""

    px: int
    py: int
    coeff: NDArray[np.complex128]

    def to_dict(self) -> dict:
        return {"px": self.px, "py": self.py, "matrix": flat2(self.coeff)}


def time_hamiltonian(cfg: WalkConfig):
    """Lattice Hamiltonian of the continuous-time limit.

    Returns (terms, symbol): four HamiltonianTerms with shift powers
    (2,0), (0,2s), (0,0), (2,2s) for s = (-1)^nu on the branch nu the
    gate finds, and the Fourier symbol
    H(k) obtained by substituting e^{i(px kx + py ky) sigma_z} for the
    shift words.  H(k) is Hermitian and equals -{A,B}(k)/4, the limit
    i (W^tau - I)/(tau eps).
    """
    nu = _require_branch(check_time_limit(cfg).require("time-limit gate"))
    s = 1 if nu == 0 else -1
    jx, jy = cfg.coin_x, cfg.coin_y

    terms = [
        HamiltonianTerm(2, 0, 0.25 * jx.theta1 * rot("z", 2.0 * jx.zeta0) @ SY),
        HamiltonianTerm(0, 2 * s, 0.25 * jx.theta1
                        * rot("z", 2.0 * s * jy.zeta0 + 2.0 * s * jx.phi0 - 2.0 * jy.phi0) @ SY),
        HamiltonianTerm(0, 0, 0.25 * jy.theta1 * rot("z", -2.0 * jy.phi0) @ SY),
        HamiltonianTerm(2, 2 * s, 0.25 * jy.theta1
                        * rot("z", 2.0 * jx.zeta0 + 2.0 * s * jx.phi0 + 2.0 * s * jy.zeta0) @ SY),
    ]

    def symbol(kx, ky) -> NDArray[np.complex128]:
        kx = np.asarray(kx, dtype=np.float64)
        ky = np.asarray(ky, dtype=np.float64)
        return sum(diag_mul(np.exp(1j * (t.px * kx + t.py * ky)), t.coeff) for t in terms)

    return terms, symbol
