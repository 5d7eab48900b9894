"""Continuous-time limit of the walk: constraint gate, eigenvalue
mechanism, anticommutator closed form, and the lattice Hamiltonian.

The time limit exists iff (i) the two zeroth-order theta angles sit on
opposite branches theta0 = 2 pi m + nu pi / 2 pi t + (1 - nu) pi, (ii)
the total phase satisfies cos(2 pi l / tau - delta) = 0 (an odd multiple
of pi/2 away from 2 pi l / tau), and (iii) tau is even.  The resulting
Hamiltonian symbol is -{A, B}/4 built from the first-order expansion
blocks; in real space it is a four-term spin-dependent shift stencil.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .coins import WalkConfig, first_order_blocks
from .mat2 import SY, diag_mul, eigvals2, op_norm, rot
from ._util import flat2, stack_power

__all__ = [
    "Condition",
    "ConstraintReport",
    "HamiltonianTerm",
    "check_time_limit",
    "constraint_f",
    "roots_of_unity_residual",
    "odd_tau_gap",
    "anticommutator_AB",
    "time_hamiltonian",
    "walk_block",
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

    @property
    def witnesses(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.conditions:
            out.update(c.witness)
        return out

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


def _theta_branch(cfg: WalkConfig, nus: tuple[int, ...], tol: float) -> Condition:
    """theta0x = 2 pi m + nu pi, theta0y = 2 pi t + (1 - nu) pi for some nu in ``nus``."""
    best = (np.inf, {})
    for nu in nus:
        m, res_m = _nearest_int((cfg.coin_x.theta0 - nu * np.pi) / (2.0 * np.pi))
        t, res_t = _nearest_int((cfg.coin_y.theta0 - (1 - nu) * np.pi) / (2.0 * np.pi))
        residual = 2.0 * np.pi * max(res_m, res_t)
        if residual < best[0]:
            best = (residual, {"nu": nu, "m": m, "t": t})
    residual, witness = best
    ok = residual <= tol
    return Condition("theta_branch", ok, residual, witness if ok else {})


def _delta_quantization(cfg: WalkConfig, l: int, tol: float) -> Condition:
    """cos(2 pi l / tau - delta) = 0, with the odd multiple p of pi/2 as witness."""
    phase = 2.0 * np.pi * l / cfg.tau - cfg.delta_sum
    c_val = abs(np.cos(phase))
    witness = {"l": l}
    if c_val <= tol:
        witness["p"] = _nearest_int(phase / (np.pi / 2.0))[0]
    return Condition("delta_quantization", c_val <= tol, float(c_val), witness)


def check_time_limit(cfg: WalkConfig, l: int = 0,
                     tol: float = ANGLE_TOL) -> ConstraintReport:
    """Gate for the continuous-time limit; failures are report entries."""
    if cfg.mode != "time":
        raise ValueError("check_time_limit applies to time-mode configs")
    conds = (_theta_branch(cfg, (0, 1), tol), _delta_quantization(cfg, l, tol),
             Condition("tau_even", cfg.tau % 2 == 0, float(cfg.tau % 2)))
    return ConstraintReport(all(c.satisfied for c in conds), conds)


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


def _require_branch(report: ConstraintReport, nu: int | None) -> int:
    if not report["theta_branch"].satisfied:
        raise ValueError("theta0 angles are not on a compliant branch")
    found = report["theta_branch"].witness["nu"]
    if nu is not None and nu != found:
        raise ValueError(f"config sits on branch nu={found}, not nu={nu}")
    return found


def anticommutator_AB(cfg: WalkConfig, kx, ky,
                      nu: int | None = None) -> NDArray[np.complex128]:
    """Closed form of {A, B} on a compliant theta0 branch.

    {A,B} = -theta1y (Rz(-2 phi0y) + Rz(2 zeta'0x + 2 s phi0x + 2 s zeta'0y)) sy
            -theta1x (Rz(2 zeta'0x) + Rz(2 s zeta'0y - 2 phi0y + 2 s phi0x)) sy
    with s = (-1)^nu and zeta'0j = zeta0j - 2 k_j.  Hermitian; broadcasts
    over momentum arrays.
    """
    nu = _require_branch(check_time_limit(cfg), nu)
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


def time_hamiltonian(cfg: WalkConfig, nu: int | None = None):
    """Lattice Hamiltonian of the continuous-time limit.

    Returns (terms, symbol): four HamiltonianTerms with shift powers
    (2,0), (0,2s), (0,0), (2,2s) for s = (-1)^nu, and the Fourier symbol
    H(k) obtained by substituting e^{i(px kx + py ky) sigma_z} for the
    shift words.  H(k) is Hermitian and equals -{A,B}(k)/4, the limit
    i (W^tau - I)/(tau eps).
    """
    nu = _require_branch(check_time_limit(cfg).require("time-limit gate"), nu)
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
