"""Convergence experiments and spectral diagnostics.

Errors are measured in per-momentum operator norm, sup over the sampled
grid, comparing the exact walk power against the limit evolution it
should converge to.  Orders are fitted by least squares on
(log eps, log error).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .coins import WalkConfig, walk_k
from .mat2 import eigvals2, exp_herm, op_norm, unitarity_defect
from .plastic import spacetime_hamiltonian
from .timelimit import time_hamiltonian
from ._util import POWER_TOL, stack_power

__all__ = [
    "ConvergenceResult",
    "fit_order",
    "time_convergence",
    "spacetime_convergence",
    "dispersion",
]

_UNITARITY_TOL = 1e-11


@dataclass(frozen=True)
class ConvergenceResult:
    samples: tuple[tuple[float, float], ...]  # (eps, error), eps decreasing
    slope: float
    intercept: float
    r_squared: float

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "samples": [{"eps": e, "error": err} for e, err in self.samples],
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
        }


def fit_order(samples: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Least-squares slope/intercept/r^2 of log(error) against log(eps).

    Needs samples at three or more distinct eps values, with strictly
    positive errors; an exact zero means the caller hit the floating floor
    and should report that instead of fitting.
    """
    eps = np.array([s[0] for s in samples], dtype=np.float64)
    err = np.array([s[1] for s in samples], dtype=np.float64)
    if len(np.unique(eps)) < 3:
        raise ValueError("need samples at 3 distinct eps values to fit an order")
    if np.any(err <= 0.0):
        raise ValueError("nonpositive error values: agreement is below the floating floor")
    x = np.log(eps)
    y = np.log(err)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def _check_unitary(m: NDArray[np.complex128], what: str, tol: float = _UNITARITY_TOL) -> None:
    defect = float(np.max(unitarity_defect(m)))
    if not defect <= tol:  # a NaN defect fails too
        raise ValueError(f"{what} lost unitarity (defect {defect:.3e})")


def _converge(cfg: WalkConfig, tau: int, h: NDArray[np.complex128], kx, ky,
              t_final: float, eps_list: Sequence[float], target_name: str) -> ConvergenceResult:
    """sup-norm distance between W^(tau n) and exp(-i H tau n eps) as eps shrinks.

    The step count n = round(T / (tau eps)) rounds the horizon to a whole
    number of stroboscopic blocks; the induced O(eps) time mismatch is
    absorbed into the fitted order.  W^(tau n) must be unitary to POWER_TOL,
    as the walk power of ``lattice.evolve`` is.
    """
    samples = []
    for eps in sorted(eps_list, reverse=True):
        n = max(1, round(t_final / (tau * eps)))
        w = walk_k(cfg, kx, ky, eps)
        _check_unitary(w, "walk symbol")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
            walk_pow = stack_power(w, tau * n)
            _check_unitary(walk_pow, f"W^({tau} n) at n = {n:.3g}", POWER_TOL)
        target = exp_herm(h, tau * n * eps)
        _check_unitary(target, target_name)
        err = float(np.max(op_norm(walk_pow - target)))
        samples.append((float(eps), err))
    slope, intercept, r2 = fit_order(samples)
    return ConvergenceResult(tuple(samples), slope, intercept, r2)


def time_convergence(cfg: WalkConfig, t_final: float, kx, ky,
                     eps_list: Sequence[float]) -> ConvergenceResult:
    """sup-norm distance between W^(tau n) and e^{-i H T} as eps shrinks."""
    _, symbol = time_hamiltonian(cfg)  # raises on gate failure
    kx = np.asarray(kx, dtype=np.float64)
    ky = np.asarray(ky, dtype=np.float64)
    return _converge(cfg, cfg.tau, symbol(kx, ky), kx, ky, t_final, eps_list,
                     "Hamiltonian evolution")


def spacetime_convergence(cfg: WalkConfig, a: Fraction, b: Fraction,
                          t_final: float, momenta: Sequence[tuple[float, float]],
                          eps_list: Sequence[float]) -> ConvergenceResult:
    """sup-norm distance between W^(2n) and the calibrated PDE evolution.

    Momenta are physical; the walk symbol is evaluated at lattice phase
    k eps^a internally.  The comparison generator is the calibrated
    order-1 assembly, evolved as exp(G t).
    """
    assembly = spacetime_hamiltonian(cfg, a, b)  # raises on gate failure
    if not assembly.terms:
        raise ValueError("every order-1 coefficient group cancels: no generator to converge to")
    kx = np.array([m[0] for m in momenta], dtype=np.float64)
    ky = np.array([m[1] for m in momenta], dtype=np.float64)
    return _converge(cfg, 2, assembly.hamiltonian(kx, ky), kx, ky, t_final, eps_list,
                     "PDE evolution")


def dispersion(cfg: WalkConfig, eps: float, kx, ky) -> NDArray[np.float64]:
    """Eigenphases of the walk symbol over a momentum grid.

    Returns an array of shape broadcast(kx, ky) + (2,), phases in
    (-pi, pi] sorted ascending per momentum; band continuity is not
    enforced.
    """
    w = walk_k(cfg, kx, ky, eps)
    _check_unitary(w, "walk symbol")
    lam = eigvals2(w)
    phases = np.angle(lam)
    phases = np.where(phases <= -np.pi + 1e-15, phases + 2.0 * np.pi, phases)
    return np.sort(phases, axis=-1)
