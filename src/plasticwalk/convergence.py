"""Convergence experiments and spectral diagnostics.

Errors are measured in per-momentum operator norm, sup over the sampled
grid, comparing the exact walk power against the limit evolution it
should converge to.  Orders are fitted by least squares on
(log eps, log error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .coins import WalkConfig, coin_pair, walk_planes
from .mat2 import _entries_su2, _norm_diff, _phases_su2, _power, exp_herm
from .plastic import spacetime_hamiltonian
from .timelimit import time_hamiltonian
from ._util import CONVERGE_BLOCK, POWER_TOL, check_unitary, k_tiles

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


def _converge(cfg: WalkConfig, hamiltonian, kx, ky, t_final: float,
              eps_list: Sequence[float], what: str) -> ConvergenceResult:
    """sup-norm distance between W^(tau n) and exp(-i H(k) tau n eps) as eps shrinks.

    The step count n = round(T / (tau eps)), tau the walk's, rounds the horizon to a
    whole number of stroboscopic blocks; the induced O(eps) time mismatch is absorbed
    into the fitted order.  W^(tau n) must be unitary to POWER_TOL, and H, named
    ``what`` in errors, Hermitian.  The coin pair is built once an eps, H once a tile of
    ``k_tiles`` at ``CONVERGE_BLOCK`` k-points (a grid of 128^2 is one tile, as is a
    list of 16,384 momenta); each error is the max over the tiles, and every kernel is
    elementwise and gives the same bits at any array size, a one-point tile too
    (``mat2._mul_su2``, ``mat2._square_su2``), so the samples do not depend on the tile
    size.  W, W^(tau n) and the target are in the two-plane form of ``mat2`` and checked
    there; the target is expanded to four entry planes once a tile and horizon, and
    ``_norm_diff`` forms the entries of W^(tau n) minus it in place for the norm.
    """
    tau = cfg.tau
    eps_list = [float(eps) for eps in sorted(eps_list, reverse=True)]
    steps = [tau * max(1, round(t_final / (tau * eps))) for eps in eps_list]
    errors = [0.0] * len(eps_list)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
        pairs = [coin_pair(cfg, eps) for eps in eps_list]
        for _, kx_t, ky_t in k_tiles(kx, ky, CONVERGE_BLOCK):
            h, t = hamiltonian(kx_t, ky_t), None
            for i, (eps, m, pair) in enumerate(zip(eps_list, steps, pairs)):
                w = check_unitary(walk_planes(pair, kx_t, ky_t), "walk symbol", _UNITARITY_TOL)
                walk_pow = check_unitary(_power(w, m), f"W^({tau} n) at n = {m // tau:.3g}",
                                         POWER_TOL)
                if m * eps != t:  # eps that divide the horizon alike share one target
                    t = m * eps
                    target = _entries_su2(check_unitary(exp_herm(h, t, what),
                                                        f"{what} evolution", _UNITARITY_TOL))
                errors[i] = max(errors[i], float(_norm_diff(walk_pow, target).max()))
    samples = list(zip(eps_list, errors))
    slope, intercept, r2 = fit_order(samples)
    return ConvergenceResult(tuple(samples), slope, intercept, r2)


def time_convergence(cfg: WalkConfig, t_final: float, kx, ky,
                     eps_list: Sequence[float]) -> ConvergenceResult:
    """sup-norm distance between W^(tau n) and e^{-i H T} as eps shrinks."""
    _, symbol = time_hamiltonian(cfg)  # raises on gate failure
    return _converge(cfg, symbol, kx, ky, t_final, eps_list, "Hamiltonian")


def spacetime_convergence(cfg: WalkConfig, t_final: float, kx, ky,
                          eps_list: Sequence[float]) -> ConvergenceResult:
    """sup-norm distance between W^(2n) and the calibrated PDE evolution at the walk's (a, b).

    Momenta are physical; the walk symbol is evaluated at lattice phase
    k eps^a internally.  The comparison generator is the calibrated
    order-1 assembly, evolved as exp(G t).
    """
    assembly = spacetime_hamiltonian(cfg)  # raises on gate failure
    if not assembly.terms:
        raise ValueError("every order-1 coefficient group cancels: no generator to converge to")
    return _converge(cfg, assembly.hamiltonian, kx, ky, t_final, eps_list, "PDE generator")


def dispersion(cfg: WalkConfig, eps: float, kx, ky) -> NDArray[np.float64]:
    """Eigenphases of the walk symbol over a momentum grid, one tile of ``k_tiles`` at a time.

    Returns an array of shape broadcast(kx, ky) + (2,), phases in
    (-pi, pi] sorted ascending per momentum; band continuity is not
    enforced.
    """
    bands = np.empty(np.broadcast(np.asarray(kx), np.asarray(ky)).shape + (2,))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
        pair = coin_pair(cfg, eps)
        for tile, kx_t, ky_t in k_tiles(kx, ky):
            w = check_unitary(walk_planes(pair, kx_t, ky_t), "walk symbol", _UNITARITY_TOL)
            bands[tile][..., 0], bands[tile][..., 1] = _phases_su2(w)
    return bands
