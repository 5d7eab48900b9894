"""Convergence experiments and spectral diagnostics.

Errors are measured in per-momentum operator norm, sup over the sampled
grid, comparing the exact walk power against the limit evolution it
should converge to.  Orders are fitted by least squares on
(log eps, log error).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .coins import WalkConfig, coin_pair, walk_planes
from .mat2 import _defect, _entries_su2, _norm_diff, _phases_su2, _power, _rows, exp_herm
from .plastic import spacetime_hamiltonian
from .timelimit import time_hamiltonian
from ._util import CONVERGE_BLOCK, K_BLOCK, POWER_TOL, check_unitary, k_tiles

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


def _row_max(x) -> list[float]:
    """The maximum of each row of x along its leading axis."""
    return x.reshape(len(x), -1).max(axis=1).tolist()


def _failing(x: tuple, tol: float) -> list[bool]:
    """Whether each row of x, in the two-plane form with a leading row axis, fails the
    unitarity check of ``check_unitary`` at ``tol`` (a NaN defect fails too)."""
    return [not d <= tol for d in _row_max(_defect(x))]


def _target(h, times: list[float], checked: int, what: str, shape: tuple) -> tuple:
    """The entry planes of exp(-i H t) at each horizon t of ``times``, a row each (``times``
    shaped to ``shape``), the first ``checked`` of them checked unitary in turn."""
    evolution = exp_herm(h, np.reshape(times, shape), what)
    for u in range(checked):
        check_unitary(_rows(evolution, slice(u, u + 1)), f"{what} evolution", _UNITARITY_TOL)
    return _entries_su2(evolution)


def _converge(cfg: WalkConfig, hamiltonian, kx, ky, t_final: float,
              eps_list: Sequence[float], what: str) -> ConvergenceResult:
    """sup-norm distance between W^(tau n) and exp(-i H(k) tau n eps) as eps shrinks.

    The step count n = round(T / (tau eps)), tau the walk's, rounds the horizon to a
    whole number of stroboscopic blocks; the induced O(eps) time mismatch is absorbed
    into the fitted order.  W^(tau n) must be unitary to POWER_TOL, and H, named
    ``what`` in errors, Hermitian.

    The eps ladder is walked at once: the coins of every eps come from one ``coin_pair``
    on the array of eps, and one loop runs over the tiles of ``k_tiles`` at
    ``CONVERGE_BLOCK`` k-points (a grid of 128^2 is one tile) and, in each, over groups
    of eps with at most ``K_BLOCK`` points between them (one eps a group on a larger
    tile).  A group is a stack, an eps a row: W(k), W^(tau n) by one ``mat2._power`` of
    the group's step counts (the rows share its squarings, each multiplying its own
    product), the target by one ``exp_herm`` of H (built once a tile) at the
    group's distinct horizons, kept while the next group's are the same, and one
    ``_norm_diff`` whose maximum is taken a row; each error is the max over the tiles.
    The kernels are elementwise and give the same bits at any array size, so each sample
    is what its eps alone gives, and the checks raise what eps by eps would raise first,
    a row checked as the walk symbol, then W^(tau n), then its target.
    """
    tau = cfg.tau
    eps_list = [float(eps) for eps in sorted(eps_list, reverse=True)]
    steps = [tau * max(1, round(t_final / (tau * eps))) for eps in eps_list]
    horizons = [m * eps for m, eps in zip(steps, eps_list)]
    errors = [0.0] * len(eps_list)
    grid = np.broadcast(np.asarray(kx), np.asarray(ky))
    size = max(1, K_BLOCK // min(grid.size, CONVERGE_BLOCK))
    groups = [slice(i, i + size) for i in range(0, len(eps_list), size)]
    ladder = (-1,) + (1,) * grid.ndim  # an eps a row, broadcast over a tile
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
        spacing, *coins = coin_pair(cfg, np.reshape(eps_list, ladder))
        for (_, kx_t, ky_t), rows in product(k_tiles(kx, ky, CONVERGE_BLOCK), groups):
            if rows.start == 0:
                h, times = hamiltonian(kx_t, ky_t), None
            w = walk_planes((spacing[rows],) + tuple(_rows(c, rows) for c in coins), kx_t, ky_t)
            failing = _failing(w, _UNITARITY_TOL)
            walk_pow = _power(w, steps[rows])
            failing = [x or y for x, y in zip(failing, _failing(walk_pow, POWER_TOL))]
            first = failing.index(True) if True in failing else len(failing)
            group_times = list(dict.fromkeys(horizons[rows]))
            if first and times != group_times:  # the rows before the first failure reach it
                times = group_times
                target = _target(h, times, len(set(horizons[rows][:first])), what, ladder)
            if first < len(failing):
                m, one = steps[rows][first], slice(first, first + 1)
                check_unitary(_rows(w, one), "walk symbol", _UNITARITY_TOL)
                check_unitary(_rows(walk_pow, one), f"W^({tau} n) at n = {m // tau:.3g}",
                              POWER_TOL)
            row_targets = target if len(times) in (1, len(failing)) else tuple(  # one for all,
                p[[times.index(t) for t in horizons[rows]]] for p in target)  # or a row each
            for i, error in enumerate(_row_max(_norm_diff(walk_pow, row_targets)), rows.start):
                errors[i] = max(errors[i], error)
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
