"""2D+1 discrete-time quantum walks with jet-parametrized coins.

Checks the necessary-and-sufficient conditions for the continuous-time
and continuous-spacetime limits of the split-shift walk, builds the
resulting lattice Hamiltonians and PDE generators, and verifies the
closed forms against brute-force matrix oracles and convergence
experiments.
"""

from .coins import CoinJet, WalkConfig, coin_at, walk_k
from .lattice import SpinorField
from .timelimit import ConstraintReport, HamiltonianTerm, check_time_limit, time_hamiltonian
from .plastic import (
    PdeAssembly,
    PdeTerm,
    TermIndex,
    check_spacetime_limit,
    enumerate_terms,
    divergence_residual,
    half_half_pde,
    spacetime_hamiltonian,
)
from .convergence import ConvergenceResult, dispersion, fit_order, spacetime_convergence, time_convergence

__version__ = "0.1.0"

__all__ = [
    "CoinJet",
    "WalkConfig",
    "coin_at",
    "walk_k",
    "SpinorField",
    "ConstraintReport",
    "HamiltonianTerm",
    "check_time_limit",
    "time_hamiltonian",
    "PdeAssembly",
    "PdeTerm",
    "TermIndex",
    "check_spacetime_limit",
    "enumerate_terms",
    "divergence_residual",
    "half_half_pde",
    "spacetime_hamiltonian",
    "ConvergenceResult",
    "dispersion",
    "fit_order",
    "spacetime_convergence",
    "time_convergence",
    "__version__",
]
