"""Span tracer that wraps the public functions of each plasticwalk layer.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each
listed function with a recording wrapper in every ``plasticwalk`` module
namespace that binds it (modules import each other's functions by name,
so patching only the defining module would miss most calls), and
:meth:`Tracer.uninstall` puts the originals back.  Install and uninstall
are cheap, so the runner traces one operation at a time.

A span is ``(name, start, end, parent index, operation id)``.  A span's
self time is its duration minus the durations of its direct children;
spans of one thread nest, so children never overlap.  Work counts are
recorded at the same boundaries; counts marked *computed* are derived
from argument shapes or exponents, not measured inside the program.
"""

from __future__ import annotations

import math
import os
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import numpy as np

LAYERS = ("mat2", "_util", "coins", "timelimit", "lattice", "plastic",
          "convergence", "cli", "config")
CLI_COMMANDS = ("check", "hamiltonian", "pde", "simulate", "converge",
                "dispersion", "terms")


def sum_pairs(a: Fraction, b: Fraction):
    """Yield (sum_l, sum_n, order) for every pair whose order a*sum_l + b*sum_n is at most 1."""
    for sl in range(int(1 / a) + 1):
        for sn in range(int(1 / b) + 1):
            order = a * sl + b * sn
            if order <= 1:
                yield sl, sn, order


def tuple_count(a: Fraction, b: Fraction, keep) -> int:
    """Index tuples whose order is at most 1 and passes ``keep``.

    Each (sum_l, sum_n) pair contributes C(sum_l+3, 3) * C(sum_n+3, 3)
    tuples: the weak compositions of each sum into four parts.
    """
    return sum(math.comb(sl + 3, 3) * math.comb(sn + 3, 3)
               for sl, sn, order in sum_pairs(a, b) if keep(order))


def _matrices(args, kwargs, result) -> int:
    return int(np.prod(np.shape(args[0])[:-2], dtype=np.int64))


def _kpoints(at: int):
    """Counter of the momenta broadcast from positional arguments at, at + 1."""
    def count(args, kwargs, result) -> int:
        return int(np.broadcast(np.asarray(args[at]), np.asarray(args[at + 1])).size)
    return count


def _file_bytes(args, kwargs, result) -> int:
    path = args[1] if len(args) > 1 else args[0]
    return os.path.getsize(path)


def _site_steps(args, kwargs, result) -> int:
    nx, ny = args[0].shape
    return nx * ny


def _stack_power_matmuls(args, kwargs, result) -> int:
    n = int(args[1])
    return _matrices(args, kwargs, result) * (n.bit_length() + bin(n).count("1"))


def _divergence_tuples(args, kwargs, result) -> int:
    return tuple_count(Fraction(args[1]), Fraction(args[2]), lambda order: order > 0)


# (module, attribute, span name, {count name: counter(args, kwargs, result)})
SPECS = (
    ("mat2", "op_norm", "mat2.op_norm", {"matrices": _matrices}),
    ("mat2", "exp_herm", "mat2.exp_herm", {"matrices": _matrices}),
    ("mat2", "eigvals2", "mat2.eigvals2", {"matrices": _matrices}),
    ("_util", "stack_power", "_util.stack_power",
     {"matrices": _matrices, "matmuls": _stack_power_matmuls}),
    ("coins", "walk_k", "coins.walk_k", {"kpoints": _kpoints(1)}),
    ("coins", "coin_at", "coins.coin_at", {}),
    ("timelimit", "check_time_limit", "timelimit.check_time_limit", {}),
    ("timelimit", "time_hamiltonian", "timelimit.time_hamiltonian", {}),
    ("lattice", "step", "lattice.step", {"site_steps": _site_steps}),
    ("lattice", "save_csv", "lattice.save_csv", {"bytes": _file_bytes}),
    ("lattice", "load_csv", "lattice.load_csv", {"bytes": _file_bytes}),
    ("lattice", "save_binary", "lattice.save_binary", {"bytes": _file_bytes}),
    ("lattice", "load_binary", "lattice.load_binary", {"bytes": _file_bytes}),
    ("plastic", "enumerate_terms", "plastic.enumerate_terms",
     {"tuples": lambda args, kwargs, result: len(result)}),
    ("plastic", "divergence_residual", "plastic.divergence_residual",
     {"tuples": _divergence_tuples, "groups": lambda args, kwargs, result: len(result[1])}),
    ("plastic", "gamma_hat", "plastic.gamma_hat", {}),
    ("plastic", "check_spacetime_limit", "plastic.check_spacetime_limit", {}),
    ("plastic", "spacetime_hamiltonian", "plastic.spacetime_hamiltonian", {}),
    ("convergence", "time_convergence", "convergence.time_convergence", {}),
    ("convergence", "spacetime_convergence", "convergence.spacetime_convergence", {}),
    ("convergence", "fit_order", "convergence.fit_order", {}),
    ("convergence", "dispersion", "convergence.dispersion", {"kpoints": _kpoints(2)}),
    ("cli", "main", "cli.main", {}),
) + tuple(("cli", f"cmd_{c}", f"cli.{c}", {}) for c in CLI_COMMANDS)

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit).
_RATES = (  # (span, count, metric): nanoseconds of self time per unit of work
    ("mat2.op_norm", "matrices", "ns_per_matrix"),
    ("mat2.exp_herm", "matrices", "ns_per_matrix"),
    ("mat2.eigvals2", "matrices", "ns_per_matrix"),
    ("_util.stack_power", "matmuls", "ns_per_matmul"),
    ("coins.walk_k", "kpoints", "ns_per_kpoint"),
    ("timelimit.symbol", "kpoints", "ns_per_kpoint"),
    ("lattice.step", "site_steps", "ns_per_site"),
    ("plastic.enumerate_terms", "tuples", "ns_per_tuple"),
    ("plastic.divergence_residual", "tuples", "ns_per_tuple"),
)
_IO = ("lattice.save_csv", "lattice.load_csv", "lattice.save_binary", "lattice.load_binary")
_COUNTS = (
    ("mat2.op_norm", "matrices"), ("mat2.exp_herm", "matrices"), ("mat2.eigvals2", "matrices"),
    ("_util.stack_power", "matrices"), ("_util.stack_power", "matmuls"),
    ("coins.walk_k", "kpoints"), ("coins.coin_at", "calls"),
    ("timelimit.check_time_limit", "calls"), ("timelimit.time_hamiltonian", "calls"),
    ("timelimit.symbol", "kpoints"), ("lattice.step", "site_steps"),
    *((name, "bytes") for name in _IO),
    ("plastic.enumerate_terms", "calls"), ("plastic.enumerate_terms", "tuples"),
    ("plastic.divergence_residual", "calls"), ("plastic.divergence_residual", "tuples"),
    ("plastic.divergence_residual", "groups"), ("plastic.gamma_hat", "calls"),
    ("plastic.check_spacetime_limit", "calls"), ("plastic.spacetime_hamiltonian", "calls"),
    ("convergence.time_convergence", "calls"), ("convergence.spacetime_convergence", "calls"),
    ("convergence.fit_order", "calls"), ("convergence.dispersion", "kpoints"),
    ("config.load", "calls"), ("cli", "output_bytes"),
)
_SELF = tuple(dict.fromkeys(
    [name for _, _, name, _ in SPECS if name != "cli.main"]
    + ["timelimit.symbol", "config.load"]))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = [(f"{span}.{count}", "count") for span, count in _COUNTS]
    out += [(f"{span}.self_s", "s") for span in _SELF]
    out += [(f"{span}.{metric}", "ns") for span, _, metric in _RATES]
    out += [(f"{name}.mib_per_s", "MiB/s") for name in _IO]
    out += [(f"coverage.{layer}_pct", "%") for layer in LAYERS]
    out += [("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    """Records spans and work counts around each layer's public functions."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._sites: list[tuple] = []

    def wrap(self, name: str, fn, counters: dict):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
                counts[f"{name}.calls"] += 1
            for count, counter in counters.items():
                counts[f"{name}.{count}"] += counter(args, kwargs, result)
            if name == "timelimit.time_hamiltonian":
                # the symbol comes back as a closure; its evaluations are spans too
                terms, symbol = result
                result = terms, self.wrap("timelimit.symbol", symbol,
                                          {"kpoints": _kpoints(0)})
            return result

        return traced

    def install(self) -> None:
        if not self._sites:
            self._sites = self._find_sites()
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._sites:
            setattr(owner, key, original)

    def _find_sites(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding of a traced function."""
        import plasticwalk  # noqa: F401  (loads every layer module)
        from plasticwalk.config import ExperimentConfig

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "plasticwalk" or n.startswith("plasticwalk."))]
        sites = []
        for mod_name, attr, span, counters in SPECS:
            original = getattr(sys.modules[f"plasticwalk.{mod_name}"], attr)
            wrapper = self.wrap(span, original, counters)
            sites += [(mod, key, original, wrapper)
                      for mod in modules for key, value in vars(mod).items() if value is original]
        load = ExperimentConfig.__dict__["load"]
        sites.append((ExperimentConfig, "load", load,
                      staticmethod(self.wrap("config.load", load.__func__, {}))))
        return sites

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def metrics(self, op_wall_s: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; ``op_wall_s`` is the traced operations' total wall time."""
        self_s = self.self_times()
        values: dict[str, float] = {}
        for span, count in _COUNTS:
            values[f"{span}.{count}"] = self.counts.get(f"{span}.{count}", 0)
        for span in _SELF:
            values[f"{span}.self_s"] = self_s.get(span, 0.0)
        for span, count, metric in _RATES:
            work = self.counts.get(f"{span}.{count}", 0)
            values[f"{span}.{metric}"] = self_s.get(span, 0.0) * 1e9 / work if work else 0.0
        for name in _IO:
            t = self_s.get(name, 0.0)
            values[f"{name}.mib_per_s"] = self.counts.get(f"{name}.bytes", 0) / 2**20 / t if t else 0.0
        for layer, share in layer_shares(self_s, op_wall_s).items():
            values[f"coverage.{layer}_pct"] = share
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: (values[name], unit) for name, unit in per_layer_names()}


def layer_shares(self_s: dict[str, float], op_wall_s: float) -> dict[str, float]:
    """Percent of operation wall time spent in each layer's own code."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, t in self_s.items():
        shares[name.split(".")[0]] += t
    return {layer: 100.0 * t / op_wall_s for layer, t in shares.items()}
