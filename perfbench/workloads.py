"""Seeded workloads for the plasticwalk benchmark, with their oracles.

Every operation is one call of ``plasticwalk.cli.main(argv)`` on a
generated config file (``--seed`` passed on the command line), except
``snapshot_read``, which calls the ``lattice`` snapshot readers and
writers directly on the field file the preceding ``simulate`` wrote.
A workload is one fixed *pass*: a list of at least ``MIN_PASS_OPS``
operations whose composition (commands, grid and lattice sizes, step
counts, initial-state types, compliance classes) is the same for every
seed; the seed draws the coin angles, momenta, step sizes and the order.
Oracles run after the timed call and outside any span.

Workloads and why they were chosen:

* ``kspace_time`` -- time-mode ``check``/``hamiltonian``/``converge``/
  ``dispersion``.  The Fourier-space path (``mat2``, ``coins.walk_k``,
  ``_util.stack_power``, the ``timelimit`` symbol, ``convergence``) and
  the CLI row emission do nearly all the work; ``plastic`` and
  ``lattice`` stay idle.
* ``lattice_snapshots`` -- ``simulate --output`` on 32^2..512^2 lattices
  (fields of 32 KiB..8 MiB, on both sides of the per-core L2), 5..1000
  steps, each followed by a ``snapshot_read`` (CSV load, binary
  save/load round trip).  The ``lattice`` layer carries both the writes
  and the reads; ``plastic`` and ``stack_power`` are bypassed.
* ``spacetime_scan`` -- plastic-mode ``terms``/``check``/``pde`` over the
  (a, b) plane of Farey fractions with denominators <= 8 (22 x 22 = 484
  pairs), on a compliant and a divergent config per pair, plus
  ``converge`` at a = b = 1/2.  The ``plastic`` term engine and the
  calibration dominate.  The scan stops at denominator 8 because the
  index tuples grow as C(q+8, 8): a = b = 1/8 already costs ~0.3 s per
  ``check`` and a = b = 1/50 does not finish.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from plasticwalk import cli
from plasticwalk import lattice as lat
from plasticwalk.coins import walk_k
from plasticwalk.config import ExperimentConfig
from plasticwalk.mat2 import eigvals2
from plasticwalk.plastic import half_half_pde
from plasticwalk.timelimit import anticommutator_AB

from tracer import sum_pairs, tuple_count

WORKLOADS = ("kspace_time", "lattice_snapshots", "spacetime_scan")
MIN_PASS_OPS = 110  # op_p90_ms needs at least ten operations above the 90th percentile

# Tolerances of the oracles.
ALGEBRA_TOL = 1e-12        # hamiltonian symbol, dispersion phases
FIELD_TOL = 1e-10          # simulate field against the Fourier-space evolution
NORM_DRIFT_TOL = 1e-12
CALIBRATION_TOL = 1e-8     # |calibration + 1/2| on the pairs whose calibration works
TIME_SLOPE = (0.85, 1.15)  # first-order convergence in the time limit
SPACETIME_MIN_SLOPE = 0.3

# Known defects of the program at the commit that added this benchmark
# (see NOTES.md).  Each is tied to the operations it occurs on: the command,
# the exponent pair and the config class, and to the kind of failure.  Such
# failures still count in ``failed``; any other failure makes the run report
# ``"correct": false``.
#
# * ``check`` on a pair without order-1 terms prints the gate residual as
#   ``Infinity`` (both classes, every draw): kind "infinity".
# * ``pde`` on a gate-passing compliant pair with a + b > 1 has no terms and
#   a NaN calibration on every draw: kind "nan".
# * On the other gate-passing pairs (compliant with a + b = 1, divergent
#   with b = 1) the Richardson calibration is off -1/2 by more than
#   CALIBRATION_TOL ("off") or has an imaginary part that makes ``pde`` end
#   in an uncaught RuntimeError ("non-real"), depending on the draw.  Its
#   error is heavy-tailed (divergent a = 1/2, b = 1 fails on 0.55% of
#   draws, up to 1.8e-6 off), so no list of the pairs some seeds showed
#   failing holds for every seed.  Both kinds are known on all of these
#   pairs, except on CALIBRATED_PAIRS.
# * CALIBRATED_PAIRS are the compliant pairs whose calibration works: over
#   20 000 draws each it stayed real and within 5e-10 of -1/2, at least 20
#   times inside CALIBRATION_TOL.  Any failure there is unexpected.
CALIBRATED_PAIRS = frozenset({("1/2", "1/2"), ("1/3", "2/3"), ("2/3", "1/3")})


@dataclass
class Outcome:
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None       # last line of an exception that escaped
    value: object = None           # snapshot_read: (field from CSV, field after round trip)
    out_bytes: int = 0


def failure_kind(reason: str) -> str:
    """The kind of a failure, as the known-defect lists name it, or "other"."""
    if reason.startswith("output is not strict JSON: "):
        return {"Infinity": "infinity", "NaN": "nan"}.get(reason.rsplit(" ", 1)[1], "other")
    if reason.startswith("exception escaped: RuntimeError: calibration constant came out non-real"):
        return "non-real"
    if reason.startswith("calibration ") and reason.endswith(" is not -1/2"):
        return "off"
    return "other"


def pde_known(a: Fraction, b: Fraction, compliant: bool) -> frozenset[str]:
    """Failure kinds that are known defects of ``pde`` on this pair and class."""
    if compliant and a + b > 1:
        return frozenset({"nan"})
    if compliant and (str(a), str(b)) in CALIBRATED_PAIRS:
        return frozenset()
    return frozenset({"non-real", "off"})


@dataclass
class Op:
    command: str
    label: str
    call: Callable[[], Outcome]
    verify: Callable[[Outcome], str | None]
    expect_exit: int = 0
    cleanup: list[str] = field(default_factory=list)
    known: frozenset[str] = frozenset()  # failure kinds that are known defects here

    def known_defect(self, reason: str) -> bool:
        return failure_kind(reason) in self.known


def judge(op: Op, out: Outcome) -> str | None:
    """Failure reason of one operation, or None when it is correct."""
    if out.error is not None:
        return f"exception escaped: {out.error}"
    if "Traceback" in out.stderr:
        return "traceback on stderr"
    if out.code != op.expect_exit:
        return f"exit code {out.code}, expected {op.expect_exit}"
    try:
        return op.verify(out)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        return f"output does not have the expected form: {exc!r}"


class _NotStrict(ValueError):
    pass


def _reject_constant(name):
    raise _NotStrict(name)


def strict_json(text: str):
    """Parse JSON refusing NaN and infinities: (document, None) or (None, failure reason)."""
    try:
        return json.loads(text, parse_constant=_reject_constant), None
    except _NotStrict as exc:
        return None, f"output is not strict JSON: {exc}"
    except ValueError:
        return None, "output is not JSON"


def _cli_call(argv: list[str], files: tuple[str, ...] = ()) -> Callable[[], Outcome]:
    def call() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        result = Outcome()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result.code = cli.main(argv)
        except Exception as exc:  # the benchmark counts an escaping exception as a failure
            result.error = traceback.format_exception_only(type(exc), exc)[-1].strip()
        result.stdout, result.stderr = out.getvalue(), err.getvalue()
        result.out_bytes = len(result.stdout) + sum(
            os.path.getsize(f) for f in files if os.path.exists(f))
        return result
    return call


def parse(doc: dict) -> ExperimentConfig:
    return ExperimentConfig.from_dict(doc)


class _Builder:
    """Writes config files and assembles CLI operations."""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.n = 0

    def config(self, doc: dict) -> str:
        path = os.path.join(self.workdir, f"cfg{self.n:05d}.json")
        self.n += 1
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        return path

    def cli_op(self, command: str, label: str, doc: dict, verify, expect_exit: int = 0,
               fmt: str = "json", output: str | None = None,
               known: frozenset[str] = frozenset()) -> Op:
        argv = ["--config", self.config(doc), "--seed", str(self.seed), "--format", fmt]
        files: tuple[str, ...] = ()
        if output is not None:
            argv += ["--output", output]
            files = (output, output + ".field.csv")
        argv.append(command)
        return Op(command, label, _cli_call(argv, files), verify, expect_exit,
                  cleanup=list(files), known=known)


# ----------------------------------------------------------------------------
# config documents


def _coin(delta, zeta0, theta0, theta1, phi0, zeta1=0.0, phi1=0.0, b="1/1") -> dict:
    return {"delta": float(delta), "zeta0": float(zeta0), "zeta1": float(zeta1),
            "theta0": float(theta0), "theta1": float(theta1), "phi0": float(phi0),
            "phi1": float(phi1), "b": b}


def _signed(rng) -> float:
    """A theta1 rate bounded away from zero, so limits converge visibly."""
    return float(rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]))


def time_walk(rng, tau: int, compliant: bool) -> dict:
    """Time-mode walk section; compliant draws satisfy the gate exactly."""
    u = lambda: float(rng.uniform(-np.pi, np.pi))  # noqa: E731
    if compliant:
        nu = int(rng.integers(0, 2))
        theta0x = 2.0 * np.pi * int(rng.integers(-2, 3)) + nu * np.pi
        theta0y = 2.0 * np.pi * int(rng.integers(-2, 3)) + (1 - nu) * np.pi
        delta = -(2 * int(rng.integers(-2, 3)) + 1) * np.pi / 2.0
    else:
        while True:  # bounded away from both theta0 branches
            theta0x, theta0y = u(), u()
            gap = (theta0x - theta0y) % (2.0 * np.pi)
            if min(abs(gap - np.pi), abs(theta0x % np.pi), abs(theta0y % np.pi)) > 0.3:
                break
        delta = u()
    dx = u()
    coins = [_coin(d, u(), th, _signed(rng), u(), float(rng.uniform(-1, 1)),
                   float(rng.uniform(-1, 1)))
             for d, th in ((dx, theta0x), (delta - dx, theta0y))]
    return {"mode": "time", "tau": tau, "coin_x": coins[0], "coin_y": coins[1]}


def plastic_walk(rng, a: Fraction, b: Fraction, compliant: bool) -> dict:
    """Plastic walk on the theta0 branch; a1, a2 in pi Z with odd sum iff compliant."""
    if compliant:
        big_a = int(rng.integers(-2, 3))
        big_b = big_a + 1 + 2 * int(rng.integers(-1, 2))
        a1, a2 = (np.pi * big_a, np.pi * big_b)[::int(rng.choice([-1, 1]))]
    else:
        while True:
            a1, a2 = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
            if max(abs(np.cos((a1 - a2) / 2.0)), abs(np.cos((a1 + a2) / 2.0))) > 0.2:
                break
    phx, phy, dx = (float(v) for v in rng.uniform(-np.pi, np.pi, size=3))
    p = 2 * int(rng.integers(-1, 2)) + 1
    bq = f"{b.numerator}/{b.denominator}"
    return {"mode": "plastic", "tau": 2, "a": f"{a.numerator}/{a.denominator}",
            "coin_x": _coin(dx, a2 - phy, 2.0 * np.pi * int(rng.integers(-1, 2)),
                            _signed(rng), phx, b=bq),
            "coin_y": _coin(-p * np.pi / 2.0 - dx, a1 - phx,
                            2.0 * np.pi * int(rng.integers(-1, 2)) + np.pi,
                            _signed(rng), phy, b=bq)}


# ----------------------------------------------------------------------------
# oracles


def _expect_rejection(out: Outcome) -> str | None:
    return None if out.stderr.strip() else "exit 1 without a message on stderr"


def _check_report(expect_pass: bool, order_one_terms: int | None = None):
    def verify(out: Outcome) -> str | None:
        doc, bad = strict_json(out.stdout)
        if bad:
            return bad
        if doc.get("passed") is not expect_pass:
            return f"gate passed={doc.get('passed')}, expected {expect_pass}"
        if order_one_terms is not None:
            expo = [c for c in doc["conditions"] if c["name"] == "exponents_rational"][0]
            if expo["witness"]["order_one_terms"] != order_one_terms:
                return f"order_one_terms {expo['witness']['order_one_terms']} != {order_one_terms}"
        return None
    return verify


def _hamiltonian_oracle(cfg: ExperimentConfig, rng):
    ks = rng.uniform(-np.pi, np.pi, size=(2, 16))

    def verify(out: Outcome) -> str | None:
        doc, bad = strict_json(out.stdout)
        if bad:
            return bad
        kx, ky = ks
        sym = np.zeros((16, 2, 2), dtype=np.complex128)
        for term in doc["terms"]:
            m = np.array(term["matrix"]).view(np.complex128).reshape(2, 2)
            phase = term["px"] * kx + term["py"] * ky
            sym[:, 0, :] += np.exp(1j * phase)[:, None] * m[0]
            sym[:, 1, :] += np.exp(-1j * phase)[:, None] * m[1]
        want = -anticommutator_AB(cfg.walk, kx, ky) / 4.0
        err = float(np.max(np.abs(sym - want)))
        return None if err <= ALGEBRA_TOL else f"symbol differs from -{{A,B}}/4 by {err:.3e}"
    return verify


def _time_converge_oracle(n_eps: int):
    def verify(out: Outcome) -> str | None:
        doc, bad = strict_json(out.stdout)
        if bad:
            return bad
        if len(doc["samples"]) != n_eps:
            return f"{len(doc['samples'])} samples, expected {n_eps}"
        lo, hi = TIME_SLOPE
        return None if lo <= doc["slope"] <= hi else f"time-limit slope {doc['slope']:.4f}"
    return verify


def _spacetime_converge_oracle(out: Outcome) -> str | None:
    doc, bad = strict_json(out.stdout)
    if bad:
        return bad
    errors = [s["error"] for s in doc["samples"]]
    if any(b >= a for a, b in zip(errors, errors[1:])):
        return "spacetime errors do not strictly decrease"
    if doc["slope"] <= SPACETIME_MIN_SLOPE:
        return f"spacetime slope {doc['slope']:.4f}"
    return None


def _dispersion_oracle(cfg: ExperimentConfig, fmt: str, rng):
    n = cfg.grid
    picks = np.sort(rng.choice(n * n, size=32, replace=False))

    def verify(out: Outcome) -> str | None:
        if fmt == "csv":
            lines = out.stdout.splitlines()
            if lines[0] != "kx,ky,phase1,phase2" or len(lines) != n * n + 1:
                return "bad CSV header or row count"
            rows = np.array([[float(v) for v in lines[1 + i].split(",")] for i in picks])
        else:
            doc, bad = strict_json(out.stdout)
            if bad:
                return bad
            if len(doc["bands"]) != n * n:
                return "bad band row count"
            rows = np.array([[doc["bands"][i][k] for k in ("kx", "ky", "phase1", "phase2")]
                             for i in picks])
        lam = eigvals2(walk_k(cfg.walk, rows[:, 0], rows[:, 1], cfg.eps))
        want = np.angle(lam)
        got = rows[:, 2:]
        # compare as points on the circle, in either band order
        d = lambda x, y: np.abs(np.angle(np.exp(1j * (x - y))))  # noqa: E731
        err = np.minimum(np.maximum(d(got[:, 0], want[:, 0]), d(got[:, 1], want[:, 1])),
                         np.maximum(d(got[:, 0], want[:, 1]), d(got[:, 1], want[:, 0])))
        worst = float(np.max(err))
        return None if worst <= ALGEBRA_TOL else f"phases differ from eigvals2 by {worst:.3e}"
    return verify


def _row_blocks(nx: int) -> list[np.ndarray]:
    return np.array_split(np.arange(nx), max(1, nx // 16))


def initial_field(cfg: ExperimentConfig) -> np.ndarray:
    """The field ``simulate`` starts from, built block by block in one array."""
    nx, ny, init = cfg.nx, cfg.ny, cfg.initial
    out = np.zeros((2, nx, ny), dtype=np.complex128)
    if init["type"] == "delta":
        out[0, 0, 0] = 1.0
    elif init["type"] == "plane_wave":
        for rows in _row_blocks(nx):
            phase = init["kx"] * rows[:, None] + init["ky"] * np.arange(ny)
            out[0, rows] = np.exp(1j * phase) / np.sqrt(nx * ny)
    else:  # SpinorField.random's normal draws: every real part, then every imaginary part
        rng = np.random.default_rng(cfg.seed)
        for part in (out.real, out.imag):
            for spin in range(2):
                for rows in _row_blocks(nx):
                    part[spin, rows] = rng.normal(size=(len(rows), ny))
        out /= np.linalg.norm(out)
    return out


def fourier_evolution(cfg: ExperimentConfig) -> np.ndarray:
    """The simulate final field computed in Fourier space: dft, W(k)^steps, idft.

    Everything happens in place in one field, a block of rows at a time,
    so the oracle stays below the program's own peak memory.
    """
    field = initial_field(cfg)
    for axis in (2, 1):
        np.fft.fft(field, axis=axis, out=field)
    kx, ky = lat.momentum_grid(cfg.nx, cfg.ny)
    for rows in _row_blocks(cfg.nx):
        u = np.linalg.matrix_power(walk_k(cfg.walk, kx[rows], ky, cfg.eps), cfg.steps)
        field[:, rows] = np.einsum("xyab,bxy->axy", u, field[:, rows])
    for axis in (2, 1):
        np.fft.ifft(field, axis=axis, out=field)
    return field


def _simulate_oracle(cfg: ExperimentConfig, output: str):
    def verify(out: Outcome) -> str | None:
        with open(output) as fh:
            doc, bad = strict_json(fh.read())
        if bad:
            return bad
        if doc["steps"] != cfg.steps or doc["field_file"] != os.path.basename(output) + ".field.csv":
            return "summary does not describe the run"
        drift = doc["norm_drift"]
        return None if drift <= NORM_DRIFT_TOL else f"norm drift {drift:.3e}"
    return verify


def _snapshot_call(csv_path: str, bin_path: str) -> Callable[[], Outcome]:
    def call() -> Outcome:
        result = Outcome(code=0)
        try:
            loaded = lat.load_csv(csv_path)
            lat.save_binary(loaded, bin_path)
            result.value = (loaded, lat.load_binary(bin_path))
        except Exception as exc:  # counted as a failure
            result.error = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return result
    return call


def _snapshot_oracle(cfg: ExperimentConfig):
    def verify(out: Outcome) -> str | None:
        loaded, back = (f.data for f in out.value)
        if loaded.shape != back.shape or any(
                loaded[:, rows].tobytes() != back[:, rows].tobytes()
                for rows in _row_blocks(loaded.shape[1])):
            return "binary round trip is not bitwise equal"
        # The round-trip copy is dropped and the oracle field is built here, not
        # held across the run, so the process's peak memory stays the program's.
        out.value = back = None
        expected = fourier_evolution(cfg)
        err = max(float(np.max(np.abs(loaded[:, rows] - expected[:, rows])))
                  for rows in _row_blocks(cfg.nx))
        return None if err <= FIELD_TOL else f"CSV field differs from the Fourier evolution by {err:.3e}"
    return verify


def terms_count(a: Fraction, b: Fraction) -> int:
    """Order-1 tuples: sum of C(sl+3,3) C(sn+3,3) over a*sl + b*sn = 1."""
    return tuple_count(a, b, lambda order: order == 1)


def _terms_oracle(count: int):
    def verify(out: Outcome) -> str | None:
        doc, bad = strict_json(out.stdout)
        if bad:
            return bad
        if doc["count"] != count or len(doc["terms"]) != count:
            return f"terms count {doc['count']}, expected {count}"
        return None
    return verify


def spacetime_gate(a: Fraction, b: Fraction, compliant: bool) -> bool:
    """Expected spacetime gate on a draw that meets the theta0 and delta conditions.

    Order-1 terms must exist.  Fractional-order groups with sum_n = 0
    always cancel, those with sum_l = 0 cancel only on the compliant
    shell (a1, a2 in pi Z with odd sum), and mixed ones never cancel.
    This structure was found by checking every pair of the scan grid on
    several draws of each class.
    """
    if terms_count(a, b) == 0:
        return False
    return not any(sl and sn or (sn and not compliant)
                   for sl, sn, order in sum_pairs(a, b) if 0 < order < 1)


def _pde_oracle(cfg: ExperimentConfig, a: Fraction, b: Fraction):
    def verify(out: Outcome) -> str | None:
        doc, bad = strict_json(out.stdout)
        if bad:
            return bad
        lam = doc["calibration"]
        if not doc["terms"]:
            return "no PDE terms"
        if abs(lam + 0.5) > CALIBRATION_TOL:
            return f"calibration {lam!r} is not -1/2"
        if a == b == Fraction(1, 2):
            thx, thy = cfg.walk.coin_x.theta1, cfg.walk.coin_y.theta1
            got = {(1, 0): np.zeros((2, 2), complex), (0, 1): np.zeros((2, 2), complex)}
            for t in doc["terms"]:
                key = (t["dx_power"], t["dy_power"])
                if key not in got:
                    return f"unexpected derivative order {key} at a = b = 1/2"
                m = np.array(t["matrix"]).view(np.complex128).reshape(2, 2)
                got[key] += thx ** t["thx_power"] * thy ** t["thy_power"] * m
            px, py = half_half_pde(cfg.walk)
            err = max(float(np.max(np.abs(got[(1, 0)] - px))),
                      float(np.max(np.abs(got[(0, 1)] - py))))
            if err > FIELD_TOL:
                return f"a = b = 1/2 assembly differs from half_half_pde by {err:.3e}"
        return None
    return verify


# ----------------------------------------------------------------------------
# workloads


def _interleave(rng, groups: list[list[Op]]) -> list[Op]:
    """Shuffle each group, then merge them so every stretch of the pass has the mix."""
    keyed = []
    for ops in groups:
        order = rng.permutation(len(ops))
        keyed += [((i + rng.uniform()) / len(ops), ops[j]) for i, j in enumerate(order)]
    return [op for _, op in sorted(keyed, key=lambda kv: kv[0])]


# (k-grid side, last eps exponent): eps = 2^-6 .. 2^-end, T = 1/2, so
# 512..8192 walk steps; the pairs are fixed so every seed costs the same
CONVERGE_MIX = ((32, 14), (48, 13), (64, 12), (80, 11), (96, 10),
                (32, 11), (48, 10), (64, 14), (80, 12), (96, 13))


def kspace_time(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    bld = _Builder(workdir, seed)

    def walk(compliant: bool) -> dict:
        return time_walk(rng, int(rng.choice([2, 4])), compliant)

    checks, hams, convs, disps = [], [], [], []
    for i in range(45):
        ok = i % 5 != 0  # one config in five is generic and must be rejected
        w = walk(ok)
        checks.append(bld.cli_op("check", f"check tau={w['tau']}", {"walk": w},
                                 _check_report(ok), expect_exit=0 if ok else 1))
        doc = {"walk": walk(ok)}
        hams.append(bld.cli_op("hamiltonian", f"hamiltonian tau={doc['walk']['tau']}", doc,
                               _hamiltonian_oracle(parse(doc), rng) if ok
                               else _expect_rejection, expect_exit=0 if ok else 1))
    for grid, end in CONVERGE_MIX:
        eps_list = [2.0 ** -k for k in range(6, end + 1)]
        doc = {"walk": walk(True), "run": {"grid": grid, "t_final": 0.5, "eps_list": eps_list}}
        convs.append(bld.cli_op("converge", f"converge grid={grid} eps>=2^-{end}", doc,
                                _time_converge_oracle(len(eps_list))))
    for grid in rng.choice([32, 48, 64, 80, 96], size=2):
        doc = {"walk": walk(False), "run": {"grid": int(grid), "t_final": 0.5}}
        convs.append(bld.cli_op("converge", f"converge grid={grid} generic", doc,
                                _expect_rejection, expect_exit=1))
    for i, (grid, fmt) in enumerate((g, f) for g in (64, 96, 128, 192, 256) for f in ("csv", "json")):
        doc = {"walk": walk(i % 5 != 0), "run": {"grid": grid, "eps": float(rng.uniform(0.01, 0.2))}}
        disps.append(bld.cli_op("dispersion", f"dispersion grid={grid} {fmt}", doc,
                                _dispersion_oracle(parse(doc), fmt, rng), fmt=fmt))
    return _interleave(rng, [checks, hams, convs, disps])


# (lattice side, operations per pass); the step counts of one side are
# log-spaced over [5, 1000] and capped so no simulate exceeds 2e6 site-steps
LATTICE_MIX = ((32, 21), (64, 21), (128, 7), (256, 5), (512, 1))
MAX_SITE_STEPS = 2_000_000


def lattice_steps(side: int, count: int) -> list[int]:
    cap = MAX_SITE_STEPS // (side * side)
    return [max(5, min(cap, round(5 * 200 ** (k / max(1, count - 1))))) for k in range(count)]


def lattice_snapshots(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    bld = _Builder(workdir, seed)
    pairs = []
    for side, count in LATTICE_MIX:
        for k, steps in enumerate(lattice_steps(side, count)):
            # the initial state is fixed by position, not drawn: writing a
            # delta's mostly-zero field costs half as much as a dense one
            init = ({"type": "random"},
                    {"type": "plane_wave", "kx": float(rng.uniform(-np.pi, np.pi)),
                     "ky": float(rng.uniform(-np.pi, np.pi))},
                    {"type": "delta"})[k % 3]
            doc = {"walk": time_walk(rng, 2, compliant=k % 5 != 4),
                   "lattice": {"nx": side, "ny": side},
                   "run": {"steps": steps, "eps": float(2.0 ** -rng.uniform(3, 8)),
                           "initial": init}}
            output = os.path.join(bld.workdir, f"sim{len(pairs):04d}.json")
            cfg = parse({**doc, "seed": seed})
            sim = bld.cli_op("simulate", f"simulate {side}^2 x{steps} {init['type']}", doc,
                             _simulate_oracle(cfg, output), output=output)
            csv_path, bin_path = output + ".field.csv", output + ".field.bin"
            sim.cleanup = [output]  # the field CSV stays for the snapshot_read that follows
            read = Op("snapshot_read", f"snapshot_read {side}^2",
                      _snapshot_call(csv_path, bin_path), _snapshot_oracle(cfg),
                      cleanup=[csv_path, bin_path])
            pairs.append((sim, read))
    order = rng.permutation(len(pairs))
    return [op for i in order for op in pairs[i]]


FAREY_8 = sorted({Fraction(p, q) for q in range(1, 9) for p in range(1, q + 1)})
HALF = Fraction(1, 2)


def spacetime_scan(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    bld = _Builder(workdir, seed)
    scan, pdes = [], []
    for a in FAREY_8:
        for b in FAREY_8:
            label = f"a={a} b={b}"
            count = terms_count(a, b)
            for compliant in (True, False):
                kind = "compliant" if compliant else "divergent"
                doc = {"walk": plastic_walk(rng, a, b, compliant)}
                if compliant:
                    scan.append(bld.cli_op("terms", f"terms {label}", doc, _terms_oracle(count)))
                passes = spacetime_gate(a, b, compliant)
                scan.append(bld.cli_op("check", f"check {label} {kind}", doc,
                                       _check_report(passes, count),
                                       expect_exit=0 if passes else 1,
                                       known=frozenset() if count else frozenset({"infinity"})))
                if passes:
                    cfg = parse(doc)
                    pdes.append(bld.cli_op("pde", f"pde {label} {kind}", doc,
                                           _pde_oracle(cfg, a, b),
                                           known=pde_known(a, b, compliant)))
    convs = []
    for _ in range(8):
        momenta = rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 6)), 2)).tolist()
        doc = {"walk": plastic_walk(rng, HALF, HALF, True),
               "run": {"momenta": momenta, "t_final": 0.5}}
        convs.append(bld.cli_op("converge", f"converge a=b=1/2 {len(momenta)} momenta", doc,
                                _spacetime_converge_oracle))
    return _interleave(rng, [scan, pdes, convs])


BUILDERS = {"kspace_time": kspace_time, "lattice_snapshots": lattice_snapshots,
            "spacetime_scan": spacetime_scan}
# Typical seconds per pass, used only to turn --seconds into a number of
# passes that does not depend on how fast the machine happens to be.
PASS_SECONDS = {"kspace_time": 5.0, "lattice_snapshots": 7.0, "spacetime_scan": 12.0}
