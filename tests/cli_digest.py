"""One sha256 line per CLI call, to show that two checkouts write the same bytes.

    PYTHONPATH=src python tests/cli_digest.py > digest.txt

Each line is the sha256 of a call's exit code, stdout, stderr, escaped
exception and every file it wrote, then the call's label.  The calls run
``plasticwalk.cli.main`` in-process:

* the matrix: every config under ``tests/golden`` at its own grid and at
  grids 1, 7 and 64, x the seven commands x {JSON, CSV} x {stdout,
  ``--output`` with its side files}, plus ``--help``, no arguments, an
  unknown command, a missing config, the command first, and seven argvs
  that ``cli.main`` leaves to argparse: ``--config=``, ``--conf``,
  ``--seed -1``, an Arabic-Indic seed digit, ``--format`` twice,
  ``--format xml`` and the command twice (796 calls);
* ``terms``, ``check`` and ``pde`` on the plastic_half_compliant config at
  the exponent pairs of ``PAIRS``, x {JSON, CSV} (54 calls): index totals
  of 10 to 13, so the group labels hold two-digit indices, then the
  integer orders at their edges: a = 1/45, b = 1 (194,579 tuples below
  order 1, just under ``TUPLE_BUDGET``), a = b = 1/50 (past it, exit 1)
  and a = 0, b = 1/2 (the "infinitely many" refusal of ``terms``), then
  the largest group tables: a = 1/15, b = 1/12 (2,272 groups below order
  1, the most the budget admits) and a = 1/30, b = 29/30 (a gate table
  of 466 groups and 35 order-1 groups);
* time-mode ``converge`` on the time_compliant and time_tau4_delta0 configs
  at the grids of ``CONVERGE_GRIDS``, x t_final {own (0.5), 0.3} x {JSON,
  CSV} (32 calls): one, two, three and four tiles of
  ``_util.CONVERGE_BLOCK`` k-points, the last a tile of exactly 2**14
  points, with step counts of powers of two (squarings alone) and not;
* ``hamiltonian`` on the time_compliant config on its theta0 branch and
  with the two theta0 swapped (the other branch), with theta1 = 1e300 on
  both coins, and with every zeta0 and phi0 0.0, then -0.0 (6 calls): the
  coefficient stack at the edge of the float range and at signed zeros;
* ``simulate`` on the time_compliant and plastic_half_compliant configs from
  the initial states of ``INITIAL_STATES`` (every golden config starts from
  ``random``), x steps {0, own (20)} x {stdout, ``--output`` with its field
  CSV} (16 calls): the bytes of ``SpinorField.delta`` and ``plane_wave``, as
  built and as evolved;
* ``converge`` at the edges of its eps groups, x {JSON, CSV} x {stdout,
  ``--output`` with its side file} (28 calls): t_final 0.3 on the
  time_compliant and plastic_half_compliant configs (horizons that differ and
  step counts that are not powers of two), plastic momentum lists of the
  lengths of ``LADDER_MOMENTA`` with the 7 default eps (one momentum, and one
  group of 7 eps or two of 6 and 1 at ``_util.K_BLOCK`` points a group), and
  time mode at grid 9 with the 16 eps of ``LADDER_EPS``, one group;
* every ``spacetime_scan`` and ``kspace_time`` operation that
  ``perfbench/workloads.py`` builds at seeds 11 and 9001, with the argv it
  builds (the module is imported, not changed).

That is 4,352 lines.  ``plasticwalk`` is imported from ``PYTHONPATH``, so pointing it at the
``src/`` of another checkout digests that checkout with the same calls.
The calls run in a temporary directory under relative paths, so the
output does not depend on where it is run; running it twice must give
the same lines (the determinism contract).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = ("check", "hamiltonian", "pde", "simulate", "converge", "dispersion", "terms")
GRIDS = (None, 1, 7, 64)  # None: the config's own grid
SEEDS = (11, 9001)
# (a, b) with index totals of 10 to 13: 19,448, 459, 368 and 924 order-1 tuples; then the
# budget edge, the budget refusal and a = 0 with a pure-n pair of order 1; then the largest
# group tables below order 1 and of a gate-passing walk
PAIRS = (("1/10", "1/10"), ("1/12", "1"), ("1", "1/11"), ("1/11", "1/13"),
         ("1/45", "1"), ("1/50", "1/50"), ("0", "1/2"), ("1/15", "1/12"), ("1/30", "29/30"))
WORKLOADS = ("spacetime_scan", "kspace_time")
TIME_CONFIGS = ("time_compliant", "time_tau4_delta0")
CONVERGE_GRIDS = (128, 129, 200, 256)  # 16,384, 16,641, 40,000 and 65,536 k-points
SIMULATE_CONFIGS = ("time_compliant", "plastic_half_compliant")
# 4096 // 7 - 1, 4096 // 7 and 4096 // 7 + 1 momenta about the edge of a group of 7 eps
LADDER_MOMENTA = (1, 584, 585, 586)
LADDER_EPS = tuple(2.0 ** -k for k in range(3, 19))
INITIAL_STATES = ({"type": "delta"}, {"type": "plane_wave", "kx": 0.7, "ky": -1.3})


def _digest(code, stdout: str, stderr: str, error: str | None, files: dict[str, bytes]) -> str:
    h = hashlib.sha256(repr((code, stdout, stderr, error)).encode())
    for name in sorted(files):
        h.update(f"\0{name}\0{len(files[name])}\0".encode())
        h.update(files[name])
    return h.hexdigest()


def _call(main, argv: list[str], outdir: str | None = None) -> str:
    """The digest of ``main(argv)``, with every file it wrote under ``outdir``."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # an escaping exception is part of what is compared
        error = traceback.format_exception_only(type(exc), exc)[-1].strip()
    files = {}
    if outdir is not None:
        for name in sorted(os.listdir(outdir)):
            path = os.path.join(outdir, name)
            with open(path, "rb") as fh:
                files[name] = fh.read()
            os.remove(path)
    return _digest(code, out.getvalue(), err.getvalue(), error, files)


def matrix(main):
    """(label, digest) of the 796 calls on the golden configs."""
    os.makedirs("out", exist_ok=True)
    for config in sorted(p.name for p in GOLDEN.iterdir() if (p / "config.json").is_file()):
        doc = json.loads((GOLDEN / config / "config.json").read_text())
        for grid in GRIDS:
            if grid is not None:
                doc.setdefault("run", {})["grid"] = grid
            with open("config.json", "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
            for command in COMMANDS:
                for fmt in ("json", "csv"):
                    argv = ["--config", "config.json", "--format", fmt]
                    label = f"{config} grid={grid or 'own'} {command} {fmt}"
                    yield f"{label} stdout", _call(main, argv + [command])
                    yield f"{label} --output", _call(
                        main, argv + ["--output", "out/result", command], "out")
    usage = (("--help", ["--help"]), ("no arguments", []),
             ("unknown command", ["--config", "config.json", "bogus"]),
             ("missing config", ["--config", "no-such-config.json", "check"]),
             ("command first", ["check", "--config", "config.json"]))
    # argvs that cli._args leaves to argparse, with what argparse makes of them
    fallback = (("--config=", ["--config=config.json", "check"]),
                ("abbreviated --conf", ["--conf", "config.json", "check"]),
                ("--seed -1", ["--config", "config.json", "--seed", "-1", "check"]),
                ("--seed Arabic-Indic 3", ["--config", "config.json", "--seed", "\u0663", "check"]),
                ("--format twice", ["--config", "config.json", "--format", "csv", "--format",
                                    "json", "check"]),
                ("--format xml", ["--config", "config.json", "--format", "xml", "check"]),
                ("command twice", ["--config", "config.json", "check", "check"]))
    for label, argv in usage + fallback:
        yield label, _call(main, argv)


def exponent_pairs(main):
    """(label, digest) of the 54 plastic calls at the exponent pairs of ``PAIRS``."""
    doc = json.loads((GOLDEN / "plastic_half_compliant" / "config.json").read_text())
    for a, b in PAIRS:
        doc["walk"]["a"] = a
        doc["walk"]["coin_x"]["b"] = doc["walk"]["coin_y"]["b"] = b
        with open("config.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        for command in ("terms", "check", "pde"):
            for fmt in ("json", "csv"):
                yield (f"plastic_half_compliant a={a} b={b} {command} {fmt} stdout",
                       _call(main, ["--config", "config.json", "--format", fmt, command]))


def time_edges(main):
    """(label, digest) of the 38 time-mode calls at converge's tile edges and at the
    extreme and signed-zero angles of ``hamiltonian``."""
    for config, grid, t_final in itertools.product(TIME_CONFIGS, CONVERGE_GRIDS, (None, 0.3)):
        doc = json.loads((GOLDEN / config / "config.json").read_text())
        doc["run"]["grid"] = grid
        if t_final is not None:
            doc["run"]["t_final"] = t_final
        with open("config.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        for fmt in ("json", "csv"):
            yield (f"{config} grid={grid} t_final={t_final or 'own'} converge {fmt} stdout",
                   _call(main, ["--config", "config.json", "--format", fmt, "converge"]))
    doc = json.loads((GOLDEN / "time_compliant" / "config.json").read_text())
    coins = doc["walk"]["coin_x"], doc["walk"]["coin_y"]
    for branch in ("own", "swapped"):
        if branch == "swapped":
            coins[0]["theta0"], coins[1]["theta0"] = coins[1]["theta0"], coins[0]["theta0"]
        for label, keys, value in (("theta1=1e300", ("theta1",), 1e300),
                                   ("zeta0=phi0=0.0", ("zeta0", "phi0"), 0.0),
                                   ("zeta0=phi0=-0.0", ("zeta0", "phi0"), -0.0)):
            changed = json.loads(json.dumps(doc))
            for coin in ("coin_x", "coin_y"):
                changed["walk"][coin].update(dict.fromkeys(keys, value))
            with open("config.json", "w") as fh:
                json.dump(changed, fh, indent=2, sort_keys=True)
            yield (f"time_compliant theta0 {branch} {label} hamiltonian stdout",
                   _call(main, ["--config", "config.json", "hamiltonian"]))


def initial_states(main):
    """(label, digest) of the 16 ``simulate`` calls from the initial states that no golden
    config starts from."""
    os.makedirs("out", exist_ok=True)
    for config, initial, steps in itertools.product(SIMULATE_CONFIGS, INITIAL_STATES,
                                                    (0, None)):
        doc = json.loads((GOLDEN / config / "config.json").read_text())
        doc["run"]["initial"] = initial
        if steps is not None:
            doc["run"]["steps"] = steps
        with open("config.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        label = f"{config} initial={initial['type']} steps={steps if steps is not None else 'own'}"
        argv = ["--config", "config.json"]
        yield f"{label} simulate stdout", _call(main, argv + ["simulate"])
        yield f"{label} simulate --output", _call(
            main, argv + ["--output", "out/result", "simulate"], "out")


def ladder_edges(main):
    """(label, digest) of the 28 ``converge`` calls at the edges of its eps groups."""
    os.makedirs("out", exist_ok=True)
    variants = [("time_compliant", "t_final=0.3", {"t_final": 0.3}),
                ("plastic_half_compliant", "t_final=0.3", {"t_final": 0.3})]
    for n in LADDER_MOMENTA:
        momenta = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2)).tolist()
        variants.append(("plastic_half_compliant", f"momenta={n}",
                         {"momenta": momenta, "eps_list": None}))
    variants.append(("time_compliant", "grid=9 eps_list=16",
                     {"grid": 9, "eps_list": list(LADDER_EPS)}))
    for config, label, run in variants:
        doc = json.loads((GOLDEN / config / "config.json").read_text())
        doc["run"].update(run)
        doc["run"] = {key: value for key, value in doc["run"].items() if value is not None}
        with open("config.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        for fmt in ("json", "csv"):
            argv = ["--config", "config.json", "--format", fmt]
            yield f"{config} {label} converge {fmt} stdout", _call(main, argv + ["converge"])
            yield f"{config} {label} converge {fmt} --output", _call(
                main, argv + ["--output", "out/result", "converge"], "out")


def workload_ops(main, builders):
    """(label, digest) of every operation of the benchmark's CLI workloads."""
    for workload in WORKLOADS:
        for seed in SEEDS:
            workdir = f"{workload}-{seed}"
            os.makedirs(workdir)
            for i, op in enumerate(builders[workload](seed, workdir)):
                outcome = op.call()
                yield (f"{workload} seed={seed} #{i} {op.label}",
                       _digest(outcome.code, outcome.stdout, outcome.stderr, outcome.error, {}))


def main() -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps --help and usage text to the terminal
    sys.path.insert(0, str(ROOT / "perfbench"))
    if not any(Path(p, "plasticwalk").is_dir() for p in sys.path if p):
        sys.path.insert(0, str(ROOT / "src"))
    from plasticwalk import cli
    from workloads import BUILDERS

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for label, digest in itertools.chain(matrix(cli.main), exponent_pairs(cli.main),
                                             time_edges(cli.main), initial_states(cli.main),
                                             ladder_edges(cli.main),
                                             workload_ops(cli.main, BUILDERS)):
            print(f"{digest}  {label}")
        os.chdir(ROOT)


if __name__ == "__main__":
    main()
