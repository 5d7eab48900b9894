"""Command-line front end.

Subcommands: check, hamiltonian, pde, simulate, converge, dispersion,
terms.  Every command reads one JSON config (--config), writes CSV or
JSON (--format / --output), and uses the exit-code contract

    0  success / constraints satisfied
    1  domain failure (constraint gate rejected, non-convergence input)
    2  usage or config parse error

``main`` alone turns exceptions into these codes: a ConfigError (raised
while loading the config) or an OSError (writing the output) gives 2,
any other ValueError gives 1, each with one line on stderr.

Outputs are deterministic for a fixed config and seed: JSON is emitted
with sorted keys, CSV floats at 17 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import convergence as conv
from . import lattice as lat
from . import plastic as pl
from . import timelimit as tl
from .config import ConfigError, ExperimentConfig

__all__ = ["main"]

SCHEMA_VERSION = 1


def _write(args, *parts: str) -> None:
    """Write the command output, given in parts, to --output or to stdout.

    Parts are written one by one, so a large output is never copied into
    one string first.
    """
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _json_text(payload: dict) -> str:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(args, payload: dict, csv_rows: list[str] | None = None) -> None:
    """Write JSON (always available) or CSV (when rows are provided)."""
    if args.format == "csv" and csv_rows is not None:
        _write(args, "\n".join(csv_rows) + "\n")
    else:
        _write(args, _json_text(payload))


def _f17(x: float) -> str:
    return f"{x:.17g}"


def _load(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config)
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def _grid(n: int):
    ks = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return ks[:, None], ks[None, :]


def cmd_check(args) -> int:
    cfg = _load(args)
    report = (tl.check_time_limit(cfg.walk) if cfg.walk.mode == "time"
              else pl.check_spacetime_limit(cfg.walk, cfg.a_exp, cfg.b_exp))
    _emit(args, report.to_dict())
    return 0 if report.passed else 1


def cmd_hamiltonian(args) -> int:
    cfg = _load(args)
    if cfg.walk.mode != "time":
        raise ValueError("requires a time-mode config")
    terms, _ = tl.time_hamiltonian(cfg.walk)
    summary = [f"H = sum of {len(terms)} shift-word terms, prefactor included in matrices:"]
    for t in terms:
        summary.append(f"  S_x^{t.px} S_y^{t.py} x {np.round(t.coeff, 12).tolist()}")
    _emit(args, {"terms": [t.to_dict() for t in terms], "rendered": summary})
    return 0


def cmd_pde(args) -> int:
    cfg = _load(args)
    if cfg.walk.mode != "plastic":
        raise ValueError("requires a plastic-mode config")
    assembly = pl.spacetime_hamiltonian(cfg.walk, cfg.a_exp, cfg.b_exp)
    lam = assembly.calibration
    rendered = ["d/dt Psi = sum of the terms below (calibration folded in):"]
    for t in assembly.terms:
        mono = []
        if t.thx_power:
            mono.append(f"theta1x^{t.thx_power}")
        if t.thy_power:
            mono.append(f"theta1y^{t.thy_power}")
        if t.dx_power:
            mono.append(f"d/dx^{t.dx_power}")
        if t.dy_power:
            mono.append(f"d/dy^{t.dy_power}")
        coeff = np.round(lam * t.coeff, 12).tolist()
        rendered.append(f"  [{coeff}] " + " ".join(mono))
    _emit(args, {**assembly.to_dict(), "rendered": rendered})
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    work = max(cfg.nx * cfg.ny, lat.STEP_MIN_SITES) * max(cfg.steps, 1)
    if work > lat.SITE_STEP_BUDGET:
        raise ValueError(f"{cfg.steps} steps on a {cfg.nx}x{cfg.ny} lattice need {work} "
                         f"site-steps (a step counts as at least {lat.STEP_MIN_SITES} sites), "
                         f"over the work budget of {lat.SITE_STEP_BUDGET}")
    rng = np.random.default_rng(cfg.seed)
    if cfg.initial_type == "plane_wave":
        state = lat.SpinorField.plane_wave(cfg.nx, cfg.ny, cfg.initial.get("kx", 0.0),
                                           cfg.initial.get("ky", 0.0))
    elif cfg.initial_type == "delta":
        state = lat.SpinorField.delta(cfg.nx, cfg.ny)
    else:
        state = lat.SpinorField.random(cfg.nx, cfg.ny, rng)
    norm0 = state.norm()
    for _ in range(cfg.steps):
        state = lat.step(state, cfg.walk, cfg.eps)
    drift = abs(state.norm() - norm0)
    field_file = None
    if args.output:
        lat.save_csv(state, args.output + ".field.csv")
        field_file = os.path.basename(args.output) + ".field.csv"
    _emit(args, {
        "steps": cfg.steps,
        "eps": cfg.eps,
        "norm_initial": norm0,
        "norm_final": state.norm(),
        "norm_drift": drift,
        "field_file": field_file,
    })
    return 0


def cmd_converge(args) -> int:
    cfg = _load(args)
    if cfg.walk.mode == "time":
        kx, ky = _grid(cfg.grid)
        result = conv.time_convergence(cfg.walk, cfg.t_final, kx, ky, cfg.eps_list)
    else:
        result = conv.spacetime_convergence(cfg.walk, cfg.a_exp, cfg.b_exp,
                                            cfg.t_final, cfg.momenta, cfg.eps_list)
    rows = ["eps,error"] + [f"{_f17(e)},{_f17(err)}" for e, err in result.samples]
    _emit(args, result.to_dict(), csv_rows=rows)
    if args.format == "csv" and args.output:
        with open(args.output + ".json", "w") as fh:
            fh.write(_json_text(result.to_dict()))
    return 0


# (float format, row template, row separator) of the band table; the row's kx and ky
# are filled in by str.format, its phases by %.  %r is float.__repr__, as json writes it.
_BAND_ROWS = {
    "csv": ("%.17g", "{},{},%.17g,%.17g\n", ""),
    "json": ("%r", '    {{\n      "kx": {},\n      "ky": {},\n'
                   '      "phase1": %r,\n      "phase2": %r\n    }}', ",\n"),
}


def _band_rows(fmt: str, kx, ky, bands) -> str:
    """The rows of the band table over the grid kx (n, 1) x ky (1, n), in one pass.

    Each grid momentum is formatted once, not once per row it appears in.
    """
    spec, row, sep = _BAND_ROWS[fmt]
    xs = [spec % v for v in kx.ravel().tolist()]
    ys = [spec % v for v in ky.ravel().tolist()]
    template = sep.join([row.format(x, y) for x in xs for y in ys])
    return template % tuple(bands.reshape(-1).tolist())


def cmd_dispersion(args) -> int:
    cfg = _load(args)
    kx, ky = _grid(cfg.grid)
    bands = conv.dispersion(cfg.walk, cfg.eps, kx, ky)
    if args.format == "csv":
        _write(args, "kx,ky,phase1,phase2\n", _band_rows("csv", kx, ky, bands))
        return 0
    rows = _band_rows("json", kx, ky, bands)
    if not np.isfinite(bands).all():
        # %r writes nan, inf and -inf where json writes NaN, Infinity and -Infinity;
        # neither the row template nor a finite grid momentum contains "nan" or "inf"
        rows = rows.replace("nan", "NaN").replace("inf", "Infinity")
    # write the rows in place of the placeholder in the json.dumps of the rest of the payload
    head, tail = _json_text({"eps": cfg.eps, "bands": "@bands@"}).split('"@bands@"')
    _write(args, head, "[\n", rows, "\n  ]", tail)
    return 0


def _term_row(idx: pl.TermIndex) -> tuple:
    """The indices of one tuple, then sum_l, sum_n and its group label."""
    kinds = [f"l={v}" for v in (idx.l1x, idx.l1y, idx.l2x, idx.l2y) if v]
    kinds += [f"n={v}" for v in (idx.n1x, idx.n1y, idx.n2x, idx.n2y) if v]
    return (*idx, idx.sum_l, idx.sum_n, "+".join(sorted(kinds)))


_TERM_COLUMNS = pl.TermIndex._fields + ("sum_l", "sum_n", "group")


def cmd_terms(args) -> int:
    cfg = _load(args)
    rows = [_term_row(idx) for idx in pl.enumerate_terms(cfg.a_exp, cfg.b_exp)]
    if args.format == "csv":
        _write(args, ",".join(_TERM_COLUMNS) + "\n",
               *(",".join(map(str, row)) + "\n" for row in rows))
    else:
        listing = [dict(zip(_TERM_COLUMNS, row)) for row in rows]
        _emit(args, {"count": len(rows), "terms": listing})
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="plasticwalk",
        description="2D+1 quantum-walk continuum limits: constraint checks, "
                    "Hamiltonian/PDE emission, simulations, convergence runs.")
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--output", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("command",
                        choices=("check", "hamiltonian", "pde", "simulate",
                                 "converge", "dispersion", "terms"))

    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2

    handlers = {
        "check": cmd_check,
        "hamiltonian": cmd_hamiltonian,
        "pde": cmd_pde,
        "simulate": cmd_simulate,
        "converge": cmd_converge,
        "dispersion": cmd_dispersion,
        "terms": cmd_terms,
    }
    # the one map from exceptions to exit codes; any other exception is a defect and escapes
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"{args.command}: cannot write output: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"{args.command}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
