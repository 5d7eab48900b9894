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
with sorted keys, byte for byte as json.dumps(sort_keys=True, indent=2)
writes it, CSV floats at 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii as _str_text

import numpy as np

from . import convergence as conv
from . import lattice as lat
from . import plastic as pl
from . import timelimit as tl
from ._util import _NONFINITE, K_BLOCK, cells_text, g17_cells, repr_cells
from .config import ConfigError, ExperimentConfig

__all__ = ["main"]

SCHEMA_VERSION = 1

# Most k-points (grid**2 of dispersion and time-mode converge) or lattice sites (nx *
# ny of simulate) one command may ask for; checked before anything is allocated.
# simulate's step count is not counted: its evolution is logarithmic in it, and the
# unitarity check of W(k)^steps stops it at about 2e12 steps (41 bits).  The k-grid
# commands hold one tile of k-points (and dispersion its 16-byte-a-point band array),
# so time sets the budget.  At the limit, on a 2-core x86 host: time-mode converge
# with the default eps_list takes about 7 s and 33 MiB peak RSS (grid 1448), dispersion
# 1.4 to 1.6 s (CSV) or 2.0 to 2.7 s (JSON) and 65 MiB, and simulate of 1448^2 sites with
# its field CSV 3 to 4.5 s and 0.19 GiB at 1 to 10**12 steps.  The benchmark asks for at
# most 512^2.
WORK_BUDGET = 2 ** 21


def _write(args, parts: Iterable[str]) -> None:
    """Write the command output, given as an iterable of parts, to --output or to stdout.

    Parts are written one by one as they are produced, so a large output is
    never held in one string first.
    """
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


# JSON as json.dumps(value, sort_keys=True, indent=2) writes it.  That call runs the
# pure-Python encoder (CPython has a C encoder only for indent=None); here the layout
# is Python and each leaf goes through the C function json uses for its type.
def _float_text(x: float) -> str:
    text = float.__repr__(x)  # a finite float's repr ends in a digit
    return _NONFINITE[text] if text[-1] in "nf" else text


# the text of a leaf of each exact type
_LEAF = {str: _str_text, int: int.__repr__, float: _float_text,
         bool: ("false", "true").__getitem__, type(None): lambda _: "null"}.get


def _json(value, indent: str = "") -> str:
    """The JSON of ``value`` nested at ``indent``, as json.dumps(sort_keys=True, indent=2).

    Dict keys are strings, as in every payload; any other key raises TypeError.  A
    container's leaves are written in its comprehension; only nested containers and
    leaves of a subclass type recurse.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [f"{_str_text(k)}: {leaf(v) if (leaf := _LEAF(type(v))) else _json(v, inner)}"
                 for k, v in sorted(value.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [leaf(v) if (leaf := _LEAF(type(v))) else _json(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    leaf = _LEAF(type(value))
    if leaf is not None:
        return leaf(value)
    for kind in (str, int, float):  # a subclass (np.float64, IntEnum) as json writes it
        if isinstance(value, kind):
            return _LEAF(kind)(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _document(payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, **payload}


def _json_text(payload: dict) -> str:
    return _json(_document(payload)) + "\n"


def _emit(args, payload: dict) -> None:
    """Write the JSON document of ``payload``, the output of every command without a CSV
    table, whatever --format asks."""
    _write(args, (_json_text(payload),))


def _emit_listing(args, payload: dict, key: str, rows: Iterable[str]) -> None:
    """Write the JSON of ``payload`` with the list under ``key`` given as formatted rows.

    The rows are the list items as json.dumps(indent=2) writes them, with their
    separators.  The members of the payload that sort before ``key`` are written,
    then the rows as they come, then the members after it, so the list is never
    built as Python objects.  An empty listing (no rows, or an empty first row)
    writes [].
    """
    members = sorted((k, f"{_str_text(k)}: {_json(v, '  ')}")
                     for k, v in _document(payload).items())
    head = "{\n" + "".join(f"  {m},\n" for k, m in members if k < key) + f"  {_str_text(key)}: "
    tail = "".join(f",\n  {m}" for k, m in members if k > key) + "\n}\n"
    rows = iter(rows)
    first = next(rows, "")
    if first:
        _write(args, itertools.chain((head, "[\n", first), rows, ("\n  ]", tail)))
    else:
        _write(args, (head, "[]", tail))


def _load(args) -> ExperimentConfig:
    return ExperimentConfig.load(args.config, args.seed)


def _within_budget(work: int, what: str) -> None:
    if work > WORK_BUDGET:
        raise ValueError(f"{what}: {work}, over the work budget of {WORK_BUDGET}")


def _grid(n: int):
    _within_budget(n * n, f"a {n}x{n} k-grid has grid**2 k-points")
    ks = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return ks[:, None], ks[None, :]


def _rounded(coeff) -> list:
    """The 2x2 matrix ``coeff`` as nested lists, each entry rounded to 12 decimals as
    np.round rounds it, or kept as it is where that rounding overflows (np.round scales
    by 1e12 first, which passes the largest float above about 1.8e296)."""
    coeff = np.asarray(coeff, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        rounded = np.round(coeff, 12)
    return np.where(np.isfinite(rounded), rounded, coeff).tolist()


def cmd_check(args) -> int:
    cfg = _load(args)
    gate = tl.check_time_limit if cfg.walk.mode == "time" else pl.check_spacetime_limit
    report = gate(cfg.walk)
    _emit(args, report.to_dict())
    return 0 if report.passed else 1


def cmd_hamiltonian(args) -> int:
    cfg = _load(args)
    if cfg.walk.mode != "time":
        raise ValueError("requires a time-mode config")
    terms, _ = tl.time_hamiltonian(cfg.walk)
    summary = [f"H = sum of {len(terms)} shift-word terms, prefactor included in matrices:"]
    for t in terms:
        summary.append(f"  S_x^{t.px} S_y^{t.py} x {_rounded(t.coeff)}")
    _emit(args, {"terms": [t.to_dict() for t in terms], "rendered": summary})
    return 0


def cmd_pde(args) -> int:
    cfg = _load(args)
    if cfg.walk.mode != "plastic":
        raise ValueError("requires a plastic-mode config")
    assembly = pl.spacetime_hamiltonian(cfg.walk)
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
        rendered.append(f"  [{_rounded(lam * t.coeff)}] " + " ".join(mono))
    _emit(args, {**assembly.to_dict(), "rendered": rendered})
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    _within_budget(cfg.nx * cfg.ny, f"a {cfg.nx}x{cfg.ny} lattice has nx * ny sites")
    rng = np.random.default_rng(cfg.seed)
    if cfg.initial_type == "plane_wave":
        state = lat.SpinorField.plane_wave(cfg.nx, cfg.ny, cfg.initial.get("kx", 0.0),
                                           cfg.initial.get("ky", 0.0))
    elif cfg.initial_type == "delta":
        state = lat.SpinorField.delta(cfg.nx, cfg.ny)
    else:
        state = lat.SpinorField.random(cfg.nx, cfg.ny, rng)
    norm0 = state.norm()
    state = lat.evolve(state, cfg.walk, cfg.eps, cfg.steps)
    norm1 = state.norm()
    field_file = None
    if args.output:
        lat.save_csv(state, args.output + ".field.csv")
        field_file = os.path.basename(args.output) + ".field.csv"
    _emit(args, {
        "steps": cfg.steps,
        "eps": cfg.eps,
        "norm_initial": norm0,
        "norm_final": norm1,
        "norm_drift": abs(norm1 - norm0),
        "field_file": field_file,
    })
    return 0


def cmd_converge(args) -> int:
    cfg = _load(args)
    if cfg.walk.mode == "time":
        run, (kx, ky) = conv.time_convergence, _grid(cfg.grid)
    else:
        run, (kx, ky) = conv.spacetime_convergence, np.array(cfg.momenta, dtype=np.float64).T
    result = run(cfg.walk, cfg.t_final, kx, ky, cfg.eps_list)
    if args.format != "csv":
        _emit(args, result.to_dict())
        return 0
    cells = g17_cells(np.array(result.samples, dtype=np.float64).reshape(-1, 2))
    cells[:, 0, -1] = ord(",")
    cells[:, 1, -1] = ord("\n")
    _write(args, ("eps,error\n", cells_text(cells).decode("ascii")))
    if args.output:
        with open(args.output + ".json", "w") as fh:
            fh.write(_json_text(result.to_dict()))
    return 0


# The text of a row of the band table before its kx, ky, phase1 and phase2 cells, and
# after them, in each format; a JSON row ends with the ",\n" that separates it from the
# row after
_BAND_CSV = (b"", b",", b",", b",", b"\n")
_BAND_JSON = (b'    {\n      "kx": ', b',\n      "ky": ', b',\n      "phase1": ',
              b',\n      "phase2": ', b"\n    },\n")


def _band_rows(kx, ky, bands, fmt: str):
    """Yield the rows of the band table over the grid kx (n, 1) x ky (1, n) in the format
    ``fmt``, a block of kx rows at a time: at most ``K_BLOCK`` k-points a CSV block, and
    half as many a JSON one (a JSON row is about twice a CSV row).

    A row is the text of ``_BAND_CSV`` or ``_BAND_JSON`` with a 32-byte cell for each
    value between its parts, in a block buffer that holds the literal text and the ky
    cells from the start.  The cells of each kx are formatted once, and each block's
    phases by one call of the format's kernel: ``g17_cells`` ('%.17g') for CSV,
    ``repr_cells`` (as json writes a float) for JSON.
    """
    csv = fmt == "csv"
    parts, cells = (_BAND_CSV, g17_cells) if csv else (_BAND_JSON, repr_cells)
    kx_cells, ky_cells = cells(kx.ravel()), cells(ky.ravel())
    step = max(1, K_BLOCK // (1 if csv else 2) // len(ky_cells))
    width = sum(map(len, parts)) + 4 * 32
    buf = np.empty((min(step, len(kx_cells)), len(ky_cells), width), dtype=np.uint8)
    slots, at = [], 0
    for text in parts:  # the literal, then the slot of the value after it
        buf[..., at:at + len(text)] = np.frombuffer(text, dtype=np.uint8)
        at += len(text) + 32
        slots.append(buf[..., at - 32:at])
    kx_slot, ky_slot, phase1, phase2 = slots[:4]
    ky_slot[:] = ky_cells
    for start in range(0, len(kx_cells), step):
        phases = cells(bands[start:start + step])
        n = len(phases)
        kx_slot[:n] = kx_cells[start:start + n, None]
        phase1[:n] = phases[:, :, 0]
        phase2[:n] = phases[:, :, 1]
        if not csv and start + n == len(kx_cells):
            buf[n - 1, -1, -2:] = 0  # no separator after the last row: its NULs are deleted
        yield cells_text(buf[:n]).decode("ascii")


def cmd_dispersion(args) -> int:
    cfg = _load(args)
    kx, ky = _grid(cfg.grid)
    rows = _band_rows(kx, ky, conv.dispersion(cfg.walk, cfg.eps, kx, ky), args.format)
    if args.format == "csv":
        _write(args, itertools.chain(("kx,ky,phase1,phase2\n",), rows))
    else:
        _emit_listing(args, {"eps": cfg.eps}, "bands", rows)
    return 0


# (row, row separator, index fragment of a half) of the terms listing.  A row is filled
# in from the l half's and the n half's index fragment (li, ni) and group label (ll, nl),
# and the pair's sums; json writes the keys sorted.  A group label is made of [ln=0-9+]
# alone, so it needs no json quoting.
_TERM_ROWS = {
    "csv": ("{li}{ni}{sl},{sn},{ll}{nl}\n", "", "%d,%d,%d,%d,"),
    "json": ('    {{\n      "group": "{ll}{nl}",\n{li}{ni}      "sum_l": {sl},\n'
             '      "sum_n": {sn}\n    }}', ",\n",
             "".join(f'      "{{k}}{c}": %d,\n' for c in ("1x", "1y", "2x", "2y"))),
}


def _term_half(index: str, kind: str, total: int) -> list[tuple[str, str]]:
    """(index fragment, group label) of each composition of ``total`` into the indices
    (1x, 1y, 2x, 2y) of the ``kind`` half: the label is the nonzero indices as
    kind=v, sorted as strings and joined by "+"."""
    index = index.replace("{k}", kind)
    return [(index % tuple(parts), "+".join(sorted([f"{kind}={v}" for v in parts if v])))
            for parts in pl._compositions4(total).tolist()]


def cmd_terms(args) -> int:
    """List the order-1 index tuples, pair by pair, the l half's compositions outside.

    Every "l=" sorts before every "n=", so a tuple's group label joins the labels of
    its halves; the rows of a pair are the product of the fragments of its l and n
    halves: one template per pair holds the n halves, and each l half fills it in.
    """
    cfg = _load(args)
    pairs, count = pl._pairs(cfg.walk.a_exp, cfg.walk.b_exp, order_one=True)
    row, sep, index = _TERM_ROWS[args.format]
    blocks = []
    for sl, sn in pairs:
        plus = "+" if sl and sn else ""  # both labels are non-empty
        line = sep.join([row.format(li="\0", ni=ni, ll="\1", nl=plus + nl, sl=sl, sn=sn)
                         for ni, nl in _term_half(index, "n", sn)])
        blocks += [line.replace("\0", li).replace("\1", ll)
                   for li, ll in _term_half(index, "l", sl)]
    text = sep.join(blocks)
    if args.format == "csv":
        _write(args, ("l1x,l1y,l2x,l2y,n1x,n1y,n2x,n2y,sum_l,sum_n,group\n", text))
    else:
        _emit_listing(args, {"count": count}, "terms", (text,))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one argument parser, built on the first call of ``main``, not at import:
    the first parser a process builds imports ``locale`` (about 1 ms)."""
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
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # 0 after --help, 2 on a usage error
        return exc.code

    # looked up on each call, so a rebound cmd_* attribute of this module is the one run
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
