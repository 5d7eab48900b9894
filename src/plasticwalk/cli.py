"""Command-line front end.

``COMMANDS`` names the subcommands.  ``main`` reads the documented argv
itself (``_args``) and hands every other argv (--help, --opt=value,
abbreviations, repeats, usage errors) to argparse (``_parser``, imported and
built only then), so help, usage errors and their exit codes are argparse's.
It loads the config once and runs the command ``name`` as the module
attribute ``cmd_<name>``, looked up at call time.  Every command reads one
JSON config (--config) and writes JSON, or CSV where --format asks for it
(converge, dispersion, terms), to stdout or --output.  ``main`` alone turns
exceptions into the exit-code contract

    0  success / constraints satisfied
    1  domain failure (constraint gate rejected, non-convergence input)
    2  usage or config parse error

--format csv on a command that writes no CSV, a ConfigError (raised while loading
the config) or an OSError (writing the output) gives 2, any other ValueError gives
1, each with one line on stderr.

Outputs are deterministic for a fixed config and seed: JSON is emitted
with sorted keys, byte for byte as json.dumps(sort_keys=True, indent=2)
writes it, its ``schema_version`` stamped by ``_document`` alone; CSV
floats at 17 significant digits.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from collections.abc import Callable, Iterable
from json.encoder import encode_basestring_ascii as _str_text
from types import SimpleNamespace

import numpy as np

from . import convergence as conv
from . import lattice as lat
from . import plastic as pl
from . import timelimit as tl
from ._util import _NONFINITE, K_BLOCK, g17_cells, grid_text, key_text, repr_cells
from .config import ConfigError, ExperimentConfig

__all__ = ["main"]

SCHEMA_VERSION = 1

COMMANDS = ("check", "hamiltonian", "pde", "simulate", "converge", "dispersion", "terms")

# Most k-points (grid**2 of dispersion and time-mode converge, the momenta of plastic
# converge) or lattice sites (nx * ny of simulate) one command may ask for; checked
# before anything is allocated.  simulate's step count is not counted: its evolution is
# logarithmic in it, and the unitarity check of W(k)^steps stops it at about 2e12 steps
# (41 bits).  The k-point commands hold one tile of k-points (_util.CONVERGE_BLOCK for
# converge, K_BLOCK for dispersion, with its 16-byte-a-point band array), so time sets
# the budget.  At the limit, on a 2-core x86 host, in main, to a file: time-mode
# converge with the default eps_list takes 0.74 to 0.77 s and 39 MiB peak RSS (grid
# 1448), dispersion 0.47 to 0.57 s (CSV) or 0.94 to 1.07 s (JSON) and 67 MiB, simulate
# of 1448^2 sites with its field CSV 1.3 to 1.7 s and 0.19 GiB at 1 to 10**12 steps,
# and plastic converge of 2**21 momenta 6.8 to 6.9 s and 0.58 GiB, of which loading
# its 85 MB config takes 4.4 s and all of the memory.  The benchmark asks for at most
# 512^2.
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


class _Listing:
    """The leaf ``_emit_listing`` puts where its list goes.  ``_json`` writes it as NUL,
    a character that it writes in a string only as \\u0000."""


# the text of a leaf of each exact type
_LEAF = {str: _str_text, int: int.__repr__, float: _float_text,
         bool: ("false", "true").__getitem__, type(None): lambda _: "null",
         _Listing: lambda _: "\0"}.get


def _json(value, indent: str = "") -> str:
    """The JSON of ``value`` nested at ``indent``, as json.dumps(sort_keys=True, indent=2).

    Dict keys are strings, as in every payload; any other key raises TypeError.  A leaf
    is of an exact type of ``_LEAF``, as every leaf the commands build is (they cast); any
    other leaf, a subclass such as np.float64 too, raises the TypeError json.dumps raises
    for an unserializable one.  A container's leaves are written in its loop; only nested
    containers recurse.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for k in sorted(value):
            v = value[k]
            leaf = _LEAF(type(v))
            items.append(f"{_str_text(k)}: {leaf(v) if leaf else _json(v, inner)}")
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = []
        for v in value:
            leaf = _LEAF(type(v))
            items.append(leaf(v) if leaf else _json(v, inner))
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    leaf = _LEAF(type(value))
    if leaf is not None:
        return leaf(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _document(payload: dict) -> dict:
    return {**payload, "schema_version": SCHEMA_VERSION}


def _json_text(payload: dict) -> str:
    return _json(_document(payload)) + "\n"


def _emit(args, payload: dict) -> None:
    """Write the JSON document of ``payload``, the output of every command without a CSV
    table."""
    _write(args, (_json_text(payload),))


def _emit_listing(args, payload: dict, key: str, rows: Iterable[str]) -> None:
    """Write the JSON of ``payload`` with the list under ``key`` given as formatted rows.

    The rows are the list items as json.dumps(indent=2) writes them, with their
    separators.  The document is written with a ``_Listing`` leaf under ``key`` and
    split there, and the rows go in between as they come, so the list is never built
    as Python objects.  An empty listing (no rows, or an empty first row) writes [].
    """
    head, tail = _json_text({**payload, key: _Listing()}).split("\0")
    rows = iter(rows)
    first = next(rows, "")
    if first:
        _write(args, itertools.chain((head, "[\n", first), rows, ("\n  ]", tail)))
    else:
        _write(args, (head, "[]", tail))


def _within_budget(work: int, what: str) -> None:
    if work > WORK_BUDGET:
        raise ValueError(f"{what}: {work}, over the work budget of {WORK_BUDGET}")


def _grid(n: int):
    _within_budget(n * n, f"a {n}x{n} k-grid has grid**2 k-points")
    ks = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return ks[:, None], ks[None, :]


def _rounded(coeffs) -> list:
    """The 2x2 matrices ``coeffs`` (a stack, or a sequence that may be empty) as a list of
    nested lists, each entry rounded to 12 decimals as np.round rounds it, or kept as it is
    where that rounding overflows (np.round scales by 1e12 first, which passes the largest
    float above about 1.8e296).  np.round takes the real and imaginary parts as floats:
    times 1e12, rint, over 1e12; here that runs once on the float view of the stack."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128).reshape(-1, 2, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        rounded = (np.rint(coeffs.view(np.float64) * 1e12) / 1e12).view(np.complex128)
    return np.where(np.isfinite(rounded), rounded, coeffs).tolist()


def cmd_check(args, cfg: ExperimentConfig) -> int:
    gate = tl.check_time_limit if cfg.walk.mode == "time" else pl.check_spacetime_limit
    report = gate(cfg.walk).to_dict()
    _emit(args, report)
    return 0 if report["passed"] else 1


def cmd_hamiltonian(args, cfg: ExperimentConfig) -> int:
    if cfg.walk.mode != "time":
        raise ValueError("requires a time-mode config")
    terms, _ = tl.time_hamiltonian(cfg.walk)
    summary = [f"H = sum of {len(terms)} shift-word terms, prefactor included in matrices:"]
    for t, coeff in zip(terms, _rounded([t.coeff for t in terms])):
        summary.append(f"  S_x^{t.px} S_y^{t.py} x {coeff}")
    _emit(args, {"terms": [t.to_dict() for t in terms], "rendered": summary})
    return 0


def cmd_pde(args, cfg: ExperimentConfig) -> int:
    if cfg.walk.mode != "plastic":
        raise ValueError("requires a plastic-mode config")
    assembly = pl.spacetime_hamiltonian(cfg.walk)
    lam = assembly.calibration
    rendered = ["d/dt Psi = sum of the terms below (calibration folded in):"]
    coeffs = _rounded(lam * np.array([t.coeff for t in assembly.terms], dtype=np.complex128))
    for t, coeff in zip(assembly.terms, coeffs):
        mono = []
        if t.thx_power:
            mono.append(f"theta1x^{t.thx_power}")
        if t.thy_power:
            mono.append(f"theta1y^{t.thy_power}")
        if t.dx_power:
            mono.append(f"d/dx^{t.dx_power}")
        if t.dy_power:
            mono.append(f"d/dy^{t.dy_power}")
        rendered.append(f"  [{coeff}] " + " ".join(mono))
    _emit(args, {**assembly.to_dict(), "rendered": rendered})
    return 0


def cmd_simulate(args, cfg: ExperimentConfig) -> int:
    _within_budget(cfg.nx * cfg.ny, f"a {cfg.nx}x{cfg.ny} lattice has nx * ny sites")
    if cfg.initial_type == "plane_wave":
        state = lat.SpinorField.plane_wave(cfg.nx, cfg.ny, cfg.initial.get("kx", 0.0),
                                           cfg.initial.get("ky", 0.0))
    elif cfg.initial_type == "delta":
        state = lat.SpinorField.delta(cfg.nx, cfg.ny)
    else:
        state = lat.SpinorField.random(cfg.nx, cfg.ny, np.random.default_rng(cfg.seed))
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


def cmd_converge(args, cfg: ExperimentConfig) -> int:
    if cfg.walk.mode == "time":
        run, (kx, ky) = conv.time_convergence, _grid(cfg.grid)
    else:
        _within_budget(len(cfg.momenta), "run.momenta has len(run.momenta) momenta")
        run, (kx, ky) = conv.spacetime_convergence, np.array(cfg.momenta, dtype=np.float64).T
    result = run(cfg.walk, cfg.t_final, kx, ky, cfg.eps_list)
    if args.format != "csv":
        _emit(args, result.to_dict())
        return 0
    eps, errors = np.array(result.samples, dtype=np.float64).T
    keys = key_text(g17_cells(eps)), np.zeros((1, 0), dtype=np.uint8)  # a row an eps
    rows = grid_text(keys, errors[:, None, None], (b"", b"", b",", b"\n"), g17_cells, K_BLOCK)
    _write(args, itertools.chain(("eps,error\n",), map(bytes.decode, rows)))
    if args.output:
        with open(args.output + ".json", "w") as fh:
            fh.write(_json_text(result.to_dict()))
    return 0


# The text of a row of the band table before its kx, ky, phase1 and phase2 cells, and
# after them, in each format; a JSON row starts with the ",\n" that separates it from the
# row before
_BAND_CSV = (b"", b",", b",", b",", b"\n")
_BAND_JSON = (b',\n    {\n      "kx": ', b',\n      "ky": ', b',\n      "phase1": ',
              b',\n      "phase2": ', b"\n    }")


def _band_rows(kx, ky, bands, fmt: str):
    """Yield the rows of the band table over the grid kx (n, 1) x ky (1, n) in the format
    ``fmt``, a tile of at most ``K_BLOCK`` k-points at a time (``_util.grid_text``), with
    no separator before the first JSON row.  The kx and ky values are formatted once, their
    NULs deleted, into keys as wide as their longest text (21 bytes at grid 256), and each
    tile's phases by one call of the format's kernel: ``g17_cells`` ('%.17g') for CSV,
    ``repr_cells`` (as json writes a float) for JSON."""
    parts, cells = (_BAND_CSV, g17_cells) if fmt == "csv" else (_BAND_JSON, repr_cells)
    keys = key_text(cells(kx.ravel())), key_text(cells(ky.ravel()))
    tiles = map(bytes.decode, grid_text(keys, bands, parts, cells, K_BLOCK))
    yield next(tiles).removeprefix(",\n")  # a CSV row starts with a value
    yield from tiles


def cmd_dispersion(args, cfg: ExperimentConfig) -> int:
    kx, ky = _grid(cfg.grid)
    rows = _band_rows(kx, ky, conv.dispersion(cfg.walk, cfg.eps, kx, ky), args.format)
    if args.format == "csv":
        _write(args, itertools.chain(("kx,ky,phase1,phase2\n",), rows))
    else:
        _emit_listing(args, {"eps": cfg.eps}, "bands", rows)
    return 0


# (row, row separator, index slot) of the terms listing.  A row holds the pair's sums
# (%d), the n half's group label and index fragment ({0}, {1}), and the markers \1 and \0
# where the l half's label and fragment go; json writes the keys sorted.  An index slot
# is the text of index {} before its value and after it.  A group label is made of
# [ln=0-9+] alone, so it needs no json quoting.
_TERM_ROWS = {
    "csv": ("\0{1}%d,%d,\1{0}\n", "", ("", ",")),
    "json": ('    {{\n      "group": "\1{0}",\n\0{1}      "sum_l": %d,\n'
             '      "sum_n": %d\n    }}', ",\n", ('      "{}": ', ",\n")),
}


def _term_half(kind: str, top: int,
               slot: tuple[str, str]) -> Callable[[int], list[tuple[str, str]]]:
    """The function from a total up to ``top`` to the (index fragment, group label) of each
    of its compositions into the indices (1x, 1y, 2x, 2y) of the ``kind`` half.

    A fragment joins four lines from the per-slot line tables of the values 0..top, made
    here once a call.  A label is the nonzero indices as kind=v, sorted as strings and
    joined by "+", so it depends on the multiset of the parts alone: it is made once a
    call for each, under the sum of 5**v over the nonzero parts (a value occurs at most
    four times, so the sum names the multiset).
    """
    head, tail = slot
    values = [f"{v}{tail}" for v in range(top + 1)]
    t0, t1, t2, t3 = ([head.format(kind + c) + text for text in values]
                      for c in ("1x", "1y", "2x", "2y"))
    names = [f"{kind}={v}" for v in range(top + 1)]
    weight = [0] + [5 ** v for v in range(1, top + 1)]
    labels = {}

    def half(total: int) -> list[tuple[str, str]]:
        out = []
        for p0, p1, p2, p3 in pl._compositions4(total):
            key = weight[p0] + weight[p1] + weight[p2] + weight[p3]
            label = labels.get(key)
            if label is None:
                label = labels[key] = "+".join(sorted([names[v] for v in (p0, p1, p2, p3) if v]))
            out.append((t0[p0] + t1[p1] + t2[p2] + t3[p3], label))
        return out
    return half


def cmd_terms(args, cfg: ExperimentConfig) -> int:
    """List the order-1 index tuples, pair by pair, the l half's compositions outside.

    Every "l=" sorts before every "n=", so a tuple's group label joins the labels of
    its halves; the rows of a pair are the product of the fragments of its l and n
    halves.  A pair's rows of the n halves are one line, split at the l label's marker
    once; each l half joins the pieces with its label and puts its fragment in with one
    replace.  The halves come from :func:`_term_half`, one for each kind a call.
    """
    pairs, count = pl._pairs(cfg.walk.a_exp, cfg.walk.b_exp, order_one=True)
    row, sep, slot = _TERM_ROWS[args.format]
    l_half = _term_half("l", max([sl for sl, _ in pairs], default=0), slot)
    n_half = _term_half("n", max([sn for _, sn in pairs], default=0), slot)
    blocks = []
    for sl, sn in pairs:
        plus = "+" if sl and sn else ""  # both labels are non-empty
        cell = (row % (sl, sn)).format
        pieces = sep.join([cell(plus + nl, ni) for ni, nl in n_half(sn)]).split("\1")
        blocks += [ll.join(pieces).replace("\0", li) for li, ll in l_half(sl)]
    text = sep.join(blocks)
    if args.format == "csv":
        _write(args, ("l1x,l1y,l2x,l2y,n1x,n1y,n2x,n2y,sum_l,sum_n,group\n", text))
    else:
        _emit_listing(args, {"count": count}, "terms", (text,))
    return 0


_OPTIONS = ("--config", "--output", "--format", "--seed")
_FORMATS = ("csv", "json")


def _args(argv: list[str]) -> SimpleNamespace | None:
    """``_parser().parse_args(argv)`` read directly, or None for argparse to parse.

    Read directly: one word of ``COMMANDS`` and --config V, --output V, --format
    csv|json and --seed N, each at most once, in any order, with --config present, no
    value starting with "-" and N of ASCII digits.  Anything else (--help, --opt=value,
    abbreviations, repeats, --, a signed seed, missing or unknown words) is argparse's.
    """
    values, commands = {}, []
    words = iter(argv)
    for word in words:
        if word in _OPTIONS:
            value = next(words, None)
            if value is None or value.startswith("-") or word in values:
                return None
            values[word] = value
        elif word in COMMANDS:
            commands.append(word)
        else:
            return None
    fmt, seed = values.get("--format", "json"), values.get("--seed")
    if (len(commands) != 1 or "--config" not in values or fmt not in _FORMATS
            or seed is not None and not (seed.isascii() and seed.isdigit())):
        return None
    try:
        seed = None if seed is None else int(seed)
    except ValueError:  # more digits than int() reads (sys.set_int_max_str_digits)
        return None
    return SimpleNamespace(config=values["--config"], output=values.get("--output"),
                           format=fmt, seed=seed, command=commands[0])


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser of every argv that ``_args`` does not read: built, and
    argparse imported, on the first such call of ``main``, not at import (the first
    parser a process builds imports ``locale``, about 1 ms)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="plasticwalk",
        description="2D+1 quantum-walk continuum limits: constraint checks, "
                    "Hamiltonian/PDE emission, simulations, convergence runs.")
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--output", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=_FORMATS, default="json")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("command", choices=COMMANDS)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _args(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # 0 after --help, 2 on a usage error
            return exc.code
    if args.format == "csv" and args.command not in ("converge", "dispersion", "terms"):
        sys.stderr.write(f"{args.command}: --format csv applies to converge, dispersion and "
                         f"terms only; {args.command} writes JSON\n")
        return 2

    # the one map from exceptions to exit codes; any other exception is a defect and escapes
    try:
        cfg = ExperimentConfig.load(args.config, args.seed)
        # looked up on each call, so a rebound cmd_* attribute of this module is the one run
        return globals()[f"cmd_{args.command}"](args, cfg)
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
