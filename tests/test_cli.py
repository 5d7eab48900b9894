import ast
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plasticwalk
from plasticwalk import cli, convergence
from plasticwalk._util import key_text
from plasticwalk.cli import main
from plasticwalk.config import ConfigError, ExperimentConfig, parse_rational

from conftest import FAREY_8, draw_plastic_compliant
from oracles import terms_listing


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def time_doc(theta0x=np.pi, theta0y=0.0, delta=-np.pi / 2, tau=2):
    coin = {"delta": 0.0, "zeta0": 0.0, "zeta1": 0.0, "theta0": 0.0,
            "theta1": 0.5, "phi0": 0.0, "phi1": 0.0, "b": "1/1"}
    return {
        "walk": {
            "mode": "time", "tau": tau, "a": "0/1", "delta_spatial": 1.0,
            "coin_x": {**coin, "theta0": theta0x},
            "coin_y": {**coin, "theta0": theta0y, "delta": delta, "theta1": -0.3},
        },
        "lattice": {"nx": 16, "ny": 16},
        "run": {"t_final": 1.0, "eps": 0.01,
                "eps_list": [2.0 ** -k for k in range(6, 10)],
                "grid": 5, "steps": 50,
                "momenta": [[0.7, -0.3]], "l_index": 0,
                "initial": {"type": "random"}},
        "output": {"format": "json", "path": None},
        "seed": 7,
    }


def plastic_doc(rng):
    cfg = draw_plastic_compliant(rng)
    jx, jy = cfg.coin_x, cfg.coin_y

    def coin(j):
        return {"delta": j.delta, "zeta0": j.zeta0, "zeta1": 0.0,
                "theta0": j.theta0, "theta1": j.theta1, "phi0": j.phi0,
                "phi1": 0.0, "b": "1/2"}

    return {
        "walk": {"mode": "plastic", "tau": 2, "a": "1/2", "delta_spatial": 1.0,
                 "coin_x": coin(jx), "coin_y": coin(jy)},
        "lattice": {"nx": 8, "ny": 8},
        "run": {"t_final": 0.5, "eps": 0.01,
                "eps_list": [2.0 ** -k for k in range(6, 10)], "grid": 5,
                "steps": 20, "momenta": [[0.7, -0.3], [0.2, 0.4]],
                "l_index": 0, "initial": {"type": "delta"}},
        "output": {"format": "json", "path": None},
        "seed": 3,
    }


def test_parse_rational_rejects_bad_input():
    assert parse_rational("3/4").numerator == 3
    with pytest.raises(ConfigError):
        parse_rational("1/0")
    with pytest.raises(ConfigError):
        parse_rational(0.5)
    with pytest.raises(ConfigError):
        parse_rational("half")


def test_check_compliant_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path, time_doc())
    code = main(["--config", path, "check"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["passed"] is True
    witnesses = {k: v for c in out["conditions"] for k, v in c["witness"].items()}
    assert witnesses["nu"] == 1 and witnesses["p"] == 1


def test_check_fails_a_huge_theta0_that_leaves_the_branch(tmp_path, capsys):
    """theta0y = 1e300 is an integer multiple of 2 pi as a float, but sin(theta0y / 2)
    is far from 0 in the coin: the report names the branch, with no witness."""
    path = write_config(tmp_path, time_doc(theta0y=1e300))
    assert main(["--config", path, "check"]) == 1
    cond = json.loads(capsys.readouterr().out)["conditions"][0]
    assert cond["name"] == "theta_branch" and not cond["satisfied"]
    assert cond["residual"] > 1.0 and cond["witness"] == {}


def test_check_odd_tau_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, time_doc(tau=3))
    code = main(["--config", path, "check"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    by_name = {c["name"]: c for c in out["conditions"]}
    assert by_name["tau_even"]["satisfied"] is False


def test_integer_keys_load_integral_values_only():
    with pytest.raises(ConfigError, match="walk.a must be a 'p/q' string, got True"):
        parse_rational(True, "walk.a")
    doc = time_doc(tau=4.0)
    doc["lattice"] = {"nx": 16.0, "ny": 8}
    doc["run"].update(grid=3.0, steps=7.0)
    doc["seed"] = 5.0
    cfg = ExperimentConfig.from_dict(doc)
    values = (cfg.walk.tau, cfg.nx, cfg.ny, cfg.grid, cfg.steps, cfg.seed)
    assert values == (4, 16, 8, 3, 7, 5) and all(type(v) is int for v in values)


def test_eps_list_of_sixteen_entries_loads():
    """The cap is inclusive; 17 entries are refused (the exact-stderr table)."""
    doc = time_doc()
    doc["run"]["eps_list"] = [2.0 ** -k for k in range(16)]
    assert len(ExperimentConfig.from_dict(doc).eps_list) == 16


def test_malformed_rational_exits_two(tmp_path, capsys):
    doc = time_doc()
    doc["walk"]["a"] = "1/0"
    path = write_config(tmp_path, doc)
    assert main(["--config", path, "check"]) == 2


def test_missing_config_exits_two(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "check"]) == 2


def test_help_exits_zero_and_usage_errors_exit_two(capsys):
    assert main(["--help"]) == 0
    assert "usage: plasticwalk" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["--config", "cfg.json", "no-such-command"]) == 2
    assert "usage: plasticwalk" in capsys.readouterr().err


def test_commands_are_the_cmd_attributes_main_looks_up(tmp_path, monkeypatch):
    """argparse takes exactly the names of COMMANDS, each has a cmd_ handler, and main
    runs the module attribute at call time: the benchmark's tracer rebinds them."""
    choices = {a.dest: a.choices for a in cli._parser()._actions}["command"]
    assert tuple(choices) == cli.COMMANDS
    assert {n[len("cmd_"):] for n in vars(cli) if n.startswith("cmd_")} == set(cli.COMMANDS)
    calls = []
    monkeypatch.setattr(cli, "cmd_check", lambda args, cfg: calls.append(cfg) or 7)
    assert main(["--config", write_config(tmp_path, time_doc()), "check"]) == 7
    assert [type(cfg) for cfg in calls] == [ExperimentConfig]


# argv words: the four options, argparse-only forms (help, --opt=value, abbreviation, --,
# a bare -), seeds argparse reads and _args does not (-1, +5, the Arabic-Indic 3), a seed
# with a leading zero, formats good and bad, every command, an unknown word and ""
ARGV_WORDS = ("--config", "--output", "--format", "--seed", "--config=x", "--conf", "-h",
              "--help", "--", "-", "-1", "+5", "\u0663", "07", "csv", "json", "xml",
              *cli.COMMANDS, "bogus", "")


@st.composite
def argvs(draw):
    """0-9 words of ARGV_WORDS: --config, a command and any of the other three options,
    each option with a value from ARGV_WORDS (for --format and --seed, half the time one
    of the words next to their grammar), in any order; then, half the time, one or two
    edits: a word inserted, replaced or deleted, or an option repeated with a new value."""
    word = st.sampled_from(ARGV_WORDS)
    near = {"--format": ("csv", "json", "xml"), "--seed": ("07", "-1", "+5", "\u0663")}
    value = {o: st.one_of(st.sampled_from(near.get(o, ARGV_WORDS)), word) for o in cli._OPTIONS}
    options = ["--config", *draw(st.lists(st.sampled_from(cli._OPTIONS[1:]), unique=True))]
    units = [(o, draw(value[o])) for o in options] + [(draw(st.sampled_from(cli.COMMANDS)),)]
    argv = [w for unit in draw(st.permutations(units)) for w in unit]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "replace", "delete", "repeat")))
        if edit == "repeat":
            option = draw(st.sampled_from(options))
            argv[i:i] = [option, draw(value[option])]
        else:
            argv[i:i + (edit != "insert")] = [] if edit == "delete" else [draw(word)]
    return argv[:9]


def _argparse_vars(argv):
    """vars of ``_parser().parse_args(argv)``, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.one_of(st.lists(st.sampled_from(ARGV_WORDS), max_size=9), argvs()))
def test_direct_parse_reads_what_argparse_reads(argv):
    """``main``'s direct parse either leaves an argv to argparse or reads it as argparse
    does: same names, values and defaults."""
    args = cli._args(argv)
    assert args is None or vars(args) == _argparse_vars(argv)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.permutations(("--config", "--seed", "--format", "--output", "command")), st.booleans(),
       st.sampled_from(cli.COMMANDS), st.sampled_from(cli._FORMATS),
       st.integers(0, 2 ** 63).map(str), st.text(min_size=1).filter(lambda v: v[0] != "-"))
def test_the_benchmark_argv_shape_is_always_read_directly(order, output, command, fmt, seed,
                                                          path):
    """--config p --seed s --format f [--output o] command, in any order: the shape of
    every benchmark operation, always read without argparse."""
    values = {"--config": path, "--seed": seed, "--format": fmt, "--output": path + ".out"}
    argv = []
    for unit in order:
        if unit == "command":
            argv.append(command)
        elif output or unit != "--output":
            argv += [unit, values[unit]]
    args = cli._args(argv)
    assert args is not None
    assert vars(args) == _argparse_vars(argv)


def test_documented_argv_never_builds_argparse(tmp_path, capsys):
    """Each command on a golden config runs without building the parser; --help builds it,
    and importing the CLI does not import argparse."""
    golden = os.path.join(os.path.dirname(__file__), "golden")
    cli._parser.cache_clear()
    for command in cli.COMMANDS:
        config = "plastic_half_compliant" if command in ("pde", "terms") else "time_compliant"
        fmt = "csv" if command in ("converge", "dispersion", "terms") else "json"
        argv = ["--config", os.path.join(golden, config, "config.json"), "--seed", "3",
                "--format", fmt, "--output", str(tmp_path / "out"), command]
        assert main(argv) == 0
    assert cli._parser.cache_info().misses == 0
    assert main(["--help"]) == 0
    assert "usage: plasticwalk" in capsys.readouterr().out
    assert cli._parser.cache_info().misses == 1
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(plasticwalk.__file__))}
    proc = subprocess.run([sys.executable, "-c", "import sys, plasticwalk.cli; "
                           "print(sorted({'argparse', 'locale'} & set(sys.modules)))"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_command_loads_the_config_once(tmp_path, monkeypatch, command):
    """Counted through the class attribute, where the benchmark's tracer counts it."""
    load, calls = ExperimentConfig.load, []
    monkeypatch.setattr(ExperimentConfig, "load",
                        staticmethod(lambda *args: calls.append(args) or load(*args)))
    time_mode = command not in ("pde", "terms")
    doc = time_doc() if time_mode else plastic_doc(np.random.default_rng(5))
    out = str(tmp_path / "out")
    assert main(["--config", write_config(tmp_path, doc), "--output", out, command]) == 0
    assert len(calls) == 1


def test_hamiltonian_command(tmp_path, capsys):
    path = write_config(tmp_path, time_doc())
    assert main(["--config", path, "hamiltonian"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["terms"]) == 4
    words = {(t["px"], t["py"]) for t in out["terms"]}
    assert words == {(2, 0), (0, -2), (0, 0), (2, -2)}  # nu = 1 branch
    assert all(len(t["matrix"]) == 8 for t in out["terms"])


def test_hamiltonian_rejects_noncompliant(tmp_path):
    path = write_config(tmp_path, time_doc(theta0y=np.pi))
    assert main(["--config", path, "hamiltonian"]) == 1


def test_pde_command(tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = write_config(tmp_path, plastic_doc(rng))
    assert main(["--config", path, "pde"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["calibration"] == -0.5
    assert len(out["terms"]) == 4
    assert any("d/dx" in line for line in out["rendered"])


def test_terms_command_counts(tmp_path, capsys):
    rng = np.random.default_rng(6)
    path = write_config(tmp_path, plastic_doc(rng))
    assert main(["--config", path, "terms"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 36
    assert len(out["terms"]) == 36
    groups = {t["group"] for t in out["terms"]}
    assert "l=1+l=1" in groups and "l=2" in groups and "l=1+n=1" in groups


def test_terms_csv_output(tmp_path):
    rng = np.random.default_rng(7)
    out_path = tmp_path / "terms.csv"
    path = write_config(tmp_path, plastic_doc(rng))
    assert main(["--config", path, "--format", "csv",
                 "--output", str(out_path), "terms"]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("l1x,l1y,l2x,l2y")
    assert len(lines) == 37


def test_terms_listing_matches_the_per_row_oracle(tmp_path, capsys):
    """Every Farey-8 pair (a, b), in both formats, byte for byte; some listings are empty."""
    doc = plastic_doc(np.random.default_rng(6))
    sizes = []
    for a in FAREY_8:
        for b in FAREY_8:
            doc["walk"]["a"] = str(a)
            for coin in ("coin_x", "coin_y"):
                doc["walk"][coin]["b"] = str(b)
            path = write_config(tmp_path, doc)
            outs = []
            for fmt in ("json", "csv"):
                assert main(["--config", path, "--format", fmt, "terms"]) == 0
                outs.append(capsys.readouterr().out)
            assert tuple(outs) == terms_listing(a, b), (a, b)
            sizes.append(outs[1].count("\n") - 1)
    assert min(sizes) == 0 and max(sizes) > 1000


@pytest.mark.parametrize("a, b, rows, unlike_numeric", [
    ("1/10", "1/10", 19448, None),
    ("1/12", "1", 459, "l=10+l=2"),
    ("1", "1/11", 368, None),
    ("1/11", "1/13", 924, "n=10+n=3"),
])
def test_terms_listing_with_two_digit_indices(tmp_path, capsys, a, b, rows, unlike_numeric):
    """Index totals of 10 to 13, in both formats, byte for byte.  A group label sorts its
    parts as strings, so l=10 comes before l=2: a label sorted by number would differ on
    the pairs that list such a label, and no Farey-8 pair does."""
    doc = plastic_doc(np.random.default_rng(6))
    doc["walk"]["a"] = a
    for coin in ("coin_x", "coin_y"):
        doc["walk"][coin]["b"] = b
    path = write_config(tmp_path, doc)
    outs = []
    for fmt in ("json", "csv"):
        assert main(["--config", path, "--format", fmt, "terms"]) == 0
        outs.append(capsys.readouterr().out)
    assert tuple(outs) == terms_listing(parse_rational(a), parse_rational(b))
    assert outs[1].count("\n") - 1 == json.loads(outs[0])["count"] == rows
    if unlike_numeric:
        assert f',{unlike_numeric}\n' in outs[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_walks_a_subnormal_plastic_spacing(tmp_path, capsys):
    """eps = 1e-320 at a = 1: the spacing eps**a is subnormal, and simulate, which walks
    the unit lattice and never reads it, evolves the field as at any other spacing."""
    doc = plastic_doc(np.random.default_rng(10))
    doc["walk"]["a"] = "1"
    doc["run"]["eps"] = 1e-320
    assert main(["--config", write_config(tmp_path, doc), "simulate"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["norm_drift"] <= 1e-12


def test_simulate_reports_norm_drift(tmp_path, capsys):
    path = write_config(tmp_path, time_doc())
    assert main(["--config", path, "simulate"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm_drift"] <= 1e-12
    assert out["steps"] == 50


def test_converge_csv_with_json_sidecar(tmp_path):
    path = write_config(tmp_path, time_doc())
    out_path = tmp_path / "conv.csv"
    assert main(["--config", path, "--format", "csv",
                 "--output", str(out_path), "converge"]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "eps,error"
    assert len(lines) == 5
    sidecar = json.loads((tmp_path / "conv.csv.json").read_text())
    assert abs(sidecar["slope"] - 1.0) <= 0.3


@pytest.mark.parametrize("count", [3, 16])
def test_converge_csv_rows_are_g17_of_the_samples(tmp_path, count):
    """The converge CSV at the fewest and the most eps a config holds is '%.17g' of each
    sample of its JSON sidecar, byte for byte."""
    doc = time_doc()
    doc["run"]["eps_list"] = [0.1 / (1 + k) for k in range(count)]
    out_path = tmp_path / "conv.csv"
    assert main(["--config", write_config(tmp_path, doc), "--format", "csv",
                 "--output", str(out_path), "converge"]) == 0
    samples = json.loads((tmp_path / "conv.csv.json").read_text())["samples"]
    assert len(samples) == count
    assert out_path.read_bytes() == b"eps,error\n" + b"".join(
        b"%.17g,%.17g\n" % (s["eps"], s["error"]) for s in samples)


@pytest.mark.parametrize("eps_list, theta1, stderr", [
    ([0.1, 0.05, 1e-13], 0.5,
     "converge: W^(2 n) at n = 5e+12 is not unitary to 0.001 (defect 2.223e-03)\n"),
    ([0.1, 1e308, 0.05, 1e-13], 4.0, "converge: walk symbol is not unitary to 1e-11 (defect nan)\n"),
], ids=["one-failing-eps-not-first", "two-kinds"])
def test_converge_reports_the_first_failing_eps(tmp_path, capsys, eps_list, theta1, stderr):
    """converge checks its eps ladder in the order eps by eps would, largest eps first:
    a tiny eps whose W^(2n) is past POWER_TOL, listed after two that pass, exits 1 with
    its n; with a huge eps whose coin angles overflow (theta1 eps = 4e308) too, the
    overflow, the larger eps, is the failure reported, not the power's."""
    doc = time_doc()
    doc["walk"]["coin_x"]["theta1"] = theta1
    doc["run"]["eps_list"] = eps_list
    assert main(["--config", write_config(tmp_path, doc), "converge"]) == 1
    assert capsys.readouterr() == ("", stderr)


def test_converge_plastic_mode(tmp_path, capsys):
    rng = np.random.default_rng(8)
    doc = plastic_doc(rng)
    doc["run"]["eps_list"] = [2.0 ** -k for k in range(6, 11)]
    path = write_config(tmp_path, doc)
    assert main(["--config", path, "converge"]) == 0
    out = json.loads(capsys.readouterr().out)
    errs = [s["error"] for s in out["samples"]]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert out["slope"] > 0.3


def test_dispersion_command(tmp_path, capsys):
    path = write_config(tmp_path, time_doc())
    assert main(["--config", path, "dispersion"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["bands"]) == 25


def _band_oracle(kxs, kys, bands):
    """The band table over kxs x kys, one k-point at a time: its rows as json.dumps takes
    them, and as CSV text with %.17g floats."""
    rows = [(x, y, p1, p2) for (x, y), (p1, p2)
            in zip([(x, y) for x in kxs for y in kys], bands.reshape(-1, 2).tolist())]
    return ([{"kx": x, "ky": y, "phase1": p1, "phase2": p2} for x, y, p1, p2 in rows],
            "".join(f"{x:.17g},{y:.17g},{p1:.17g},{p2:.17g}\n" for x, y, p1, p2 in rows))


def _dispersion_oracle(eps, n, bands):
    """The band table as json.dumps and %.17g write it, one k-point at a time."""
    ks = np.linspace(-np.pi, np.pi, n, endpoint=False).tolist()
    listing, csv = _band_oracle(ks, ks, bands)
    text = json.dumps({"schema_version": 1, "eps": eps, "bands": listing},
                      sort_keys=True, indent=2) + "\n"
    return text, "kx,ky,phase1,phase2\n" + csv


def _dispersion_outputs(tmp_path, capsys, doc):
    path = write_config(tmp_path, doc)
    outs = []
    for fmt in ("json", "csv"):
        assert main(["--config", path, "--format", fmt, "dispersion"]) == 0
        outs.append(capsys.readouterr().out)
    return tuple(outs)


def test_dispersion_infinite_phases_print_as_json_writes_them(tmp_path, capsys, monkeypatch):
    bands = np.array([np.nan, np.inf, -np.inf, 0.5, -1e-300, 3.0, np.inf, -np.inf] * 4)[:18]
    monkeypatch.setattr(convergence, "dispersion", lambda *args: bands.reshape(3, 3, 2))
    doc = time_doc()
    doc["run"]["grid"] = 3
    outs = _dispersion_outputs(tmp_path, capsys, doc)
    assert outs == _dispersion_oracle(doc["run"]["eps"], 3, bands)
    assert '"phase2": -Infinity' in outs[0] and ",-inf," in outs[1]


# the (g17_cells, repr_cells) calls of each (grid, K_BLOCK or None for the default)
_BAND_CALLS = {(150, None): (8, 8), (5, 12): (5, 5), (1, None): (3, 3), (5, 4): (12, 12)}


@pytest.mark.parametrize("grid,block", list(_BAND_CALLS))
def test_dispersion_blocks_match_the_oracle(tmp_path, capsys, monkeypatch, grid, block):
    """Both band tables run through one writer, in the same tiles: at grid 150, tiles of
    27 kx rows (4,050 of the ``K_BLOCK`` 4,096 k-points) and a last one of 15; at grid 5
    with a block of 12 k-points, tiles of 2, 2 and 1 rows, so the ",\n" seams between
    JSON tiles are compared with json.dumps too; at grid 1, one tile of one row, the
    last; and at grid 5 with a block of 4 k-points, less than one kx row, each row cut
    into column tiles of 4 and 1 k-points, 10 tiles."""
    if block is not None:
        monkeypatch.setattr(cli, "K_BLOCK", block)
    calls = []
    for name in ("g17_cells", "repr_cells"):
        kernel = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda v, k=kernel, n=name: calls.append(n) or k(v))
    doc = time_doc()
    doc["run"]["grid"] = grid
    cfg = ExperimentConfig.from_dict(doc)
    ks = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    bands = convergence.dispersion(cfg.walk, cfg.eps, ks[:, None], ks[None, :])
    assert _dispersion_outputs(tmp_path, capsys, doc) == _dispersion_oracle(cfg.eps, grid, bands)
    # a call for the kx cells, one for the ky cells, then one a tile
    assert (calls.count("g17_cells"), calls.count("repr_cells")) == _BAND_CALLS[grid, block]


# a momentum of each text length the kernels write, in '%.17g' and as json writes it:
# +-0, the exact fallback (5e-324), scientific and fixed notation, the longest texts
MOMENTA = [0.0, -0.0, 5e-324, 1e-05, -0.00012, 0.1, -3.141592653589793,
           -1.2345678901234567e-100]


@pytest.mark.parametrize("kernel,text", [(cli.g17_cells, "%.17g".__mod__),
                                         (cli.repr_cells, json.dumps)])
def test_momentum_texts_are_as_wide_as_the_longest(kernel, text):
    texts = [text(x).encode() for x in MOMENTA]
    width = max(map(len, texts))
    assert width == len(text(MOMENTA[-1])) < 32
    narrow = key_text(kernel(np.array(MOMENTA)))
    assert narrow.shape == (len(MOMENTA), width)
    assert narrow.tobytes() == b"".join(t.ljust(width, b"\0") for t in texts)


@pytest.mark.parametrize("block", [None, 16, 3])
@pytest.mark.parametrize("kxs,kys", [(MOMENTA, MOMENTA[::-1]), (MOMENTA[:2], MOMENTA),
                                     (MOMENTA, [0.1, -0.0])])
def test_band_rows_in_narrow_momentum_slots_match_the_oracle(monkeypatch, kxs, kys, block):
    """kx and ky slots of different widths (4 and 24 bytes in JSON, 2 and 24 in CSV);
    with a block of 16 k-points, tiles of 2 kx rows and the seams between them; with a
    block of 3, less than a row of 8 ky momenta, column tiles of 3, 3 and 2 k-points and
    their seams (tiles of one row where a row is 2)."""
    if block is not None:
        monkeypatch.setattr(cli, "K_BLOCK", block)
    bands = np.random.default_rng(5).uniform(-np.pi, np.pi, (len(kxs), len(kys), 2))
    listing, csv = _band_oracle(kxs, kys, bands)
    kx, ky = np.array(kxs)[:, None], np.array(kys)[None, :]
    rows = "".join(cli._band_rows(kx, ky, bands, "json"))
    assert '{\n  "bands": [\n' + rows + "\n  ]\n}" == json.dumps({"bands": listing},
                                                             sort_keys=True, indent=2)
    assert "".join(cli._band_rows(kx, ky, bands, "csv")) == csv


def test_dispersion_json_memory_stays_near_the_band_array(tmp_path):
    """The band table is written a block of kx rows at a time: at grid 256 (65,536
    k-points) the traced peak stays under 12 MiB, where one string of the whole table
    took 24 MiB."""
    doc = time_doc()
    doc["run"]["grid"] = 256
    proc, _, peak = _run_child(tmp_path, doc, "dispersion")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count('"kx"') == 256 ** 2
    assert peak <= 12 * 2 ** 20


def test_dispersion_csv_memory_stays_near_the_band_array(tmp_path):
    """The CSV band table is formatted a block of kx rows at a time: at grid 256 the
    traced peak stays under the same 12 MiB as the JSON table."""
    doc = time_doc()
    doc["run"]["grid"] = 256
    proc, _, peak = _run_child(tmp_path, doc, "dispersion", "--format", "csv")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("\n") == 256 ** 2 + 1
    assert peak <= 12 * 2 ** 20


def test_converge_memory_stays_near_one_tile(tmp_path):
    """Time-mode converge walks its grid a tile of CONVERGE_BLOCK k-points at a time: at
    grid 512 (262,144 k-points, 16 tiles) the traced peak stays under 8 MiB (about
    5.7 MiB), where the whole-grid loop took about 112 MiB."""
    doc = time_doc()
    doc["run"]["grid"] = 512
    proc, _, peak = _run_child(tmp_path, doc, "converge")
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(json.loads(proc.stdout)["samples"]) == 4
    assert peak <= 8 * 2 ** 20


def test_outputs_are_deterministic(tmp_path):
    path = write_config(tmp_path, time_doc())
    dir1 = tmp_path / "run1"
    dir2 = tmp_path / "run2"
    dir1.mkdir()
    dir2.mkdir()
    out1 = dir1 / "out.json"
    out2 = dir2 / "out.json"
    assert main(["--config", path, "--output", str(out1), "--seed", "9", "simulate"]) == 0
    assert main(["--config", path, "--output", str(out2), "--seed", "9", "simulate"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (dir1 / "out.json.field.csv").read_bytes() == (dir2 / "out.json.field.csv").read_bytes()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("a,b", [("2/3", "3/4"), ("0/1", "1/2")])
def test_check_without_order_one_terms_prints_strict_json(tmp_path, capsys, a, b):
    doc = plastic_doc(np.random.default_rng(9))
    doc["walk"]["a"] = a
    doc["walk"]["coin_x"]["b"] = doc["walk"]["coin_y"]["b"] = b
    assert main(["--config", write_config(tmp_path, doc), "check"]) == 1
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    by_name = {c["name"]: c for c in out["conditions"]}
    assert by_name["exponents_rational"]["witness"]["order_one_terms"] == 0
    assert by_name["no_divergence"] == {"name": "no_divergence", "satisfied": False,
                                        "residual": 1.0, "witness": {}}


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="known defect, ROADMAP item 2: every order-1 group cancels at "
                          "a = b = 1, yet the gate passes and pde prints calibration NaN")
def test_pde_without_surviving_order_one_groups_prints_strict_json(tmp_path, capsys):
    doc = plastic_doc(np.random.default_rng(9))
    doc["walk"]["a"] = doc["walk"]["coin_x"]["b"] = doc["walk"]["coin_y"]["b"] = "1/1"
    path = write_config(tmp_path, doc)
    assert main(["--config", path, "check"]) == 0
    capsys.readouterr()
    main(["--config", path, "pde"])
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


def test_pde_without_surviving_order_one_groups_renders_no_terms(tmp_path, capsys):
    """The known defect above, as it stands: pde at a = b = 1 exits 0 with no terms and a
    NaN calibration, its rendering (every coefficient rounded in one call, here none) only
    the header line."""
    doc = plastic_doc(np.random.default_rng(9))
    doc["walk"]["a"] = doc["walk"]["coin_x"]["b"] = doc["walk"]["coin_y"]["b"] = "1/1"
    assert main(["--config", write_config(tmp_path, doc), "pde"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == "" and payload["terms"] == [] and math.isnan(payload["calibration"])
    assert payload["rendered"] == ["d/dt Psi = sum of the terms below (calibration folded in):"]


def test_converge_without_surviving_order_one_groups_names_the_cause(tmp_path, capsys):
    doc = plastic_doc(np.random.default_rng(9))
    doc["walk"]["a"] = doc["walk"]["coin_x"]["b"] = doc["walk"]["coin_y"]["b"] = "1/1"
    assert main(["--config", write_config(tmp_path, doc), "converge"]) == 1
    err = capsys.readouterr().err
    assert "every order-1 coefficient group cancels" in err and "exp_herm" not in err


def test_gate_finds_the_root_of_unity_index(tmp_path, capsys):
    """tau = 4 with delta = 0 needs l = 1: every command runs the same gate."""
    path = write_config(tmp_path, time_doc(delta=0.0, tau=4))
    assert main(["--config", path, "check"]) == 0
    out = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in out["conditions"]}
    assert by_name["delta_quantization"]["witness"] == {"l": 1, "p": 1}
    assert main(["--config", path, "hamiltonian"]) == 0
    capsys.readouterr()
    assert main(["--config", path, "converge"]) == 0
    assert 0.85 <= json.loads(capsys.readouterr().out)["slope"] <= 1.15


def _run_child(tmp_path, doc, command, *flags):
    """``main`` on ``doc`` (and ``flags``) in a child process, so that a slow run fails
    on the timeout instead of hanging the suite.  Returns the process, the seconds
    ``main`` took and the peak memory it traced."""
    child = ("import sys, time, tracemalloc\n"
             "from plasticwalk.cli import main\n"
             "tracemalloc.start()\n"
             "start = time.perf_counter()\n"
             "code = main(sys.argv[2:])\n"
             "seconds = time.perf_counter() - start\n"
             "with open(sys.argv[1], 'w') as fh:\n"
             "    fh.write(f'{seconds} {tracemalloc.get_traced_memory()[1]}')\n"
             "sys.exit(code)\n")
    # the child imports the package these tests import
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(plasticwalk.__file__))}
    measured = tmp_path / "measured.txt"
    proc = subprocess.run([sys.executable, "-c", child, str(measured), "--config",
                           write_config(tmp_path, doc), *flags, command],
                          env=env, capture_output=True, text=True, timeout=30)
    seconds, peak = measured.read_text().split()
    return proc, float(seconds), int(peak)


@pytest.mark.parametrize("steps", [10 ** 12, 10 ** 7])
def test_simulate_cost_is_logarithmic_in_steps(tmp_path, steps):
    doc = time_doc()
    doc["lattice"] = {"nx": 2, "ny": 2}
    doc["run"]["steps"] = steps
    proc, seconds, _ = _run_child(tmp_path, doc, "simulate")
    assert proc.returncode == 0 and proc.stderr == ""
    assert seconds < 1.0
    out = json.loads(proc.stdout)
    assert out["steps"] == steps and out["norm_drift"] <= 1e-3


def _lattice(nx, ny, steps=1):
    def edit(doc):
        doc["lattice"] = {"nx": nx, "ny": ny}
        doc["run"]["steps"] = steps
    return edit


def test_simulate_budget_does_not_count_steps(tmp_path):
    """512^2 sites x 256 steps: within the budget, whatever the step count."""
    doc = time_doc()
    _lattice(512, 512, steps=256)(doc)
    proc, _, _ = _run_child(tmp_path, doc, "simulate")
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["norm_drift"] <= 1e-12


@pytest.mark.parametrize("edit,command", [
    (_lattice(2 ** 15, 2 ** 15), "simulate"),
    (_lattice(2 ** 12, 2 ** 10, steps=100), "simulate"),
    (lambda doc: doc["run"].update(grid=2 ** 15), "dispersion"),
    (lambda doc: doc["run"].update(grid=2 ** 15), "converge"),
], ids=["simulate-sites", "simulate-rectangle", "dispersion-grid", "converge-grid"])
def test_over_the_work_budget_exits_one_before_allocating(tmp_path, edit, command):
    """2**30 sites or k-points would need tens of GiB; 2**12 x 2**10 is 2**22
    sites, twice the budget."""
    doc = time_doc()
    edit(doc)
    proc, seconds, peak = _run_child(tmp_path, doc, command)
    assert proc.returncode == 1 and proc.stdout == ""
    assert seconds < 1.0 and peak < 2 ** 20
    assert proc.stderr.startswith(f"{command}: ") and "work budget" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_plastic_converge_counts_its_momenta_against_the_work_budget(
        tmp_path, monkeypatch, capsys):
    """Plastic converge counts its momenta as time-mode converge counts grid**2: with the
    budget lowered to 1, two momenta exit 1 before the gate, with one stderr line, and at
    a budget of 2 they converge."""
    doc = plastic_doc(np.random.default_rng(10))
    assert len(doc["run"]["momenta"]) == 2
    path = write_config(tmp_path, doc)
    monkeypatch.setattr(cli, "WORK_BUDGET", 1)
    monkeypatch.setattr(convergence, "spacetime_convergence", None)  # never reached
    assert main(["--config", path, "converge"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("converge: run.momenta has len(run.momenta) momenta: 2, "
                                 "over the work budget of 1\n")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "WORK_BUDGET", 2)
    assert main(["--config", path, "converge"]) == 0
    assert len(json.loads(capsys.readouterr().out)["samples"]) == len(doc["run"]["eps_list"])


@pytest.mark.parametrize("a,b", [("1/1000000", "1/1000000"), ("1/2", "1/1000000"),
                                 ("1/1000000", "1/1")])
@pytest.mark.parametrize("command", ["check", "pde", "terms", "converge"])
def test_tuple_budget_refuses_at_once_at_any_denominators(tmp_path, a, b, command):
    """The pair table stops at the budget, so a denominator of 10**6 costs a few dozen pairs."""
    doc = plastic_doc(np.random.default_rng(10))
    doc["walk"]["a"] = a
    doc["walk"]["coin_x"]["b"] = doc["walk"]["coin_y"]["b"] = b
    proc, seconds, _ = _run_child(tmp_path, doc, command)
    assert proc.returncode == 1 and proc.stdout == "" and seconds < 1.0
    assert proc.stderr.startswith(f"{command}: ") and "work budget" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_terms_lists_the_order_one_pair_where_check_hits_the_budget(tmp_path, capsys):
    """(2/1001, 999/1001): one order-1 pair (1, 1) of 16 tuples, and 500 pairs of order
    below 1 with far more than the budget."""
    doc = plastic_doc(np.random.default_rng(10))
    doc["walk"]["a"] = "2/1001"
    doc["walk"]["coin_x"]["b"] = doc["walk"]["coin_y"]["b"] = "999/1001"
    path = write_config(tmp_path, doc)
    assert main(["--config", path, "terms"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 16
    assert main(["--config", path, "check"]) == 1
    assert "work budget" in capsys.readouterr().err


def _set(section, key, value):
    def edit(doc):
        doc[section][key] = value
    return edit


def _initial_kx(value):
    def edit(doc):
        doc["run"]["initial"] = {"type": "plane_wave", "kx": value}
    return edit


def _plastic_tau(doc):
    doc.update(plastic_doc(np.random.default_rng(10)))
    doc["walk"]["tau"] = 4


def _plastic(edit):
    def plastic_edit(doc):
        doc.update(plastic_doc(np.random.default_rng(10)))
        edit(doc)
    return plastic_edit


def _coin_x(key, value):
    def edit(doc):
        doc["walk"]["coin_x"][key] = value
    return edit


def _overflowing_coin(doc):
    doc["walk"]["coin_x"]["theta1"] = 4.0  # theta0 + theta1 eps overflows to inf
    doc["run"].update(eps=1e308, grid=3)


def _coin_y(key, value):
    def edit(doc):
        doc["walk"]["coin_y"][key] = value
    return edit


def _coin_b(value):
    def edit(doc):
        doc["walk"]["coin_x"]["b"] = doc["walk"]["coin_y"]["b"] = value
    return edit


def _root(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _huge_deltas(doc):
    doc["walk"]["coin_x"]["delta"] = doc["walk"]["coin_y"]["delta"] = 1e308  # the sum is inf


def _fiftieths(doc):
    doc["walk"]["a"] = doc["walk"]["coin_x"]["b"] = doc["walk"]["coin_y"]["b"] = "1/50"


# the exact stderr line of each config error: a message formatted only when its check
# fails must read as an eagerly formatted one did
@pytest.mark.parametrize("edit,command,code,stderr", [
    (_plastic_tau, "check", 1, None),
    (_set("lattice", "nx", 1), "simulate", 2, "lattice nx and ny must be >= 2, got 1, 16"),
    (_set("lattice", "ny", 0), "simulate", 2, "lattice nx and ny must be >= 2, got 16, 0"),
    (_set("run", "grid", 0), "dispersion", 2, "run.grid must be >= 1, got 0"),
    (_set("run", "eps", -1.0), "simulate", 2, "run.eps must be > 0, got -1.0"),
    (_set("run", "eps", 0.0), "dispersion", 2, "run.eps must be > 0, got 0.0"),
    (_set("run", "eps_list", [0.01, 0.005]), "converge", 2,
     "run.eps_list needs at least 3 distinct entries, all > 0, got [0.01, 0.005]"),
    (_set("run", "eps_list", [0.01, 0.0, 0.005]), "converge", 2,
     "run.eps_list needs at least 3 distinct entries, all > 0, got [0.01, 0.0, 0.005]"),
    (_set("run", "eps_list", [0.01, 0.01, 0.01]), "converge", 2,
     "run.eps_list needs at least 3 distinct entries, all > 0, got [0.01, 0.01, 0.01]"),
    (_set("run", "eps_list", [2.0 ** -k for k in range(17)]), "converge", 2,
     "run.eps_list may have at most 16 entries, got 17"),
    (_set("run", "momenta", []), "converge", 2, "run.momenta must not be empty"),
    (_set("run", "steps", -1), "simulate", 2, "run.steps must be >= 0, got -1"),
    (_initial_kx("abc"), "simulate", 2,
     "bad config value: could not convert string to float: 'abc'"),
    (_initial_kx(float("inf")), "simulate", 2,
     "run.initial kx and ky must be finite, got {'type': 'plane_wave', 'kx': inf}"),
    (_set("run", "t_final", float("inf")), "converge", 2,
     "run.t_final must be >= 0 with t_final / eps finite, got inf"),
    (_set("run", "t_final", -1e308), "converge", 2,
     "run.t_final must be >= 0 with t_final / eps finite, got -1e+308"),
    (_plastic(_set("run", "momenta", [[1.0]])), "converge", 2,
     "bad config value: run.momenta entry must have 2 entries, got 1"),
    (_root("run", []), "check", 2, "run must be a JSON object, got list"),
    (_root("lattice", 5), "simulate", 2, "lattice must be a JSON object, got int"),
    (_root("seed", -1), "simulate", 2, "seed must be >= 0, got -1"),
    (_set("walk", "tau", 10 ** 400), "check", 2, "walk.tau must be at most 2**53"),
    (_coin_x("theta1", 10 ** 400), "check", 2, "bad config value: int too large to convert to float"),
    (_huge_deltas, "check", 2, "bad config value: delta_x + delta_y must be finite"),
    (_set("walk", "a", "1/2"), "converge", 2, "bad config value: time mode fixes a_exp = 0"),
    (_set("walk", "tau", 2.5), "check", 2,
     "bad config value: walk.tau must be an integer, got 2.5"),
    (_set("walk", "tau", True), "check", 2,
     "bad config value: walk.tau must be an integer, got True"),
    (_set("lattice", "nx", 32.9), "simulate", 2,
     "bad config value: lattice.nx must be an integer, got 32.9"),
    (_set("lattice", "ny", False), "simulate", 2,
     "bad config value: lattice.ny must be an integer, got False"),
    (_set("run", "grid", True), "dispersion", 2,
     "bad config value: run.grid must be an integer, got True"),
    (_set("run", "steps", 7.9), "simulate", 2,
     "bad config value: run.steps must be an integer, got 7.9"),
    (_root("seed", 1.5), "simulate", 2, "bad config value: seed must be an integer, got 1.5"),
    (_set("walk", "a", True), "check", 2,
     "bad config value: walk.a must be a 'p/q' string, got True"),
    (_plastic(_coin_x("b", True)), "check", 2,
     "bad config value: walk.coin_x.b must be a 'p/q' string, got True"),
    (_plastic(_coin_y("b", "1/3")), "check", 2, "bad config value: walk.coin_y.b must equal "
     "walk.coin_x.b (one b for both coins), got 1/3 and 1/2"),
    (_coin_b("1/2"), "check", 2, "bad config value: time mode fixes b_exp = 1"),
    (_set("run", "eps", True), "dispersion", 2,
     "bad config value: run.eps must be a number, got True"),
    (_coin_x("theta1", True), "hamiltonian", 2,
     "bad config value: walk.coin_x.theta1 must be a number, got True"),
    (_set("run", "eps_list", [True, 0.5, 0.25]), "converge", 2,
     "bad config value: run.eps_list entry must be a number, got True"),
    (_plastic(_set("run", "momenta", [[True, False]])), "converge", 2,
     "bad config value: run.momenta entry must be a number, got True"),
    (_initial_kx(True), "simulate", 2,
     "bad config value: run.initial.kx must be a number, got True"),
    (_set("run", "eps_list", "123"), "converge", 2,
     "bad config value: run.eps_list must be a JSON array, got str"),
    (_set("run", "eps_list", {"0.1": 1, "0.2": 2, "0.3": 3}), "converge", 2,
     "bad config value: run.eps_list must be a JSON array, got dict"),
    (_plastic(_set("run", "momenta", ["12", "34"])), "converge", 2,
     "bad config value: run.momenta entry must be a JSON array, got str"),
    (_plastic(_set("run", "momenta", {"0.7": -0.3})), "converge", 2,
     "bad config value: run.momenta must be a JSON array, got dict"),
    (_plastic(_set("run", "momenta", [[0.7, -0.3, 0.1]])), "converge", 2,
     "bad config value: run.momenta entry must have 2 entries, got 3"),
    (_overflowing_coin, "dispersion", 1, None),
    (_overflowing_coin, "simulate", 1, "coin is not unitary to 1e-10 (defect nan)"),
    (_initial_kx(1e308), "simulate", 1, "plane wave phase kx l + ky m is not finite on a "
     "16x16 lattice (kx = 1e+308, ky = 0.0)"),
    (_set("run", "eps_list", [1e308, 1e-3, 1e-4]), "converge", 1, None),
    (_set("run", "eps_list", [1e-30, 1e-31, 1e-32]), "converge", 1, None),
    (_plastic(_set("run", "eps_list", [1e-300, 1e-301, 1e-302])), "converge", 1, None),
    (_plastic(_set("run", "momenta", [[float("inf"), 0.0]])), "converge", 1, None),
    (_plastic(_set("run", "momenta", [[1e308, 0.0]])), "converge", 1,
     "PDE generator is not Hermitian to 1e-10 (defect nan)"),
    (_coin_y("theta0", 1e300), "converge", 1, "config fails the time-limit gate: theta_branch"),
    (_plastic(_fiftieths), "check", 1, None),
    (_plastic(_fiftieths), "pde", 1, None),
    (_plastic(_fiftieths), "terms", 1, None),
], ids=["plastic-tau-4", "nx-1", "ny-0", "grid-0", "eps-negative", "eps-zero",
        "eps_list-two", "eps_list-zero-entry", "eps_list-repeated", "eps_list-seventeen",
        "momenta-empty",
        "steps-negative",
        "initial-kx-abc", "initial-kx-inf", "t_final-inf", "t_final-huge-negative",
        "momenta-short", "run-list", "lattice-int", "seed-negative", "tau-huge", "coin-angle-huge", "delta-sum-overflow", "time-a-nonzero",
        "tau-fraction", "tau-bool", "nx-fraction", "ny-bool", "grid-bool", "steps-fraction",
        "seed-fraction", "a-bool", "b-bool", "coin-b-mismatch", "time-b-half", "eps-bool",
        "theta1-bool", "eps_list-bool", "momenta-bool", "initial-kx-bool",
        "eps_list-string", "eps_list-object", "momenta-strings", "momenta-object",
        "momenta-long",
        "coin-overflow-nan-phases", "coin-overflow-simulate",
        "plane-wave-phase-overflow", "eps_list-huge", "eps_list-tiny-time", "eps_list-tiny-plastic",
        "plastic-momenta-inf", "plastic-momenta-huge", "theta0-huge", "budget-check", "budget-pde", "budget-terms"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_input_exit_codes_without_traceback(tmp_path, capsys, edit, command, code, stderr):
    doc = time_doc()
    edit(doc)
    assert main(["--config", write_config(tmp_path, doc), command]) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    if stderr is not None:  # a config error (exit 2) or the command's own (exit 1)
        assert err == f"{'config error' if code == 2 else command}: {stderr}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hamiltonian_renders_coefficients_whose_rounding_overflows(tmp_path, capsys):
    """At coin_x.theta1 = 1e300 two term matrices of the time_compliant walk hold entries
    near 2.5e299, past the about 1.8e296 where rounding to 12 decimals overflows: each
    rendered coefficient is its terms matrix entry, rounded only where that stays finite."""
    with open(os.path.join(os.path.dirname(__file__), "golden", "time_compliant",
                           "config.json")) as fh:
        doc = json.load(fh)
    doc["walk"]["coin_x"]["theta1"] = 1e300
    assert main(["--config", write_config(tmp_path, doc), "hamiltonian"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out)
    largest = 0.0
    for line, term in zip(payload["rendered"][1:], payload["terms"], strict=True):
        rendered = np.array(ast.literal_eval(line.split(" x ", 1)[1])).ravel()
        matrix = np.array(term["matrix"]).view(np.complex128)
        assert np.all(np.abs(rendered - matrix) <= 1e-12), line
        largest = max(largest, float(np.max(np.abs(matrix))))
    assert largest > 1e299


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    text = json.dumps(time_doc()).encode()
    at = text.index(b'"time"') + 2
    path = tmp_path / "cfg.json"
    path.write_bytes(text[:at] + b"\xff" + text[at + 1:])
    assert main(["--config", str(path), "check"]) == 2
    assert capsys.readouterr().err == ("config error: config is not valid JSON: 'utf-8' codec "
                                       f"can't decode byte 0xff in position {at}: invalid start byte\n")


def test_unwritable_output_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, time_doc())
    out = str(tmp_path / "missing-dir" / "out.json")
    assert main(["--config", path, "--output", out, "check"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("check: cannot write output: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ("check", "hamiltonian", "pde", "simulate"))
@pytest.mark.parametrize("direct", (True, False))
def test_format_csv_is_refused_where_a_command_writes_no_csv(tmp_path, capsys, command, direct):
    """Exit 2 and one stderr line naming the three CSV commands, whether ``main`` reads the
    argv itself or argparse does (--format=csv), before the config is loaded: nothing is
    written.  --format json runs the command."""
    path, out = write_config(tmp_path, time_doc()), tmp_path / "out"
    argv = ["--config", path, "--output", str(out), command]
    assert main(argv[:2] + (["--format", "csv"] if direct else ["--format=csv"]) + argv[2:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{command}: --format csv applies to converge, dispersion and "
                            f"terms only; {command} writes JSON\n")
    assert os.listdir(tmp_path) == ["cfg.json"]
    pde = command == "pde"  # a time config: the command's own refusal
    assert main(argv[:2] + ["--format", "json"] + argv[2:]) == (1 if pde else 0)
    assert capsys.readouterr().err == ("pde: requires a plastic-mode config\n" if pde else "")


def test_a_seed_longer_than_int_reads_is_argparse_usage_error(tmp_path, capsys):
    """A seed of more digits than int() reads leaves the direct parse (``_args`` returns
    None) for argparse, which exits 2 with its usage and one error line, no traceback."""
    argv = ["--config", write_config(tmp_path, time_doc()), "--seed", "9" * 5000, "check"]
    assert cli._args(argv) is None
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: plasticwalk") and "Traceback" not in err
    assert [line for line in err.splitlines() if "error" in line] == [
        "plasticwalk: error: argument --seed: invalid int value: '" + "9" * 5000 + "'"]


def test_negative_seed_flag_is_checked_on_load(tmp_path, capsys):
    path = write_config(tmp_path, time_doc())
    assert main(["--config", path, "--seed", "-1", "simulate"]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"


# ---------------------------------------------------------------------------
# fuzzing config documents: every command ends in exit 0, 1 or 2, promptly

COMMANDS = ("check", "hamiltonian", "pde", "simulate", "converge", "dispersion", "terms")
DELETE = object()
JUNK = st.sampled_from([None, "abc", [], {}, True, "1/0", [1, 2]])
FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -1.0,
                          5e-324, 1e-300]) | st.floats(-10, 10)
INTS = st.sampled_from([10 ** 400, -10 ** 400, -1, 0, 1, 2, 3, 4])
RATIONALS = st.builds("{}/{}".format, st.integers(-1, 61), st.integers(0, 60))
NUMBERS = st.one_of(FLOATS, FLOATS, FLOATS, INTS, JUNK)  # mostly numbers that parse
# size keys stay small: a huge lattice or grid is slow, not wrong
SIZES = st.integers(-2, 12) | JUNK | st.sampled_from([math.nan, math.inf, 2.5])
COIN_KEYS = ("delta", "zeta0", "zeta1", "theta0", "theta1", "phi0", "phi1")


def _edit(path, values):
    return st.tuples(st.just(path), values).map(lambda edit: [edit])


def _exponents():
    """a, and b on both coins (plastic mode needs one b), denominators up to 60."""
    return st.tuples(RATIONALS, RATIONALS).map(lambda ab: [
        (("walk", "a"), ab[0]), (("walk", "coin_x", "b"), ab[1]),
        (("walk", "coin_y", "b"), ab[1])])


EDITS = st.one_of(
    [_edit(("lattice", k), SIZES) for k in ("nx", "ny")]
    + [_edit(("run", k), SIZES) for k in ("grid", "steps")]
    + [_edit(("run", k), NUMBERS) for k in ("t_final", "eps")]
    + [_edit(("walk", k), NUMBERS | RATIONALS) for k in ("tau", "a")]
    + [_edit(("walk", c, k), NUMBERS) for c in ("coin_x", "coin_y") for k in COIN_KEYS]
    + [_edit(("walk", c, "b"), RATIONALS | NUMBERS) for c in ("coin_x", "coin_y")]
    + [_exponents(),
       _edit(("walk", "mode"), st.sampled_from(["time", "plastic", "both"]) | JUNK),
       _edit(("run", "eps_list"), st.lists(FLOATS, max_size=6) | NUMBERS),
       _edit(("run", "momenta"), st.lists(st.lists(FLOATS, max_size=3) | JUNK, max_size=4)
             | NUMBERS),
       _edit(("run", "initial"), st.sampled_from(
           [{"type": "delta"}, {"type": "random"}, {"type": "plane_wave", "kx": 1e308},
            {"type": "spiral"}, {"kx": "abc"}]) | JUNK),
       _edit(("seed",), NUMBERS)]
    + [_edit(path, JUNK) for path in ((), ("walk",), ("walk", "coin_x"), ("lattice",), ("run",))]
    + [st.sampled_from([("walk",), ("walk", "mode"), ("walk", "coin_y"),
                        ("walk", "coin_x", "theta0"), ("walk", "tau"), ("lattice",), ("run",),
                        ("run", "eps_list"), ("seed",)]).map(lambda path: [(path, DELETE)])])


def _apply(doc, path, value):
    if value is not DELETE:
        value = copy.deepcopy(value)  # strategies may hand out one object many times
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        if not isinstance(node, dict) or not isinstance(node.get(key), dict):
            return doc  # an earlier edit replaced this section
        node = node[key]
    if isinstance(node, dict):
        if value is DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["time", "plastic"]), st.lists(EDITS, min_size=1, max_size=4))
def test_config_fuzz_exits_with_a_code(tmp_path_factory, base, edits):
    doc = time_doc() if base == "time" else plastic_doc(np.random.default_rng(12))
    for edit in edits:
        for path, value in edit:
            doc = _apply(doc, path, value)
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            code = main(["--config", str(path), command])
        assert code in (0, 1, 2), (command, doc)
        assert "Traceback" not in err.getvalue(), (command, doc)
        assert time.perf_counter() - start < 10.0, (command, doc)
