"""Golden CLI output: every command, byte for byte, on pinned configs.

Each directory under ``tests/golden/`` holds one pinned ``config.json``
and, per command, a ``<command>.txt`` with the exit code, stderr and
stdout the CLI gave on it.  The commands with a CSV form also have a
``<command>.csv.txt`` for ``--format csv``.  Regenerate a file only for
an intended output change, and name it in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py CONFIG/COMMAND [CONFIG/COMMAND.csv ...]
    PYTHONPATH=src python tests/test_golden.py          # every file
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

from plasticwalk import SpinorField, _util, plastic
from plasticwalk.cli import main
from plasticwalk.config import ExperimentConfig
from plasticwalk.lattice import step

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
COMMANDS = ("check", "hamiltonian", "pde", "simulate", "converge", "dispersion", "terms")
CSV_COMMANDS = ("converge", "dispersion", "terms")
CONFIGS = sorted(d for d in os.listdir(GOLDEN) if os.path.isdir(os.path.join(GOLDEN, d)))
CASES = [(name, command) for name in CONFIGS for command in COMMANDS]
CSV_CASES = [(name, command) for name in CONFIGS for command in CSV_COMMANDS]


def run(name: str, command: str, fmt: str = "json", config: str | None = None) -> str:
    """The golden text of ``command`` on config ``name``, or on the file ``config``."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["--config", config or os.path.join(GOLDEN, name, "config.json"), "--format", fmt,
            command]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stderr\n{err.getvalue()}--- stdout\n{out.getvalue()}"


def golden_path(name: str, command: str, fmt: str = "json") -> str:
    suffix = ".csv.txt" if fmt == "csv" else ".txt"
    return os.path.join(GOLDEN, name, command + suffix)


def read_golden(name: str, command: str, fmt: str = "json") -> str:
    with open(golden_path(name, command, fmt), newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name,command", CASES)
def test_cli_output_matches_golden(name, command):
    assert run(name, command) == read_golden(name, command)


@pytest.mark.parametrize("name,command", CSV_CASES)
def test_cli_csv_output_matches_golden(name, command):
    assert run(name, command, "csv") == read_golden(name, command, "csv")


@pytest.mark.parametrize("name", [name for name in CONFIGS if name.startswith("plastic_")])
def test_pde_and_check_build_the_parity_words_once(monkeypatch, name):
    """A pde call builds the 16 parity words, their products and the class words once, for
    its gate and its assembly, and writes the golden bytes; check builds them once where
    the walk has order-1 terms (the gate then sums the groups below order 1), else never."""
    words, calls = plastic._words, []
    monkeypatch.setattr(plastic, "_words", lambda cfg: calls.append(cfg) or words(cfg))
    assert run(name, "pde") == read_golden(name, "pde")
    assert len(calls) == 1
    calls.clear()
    check = run(name, "check")
    assert check == read_golden(name, "check")
    report = json.loads(check.split("--- stdout\n", 1)[1])
    expo = next(c for c in report["conditions"] if c["name"] == "exponents_rational")
    assert len(calls) == (1 if expo["witness"]["order_one_terms"] else 0)


def test_every_unitarity_check_takes_the_two_plane_form(monkeypatch):
    """No caller in the package passes ``check_unitary`` a (..., 2, 2) stack: on every
    golden config each of the seven commands, in each of its formats, and ``lattice.step``
    hand it the tuple (g, a, b) and still write the golden bytes."""
    original, checked = _util.check_unitary, []

    def two_plane_only(m, what, tol):
        assert isinstance(m, tuple) and len(m) == 3, what
        checked.append(what)
        return original(m, what, tol)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("plasticwalk") and \
                getattr(module, "check_unitary", None) is original:
            monkeypatch.setattr(module, "check_unitary", two_plane_only)
    for name, command in CASES:
        assert run(name, command) == read_golden(name, command)
    for name, command in CSV_CASES:
        assert run(name, command, "csv") == read_golden(name, command, "csv")
    assert {"coin", "walk symbol"} <= set(checked)
    cfg = ExperimentConfig.load(os.path.join(GOLDEN, "time_generic", "config.json"))
    checked.clear()
    step(SpinorField.random(cfg.nx, cfg.ny, np.random.default_rng(0)), cfg.walk, cfg.eps)
    assert checked == ["coin", "coin"]


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
def test_config_with_a_byte_order_mark_matches_golden(tmp_path, encoding):
    """A config saved with a byte order mark -- UTF-8, as some Windows editors write
    it, or UTF-16 or UTF-32 -- loads, whatever the locale, and gives the golden output."""
    with open(os.path.join(GOLDEN, "time_compliant", "config.json"), encoding="utf-8") as fh:
        text = fh.read()
    config = tmp_path / "config.json"
    config.write_bytes(text.encode(encoding))
    for command in COMMANDS:
        assert run("time_compliant", command, config=str(config)) == read_golden(
            "time_compliant", command)


if __name__ == "__main__":
    cases = sys.argv[1:] or ([f"{n}/{c}" for n, c in CASES]
                             + [f"{n}/{c}.csv" for n, c in CSV_CASES])
    for case in cases:
        name, command = case.split("/")
        command, _, fmt = command.partition(".")
        fmt = fmt or "json"
        with open(golden_path(name, command, fmt), "w", newline="") as fh:
            fh.write(run(name, command, fmt))
