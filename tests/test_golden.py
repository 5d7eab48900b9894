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
import os
import sys

import pytest

from plasticwalk.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
COMMANDS = ("check", "hamiltonian", "pde", "simulate", "converge", "dispersion", "terms")
CSV_COMMANDS = ("converge", "dispersion", "terms")
CONFIGS = sorted(d for d in os.listdir(GOLDEN) if os.path.isdir(os.path.join(GOLDEN, d)))
CASES = [(name, command) for name in CONFIGS for command in COMMANDS]
CSV_CASES = [(name, command) for name in CONFIGS for command in CSV_COMMANDS]


def run(name: str, command: str, fmt: str = "json") -> str:
    out, err = io.StringIO(), io.StringIO()
    argv = ["--config", os.path.join(GOLDEN, name, "config.json"), "--format", fmt, command]
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


if __name__ == "__main__":
    cases = sys.argv[1:] or ([f"{n}/{c}" for n, c in CASES]
                             + [f"{n}/{c}.csv" for n, c in CSV_CASES])
    for case in cases:
        name, command = case.split("/")
        command, _, fmt = command.partition(".")
        fmt = fmt or "json"
        with open(golden_path(name, command, fmt), "w", newline="") as fh:
            fh.write(run(name, command, fmt))
