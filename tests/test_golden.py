"""Golden CLI output: every command, byte for byte, on pinned configs.

Each directory under ``tests/golden/`` holds one pinned ``config.json``
and, per command, a ``<command>.txt`` with the exit code, stderr and
stdout the CLI gave on it.  Regenerate a file only for an intended
output change, and name it in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py CONFIG/COMMAND [...]
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
CONFIGS = sorted(d for d in os.listdir(GOLDEN) if os.path.isdir(os.path.join(GOLDEN, d)))
CASES = [(name, command) for name in CONFIGS for command in COMMANDS]


def run(name: str, command: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", os.path.join(GOLDEN, name, "config.json"), command])
    return f"exit {code}\n--- stderr\n{err.getvalue()}--- stdout\n{out.getvalue()}"


def golden_path(name: str, command: str) -> str:
    return os.path.join(GOLDEN, name, f"{command}.txt")


@pytest.mark.parametrize("name,command", CASES)
def test_cli_output_matches_golden(name, command):
    with open(golden_path(name, command), newline="") as fh:
        assert run(name, command) == fh.read()


if __name__ == "__main__":
    for case in sys.argv[1:] or [f"{n}/{c}" for n, c in CASES]:
        name, command = case.split("/")
        with open(golden_path(name, command), "w", newline="") as fh:
            fh.write(run(name, command))
