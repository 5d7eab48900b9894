"""``cli_digest.py --compare`` on hand-made dumps: what it prints and how it exits."""

import io

import numpy as np

from cli_digest import compare, dump

NEXT = repr(float(np.nextafter(0.1, 1.0)))  # 0.1 and one ulp


def _dumps(tmp_path, old: str, new: str):
    """Two dumps of one call, its stdout ``old`` and then ``new``, beside an unchanged call
    that wrote a file."""
    roots = tmp_path / "a", tmp_path / "b"
    for root, stdout in zip(roots, (old, new)):
        dump(root, "time_compliant grid=7 simulate json --output",
             (0, stdout, "", None, {"result.field.csv": b"l,m\n0,0,-0.5,1e-05\n"}))
        dump(root, "usage", (2, "", "usage: plasticwalk\n", None, {}))
    return roots


def _compare(a, b):
    out = io.StringIO()
    return compare(a, b, out), out.getvalue().splitlines()


def test_compare_passes_an_identical_pair(tmp_path):
    code, lines = _compare(*_dumps(tmp_path, '{"norm": 0.1}\n', '{"norm": 0.1}\n'))
    assert code == 0
    assert lines == ["2 calls: 0 numbers changed (largest abs 0, rel 0, ulp 0), 0 other changes"]


def test_compare_prints_a_one_ulp_change_and_passes(tmp_path):
    code, lines = _compare(*_dumps(tmp_path, '{"norm": 0.1, "steps": 20}\n',
                                   f'{{"norm": {NEXT}, "steps": 20}}\n'))
    assert code == 0
    assert lines == [
        f"time_compliant grid=7 simulate json --output stdout #0: 0.1 -> {NEXT}  abs 1.39e-17"
        "  rel 1.39e-16  ulp 1",
        "2 calls: 1 numbers changed (largest abs 1.39e-17, rel 1.39e-16, ulp 1), "
        "0 other changes"]


def test_compare_fails_a_changed_word(tmp_path):
    code, lines = _compare(*_dumps(tmp_path, '{"norm": 0.1}\n', '{"nurm": 0.1}\n'))
    assert code == 1
    assert lines == ["time_compliant grid=7 simulate json --output stdout: changed in more "
                     "than its numbers",
                     "2 calls: 0 numbers changed (largest abs 0, rel 0, ulp 0), 1 other changes"]


def test_compare_fails_a_call_on_one_side_only(tmp_path):
    a, b = _dumps(tmp_path, "", "")
    dump(b, "a new call", (0, "", "", None, {}))
    code, lines = _compare(a, b)
    assert code == 1 and "a new call code: only in" in lines[0]
