"""The config loader and the ``pde`` and ``hamiltonian`` renderers against their references
in ``tests/oracles.py``: the same ExperimentConfig or the same error on drawn documents,
and the same text on drawn walks."""

import contextlib
import copy
import io
import json
import os
import threading
import time
from argparse import Namespace
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasticwalk import cli, config
from plasticwalk._util import flat2
from plasticwalk.config import ConfigError, ExperimentConfig, parse_rational

from conftest import FAREY_8, draw_plastic_compliant, draw_plastic_generic, draw_time_compliant
from oracles import (
    config_from_dict, config_load, flat2_scalars, hamiltonian_text, pde_text,
    ref_parse_rational, rounded_np,
)

_COIN = ("delta", "zeta0", "zeta1", "theta0", "theta1", "phi0", "phi1", "b")
TIME = {"walk": {"mode": "time", "tau": 2, "a": "0/1",
                 "coin_x": {"delta": 0.0, "zeta0": 0.4, "zeta1": 0.1, "theta0": np.pi,
                            "theta1": 0.7, "phi0": -0.3, "phi1": 0.2, "b": "1/1"},
                 "coin_y": {"delta": -np.pi / 2, "zeta0": 0.2, "zeta1": -0.1, "theta0": 0.0,
                            "theta1": -0.3, "phi0": 0.1, "phi1": 0.3, "b": "1/1"}},
        "lattice": {"nx": 16, "ny": 16},
        "run": {"t_final": 1.0, "eps": 0.01, "eps_list": [0.02, 0.01, 0.005], "grid": 5,
                "steps": 50, "momenta": [[0.7, -0.3]], "initial": {"type": "random"}},
        "seed": 7}
PLASTIC = {"walk": {"mode": "plastic", "tau": 2, "a": "1/2",
                    "coin_x": {**TIME["walk"]["coin_x"], "zeta1": 0.0, "phi1": 0.0, "b": "1/2"},
                    "coin_y": {**TIME["walk"]["coin_y"], "zeta1": 0.0, "phi1": 0.0, "b": "1/2"}}}

# Where an edit may go: every section, and every key of every section.
PATHS = ([(), ("walk",), ("lattice",), ("run",), ("seed",), ("walk", "mode"), ("walk", "tau"),
          ("walk", "a"), ("walk", "coin_x"), ("walk", "coin_y")]
         + [("walk", coin, key) for coin in ("coin_x", "coin_y") for key in _COIN]
         + [("lattice", "nx"), ("lattice", "ny")]
         + [("run", key) for key in ("t_final", "eps", "eps_list", "grid", "steps", "momenta",
                                     "initial")]
         + [("run", "initial", key) for key in ("type", "kx", "ky")])
DELETE = object()
# Values that reach each refusal of the README's list, and values that load.
VALUES = st.one_of(
    st.sampled_from([
        DELETE, None, True, False, -1, 0, 1, 2, 3, 17, 2 ** 53, 2 ** 53 + 1, 10 ** 400,
        0.0, -0.0, 0.5, 2.0, 2.5, -1.0, 1e-3, 1e308, -1e308, 1e-320, float("nan"),
        float("inf"), -float("inf"), np.pi,
        "1/2", "1/3", "2/3", "1/1", "1", "0/1", "1/0", "3/2", "-1/2", "+1/2", " 1/2 ",
        "1 / 2", "half", "0.5", "1e-1", "1_0/20", "٣/4", "²/3", "01/02", "",
        "time", "plastic", "bogus", "plane_wave", "delta", "random", "abc", "12",
        [], [1.0], [0.1, 0.05], [0.1, 0.05, 0.025], [0.1, 0.1, 0.1], [0.1, 0.0, 0.05],
        [2.0 ** -k for k in range(17)], [True, 0.5, 0.25], [[0.7, -0.3]],
        [[0.7, -0.3], [0.1, 0.2]], [[1.0]], [[0.7, -0.3, 0.1]], ["12", "34"],
        [[True, False]], [[float("nan"), 0.0]], [[1e308, 0.0]],
        {}, {"type": "delta"}, {"type": "random"}, {"type": "plane_wave", "kx": 0.3},
        {"type": "bogus"}, {"0.1": 1}, {"mode": "time"},
    ]),
    st.floats(), st.integers(-5, 2 ** 60))
EDITS = st.lists(st.tuples(st.sampled_from(PATHS), VALUES), max_size=4)


def _edited(base: dict, edits) -> object:
    doc = copy.deepcopy(base)
    for path, value in edits:
        if not path:
            doc = {} if value is DELETE else value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if value is DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error's type and text are what is compared
        return type(exc), str(exc)


def _same(got, want) -> None:
    if isinstance(want, tuple):
        assert got == want
    else:  # NaN momenta compare unequal to themselves; their repr is compared too
        assert isinstance(got, ExperimentConfig) and repr(got) == repr(want)
        assert got == want or "nan" in repr(want)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([TIME, PLASTIC]), EDITS, st.sampled_from([None, 0, 3, -1, 2 ** 70]))
@example(TIME, [], None)
@example(PLASTIC, [(("walk", "coin_y", "b"), "1/3")], None)
@example(TIME, [(("walk", "a"), "²/3")], None)
@example(TIME, [(("walk", "a"), "1/0")], None)
@example(TIME, [(("run", "eps_list"), [0.1, float("nan"), 0.05, 0.02])], None)
@example(TIME, [(("run", "initial", "ky"), float("inf"))], None)
@example(TIME, [(("run", "initial"), {"type": "delta", "kx": float("nan")})], None)
@example(TIME, [(("lattice",), DELETE), (("run",), DELETE)], 5)
# the two coins' b: the same text is parsed once, any other pair parsed and compared
@example(PLASTIC, [(("walk", "coin_x", "b"), "1/2"), (("walk", "coin_y", "b"), "2/4")], None)
@example(TIME, [(("walk", "coin_x", "b"), 1), (("walk", "coin_y", "b"), "1/1")], None)
@example(TIME, [(("walk", "coin_x", "b"), 1), (("walk", "coin_y", "b"), True)], None)
@example(TIME, [(("walk", "coin_x", "b"), DELETE)], None)
@example(PLASTIC, [(("walk", "coin_x", "b"), " 1/2 "), (("walk", "coin_y", "b"), "1/2")], None)
def test_from_dict_is_the_reference(base, edits, seed):
    """from_dict gives the reference's config, or raises the same error with the same
    text, on documents edited at every key with values that reach each refusal."""
    doc = _edited(base, edits)
    _same(_outcome(ExperimentConfig.from_dict, doc, seed), _outcome(config_from_dict, doc, seed))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([TIME, PLASTIC]), EDITS,
       st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-32", "corrupt", "truncated",
                        "missing", "directory"]))
def test_load_is_the_reference(tmp_path_factory, base, edits, how):
    """load reads the file as the reference does: every encoding json detects, malformed
    bytes, and paths that cannot be read."""
    doc = _edited(base, edits)
    path = tmp_path_factory.mktemp("config") / "config.json"
    if how == "directory":
        path.mkdir()
    elif how != "missing":
        text = json.dumps(doc)
        data = text.encode("utf-8" if how in ("corrupt", "truncated") else how)
        if how == "corrupt":
            data = data[:len(data) // 2] + b"\xff" + data[len(data) // 2 + 1:]
        elif how == "truncated":
            data = data[:len(data) // 2]
        path.write_bytes(data)
    _same(_outcome(ExperimentConfig.load, path, 3), _outcome(config_load, path, 3))


def test_load_reads_to_the_end(tmp_path):
    """load reads a file of several reads (5,000 momenta, about 190 KB), and a pipe whose
    reads come back short, whole, as the reference reads the same text."""
    doc = copy.deepcopy(TIME)
    doc["run"]["momenta"] = np.random.default_rng(5).uniform(-3, 3, (5000, 2)).tolist()
    data = json.dumps(doc).encode()
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert len(data) > 2 * 2 ** 16
    want = config_load(path, 3)
    assert ExperimentConfig.load(path, 3) == want
    read_end, write_end = os.pipe()
    writer = threading.Thread(target=_write_slowly, args=(write_end, data))
    writer.start()
    try:
        got = ExperimentConfig.load(f"/dev/fd/{read_end}", 3)
    finally:
        writer.join(timeout=60)
        os.close(read_end)
    assert not writer.is_alive()
    assert got == want


def test_load_refuses_an_input_past_the_byte_bound(tmp_path, monkeypatch):
    """With the bound lowered to 1 MiB, /dev/zero and a pipe that is never closed exit 2
    at once, with one stderr line that names the path; a file of exactly the bound loads,
    and one byte more is refused."""
    monkeypatch.setattr(config, "MAX_CONFIG_BYTES", 2 ** 20)
    read_end, write_end = os.pipe()
    writer = threading.Thread(target=_write_forever, args=(write_end,))
    writer.start()
    try:
        for path in ("/dev/zero", f"/dev/fd/{read_end}"):
            stderr = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stderr(stderr):
                assert cli.main(["--config", path, "check"]) == 2
            assert time.perf_counter() - start < 5.0
            assert stderr.getvalue() == (f"config error: cannot read config: [Errno 27] longer "
                                         f"than {2 ** 20} bytes: {path!r}\n")
    finally:
        os.close(read_end)
        writer.join(timeout=60)
    assert not writer.is_alive()
    text = json.dumps(TIME).encode()
    path = tmp_path / "config.json"
    path.write_bytes(text + b" " * (2 ** 20 - len(text)))
    assert ExperimentConfig.load(path) == config_load(path)
    path.write_bytes(text + b" " * (2 ** 20 + 1 - len(text)))
    with pytest.raises(ConfigError, match="longer than 1048576 bytes"):
        ExperimentConfig.load(path)


def _write_forever(fd: int) -> None:
    """Write zeros to the pipe ``fd`` until its read end is closed, then close it."""
    try:
        while True:
            os.write(fd, bytes(2 ** 16))
    except BrokenPipeError:
        pass
    finally:
        os.close(fd)


def _write_slowly(fd: int, data: bytes) -> None:
    """Write ``data`` to the pipe ``fd`` in pieces of 4,000 bytes, then close it."""
    try:
        for start in range(0, len(data), 4000):
            os.write(fd, data[start:start + 4000])
            time.sleep(0.0005)
    finally:
        os.close(fd)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.text("0123456789/ +-_.eE٣²", max_size=8),
                 st.sampled_from([0, 1, 7, True, None, 0.5, "1/2", "٣/٤", "9" * 5000 + "/1"])))
def test_parse_rational_is_the_reference(text):
    assert _outcome(parse_rational, text, "walk.a") == _outcome(ref_parse_rational, text, "walk.a")


# parts of the rendered entries: around the about 1.8e296 past which rounding to 12
# decimals overflows, signed zeros, non-finite values and ordinary ones
PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.8e296, 1.9e296, -2e296, 1e300, 1e308,
                                   float("inf"), -float("inf"), float("nan"), 5e-13, -5e-13,
                                   0.49999999999949996, 0.1234567890125]),
                  st.floats(-10.0, 10.0), st.floats())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(PARTS, min_size=8, max_size=8), max_size=4))
@example([[1e300, 0.1234567890123456, 0.0, -0.0, 1.0, 2.0, 3.0, 4.0]])  # one part overflows
@example([])
def test_rounded_and_flat2_are_the_references(rows):
    """_rounded is np.round on the complex stack; flat2 flattens a matrix, a transposed
    view or a real matrix as the scalar loop does, bit for bit."""
    stack = np.array(rows, dtype=np.float64).reshape(-1, 8).view(np.complex128).reshape(-1, 2, 2)
    assert repr(cli._rounded(stack)) == repr(rounded_np(stack))
    assert repr(cli._rounded(list(stack))) == repr(rounded_np(list(stack)))
    for m in stack:
        assert np.array(flat2(m)).tobytes() == np.array(flat2_scalars(m)).tobytes()
        assert np.array(flat2(m.T)).tobytes() == np.array(flat2_scalars(m.T)).tobytes()
        assert np.array(flat2(m.real)).tobytes() == np.array(flat2_scalars(m.real)).tobytes()


def _stdout(command, walk) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = _outcome(command, Namespace(output=None, format="json"),
                          ExperimentConfig(walk=walk))
    return result, out.getvalue()


THETA1 = st.sampled_from([None, 1e300, -1e300, 2e296, 1e296, 3.7, -1e-300])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4]), THETA1, THETA1)
@example(0, 2, 1e300, None)  # two term matrices near 2.5e299: their rounding overflows
def test_hamiltonian_text_is_the_reference(seed, tau, theta1x, theta1y):
    walk = draw_time_compliant(np.random.default_rng(seed), tau=tau)
    coins = [replace(c, theta1=c.theta1 if t is None else t)
             for c, t in ((walk.coin_x, theta1x), (walk.coin_y, theta1y))]
    walk = replace(walk, coin_x=coins[0], coin_y=coins[1])
    assert _stdout(cli.cmd_hamiltonian, walk) == (0, hamiltonian_text(walk))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([draw_plastic_compliant,
                                                     draw_plastic_generic]),
       st.sampled_from(FAREY_8), st.sampled_from(FAREY_8))
def test_pde_text_is_the_reference(seed, draw, a, b):
    walk = replace(draw(np.random.default_rng(seed)), a_exp=a, b_exp=b)
    want = _outcome(pde_text, walk)
    got, text = _stdout(cli.cmd_pde, walk)
    assert (got, text) == ((0, want) if isinstance(want, str) else (want, ""))

