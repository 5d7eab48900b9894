"""The CLI's JSON writer against json.dumps(sort_keys=True, indent=2), byte for byte."""

import argparse
import glob
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasticwalk import cli

from oracles import json_text

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    st.floats(),  # NaN, infinities, -0.0 and subnormals among them
    st.sampled_from([-0.0, 5e-324, 1e-32, 1e16, 1e22, 0.1, float("nan"), float("inf"),
                     float("-inf")]),
    st.text(),  # non-ASCII and control characters among them
    st.sampled_from(["\x00\x1f\x7f", "café", "\U0001f600", '"\\/', " ", ""]),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
@example({"a": [], "b": {}, "c": [[]], "d": {"e": {}}, "f": ({},), "g": [[[], {}]]})
def test_writer_matches_json_dumps(payload):
    assert cli._json(payload) == json_text(payload)


def _golden_payloads():
    for path in sorted(glob.glob(os.path.join(GOLDEN, "*", "*.txt"))):
        with open(path, newline="") as fh:
            stdout = fh.read().split("--- stdout\n", 1)[1]
        if stdout.startswith("{"):  # the JSON outputs; CSV and empty stdouts are not
            yield os.path.relpath(path, GOLDEN), stdout


GOLDEN_PAYLOADS = list(_golden_payloads())


def test_every_golden_json_output_is_a_payload():
    assert len(GOLDEN_PAYLOADS) == 33


@pytest.mark.parametrize("stdout", [s for _, s in GOLDEN_PAYLOADS],
                         ids=[name for name, _ in GOLDEN_PAYLOADS])
def test_golden_payloads_through_writer_and_oracle(stdout):
    doc = json.loads(stdout)
    assert cli._json(doc) + "\n" == json_text(doc) + "\n" == stdout


@pytest.mark.parametrize("value", [{1, 2}, np.int64(3), object()], ids=["set", "int64", "object"])
def test_writer_refuses_what_json_refuses(value):
    for payload in (value, [value], {"k": value}):
        with pytest.raises(TypeError) as mine:
            cli._json(payload)
        with pytest.raises(TypeError) as oracle:
            json_text(payload)
        assert str(mine.value) == str(oracle.value)


class _Flag(int):
    pass


@pytest.mark.parametrize("value", [np.float64(0.5), np.str_("s"), _Flag(3)],
                         ids=["float64", "str_", "int-subclass"])
def test_writer_refuses_leaves_of_a_subclass_type(value):
    """A leaf is of an exact type; a subclass, which json.dumps writes as its base type,
    raises the TypeError of an unserializable leaf (no command builds one)."""
    for payload in (value, [value], {"k": value}):
        with pytest.raises(TypeError, match=f"^Object of type {type(value).__name__} is not "
                                            "JSON serializable$"):
            cli._json(payload)


@pytest.mark.parametrize("payload", [{(1, 2): 0}, {1: 0, "a": 1}, {"x": {2: 0}}],
                         ids=["tuple", "mixed", "nested-int"])
def test_writer_refuses_keys_that_are_not_strings(payload):
    """Every payload's keys are strings; the writer refuses the rest, where json.dumps
    writes int keys and refuses only tuples and mixed keys."""
    with pytest.raises(TypeError):
        cli._json(payload)


_PLAIN = {"b": [1, {"c": None}], "n": 0.25}


@pytest.mark.parametrize("key", ["a", "m", "z"], ids=["first", "middle", "last"])
@pytest.mark.parametrize("items,payload", [
    ([], _PLAIN),
    ([{"x": 1.5, "y": [2]}, None, "s"], _PLAIN),
    (["\0", {"\0\"": 'a "q"'}], {"\0": 'a "NUL" \0', "b": ["caf\u00e9 \U0001f600"],
                                 "n": {"\0\"": "\u00e9"}}),
], ids=["empty", "rows", "nul-quote-non-ascii"])
def test_listing_streams_rows_where_the_key_sorts(capsys, key, items, payload):
    """The rows go in at the key's sorted place among the payload's members.  The
    document is split at the NUL of its listing leaf: a NUL in a string of the payload
    is written as \\u0000 and splits nothing."""
    rows = [("    " if i == 0 else ",\n    ") + cli._json(item, "    ")
            for i, item in enumerate(items)]
    args = argparse.Namespace(output=None)
    cli._emit_listing(args, payload, key, iter(rows))
    assert capsys.readouterr().out == json_text({"schema_version": 1, **payload, key: items}) + "\n"


_EXACT_LEAVES = (str, int, float, bool, type(None), cli._Listing)
CONFIGS = sorted(name for name in os.listdir(GOLDEN)
                 if os.path.isfile(os.path.join(GOLDEN, name, "config.json")))


def _leaf_types(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _leaf_types(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaf_types(v)
    else:
        yield type(value)


def test_every_payload_leaf_is_of_an_exact_type(monkeypatch, tmp_path, capsys):
    """Every payload the seven commands hand the JSON writer, on every golden config, in
    each format a command takes and with --output, has leaves of the exact types the
    writer reads alone: what lets ``_json`` do without a branch for a subclass leaf."""
    payloads = []
    write = cli._json_text

    def recording(payload):
        payloads.append((command, payload))
        return write(payload)

    monkeypatch.setattr(cli, "_json_text", recording)
    for name, command in itertools.product(CONFIGS, cli.COMMANDS):
        formats = ("json", "csv") if command in ("converge", "dispersion", "terms") else ("json",)
        for fmt in formats:
            argv = ["--config", os.path.join(GOLDEN, name, "config.json"), "--format", fmt]
            cli.main(argv + [command])
            cli.main(argv + ["--output", str(tmp_path / "out"), command])
    capsys.readouterr()
    assert {command for command, _ in payloads} == set(cli.COMMANDS)
    types = {t for _, payload in payloads for t in _leaf_types(payload)}
    assert types == set(_EXACT_LEAVES), types ^ set(_EXACT_LEAVES)
