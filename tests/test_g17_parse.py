"""The exact array-at-once reader of decimal text against Python's ``float``, cell by cell."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasticwalk import _util
from plasticwalk._util import digits_parse, g17_parse

# what g17_parse reads itself; any other cell sends its whole block elsewhere
GRAMMAR = re.compile(r"-?(?:[0-9]\.[0-9]{0,24}|[0-9]{1,24})(?:e-[0-9]{1,3})?")


def _cells(texts: list[str]):
    """The cells as one CSV line in a buffer padded as the kernels need, with their bounds."""
    line = ",".join(texts).encode() + b"\n"
    buf = np.zeros(24 + len(line) + 8, dtype=np.uint8)
    buf[24:24 + len(line)] = np.frombuffer(line, dtype=np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    starts = np.concatenate(([24], ends[:-1] + 1))
    return buf, starts, ends


def _parse(texts: list[str]):
    return g17_parse(*_cells(texts))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


FORMATS = ["%r", "%.17g", "%e", "%.3f"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(FORMATS)), min_size=1, max_size=30))
def test_cells_read_as_float_reads_them(drawn):
    """Cells of the grammar read bit for bit as ``float``; any other cell refuses the lot."""
    texts = [fmt % x for x, fmt in drawn]
    values = _parse(texts)
    if all(GRAMMAR.fullmatch(t) for t in texts):
        assert _bits(values) == _bits([float(t) for t in texts])
    else:
        assert values is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_cells_of_raw_bit_patterns_read_back(bits):
    """'%.17g' of any double of the grammar reads back to that double."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    texts = [t for t in ("%.17g" % x for x in values.tolist()) if GRAMMAR.fullmatch(t)]
    if texts:
        assert _bits(_parse(texts)) == _bits([float(t) for t in texts])


def _near_midpoint(e2: int, q: int, above: bool) -> int:
    """17 digits D, D / 10^q in [2^e2, 2^(e2 + 1)), that lie 5^-q / 2 units in the last
    place below (or above) a rounding midpoint: D 2^s = (5^q -+ 1) / 2 mod 5^q, with
    s = 52 - e2 - q the scale of D / 10^q in units in the last place."""
    modulus, s = 5 ** q, 52 - e2 - q
    d = (modulus + (1 if above else -1)) // 2 * pow(2, -s, modulus) % modulus
    low = -(-10 ** q // 2 ** -e2)
    d += -(-(low - d) // modulus) * modulus
    assert low <= d < 2 * low and len(str(d)) == 17
    return d


def _scientific(d: int, exponent: int) -> str:
    return f"{str(d)[0]}.{str(d)[1:]}e-{exponent:02d}"


NEAR_MIDPOINTS = [
    _scientific(_near_midpoint(-16, 21, False), 5),
    _scientific(_near_midpoint(-16, 21, True), 5),
    "-" + _scientific(_near_midpoint(-19, 22, False), 6),
    "0.000%d" % _near_midpoint(-12, 20, True),
]


FAST = [
    "0", "-0", "0.0001", "%.17g" % math.nextafter(1e-4, 0),  # fixed and scientific
    "10", "%.17g" % math.nextafter(10.0, 0), "1234567890123456",
    "%.17g" % 1e-270, "%.17g" % 1e-271, "1.2345678901234567e-274",  # q = 290
    "0.12345678901234567", "-0.00098765432109876543", "5.", "007", "1e-5", "0.5", "-2",
    "1e-5", "7",  # "e-5,7" ends the 8 bytes before the 7: the exponent found is the 1e-5's
]
SLOW = [
    "5e-324", "%.17g" % 5e-324, "%.17g" % math.nextafter(2.2250738585072014e-308, 0),
    "1.2345678901234567e-275",  # q = 291
    "123456789012345678", "1.23456789012345678",  # 18 significant digits
    "12345678901234567",  # odd, between two doubles 2 apart: a tie
    *NEAR_MIDPOINTS,
]


def test_near_midpoints_are_near_midpoints():
    for text in NEAR_MIDPOINTS:
        exact, x = Fraction(text), float(text)
        neighbour = Fraction(math.nextafter(x, math.copysign(math.inf, exact - Fraction(x))))
        gap = abs(neighbour - Fraction(x))
        assert abs(exact - (Fraction(x) + neighbour) / 2) < Fraction(2) ** -40 * gap


def test_pinned_cells_read_as_float_and_take_the_exact_fallback(monkeypatch):
    exact, fallback = [], _util._parse_exact

    def recording(buf, starts, ends):
        exact.extend(bytes(buf[s:e]).decode() for s, e in zip(starts, ends))
        return fallback(buf, starts, ends)

    monkeypatch.setattr(_util, "_parse_exact", recording)
    texts = FAST + SLOW
    assert _bits(_parse(texts)) == _bits([float(t) for t in texts])
    assert sorted(exact) == sorted(SLOW)


@pytest.mark.parametrize("text", [
    "inf", "-inf", "nan", "-nan", "+4", "4E0", "1e+05", "1E-05", "12.5", " 1", "1 ", "",
    "-", ".5", "-.5", "1.2.3", "0x10", "1e-1234", "1e-", "1e5", "1_0", "1" * 25, "١",
])
def test_cells_outside_the_grammar_refuse_the_block(text):
    assert _parse(["0.5", text, "1"]) is None


@pytest.mark.parametrize("texts,expected", [
    (["0", "7", "12345678", "00000001"], [0, 7, 12345678, 1]),
    (["123456789"], None), ([""], None), (["-1"], None), (["1.0"], None), ([" 1"], None),
])
def test_index_cells_are_plain_digits(texts, expected):
    values = digits_parse(*_cells(texts))
    assert (values if values is None else values.tolist()) == expected
