"""The array-at-once %.17g kernel against Python's '%.17g', value by value."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasticwalk import _util
from plasticwalk._util import cells_text, g17_cells

from conftest import nudged


def _texts(values) -> list[str]:
    cells = g17_cells(values)
    assert cells.shape == np.shape(values) + (32,)
    assert not cells[..., -1].any()  # the separator byte is free
    return [cells_text(cell).decode("ascii") for cell in cells.reshape(-1, 32)]


def _expected(values) -> list[str]:
    return ["%.17g" % x for x in np.asarray(values, dtype=np.float64).ravel().tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_cells_match_percent_g17_on_any_float(values):
    """nan, +-inf, subnormals and every exponent, as hypothesis draws them."""
    assert _texts(np.array(values)) == _expected(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_cells_match_percent_g17_on_raw_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _texts(values) == _expected(values)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-3, 1.0, 1e6, 1e-200, 1e15]))
def test_cells_match_percent_g17_on_field_like_blocks(seed, scale):
    """Blocks of a few hundred values of one magnitude, with rounded and exact ones."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(7, 50)) * scale
    values[0] = np.round(values[0], int(rng.integers(0, 4)))
    values[1] = rng.integers(-1000, 1000, 50) / 8
    assert _texts(values) == _expected(values)


def _tie(X: int, u: float) -> float:
    """An exact tie of the 17-digit rounding in the decade of 10^X (-8 <= X <= 0), picked
    by u in [0, 1): x = m 2^(X - 17) with m odd makes y = x 10^(16 - X) = m 5^(16 - X) / 2
    an odd multiple of 1/2."""
    lo = math.ceil(Fraction(10) ** X * 2 ** (17 - X))
    hi = math.ceil(Fraction(10) ** (X + 1) * 2 ** (17 - X))  # m < hi
    m = (lo + int(u * (hi - lo))) | 1
    return math.ldexp(m if m < hi else m - 2, X - 17)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-8, 0), st.floats(0, 1, exclude_max=True),
                          st.integers(-3, 3), st.booleans()), min_size=1, max_size=40))
def test_cells_match_percent_g17_near_ties(draws):
    """Exact ties of the 17-digit rounding, which '%.17g' rounds to the even digit and the
    kernel leaves to the fallback, and values n units in the last place from them."""
    ties = [_tie(X, u) * (-1) ** neg for X, u, _, neg in draws]
    values = [nudged(x, n) for x, (_, _, n, _) in zip(ties, draws)]
    left, fallback = [], _util._g17_exact

    def recording(cells):
        left.extend(cells.tolist())
        return fallback(cells)

    _util._g17_exact = recording
    try:
        assert _texts(np.array(values)) == _expected(values)
    finally:
        _util._g17_exact = fallback
    # an exact tie is never rounded on the fast path
    assert all(x in left for x, (_, _, n, _) in zip(ties, draws) if n == 0)


SMALLEST_NORMAL = 2.2250738585072014e-308
# exact ties of the 17-digit rounding, y = 10000000000000002.5 and 10000000000000007.5:
# both round to the even last digit, the first down and the second up
TIES = [1000000000000000.25, 1000000000000000.75]
PINNED = [
    0.0, -0.0, math.nan, math.inf, -math.inf,
    5e-324, math.nextafter(SMALLEST_NORMAL, 0),  # the smallest and the largest subnormal
    1e-4, math.nextafter(1e-4, 0),  # the switch from fixed to scientific notation
    10.0, math.nextafter(10.0, 0),  # the end of the fast path
    1e16, math.nextafter(1e16, 0),  # the switch from fixed to scientific notation above
    math.nextafter(1.0, 0),  # N = 99999999999999989, just under 10**17
    1e-14,  # just below 10**-14, and 17 digits round it up to it: a carry
    math.nextafter(1e-5, 0), math.nextafter(1e-100, 0),  # log10 may round up to the power
    math.nextafter(1e-270, 0), 1e-271,  # below the fast path
    *TIES, -TIES[1], 0.5, -2.0, 100.0, 120.5, 1.0, 0.1,
]


def test_pinned_values_match_and_take_the_exact_fallback(monkeypatch):
    exact, fallback = [], _util._g17_exact

    def recording(values):
        exact.extend(values.tolist())
        return fallback(values)

    monkeypatch.setattr(_util, "_g17_exact", recording)
    assert _texts(np.array(PINNED)) == _expected(PINNED)
    # non-finite, subnormal, out of range, a tie and a carry; the values whose path
    # depends on how log10 rounds are only checked to match
    for x in (math.inf, -math.inf, 5e-324, math.nextafter(SMALLEST_NORMAL, 0), 10.0, 1e16,
              math.nextafter(1e16, 0), 1e-271, *TIES, -TIES[1], 1e-14, 100.0, 120.5):
        assert x in exact, x
    assert any(math.isnan(x) for x in exact)
    assert 0.0 not in exact and 0.5 not in exact and -2.0 not in exact


# values at and around powers of ten, where a log10 one unit in the last place off
# puts X one off: the fast path must hand them on, not index past its tables
NEAR_POWERS = [s * v for k in range(-8, 1) for p in (10.0 ** k,)
               for v in (p, math.nextafter(p, 0), math.nextafter(p, 1), 1.5 * p)
               for s in (1, -1)]


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_cells_match_when_log10_is_one_ulp_off(monkeypatch, toward):
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    assert _texts(np.array(NEAR_POWERS)) == _expected(NEAR_POWERS)


@pytest.mark.parametrize("shape", [(0,), (3,), (2, 5), (4, 1, 2)])
def test_cells_keep_the_shape_of_the_values(shape):
    values = np.arange(math.prod(shape), dtype=np.float64).reshape(shape) / 7 - 0.3
    assert _texts(values) == _expected(values)
