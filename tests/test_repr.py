"""The array-at-once shortest-repr kernel against json.dumps, value by value."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasticwalk import _util, cli
from plasticwalk._util import cells_text, repr_cells

from conftest import nudged


def _texts(values) -> list[str]:
    cells = repr_cells(values)
    assert cells.shape == np.shape(values) + (32,)
    assert not cells[..., -1].any()  # the separator byte is free
    return [cells_text(cell).decode("ascii") for cell in cells.reshape(-1, 32)]


def _expected(values) -> list[str]:
    return [json.dumps(x) for x in np.asarray(values, dtype=np.float64).ravel().tolist()]


@pytest.fixture
def exact(monkeypatch):
    """The values left to the fallback, as the kernel hands them on."""
    seen, fallback = [], _util._repr_exact

    def recording(values):
        seen.extend(values.tolist())
        return fallback(values)

    monkeypatch.setattr(_util, "_repr_exact", recording)
    return seen


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_cells_match_json_on_any_float(values):
    """nan, +-inf, subnormals and every exponent, as hypothesis draws them."""
    assert _texts(np.array(values)) == _expected(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_cells_match_json_on_raw_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _texts(values) == _expected(values)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-3, 0.1, 1.0, np.pi]))
def test_cells_match_json_on_band_like_blocks(seed, scale):
    """Blocks of a few hundred values of one magnitude, with short and exact ones."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-scale, scale, size=(7, 50))
    values[0] = np.round(values[0], int(rng.integers(1, 16)))
    values[1] = rng.integers(-1000, 1000, 50) / 8
    assert _texts(values) == _expected(values)


def _fallback(values) -> list[float]:
    """The values repr_cells leaves to float.__repr__."""
    seen, fallback = [], _util._repr_exact

    def recording(left):
        seen.extend(left.tolist())
        return fallback(left)

    _util._repr_exact = recording
    try:
        repr_cells(values)
    finally:
        _util._repr_exact = fallback
    return seen


def _significant(x: float) -> int:
    """The significant digits of repr(x)."""
    return len(repr(abs(x)).split("e")[0].replace(".", "").strip("0"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(1e-20, 10, exclude_max=True), st.sampled_from([14, 15, 16]),
                          st.integers(-4, 4), st.booleans()), min_size=1, max_size=40))
def test_cells_match_json_a_few_ulps_from_short_roundings(draws):
    """Values n units in the last place from their 14-, 15- and 16-digit roundings, where
    the distances of the shortest-digit loop lie near H (half the gap to a neighbour) and
    the 14-digit candidate reads back at n = 0: every value with 14 significant digits or
    fewer is left to the fallback."""
    values = [nudged(float(f"{x:.{k - 1}e}"), n) * (-1) ** neg for x, k, n, neg in draws]
    assert _texts(np.array(values)) == _expected(values)
    left = _fallback(np.array(values))
    assert all(x in left for x in values if _significant(x) <= 14)


# values whose shortest form has 17, 16 and 15 digits: the kernel writes them itself
SHORTEST = {17: [0.30000000000000004, 1.0000000000000002, 3.3333333333333337e-06],
            16: [1.234567890123456, 0.7999999999999999, 9.999999999999998,
                 0.001234567890123456, -2.718281828459045],
            15: [1.23456789012345, -0.000123456789012345]}
# exact ties between two 16-digit candidates that both read back (|x| in [8, 10), where
# half the gap to a neighbour is 8.9 units of the 17th digit): repr takes the even one
TIES = [8 + 2 ** -16, 8 + 3 * 2 ** -16, -(9 + 5 * 2 ** -16), 9 + 7 * 2 ** -16]
PINNED = [
    0.0, -0.0, 1.0, 3.0, -3.0, 0.1, 1.2345678901234,  # zeros and at most 14 digits
    5e-324, 1e-4, math.nextafter(1e-4, 0),  # the smallest subnormal; fixed to scientific
    1e16, 1e23, math.nan, math.inf, -math.inf,  # outside the fast path
    *(2.0 ** k for k in range(-60, 4)), *(-(2.0 ** k) for k in (-3, 0, 1)),
    *(x for xs in SHORTEST.values() for x in xs), *TIES,
    *np.linspace(-np.pi, np.pi, 96, endpoint=False).tolist(),  # grid momenta
]


def test_pinned_values_match_and_take_the_expected_path(exact):
    assert _texts(np.array(PINNED)) == _expected(PINNED)
    for x in (0.0, 1.0, 3.0, -3.0, 0.1, 1.2345678901234, 5e-324, 1e-4, 1e16, 1e23,
              math.inf, -math.inf, *(2.0 ** k for k in range(-60, 4)), *TIES):
        assert x in exact, x
    assert any(math.isnan(x) for x in exact)
    assert [math.copysign(1, x) for x in exact[:2]] == [1, -1]  # 0.0 and -0.0 come first
    for digits, values in SHORTEST.items():
        for x in values:
            assert len(repr(abs(x)).split("e")[0].replace(".", "").lstrip("0")) == digits
            assert x not in exact, x


def test_non_finite_values_are_written_as_the_json_writer_writes_them():
    values = [math.nan, math.inf, -math.inf]
    assert _texts(np.array(values)) == [cli._float_text(x) for x in values]
    assert cli._NONFINITE is _util._NONFINITE


# values at and around powers of ten, where a log10 one unit in the last place off
# puts X one off: the fast path must hand them on, not index past its tables
NEAR_POWERS = [s * v for k in range(-8, 1) for p in (10.0 ** k,)
               for v in (p, math.nextafter(p, 0), math.nextafter(p, 1), 1.5 * p,
                         math.nextafter(1.5 * p, 0))
               for s in (1, -1)]


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_cells_match_when_log10_is_one_ulp_off(monkeypatch, toward):
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    assert _texts(np.array(NEAR_POWERS)) == _expected(NEAR_POWERS)


def test_fewer_than_one_in_a_hundred_band_phases_reach_the_fallback(exact):
    """Uniform phases in [-pi, pi) need 14 digits or fewer about once in 200."""
    values = np.random.default_rng(24).uniform(-np.pi, np.pi, 100_000)
    assert _texts(values) == _expected(values)
    assert len(exact) < 1_000


@pytest.mark.parametrize("shape", [(0,), (3,), (2, 5), (4, 1, 2)])
def test_cells_keep_the_shape_of_the_values(shape):
    values = np.arange(math.prod(shape), dtype=np.float64).reshape(shape) / 7 - 0.3
    assert _texts(values) == _expected(values)
