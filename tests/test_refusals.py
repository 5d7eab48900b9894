"""The library's argument refusals that no other test reaches: each raises its exception
type with its own message, so a deleted or loosened check fails here."""

from fractions import Fraction

import numpy as np
import pytest

from plasticwalk import SpinorField, check_time_limit
from plasticwalk.mat2 import _power, rot
from plasticwalk.plastic import check_spacetime_limit, divergence_residual, enumerate_terms

from conftest import HALF, draw_plastic_compliant, draw_time_compliant


_RNG = np.random.default_rng(7)
TIME, PLASTIC = draw_time_compliant(_RNG), draw_plastic_compliant(_RNG)
# the identity in the two-plane form (g, a, b) of mat2._power
ONE = (np.ones((), dtype=np.complex128), np.ones((), dtype=np.complex128),
       np.zeros((), dtype=np.complex128))


@pytest.mark.parametrize("call, kind, message", [
    pytest.param(lambda: SpinorField(np.zeros((2, 3))), ValueError,
                 r"field data must have shape \(2, Nx>=2, Ny>=2\), got \(2, 3\)", id="field-2d"),
    pytest.param(lambda: rot("x", 0.1), ValueError, "axis must be 'y' or 'z', got 'x'",
                 id="rot-x"),
    pytest.param(lambda: _power(ONE, [-1]), ValueError, "a step count must be at least 1",
                 id="power-negative"),
    pytest.param(lambda: _power((ONE[0], np.ones(2, dtype=complex), np.zeros(2, dtype=complex)),
                                [0, 3]),
                 ValueError, "a step count must be at least 1", id="power-row-count-zero"),
    pytest.param(lambda: enumerate_terms(Fraction(-1, 2), HALF), ValueError,
                 "the exponents need a >= 0 and b > 0", id="terms-a-negative"),
    pytest.param(lambda: enumerate_terms(HALF, Fraction(0)), ValueError,
                 "the exponents need a >= 0 and b > 0", id="terms-b-zero"),
    pytest.param(lambda: divergence_residual(TIME, HALF, HALF), ValueError,
                 "divergence analysis applies to plastic-mode configs", id="residual-time"),
    pytest.param(lambda: check_spacetime_limit(TIME), ValueError,
                 "check_spacetime_limit applies to plastic-mode configs", id="spacetime-gate-time"),
    pytest.param(lambda: check_time_limit(PLASTIC), ValueError,
                 "check_time_limit applies to time-mode configs", id="time-gate-plastic"),
    pytest.param(lambda: check_time_limit(TIME)["no_such_condition"], KeyError,
                 "no_such_condition", id="report-unknown-name"),
])
def test_refusal(call, kind, message):
    with pytest.raises(kind, match=message) as info:
        call()
    assert type(info.value) is kind
