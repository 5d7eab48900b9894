import itertools
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial, lcm
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plasticwalk import (
    CoinJet, WalkConfig, check_spacetime_limit, divergence_residual,
    enumerate_terms, fit_order, half_half_pde, spacetime_convergence, spacetime_hamiltonian,
    walk_k,
)
from plasticwalk import plastic
from plasticwalk.config import ExperimentConfig
from plasticwalk.mat2 import op_norm, rot
from plasticwalk.plastic import (
    TUPLE_BUDGET, TermIndex, _compositions4, _group_table, _index_tuples, _integer_orders,
    _pairs, gamma_hat,
)

from conftest import (
    FAREY_8, HALF, draw_plastic_compliant, draw_plastic_generic, load_tracer, load_workloads,
    plastic_from_angles,
)
from oracles import (
    ID2, calibration_exponents, closed_form_gate, closed_form_generator, constraint_f2,
    cross_term_report, derivative_coefficient, divergence_order, divergence_quotient,
    grouped_sums, grouped_sums_loop, grouped_sums_per_pair, is_hermitian, live_orders,
    sum_pairs_scan, rotations_scalar, transport_commutator, witnesses, word_chain, zeroth_order_residual,
)


def plastic_raw(theta0x, theta0y, zx, phx, zy, phy, dx=0.2, delta=-np.pi / 2,
                thx=0.63, thy=-0.37, a=HALF, b=HALF):
    jx = CoinJet(delta=dx, zeta0=zx, theta0=theta0x, theta1=thx, phi0=phx)
    jy = CoinJet(delta=delta - dx, zeta0=zy, theta0=theta0y, theta1=thy, phi0=phy)
    return WalkConfig(coin_x=jx, coin_y=jy, tau=2, a_exp=a, b_exp=b, mode="plastic")


# ---------------------------------------------------------------- gamma words


def test_gamma_hat_zero_angles_reduces_to_y_rotations():
    cfg = plastic_raw(0.7, -1.1, 0, 0, 0, 0)
    got = gamma_hat(cfg, 0, 0, 0, 0)
    assert np.allclose(got, rot("y", 0.7) @ rot("y", -1.1), atol=1e-15)


def test_gamma_hat_sigma_power_periodicity(rng):
    cfg = draw_plastic_generic(rng)
    base = gamma_hat(cfg, 1, 0, 1, 1)
    assert np.array_equal(base, gamma_hat(cfg, 3, 2, 1, 3))
    with pytest.raises(ValueError):
        gamma_hat(cfg, -1, 0, 0, 0)


ANGLES = st.floats(-2 * np.pi, 2 * np.pi) | st.floats(-1e300, 1e300) \
    | st.sampled_from([0.0, -0.0, 1e17, -3e200, 5e-324, 1.7976931348623157e308])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(ANGLES, min_size=6, max_size=6))
def test_gamma_words_match_the_chain_bitwise(angles):
    """All 16 parity words, at ordinary and at huge angles (where cos and sin keep
    few good digits), byte for byte as the one-word chain multiplies them."""
    cfg = plastic_raw(*angles)
    for lx, ly, nx, ny in itertools.product((0, 1), repeat=4):
        want = word_chain(cfg, lx, ly, nx, ny)
        assert gamma_hat(cfg, lx, ly, nx, ny).tobytes() == want.tobytes(), (lx, ly, nx, ny)
        assert gamma_hat(cfg, lx + 2, ly, nx + 4, ny).tobytes() == want.tobytes()


# the edge angles of a rotation: signed zeros, pi, multiples of 2 pi, huge angles and the
# smallest subnormal
EDGE_ANGLES = st.sampled_from([0.0, -0.0, np.pi, -np.pi, 1e300, -1e300, 5e-324, -5e-324]) \
    | st.integers(-50, 50).map(lambda m: 2 * np.pi * m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(ANGLES | EDGE_ANGLES, min_size=6, max_size=6))
@example([0.0, -0.0, 2 * np.pi, np.pi, 1e300, -1e300])
@example([5e-324, -5e-324, -0.0, 0.0, -2 * np.pi, -np.pi])
def test_rotations_match_six_scalar_rot_calls_bitwise(angles):
    """The engine's two stacked rot calls give each of the six rotations byte for byte
    as its own scalar call (the chain oracle of the words takes the scalar calls)."""
    cfg = plastic_raw(*angles)
    got, want = plastic._rotations(cfg), rotations_scalar(cfg)
    assert len(got) == len(want) == 6
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape == (2, 2) and g.dtype == w.dtype, i
        assert g.tobytes() == w.tobytes(), (i, angles)


def _series_walk(cfg, kx, ky, eps, max_order):
    """Oracle: truncated expansion of S_x C_x S_y C_y from the index series."""
    a, b = cfg.a_exp, cfg.b_exp
    thx, thy = cfg.coin_x.theta1, cfg.coin_y.theta1
    total = np.zeros((2, 2), dtype=complex)
    for lx, ly, nx, ny in itertools.product(range(9), repeat=4):
        order = a * (lx + ly) + b * (nx + ny)
        if order > max_order:
            continue
        nu = ((1j * kx) ** lx) * ((1j * ky) ** ly) \
            * ((-0.5j * thx) ** nx) * ((-0.5j * thy) ** ny) \
            / (factorial(lx) * factorial(ly) * factorial(nx) * factorial(ny))
        total = total + float(eps) ** float(order) * nu * gamma_hat(cfg, lx, ly, nx, ny)
    return np.exp(1j * cfg.delta_sum) * total


def test_gamma_series_reproduces_walk_to_truncation_order(rng):
    cfg = draw_plastic_generic(rng)
    kx, ky = 0.83, -0.41

    def remainder(eps):
        return float(op_norm(walk_k(cfg, kx, ky, eps)
                             - _series_walk(cfg, kx, ky, eps, Fraction(2))))

    # truncated at order 2; next order is 5/2, so eps -> eps/4 shrinks by 32
    r1, r2 = remainder(1e-2), remainder(2.5e-3)
    assert r1 > 1e-9
    assert 22.0 <= r1 / r2 <= 45.0


# ------------------------------------------------------------- term matching


def test_enumerate_half_half_partition():
    terms = enumerate_terms(HALF, HALF)
    assert len(terms) == 36
    buckets = {"ll": 0, "ln": 0, "nn": 0, "double": 0}
    for t in terms:
        nonzero = [v for v in t if v > 0]
        if nonzero == [2]:
            buckets["double"] += 1
        elif t.sum_l == 2 and t.sum_n == 0:
            buckets["ll"] += 1
        elif t.sum_l == 1 and t.sum_n == 1:
            buckets["ln"] += 1
        else:
            assert t.sum_l == 0 and t.sum_n == 2
            buckets["nn"] += 1
    # the single-index-2 tuples are counted inside their (sum_l, sum_n) class
    ll_pairs = sum(1 for t in terms if t.sum_l == 2 and t.sum_n == 0
                   and max(t.l1x, t.l1y, t.l2x, t.l2y) == 1)
    nn_pairs = sum(1 for t in terms if t.sum_n == 2 and t.sum_l == 0
                   and max(t.n1x, t.n1y, t.n2x, t.n2y) == 1)
    ln_mixed = sum(1 for t in terms if t.sum_l == 1 and t.sum_n == 1)
    doubles = sum(1 for t in terms if max(t) == 2)
    assert (ll_pairs, ln_mixed, nn_pairs, doubles) == (6, 16, 6, 8)


def test_enumerate_unit_exponents():
    terms = enumerate_terms(Fraction(1), Fraction(1))
    assert len(terms) == 8
    assert all(t.sum_l + t.sum_n == 1 for t in terms)


def test_enumerate_third_half_case():
    # sums satisfying sl/3 + sn/2 = 1: (3, 0) and (0, 2)
    terms = enumerate_terms(Fraction(1, 3), Fraction(1, 2))
    assert len(terms) == comb(3 + 3, 3) + comb(2 + 3, 3)  # 20 + 10


def test_enumerate_matches_exhaustive_product_oracle():
    for a, b in [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2)),
                 (Fraction(2, 3), Fraction(1, 3)), (Fraction(1), Fraction(1, 2))]:
        cap_l = int(1 / a)
        cap_n = int(1 / b)
        brute = set()
        for tup in itertools.product(range(cap_l + 1), repeat=4):
            for nup in itertools.product(range(cap_n + 1), repeat=4):
                if a * sum(tup) + b * sum(nup) == 1:
                    brute.add(TermIndex(tup[0], tup[1], tup[2], tup[3],
                                        nup[0], nup[1], nup[2], nup[3]))
        got = enumerate_terms(a, b)
        assert len(got) == len(set(got))
        assert set(got) == brute


def test_enumerate_counts_match_combinatorial_oracle(rng):
    for _ in range(50):
        den_a = int(rng.integers(1, 9))
        den_b = int(rng.integers(1, 9))
        a = Fraction(int(rng.integers(1, den_a + 1)), den_a)
        b = Fraction(int(rng.integers(1, den_b + 1)), den_b)
        expected = 0
        for sl in range(int(1 / a) + 1):
            for sn in range(int(1 / b) + 1):
                if a * sl + b * sn == 1:
                    expected += comb(sl + 3, 3) * comb(sn + 3, 3)
        assert len(enumerate_terms(a, b)) == expected


def test_enumerate_a_zero_cases():
    assert enumerate_terms(Fraction(0), Fraction(2, 3)) == []
    with pytest.raises(ValueError):
        enumerate_terms(Fraction(0), Fraction(1, 2))
    # below order 1 only a pure-n pair with b < 1 admits infinitely many l tuples
    assert _pairs(Fraction(0), Fraction(1), order_one=False) == ([], 0)
    with pytest.raises(ValueError, match="infinitely many"):
        _pairs(Fraction(0), Fraction(2, 3), order_one=False)


def _weak_compositions(total):
    """Every 4-tuple of nonnegative ints summing to ``total``, in lexicographic order."""
    return [t for t in itertools.product(range(total + 1), repeat=4) if sum(t) == total]


def test_compositions4_is_the_brute_force_enumeration():
    """Tuples of ints, in lexicographic order; the index tuples of a pair are its l
    compositions outside and its n compositions inside, the order of the terms listing."""
    for total in range(16):
        got = _compositions4(total)
        assert got == _weak_compositions(total), total
        assert all(type(parts) is tuple and all(type(v) is int for v in parts)
                   for parts in got), total
    for sl, sn in itertools.product(range(5), repeat=2):
        want = [TermIndex(*ls, *ns) for ls in _weak_compositions(sl)
                for ns in _weak_compositions(sn)]
        assert list(_index_tuples(sl, sn)) == want, (sl, sn)


@pytest.mark.parametrize("a,b", [(HALF, HALF), (Fraction(1, 3), Fraction(2, 3)),
                                 (Fraction(1, 4), Fraction(1, 3)), (Fraction(1, 5), Fraction(2, 5)),
                                 (Fraction(2, 3), Fraction(3, 4)), (Fraction(1), Fraction(1))])
def test_order_one_terms_is_the_enumerated_count(rng, a, b):
    """The gate counts its order-1 tuples in closed form; the enumeration is the oracle."""
    report = check_spacetime_limit(replace(draw_plastic_compliant(rng), a_exp=a, b_exp=b))
    assert report["exponents_rational"].witness["order_one_terms"] == len(enumerate_terms(a, b))


def test_tuple_budget_stops_enumeration_early(rng):
    tiny = Fraction(1, 50)  # about 1.7e9 tuples of order at most 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="work budget"):
        enumerate_terms(tiny, tiny)
    with pytest.raises(ValueError, match="work budget"):
        grouped_sums(draw_plastic_compliant(rng), tiny, tiny, order_one=False)
    assert time.perf_counter() - start < 1.0
    eighth = Fraction(1, 8)  # the largest term set at denominators up to 8 fits
    assert len(enumerate_terms(eighth, eighth)) == comb(15, 7) < TUPLE_BUDGET


BUDGET_REFUSAL = f"the exponents need more than {TUPLE_BUDGET} index tuples (the work budget)"
A_ZERO_REFUSAL = ("a = 0 admits infinitely many index tuples; the pure time scaling belongs "
                  "to the time-limit machinery")
LEVELS_CFG = plastic_raw(0.7, -1.1, 0.3, 0.2, -0.4, 0.9)


def _same_as_scan(a, b, order_one):
    """The same pairs in the same order, the same tuple count and the same refusal, word
    for word, from ``_pairs`` and the group table; and each group's integer level is
    d * (a * sum_l + b * sum_n), computed in Fraction."""
    engines = (lambda: _pairs(a, b, order_one),
               lambda: _group_table(LEVELS_CFG, a, b, order_one))
    try:
        want = sum_pairs_scan(a, b, order_one)
    except ValueError:
        for engine in engines:
            with pytest.raises(ValueError) as refusal:
                engine()
            assert str(refusal.value) == (A_ZERO_REFUSAL if a == 0 else BUDGET_REFUSAL)
        return
    assert _pairs(a, b, order_one) == want, (a, b, order_one)
    keys = _group_table(LEVELS_CFG, a, b, order_one)[0]
    d = _integer_orders(a, b)[2]
    assert d == lcm(Fraction(a).denominator, Fraction(b).denominator)
    assert len(keys) == sum((sl + 1) * (sn + 1) for sl, sn in want[0])
    assert all(level == d * (a * (kx + ky) + b * (thx + thy))
               for level, kx, ky, thx, thy in keys), (a, b, order_one)


def test_pair_table_matches_the_scan_on_farey_8():
    for a, b in itertools.product(FAREY_8, repeat=2):
        for order_one in (True, False):
            _same_as_scan(a, b, order_one)


def _exponents_60(low):
    """The exponents p/q with low <= p <= q and denominators q up to 60."""
    return st.integers(1, 60).flatmap(
        lambda q: st.builds(Fraction, st.integers(low, q), st.just(q)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_exponents_60(0), _exponents_60(1))
@example(Fraction(0), Fraction(1, 2))  # a = 0 with a pure-n pair of order 1 and below it
@example(Fraction(0), Fraction(2, 3))  # a = 0: no order-1 pair, one below order 1
@example(Fraction(0), Fraction(1))  # a = 0: an order-1 pair, none below
@example(Fraction(1), Fraction(1))
@example(Fraction(1, 45), Fraction(1))  # 194,579 tuples below order 1: under the budget
@example(Fraction(1, 46), Fraction(1))  # 211,875 below order 1: over it
@example(Fraction(1, 15), Fraction(1, 15))  # 170,544 of order 1, under; 319,769 below, over
@example(Fraction(1, 16), Fraction(1, 16))  # 245,157 of order 1: over
def test_pair_table_matches_the_scan(a, b):
    """Past Farey-8, in both modes: a in [0, 1] and b in (0, 1] with denominators up to
    60, the a = 0 refusals and both sides of TUPLE_BUDGET."""
    for order_one in (True, False):
        _same_as_scan(a, b, order_one)


# ----------------------------------------------------------------- divergence


def test_divergence_cancels_on_true_constraint_family(rng):
    for _ in range(10):
        cfg = draw_plastic_compliant(rng)
        residual, _ = divergence_residual(cfg, HALF, HALF)
        assert residual <= 1e-12
        assert all(g.exponent == HALF for g in grouped_sums(cfg, HALF, HALF, order_one=False))


def test_divergence_nonzero_for_generic_angles(rng):
    for _ in range(10):
        cfg = draw_plastic_generic(rng)
        residual, _ = divergence_residual(cfg, HALF, HALF)
        assert residual >= 0.1


def test_divergence_pi_half_family_is_not_sufficient(rng):
    """The quarter-turn family solves cos(a1 +- a2) = 0 instead of
    cos((a1 +- a2)/2) = 0; it leaves an O(1) fractional-order residual,
    so it does not admit the limit."""
    for _ in range(5):
        a1 = np.pi / 2 * (2 * int(rng.integers(-2, 3)) + 1)
        a2 = np.pi / 2 * int(rng.integers(-2, 3))
        cfg = plastic_from_angles(a1, a2, rng)
        residual, _ = divergence_residual(cfg, HALF, HALF)
        expected = 2.0 * max(abs(np.cos((a1 - a2) / 2)), abs(np.cos((a1 + a2) / 2)))
        assert residual >= 0.5
        assert abs(2.0 * residual - expected) <= 1e-12


def test_divergence_grouped_report_reproduces_the_four_conditions(rng):
    """Each fractional group norm equals the norm of the corresponding
    closed-form cancellation condition, for fully generic angles."""
    for _ in range(10):
        thx0, thy0 = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        zx, phx, zy, phy = rng.uniform(-np.pi, np.pi, size=4)
        cfg = plastic_raw(thx0, thy0, zx, phx, zy, phy)
        a1, a2 = phx + zy, phy + zx
        norm = {(g.kx_power, g.ky_power, g.thx_power, g.thy_power): float(op_norm(g.matrix))
                for g in grouped_sums(cfg, HALF, HALF, order_one=False)}
        assert set(norm) == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}

        e_dx = rot("y", thx0) @ rot("z", a1) @ rot("y", thy0) \
            + rot("y", -thx0) @ rot("z", a1) @ rot("y", -thy0)
        e_dy = rot("y", thy0) @ rot("z", a2) @ rot("y", thx0) \
            + rot("y", -thy0) @ rot("z", a2) @ rot("y", -thx0)
        e_thx = rot("z", a1) @ rot("y", thy0) @ rot("z", a2) \
            + rot("z", -a1) @ rot("y", thy0) @ rot("z", -a2)
        e_thy = rot("z", a2) @ rot("y", thx0) @ rot("z", a1) \
            + rot("z", -a2) @ rot("y", thx0) @ rot("z", -a1)

        assert abs(norm[(1, 0, 0, 0)] - float(op_norm(e_dx))) <= 1e-12
        assert abs(norm[(0, 1, 0, 0)] - float(op_norm(e_dy))) <= 1e-12
        assert abs(2.0 * norm[(0, 0, 1, 0)] - float(op_norm(e_thx))) <= 1e-12
        assert abs(2.0 * norm[(0, 0, 0, 1)] - float(op_norm(e_thy))) <= 1e-12


def test_divergence_empty_for_unit_exponents(rng):
    cfg = replace(draw_plastic_compliant(rng), a_exp=Fraction(1), b_exp=Fraction(1))
    residual, matrices = divergence_residual(cfg, Fraction(1), Fraction(1))
    assert residual == 0.0 and matrices.shape == (0, 2, 2)
    assert grouped_sums(cfg, Fraction(1), Fraction(1), order_one=False) == []


# ----------------------------------------------------------- grouped-sum engine


def _same_as_loop(cfg, a, b, order_one):
    """The same groups in the same order as the tuple-by-tuple oracle, each matrix to
    1e-14: the engine sums class words, not the tuples in their order."""
    try:
        want = grouped_sums_loop(cfg, a, b, order_one)
    except ValueError:
        with pytest.raises(ValueError, match="work budget"):
            grouped_sums(cfg, a, b, order_one)
        return
    got = grouped_sums(cfg, a, b, order_one)
    keys = [[(g.exponent, g.kx_power, g.ky_power, g.thx_power, g.thy_power) for g in groups]
            for groups in (got, want)]
    assert keys[0] == keys[1], (a, b, order_one)
    assert all(np.abs(g.matrix - w.matrix).max() <= 1e-14 for g, w in zip(got, want)), \
        (a, b, order_one)


def test_grouped_sums_match_the_loop_on_farey_8(rng):
    cfgs = (draw_plastic_compliant(rng), draw_plastic_generic(rng))
    for a, b in itertools.product(FAREY_8, repeat=2):
        for cfg, order_one in itertools.product(cfgs, (True, False)):
            _same_as_loop(cfg, a, b, order_one)


# the exponents in (0, 1] with denominators up to 12
EXPONENTS_12 = st.integers(1, 12).flatmap(
    lambda q: st.builds(Fraction, st.integers(1, q), st.just(q)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=6, max_size=6),
       EXPONENTS_12, EXPONENTS_12, st.booleans())
def test_grouped_sums_match_the_loop(angles, a, b, order_one):
    _same_as_loop(plastic_raw(*angles, a=a, b=b), a, b, order_one)


def _bitwise_as_per_pair(cfg, a, b, order_one):
    """The group table against the per-pair oracle: the same keys in the same order, each
    a list of Python ints, the same matrix bytes, and the gate residual and the pde term
    norms op_norm of the oracle's stack, bit for bit."""
    try:
        want = grouped_sums_per_pair(cfg, a, b, order_one)
    except ValueError:
        with pytest.raises(ValueError, match="work budget"):
            _group_table(cfg, a, b, order_one)
        return
    keys, matrices = _group_table(cfg, a, b, order_one)
    d = _integer_orders(a, b)[2]
    assert all(type(key) is list and all(type(v) is int for v in key) for key in keys)
    got = grouped_sums(cfg, a, b, order_one)
    want_keys = [(g.exponent, g.kx_power, g.ky_power, g.thx_power, g.thy_power) for g in want]
    assert [(Fraction(level, d), *powers) for level, *powers in keys] == want_keys
    assert [(g.exponent, g.kx_power, g.ky_power, g.thx_power, g.thy_power)
            for g in got] == want_keys
    stack = np.stack([g.matrix for g in want]) if want else np.empty((0, 2, 2), complex)
    assert matrices.tobytes() == stack.tobytes()
    assert all(g.matrix.tobytes() == w.matrix.tobytes() for g, w in zip(got, want))
    norms = op_norm(stack) if want else np.empty(0)
    if not order_one:
        residual, table = divergence_residual(cfg, a, b)
        assert np.float64(residual).tobytes() == np.max(norms, initial=0.0).tobytes()
        assert table.shape == stack.shape and table.tobytes() == stack.tobytes()
    elif check_spacetime_limit(cfg).passed:
        seen = []
        with patch.object(plastic, "op_norm", lambda m: seen.append(op_norm(m)) or seen[-1]):
            terms = spacetime_hamiltonian(cfg).terms
        assert seen[-1].tobytes() == norms.tobytes()
        assert [(t.dx_power, t.dy_power, t.thx_power, t.thy_power, t.coeff.tobytes())
                for t in terms] == \
            [(w.kx_power, w.ky_power, w.thx_power, w.thy_power,
              ((-1j) ** (w.kx_power + w.ky_power) * w.matrix).tobytes())
             for w, norm in zip(want, norms) if norm > 1e-13]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([draw_plastic_compliant,
                                                     draw_plastic_generic]),
       EXPONENTS_12, EXPONENTS_12, st.booleans())
@example(0, draw_plastic_compliant, Fraction(1, 50), Fraction(1, 50), False)  # the budget
@example(0, draw_plastic_compliant, Fraction(1), Fraction(1), False)  # no pair below order 1
@example(0, draw_plastic_generic, Fraction(2, 3), Fraction(2, 3), True)  # no order-1 pair
# the largest table the budget admits: 2,272 groups, 189,104 tuples below order 1
@example(0, draw_plastic_compliant, Fraction(1, 15), Fraction(1, 12), False)
# (2, 0) and (0, 1) share level 2, (3, 0) and (1, 1) level 3: their rows interleave
@example(0, draw_plastic_generic, Fraction(1, 4), Fraction(1, 2), False)
# a gate-passing walk: a gate table of 466 groups and an order-1 table of 35
@example(0, draw_plastic_compliant, Fraction(1, 30), Fraction(29, 30), False)
@example(0, draw_plastic_compliant, Fraction(1, 30), Fraction(29, 30), True)
def test_group_table_is_the_per_pair_sums_bitwise(seed, draw, a, b, order_one):
    cfg = replace(draw(np.random.default_rng(seed)), a_exp=a, b_exp=b)
    _bitwise_as_per_pair(cfg, a, b, order_one)


def test_divergence_residual_returns_the_group_stack(rng):
    """On every Farey-8 pair, divergence_residual hands back the group table's (G, 2, 2)
    stack below order 1, bit for bit, and its residual is the largest operator norm of
    that stack, 0.0 when G = 0."""
    cfg = draw_plastic_generic(rng)
    sizes = set()
    for a, b in itertools.product(FAREY_8, repeat=2):
        residual, stack = divergence_residual(cfg, a, b)
        matrices = _group_table(cfg, a, b, False)[1]
        assert stack.dtype == np.complex128 and stack.shape == matrices.shape, (a, b)
        assert stack.tobytes() == matrices.tobytes(), (a, b)
        want = np.max(op_norm(stack)) if len(stack) else np.float64(0.0)
        assert type(residual) is float
        assert np.float64(residual).tobytes() == want.tobytes(), (a, b)
        sizes.add(len(stack))
    assert 0 in sizes and max(sizes) > 100


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_tracer_group_count_is_the_number_of_groups(rng):
    """The benchmark tracer's ``groups`` counter of ``plastic.divergence_residual``, applied
    to its result, counts the groups below order 1 of the oracle: on the four plastic
    golden configs and on Farey-8 pairs from none to the largest table."""
    (count,) = [counters["groups"] for module, name, _, counters in load_tracer().SPECS
                if (module, name) == ("plastic", "divergence_residual")]
    walks = [ExperimentConfig.load(GOLDEN / name / "config.json").walk
             for name in sorted(p.name for p in GOLDEN.iterdir()) if name.startswith("plastic_")]
    assert len(walks) == 4
    generic = draw_plastic_generic(rng)
    walks += [replace(generic, a_exp=a, b_exp=b) for a, b in (
        (Fraction(1), Fraction(1)), (Fraction(2, 3), Fraction(3, 4)), (Fraction(1, 3), HALF),
        (Fraction(1, 5), Fraction(3, 7)), (Fraction(7, 8), Fraction(1, 8)),
        (Fraction(1, 8), Fraction(1, 8)))]
    counts = []
    for cfg in walks:
        a, b = cfg.a_exp, cfg.b_exp
        result = divergence_residual(cfg, a, b)
        counts.append(count((cfg, a, b), {}, result))
        assert counts[-1] == len(grouped_sums(cfg, a, b, order_one=False)), (a, b)
    assert counts[4] == 0 and counts[-1] == 329


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([draw_plastic_compliant,
                                                     draw_plastic_generic]),
       EXPONENTS_12, EXPONENTS_12, st.sampled_from(["", "theta", "delta"]))
@example(0, draw_plastic_generic, HALF, Fraction(1), "")  # b = 1 off the shell passes
@example(0, draw_plastic_compliant, Fraction(1, 3), Fraction(2, 3), "")  # a + b = 1 passes
@example(0, draw_plastic_compliant, Fraction(1, 3), HALF, "")  # mixed groups below order 1
@example(0, draw_plastic_generic, HALF, HALF, "")  # pure-n groups off the shell
@example(0, draw_plastic_compliant, Fraction(2, 3), Fraction(2, 3), "")  # no order-1 term
@example(0, draw_plastic_compliant, HALF, HALF, "theta")
@example(0, draw_plastic_compliant, HALF, HALF, "delta")
def test_gate_is_the_closed_form(seed, draw, a, b, off):
    """check_spacetime_limit passes iff the closed form does (ROADMAP item 2), on walks of
    both classes at exponents with denominators up to 12, some moved off the theta0
    branch or the delta quantization."""
    cfg = replace(draw(np.random.default_rng(seed)), a_exp=a, b_exp=b)
    if off == "theta":
        cfg = replace(cfg, coin_x=replace(cfg.coin_x, theta0=cfg.coin_x.theta0 + 0.5))
    elif off == "delta":
        cfg = replace(cfg, coin_x=replace(cfg.coin_x, delta=cfg.coin_x.delta + 0.5))
    assert check_spacetime_limit(cfg).passed == closed_form_gate(cfg)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([draw_plastic_compliant,
                                                     draw_plastic_generic]),
       EXPONENTS_12, st.one_of(st.just("1 - a"), st.just("1 - a"), st.just("1"), EXPONENTS_12))
@example(0, draw_plastic_compliant, Fraction(1, 3), "1 - a")  # the shell line off a = b
@example(0, draw_plastic_generic, Fraction(5, 12), "1")  # b = 1 off the shell
@example(0, draw_plastic_compliant, HALF, "1")  # on the shell past the line: no generator
def test_generator_is_the_closed_form(seed, draw, a, b):
    """spacetime_hamiltonian's generator against the closed form at 1e-12 wherever the
    gate passes, on walks of both classes, b = 1 - a, 1 or drawn, denominators up to 12;
    where the closed form vanishes (a + b > 1 on the shell) the assembly has no terms."""
    b = 1 - a if b == "1 - a" else Fraction(1) if b == "1" else b
    assume(b > 0)
    cfg = replace(draw(np.random.default_rng(seed)), a_exp=a, b_exp=b)
    if not closed_form_gate(cfg):
        with pytest.raises(ValueError):
            spacetime_hamiltonian(cfg)
        return
    assembly, generator = spacetime_hamiltonian(cfg), closed_form_generator(cfg)
    if generator is None:
        assert assembly.terms == ()
        return
    assert assembly.calibration == plastic.CALIBRATION
    ks = np.linspace(-np.pi, np.pi, 6, endpoint=False)
    for kx, ky in ((ks[:, None], ks[None, ::-1]), (0.0, 0.0), (0.4, -2.9)):
        got, want = assembly.generator(kx, ky), generator(kx, ky)
        assert got.shape == want.shape
        assert float(np.max(op_norm(got - want))) <= 1e-12


def test_divergence_order_is_the_smallest_live_group_order(rng):
    """On every Farey-8 (a, b) of both classes with order-1 terms, the closed-form f_min
    is the smallest order below 1 of a group of the engine's table whose norm exceeds
    1e-10 (a live group), and the gate rejects the walk exactly where one lives."""
    rejected = 0
    for a, b in itertools.product(FAREY_8, repeat=2):
        for draw in (draw_plastic_compliant, draw_plastic_generic):
            cfg = replace(draw(rng), a_exp=a, b_exp=b)
            report = check_spacetime_limit(cfg)
            if not report["exponents_rational"].satisfied:
                continue
            keys, matrices = _group_table(cfg, a, b, False)
            d = _integer_orders(a, b)[2]
            live = [Fraction(key[0], d) for key, norm in zip(keys, op_norm(matrices).tolist())
                    if norm > 1e-10]
            case = (str(a), str(b), draw.__name__)
            assert divergence_order(cfg) == min(live, default=None), case
            assert report.passed == (not live), case
            rejected += not report.passed
    assert rejected == 458


def test_rejected_walk_diverges_at_the_predicted_order():
    """The walk's own backing of a plastic "no": on every walk of the benchmark's seed-11
    ``spacetime_scan`` draws (one ``workloads.plastic_walk`` per Farey-8 (a, b) and class)
    that the gate rejects with order-1 terms present, the quotient q(eps) = max ||(W^2 -
    I)/(2 eps)|| over the config's momenta grows as eps^(f_min - 1), with f_min from
    ``divergence_order``.

    Over eps = 1e-7 ... 1e-10 the log-log slope s of q is a weighted mean of the live
    orders' exponents: f_min - 1, pulled up by the next live order f_next (``live_orders``,
    or 1, the generator) by a share that shrinks as eps^(f_next - f_min).  So the tolerance
    is bounded by that gap g: s - (f_min - 1) lies in (-g/2, g); the slowest walks reach
    0.57 g (a = 1/8, b = 3/7, g = 1/8: 0.071).  A slope just short of f_next - 1 could also
    be f_next's term alone, so two terms c0 eps^(f_min - 1) + c1 eps^(f_next - 1) are
    fitted to q, and the first must carry a tenth of q at eps = 1e-10 or more (0.54 at
    least here; 0.006 on the first walk where a prediction without the shell clause names
    the dead order b)."""
    workloads = load_workloads()
    rng = np.random.default_rng([11, 3])  # spacetime_scan's generator at seed 11
    eps = np.array([1e-7, 1e-8, 1e-9, 1e-10])
    rejected = 0
    for a, b in itertools.product(FAREY_8, repeat=2):
        for compliant in (True, False):
            config = ExperimentConfig.from_dict({"walk": workloads.plastic_walk(rng, a, b,
                                                                                compliant)})
            cfg = config.walk
            report = check_spacetime_limit(cfg)
            if report.passed or not report["exponents_rational"].satisfied:
                continue
            f_min = divergence_order(cfg)
            f_next = min([f for f in live_orders(cfg) if f > f_min], default=Fraction(1))
            kx, ky = np.array(config.momenta).T
            q = np.array([divergence_quotient(cfg, kx, ky, e) for e in eps])
            slope = np.polyfit(np.log(eps), np.log(q), 1)[0]
            gap = float(f_next - f_min)
            case = (str(a), str(b), compliant, str(f_min), slope)
            assert -gap / 2 < slope - (float(f_min) - 1) < gap, case
            terms = np.stack([eps ** (float(f) - 1) / q for f in (f_min, f_next)], axis=1)
            c0 = np.linalg.lstsq(terms, np.ones(len(eps)), rcond=None)[0][0]
            assert c0 * terms[-1, 0] >= 0.1, case
            rejected += 1
    assert rejected == 458


def test_walk_without_order_one_terms_has_a_trivial_limit_where_nothing_fractional_lives():
    """The walk's own backing of the second plastic "no": on every walk of the benchmark's
    seed-11 ``spacetime_scan`` draws whose (a, b) admits no order-1 term (372 of the 968),
    so that no generator exists, the quotient q(eps) = max ||(W^2 - I)/(2 eps)|| over the
    config's momenta goes to 0 (a trivial limit), a positive log-log slope over eps =
    1e-3 ... 1e-6, exactly where ``live_orders`` says no group below order 1 is live (158
    walks), and diverges elsewhere (214): there its slope is f_min - 1 within (-g/2, g),
    the rule of the walks with order-1 terms, f_min the smallest live order and g the gap
    to the next (or to 1); the largest deviation is 0.59 g.  Every slope lies 0.024 or
    more from 0: the least, 0.0249, is at a = 2/5, b = 5/8 and its mirror, whose leading
    order is a + b = 41/40.

    The window is where float64 resolves q.  On eps = 1e-7 ... 1e-10 the compliant walk
    at a = 7/8, b = 6/7 reads -0.056: its leading order above 1 is 12/7, so q falls as
    eps^(5/7), 2.3e-6 at eps = 1e-7, under the floor of W^2 - I in float64 (a few 1e-16
    over 2 eps: 3.6e-6 at 1e-10)."""
    workloads = load_workloads()
    rng = np.random.default_rng([11, 3])  # spacetime_scan's generator at seed 11
    eps = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    trivial = diverging = 0
    for a, b in itertools.product(FAREY_8, repeat=2):
        for compliant in (True, False):
            config = ExperimentConfig.from_dict({"walk": workloads.plastic_walk(rng, a, b,
                                                                                compliant)})
            if enumerate_terms(a, b):
                continue
            cfg = config.walk
            kx, ky = np.array(config.momenta).T
            q = [divergence_quotient(cfg, kx, ky, e) for e in eps]
            slope = np.polyfit(np.log(eps), np.log(q), 1)[0]
            live = live_orders(cfg) + [Fraction(1)]
            case = (str(a), str(b), compliant, [str(f) for f in live], slope)
            assert abs(slope) >= 0.024, case
            if len(live) == 1:
                assert slope > 0, case
                trivial += 1
            else:
                gap = float(live[1] - live[0])
                assert -gap / 2 < slope - (float(live[0]) - 1) < gap, case
                diverging += 1
    assert (trivial, diverging) == (158, 214)


@pytest.mark.parametrize("draw,a,b", [(draw_plastic_compliant, Fraction(1, 3), Fraction(2, 3)),
                                      (draw_plastic_generic, HALF, Fraction(1))])
def test_walk_converges_to_the_closed_form_generator(rng, draw, a, b):
    """The walk's own backing of both closed forms: W^(2n) approaches the evolution of the
    generator as eps shrinks, on the shell line a + b = 1 and at b = 1 off the shell (the
    fitted order reads about a)."""
    cfg = replace(draw(rng), a_exp=a, b_exp=b)
    assert closed_form_generator(cfg) is not None
    kx, ky = np.array([(0.7, -0.3), (0.23, 0.9), (-0.51, 0.42)]).T
    result = spacetime_convergence(cfg, 0.5, kx, ky, [2.0 ** -k for k in range(6, 11)])
    assert result.slope > 0.25 and result.r_squared > 0.99


FAREY_12 = sorted({Fraction(p, q) for q in range(1, 13) for p in range(1, q + 1)})


@pytest.mark.parametrize("draw", [draw_plastic_compliant, draw_plastic_generic])
def test_groups_vanish_by_pair_kind(rng, draw):
    """At every exponent pair with denominators up to 12, of order 1 and below it: the
    pure-l groups (sum_n = 0) cancel, the pure-n groups (sum_l = 0) cancel on the
    shell alone, and every mixed (sum_l, sum_n) pair keeps a group on both classes."""
    for (a, b), order_one in itertools.product(itertools.product(FAREY_12, repeat=2),
                                               (True, False)):
        largest = {}
        for g in grouped_sums(draw(rng), a, b, order_one):
            pair = (g.kx_power + g.ky_power, g.thx_power + g.thy_power)
            largest[pair] = max(largest.get(pair, 0.0), float(op_norm(g.matrix)))
        for (sl, sn), norm in largest.items():
            if sn == 0 or (sl == 0 and draw is draw_plastic_compliant):
                assert norm <= 1e-12, (a, b, order_one, sl, sn)
            else:
                assert norm > 1e-10, (a, b, order_one, sl, sn)


def test_grouped_sums_memory_stays_flat(rng):
    """check and pde at a = 1/45, b = 1, the largest in-budget sum below order 1
    (194,579 tuples), peak under 2 MiB: the engine sums per group, not per tuple."""
    a, b = Fraction(1, 45), Fraction(1)
    assert _pairs(a, b, order_one=False)[1] == 194_579
    cfg = replace(draw_plastic_compliant(rng), a_exp=a, b_exp=b)
    tracemalloc.start()
    try:
        for run in (check_spacetime_limit, spacetime_hamiltonian):
            tracemalloc.reset_peak()
            run(cfg)
            assert tracemalloc.get_traced_memory()[1] < 2 * 2 ** 20, run.__name__
    finally:
        tracemalloc.stop()


# ------------------------------------------------------------ gates and f2


def test_zeroth_order_gate(rng):
    for _ in range(5):
        cfg = draw_plastic_compliant(rng)
        assert zeroth_order_residual(cfg) <= 1e-12
        assert abs(constraint_f2(cfg)) <= 1e-12
    bad = plastic_raw(0.4, 1.3, 0.2, -0.5, 0.9, 0.1)
    assert zeroth_order_residual(bad) > 0.1


def test_check_spacetime_limit_reports(rng):
    cfg = draw_plastic_compliant(rng)
    rep = check_spacetime_limit(cfg)
    assert rep.passed
    assert witnesses(rep)["order_one_terms"] == 36
    names = [c.name for c in rep.conditions]
    assert names == ["theta_branch", "delta_quantization", "exponents_rational",
                     "no_divergence"]

    bad = draw_plastic_generic(rng)
    rep = check_spacetime_limit(bad)
    assert not rep.passed
    assert not rep["no_divergence"].satisfied

    # a = 0 is reported as a failed exponent condition, not an exception
    rep = check_spacetime_limit(replace(cfg, a_exp=Fraction(0)))
    assert not rep.passed
    assert not rep["exponents_rational"].satisfied


def test_partial_conditions_split_group_cancellations(rng):
    """On the theta0 branch alone (generic a1, a2) the second-derivative and
    mixed-derivative groups already cancel; the mass groups need the
    divergence conditions too."""
    cfg = draw_plastic_generic(rng)
    norm = {(g.kx_power, g.ky_power, g.thx_power, g.thy_power): float(op_norm(g.matrix))
            for g in grouped_sums(cfg, HALF, HALF, order_one=True)
            if g.exponent == 1}
    assert norm[(2, 0, 0, 0)] <= 1e-12
    assert norm[(0, 2, 0, 0)] <= 1e-12
    assert norm[(1, 1, 0, 0)] <= 1e-12
    assert norm[(0, 0, 2, 0)] + norm[(0, 0, 0, 2)] > 0.1


# ------------------------------------------------------- hamiltonian assembly


def test_spacetime_assembly_half_half_has_only_transport_terms(rng):
    cfg = draw_plastic_compliant(rng)
    asm = spacetime_hamiltonian(cfg)
    keys = {(t.dx_power, t.dy_power, t.thx_power, t.thy_power) for t in asm.terms}
    assert keys == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}


def test_spacetime_assembly_matches_walk_limit(rng):
    cfg = draw_plastic_compliant(rng)
    asm = spacetime_hamiltonian(cfg)
    kx, ky = 0.9, -0.4

    def err(eps):
        w = walk_k(cfg, kx, ky, eps)
        quotient = (w @ w - ID2) / (2 * eps)
        return float(op_norm(quotient - asm.generator(kx, ky)))

    e1, e2 = err(1e-6), err(1e-8)
    assert e1 <= 1e-2 and e2 <= 1e-3
    assert e2 < e1 / 5


def test_spacetime_assembly_unit_exponents_is_mass_type(rng):
    """At a = b = 1 the derivative groups cancel identically on the branch;
    the limit generator is a pure theta1 (mass) term."""
    one = Fraction(1)
    cfg = replace(draw_plastic_generic(rng), a_exp=one, b_exp=one)
    asm = spacetime_hamiltonian(cfg)
    assert all(t.dx_power == 0 and t.dy_power == 0 for t in asm.terms)
    assert len(asm.terms) >= 1

    kx, ky = 0.3, 0.8
    def err(eps):
        w = walk_k(cfg, kx, ky, eps)
        quotient = (w @ w - ID2) / (2 * eps)
        return float(op_norm(quotient - asm.generator(kx, ky)))
    assert err(1e-7) <= 1e-4


def test_generator_matches_walk_quotient_at_contamination_rate(rng):
    """On every gate-passing Farey-8 (a, b, class) with terms, ||(W^2 - I)/(2 eps) - G(k)||
    falls strictly over eps = 1e-4 ... 1e-7, at least at 0.8 times the rate of the
    smallest contamination exponent: the closed-form -1/2 is the limit's prefactor."""
    eps_list = [1e-4, 1e-5, 1e-6, 1e-7]
    momenta = ExperimentConfig.momenta
    kx = np.array([k[0] for k in momenta])
    ky = np.array([k[1] for k in momenta])
    cases = 0
    for a in FAREY_8:
        for b in FAREY_8:
            for draw in (draw_plastic_compliant, draw_plastic_generic):
                cfg = replace(draw(rng), a_exp=a, b_exp=b)
                if not check_spacetime_limit(cfg).passed:
                    continue
                asm = spacetime_hamiltonian(cfg)
                if not asm.terms:
                    continue  # no order-1 group survives (the NaN calibration defect)
                gen = asm.generator(kx, ky)
                errs = []
                for eps in eps_list:
                    w = walk_k(cfg, kx, ky, eps)
                    errs.append(float(np.max(op_norm((w @ w - ID2) / (2 * eps) - gen))))
                case = (str(a), str(b), draw.__name__, errs)
                assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:])), case
                slope = fit_order(list(zip(eps_list, errs)))[0]
                assert slope >= 0.8 * float(calibration_exponents(a, b)[0]), (case, slope)
                cases += 1
    assert cases == 43  # 21 compliant with a + b = 1, 22 divergent with b = 1


def test_spacetime_assembly_rejects_divergent_config(rng):
    with pytest.raises(ValueError, match="no_divergence"):
        spacetime_hamiltonian(draw_plastic_generic(rng))


# ---------------------------------------------------------------- closed form


def test_half_half_pde_matches_enumerator(rng):
    for _ in range(5):
        cfg = draw_plastic_compliant(rng)
        asm = spacetime_hamiltonian(cfg)
        px, py = half_half_pde(cfg)
        assert float(op_norm(derivative_coefficient(asm, 1, 0) - px)) <= 1e-12
        assert float(op_norm(derivative_coefficient(asm, 0, 1) - py)) <= 1e-12
        assert is_hermitian(px, tol=1e-12) and is_hermitian(py, tol=1e-12)


def test_half_half_pde_zero_rates(rng):
    cfg = draw_plastic_compliant(rng, theta1x=0.0, theta1y=0.0)
    px, py = half_half_pde(cfg)
    assert float(op_norm(px)) <= 1e-15 and float(op_norm(py)) <= 1e-15


def test_half_half_pde_rejects_noncompliant(rng):
    with pytest.raises(ValueError):
        half_half_pde(draw_plastic_generic(rng))


def test_half_half_pde_refuses_a_walk_at_other_exponents(rng):
    """The closed form is the a = b = 1/2 limit: a walk at a = 1/3, b = 2/3 passes its
    own gate, and half_half_pde refuses it instead of gating it at 1/2."""
    cfg = replace(draw_plastic_compliant(rng), a_exp=Fraction(1, 3), b_exp=Fraction(2, 3))
    assert check_spacetime_limit(cfg).passed
    with pytest.raises(ValueError, match="a = b = 1/2, got a = 1/3, b = 2/3"):
        half_half_pde(cfg)


def test_transport_commutator_identity_and_on_shell_vanishing(rng):
    # off shell: closed form matches the bracket of the enumerator output
    for _ in range(5):
        thx0 = 2 * np.pi * int(rng.integers(-1, 2))
        thy0 = 2 * np.pi * int(rng.integers(-1, 2)) + np.pi
        zx, phx, zy, phy = rng.uniform(-np.pi, np.pi, size=4)
        cfg = plastic_raw(thx0, thy0, zx, phx, zy, phy)
        asm_px = None
        # build Px, Py from the raw group sums (no divergence gating)
        groups = {(g.kx_power, g.ky_power, g.thx_power, g.thy_power): g.matrix
                  for g in grouped_sums(cfg, HALF, HALF, order_one=True)
                  if g.exponent == 1}
        thx, thy = cfg.coin_x.theta1, cfg.coin_y.theta1
        px = 1j * (thx * groups[(1, 0, 1, 0)] + thy * groups[(1, 0, 0, 1)])
        py = 1j * (thx * groups[(0, 1, 1, 0)] + thy * groups[(0, 1, 0, 1)])
        got = px @ py - py @ px
        assert float(op_norm(got - transport_commutator(cfg))) <= 1e-12
    # on the constraint shell the transport matrices commute
    for _ in range(5):
        cfg = draw_plastic_compliant(rng)
        px, py = half_half_pde(cfg)
        assert float(op_norm(px @ py - py @ px)) <= 1e-12
        assert float(op_norm(transport_commutator(cfg))) <= 1e-12


# ----------------------------------------------------------------- cross terms


def test_cross_terms_cancel_for_integer_pi_theta(rng):
    for _ in range(10):
        m = int(rng.integers(-2, 3))
        n = m + 1 + 2 * int(rng.integers(-1, 2))  # opposite parity
        if rng.integers(0, 2):
            m, n = n, m
        zx, phx, zy, phy = rng.uniform(-np.pi, np.pi, size=4)
        cfg = plastic_raw(np.pi * m, np.pi * n, zx, phx, zy, phy)
        rep = cross_term_report(cfg)
        assert rep["cancels"] and rep["residual"] <= 1e-12


def test_cross_terms_survive_alternative_family(rng):
    """Quantizing a1 +- a2 instead of the theta angles satisfies the
    zeroth-order gate but keeps mixed-derivative terms."""
    for _ in range(5):
        u, v = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        a1 = np.pi * (1 + u + v)
        a2 = np.pi * (v - u)
        while True:
            thx0, thy0 = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
            if min(abs(thx0 % np.pi), abs(thy0 % np.pi)) > 0.3:
                break
        cfg = plastic_from_angles(a1, a2, rng)
        cfg = replace(cfg, coin_x=replace(cfg.coin_x, theta0=thx0),
                      coin_y=replace(cfg.coin_y, theta0=thy0))
        rep = cross_term_report(cfg)
        assert not rep["cancels"]
        assert rep["residual"] > 1e-3


def test_cross_term_norm_matches_enumerator_group(rng):
    """The four-word sum has the same norm as the actual d_x d_y coefficient
    group of the order-1 expansion."""
    for _ in range(5):
        thx0, thy0 = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        zx, phx, zy, phy = rng.uniform(-np.pi, np.pi, size=4)
        cfg = plastic_raw(thx0, thy0, zx, phx, zy, phy)
        groups = {(g.kx_power, g.ky_power, g.thx_power, g.thy_power): g
                  for g in grouped_sums(cfg, HALF, HALF, order_one=True)
                  if g.exponent == 1}
        cross = groups[(1, 1, 0, 0)]
        rep = cross_term_report(cfg)
        assert abs(float(op_norm(cross.matrix)) - rep["residual"]) <= 1e-12
