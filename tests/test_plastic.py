import itertools
import time
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasticwalk import (
    CoinJet, WalkConfig, check_spacetime_limit, divergence_residual,
    enumerate_terms, fit_order, half_half_pde, spacetime_hamiltonian, walk_k,
)
from plasticwalk.config import ExperimentConfig
from plasticwalk.mat2 import ID2, op_norm, rot
from plasticwalk.plastic import (
    TUPLE_BUDGET, TermIndex, _grouped_sums, _pairs, gamma_hat,
)

from conftest import (
    FAREY_8, HALF, draw_plastic_compliant, draw_plastic_generic, plastic_from_angles, with_exponents,
)
from oracles import (
    calibration_exponents, constraint_f2, cross_term_report, derivative_coefficient,
    grouped_sums_loop, is_hermitian, sum_pairs_scan, transport_commutator, witnesses,
    word_chain, zeroth_order_residual,
)


def plastic_raw(theta0x, theta0y, zx, phx, zy, phy, dx=0.2, delta=-np.pi / 2,
                thx=0.63, thy=-0.37, a=HALF, b=HALF):
    jx = CoinJet(delta=dx, zeta0=zx, theta0=theta0x, theta1=thx, phi0=phx,
                 b_exp=b, mode="plastic")
    jy = CoinJet(delta=delta - dx, zeta0=zy, theta0=theta0y, theta1=thy, phi0=phy,
                 b_exp=b, mode="plastic")
    return WalkConfig(coin_x=jx, coin_y=jy, tau=2, a_exp=a)


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


def _series_walk(cfg, kx, ky, eps, max_order):
    """Oracle: truncated expansion of S_x C_x S_y C_y from the index series."""
    a, b = cfg.a_exp, cfg.coin_x.b_exp
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


@pytest.mark.parametrize("a,b", [(HALF, HALF), (Fraction(1, 3), Fraction(2, 3)),
                                 (Fraction(1, 4), Fraction(1, 3)), (Fraction(1, 5), Fraction(2, 5)),
                                 (Fraction(2, 3), Fraction(3, 4)), (Fraction(1), Fraction(1))])
def test_order_one_terms_is_the_enumerated_count(rng, a, b):
    """The gate counts its order-1 tuples in closed form; the enumeration is the oracle."""
    report = check_spacetime_limit(draw_plastic_compliant(rng), a, b)
    assert report["exponents_rational"].witness["order_one_terms"] == len(enumerate_terms(a, b))


def test_tuple_budget_stops_enumeration_early(rng):
    tiny = Fraction(1, 50)  # about 1.7e9 tuples of order at most 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="work budget"):
        enumerate_terms(tiny, tiny)
    with pytest.raises(ValueError, match="work budget"):
        _grouped_sums(draw_plastic_compliant(rng), tiny, tiny, order_one=False)
    assert time.perf_counter() - start < 1.0
    eighth = Fraction(1, 8)  # the largest term set at denominators up to 8 fits
    assert len(enumerate_terms(eighth, eighth)) == comb(15, 7) < TUPLE_BUDGET


def _same_as_scan(a, b, order_one):
    try:
        want = sum_pairs_scan(a, b, order_one)
    except ValueError:
        with pytest.raises(ValueError, match="work budget"):
            _pairs(a, b, order_one)
    else:
        assert _pairs(a, b, order_one) == want, (a, b, order_one)


def test_pair_table_matches_the_scan_on_farey_8():
    for a, b in itertools.product(FAREY_8, repeat=2):
        for order_one in (True, False):
            _same_as_scan(a, b, order_one)


# the exponents in (0, 1] with denominators up to 40
EXPONENTS_40 = st.integers(1, 40).flatmap(
    lambda q: st.builds(Fraction, st.integers(1, q), st.just(q)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(EXPONENTS_40, EXPONENTS_40, st.booleans())
def test_pair_table_matches_the_scan(a, b, order_one):
    """The same pairs in the same order, the same tuple count and the same refusals."""
    _same_as_scan(a, b, order_one)


# ----------------------------------------------------------------- divergence


def test_divergence_cancels_on_true_constraint_family(rng):
    for _ in range(10):
        cfg = draw_plastic_compliant(rng)
        residual, groups = divergence_residual(cfg, HALF, HALF)
        assert residual <= 1e-12
        assert all(g.exponent == HALF for g in groups)


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
        _, groups = divergence_residual(cfg, HALF, HALF)
        by_key = {(g.kx_power, g.ky_power, g.thx_power, g.thy_power): g for g in groups}
        assert set(by_key) == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}

        e_dx = rot("y", thx0) @ rot("z", a1) @ rot("y", thy0) \
            + rot("y", -thx0) @ rot("z", a1) @ rot("y", -thy0)
        e_dy = rot("y", thy0) @ rot("z", a2) @ rot("y", thx0) \
            + rot("y", -thy0) @ rot("z", a2) @ rot("y", -thx0)
        e_thx = rot("z", a1) @ rot("y", thy0) @ rot("z", a2) \
            + rot("z", -a1) @ rot("y", thy0) @ rot("z", -a2)
        e_thy = rot("z", a2) @ rot("y", thx0) @ rot("z", a1) \
            + rot("z", -a2) @ rot("y", thx0) @ rot("z", -a1)

        assert abs(by_key[(1, 0, 0, 0)].norm - float(op_norm(e_dx))) <= 1e-12
        assert abs(by_key[(0, 1, 0, 0)].norm - float(op_norm(e_dy))) <= 1e-12
        assert abs(2.0 * by_key[(0, 0, 1, 0)].norm - float(op_norm(e_thx))) <= 1e-12
        assert abs(2.0 * by_key[(0, 0, 0, 1)].norm - float(op_norm(e_thy))) <= 1e-12


def test_divergence_empty_for_unit_exponents(rng):
    cfg = with_exponents(draw_plastic_compliant(rng), Fraction(1), Fraction(1))
    residual, groups = divergence_residual(cfg, Fraction(1), Fraction(1))
    assert residual == 0.0 and groups == []


# ----------------------------------------------------------- grouped-sum engine


def _same_as_loop(cfg, a, b, order_one):
    """The same groups in the same order as the tuple-by-tuple oracle, to the bit."""
    try:
        want = grouped_sums_loop(cfg, a, b, order_one)
    except ValueError:
        with pytest.raises(ValueError, match="work budget"):
            _grouped_sums(cfg, a, b, order_one)
        return
    got = _grouped_sums(cfg, a, b, order_one)
    keys = [[(g.exponent, g.kx_power, g.ky_power, g.thx_power, g.thy_power) for g in groups]
            for groups in (got, want)]
    assert keys[0] == keys[1], (a, b, order_one)
    assert all(g.matrix.tobytes() == w.matrix.tobytes() for g, w in zip(got, want)), \
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


def test_grouped_sums_memory_stays_flat(rng):
    """check and pde at a = 1/45, b = 1, the largest in-budget sum below order 1
    (194,579 tuples), peak under 16 MiB: the tuples are summed one pair at a time."""
    a, b = Fraction(1, 45), Fraction(1)
    assert _pairs(a, b, order_one=False)[1] == 194_579
    cfg = with_exponents(draw_plastic_compliant(rng), a, b)
    tracemalloc.start()
    try:
        for run in (check_spacetime_limit, spacetime_hamiltonian):
            tracemalloc.reset_peak()
            run(cfg, a, b)
            assert tracemalloc.get_traced_memory()[1] < 16 * 2 ** 20, run.__name__
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
    rep = check_spacetime_limit(cfg, HALF, HALF)
    assert rep.passed
    assert witnesses(rep)["order_one_terms"] == 36
    names = [c.name for c in rep.conditions]
    assert names == ["theta_branch", "delta_quantization", "exponents_rational",
                     "no_divergence"]

    bad = draw_plastic_generic(rng)
    rep = check_spacetime_limit(bad, HALF, HALF)
    assert not rep.passed
    assert not rep["no_divergence"].satisfied

    # a = 0 is reported as a failed exponent condition, not an exception
    rep = check_spacetime_limit(cfg, Fraction(0), Fraction(1, 2))
    assert not rep.passed
    assert not rep["exponents_rational"].satisfied


def test_partial_conditions_split_group_cancellations(rng):
    """On the theta0 branch alone (generic a1, a2) the second-derivative and
    mixed-derivative groups already cancel; the mass groups need the
    divergence conditions too."""
    cfg = draw_plastic_generic(rng)
    groups = {(g.kx_power, g.ky_power, g.thx_power, g.thy_power): g
              for g in _grouped_sums(cfg, HALF, HALF, order_one=True)
              if g.exponent == 1}
    assert groups[(2, 0, 0, 0)].norm <= 1e-12
    assert groups[(0, 2, 0, 0)].norm <= 1e-12
    assert groups[(1, 1, 0, 0)].norm <= 1e-12
    assert groups[(0, 0, 2, 0)].norm + groups[(0, 0, 0, 2)].norm > 0.1


# ------------------------------------------------------- hamiltonian assembly


def test_spacetime_assembly_half_half_has_only_transport_terms(rng):
    cfg = draw_plastic_compliant(rng)
    asm = spacetime_hamiltonian(cfg, HALF, HALF)
    keys = {(t.dx_power, t.dy_power, t.thx_power, t.thy_power) for t in asm.terms}
    assert keys == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}


def test_spacetime_assembly_matches_walk_limit(rng):
    cfg = draw_plastic_compliant(rng)
    asm = spacetime_hamiltonian(cfg, HALF, HALF)
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
    cfg = with_exponents(draw_plastic_generic(rng), one, one)
    asm = spacetime_hamiltonian(cfg, one, one)
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
                cfg = with_exponents(draw(rng), a, b)
                if not check_spacetime_limit(cfg, a, b).passed:
                    continue
                asm = spacetime_hamiltonian(cfg, a, b)
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
        spacetime_hamiltonian(draw_plastic_generic(rng), HALF, HALF)


# ---------------------------------------------------------------- closed form


def test_half_half_pde_matches_enumerator(rng):
    for _ in range(5):
        cfg = draw_plastic_compliant(rng)
        asm = spacetime_hamiltonian(cfg, HALF, HALF)
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
                  for g in _grouped_sums(cfg, HALF, HALF, order_one=True)
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
        cfg = WalkConfig(
            coin_x=CoinJet(**{**cfg.coin_x.__dict__, "theta0": thx0}),
            coin_y=CoinJet(**{**cfg.coin_y.__dict__, "theta0": thy0}),
            tau=2, a_exp=HALF)
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
                  for g in _grouped_sums(cfg, HALF, HALF, order_one=True)
                  if g.exponent == 1}
        cross = groups[(1, 1, 0, 0)]
        rep = cross_term_report(cfg)
        assert abs(cross.norm - rep["residual"]) <= 1e-12
