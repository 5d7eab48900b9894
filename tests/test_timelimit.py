import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasticwalk import CoinJet, WalkConfig, check_time_limit, time_hamiltonian, walk_k
from plasticwalk.mat2 import SY, op_norm, rot
from plasticwalk.timelimit import Condition, ConstraintReport, anticommutator_AB
from plasticwalk._util import CONVERGE_BLOCK, K_BLOCK, k_tiles, stack_power

from conftest import draw_time_compliant, draw_time_generic
from oracles import (
    ID2, constraint_f, first_order_blocks, is_hermitian, odd_tau_gap, roots_of_unity_residual,
    time_symbol_stack, time_terms_per_term, walk_block, witnesses,
)


def simple_config(theta0x, theta0y, delta, tau, **kw):
    jx = CoinJet(delta=0.0, theta0=theta0x, theta1=kw.get("theta1x", 0.5),
                 zeta0=kw.get("zeta0x", 0.0), phi0=kw.get("phi0x", 0.0))
    jy = CoinJet(delta=delta, theta0=theta0y, theta1=kw.get("theta1y", -0.3),
                 zeta0=kw.get("zeta0y", 0.0), phi0=kw.get("phi0y", 0.0))
    return WalkConfig(coin_x=jx, coin_y=jy, tau=tau)


def test_gate_accepts_reference_configs():
    rep = check_time_limit(simple_config(np.pi, 0.0, -np.pi / 2, 2))
    assert rep.passed
    assert witnesses(rep)["nu"] == 1
    assert witnesses(rep)["p"] == 1

    rep = check_time_limit(simple_config(0.0, 3 * np.pi, -3 * np.pi / 2, 4))
    assert rep.passed
    assert witnesses(rep)["nu"] == 0
    assert witnesses(rep)["m"] == 0
    assert witnesses(rep)["t"] == 1
    assert witnesses(rep)["p"] == 3


def test_gate_rejects_odd_tau():
    rep = check_time_limit(simple_config(np.pi, 0.0, -np.pi / 2, 1))
    assert not rep.passed
    assert not rep["tau_even"].satisfied
    rep = check_time_limit(simple_config(np.pi, 0.0, -np.pi / 2, 3))
    assert not rep.passed


def test_gate_rejects_same_branch_thetas():
    rep = check_time_limit(simple_config(0.0, 0.0, -np.pi / 2, 2))
    assert not rep.passed
    assert not rep["theta_branch"].satisfied


@pytest.mark.parametrize("theta0y", [1e300, 1e100, 2.0 ** 60 * np.pi, 4.0e16])
def test_gate_rejects_huge_angles_whose_coins_leave_the_branch(theta0y):
    """(theta0 - nu pi) / 2 pi rounds to an integer for every huge float, but the
    coin uses cos and sin of theta0 / 2: the residual is read from the Ry entries."""
    cfg = simple_config(np.pi, theta0y, -np.pi / 2, 2)
    ry_x, ry_y = rot("y", np.pi), rot("y", theta0y)
    # nu = 1 zeroes the cos entry of Ry(theta0x) and the sin entry of Ry(theta0y)
    want = 2.0 * max(abs(ry_x[0, 0]), abs(ry_y[1, 0]))
    assert want > 1e-3
    cond = check_time_limit(cfg)["theta_branch"]
    assert not cond.satisfied and cond.witness == {}
    assert cond.residual == want
    with pytest.raises(ValueError, match="theta_branch"):
        time_hamiltonian(cfg)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-1000, 1000), st.integers(-1000, 1000), st.integers(0, 1),
       st.floats(-1e-3, 1e-3))
def test_theta_residual_reads_radians_near_the_branch(m, t, nu, offset):
    """Twice the zeroed Ry entries: the offset from the branch in radians, to roundoff."""
    theta0x = 2.0 * np.pi * m + nu * np.pi + offset
    theta0y = 2.0 * np.pi * t + (1 - nu) * np.pi
    cond = check_time_limit(simple_config(theta0x, theta0y, -np.pi / 2, 2))["theta_branch"]
    assert abs(cond.residual - abs(offset)) <= 1e-9
    if cond.satisfied:
        assert cond.witness == {"nu": nu, "m": m, "t": t}


def _ulps_from(x: float, ulps: int) -> float:
    """The float ``ulps`` steps above ``x`` (below it for negative ``ulps``)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _near_multiple(unit: float):
    """Floats a few ulps either side of the multiples k * unit, |k| <= 80."""
    return st.builds(lambda k, ulps: _ulps_from(k * unit, ulps),
                     st.integers(-80, 80), st.integers(-4, 4))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(theta0=st.one_of(st.floats(-1e3, 1e3), st.floats(-10.0, 10.0), _near_multiple(math.pi),
                        st.sampled_from([1e300, -1e300, 2.0 ** 60 * math.pi, 4.0e16])),
       delta=st.one_of(st.floats(-1e3, 1e3), _near_multiple(math.pi / 2.0),
                       st.sampled_from([1e300, -1e300])),
       tau=st.sampled_from([1, 2, 3, 4, 6, 8, 2 ** 20 + 1, 2 ** 53]),
       l=st.integers(0, 2 ** 53))
def test_math_sin_and_cos_are_numpys_on_the_gate_arguments(theta0, delta, tau, l):
    """The time gate's sin and cos are ``math``'s, where they were numpy's: on each
    argument they take, theta0 / 2 and the delta phase 2 pi l / tau - delta, both give
    the same bits.  numpy's own loops depend on the CPU, so a host where they differ
    fails here."""
    phase = 2.0 * math.pi * (l % tau) / tau - delta
    for x in (theta0 / 2.0, phase):
        for ours, theirs in ((math.sin, np.sin), (math.cos, np.cos)):
            assert np.float64(ours(x)).tobytes() == np.float64(theirs(x)).tobytes(), (ours, x)


def test_gate_rejects_bad_delta():
    rep = check_time_limit(simple_config(np.pi, 0.0, 0.3, 2))
    assert not rep.passed
    assert not rep["delta_quantization"].satisfied


def test_witness_gauge_covariance(rng):
    cfg = draw_time_compliant(rng)
    rep = check_time_limit(cfg)
    shifted = replace(cfg, coin_x=replace(cfg.coin_x, theta0=cfg.coin_x.theta0 + 4 * np.pi))
    rep2 = check_time_limit(shifted)
    assert rep2.passed == rep.passed
    assert witnesses(rep2)["m"] == witnesses(rep)["m"] + 2
    assert witnesses(rep2)["t"] == witnesses(rep)["t"]
    assert witnesses(rep2)["nu"] == witnesses(rep)["nu"]


def test_report_serializes_with_stable_keys(rng):
    rep = check_time_limit(draw_time_compliant(rng))
    doc = json.loads(json.dumps(rep.to_dict()))
    assert set(doc) == {"passed", "conditions"}  # the CLI stamps schema_version
    for cond in doc["conditions"]:
        assert set(cond) == {"name", "satisfied", "residual", "witness"}


def test_report_passes_only_when_every_condition_holds():
    """``passed`` is read from the conditions: one unsatisfied condition fails the report,
    in its dict too, and ``require`` names that condition alone."""
    held = Condition("theta_branch", True, 0.0, {"nu": 0})
    failed = Condition("tau_even", False, 1.0)
    assert ConstraintReport((held,)).passed
    rep = ConstraintReport((held, failed))
    assert not rep.passed and rep.to_dict()["passed"] is False
    with pytest.raises(ValueError, match=r"^config fails the time-limit gate: tau_even$"):
        rep.require("time-limit gate")
    assert ConstraintReport((held,)).require("time-limit gate").passed


def test_constraint_f_zero_on_compliant_configs(rng):
    for _ in range(5):
        cfg = draw_time_compliant(rng)
        ks = np.linspace(-np.pi, np.pi, 17)
        vals = constraint_f(cfg, ks[:, None], ks[None, :])
        assert float(np.max(np.abs(vals))) <= 1e-12


def test_constraint_f_specific_half_pi_case():
    # W1 = W2 = 1/2, c = cos(-pi/2) = 0: f = (cos g - cos h)/2
    cfg = simple_config(np.pi / 2, np.pi / 2, np.pi / 2, 2,
                        zeta0x=0.3, zeta0y=-0.4, phi0x=0.2, phi0y=0.1)
    kx, ky = 0.37, -0.83
    zpx = 0.3 - 2 * kx
    zpy = -0.4 - 2 * ky
    g = (0.2 + 0.1 + zpx + zpy) / 2
    h = (0.1 - 0.2 + zpx - zpy) / 2
    expected = 0.5 * (np.cos(g) - np.cos(h))
    assert abs(constraint_f(cfg, kx, ky) - expected) <= 1e-14
    assert abs(expected) > 1e-3  # the case is genuinely nonzero


def test_constraint_f_derivatives_match_finite_differences(rng):
    cfg = draw_time_generic(rng)
    jx, jy = cfg.coin_x, cfg.coin_y
    w1 = np.cos(jx.theta0 / 2) * np.cos(jy.theta0 / 2)
    w2 = np.sin(jx.theta0 / 2) * np.sin(jy.theta0 / 2)
    for kx, ky in [(0.3, 0.9), (-1.2, 0.4), (2.0, -2.5)]:
        zpx = jx.zeta0 - 2 * kx
        zpy = jy.zeta0 - 2 * ky
        g = (jx.phi0 + jy.phi0 + zpx + zpy) / 2
        h = (jy.phi0 - jx.phi0 + zpx - zpy) / 2
        d_dx = w1 * np.sin(g) - w2 * np.sin(h)
        d_dy = w1 * np.sin(g) + w2 * np.sin(h)
        step = 1e-6
        fd_x = (constraint_f(cfg, kx + step, ky) - constraint_f(cfg, kx - step, ky)) / (2 * step)
        fd_y = (constraint_f(cfg, kx, ky + step) - constraint_f(cfg, kx, ky - step)) / (2 * step)
        assert abs(fd_x - d_dx) <= 1e-8
        assert abs(fd_y - d_dy) <= 1e-8


def _kgrid(n):
    ks = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return ks[:, None], ks[None, :]


def test_roots_of_unity_compliant_and_not(rng):
    kx, ky = _kgrid(64)
    for tau in (2, 4):
        cfg = draw_time_compliant(rng, tau=tau)
        assert roots_of_unity_residual(cfg, kx, ky) <= 1e-12
    cfg = draw_time_generic(rng)
    assert roots_of_unity_residual(cfg, kx, ky) >= 0.1


NOISE = st.just(0.0) | st.floats(1e-6, 0.1) | st.floats(-0.1, -1e-6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([2, 4, 6, 8]), st.integers(0, 1), st.integers(-40, 40), NOISE,
       st.integers(0, 2 ** 32 - 1))
def test_delta_gate_finds_the_root_of_unity_index(tau, nu, j, noise, seed):
    """On either theta branch, the gate's delta condition holds iff W0^tau = I, for
    delta on the pi / tau grid and off it."""
    cfg = draw_time_compliant(np.random.default_rng(seed), nu=nu, tau=tau)
    delta_y = j * np.pi / tau + noise - cfg.coin_x.delta
    cfg = replace(cfg, coin_y=replace(cfg.coin_y, delta=delta_y), tau=tau)
    ks = np.linspace(-np.pi, np.pi, 7)
    satisfied = check_time_limit(cfg)["delta_quantization"].satisfied
    assert satisfied == (roots_of_unity_residual(cfg, ks[:, None], ks[None, :]) <= 1e-9)


def test_odd_tau_gap_and_odd_power_reduction(rng):
    kx, ky = _kgrid(32)
    cfg = draw_time_compliant(rng, tau=2)
    gap3 = odd_tau_gap(cfg, 3, kx, ky)
    gap1 = odd_tau_gap(cfg, 1, kx, ky)
    assert gap3 >= 1.5
    assert abs(gap3 - gap1) <= 1e-11  # (e^{i delta} A)^3 = e^{i delta} A
    # even contrast case: the squared block is the identity
    block2 = stack_power(walk_block(cfg, kx, ky), 2)
    assert float(np.max(op_norm(block2 - np.eye(2)))) <= 1e-12


def test_anticommutator_zero_rates(rng):
    cfg = draw_time_compliant(rng)
    cfg = replace(cfg, coin_x=replace(cfg.coin_x, theta1=0.0),
                  coin_y=replace(cfg.coin_y, theta1=0.0))
    ab = anticommutator_AB(cfg, 0.4, -0.7)
    assert float(op_norm(ab)) <= 1e-15


def test_anticommutator_matches_brute_force_both_branches(rng):
    for nu in (0, 1):
        for _ in range(50):
            cfg = draw_time_compliant(rng, nu=nu)
            kx = rng.uniform(-np.pi, np.pi, size=16)
            ky = rng.uniform(-np.pi, np.pi, size=16)
            ax, bx = first_order_blocks(cfg.coin_x, kx)
            ay, by = first_order_blocks(cfg.coin_y, ky)
            a = ax @ ay
            b = ax @ by + bx @ ay
            brute = a @ b + b @ a
            closed = anticommutator_AB(cfg, kx, ky)
            assert float(np.max(op_norm(brute - closed))) <= 1e-12
            assert is_hermitian(closed, tol=1e-12)


def test_anticommutator_rejects_off_branch(rng):
    cfg = draw_time_generic(rng)
    with pytest.raises(ValueError):
        anticommutator_AB(cfg, 0.1, 0.2)


def test_hamiltonian_zero_angle_structure():
    cfg = simple_config(0.0, np.pi, -np.pi / 2, 2, theta1x=0.7, theta1y=-0.4)
    terms, _ = time_hamiltonian(cfg)
    by_word = {(t.px, t.py): t.coeff for t in terms}
    assert set(by_word) == {(2, 0), (0, 2), (0, 0), (2, 2)}
    assert np.allclose(by_word[(2, 0)], 0.25 * 0.7 * SY, atol=1e-15)
    assert np.allclose(by_word[(0, 2)], 0.25 * 0.7 * SY, atol=1e-15)
    assert np.allclose(by_word[(0, 0)], 0.25 * (-0.4) * SY, atol=1e-15)
    assert np.allclose(by_word[(2, 2)], 0.25 * (-0.4) * SY, atol=1e-15)


def test_hamiltonian_symbol_is_quarter_anticommutator(rng):
    for _ in range(10):
        cfg = draw_time_compliant(rng)
        _, symbol = time_hamiltonian(cfg)
        kx = rng.uniform(-np.pi, np.pi, size=8)
        ky = rng.uniform(-np.pi, np.pi, size=8)
        h = symbol(kx, ky)
        ab = anticommutator_AB(cfg, kx, ky)
        assert float(np.max(op_norm(h + 0.25 * ab))) <= 1e-12


def _symbol_momenta(rng, kind):
    """Momenta of one of the forms the symbol is called with: scalars, 1-D lists (the
    plastic momenta form), kx (n, 1) x ky (1, m) factor grids, and the (1, 1) x (1, m)
    column tiles ``k_tiles`` cuts from a row longer than a block, K_BLOCK or converge's
    CONVERGE_BLOCK."""
    if kind == "scalar":
        pool = [0.0, -0.0, np.pi, -np.pi, 0.4] if rng.integers(0, 2) else rng.uniform(-4, 4, 2)
        return tuple(float(k) for k in rng.choice(pool, 2))
    if kind == "list":
        n = int(rng.integers(1, 7))
        return rng.uniform(-np.pi, np.pi, n), rng.uniform(-np.pi, np.pi, n)
    if kind == "grid":
        ks = np.linspace(-np.pi, np.pi, int(rng.integers(1, 12)), endpoint=False)
        return ks[:, None], -ks[None, :int(rng.integers(1, len(ks) + 1))]
    block = (K_BLOCK, CONVERGE_BLOCK)[int(rng.integers(0, 2))]
    ks = np.linspace(-np.pi, np.pi, block + int(rng.integers(1, 40)), endpoint=False)
    tiles = list(k_tiles(ks[:1, None], ks[None, :], block))
    _, kx, ky = tiles[int(rng.integers(0, len(tiles)))]
    return kx, ky


@settings(max_examples=120, deadline=None, derandomize=True)
@given(nu=st.integers(0, 1), tau=st.sampled_from([2, 4]),
       kind=st.sampled_from(["scalar", "list", "grid", "column"]), seed=st.integers(0, 2 ** 32 - 1))
def test_symbol_on_entry_planes_equals_the_stack_sum_bitwise(nu, tau, kind, seed):
    """The symbol's per-axis phases and entry planes give the bits of the sum of one
    diag_mul stack a term, on both theta branches (S_y powers 2s, s = +-1)."""
    rng = np.random.default_rng(seed)
    terms, symbol = time_hamiltonian(draw_time_compliant(rng, nu=nu, tau=tau))
    assert {t.py for t in terms} == {0, 2 * (1 - 2 * nu)}
    kx, ky = _symbol_momenta(rng, kind)
    h, ref = symbol(kx, ky), time_symbol_stack(terms, kx, ky)
    assert h.shape == ref.shape == np.broadcast(np.asarray(kx), np.asarray(ky)).shape + (2, 2)
    assert h.tobytes() == ref.tobytes()


ANGLES = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)
THETA1 = st.sampled_from([0.0, -0.0, 1e300, -1e300]) | st.floats(-1e300, 1e300)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(nu=st.integers(0, 1), tau=st.sampled_from([2, 4]), seed=st.integers(0, 2 ** 32 - 1),
       zeta0=st.tuples(ANGLES, ANGLES), phi0=st.tuples(ANGLES, ANGLES),
       theta1=st.tuples(THETA1, THETA1))
def test_stacked_terms_equal_the_per_term_build_bitwise(nu, tau, seed, zeta0, phi0, theta1):
    """time_hamiltonian's one (4, 2, 2) coefficient stack against one rot, scaling and
    product a term: each term's shift powers and coefficient bytes, and the symbol's
    bytes on a factor grid and at 0-d momenta, on both theta0 branches, theta1 up to
    1e300 and signed zero angles."""
    rng = np.random.default_rng(seed)
    cfg = draw_time_compliant(rng, nu=nu, tau=tau)
    cfg = replace(cfg, **{name: replace(coin, zeta0=z, phi0=p, theta1=t)
                          for name, coin, z, p, t in zip(("coin_x", "coin_y"),
                                                         (cfg.coin_x, cfg.coin_y),
                                                         zeta0, phi0, theta1)})
    terms, symbol = time_hamiltonian(cfg)
    want = time_terms_per_term(cfg)
    assert [(t.px, t.py, t.coeff.shape, t.coeff.tobytes()) for t in terms] \
        == [(t.px, t.py, t.coeff.shape, t.coeff.tobytes()) for t in want]
    ks = np.linspace(-np.pi, np.pi, 7, endpoint=False)
    for kx, ky in ((ks[:, None], -ks[None, :5]), (0.0, -0.0), (float(ks[1]), float(ks[4]))):
        assert symbol(kx, ky).tobytes() == time_symbol_stack(want, kx, ky).tobytes()


def test_hamiltonian_hermitian_on_grid(rng):
    kx, ky = _kgrid(64)
    for _ in range(5):
        cfg = draw_time_compliant(rng)
        _, symbol = time_hamiltonian(cfg)
        assert is_hermitian(symbol(kx, ky), tol=1e-12)


def test_hamiltonian_definitional_limit(rng):
    for nu in (0, 1):
        cfg = draw_time_compliant(rng, nu=nu)
        _, symbol = time_hamiltonian(cfg)
        kx, ky = 0.6, -1.1
        h = symbol(kx, ky)

        def limit_error(eps):
            w = walk_k(cfg, kx, ky, eps)
            quotient = 1j * (np.linalg.matrix_power(w, cfg.tau) - np.eye(2)) / (cfg.tau * eps)
            return float(op_norm(quotient - h))

        e1, e2 = limit_error(1e-4), limit_error(5e-5)
        assert e1 > 1e-10
        assert 1.7 <= e1 / e2 <= 2.3  # O(eps) convergence to the symbol


def test_branch_symmetry_relation(rng):
    """Swapping which axis carries the odd-pi theta flips the S_y power and
    the signs of zeta0y / phi0x inside the rotation arguments: as symbols,
    H_{nu=1}[angles](kx, ky) = H_{nu=0}[zeta0y -> -zeta0y,
    phi0x -> -phi0x](kx, -ky)."""
    cfg0 = draw_time_compliant(rng, nu=0)
    jx, jy = cfg0.coin_x, cfg0.coin_y
    cfg1 = replace(cfg0, coin_x=replace(jx, theta0=jx.theta0 + np.pi),
                   coin_y=replace(jy, theta0=jy.theta0 - np.pi))
    terms0 = {(t.px, t.py) for t in time_hamiltonian(cfg0)[0]}
    terms1 = {(t.px, t.py) for t in time_hamiltonian(cfg1)[0]}
    assert terms0 == {(2, 0), (0, 2), (0, 0), (2, 2)}
    assert terms1 == {(2, 0), (0, -2), (0, 0), (2, -2)}

    cfg0_flip = replace(cfg0, coin_x=replace(jx, phi0=-jx.phi0),
                        coin_y=replace(jy, zeta0=-jy.zeta0))
    _, sym1 = time_hamiltonian(cfg1)
    _, sym0f = time_hamiltonian(cfg0_flip)
    ks = np.linspace(-np.pi, np.pi, 9)
    h1 = sym1(ks[:, None], ks[None, :])
    h0 = sym0f(ks[:, None], -ks[None, :])
    assert float(np.max(op_norm(h1 - h0))) <= 1e-13


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), broken=st.sampled_from(["generic", "delta", "theta"]),
       tau=st.sampled_from([2, 4]))
def test_rejected_walk_diverges_as_one_over_eps(seed, broken, tau):
    """Every walk the time gate rejects -- generic, or a compliant walk with its delta or
    theta0 moved -- has ||(W^tau - I)/(tau eps)|| growing as 1/eps, since W0^tau - I stays:
    over eps = 1e-4 ... 1e-7 the slope of the log of its largest value at three momenta
    against log eps is -1 within 1e-3.  (At one momentum alone, ||W0^tau - I|| can be as
    small as 3e-4 on a moved theta0, and the slope there reads -1.03 by eps = 1e-4.)"""
    rng = np.random.default_rng(seed)
    if broken == "generic":
        cfg = draw_time_generic(rng, tau)
    else:
        cfg = draw_time_compliant(rng, tau=tau)
        angle = "delta" if broken == "delta" else "theta0"
        kick = float(rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]))
        moved = replace(cfg.coin_y, **{angle: getattr(cfg.coin_y, angle) + kick})
        cfg = replace(cfg, coin_y=moved)
    assert not check_time_limit(cfg).passed
    eps = np.array([1e-4, 1e-5, 1e-6, 1e-7])
    kx, ky = np.array([0.7, -1.3, 2.6]), np.array([-0.3, 0.9, -2.2])
    quotients = [np.max(op_norm((np.linalg.matrix_power(walk_k(cfg, kx, ky, e), tau) - ID2)
                                / (tau * e))) for e in eps]
    slope = np.polyfit(np.log(eps), np.log(quotients), 1)[0]
    assert abs(slope + 1.0) <= 1e-3, slope


def test_hamiltonian_rejects_noncompliant(rng):
    with pytest.raises(ValueError):
        time_hamiltonian(draw_time_generic(rng))
    with pytest.raises(ValueError):
        time_hamiltonian(simple_config(np.pi, 0.0, -np.pi / 2, 3))
