import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasticwalk import CoinJet, WalkConfig, check_time_limit, time_hamiltonian, walk_k
from plasticwalk.mat2 import SY, op_norm, rot
from plasticwalk.timelimit import anticommutator_AB
from plasticwalk._util import stack_power

from conftest import draw_time_compliant, draw_time_generic
from oracles import (
    constraint_f, first_order_blocks, is_hermitian, odd_tau_gap, roots_of_unity_residual,
    walk_block, witnesses,
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
    assert doc["schema_version"] == 1
    assert set(doc) == {"schema_version", "passed", "conditions"}
    for cond in doc["conditions"]:
        assert set(cond) == {"name", "satisfied", "residual", "witness"}


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


def test_hamiltonian_rejects_noncompliant(rng):
    with pytest.raises(ValueError):
        time_hamiltonian(draw_time_generic(rng))
    with pytest.raises(ValueError):
        time_hamiltonian(simple_config(np.pi, 0.0, -np.pi / 2, 3))
