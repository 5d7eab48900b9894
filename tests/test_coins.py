from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from plasticwalk import CoinJet, WalkConfig, coin_at, walk_k
from plasticwalk.mat2 import ID2, op_norm, rot

from conftest import HALF, draw_time_compliant, draw_time_generic
from oracles import first_order_blocks, is_unitary, shift_symbol, walk_power_expansion


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=7, max_size=7),
       st.floats(0, 0.5))
def test_coin_is_always_unitary(vals, eps):
    jet = CoinJet(delta=vals[0], zeta0=vals[1], zeta1=vals[2], theta0=vals[3],
                  theta1=vals[4], phi0=vals[5], phi1=vals[6])
    assert is_unitary(coin_at(jet, eps), tol=1e-12)


def test_coinjet_validation():
    """A coin jet is its seven angles, each finite; the jet rules are the walk's."""
    for name in ("delta", "zeta0", "zeta1", "theta0", "theta1", "phi0", "phi1"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"CoinJet.{name} must be finite"):
                CoinJet(**{name: bad})


PLASTIC_WALK = WalkConfig(coin_x=CoinJet(theta1=0.6), coin_y=CoinJet(theta0=np.pi, theta1=-0.8),
                          tau=2, a_exp=HALF, b_exp=HALF, mode="plastic")


# one case per WalkConfig rule, each a dataclasses.replace of a valid plastic walk,
# so replace re-runs every check
@pytest.mark.parametrize("changes,message", [
    ({"mode": "spacetime"}, "mode must be one of ('time', 'plastic'), got 'spacetime'"),
    ({"tau": 0}, "tau must be >= 1, got 0"),
    ({"a_exp": Fraction(-1, 2)}, "a_exp must lie in [0, 1], got -1/2"),
    ({"a_exp": Fraction(3, 2)}, "a_exp must lie in [0, 1], got 3/2"),
    ({"b_exp": 0}, "b_exp must lie in (0, 1], got 0"),
    ({"b_exp": Fraction(3, 2)}, "b_exp must lie in (0, 1], got 3/2"),
    ({"coin_x": CoinJet(delta=1e308), "coin_y": CoinJet(delta=1e308)},
     "delta_x + delta_y must be finite"),
    ({"mode": "time"}, "time mode fixes a_exp = 0"),
    ({"mode": "time", "a_exp": 0}, "time mode fixes b_exp = 1"),
    ({"coin_x": CoinJet(zeta1=0.5)}, "plastic mode expands theta only (zeta1 = phi1 = 0)"),
    ({"coin_x": CoinJet(phi1=-0.5)}, "plastic mode expands theta only (zeta1 = phi1 = 0)"),
    ({"coin_y": CoinJet(zeta1=0.5)}, "plastic mode expands theta only (zeta1 = phi1 = 0)"),
    ({"coin_y": CoinJet(phi1=1e-300)}, "plastic mode expands theta only (zeta1 = phi1 = 0)"),
], ids=["mode-unknown", "tau-zero", "a-negative", "a-above-one", "b-zero", "b-above-one",
        "delta-sum-overflow", "time-a", "time-b", "plastic-zeta1-x", "plastic-phi1-x",
        "plastic-zeta1-y", "plastic-phi1-y"])
def test_walk_rules(changes, message):
    with pytest.raises(ValueError) as info:
        replace(PLASTIC_WALK, **changes)
    assert str(info.value) == message


def test_walk_holds_mode_and_exponents():
    """mode, a and b are walk fields, the exponents stored as fractions; the default is time."""
    walk = replace(PLASTIC_WALK, a_exp=0.25, b_exp=1)
    assert (walk.mode, walk.a_exp, walk.b_exp) == ("plastic", Fraction(1, 4), Fraction(1))
    assert all(isinstance(e, Fraction) for e in (walk.a_exp, walk.b_exp))
    default = WalkConfig(CoinJet(), CoinJet())
    assert (default.mode, default.tau, default.a_exp, default.b_exp) == ("time", 2, 0, 1)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_time_mode_drives_at_eps_itself(eps):
    """s = eps**1.0 is eps bit for bit, so a time coin's angles are w0 + w1 * eps."""
    s = WalkConfig(CoinJet(), CoinJet()).drive(eps)
    assert np.float64(s).tobytes() == np.float64(eps).tobytes()
    assert PLASTIC_WALK.drive(abs(eps)) == abs(eps) ** 0.5


def test_coin_at_zero_parameters_is_identity():
    jet = CoinJet()
    assert np.allclose(coin_at(jet, 0.37), ID2, atol=1e-15)


def test_coin_at_theta_pi():
    jet = CoinJet(theta0=np.pi)
    assert np.allclose(coin_at(jet, 0.0), np.array([[0, -1], [1, 0]]), atol=1e-15)


def test_coin_at_matches_direct_recomposition():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vals = rng.uniform(-np.pi, np.pi, size=7)
        jet = CoinJet(delta=vals[0], zeta0=vals[1], zeta1=vals[2], theta0=vals[3],
                      theta1=vals[4], phi0=vals[5], phi1=vals[6])
        eps = 1e-3
        direct = np.exp(1j * vals[0]) * (
            rot("z", vals[1] + vals[2] * eps)
            @ rot("y", vals[3] + vals[4] * eps)
            @ rot("z", vals[5] + vals[6] * eps))
        assert float(op_norm(coin_at(jet, eps) - direct)) <= 1e-14


def test_coin_at_plastic_mode_freezes_z_angles():
    jet = CoinJet(zeta0=0.4, theta0=0.2, theta1=0.9, phi0=-0.7)
    walk = replace(PLASTIC_WALK, coin_x=jet)
    eps = 1e-2
    expected = rot("z", 0.4) @ rot("y", 0.2 + 0.9 * np.sqrt(eps)) @ rot("z", -0.7)
    assert float(op_norm(coin_at(walk.coin_x, walk.drive(eps)) - expected)) <= 1e-14


def test_shift_symbol_values():
    assert np.allclose(shift_symbol(0.0), ID2, atol=1e-16)
    assert np.allclose(shift_symbol(np.pi / 2, 1.0), np.diag([1j, -1j]), atol=1e-15)
    ks = np.linspace(-3, 3, 11)
    assert np.array_equal(shift_symbol(ks, 0.7), rot("z", -2 * ks * 0.7))


def test_walk_identity_coins():
    cfg = WalkConfig(coin_x=CoinJet(), coin_y=CoinJet())
    assert np.allclose(walk_k(cfg, 0.0, 0.0, 0.1), ID2, atol=1e-15)
    kx, ky = 0.3, -1.1
    expected = np.diag([np.exp(1j * (kx + ky)), np.exp(-1j * (kx + ky))])
    assert np.allclose(walk_k(cfg, kx, ky, 0.1), expected, atol=1e-14)


def test_walk_unitary_and_periodic(rng):
    for _ in range(20):
        cfg = draw_time_generic(rng)
        kx = rng.uniform(-np.pi, np.pi, size=13)
        ky = rng.uniform(-np.pi, np.pi, size=13)
        w = walk_k(cfg, kx, ky, 0.05)
        assert is_unitary(w, tol=1e-12)
        shifted = walk_k(cfg, kx + 2 * np.pi, ky, 0.05)
        assert float(np.max(op_norm(shifted - w))) <= 1e-13


def test_first_order_blocks_zero_rates():
    jet = CoinJet(zeta0=0.3, theta0=1.1, phi0=-0.2)
    _, b = first_order_blocks(jet, 0.4)
    assert np.allclose(b, 0.0, atol=1e-16)


def test_first_order_blocks_at_k_zero():
    jet = CoinJet(zeta0=0.3, zeta1=0.5, theta0=1.1, theta1=-0.4, phi0=-0.2,
                  phi1=0.8)
    a, _ = first_order_blocks(jet, 0.0)
    base = CoinJet(zeta0=0.3, theta0=1.1, phi0=-0.2)
    assert np.allclose(a, coin_at(base, 0.0), atol=1e-15)


def test_first_order_blocks_richardson():
    rng = np.random.default_rng(1)
    for _ in range(10):
        vals = rng.uniform(-np.pi, np.pi, size=7)
        jet = CoinJet(delta=vals[0], zeta0=vals[1], zeta1=vals[2], theta0=vals[3],
                      theta1=vals[4], phi0=vals[5], phi1=vals[6])
        k = rng.uniform(-np.pi, np.pi)
        a, b = first_order_blocks(jet, k)

        def remainder(eps):
            exact = shift_symbol(k) @ coin_at(jet, eps)
            approx = np.exp(1j * vals[0]) * (a - 0.5j * eps * b)
            return float(op_norm(exact - approx))

        r1, r2 = remainder(1e-3), remainder(5e-4)
        assert r1 > 1e-9  # not below the floating floor
        assert 3.5 <= r1 / r2 <= 4.5


def test_walk_power_expansion_tau1():
    rng = np.random.default_rng(2)
    cfg = draw_time_generic(rng, tau=1)
    kx, ky = 0.4, -0.9
    zeroth, first = walk_power_expansion(cfg, kx, ky)
    ax, bx = first_order_blocks(cfg.coin_x, kx)
    ay, by = first_order_blocks(cfg.coin_y, ky)
    phase = np.exp(1j * cfg.delta_sum)
    assert float(op_norm(zeroth - phase * ax @ ay)) <= 1e-13
    assert float(op_norm(first + 0.5j * phase * (ax @ by + bx @ ay))) <= 1e-13


def test_walk_power_expansion_zero_rates_gives_zero_first():
    jx = CoinJet(zeta0=0.2, theta0=0.7, phi0=0.1)
    jy = CoinJet(zeta0=-0.4, theta0=-0.3, phi0=0.6)
    cfg = WalkConfig(coin_x=jx, coin_y=jy, tau=2)
    _, first = walk_power_expansion(cfg, 0.3, 0.8)
    assert np.allclose(first, 0.0, atol=1e-15)


def test_walk_power_expansion_vs_direct_product(rng):
    for _ in range(10):
        cfg = draw_time_generic(rng, tau=2)
        kx, ky = rng.uniform(-np.pi, np.pi, size=2)
        zeroth, first = walk_power_expansion(cfg, kx, ky)

        def remainder(eps):
            w = walk_k(cfg, kx, ky, eps)
            exact = np.linalg.matrix_power(w, cfg.tau)
            return float(op_norm(exact - (zeroth + eps * first)))

        r1, r2 = remainder(1e-4), remainder(5e-5)
        assert r1 > 1e-12
        assert 3.5 <= r1 / r2 <= 4.5


def test_quadratic_jet_terms_do_not_move_first_order(rng):
    """A c*eps^2 perturbation of any angle leaves the extracted first-order
    coefficient unchanged to O(eps)."""
    cfg = draw_time_compliant(rng)
    jx, jy = cfg.coin_x, cfg.coin_y
    kx, ky = 0.7, -0.2
    c_quad = 0.8

    def walk_tau(eps, quad):
        zx = jx.zeta0 + jx.zeta1 * eps + (quad * eps ** 2)
        cx = np.exp(1j * jx.delta) * (
            rot("z", zx) @ rot("y", jx.theta0 + jx.theta1 * eps) @ rot("z", jx.phi0 + jx.phi1 * eps))
        cy = np.exp(1j * jy.delta) * (
            rot("z", jy.zeta0 + jy.zeta1 * eps) @ rot("y", jy.theta0 + jy.theta1 * eps)
            @ rot("z", jy.phi0 + jy.phi1 * eps))
        w = shift_symbol(kx) @ cx @ shift_symbol(ky) @ cy
        return np.linalg.matrix_power(w, cfg.tau)

    for eps in (1e-3, 5e-4):
        base = (walk_tau(eps, 0.0) - walk_tau(0.0, 0.0)) / eps
        pert = (walk_tau(eps, c_quad) - walk_tau(0.0, c_quad)) / eps
        assert float(op_norm(base - pert)) <= 4.0 * c_quad * eps


def test_drive_refuses_a_negative_eps_at_a_fractional_b():
    """eps**b has no real value for eps < 0 and b = 1/2: a named ValueError, not a complex
    step that fails later in the coin's rotations."""
    walk = replace(PLASTIC_WALK, a_exp=0)
    for call in (lambda: walk.drive(-0.01), lambda: walk_k(walk, 0.3, -0.2, -0.01)):
        with pytest.raises(ValueError, match=r"eps must be >= 0 .* fractional b, "
                                             r"got eps = -0.01, b = 1/2"):
            call()
    assert walk.drive(0.0) == 0.0
    assert replace(walk, b_exp=1).drive(-0.01) == -0.01
