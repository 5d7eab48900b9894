"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import dataclasses
import time
from fractions import Fraction
from math import comb

import numpy as np

from plasticwalk import (
    CoinJet, WalkConfig, SpinorField, check_time_limit,
    divergence_residual, enumerate_terms, half_half_pde, spacetime_convergence,
    spacetime_hamiltonian, time_convergence, time_hamiltonian, walk_k,
)
from plasticwalk.lattice import momentum_grid, step
from plasticwalk.mat2 import dag, op_norm, rot
from plasticwalk.plastic import CALIBRATION, _grouped_sums
from plasticwalk.timelimit import anticommutator_AB
from plasticwalk._util import stack_power

from conftest import (
    HALF, draw_plastic_compliant, draw_plastic_generic, draw_time_compliant,
    draw_time_generic, plastic_from_angles,
)
from oracles import (
    apply_shift_word, cross_term_report, derivative_coefficient, dft, first_order_blocks,
    fit_lambda, idft, odd_tau_gap, roots_of_unity_residual, term_order,
)

RNG = np.random.default_rng(777)


def report(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS  {text}")


def _kgrid(n):
    ks = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return ks[:, None], ks[None, :]


# --------------------------------------------------------------------------- 1


def _labeled_case(kind, rng):
    """Build one table case with its exact constraint-gate label."""
    if kind == "compliant":
        tau = int(rng.choice([2, 4, 6]))
        return draw_time_compliant(rng, tau=tau), True
    if kind == "odd_tau":
        tau = int(rng.choice([1, 3, 5]))
        return draw_time_compliant(rng, tau=tau), False
    if kind == "same_branch":
        cfg = draw_time_compliant(rng, nu=0)
        bad_y = dataclasses.replace(cfg.coin_y, theta0=cfg.coin_y.theta0 + np.pi)  # both even now
        return dataclasses.replace(cfg, coin_y=bad_y), False
    if kind == "bad_delta":
        cfg = draw_time_compliant(rng)
        off = float(rng.uniform(0.2, 1.2))
        bad_y = dataclasses.replace(cfg.coin_y, delta=cfg.coin_y.delta + off)
        return dataclasses.replace(cfg, coin_y=bad_y), False
    return draw_time_generic(rng), False


def test_criterion_01_constraint_gate():
    # the four reference configs of the criterion
    def simple(theta0x, theta0y, delta, tau):
        jx = CoinJet(theta0=theta0x, theta1=0.5)
        jy = CoinJet(delta=delta, theta0=theta0y, theta1=0.5)
        return WalkConfig(coin_x=jx, coin_y=jy, tau=tau)

    assert check_time_limit(simple(np.pi, 0.0, -np.pi / 2, 2)).passed
    assert check_time_limit(simple(0.0, 3 * np.pi, -3 * np.pi / 2, 4)).passed
    assert not check_time_limit(simple(np.pi, 0.0, -np.pi / 2, 1)).passed
    assert not check_time_limit(simple(np.pi, 0.0, -np.pi / 2, 3)).passed
    assert not check_time_limit(simple(0.0, 0.0, -np.pi / 2, 2)).passed

    kinds = (["compliant"] * 20 + ["odd_tau"] * 8 + ["same_branch"] * 8
             + ["bad_delta"] * 7 + ["generic"] * 7)
    assert len(kinds) == 50
    hits = 0
    for kind in kinds:
        cfg, label = _labeled_case(kind, RNG)
        hits += check_time_limit(cfg).passed == label
    assert hits == 50
    report(1, "time-limit gate matches all 50 exact labels (plus reference cases)")


# --------------------------------------------------------------------------- 2


def test_criterion_02_root_of_unity():
    kx, ky = _kgrid(64)
    for i in range(20):
        cfg = draw_time_compliant(RNG, tau=(2 if i % 2 else 4))
        assert roots_of_unity_residual(cfg, kx, ky) <= 1e-12
    for _ in range(20):
        cfg = draw_time_generic(RNG)
        assert roots_of_unity_residual(cfg, kx, ky) >= 0.1
    report(2, "eigenvalue residual <= 1e-12 on 64x64 grids (20 compliant), >= 0.1 (20 generic)")


# --------------------------------------------------------------------------- 3


def test_criterion_03_first_order_expansion():
    for _ in range(20):
        cfg = draw_time_generic(RNG)
        # make sure the second-order remainder is not degenerate
        jx = dataclasses.replace(cfg.coin_x, theta1=float(RNG.uniform(0.4, 1.0)))
        jy = dataclasses.replace(cfg.coin_y, theta1=float(-RNG.uniform(0.4, 1.0)))
        cfg = dataclasses.replace(cfg, coin_x=jx, coin_y=jy, tau=2)
        kx, ky = RNG.uniform(-np.pi, np.pi, size=2)
        ax, bx = first_order_blocks(cfg.coin_x, kx)
        ay, by = first_order_blocks(cfg.coin_y, ky)
        a = ax @ ay
        b = ax @ by + bx @ ay
        phase = np.exp(1j * cfg.delta_sum)

        def remainder(eps):
            return float(op_norm(walk_k(cfg, kx, ky, eps) - phase * (a - 0.5j * eps * b)))

        r1, r2, r3 = remainder(1e-3), remainder(5e-4), remainder(2.5e-4)
        assert 3.5 <= r1 / r2 <= 4.5
        assert 3.5 <= r2 / r3 <= 4.5
    report(3, "first-order remainder shows Richardson ratio 4 (20 configs, eps 1e-3..2.5e-4)")


# --------------------------------------------------------------------------- 4


def test_criterion_04_anticommutator_oracle():
    for i in range(100):
        nu = i % 2
        cfg = draw_time_compliant(RNG, nu=nu)
        kx = RNG.uniform(-np.pi, np.pi, size=16)
        ky = RNG.uniform(-np.pi, np.pi, size=16)
        ax, bx = first_order_blocks(cfg.coin_x, kx)
        ay, by = first_order_blocks(cfg.coin_y, ky)
        brute = (ax @ ay) @ (ax @ by + bx @ ay) + (ax @ by + bx @ ay) @ (ax @ ay)
        closed = anticommutator_AB(cfg, kx, ky)
        assert float(np.max(op_norm(brute - closed))) <= 1e-12
    report(4, "closed-form {A,B} equals brute force on 100 draws x 16 momenta, both branches")


# --------------------------------------------------------------------------- 5


def test_criterion_05_hamiltonian_properties():
    kx, ky = _kgrid(64)
    for _ in range(20):
        cfg = draw_time_compliant(RNG)
        _, symbol = time_hamiltonian(cfg)
        h = symbol(kx, ky)
        assert float(np.max(op_norm(h - dag(h)))) <= 1e-12

    for _ in range(5):
        cfg = draw_time_compliant(RNG)
        terms, symbol = time_hamiltonian(cfg)
        f = SpinorField.random(32, 32, RNG)
        stencil = np.zeros_like(f.data)
        for t in terms:
            # term is shift-word times matrix: the matrix acts first
            rotated = SpinorField(np.einsum("ab,bxy->axy", t.coeff, f.data))
            stencil += apply_shift_word(rotated, t.px, t.py).data
        gx, gy = momentum_grid(32, 32)
        fhat = dft(f)
        sym_applied = idft(np.einsum("xyab,bxy->axy", symbol(gx, gy), fhat))
        assert float(np.max(np.abs(stencil - sym_applied.data))) <= 1e-10
    report(5, "H(k) Hermitian <= 1e-12 on 64x64; stencil equals symbol <= 1e-10 on 32x32 fields")


# --------------------------------------------------------------------------- 6


def test_criterion_06_time_convergence():
    kx, ky = _kgrid(9)
    eps_list = [2.0 ** -k for k in range(6, 13)]
    for _ in range(5):
        cfg = draw_time_compliant(RNG, tau=2, strong_theta1=True)
        t0 = time.monotonic()
        res = time_convergence(cfg, 1.0, kx, ky, eps_list)
        elapsed = time.monotonic() - t0
        assert abs(res.slope - 1.0) <= 0.15
        assert elapsed <= 10.0
    report(6, "time-limit convergence slope 1.0 +- 0.15 for 5 configs, each under 10 s")


# --------------------------------------------------------------------------- 7


def test_criterion_07_odd_tau_obstruction():
    kx, ky = _kgrid(64)
    for _ in range(5):
        cfg = draw_time_compliant(RNG, tau=2)
        for tau in (1, 3, 5):
            assert odd_tau_gap(cfg, tau, kx, ky) >= 1.5
    report(7, "odd-power gap ||(e^{i delta} A)^tau - I|| >= 1.5 for tau in {1,3,5}")


# --------------------------------------------------------------------------- 8


def test_criterion_08_term_enumeration():
    terms = enumerate_terms(HALF, HALF)
    assert len(terms) == 36
    ll = sum(1 for t in terms if t.sum_l == 2 and t.sum_n == 0 and max(t) == 1)
    ln = sum(1 for t in terms if t.sum_l == 1 and t.sum_n == 1)
    nn = sum(1 for t in terms if t.sum_l == 0 and t.sum_n == 2 and max(t) == 1)
    doubles = sum(1 for t in terms if max(t) == 2)
    assert (ll, ln, nn, doubles) == (6, 16, 6, 8)
    assert len(enumerate_terms(Fraction(1), Fraction(1))) == 8

    for _ in range(50):
        den_a = int(RNG.integers(1, 9))
        den_b = int(RNG.integers(1, 9))
        a = Fraction(int(RNG.integers(1, den_a + 1)), den_a)
        b = Fraction(int(RNG.integers(1, den_b + 1)), den_b)
        expected = 0
        for sl in range(int(1 / a) + 1):
            for sn in range(int(1 / b) + 1):
                if a * sl + b * sn == 1:
                    expected += comb(sl + 3, 3) * comb(sn + 3, 3)
        got = enumerate_terms(a, b)
        assert len(got) == len(set(got)) == expected
        assert all(term_order(t, a, b) == 1 for t in got)
    report(8, "term counts: 36 = 6+16+6+8 at a=b=1/2, 8 at a=b=1, oracle match on 50 rationals")


# --------------------------------------------------------------------------- 9


def test_criterion_09_divergence_constraints():
    for _ in range(20):
        cfg = draw_plastic_compliant(RNG)
        residual, _ = divergence_residual(cfg, HALF, HALF)
        assert residual <= 1e-12
    for _ in range(20):
        cfg = draw_plastic_generic(RNG)
        residual, _ = divergence_residual(cfg, HALF, HALF)
        assert residual >= 0.1

    # the grouped report reproduces the four cancellation conditions exactly
    for _ in range(10):
        thx0, thy0 = RNG.uniform(-2 * np.pi, 2 * np.pi, size=2)
        zx, phx, zy, phy = RNG.uniform(-np.pi, np.pi, size=4)
        jx = CoinJet(zeta0=zx, theta0=thx0, theta1=0.8, phi0=phx)
        jy = CoinJet(delta=-np.pi / 2, zeta0=zy, theta0=thy0, theta1=-0.5, phi0=phy)
        cfg = WalkConfig(coin_x=jx, coin_y=jy, tau=2, a_exp=HALF, b_exp=HALF, mode="plastic")
        a1, a2 = phx + zy, phy + zx
        _, groups = divergence_residual(cfg, HALF, HALF)
        by_key = {(g.kx_power, g.ky_power, g.thx_power, g.thy_power): g for g in groups}
        conds = {
            (1, 0, 0, 0): (1.0, rot("y", thx0) @ rot("z", a1) @ rot("y", thy0)
                           + rot("y", -thx0) @ rot("z", a1) @ rot("y", -thy0)),
            (0, 1, 0, 0): (1.0, rot("y", thy0) @ rot("z", a2) @ rot("y", thx0)
                           + rot("y", -thy0) @ rot("z", a2) @ rot("y", -thx0)),
            (0, 0, 1, 0): (2.0, rot("z", a1) @ rot("y", thy0) @ rot("z", a2)
                           + rot("z", -a1) @ rot("y", thy0) @ rot("z", -a2)),
            (0, 0, 0, 1): (2.0, rot("z", a2) @ rot("y", thx0) @ rot("z", a1)
                           + rot("z", -a2) @ rot("y", thx0) @ rot("z", -a1)),
        }
        for key, (scale, expr) in conds.items():
            assert abs(scale * by_key[key].norm - float(op_norm(expr))) <= 1e-12
    report(9, "divergence residual <= 1e-12 (20 compliant), >= 0.1 (20 generic); "
              "grouped report reproduces the four conditions")


# -------------------------------------------------------------------------- 10


def test_criterion_10_closed_form_pde():
    worst = 0.0
    for _ in range(20):
        cfg = draw_plastic_compliant(RNG)
        asm = spacetime_hamiltonian(cfg)
        px, py = half_half_pde(cfg)
        assert float(op_norm(derivative_coefficient(asm, 1, 0) - px)) <= 1e-12
        assert float(op_norm(derivative_coefficient(asm, 0, 1) - py)) <= 1e-12
        bare = dataclasses.replace(asm, calibration=1.0).generator
        worst = max(worst, abs(fit_lambda(cfg, bare) - CALIBRATION))
    assert worst <= 1e-10
    report(10, f"enumerator equals closed-form (Px, Py) <= 1e-12 on 20 configs; "
               f"Richardson fit of the prefactor within {worst:.2e} <= 1e-10 of -1/2")


# -------------------------------------------------------------------------- 11


def test_criterion_11_cross_term_cancellation():
    for _ in range(10):
        m = int(RNG.integers(-2, 3))
        n = m + 1 + 2 * int(RNG.integers(-1, 2))
        if RNG.integers(0, 2):
            m, n = n, m
        zx, phx, zy, phy = RNG.uniform(-np.pi, np.pi, size=4)
        jx = CoinJet(zeta0=zx, theta0=np.pi * m, theta1=0.7, phi0=phx)
        jy = CoinJet(delta=-np.pi / 2, zeta0=zy, theta0=np.pi * n, theta1=0.4, phi0=phy)
        cfg = WalkConfig(coin_x=jx, coin_y=jy, tau=2, a_exp=HALF, b_exp=HALF, mode="plastic")
        rep = cross_term_report(cfg)
        assert rep["cancels"] and rep["residual"] <= 1e-12

    for _ in range(10):
        u, v = int(RNG.integers(-1, 2)), int(RNG.integers(-1, 2))
        a1, a2 = np.pi * (1 + u + v), np.pi * (v - u)
        while True:
            thx0, thy0 = RNG.uniform(-2 * np.pi, 2 * np.pi, size=2)
            if min(abs(thx0 % np.pi), abs(np.pi - thx0 % np.pi),
                   abs(thy0 % np.pi), abs(np.pi - thy0 % np.pi)) > 0.3:
                break
        phx = float(RNG.uniform(-np.pi, np.pi))
        phy = float(RNG.uniform(-np.pi, np.pi))
        jx = CoinJet(zeta0=a2 - phy, theta0=thx0, theta1=0.7, phi0=phx)
        jy = CoinJet(delta=-np.pi / 2, zeta0=a1 - phx, theta0=thy0, theta1=0.4, phi0=phy)
        cfg = WalkConfig(coin_x=jx, coin_y=jy, tau=2, a_exp=HALF, b_exp=HALF, mode="plastic")
        rep = cross_term_report(cfg)
        assert rep["residual"] > 1e-3
    report(11, "mixed-derivative words cancel <= 1e-12 on the integer-pi branch, "
               "survive on the alternative a1+-a2 family")


# -------------------------------------------------------------------------- 12


def test_criterion_12_dynamics_sanity():
    cfg = draw_time_compliant(RNG)
    f = SpinorField.random(64, 64, RNG)
    n0 = f.norm()
    for _ in range(1000):
        f = step(f, cfg, 0.01)
    assert abs(f.norm() - n0) <= 1e-12

    cfg = draw_time_generic(RNG)
    f0 = SpinorField.random(32, 32, RNG)
    real = f0
    for _ in range(100):
        real = step(real, cfg, 0.02)
    gx, gy = momentum_grid(32, 32)
    w = walk_k(cfg, gx, gy, 0.02)
    w100 = stack_power(w, 100)
    fourier = idft(np.einsum("xyab,bxy->axy", w100, dft(f0)))
    assert float(np.max(np.abs(real.data - fourier.data))) <= 1e-10
    report(12, "norm drift <= 1e-12 over 1000 steps (64x64); real vs Fourier stepping "
               "<= 1e-10 over 100 steps (32x32)")


# -------------------------------------------------------------------------- 13


def test_criterion_13_spacetime_convergence():
    eps_list = [2.0 ** -k for k in range(6, 13)]
    momenta = [(0.7, -0.3), (0.23, 0.9), (-0.51, 0.42)]
    cfg = draw_plastic_compliant(RNG)
    res = spacetime_convergence(cfg, 1.0, *np.array(momenta).T, eps_list)
    errs = [e for _, e in res.samples]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert res.slope > 0.3

    # negative control: quarter-turn family violates the divergence gate
    bad = plastic_from_angles(np.pi / 2, 0.0, RNG)
    residual, _ = divergence_residual(bad, HALF, HALF)
    assert residual > 0.1
    groups = {(g.kx_power, g.ky_power, g.thx_power, g.thy_power): g.matrix
              for g in _grouped_sums(bad, HALF, HALF, order_one=True)
              if g.exponent == 1}
    thx, thy = bad.coin_x.theta1, bad.coin_y.theta1

    def bad_generator(kx, ky):
        # group matrices carry the i^(sum l) factors already: plain k powers
        out = np.zeros((2, 2), dtype=complex)
        for (dx, dy, tx, ty), mat in groups.items():
            out = out + (-0.5) * kx ** dx * ky ** dy * thx ** tx * thy ** ty * mat
        return out

    bad_errs = []
    for eps in eps_list:
        n = max(1, round(1.0 / (2 * eps)))
        worst = 0.0
        for kx, ky in momenta:
            w = walk_k(bad, kx, ky, eps)
            wn = np.linalg.matrix_power(w, 2 * n)
            g = bad_generator(kx, ky)
            lam, vec = np.linalg.eig(g * 2 * n * eps)
            target = vec @ np.diag(np.exp(lam)) @ np.linalg.inv(vec)
            worst = max(worst, float(op_norm(wn - target)))
        bad_errs.append(worst)
    converged = all(a > b for a, b in zip(bad_errs, bad_errs[1:])) and bad_errs[-1] < 0.1 * bad_errs[0]
    assert not converged
    report(13, f"a=b=1/2 errors strictly decreasing, slope {res.slope:.2f} > 0.3; "
               "divergence-violating control does not converge")
