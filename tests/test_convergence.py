import numpy as np
import pytest

from plasticwalk import (
    CoinJet, WalkConfig, dispersion, fit_order, spacetime_convergence,
    time_convergence, time_hamiltonian, walk_k,
)
from plasticwalk.mat2 import det2, exp_herm, op_norm
from plasticwalk._util import stack_power

from conftest import HALF, draw_plastic_compliant, draw_time_compliant


def _kgrid(n):
    ks = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return ks[:, None], ks[None, :]


def test_fit_order_exact_synthetic():
    eps = [2.0 ** -k for k in range(3, 10)]
    slope, intercept, r2 = fit_order([(e, e) for e in eps])
    assert abs(slope - 1.0) <= 1e-10
    assert r2 > 1.0 - 1e-12

    slope, intercept, _ = fit_order([(e, 3.0 * e * e) for e in eps])
    assert abs(slope - 2.0) <= 1e-10
    assert abs(intercept - np.log(3.0)) <= 1e-9


def test_fit_order_noisy_three_halves():
    rng = np.random.default_rng(0)
    slopes = []
    for _ in range(20):
        eps = np.array([2.0 ** -k for k in range(3, 12)])
        err = eps ** 1.5 * (1.0 + 0.01 * rng.normal(size=eps.size))
        slope, _, _ = fit_order(list(zip(eps, err)))
        slopes.append(slope)
    assert abs(np.mean(slopes) - 1.5) <= 0.05
    assert max(abs(s - 1.5) for s in slopes) <= 0.05


def test_fit_order_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_order([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError):
        fit_order([(0.1, 1.0), (0.05, 0.0), (0.025, 0.1)])


def test_fit_order_needs_three_distinct_eps():
    with pytest.raises(ValueError, match="distinct"):
        fit_order([(0.01, 0.3), (0.01, 0.3), (0.01, 0.3)])
    with pytest.raises(ValueError, match="distinct"):
        fit_order([(0.01, 0.3), (0.01, 0.2), (0.005, 0.1)])
    slope, _, _ = fit_order([(0.01, 0.01), (0.01, 0.01), (0.005, 0.005), (0.0025, 0.0025)])
    assert abs(slope - 1.0) <= 1e-10


def test_time_convergence_slope_one(rng):
    kx, ky = _kgrid(9)
    eps_list = [2.0 ** -k for k in range(6, 13)]
    cfg = draw_time_compliant(rng, tau=2, strong_theta1=True)
    res = time_convergence(cfg, 1.0, kx, ky, eps_list)
    assert abs(res.slope - 1.0) <= 0.15
    errs = [e for _, e in res.samples]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_time_convergence_zero_rates_degenerate(rng):
    """theta1 = 0 keeps the walk block exactly on the constraint branch at
    every eps, so W^2 = I exactly and the distance to the (H = 0) target
    sits at the accumulation floor of roundoff, not at O(eps)."""
    cfg = draw_time_compliant(rng)
    cfg = WalkConfig(
        coin_x=CoinJet(**{**cfg.coin_x.__dict__, "theta1": 0.0}),
        coin_y=CoinJet(**{**cfg.coin_y.__dict__, "theta1": 0.0}),
        tau=2)
    kx, ky = _kgrid(5)
    res = time_convergence(cfg, 1.0, kx, ky, [2.0 ** -k for k in range(6, 12)])
    assert max(err for _, err in res.samples) <= 1e-11


def test_time_convergence_tau_independent_target(rng):
    cfg2 = draw_time_compliant(rng, tau=2, strong_theta1=True)
    cfg4 = WalkConfig(coin_x=cfg2.coin_x, coin_y=cfg2.coin_y, tau=4)
    _, sym2 = time_hamiltonian(cfg2)
    _, sym4 = time_hamiltonian(cfg4)
    kx, ky = _kgrid(7)
    assert float(np.max(op_norm(sym2(kx, ky) - sym4(kx, ky)))) <= 1e-14
    eps_list = [2.0 ** -k for k in range(6, 11)]
    res4 = time_convergence(cfg4, 1.0, kx, ky, eps_list)
    assert abs(res4.slope - 1.0) <= 0.15


def test_time_convergence_grid_independence(rng):
    cfg = draw_time_compliant(rng, strong_theta1=True)
    eps_list = [2.0 ** -k for k in range(6, 10)]
    res_a = time_convergence(cfg, 1.0, *_kgrid(16), eps_list)
    res_b = time_convergence(cfg, 1.0, *_kgrid(32), eps_list)
    for (_, ea), (_, eb) in zip(res_a.samples, res_b.samples):
        assert abs(ea - eb) <= 0.1 * max(ea, eb)


def test_time_convergence_rejects_noncompliant(rng):
    cfg = draw_time_compliant(rng, tau=3)
    with pytest.raises(ValueError):
        time_convergence(cfg, 1.0, *_kgrid(5), [0.01, 0.005, 0.0025])


def test_odd_tau_negative_control(rng):
    """With tau odd the walk power cannot approach the Hamiltonian
    evolution: at step counts with odd n the distance stays O(1)."""
    cfg2 = draw_time_compliant(rng, tau=2, strong_theta1=True)
    _, symbol = time_hamiltonian(cfg2)
    cfg3 = WalkConfig(coin_x=cfg2.coin_x, coin_y=cfg2.coin_y, tau=3)
    kx, ky = _kgrid(8)
    h = symbol(kx, ky)
    for n_blocks in (21, 43, 85):  # odd block counts
        eps = 1.0 / (3 * n_blocks)
        w = walk_k(cfg3, kx, ky, eps)
        walk_pow = stack_power(w, 3 * n_blocks)
        target = exp_herm(h, 3 * n_blocks * eps)
        err = float(np.max(op_norm(walk_pow - target)))
        assert err >= 1.0


def test_spacetime_convergence_decreasing_with_positive_slope(rng):
    cfg = draw_plastic_compliant(rng)
    eps_list = [2.0 ** -k for k in range(6, 13)]
    res = spacetime_convergence(cfg, HALF, HALF, 1.0,
                                [(0.7, -0.3), (0.23, 0.9)], eps_list)
    errs = [e for _, e in res.samples]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert res.slope > 0.3


def test_spacetime_convergence_rejects_divergent(rng):
    from conftest import draw_plastic_generic
    with pytest.raises(ValueError):
        spacetime_convergence(draw_plastic_generic(rng), HALF, HALF, 1.0,
                              [(0.3, 0.1)], [0.01, 0.005, 0.0025])


def test_spacetime_zero_momentum_is_exact(rng):
    """At kappa = 0 the calibrated generator vanishes and, on the constraint
    shell, the squared walk equals the identity at every eps (the
    root-of-unity condition holds for arbitrary theta), so walk and target
    agree at the roundoff floor."""
    from plasticwalk import spacetime_hamiltonian, walk_k
    cfg = draw_plastic_compliant(rng)
    asm = spacetime_hamiltonian(cfg, HALF, HALF)
    assert float(op_norm(asm.generator(0.0, 0.0))) <= 1e-14

    def dev(eps):
        n = max(1, round(1.0 / (2 * eps)))
        w = walk_k(cfg, 0.0, 0.0, eps)
        return float(op_norm(np.linalg.matrix_power(w, 2 * n) - np.eye(2)))

    assert max(dev(2.0 ** -k) for k in range(6, 13)) <= 1e-11


def test_wavepacket_walk_matches_pde_evolution(rng):
    """End to end in real space: stepping a band-limited packet with the
    actual lattice walk at small eps approaches the spectral evolution
    under the calibrated generator, at the O(sqrt(eps)) rate."""
    from plasticwalk import SpinorField, spacetime_hamiltonian
    from plasticwalk.lattice import step
    from oracles import evolve_by_symbol

    cfg = draw_plastic_compliant(rng)
    asm = spacetime_hamiltonian(cfg, HALF, HALF)

    def run(eps, n_side, t_final):
        spacing = eps ** 0.5
        n_steps = round(t_final / (2 * eps)) * 2
        sigma_phys = 0.35
        c = n_side // 2
        ll = np.arange(n_side)[:, None]
        mm = np.arange(n_side)[None, :]
        envelope = np.exp(-(((ll - c) * spacing) ** 2 + ((mm - c) * spacing) ** 2)
                          / (2 * sigma_phys ** 2))
        wave = envelope * np.exp(1j * spacing * (0.9 * ll - 0.4 * mm))
        data = np.stack([wave, 0.6 * wave])
        state = SpinorField(data / np.linalg.norm(data))

        walked = state
        for _ in range(n_steps):
            walked = step(walked, cfg, eps)
        # lattice momenta rescale to physical ones by the spacing
        target = evolve_by_symbol(
            state, lambda kx, ky: asm.generator(kx / spacing, ky / spacing),
            n_steps * eps, generator=True)
        return float(np.linalg.norm(walked.data - target.data))

    e1 = run(2.0 ** -10, 64, 0.125)
    e2 = run(2.0 ** -12, 128, 0.125)
    assert e1 <= 0.05
    assert 1.6 <= e1 / e2 <= 2.4  # sqrt of the eps ratio


def test_dispersion_identity_coins_exact():
    cfg = WalkConfig(coin_x=CoinJet(), coin_y=CoinJet())
    ks = np.array([0.0, 0.4, -1.0, 2.2])
    bands = dispersion(cfg, 0.0, ks[:, None], ks[None, :])
    for i, kx in enumerate(ks):
        for j, ky in enumerate(ks):
            expected = sorted([np.angle(np.exp(1j * (kx + ky))),
                               np.angle(np.exp(-1j * (kx + ky)))])
            assert np.allclose(sorted(bands[i, j]), expected, atol=1e-12)


def test_dispersion_gap_scales_linearly_with_eps(rng):
    """Perturbation of the k = 0 eigenphase separation is first order in
    eps (phases compared circularly; raw angles can wrap at +-pi)."""
    cfg = draw_time_compliant(rng, strong_theta1=True)
    k0 = np.array(0.0)

    def circular_gap(eps):
        b = dispersion(cfg, eps, k0, k0)
        diff = b[..., 1] - b[..., 0]
        return float(np.abs(np.angle(np.exp(1j * diff))))

    g0 = circular_gap(0.0)
    d1 = abs(circular_gap(1e-3) - g0)
    d2 = abs(circular_gap(5e-4) - g0)
    assert d1 > 1e-6
    assert 1.8 <= d1 / d2 <= 2.2


def test_dispersion_phase_sum_tracks_determinant(rng):
    cfg = draw_time_compliant(rng)
    kx, ky = _kgrid(6)
    bands = dispersion(cfg, 0.01, kx, ky)
    w = walk_k(cfg, kx, ky, 0.01)
    det_phase = np.angle(det2(w))
    sum_phase = bands.sum(axis=-1)
    diff = np.exp(1j * (sum_phase - det_phase))
    assert float(np.max(np.abs(diff - 1.0))) <= 1e-10
