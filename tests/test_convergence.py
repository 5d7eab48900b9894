from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasticwalk import (
    CoinJet, WalkConfig, dispersion, fit_order, spacetime_convergence,
    spacetime_hamiltonian, time_convergence, time_hamiltonian, walk_k,
)
from plasticwalk.coins import coin_pair, walk_planes
from plasticwalk.lattice import SpinorField, evolve
from plasticwalk.mat2 import _entries_su2, _power, exp_herm, op_norm
from plasticwalk._util import K_BLOCK, k_tiles, stack_power

from conftest import (
    draw_plastic_compliant, draw_plastic_generic, draw_time_compliant, draw_time_generic,
)
from oracles import (
    converge_whole_grid, det2, dispersion_planes_whole_grid, dispersion_whole_grid,
    evolve_whole_grid, power_stack, walk_k_stack, walk_power_planes, walk_power_stack,
)


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
    cfg = replace(cfg, coin_x=replace(cfg.coin_x, theta1=0.0),
                  coin_y=replace(cfg.coin_y, theta1=0.0), tau=2)
    kx, ky = _kgrid(5)
    res = time_convergence(cfg, 1.0, kx, ky, [2.0 ** -k for k in range(6, 12)])
    assert max(err for _, err in res.samples) <= 1e-11


def test_time_convergence_tau_independent_target(rng):
    cfg2 = draw_time_compliant(rng, tau=2, strong_theta1=True)
    cfg4 = replace(cfg2, tau=4)
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
    cfg3 = replace(cfg2, tau=3)
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
    res = spacetime_convergence(cfg, 1.0, [0.7, 0.23], [-0.3, 0.9], eps_list)
    errs = [e for _, e in res.samples]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert res.slope > 0.3


def test_spacetime_convergence_rejects_divergent(rng):
    from conftest import draw_plastic_generic
    with pytest.raises(ValueError):
        spacetime_convergence(draw_plastic_generic(rng), 1.0, [0.3], [0.1],
                              [0.01, 0.005, 0.0025])


def test_spacetime_zero_momentum_is_exact(rng):
    """At kappa = 0 the calibrated generator vanishes and, on the constraint
    shell, the squared walk equals the identity at every eps (the
    root-of-unity condition holds for arbitrary theta), so walk and target
    agree at the roundoff floor."""
    from plasticwalk import spacetime_hamiltonian, walk_k
    cfg = draw_plastic_compliant(rng)
    asm = spacetime_hamiltonian(cfg)
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
    asm = spacetime_hamiltonian(cfg)

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


def _bands_of_eigvals(cfg, eps, kx, ky):
    """The phases of np.linalg.eigvals of the four-entry W(k), in (-pi, pi], sorted."""
    phases = np.angle(np.linalg.eigvals(walk_k_stack(cfg, kx, ky, eps)))
    return np.sort(np.where(phases <= -np.pi + 1e-15, np.pi, phases), axis=-1)


_IDENTITY = WalkConfig(coin_x=CoinJet(), coin_y=CoinJet())
_MINUS = replace(_IDENTITY, coin_x=CoinJet(delta=np.pi))  # g = -1
_Q = np.pi / 4


@pytest.mark.parametrize("cfg,kx,ky,eps,expected", [
    (_IDENTITY, 0.0, 0.0, 0.0, (0.0, 0.0)),  # W = I
    (_MINUS, 0.0, 0.0, 0.0, (np.pi, np.pi)),  # W = -I
    (_IDENTITY, _Q, _Q, 0.0, (-np.pi / 2, np.pi / 2)),  # W = i sigma_z
    (_IDENTITY, -_Q, -_Q, 0.0, (-np.pi / 2, np.pi / 2)),  # W = -i sigma_z
    (replace(_IDENTITY, coin_x=CoinJet(zeta0=-np.pi)), 0.0, 0.0, 0.0,
     (-np.pi / 2, np.pi / 2)),  # i sigma_z from the coin
    (_MINUS, _Q, _Q, 0.0, (-np.pi / 2, np.pi / 2)),  # -i sigma_z = g (i sigma_z)
], ids=["I", "minus-I", "i-sigma-z", "minus-i-sigma-z", "coin-i-sigma-z", "g-minus-i-sigma-z"])
def test_dispersion_at_degenerate_walks(cfg, kx, ky, eps, expected):
    bands = dispersion(cfg, eps, np.array(kx), np.array(ky))
    assert np.abs(bands - np.array(expected)).max() <= 1e-12
    assert np.abs(bands - _bands_of_eigvals(cfg, eps, kx, ky)).max() <= 1e-12


@pytest.mark.parametrize("cfg", [_IDENTITY, _MINUS], ids=["g=1", "g=-1"])
def test_dispersion_band_touchings(cfg):
    """Identity coins: bands +-(kx + ky) (shifted by pi when g = -1), touching at
    omega = 0 and omega = pi, crossed at and one to a few ulps beside each touching."""
    near = np.array([-1e-8, -1e-15, -0.0, 0.0, 1e-15, 1e-8])
    ks = np.concatenate([near, np.pi / 2 + near, -np.pi / 2 + near])
    kx, ky = ks[:, None], ks[None, :]
    bands = dispersion(cfg, 0.0, kx, ky)
    assert np.abs(bands - _bands_of_eigvals(cfg, 0.0, kx, ky)).max() <= 1e-12
    assert ((bands > -np.pi) & (bands <= np.pi)).all()
    assert (bands[..., 0] <= bands[..., 1]).all()


@pytest.mark.parametrize("eps", [1e-3, 1e-8, 1e-12, 1e-300, 0.0])
def test_dispersion_as_eps_vanishes(eps):
    for seed, draw in enumerate((draw_time_compliant, draw_time_generic)):
        cfg = draw(np.random.default_rng(seed))
        kx, ky = _kgrid(12)
        bands = dispersion(cfg, eps, kx, ky)
        assert np.abs(bands - _bands_of_eigvals(cfg, eps, kx, ky)).max() <= 1e-12
        assert ((bands > -np.pi) & (bands <= np.pi)).all()
        assert (bands[..., 0] <= bands[..., 1]).all()


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


# grids on both sides of a tile edge (64^2 is one tile of K_BLOCK k-points), several
# tiles of whole rows, and rows longer than a tile
TILE_GRIDS = [(63, 63), (64, 64), (65, 65), (100, 100), (2, 5000)]


def _factors(nx, ny):
    return (np.linspace(-np.pi, np.pi, nx, endpoint=False)[:, None],
            np.linspace(-np.pi, np.pi, ny, endpoint=False)[None, :])


@pytest.mark.parametrize("nx,ny", TILE_GRIDS + [(1, 1), (3, 2 * K_BLOCK + 1), (K_BLOCK + 1, 1)])
def test_k_tiles_cover_the_grid_once_a_tile_at_a_time(nx, ny):
    kx, ky = _factors(nx, ny)
    seen = np.zeros((nx, ny), dtype=int)
    for tile, kx_t, ky_t in k_tiles(kx, ky):
        seen[tile] += 1
        assert kx_t.size * ky_t.size <= K_BLOCK
        assert np.array_equal(kx_t, kx[tile[0]]) and np.array_equal(ky_t, ky[:, tile[1]])
    assert (seen == 1).all()


def test_k_tiles_run_other_shapes_as_one_tile():
    momenta = np.array([0.7, 0.2, -1.0])
    for kx, ky in ((0.3, -0.2), (momenta, momenta[::-1]), (np.ones((3, 4)), np.ones((3, 4)))):
        [(tile, kx_t, ky_t)] = k_tiles(kx, ky)
        assert tile is Ellipsis and np.array_equal(kx_t, kx) and np.array_equal(ky_t, ky)


@settings(max_examples=12, deadline=None)
@given(grid=st.sampled_from(TILE_GRIDS), plastic=st.booleans(),
       eps=st.just(0.0) | st.floats(1e-4, 0.3),
       steps=st.sampled_from([0, 1]) | st.integers(0, 2 ** 20).map(lambda n: 2 * n + 1),
       seed=st.integers(0, 2 ** 32 - 1))
@example(grid=(2, 5000), plastic=True, eps=0.0, steps=1, seed=0)
@example(grid=(65, 65), plastic=False, eps=0.05, steps=0, seed=1)
@example(grid=(64, 64), plastic=True, eps=0.01, steps=1001, seed=2)
def test_entry_planes_equal_the_stack_oracles_bitwise(grid, plastic, eps, steps, seed):
    """W(k) and W(k)^steps in the two-plane form, walk_k on it, and evolve (its tiles in
    that form) against the two-plane formulas over the whole grid, bit for bit; and
    stack_power, four entries a matrix, against mul2 squarings."""
    rng = np.random.default_rng(seed)
    cfg = draw_plastic_generic(rng) if plastic else draw_time_generic(rng)
    if eps == 0.0:
        cfg = replace(cfg, a_exp=0)  # a spacing eps**a needs eps > 0
    kx, ky = _factors(*grid)
    planes = walk_planes(coin_pair(cfg, eps), kx, ky)
    w = walk_power_planes(cfg, kx, ky, eps, 1)
    assert np.stack(_entries_su2(planes), axis=-1).tobytes() == w.reshape(grid + (4,)).tobytes()
    assert walk_k(cfg, kx, ky, eps).tobytes() == w.tobytes()
    w_n = walk_power_planes(cfg, kx, ky, eps, steps)
    assert np.stack(_entries_su2(_power(planes, steps)), axis=-1).tobytes() \
        == w_n.reshape(grid + (4,)).tobytes()
    assert stack_power(w, steps).tobytes() == power_stack(w, steps).tobytes()
    field = SpinorField.random(*grid, rng)
    if steps == 0:
        assert evolve(field, cfg, eps, steps) is field
    else:
        assert evolve(field, cfg, eps, steps).data.tobytes() \
            == evolve_whole_grid(field, cfg, eps, steps, walk_power_planes).tobytes()


def _circular(x, y) -> float:
    """Largest distance between the phases x and y on the circle."""
    return float(np.max(np.abs(np.angle(np.exp(1j * (np.asarray(x) - np.asarray(y)))))))


@settings(max_examples=12, deadline=None)
@given(grid=st.sampled_from(TILE_GRIDS), plastic=st.booleans(),
       eps=st.just(0.0) | st.floats(1e-4, 0.3),
       steps=st.sampled_from([0, 1]) | st.integers(0, 500).map(lambda n: 2 * n + 1),
       seed=st.integers(0, 2 ** 32 - 1))
@example(grid=(2, 5000), plastic=True, eps=0.0, steps=1001, seed=0)
@example(grid=(64, 64), plastic=False, eps=0.01, steps=1001, seed=2)
def test_two_plane_walk_matches_the_four_entry_oracles(grid, plastic, eps, steps, seed):
    """W(k), W(k)^steps, evolve and the bands against four entries a matrix (mul2
    products and squarings, eigvals2), at 1e-12 and fields at 1e-10.  The roundoff of
    either squaring grows about 3e-16 a step, so up to 1001 steps; longer powers are
    held against an extended-precision power (test_kernels)."""
    rng = np.random.default_rng(seed)
    cfg = draw_plastic_generic(rng) if plastic else draw_time_generic(rng)
    if eps == 0.0:
        cfg = replace(cfg, a_exp=0)
    kx, ky = _factors(*grid)
    assert float(np.max(np.abs(walk_k(cfg, kx, ky, eps) - walk_k_stack(cfg, kx, ky, eps)))) \
        <= 1e-12
    assert float(np.max(np.abs(walk_power_planes(cfg, kx, ky, eps, steps)
                               - walk_power_stack(cfg, kx, ky, eps, steps)))) <= 1e-12
    field = SpinorField.random(*grid, rng)
    assert float(np.max(np.abs(evolve(field, cfg, eps, steps).data
                               - evolve_whole_grid(field, cfg, eps, steps)))) <= 1e-10
    if not plastic:  # plastic momenta are physical: the bands are of the time walk
        assert _circular(dispersion(cfg, eps, kx, ky), dispersion_whole_grid(cfg, eps, kx, ky)) \
            <= 1e-12


@settings(max_examples=12, deadline=None)
@given(grid=st.sampled_from(TILE_GRIDS), generic=st.booleans(),
       eps=st.floats(0.0, 0.3), seed=st.integers(0, 2 ** 32 - 1))
@example(grid=(2, 5000), generic=True, eps=0.05, seed=0)
@example(grid=(100, 100), generic=False, eps=0.01, seed=1)
def test_dispersion_tiles_equal_the_whole_grid_bitwise(grid, generic, eps, seed):
    rng = np.random.default_rng(seed)
    cfg = draw_time_generic(rng) if generic else draw_time_compliant(rng)
    kx, ky = _factors(*grid)
    bands = dispersion(cfg, eps, kx, ky)
    assert bands.shape == grid + (2,)
    assert bands.tobytes() == dispersion_planes_whole_grid(cfg, eps, kx, ky).tobytes()
    assert _circular(bands, dispersion_whole_grid(cfg, eps, kx, ky)) <= 1e-12


@settings(max_examples=8, deadline=None)
@given(grid=st.sampled_from(TILE_GRIDS), tau=st.sampled_from([2, 4]),
       end=st.integers(8, 10), t_final=st.sampled_from([0.5, 0.3]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(grid=(2, 5000), tau=2, end=8, t_final=0.5, seed=0)
@example(grid=(65, 65), tau=4, end=9, t_final=0.3, seed=1)
def test_time_convergence_tiles_equal_the_whole_grid_bitwise(grid, tau, end, t_final, seed):
    """Every (eps, error) sample, with eps in the order the CLI lists them.  At
    t_final 0.5 every eps 2^-k divides the horizon, so all share one target; at 0.3
    the rounded horizons differ."""
    cfg = draw_time_compliant(np.random.default_rng(seed), tau=tau, strong_theta1=True)
    kx, ky = _factors(*grid)
    eps_list = [2.0 ** -k for k in range(6, end + 1)]
    samples = time_convergence(cfg, t_final, kx, ky, eps_list[::-1]).samples
    h = time_hamiltonian(cfg)[1]
    oracle = converge_whole_grid(cfg, tau, h, kx, ky, t_final, eps_list, walk_power_planes)
    assert np.array(samples).tobytes() == np.array(oracle).tobytes()
    four = converge_whole_grid(cfg, tau, h, kx, ky, t_final, eps_list)
    assert float(np.max(np.abs(np.array(samples) - np.array(four)))) <= 1e-12


def test_spacetime_convergence_momentum_list_equals_the_oracle_bitwise(rng):
    cfg = draw_plastic_compliant(rng)
    momenta = [(0.7, -0.3), (0.23, 0.9), (-0.51, 0.42)]
    eps_list = [2.0 ** -k for k in range(6, 10)]
    kx, ky = np.array(momenta).T
    samples = spacetime_convergence(cfg, 0.5, kx, ky, eps_list).samples
    h = spacetime_hamiltonian(cfg).hamiltonian
    oracle = converge_whole_grid(cfg, 2, h, kx, ky, 0.5, eps_list, walk_power_planes)
    assert np.array(samples).tobytes() == np.array(oracle).tobytes()
    four = converge_whole_grid(cfg, 2, h, kx, ky, 0.5, eps_list)
    assert float(np.max(np.abs(np.array(samples) - np.array(four)))) <= 1e-12
