import tracemalloc
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
from plasticwalk.convergence import _converge
from plasticwalk.lattice import SpinorField, evolve
from plasticwalk.mat2 import _entries_su2, _from_entries, exp_herm, op_norm
from plasticwalk._util import CONVERGE_BLOCK, K_BLOCK, k_tiles, stack_power

from conftest import (
    draw_plastic_compliant, draw_plastic_generic, draw_time_compliant, draw_time_generic,
)
from oracles import (
    converge_eps_by_eps, converge_whole_grid, det2, dispersion_planes_whole_grid, dispersion_whole_grid,
    evolve_whole_grid, power_planes, walk_k_stack, walk_power_planes, walk_power_stack,
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


def test_time_convergence_at_one_k_point_is_that_k_point_given_twice(rng):
    """The errors at one k-point (grid 1: one-element planes) equal, bit for bit, those
    of the same k-point given twice: every kernel is elementwise at any array size."""
    cfg = draw_time_compliant(rng, strong_theta1=True)
    eps_list = [2.0 ** -k for k in range(6, 10)]
    for kx, ky in ((0.7, -0.4), (np.pi, np.pi), (0.0, 0.0)):
        once = time_convergence(cfg, 0.5, np.array([kx]), np.array([ky]), eps_list)
        twice = time_convergence(cfg, 0.5, np.array([kx, kx]), np.array([ky, ky]), eps_list)
        assert once.samples == twice.samples, (kx, ky)


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
        target = _from_entries(*_entries_su2(exp_herm(h, 3 * n_blocks * eps)))
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
# the same for converge's tiles of CONVERGE_BLOCK k-points, which hold each grid above
# whole: 128^2 is one tile, 129^2 two of whole rows, a row of 16,391 two of columns
CONVERGE_TILE_GRIDS = [(128, 128), (129, 129), (2, CONVERGE_BLOCK + 7)]


def _factors(nx, ny):
    return (np.linspace(-np.pi, np.pi, nx, endpoint=False)[:, None],
            np.linspace(-np.pi, np.pi, ny, endpoint=False)[None, :])


@pytest.mark.parametrize("nx,ny", TILE_GRIDS + [(1, 1), (3, 2 * K_BLOCK + 1), (K_BLOCK + 1, 1)]
                         + CONVERGE_TILE_GRIDS
                         + [(3, 2 * CONVERGE_BLOCK + 1), (CONVERGE_BLOCK + 1, 1)])
def test_k_tiles_cover_the_grid_once_a_tile_at_a_time(nx, ny):
    """At both block sizes, K_BLOCK the default; whole rows, or columns of one row."""
    kx, ky = _factors(nx, ny)
    for block in (K_BLOCK, CONVERGE_BLOCK):
        tiles = list(k_tiles(kx, ky, block))
        seen = np.zeros((nx, ny), dtype=int)
        for tile, kx_t, ky_t in tiles:
            seen[tile] += 1
            assert kx_t.size * ky_t.size <= block
            assert kx_t.size == 1 or ky_t.size == ny
            assert np.array_equal(kx_t, kx[tile[0]]) and np.array_equal(ky_t, ky[:, tile[1]])
        assert (seen == 1).all()
        rows = max(1, block // ny)
        assert len(tiles) == -(-nx // rows) * -(-ny // min(ny, block))
    assert [tile for tile, _, _ in k_tiles(kx, ky)] \
        == [tile for tile, _, _ in k_tiles(kx, ky, K_BLOCK)]


def test_k_tiles_run_other_shapes_as_one_tile():
    for kx, ky in ((0.3, -0.2), (np.ones((3, 4)), np.ones((3, 4)))):
        [(tile, kx_t, ky_t)] = k_tiles(kx, ky)
        assert tile is Ellipsis and np.array_equal(kx_t, kx) and np.array_equal(ky_t, ky)


@pytest.mark.parametrize("n", [1, 3, K_BLOCK, K_BLOCK + 1, 3 * K_BLOCK - 1])
def test_k_tiles_slice_momentum_lists(n):
    """Equal-length 1-D momentum lists go in tiles of ``block`` momenta, in order, each
    momentum once, the last tile the remainder."""
    kx, ky = np.random.default_rng(n).uniform(-3, 3, (2, n))
    tiles = list(k_tiles(kx, ky, K_BLOCK))
    assert len(tiles) == -(-n // K_BLOCK)
    assert all(kx_t.size == ky_t.size == K_BLOCK for _, kx_t, ky_t in tiles[:-1])
    assert np.concatenate([kx[tile] for tile, _, _ in tiles]).tobytes() == kx.tobytes()
    assert np.concatenate([kx_t for _, kx_t, _ in tiles]).tobytes() == kx.tobytes()
    assert np.concatenate([ky_t for _, _, ky_t in tiles]).tobytes() == ky.tobytes()


def test_converge_momenta_tiles_equal_the_split_list_bitwise(rng):
    """Plastic converge over CONVERGE_BLOCK + 1 momenta, two tiles, samples the maximum
    of the same list split at the tile edge and converged part by part, bit for bit."""
    cfg = draw_plastic_compliant(rng)
    kx, ky = rng.uniform(-3, 3, (2, CONVERGE_BLOCK + 1))
    eps_list = [2.0 ** -k for k in range(6, 9)]
    whole = spacetime_convergence(cfg, 0.5, kx, ky, eps_list).samples
    parts = [spacetime_convergence(cfg, 0.5, kx[s], ky[s], eps_list).samples
             for s in (slice(0, CONVERGE_BLOCK), slice(CONVERGE_BLOCK, None))]
    assert whole == tuple((eps, max(e0, e1)) for (eps, e0), (_, e1) in zip(*parts))


def test_converge_momenta_memory_stays_near_one_tile(rng):
    """Plastic converge holds one tile of momenta at a time: over 4 * CONVERGE_BLOCK
    momenta the traced peak stays under 8 MiB (about 5.5 MiB, as over one tile), where
    one tile of all of them took 21 MiB."""
    cfg = draw_plastic_compliant(rng)
    kx, ky = rng.uniform(-3, 3, (2, 4 * CONVERGE_BLOCK))
    tracemalloc.start()
    try:
        spacetime_convergence(cfg, 0.5, kx, ky, [2.0 ** -k for k in range(6, 10)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


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
    that form) against the two-plane formulas over the whole grid, bit for bit."""
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
    assert np.stack(_entries_su2(power_planes(planes, steps)), axis=-1).tobytes() \
        == w_n.reshape(grid + (4,)).tobytes()
    field = SpinorField.random(*grid, rng)
    if steps == 0:
        assert evolve(field, cfg, eps, steps) is field
    else:
        assert evolve(field, cfg, eps, steps).data.tobytes() \
            == evolve_whole_grid(field, cfg, eps, steps, walk_power_planes).tobytes()


def _circular(x, y) -> float:
    """Largest distance on the circle between the phase pairs x and y (..., 2), each pair
    matched in its closer order: a band at +-pi wraps to either end of its sorted pair."""
    x, y = np.asarray(x), np.asarray(y)

    def apart(u, v):
        return np.max(np.abs(np.angle(np.exp(1j * (u - v)))), axis=-1)

    return float(np.max(np.minimum(apart(x, y), apart(x, y[..., ::-1]))))


@settings(max_examples=12, deadline=None, derandomize=True)
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


@settings(max_examples=12, deadline=None, derandomize=True)
@given(grid=st.sampled_from(TILE_GRIDS), generic=st.booleans(),
       eps=st.floats(0.0, 0.3), seed=st.integers(0, 2 ** 32 - 1))
@example(grid=(2, 5000), generic=True, eps=0.05, seed=0)
@example(grid=(100, 100), generic=False, eps=0.01, seed=1)
@example(grid=(63, 63), generic=False, eps=0.0, seed=47709)  # a band at +-pi
def test_dispersion_tiles_equal_the_whole_grid_bitwise(grid, generic, eps, seed):
    rng = np.random.default_rng(seed)
    cfg = draw_time_generic(rng) if generic else draw_time_compliant(rng)
    kx, ky = _factors(*grid)
    bands = dispersion(cfg, eps, kx, ky)
    assert bands.shape == grid + (2,)
    assert bands.tobytes() == dispersion_planes_whole_grid(cfg, eps, kx, ky).tobytes()
    assert _circular(bands, dispersion_whole_grid(cfg, eps, kx, ky)) <= 1e-12


# grids whose groups of eps hold one eps (64^2 = K_BLOCK points), two (45^2) and every
# eps of a ladder (9^2), and momentum lists about the edges of groups of 4 and 7 eps
LADDER_GRIDS = [(64, 64), (45, 45), (9, 9)]
LADDER_MOMENTA = [n for count in (4, 7) for n in (K_BLOCK // count - 1, K_BLOCK // count,
                                                  K_BLOCK // count + 1)]


@settings(max_examples=8, deadline=None)
@given(grid=st.sampled_from(TILE_GRIDS + CONVERGE_TILE_GRIDS + LADDER_GRIDS),
       tau=st.sampled_from([2, 4]), end=st.integers(8, 10), t_final=st.sampled_from([0.5, 0.3]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(grid=(2, 5000), tau=2, end=8, t_final=0.5, seed=0)
@example(grid=(65, 65), tau=4, end=9, t_final=0.3, seed=1)
@example(grid=(128, 128), tau=2, end=10, t_final=0.3, seed=2)
@example(grid=(129, 129), tau=4, end=8, t_final=0.5, seed=3)
@example(grid=(129, 129), tau=2, end=8, t_final=0.3, seed=0)  # a whole grid past 256 KiB
@example(grid=(2, CONVERGE_BLOCK + 7), tau=2, end=9, t_final=0.3, seed=4)
# groups of one, two and every eps; ladders of 3 and of 16 eps; tau 2 and 4
@example(grid=(64, 64), tau=4, end=8, t_final=0.3, seed=5)
@example(grid=(64, 64), tau=2, end=21, t_final=0.5, seed=6)
@example(grid=(45, 45), tau=2, end=8, t_final=0.5, seed=7)
@example(grid=(45, 45), tau=4, end=21, t_final=0.3, seed=8)
@example(grid=(9, 9), tau=4, end=8, t_final=0.5, seed=9)
@example(grid=(9, 9), tau=2, end=21, t_final=0.3, seed=10)
@example(grid=(1, 1), tau=4, end=21, t_final=0.5, seed=11)
def test_time_convergence_tiles_equal_the_whole_grid_bitwise(grid, tau, end, t_final, seed):
    """Every (eps, error) sample, with eps in the order the CLI lists them, on grids of
    one and of several tiles of either block size, whose groups hold one, two or all of
    the eps.  At t_final 0.5 every eps 2^-k divides the horizon, so all share one target
    and every step count is a power of two; at 0.3 the rounded horizons differ, and the
    counts are not powers of two (the products of ``mat2._power``).  The samples equal
    the loop one eps at a time and the two-plane whole-grid oracle bit for bit, and the
    four-entry oracle to 1e-12 up to 2^10 steps (its roundoff grows about 3e-16 a step;
    longer powers are held against an extended-precision power in test_kernels)."""
    cfg = draw_time_compliant(np.random.default_rng(seed), tau=tau, strong_theta1=True)
    kx, ky = _factors(*grid)
    eps_list = [2.0 ** -k for k in range(6, end + 1)]
    samples = time_convergence(cfg, t_final, kx, ky, eps_list[::-1]).samples
    h = time_hamiltonian(cfg)[1]
    assert np.array(samples).tobytes() == np.array(
        converge_eps_by_eps(cfg, h, kx, ky, t_final, eps_list, "Hamiltonian")).tobytes()
    oracle = converge_whole_grid(cfg, tau, h, kx, ky, t_final, eps_list, walk_power_planes)
    assert np.array(samples).tobytes() == np.array(oracle).tobytes()
    if end <= 10:
        four = converge_whole_grid(cfg, tau, h, kx, ky, t_final, eps_list)
        assert float(np.max(np.abs(np.array(samples) - np.array(four)))) <= 1e-12


@settings(max_examples=6, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 5] + LADDER_MOMENTA), count=st.integers(3, 7),
       t_final=st.sampled_from([0.5, 0.3]), seed=st.integers(0, 2 ** 32 - 1))
@example(n=3, count=4, t_final=0.5, seed=0)
@example(n=1, count=7, t_final=0.3, seed=1)
@example(n=K_BLOCK // 4 - 1, count=4, t_final=0.5, seed=2)
@example(n=K_BLOCK // 4, count=4, t_final=0.3, seed=3)
@example(n=K_BLOCK // 4 + 1, count=4, t_final=0.5, seed=4)
@example(n=K_BLOCK // 7 - 1, count=7, t_final=0.3, seed=5)
@example(n=K_BLOCK // 7, count=7, t_final=0.5, seed=6)
@example(n=K_BLOCK // 7 + 1, count=7, t_final=0.3, seed=7)
@example(n=K_BLOCK // 16 - 1, count=16, t_final=0.5, seed=8)
@example(n=K_BLOCK // 16, count=16, t_final=0.3, seed=9)
@example(n=K_BLOCK // 16 + 1, count=16, t_final=0.3, seed=10)
def test_spacetime_convergence_momentum_list_equals_the_oracle_bitwise(n, count, t_final, seed):
    """Plastic converge over a list of n momenta and ``count`` eps about the edges of its
    groups (K_BLOCK // count momenta fill one group of every eps) equals the loop one eps
    at a time and the two-plane oracle bit for bit, and the four-entry oracle to 1e-12 up
    to 2^10 steps.  At t_final 0.3 the horizons differ and the step counts are not
    powers of two."""
    rng = np.random.default_rng(seed)
    cfg = draw_plastic_compliant(rng)
    kx, ky = rng.uniform(-1.0, 1.0, (2, n))
    eps_list = [2.0 ** -k for k in range(6, 6 + count)]
    samples = spacetime_convergence(cfg, t_final, kx, ky, eps_list).samples
    h = spacetime_hamiltonian(cfg).hamiltonian
    assert np.array(samples).tobytes() == np.array(
        converge_eps_by_eps(cfg, h, kx, ky, t_final, eps_list, "PDE generator")).tobytes()
    oracle = converge_whole_grid(cfg, 2, h, kx, ky, t_final, eps_list, walk_power_planes)
    assert np.array(samples).tobytes() == np.array(oracle).tobytes()
    if count <= 5:
        four = converge_whole_grid(cfg, 2, h, kx, ky, t_final, eps_list)
        assert float(np.max(np.abs(np.array(samples) - np.array(four)))) <= 1e-12


@settings(max_examples=10, deadline=None, derandomize=True)
@given(grid=st.sampled_from([(1, 1), (3, 5), (9, 9), (45, 45), (129, 129)]),
       extra=st.lists(st.sampled_from([1e-13, 1e-16, 1e308]), max_size=3),
       fault=st.sampled_from([None, "first tile", "second tile", "overflow"]),
       t_final=st.sampled_from([0.5, 0.3]), seed=st.integers(0, 2 ** 32 - 1))
@example(grid=(9, 9), extra=[1e-13], fault=None, t_final=0.5, seed=0)
@example(grid=(9, 9), extra=[1e-13, 1e308], fault=None, t_final=0.5, seed=1)
@example(grid=(45, 45), extra=[1e-13], fault="first tile", t_final=0.3, seed=2)
@example(grid=(129, 129), extra=[1e-16], fault="second tile", t_final=0.5, seed=3)
@example(grid=(3, 5), extra=[1e-13], fault="overflow", t_final=0.3, seed=4)
def test_converge_raises_what_the_loop_eps_by_eps_raises_first(grid, extra, fault, t_final,
                                                               seed):
    """With eps whose W^(tau n) is past POWER_TOL (1e-13, 1e-16) or whose coin angles
    overflow (1e308 at theta1 = 10), and an H that is not Hermitian on the first or the
    second tile or whose evolution overflows, the ladder raises the message (and n) of
    the loop one eps at a time, or gives its samples bit for bit."""
    cfg = draw_time_compliant(np.random.default_rng(seed), tau=2, strong_theta1=True)
    cfg = replace(cfg, coin_x=replace(cfg.coin_x, theta1=10.0))
    symbol = time_hamiltonian(cfg)[1]
    eps_list = [2.0 ** -k for k in range(6, 10)] + extra

    def hamiltonian():
        tiles = []

        def h(kx, ky):
            tiles.append(None)
            out = symbol(kx, ky)
            if fault == "overflow":
                return out * 1e305
            if (fault, len(tiles)) in (("first tile", 1), ("second tile", 2)):
                out = out.copy()
                out[..., 0, 1] += 1.0
            return out
        return h

    kx, ky = _factors(*grid)
    try:
        want = converge_eps_by_eps(cfg, hamiltonian(), kx, ky, t_final, eps_list, "Hamiltonian")
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _converge(cfg, hamiltonian(), kx, ky, t_final, eps_list, "Hamiltonian")
        assert str(got.value) == str(exc)
        return
    samples = _converge(cfg, hamiltonian(), kx, ky, t_final, eps_list, "Hamiltonian").samples
    assert np.array(samples).tobytes() == np.array(want).tobytes()
