import math
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasticwalk import CoinJet, WalkConfig, SpinorField, _util, coins, lattice, walk_k
from plasticwalk.lattice import (
    evolve, load_binary, load_csv, momentum_grid, save_binary, save_csv, step,
)
from plasticwalk.mat2 import SZ, rot
from plasticwalk.timelimit import time_hamiltonian

from conftest import draw_plastic_generic, draw_time_compliant, draw_time_generic
from oracles import (
    ID2, SX, apply_coin, apply_shift_word, dft, evolve_by_symbol, idft, load_csv_table,
    plane_wave_field, save_csv_per_site, shift, site_field, step_chain,
)
from test_g17_parse import GRAMMAR


def test_shift_moves_left_component_down():
    f = site_field(8, 8, (3, 0), 0)
    out = shift(f, "x")
    assert out.data[0, 2, 0] == 1.0
    assert np.count_nonzero(out.data) == 1


def test_shift_moves_right_component_up():
    f = site_field(8, 8, (3, 0), 1)
    out = shift(f, "x")
    assert out.data[1, 4, 0] == 1.0
    assert np.count_nonzero(out.data) == 1


def test_shift_uniform_field_unchanged():
    f = SpinorField(np.full((2, 4, 4), 0.5 + 0.1j))
    for axis in ("x", "y"):
        assert np.array_equal(shift(f, axis).data, f.data)


def test_shift_word_inverse_is_bit_exact(rng):
    f = SpinorField.random(8, 8, rng)
    roundtrip = apply_shift_word(apply_shift_word(f, 2, -3), -2, 3)
    assert np.array_equal(roundtrip.data, f.data)
    one = shift(f, "x")
    assert np.array_equal(apply_shift_word(f, 1, 0).data, one.data)


def test_apply_coin_identity_and_swap(rng):
    f = SpinorField.random(6, 6, rng)
    assert np.array_equal(apply_coin(f, ID2).data, f.data)
    swapped = apply_coin(f, SX)
    assert np.array_equal(swapped.data[0], f.data[1])
    assert np.array_equal(swapped.data[1], f.data[0])


def test_apply_coin_preserves_norm(rng):
    f = SpinorField.random(6, 6, rng)
    c = rot("z", 0.7) @ rot("y", -1.2)
    assert abs(apply_coin(f, c).norm() - f.norm()) <= 1e-13


def test_apply_coin_rejects_non_unitary(rng):
    f = SpinorField.random(4, 4, rng)
    with pytest.raises(ValueError):
        apply_coin(f, np.array([[1.0, 0.2], [0.0, 1.0]]))


def test_step_identity_coins_is_pure_transport():
    cfg = WalkConfig(coin_x=CoinJet(), coin_y=CoinJet())
    f = site_field(8, 8, (3, 3), 0)
    out = step(f, cfg, 0.0)
    # L component moves by (-1, -1) in site indices
    assert out.data[0, 2, 2] == 1.0


def test_step_norm_conservation(rng):
    cfg = draw_time_generic(rng)
    f = SpinorField.random(16, 16, rng)
    n0 = f.norm()
    for _ in range(200):
        f = step(f, cfg, 0.01)
    assert abs(f.norm() - n0) <= 1e-12


def test_step_on_plane_wave_matches_symbol(rng):
    cfg = draw_time_generic(rng)
    nx = ny = 16
    jx, jy = 3, -5
    kx = 2 * np.pi * jx / nx
    ky = 2 * np.pi * jy / ny
    spinor = np.array([0.6, 0.8j])
    f = plane_wave_field(nx, ny, kx, ky, spinor)
    stepped = step(f, cfg, 0.02)
    expected_spinor = walk_k(cfg, kx, ky, 0.02) @ (spinor / np.linalg.norm(spinor))
    expected = plane_wave_field(nx, ny, kx, ky, expected_spinor)
    # plane_wave_field normalizes the spinor; expected_spinor is unit already
    assert float(np.max(np.abs(stepped.data - expected.data))) <= 1e-10


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(["time", "plastic"]),
       tau=st.sampled_from([2, 4]), eps=st.sampled_from([0.0, 0.01, 0.2]),
       a=st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
       b=st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1)]),
       nx=st.integers(3, 9), ny=st.integers(3, 9), steps=st.integers(1, 5))
@example(seed=0, mode="plastic", tau=2, eps=0.0, a=Fraction(1, 2), b=Fraction(1, 2),
         nx=3, ny=4, steps=3)
@example(seed=1, mode="time", tau=4, eps=0.2, a=Fraction(1), b=Fraction(1), nx=5, ny=3,
         steps=4)
def test_step_matches_the_chain_and_evolve(seed, mode, tau, eps, a, b, nx, ny, steps):
    """``step`` on the two-plane coins against the oracles' coin_at -> apply_coin -> shift
    chain at 1e-12 a step, and its steps against ``evolve`` at 1e-10, on time walks and
    plastic walks at (a, b).  Grids of 3 sites or more tell a roll by +1 from one by -1.
    At eps = 0 a plastic walk's spacing eps**a is 0: ``evolve`` refuses it, ``step`` does
    not need it."""
    rng = np.random.default_rng(seed)
    cfg = (draw_time_generic(rng, tau) if mode == "time"
           else replace(draw_plastic_generic(rng), tau=tau, a_exp=a, b_exp=b))
    f = SpinorField.random(nx, ny, rng)
    stepped = f
    for _ in range(steps):
        nxt = step(stepped, cfg, eps)
        assert float(np.max(np.abs(nxt.data - step_chain(stepped, cfg, eps).data))) <= 1e-12
        stepped = nxt
    if eps > 0 or cfg.a_exp == 0:
        assert float(np.max(np.abs(evolve(f, cfg, eps, steps).data - stepped.data))) <= 1e-10
    else:
        with pytest.raises(ValueError, match="eps must be positive"):
            evolve(f, cfg, eps, steps)


@pytest.mark.parametrize("coin", ["coin_x", "coin_y"])
def test_step_rejects_overflowing_coin(rng, coin):
    """A driven angle theta0 + theta1 s past the float range gives a NaN coin: ``step``
    raises ValueError naming the coin, as ``evolve`` does."""
    cfg = draw_time_generic(rng)
    cfg = replace(cfg, **{coin: replace(getattr(cfg, coin), theta1=1e300)})
    f = SpinorField.random(4, 4, rng)
    assert abs(step(f, cfg, 1.0).norm() - f.norm()) <= 1e-13  # theta1 s = 1e300 is finite
    with pytest.raises(ValueError, match="coin is not unitary"):
        step(f, cfg, 1e10)


@settings(max_examples=80, deadline=None)
@given(nx=st.integers(2, 12), ny=st.integers(2, 12), steps=st.integers(0, 40),
       a=st.sampled_from([None, Fraction(1, 2), Fraction(1, 3)]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(nx=2, ny=5000, steps=3, a=None, seed=0)
@example(nx=5000, ny=2, steps=5, a=Fraction(1, 3), seed=1)
def test_evolve_matches_repeated_step(nx, ny, steps, a, seed):
    """Time mode (a None), and plastic mode, where the spacing eps**a is not 1.

    Drawn sizes fit one tile of ``_util.K_BLOCK`` k-points; the examples take
    several: rows longer than a tile, and a tile of many short rows with a partial last one.
    """
    rng = np.random.default_rng(seed)
    cfg = draw_time_generic(rng) if a is None else replace(draw_plastic_generic(rng),
                                                           a_exp=a, b_exp=a)
    eps = float(rng.uniform(0.01, 0.3))
    f = SpinorField.random(nx, ny, rng)
    expected = f
    for _ in range(steps):
        expected = step(expected, cfg, eps)
    assert float(np.max(np.abs(evolve(f, cfg, eps, steps).data - expected.data))) <= 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_evolve_gives_the_same_bits_at_any_tile_size(seed, monkeypatch):
    """A 2 x 4097 lattice at K_BLOCK k-points a tile leaves a one-column tile a row; with
    tiles of 2 * K_BLOCK each row is one tile.  Both give the same field bit for bit."""
    rng = np.random.default_rng(seed)
    cases = [(draw(rng), steps) for draw in (draw_time_compliant, draw_time_generic)
             for steps in (2, 7, 64)]
    f = SpinorField.random(2, _util.K_BLOCK + 1, rng)
    tiled = [evolve(f, cfg, 0.05, steps).data.tobytes() for cfg, steps in cases]
    monkeypatch.setattr(lattice, "k_tiles",
                        lambda kx, ky: _util.k_tiles(kx, ky, 2 * _util.K_BLOCK))
    assert [evolve(f, cfg, 0.05, steps).data.tobytes() for cfg, steps in cases] == tiled


def test_evolve_zero_steps_returns_the_input(rng):
    f = SpinorField.random(5, 3, rng)
    assert evolve(f, draw_time_generic(rng), 0.05, 0).data is f.data


def test_evolve_rejects_non_unitary_coin(rng, monkeypatch):
    f = SpinorField.random(4, 4, rng)
    cfg = draw_time_generic(rng)
    # evolve builds its coins once, by coins.coin_pair, in the two-plane form (g, a, b)
    monkeypatch.setattr(coins, "_coin_su2", lambda jet, s: (1.0 + 0j, 1.0 + 0j, 0.2 + 0j))
    with pytest.raises(ValueError, match="coin is not unitary"):
        evolve(f, cfg, 0.05, 3)


def test_evolve_rejects_a_power_past_double_precision(rng):
    """Squaring adds about 6e-16 of unitarity defect a step: 1e18 steps is noise."""
    f = SpinorField.random(4, 4, rng)
    cfg = draw_time_generic(rng)
    assert abs(evolve(f, cfg, 0.05, 10 ** 12).norm() - f.norm()) <= 1e-3
    with pytest.raises(ValueError, match="not unitary"):
        evolve(f, cfg, 0.05, 10 ** 18)


def test_evolve_memory_stays_near_one_field_copy(rng):
    """On square lattices, and on rows longer than one tile of ``_util.K_BLOCK``."""
    cfg = draw_time_generic(rng)
    for nx, ny in ((256, 256), (2, 2 ** 15)):
        f = SpinorField.random(nx, ny, rng)
        tracemalloc.start()
        try:
            evolve(f, cfg, 0.05, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * f.data.nbytes, (nx, ny)


@pytest.mark.parametrize("nx, ny", [(2, 2), (3, 5), (64, 64), (7, lattice._SITE_BLOCK + 3),
                                    (2, 2 ** 15)])
def test_random_field_is_one_draw_of_the_whole_field(nx, ny):
    """SpinorField.random, drawn a block of rows at a time, gives the bits of one normal
    draw of every real part and one of every imaginary part, over their norm, and holds
    nothing but the field and one block of draws."""
    f = SpinorField.random(nx, ny, np.random.default_rng(nx * ny))
    rng = np.random.default_rng(nx * ny)
    d = rng.normal(size=(2, nx, ny)) + 1j * rng.normal(size=(2, nx, ny))
    assert f.data.tobytes() == (d / np.linalg.norm(d)).tobytes()
    tracemalloc.start()
    try:
        SpinorField.random(nx, ny, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= f.data.nbytes + 8 * max(ny, lattice._SITE_BLOCK) + 4096, peak


def test_dft_uniform_and_delta():
    f = SpinorField(np.stack([np.ones((4, 4), dtype=complex),
                              np.zeros((4, 4), dtype=complex)]))
    fhat = dft(f)
    assert abs(fhat[0, 0, 0] - 16.0) <= 1e-12
    assert float(np.max(np.abs(fhat[0].flatten()[1:]))) <= 1e-12

    d = SpinorField.delta(4, 4)
    dhat = dft(d)
    assert np.allclose(dhat[0], 1.0, atol=1e-13)


def test_dft_roundtrip_and_parseval(rng):
    f = SpinorField.random(12, 12, rng)
    fhat = dft(f)
    back = idft(fhat)
    assert float(np.max(np.abs(back.data - f.data))) <= 1e-12
    # unnormalized forward: ||fhat||^2 = N ||f||^2
    assert abs(np.sum(np.abs(fhat) ** 2) - 144 * f.norm() ** 2) <= 1e-10


def test_fourier_consistency_step_vs_symbol(rng):
    cfg = draw_time_generic(rng)
    nx = ny = 32
    f = SpinorField.random(nx, ny, rng)
    lhs = dft(step(f, cfg, 0.05))
    kx, ky = momentum_grid(nx, ny)
    w = walk_k(cfg, kx, ky, 0.05)
    fhat = dft(f)
    rhs = np.einsum("xyab,bxy->axy", w, fhat)
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-10


def test_evolve_by_symbol_trivial_and_constant(rng):
    f = SpinorField.random(8, 8, rng)
    out = evolve_by_symbol(f, lambda kx, ky: np.zeros((2, 2)), 0.9)
    assert float(np.max(np.abs(out.data - f.data))) <= 1e-13

    c = 0.6
    out = evolve_by_symbol(f, lambda kx, ky: c * SZ, 1.3)
    expected = np.stack([f.data[0] * np.exp(-1j * c * 1.3),
                         f.data[1] * np.exp(+1j * c * 1.3)])
    assert float(np.max(np.abs(out.data - expected))) <= 1e-12


def test_evolve_by_symbol_matches_dense_per_k_oracle(rng):
    cfg = draw_time_compliant(rng)
    _, symbol = time_hamiltonian(cfg)
    nx = ny = 8
    f = SpinorField.random(nx, ny, rng)
    t = 0.8
    out = evolve_by_symbol(f, symbol, t)

    kx, ky = momentum_grid(nx, ny)
    fhat = dft(f)
    expect_hat = np.empty_like(fhat)
    for i in range(nx):
        for j in range(ny):
            h = symbol(float(kx[i, 0]), float(ky[0, j]))
            lam, v = np.linalg.eigh(h)
            u = v @ np.diag(np.exp(-1j * lam * t)) @ v.conj().T
            expect_hat[:, i, j] = u @ fhat[:, i, j]
    expected = idft(expect_hat)
    assert float(np.max(np.abs(out.data - expected.data))) <= 1e-12


def test_evolve_by_symbol_rejects_non_hermitian(rng):
    f = SpinorField.random(4, 4, rng)
    with pytest.raises(ValueError):
        evolve_by_symbol(f, lambda kx, ky: np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_csv_roundtrip(tmp_path, rng):
    f = SpinorField.random(5, 7, rng)
    path = tmp_path / "field.csv"
    save_csv(f, path)
    back = load_csv(path)
    assert back.shape == (5, 7)
    assert float(np.max(np.abs(back.data - f.data))) <= 1e-15


_HEADER = "l,m,re_L,im_L,re_R,im_R\n"
# the end of the one message ``load_csv`` refuses a file with
_CONTRACT = "in row-major order, as save_csv writes them"
_SITES_2X2 = "0,0,1,0,0,0\n0,1,2,0,0,0\n1,0,3,0,0,0\n1,1,4,0,0,0\n"


def _load_text(tmp_path, text):
    path = tmp_path / "field.csv"
    path.write_text(_HEADER + text)
    return load_csv(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [
    _SITES_2X2 + "-1,0,5,0,0,0\n",       # a negative index, which numpy wraps onto (1, 0)
    _SITES_2X2 + "1.5,0,5,0,0,0\n",      # a fractional index, which truncates onto (1, 0)
    "",                                  # header only, which numpy loads with a UserWarning
    "100000000,1,1,0,0,0\n",             # one row that would ask for a 10**8-row field
    _SITES_2X2.replace("1,1,", "0,1,"),  # a site twice, so another is missing
    _SITES_2X2[:-len("1,1,4,0,0,0\n")],  # a missing site, which would read as zero
    _SITES_2X2 + "nan,1,5,0,0,0\n",
    _SITES_2X2.replace(",0\n", "\n"),    # five columns
], ids=["negative", "fractional", "header-only", "huge-index", "duplicate", "missing",
        "nan-index", "short-rows"])
def test_load_csv_refuses_a_malformed_grid(tmp_path, text):
    """Before it allocates more than the file's own size."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=_CONTRACT):
            _load_text(tmp_path, text)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


# rows of a 4 x 4 grid in row-major order; read three to a block, a bad row can sit
# past the first block, inside a block, at its start or alone in the last
_SITES_4X4 = [f"{l},{m},{4 * l + m},0,0,0\n" for l in range(4) for m in range(4)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row,bad", [
    (7, "1,3,5,0,0\n"),       # a short row inside a block
    (9, "2,1,5,0,0\n"),       # a short row that starts a block
    (15, "3,3,5,0,0\n"),      # a short row alone in the last block
    (10, "-1,2,5,0,0,0\n"),   # a negative index
    (13, "3,0,5,0,0,0\n"),    # a site twice, so (3, 1) is missing
    (8, "2,0.5,5,0,0,0\n"),   # a fractional index
    (11, "nan,3,5,0,0,0\n"),
], ids=["short-row", "short-first-row", "short-last-row", "negative", "duplicate",
        "fractional", "nan-index"])
def test_load_csv_refuses_a_malformed_grid_in_a_later_block(tmp_path, monkeypatch, row, bad):
    monkeypatch.setattr(lattice, "_ROW_BLOCK", 3)
    sites = list(_SITES_4X4)
    sites[row] = bad
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=_CONTRACT):
            _load_text(tmp_path, "".join(sites))
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    assert _load_text(tmp_path, "".join(_SITES_4X4)).data[0].real.ravel().tolist() == list(range(16))


def _shuffled_rows(tmp_path) -> str:
    """The rows of a 4 x 5 field as ``save_csv`` writes them, in a fixed shuffled order."""
    save_csv(SpinorField.random(4, 5, np.random.default_rng(3)), tmp_path / "field.csv")
    rows = (tmp_path / "field.csv").read_text().splitlines(keepends=True)[1:]
    order = np.random.default_rng(4).permutation(len(rows))
    assert (order != np.arange(len(rows))).any()
    return "".join(rows[i] for i in order)


def _swapped_in_a_later_block(tmp_path) -> str:
    """The rows of a 4 x 4 grid with rows 7 and 8, inside the third block of three, swapped."""
    sites = list(_SITES_4X4)
    sites[7], sites[8] = sites[8], sites[7]
    return "".join(sites)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows,block", [
    (lambda tmp_path: "".join(reversed(_SITES_2X2.splitlines(keepends=True))), 2 ** 13),
    (_swapped_in_a_later_block, 3),
    (_shuffled_rows, 2 ** 13),
], ids=["reversed-2x2", "swap-in-a-later-block", "shuffled"])
def test_load_csv_refuses_rows_out_of_row_major_order(tmp_path, monkeypatch, rows, block):
    """Rows in any order but row-major are refused, before more than the file is allocated."""
    monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
    text = rows(tmp_path)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=_CONTRACT):
            _load_text(tmp_path, text)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("block", [2, 2 ** 13])
@pytest.mark.parametrize("text", [
    # the first line is the header even when it reads as a site of a 2 x 2 grid
    "1,1," + "0" * 40 + ",0,0,0\n",
    # the last row (0, 1) gives a 1 x 2 grid, and the rows run on past it in row-major order
    _HEADER + "".join(_SITES_4X4[:2] + _SITES_4X4[4:6]) + "0,1,0,0,0,0\n",
    # a whole 2 x 2 grid in row-major order, and then its last site again
    _HEADER + _SITES_2X2 + "1,1,5,0,0,0\n",
], ids=["numeric-header-alone", "rows-past-the-last-row", "grid-then-a-repeat"])
def test_load_csv_refuses_rows_that_disagree_with_the_last_row(tmp_path, monkeypatch, text,
                                                                block):
    """In blocks of about two rows, and in one block that holds the whole file."""
    monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
    path = tmp_path / "field.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=_CONTRACT):
        load_csv(path)


# B = _ROW_BLOCK: grids of k B - 1, k B and k B + 1 rows, read in blocks of B times the
# mean row length in bytes, to the end of a line: about B rows, or the whole file
@pytest.mark.parametrize("nx,ny,block", [
    (3, 5, 4), (4, 4, 4), (3, 3, 4),     # 4 B - 1, 4 B, 2 B + 1
    (3, 5, 8), (4, 4, 8), (2, 2, 3),     # 2 B - 1, 2 B, B + 1
    (3, 5, 16), (4, 4, 16), (2, 2, 4),   # B - 1 and B, in one block
])
def test_load_csv_round_trips_at_block_edges(tmp_path, rng, monkeypatch, nx, ny, block):
    monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
    field = SpinorField.random(nx, ny, rng)
    path = tmp_path / "field.csv"
    save_csv(field, path)
    back = load_csv(path)
    assert back.data.tobytes() == field.data.tobytes() == load_csv_table(path).data.tobytes()


@pytest.mark.parametrize("block", [2, 4, 16])
@pytest.mark.parametrize("extra", ["3,3,1,0,0,0\n", "4,0,1,0,0,0\n"], ids=["last-site-again",
                                                                             "next-site"])
def test_load_csv_refuses_a_row_after_a_full_last_block(tmp_path, rng, monkeypatch, block,
                                                        extra):
    """16 sites fill the last block of 2, 4 or 16 rows; one row more is refused."""
    monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
    path = tmp_path / "field.csv"
    save_csv(SpinorField.random(4, 4, rng), path)
    with open(path, "a") as fh:
        fh.write(extra)
    with pytest.raises(ValueError, match=_CONTRACT):
        load_csv(path)
    with pytest.raises(ValueError):
        load_csv_table(path)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(2, 9), ny=st.integers(2, 9), block=st.integers(1, 40),
       shuffle=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_load_csv_matches_the_whole_table_oracle(tmp_path_factory, nx, ny, block, shuffle, seed):
    """Row-major files fill the field block by block; shuffled rows are refused."""
    rng = np.random.default_rng(seed)
    field = SpinorField.random(nx, ny, rng)
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    save_csv(field, path)
    order = rng.permutation(nx * ny) if shuffle else np.arange(nx * ny)
    if shuffle:
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(rows[i] for i in order))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_ROW_BLOCK", block)
        if (order != np.arange(nx * ny)).any():
            with pytest.raises(ValueError, match=_CONTRACT):
                load_csv(path)
            return
        back = load_csv(path)
    assert back.data.tobytes() == field.data.tobytes() == load_csv_table(path).data.tobytes()


def _same_bits(a, b) -> bool:
    """Bit for bit equal, any NaN equal to any NaN."""
    a, b = (np.asarray(x).view(np.float64) for x in (a, b))
    return a.shape == b.shape and bool(
        ((a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))).all())


_ANY_DOUBLE = st.one_of(  # field-like values, which the kernel reads itself, and any other
    st.floats(-1.0, 1.0), st.floats(),
    st.integers(0, 2 ** 64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))))


@settings(max_examples=80, deadline=None)
@given(values=st.lists(_ANY_DOUBLE, min_size=24, max_size=24), block=st.integers(1, 4))
def test_load_csv_reads_any_doubles_as_the_table_oracle(tmp_path_factory, values, block):
    """Blocks of about ``block`` rows, each cell outside the kernel's grammar read by float."""
    field = SpinorField(np.array(values).view(np.complex128).reshape(2, 3, 2))
    path = tmp_path_factory.getbasetemp() / "doubles.csv"
    save_csv(field, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_ROW_BLOCK", block)
        back = load_csv(path)
    assert _same_bits(back.data, load_csv_table(path).data)
    assert _same_bits(back.data, field.data)


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(st.tuples(st.floats(-1e40, 1e40) | st.sampled_from([math.inf, -math.inf]),
                                st.sampled_from(["%r", "%.17g", "%e", "%.3f"])),
                      min_size=16, max_size=16),
       block=st.integers(1, 4))
def test_load_csv_reads_each_cell_as_float_does(tmp_path_factory, cells, block):
    """Floats as %r, %.17g, %e and %.3f write them, in blocks of about ``block`` rows.

    Below 1e40 in magnitude, so every row fits the 256 bytes a row may take.
    """
    texts = [fmt % x for x, fmt in cells]
    rows = [f"{site // 2},{site % 2}," + ",".join(texts[4 * site:4 * site + 4]) + "\n"
            for site in range(4)]
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    path.write_text(_HEADER + "".join(rows))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_ROW_BLOCK", block)
        data = load_csv(path).data.reshape(2, 4)
    parts = np.stack([data[0].real, data[0].imag, data[1].real, data[1].imag], axis=1)
    assert parts.tobytes() == np.array([float(t) for t in texts]).tobytes()


def _rows_with(row: int, col: int, cell: str) -> str:
    """The rows of _SITES_4X4 with one cell replaced."""
    sites = list(_SITES_4X4)
    cells = sites[row].split(",")
    cells[col] = cell + ("\n" if col == 5 else "")
    sites[row] = ",".join(cells)
    return "".join(sites)


# files np.loadtxt reads, each a variant of the 4 x 4 grid, the odd text in its third
# block of two rows or in every row: those in the format save_csv writes load as
# np.loadtxt reads them, and the others are refused
_LOADING = {
    "no-final-lf": "".join(_SITES_4X4)[:-1],
    "plus": _rows_with(5, 2, "+5"),
    "capital-e": _rows_with(5, 3, "4E0"),
    "inf": _rows_with(5, 4, "inf"),
    "minus-nan": _rows_with(5, 5, "-nan"),
}
_REFUSED = {
    "crlf": "".join(_SITES_4X4).replace("\n", "\r\n"),
    "comma-space": "".join(_SITES_4X4).replace(",", ", "),
    "fraction-index": _rows_with(5, 0, "1.0"),
    "blank-inside": "".join(_SITES_4X4[:5] + ["\n"] + _SITES_4X4[5:]),
    "blank-after": "".join(_SITES_4X4) + "\n\n",
    "comment-inside": "".join(_SITES_4X4[:5] + ["# a comment\n"] + _SITES_4X4[5:]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block", [2, 2 ** 10])
@pytest.mark.parametrize("name", [*_LOADING, *_REFUSED])
def test_load_csv_reads_what_loadtxt_reads_without_a_warning(tmp_path, monkeypatch, name, block):
    monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
    path = tmp_path / "field.csv"
    path.write_bytes((_HEADER + {**_LOADING, **_REFUSED}[name]).encode())
    table = load_csv_table(path).data
    if name in _LOADING:
        assert _same_bits(load_csv(path).data, table)
    else:
        with pytest.raises(ValueError, match=_CONTRACT):
            load_csv(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block", [2, 2 ** 10])
@pytest.mark.parametrize("text", [
    "".join(_SITES_4X4) + "# a comment\n",  # the last line is not a site
    _rows_with(5, 2, "4_0"),
    _rows_with(15, 0, "3.0"),  # the last row's index, which gives the grid, is not an integer
    _rows_with(5, 5, "0\n0").replace(",0\n0\n", "\n0\n", 1),  # a row over two lines
], ids=["comment-last", "underscore", "fraction-index-last", "row-over-two-lines"])
def test_load_csv_refuses_what_it_refused(tmp_path, monkeypatch, text, block):
    monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
    with pytest.raises(ValueError, match=_CONTRACT):
        _load_text(tmp_path, text)


@pytest.mark.parametrize("header", [
    _HEADER.replace("\n", "\r\n"), _HEADER.upper(), _HEADER.replace("\n", ",\n"), "\n",
], ids=["crlf", "upper-case", "seven-names", "blank"])
def test_load_csv_refuses_any_other_header(tmp_path, header):
    path = tmp_path / "field.csv"
    path.write_bytes((header + _SITES_2X2).encode())
    with pytest.raises(ValueError, match=_CONTRACT):
        load_csv(path)


def _long_row(row: int, length: int) -> str:
    """The rows of _SITES_4X4, one of them ``length`` bytes long: its re_L cell zero-padded."""
    sites = list(_SITES_4X4)
    l, m, re_l, rest = sites[row].split(",", 3)
    sites[row] = f"{l},{m},{re_l.zfill(length - len(sites[row]) + len(re_l))},{rest}"
    assert len(sites[row]) == length
    return "".join(sites)


@pytest.mark.parametrize("block", [3, 2 ** 10])
@pytest.mark.parametrize("row", [0, 8, 15], ids=["first", "middle", "last"])
def test_load_csv_refuses_rows_longer_than_256_bytes(tmp_path, monkeypatch, row, block):
    """Wherever the row sits (first, middle or last), in small blocks and in one."""
    monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
    back = _load_text(tmp_path, _long_row(row, 256))
    assert back.data.tobytes() == load_csv_table(tmp_path / "field.csv").data.tobytes()
    with pytest.raises(ValueError, match=_CONTRACT):
        _load_text(tmp_path, _long_row(row, 257))


def test_load_csv_refuses_a_long_line_in_bounded_memory(tmp_path):
    """A 20 MiB row of a 1 x 2 grid is refused without being read whole."""
    path = tmp_path / "field.csv"
    path.write_bytes((_HEADER + "0,0," + "0" * 20 * 2 ** 20 + ",0,0,0\n0,1,0,0,0,0\n").encode())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=_CONTRACT):
            load_csv(path)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def _raise(*args):
    raise AssertionError("a cell reached float")


@pytest.mark.parametrize("block", [2, 2 ** 10])
@pytest.mark.parametrize("final_lf", [True, False])
def test_save_csv_files_parse_as_bytes(tmp_path, rng, monkeypatch, block, final_lf):
    """No cell save_csv writes for a normalised field (with or without its last LF) reaches
    float: the kernel reads each itself."""
    d = SpinorField.random(5, 7, rng).data.copy()
    d[0, 0, 0] = complex(-0.0, 0.0)
    d[1, 2, 3] = complex(1e-5, -2.5e-200)
    path = tmp_path / "field.csv"
    save_csv(SpinorField(d), path)
    if not final_lf:
        path.write_bytes(path.read_bytes()[:-1])
    monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
    monkeypatch.setattr(_util, "_parse_exact", _raise)
    assert load_csv(path).data.tobytes() == d.tobytes()


def _scale(text: str) -> int:
    """q of a cell of the grammar, its value N / 10^q: the digits after its point plus its
    exponent."""
    mantissa, _, exponent = text.partition("e-")
    return len(mantissa.partition(".")[2]) + int(exponent or 0)


@pytest.mark.parametrize("block", [2, 2 ** 10])
def test_load_csv_hands_float_each_cell_outside_the_grammar(tmp_path, rng, monkeypatch, block):
    """One cell at a time, not its block: every cell the grammar rejects, and the cells of the
    grammar past the kernel's scale (q > 290), reach ``float``, and no other."""
    d = SpinorField.random(4, 4, rng).data.copy()
    d[0, 1] = [complex(12.5, -1e17), complex(1e300, -1e-300), complex(np.inf, -np.inf),
               complex(np.nan, -0.0)]
    d[1, 2] = [complex(5e-324, -2.2250738585072014e-308 / 3), complex(-123.456, 10.0),
               complex(-1e-310, 2 ** 70), complex(-0.0, 0.0)]
    field = SpinorField(d)
    path = tmp_path / "field.csv"
    save_csv(field, path)
    seen, fallback = [], _util._parse_exact

    def counting(buf, starts, ends):
        seen.extend(bytes(buf[s:e]).decode() for s, e in zip(starts, ends))
        return fallback(buf, starts, ends)

    monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
    monkeypatch.setattr(_util, "_parse_exact", counting)
    back = load_csv(path)
    assert back.data.tobytes() == field.data.tobytes() == load_csv_table(path).data.tobytes()
    cells = [cell for row in path.read_text().splitlines()[1:] for cell in row.split(",")[2:]]
    slow = [t for t in cells if not GRAMMAR.fullmatch(t) or _scale(t) > 290]
    assert sorted(seen) == sorted(slow) and len(slow) == 12  # all set above but +-0 and 10


def _extreme_field(rng, nx, ny) -> SpinorField:
    """Random values with negative zeros, subnormals and three-digit exponents."""
    d = SpinorField.random(nx, ny, rng).data.copy()
    d[0, 0, 0] = complex(-0.0, 5e-324)  # negative zero and the smallest subnormal
    d[1, -1, -1] = complex(2.2250738585072014e-308 / 3, -0.0)
    d[0, 0, -1] = complex(-0.0, -0.0)
    d[1, 0, 0] = complex(-5e-324, 1.0)
    d[:, nx // 2, :] *= 1e300  # three-digit exponents
    return SpinorField(d)


@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 5), (64, 64)])
def test_csv_roundtrip_is_bitwise_exact(tmp_path, rng, nx, ny):
    """17 significant digits round-trip every double, -0.0 included."""
    field = _extreme_field(rng, nx, ny)
    save_csv(field, tmp_path / "field.csv")
    assert load_csv(tmp_path / "field.csv").data.tobytes() == field.data.tobytes()


def test_snapshot_io_memory_stays_near_one_field(tmp_path, rng):
    """At 256^2, each snapshot path holds at most one field plus one block of rows.

    A block of about ``lattice._ROW_BLOCK`` CSV rows, its bytes and the temporaries of
    their parse, takes about 0.3 of a 256^2 field; the whole-table loader took 3.6
    fields, and a save or load through a whole second copy 2.  ``save_csv`` formats
    ``lattice._SITE_BLOCK`` sites at a time; ``save_binary`` writes the field as it is
    held, and ``load_binary`` reads into the field it returns.
    """
    f = SpinorField.random(256, 256, rng)
    csv, binary = tmp_path / "field.csv", tmp_path / "field.pwf"
    save_csv(f, csv)
    for name, call in (("save_csv", lambda: save_csv(f, csv)),
                       ("load_csv", lambda: load_csv(csv)),
                       ("save_binary", lambda: save_binary(f, binary)),
                       ("load_binary", lambda: load_binary(binary))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * f.data.nbytes, (name, peak / f.data.nbytes)


@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 5), (64, 64)])
def test_save_csv_matches_per_site_writer(tmp_path, rng, nx, ny):
    d = SpinorField.random(nx, ny, rng).data.copy()
    d[0, 0, 0] = complex(-0.0, 5e-324)  # negative zero and the smallest subnormal
    d[1, -1, -1] = complex(2.2250738585072014e-308 / 3, -0.0)
    d[:, nx // 2, :] *= 1e300  # three-digit exponents
    field = SpinorField(d)
    save_csv(field, tmp_path / "rows.csv")
    save_csv_per_site(field, tmp_path / "sites.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "sites.csv").read_bytes()


def test_save_csv_blocks_match_per_site_writer(tmp_path, rng, monkeypatch):
    """Blocks of 3 sites, which split the rows of a 4 x 5 field, write the same bytes."""
    d = SpinorField.random(4, 5, rng).data.copy()
    d[0, 0, :] = 0.0
    d[1, 1, :] = complex(-0.0, 5e-324)
    d[0, 2, 1:4] = complex(2.2250738585072014e-308 / 3, -0.0)
    d[1, 3, 4] = complex(np.nan, 1.0)
    monkeypatch.setattr(lattice, "_SITE_BLOCK", 3)
    save_csv(SpinorField(d), tmp_path / "blocks.csv")
    save_csv_per_site(SpinorField(d), tmp_path / "sites.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "sites.csv").read_bytes()


def _assert_binary_roundtrip(tmp_path, f: SpinorField):
    """Bit for bit, and a plain .npy: numpy.load reads the field as it is held."""
    path = tmp_path / "field.field.bin"
    save_binary(f, path)
    assert load_binary(path).data.tobytes() == f.data.tobytes()
    assert os.listdir(tmp_path) == ["field.field.bin"]  # written to the path as given
    plain = np.load(path, allow_pickle=False)
    assert plain.dtype == np.dtype("<c16") and plain.shape == (2, *f.shape)
    assert plain.tobytes() == f.data.tobytes()


def test_binary_roundtrip_exact(tmp_path, rng):
    _assert_binary_roundtrip(tmp_path, _extreme_field(rng, 6, 4))
    with pytest.raises(ValueError, match="the magic string is not correct"):
        load_binary(__file__)


def test_binary_roundtrip_of_a_random_512_field(tmp_path, rng):
    _assert_binary_roundtrip(tmp_path, SpinorField.random(512, 512, rng))


def _binary_file(tmp_path, rng, extra: bytes):
    path = tmp_path / "field.pwf"
    save_binary(SpinorField.random(3, 5, rng), path)
    with open(path, "ab") as fh:
        fh.write(extra)
    return path


def _npy_file(tmp_path, header: dict, payload: int, version: int = 1):
    """A .npy of version ``version``.0, the header ``header`` (descr, fortran_order, shape)
    and ``payload`` zero bytes."""
    path = tmp_path / "field.npy"
    write = (np.lib.format.write_array_header_1_0, np.lib.format.write_array_header_2_0)
    with open(path, "wb") as fh:
        write[version - 1](fh, header)
        fh.write(bytes(payload))
    return path


def test_load_binary_refuses_a_header_past_the_file_size(tmp_path):
    """65535 x 65535 sites would take 128 GiB: refused before anything is allocated."""
    path = _npy_file(tmp_path, {"descr": "<c16", "fortran_order": False,
                                "shape": (2, 65535, 65535)}, 0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="0 bytes of payload for 8589672450 values of "
                                             "16 bytes") as info:
            load_binary(path)
        assert str(info.value).startswith(f"{path}: ")
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_load_binary_refuses_trailing_bytes(tmp_path, rng):
    with pytest.raises(ValueError, match="512 bytes of payload for 30 values of 16 bytes"):
        load_binary(_binary_file(tmp_path, rng, bytes(32)))


def test_load_binary_refuses_a_partial_complex_value(tmp_path, rng):
    with pytest.raises(ValueError, match="483 bytes of payload for 30 values of 16 bytes"):
        load_binary(_binary_file(tmp_path, rng, bytes(3)))


_C16 = {"descr": "<c16", "fortran_order": False, "shape": (2, 3, 5)}


@pytest.mark.parametrize("header, payload, version, message", [
    pytest.param(_C16, 480, 2, "a .npy version 2.0", id="version-2.0"),
    pytest.param({**_C16, "descr": ">c16"}, 480, 1, r"C-order >c16 array of shape \(2, 3, 5\)",
                 id="big-endian"),
    pytest.param({**_C16, "descr": "<f8"}, 480, 1, "C-order <f8 array", id="float64"),
    pytest.param({**_C16, "fortran_order": True}, 480, 1, "a Fortran-order <c16 array",
                 id="fortran"),
    pytest.param({**_C16, "shape": (3, 2, 5)}, 480, 1, r"of shape \(3, 2, 5\)", id="3-planes"),
    pytest.param({**_C16, "shape": (2, 15)}, 480, 1, r"of shape \(2, 15\)", id="2-d"),
    pytest.param(_C16, 464, 1, "464 bytes of payload for 30 values", id="short"),
    pytest.param({**_C16, "shape": (2, 1, 15)}, 480, 1, r"must have shape \(2, Nx>=2, Ny>=2\)",
                 id="one-row"),
])
def test_load_binary_refuses_every_npy_that_save_binary_does_not_write(
        tmp_path, header, payload, version, message):
    """Another version, dtype, order or shape, or a size past the header's: one ValueError
    naming the path, with the reason and what save_binary writes."""
    path = _npy_file(tmp_path, header, payload, version)
    with pytest.raises(ValueError, match=message) as info:
        load_binary(path)
    assert str(info.value).startswith(f"{path}: ")
    assert "save_binary writes a .npy version 1.0" in str(info.value)
