import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasticwalk import CoinJet, WalkConfig, SpinorField, lattice, walk_k
from plasticwalk.lattice import (
    apply_coin, evolve, load_binary, load_csv, momentum_grid, save_binary, save_csv, shift,
    step,
)
from plasticwalk.mat2 import ID2, SX, SZ, rot
from plasticwalk.timelimit import time_hamiltonian

from conftest import draw_plastic_generic, draw_time_compliant, draw_time_generic
from oracles import (
    apply_shift_word, dft, evolve_by_symbol, idft, load_csv_table, save_csv_per_site,
)


def test_shift_moves_left_component_down():
    f = SpinorField.delta(8, 8, site=(3, 0), component=0)
    out = shift(f, "x")
    assert out.data[0, 2, 0] == 1.0
    assert np.count_nonzero(out.data) == 1


def test_shift_moves_right_component_up():
    f = SpinorField.delta(8, 8, site=(3, 0), component=1)
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
    f = SpinorField.delta(8, 8, site=(3, 3), component=0)
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
    f = SpinorField.plane_wave(nx, ny, kx, ky, spinor)
    stepped = step(f, cfg, 0.02)
    expected_spinor = walk_k(cfg, kx, ky, 0.02) @ (spinor / np.linalg.norm(spinor))
    expected = SpinorField.plane_wave(nx, ny, kx, ky, expected_spinor)
    # plane_wave normalizes the spinor; expected_spinor is unit already
    assert float(np.max(np.abs(stepped.data - expected.data))) <= 1e-10


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


def test_evolve_zero_steps_returns_the_input(rng):
    f = SpinorField.random(5, 3, rng)
    assert evolve(f, draw_time_generic(rng), 0.05, 0).data is f.data


def test_evolve_rejects_non_unitary_coin(rng, monkeypatch):
    f = SpinorField.random(4, 4, rng)
    cfg = draw_time_generic(rng)
    monkeypatch.setattr(lattice, "coin_at", lambda jet, s: np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="unitary"):
        evolve(f, cfg, 0.05, 3)


def test_evolve_rejects_a_power_past_double_precision(rng):
    """Squaring adds about 5e-16 of unitarity defect a step: 1e18 steps is noise."""
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
_SITES_2X2 = "0,0,1,0,0,0\n0,1,2,0,0,0\n1,0,3,0,0,0\n1,1,4,0,0,0\n"


def _load_text(tmp_path, text):
    path = tmp_path / "field.csv"
    path.write_text(_HEADER + text)
    return load_csv(path)


def test_load_csv_reads_rows_in_any_order(tmp_path):
    back = _load_text(tmp_path, "".join(reversed(_SITES_2X2.splitlines(keepends=True))))
    assert back.data[0].real.tolist() == [[1.0, 2.0], [3.0, 4.0]]


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
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            _load_text(tmp_path, "".join(sites))
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    assert _load_text(tmp_path, "".join(_SITES_4X4)).data[0].real.ravel().tolist() == list(range(16))


@pytest.mark.parametrize("block", [2, 2 ** 13])
@pytest.mark.parametrize("text,message", [
    # the first line is the header even when it reads as a site of a 2 x 2 grid
    ("1,1," + "0" * 40 + ",0,0,0\n", "six columns"),
    # the last row (0, 1) gives a 1 x 2 grid, and the rows run on past it in row-major order
    (_HEADER + "".join(_SITES_4X4[:2] + _SITES_4X4[4:6]) + "0,1,0,0,0,0\n", "need each site"),
    # a whole 2 x 2 grid in row-major order, and then its last site again
    (_HEADER + _SITES_2X2 + "1,1,5,0,0,0\n", "need each site"),
], ids=["numeric-header-alone", "rows-past-the-last-row", "grid-then-a-repeat"])
def test_load_csv_refuses_rows_that_disagree_with_the_last_row(tmp_path, monkeypatch, text,
                                                                message, block):
    """In blocks of two rows, and in the one call that reads a grid of one block."""
    monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
    path = tmp_path / "field.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_csv(path)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(2, 9), ny=st.integers(2, 9), block=st.integers(1, 40),
       shuffle=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_load_csv_matches_the_whole_table_oracle(tmp_path_factory, nx, ny, block, shuffle, seed):
    """Row-major files fill the field block by block; shuffled rows take the scatter path."""
    rng = np.random.default_rng(seed)
    field = SpinorField.random(nx, ny, rng)
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    save_csv(field, path)
    if shuffle:
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(rows[i] for i in rng.permutation(len(rows))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_ROW_BLOCK", block)
        back = load_csv(path)
        assert np.array_equal(back.data, load_csv_table(path).data)
    assert back.data.tobytes() == field.data.tobytes()


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
    """At 256^2, each snapshot path holds one field plus one block of rows or sites.

    A block of ``lattice._ROW_BLOCK`` CSV rows and its index checks take under a
    third of a 256^2 field; the whole-table loader took 3.6 fields, and a save or
    load through a whole second copy 2.  ``save_csv`` formats ``lattice._SITE_BLOCK``
    sites at a time.
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


def test_binary_roundtrip_exact(tmp_path, rng):
    f = _extreme_field(rng, 6, 4)
    path = tmp_path / "field.pwf"
    save_binary(f, path)
    back = load_binary(path)
    assert back.data.tobytes() == f.data.tobytes()
    with pytest.raises(ValueError):
        load_binary(__file__)


def _binary_file(tmp_path, rng, extra: bytes):
    path = tmp_path / "field.pwf"
    save_binary(SpinorField.random(3, 5, rng), path)
    with open(path, "ab") as fh:
        fh.write(extra)
    return path


def test_load_binary_refuses_a_header_past_the_file_size(tmp_path):
    """65535 x 65535 sites would take 128 GiB: refused before anything is allocated."""
    path = tmp_path / "huge.pwf"
    path.write_bytes(lattice._MAGIC + np.array([65535, 65535], dtype="<u4").tobytes())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="65535 x 65535 field takes 137434759200 bytes "
                                             "of payload, the file has 0"):
            load_binary(path)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_load_binary_refuses_trailing_bytes(tmp_path, rng):
    with pytest.raises(ValueError, match="3 x 5 field takes 480 bytes of payload, the file has 512"):
        load_binary(_binary_file(tmp_path, rng, bytes(32)))


def test_load_binary_refuses_a_partial_complex_value(tmp_path, rng):
    with pytest.raises(ValueError, match="payload of 483 bytes is not a whole number of 16-byte"):
        load_binary(_binary_file(tmp_path, rng, bytes(3)))
