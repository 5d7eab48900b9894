"""Real-space spinor fields on a periodic 2D grid.

A field holds two complex amplitudes (psi_L, psi_R) per site (l, m) of an
Nx x Ny torus, stored as a (2, Nx, Ny) complex array.  The walk step is
W = V_x V_y with V_i = S_i (C_i (x) Id): the y-factor acts first.

The coins do not depend on the site, so the walk is diagonal in momentum:
``evolve`` takes any number of steps at once as psi_hat(k) <- W(k)^steps
psi_hat(k), at a cost logarithmic in the step count.  ``step`` is the
real-space form of one step, and the oracle ``evolve`` is tested against.  Both
walk the unit lattice, one site a shift, and never read the spacing eps**a.

The spin-dependent shift moves the L component against the axis index and
the R component along it: output L at l reads input L at l+1 (x axis),
output R at l reads input R at l-1.

Discrete momenta follow numpy's fft order: 2 pi j / N mapped to
(-pi, pi].

File formats
------------
CSV: the header line ``l,m,re_L,im_L,re_R,im_R``, then one row of six cells per site
in row-major order, the only order ``load_csv`` reads; nx and ny are one more than the
last row's l and m.  Floats are as ``'%.17g' % x`` writes them, so every double (-0.0
too) reads back bit for bit.  ``save_csv`` lays out its rows with ``_util.grid_text`` and
``_util.g17_cells``, in binary mode: LF line ends on every platform.
``load_csv`` reads the bytes a block of rows at a time and parses them an array at a
time too: indices of plain digits, and floats exactly, by ``_util.g17_parse``, which
hands each cell outside its fast grammar (``inf``, ``nan``, ``12.5``) to ``float``.
It reads what ``save_csv`` writes and nothing else: cells separated by ``,``, rows
ended by LF (the last may have none) and at most 256 bytes long, no byte below ``-``
but ``+``, and float cells ``float`` reads, without ``_``.

Binary: a numpy ``.npy`` version 1.0 of the (2, Nx, Ny) ``<c16`` array in C order, the
field as it is held (``numpy.load`` reads it).  ``load_binary`` refuses any other
version, dtype, order or shape, and a size other than the header's plus 16 bytes a value.

``load_csv`` holds the field it fills plus one block of about ``_ROW_BLOCK`` rows (their
bytes and the parse's temporaries); ``save_csv`` holds the text of one tile of at most
``_SITE_BLOCK`` sites (``_util.grid_tiles``: whole rows, or one row's columns).
``save_binary`` holds no copy of the field, and ``load_binary`` only the field it reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import WalkConfig, _coin_su2, walk_planes
from .mat2 import _entries_su2, _power, _wrap
from ._util import (
    POWER_TOL, check_unitary, digits_parse, g17_cells, g17_parse, grid_text, grid_tiles, k_tiles,
)

__all__ = [
    "SpinorField",
    "step",
    "evolve",
    "momentum_grid",
    "save_csv",
    "load_csv",
    "save_binary",
    "load_binary",
]

_HEADER = b"l,m,re_L,im_L,re_R,im_R\n"
_NPY_DTYPE = np.dtype("<c16")
_ROW_PARTS = (b"", b",", b",", b",", b",", b",", b"\n")
_ROW_SEPARATORS = np.frombuffer(b"".join(_ROW_PARTS), dtype=np.uint8)

# About the CSV rows ``load_csv`` holds at once beside the field it fills: a block is
# _ROW_BLOCK times the file's mean row length in bytes, to the end of a line.  Measured
# on 256^2: the byte-level parse of a block peaks at 0.27 times the field's bytes (0.52
# at 2**11 rows), and 512^2 loads within 10% of the speed of 2**12-row blocks.
_ROW_BLOCK = 2 ** 10

# Most sites a tile of ``save_csv`` and of ``SpinorField.random`` holds.  Measured on
# 256^2: the peak traced memory of save_csv is 1.1x the field's bytes (2.2x at 2**12
# sites a block), and 512^2 is written as fast as with larger blocks.
_SITE_BLOCK = 2 ** 11


@dataclass(frozen=True)
class SpinorField:
    """Two-component wavefunction on a periodic Nx x Ny grid."""

    data: NDArray[np.complex128]  # shape (2, Nx, Ny)

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.complex128)
        if d.ndim != 3 or d.shape[0] != 2 or d.shape[1] < 2 or d.shape[2] < 2:
            raise ValueError(f"field data must have shape (2, Nx>=2, Ny>=2), got {d.shape}")
        object.__setattr__(self, "data", d)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[1], self.data.shape[2]

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.data) ** 2)))

    @staticmethod
    def delta(nx: int, ny: int) -> "SpinorField":
        """psi_L = 1 at site (0, 0), every other amplitude 0."""
        d = np.zeros((2, nx, ny), dtype=np.complex128)
        d[0, 0, 0] = 1.0
        return SpinorField(d)

    @staticmethod
    def plane_wave(nx: int, ny: int, kx: float, ky: float) -> "SpinorField":
        """The normalized plane wave e^{i(kx l + ky m)} in psi_L: the spinor (1, 0) times the
        wave, so psi_R holds the signed zeros of 0j times it.  Raises ValueError where a
        phase kx l + ky m overflows (a finite kx of 1e308 on 4 sites)."""
        ll = np.arange(nx)[:, None]
        mm = np.arange(ny)[None, :]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            phase = kx * ll + ky * mm
        if not np.isfinite(phase).all():
            raise ValueError(f"plane wave phase kx l + ky m is not finite on a {nx}x{ny} "
                             f"lattice (kx = {kx!r}, ky = {ky!r})")
        wave = np.exp(1j * phase)
        sp = np.array([1.0, 0.0], dtype=np.complex128)
        return SpinorField(sp[:, None, None] * wave[None, :, :] / np.sqrt(nx * ny))

    @staticmethod
    def random(nx: int, ny: int, rng: np.random.Generator) -> "SpinorField":
        """Normal draws from ``rng``, every real part and then every imaginary part in
        row-major order, scaled to norm 1.  They are drawn a tile of ``_util.grid_tiles``
        (``_SITE_BLOCK`` sites at most) at a time, the values one draw of the field gives."""
        d = np.empty((2, nx, ny), dtype=np.complex128)
        for plane in (*d.real, *d.imag):
            for tile in grid_tiles(nx, ny, _SITE_BLOCK):
                plane[tile] = rng.normal(size=plane[tile].shape)
        d /= np.linalg.norm(d)
        return SpinorField(d)


def _coins(cfg: WalkConfig, eps: float) -> tuple:
    """(C_x, C_y) at the drive ``cfg.drive(eps)`` in the two-plane form, checked to 1e-10."""
    s = cfg.drive(eps)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
        return tuple(check_unitary(_coin_su2(j, s), "coin", 1e-10) for j in (cfg.coin_x, cfg.coin_y))


def step(field: SpinorField, cfg: WalkConfig, eps: float) -> SpinorField:
    """One walk step W = V_x V_y, the y factor first: each coin of :func:`_coins` mixes
    (psi_L, psi_R) at every site, then L rolls one site against the axis and R one along it."""
    psi = field.data
    for coin, axis in zip(_coins(cfg, eps)[::-1], (1, 0)):  # C_y on axis 1, then C_x on 0
        a, b, c, d = _entries_su2(coin)
        up, down = psi
        psi = np.stack([np.roll(a * up + b * down, -1, axis=axis),
                        np.roll(c * up + d * down, +1, axis=axis)])
    return SpinorField(psi)


def evolve(field: SpinorField, cfg: WalkConfig, eps: float, steps: int) -> SpinorField:
    """``steps`` walk steps at once, in momentum space: psi_hat(k) <- W(k)^steps psi_hat(k).

    The same map as ``steps`` calls of :func:`step`, up to FFT roundoff (up to about
    2e-16 where stepping leaves exact zeros): W(k) of :func:`_coins` at the lattice
    momenta with spacing 1, so a plastic walk gives the bits of its walk at a = 0.
    W(k)^steps must be unitary to ``POWER_TOL``; ``steps == 0`` returns ``field``
    itself.  Memory beyond one copy of the field stays small: the FFTs run in place,
    one axis at a time, and the walk power is built a tile of ``_util.k_tiles`` at a time.
    """
    if steps == 0:
        return field
    pair = (1.0,) + _coins(cfg, eps)
    psi = field.data.copy()
    for axis in (2, 1):
        np.fft.fft(psi, axis=axis, out=psi)
    for tile, kx_t, ky_t in k_tiles(*momentum_grid(*field.shape)):
        with np.errstate(over="ignore", invalid="ignore"):
            a, b, c, d = _entries_su2(check_unitary(_power(walk_planes(pair, kx_t, ky_t), [steps]),
                                                    f"W(k)^{steps}", POWER_TOL))
        up, down = psi[0][tile], psi[1][tile]
        psi[0][tile], psi[1][tile] = a * up + b * down, c * up + d * down
    for axis in (2, 1):
        np.fft.ifft(psi, axis=axis, out=psi)
    return SpinorField(psi)


def momentum_grid(nx: int, ny: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Discrete momenta 2 pi j / N mapped to (-pi, pi], as broadcastable grids."""
    kx, ky = (_wrap(2.0 * np.pi * np.fft.fftfreq(n)) for n in (nx, ny))
    return kx[:, None], ky[None, :]


def save_csv(field: SpinorField, path) -> None:
    """Write a field CSV by ``_util.grid_text``, a tile of at most ``_SITE_BLOCK`` sites at a
    time, in binary mode (LF line ends): a row is ``l,m,`` and then the four floats of the
    site as ``_util.g17_cells`` formats them, ``'%.17g'`` byte for byte."""
    keys = [np.array([b"%d" % i for i in range(n)]).view(np.uint8).reshape(n, -1)
            for n in field.shape]
    with open(path, "wb") as fh:
        fh.write(_HEADER)
        # psi_L then psi_R of each site, as (re, im) pairs
        fh.writelines(grid_text(keys, field.data.transpose(1, 2, 0), _ROW_PARTS, g17_cells,
                                _SITE_BLOCK))


def load_csv(path) -> SpinorField:
    """Read a field CSV in the one format :func:`save_csv` writes (module docstring).

    The last row fixes the grid, which is checked against the file size before the field
    is allocated; each block of parsed rows must be the next sites, so the rows end with
    that last one exactly where the field is full.  Any other file raises ValueError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fh.seek(max(0, size - 256))  # the last row: no row is longer
        last = fh.read().rstrip().rsplit(b"\n", 1)[-1].split(b",")
        try:
            nx, ny = int(last[0]) + 1, int(last[1]) + 1
            rows = nx * ny
            if min(nx, ny) < 1 or 12 * rows > size:  # the shortest row is "0,0,0,0,0,0\n"
                raise ValueError(f"the last row asks for {nx} x {ny} sites")
            d = np.empty((2, rows), dtype=np.complex128)
            fh.seek(0)
            if fh.readline(len(_HEADER)) != _HEADER:
                raise ValueError("the header is not save_csv's")
            start = 0
            # a save_csv row takes at most 128 bytes: a file of longer rows is not one, and
            # its blocks stay as small
            for block in _csv_blocks(fh, _ROW_BLOCK * min(size // rows, 128)):
                stop = start + len(block)
                l, m = np.divmod(np.arange(start, stop), ny)
                if stop > rows or not (np.array_equal(block[:, 0], l)
                                       and np.array_equal(block[:, 1], m)):
                    raise ValueError(f"rows {start + 1} to {stop} are not the next sites")
                # part by part: re + 1j * im would turn a -0.0 part into +0.0
                d.real[:, start:stop] = block[:, 2::2].T
                d.imag[:, start:stop] = block[:, 3::2].T
                start = stop
                del block  # one block at a time
            return SpinorField(d.reshape(2, nx, ny))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}: need a header line, then a row l,m,re_L,im_L,re_R,im_R "
                             "for each site in row-major order, as save_csv writes them") from exc


def _csv_blocks(fh, size):
    """The rows after the header as (rows, 6) tables (:func:`_parse_rows`), ``size`` bytes
    at a time and then to the end of the line.  That rest is read 256 bytes at most, so a
    longer row is refused without being read whole."""
    # the kernels read 24 bytes before a cell and 8 after; a last line may need its LF
    buf = np.zeros(24 + size + 256 + 1 + 8, dtype=np.uint8)
    while n := fh.readinto(buf[24:24 + size]):
        line = fh.readline(256)
        buf[24 + n:24 + n + len(line)] = np.frombuffer(line, dtype=np.uint8)
        yield _parse_rows(buf, n + len(line))


def _parse_rows(buf, n: int):
    """The rows ``l,m,re_L,im_L,re_R,im_R`` in the ``n`` bytes from ``buf[24]`` as a (rows, 6)
    table.  Raises ValueError unless each row is six cells separated by ``,`` and ended by LF,
    256 bytes at most: indices of 1 to 8 digits (``_util.digits_parse``), then floats
    (``_util.g17_parse``)."""
    if buf[24 + n - 1] != 10:  # the last line of the file may have no LF
        buf[24 + n] = 10
        n += 1
    ends = np.flatnonzero(buf[24:24 + n] <= 44)  # separators, and any other byte below '-'
    ends += 24
    ends = ends[buf[ends] != 43]  # but a '+' is inside its cell
    if len(ends) % 6 or (buf[ends].reshape(-1, 6) != _ROW_SEPARATORS).any():
        raise ValueError("a row is not six cells separated by ',' and ended by LF")
    ends = ends.reshape(-1, 6)
    starts = np.empty_like(ends)  # a cell starts one past the separator before it
    starts[0, 0] = 24
    starts[1:, 0] = ends[:-1, 5] + 1
    starts[:, 1:] = ends[:, :5] + 1
    if (ends[:, 5] - starts[:, 0] >= 256).any():  # more than 256 bytes with its LF
        raise ValueError("a row is longer than 256 bytes")
    sites = digits_parse(buf, starts[:, :2], ends[:, :2])
    floats = starts[:, 2:].ravel(), ends[:, 2:].ravel()
    del starts, ends
    table = np.empty((len(sites), 6))
    table[:, :2] = sites
    table[:, 2:] = g17_parse(buf, *floats).reshape(-1, 4)
    return table


def save_binary(field: SpinorField, path) -> None:
    """Write the field as it is held, to ``path`` as given: a ``.npy`` version 1.0 of the
    (2, Nx, Ny) ``<c16`` array, its header and then the array's bytes, with no copy."""
    data = np.ascontiguousarray(field.data, dtype=_NPY_DTYPE)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, np.lib.format.header_data_from_array_1_0(data))
        fh.write(data)


def load_binary(path) -> SpinorField:
    """Read a field ``.npy`` in the one layout :func:`save_binary` writes (module docstring):
    the header, and the file size against it, are checked before the field is allocated and
    read with one ``np.fromfile``.  Any other file raises ValueError."""
    with open(path, "rb") as fh:
        try:
            if (version := np.lib.format.read_magic(fh)) != (1, 0):
                raise ValueError("a .npy version %d.%d" % version)
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            if dtype != _NPY_DTYPE or fortran or len(shape) != 3 or shape[0] != 2:
                raise ValueError(f"a {'Fortran' if fortran else 'C'}-order {dtype.str} array "
                                 f"of shape {shape}")
            count, size = 2 * shape[1] * shape[2], os.fstat(fh.fileno()).st_size - fh.tell()
            if size != 16 * count:
                raise ValueError(f"{size} bytes of payload for {count} values of 16 bytes")
            return SpinorField(np.fromfile(fh, dtype=_NPY_DTYPE, count=count).reshape(shape))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}; save_binary writes a .npy version 1.0 of a "
                             "C-order (2, nx, ny) <c16 array, nx and ny at least 2") from exc
