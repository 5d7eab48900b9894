"""Real-space spinor fields on a periodic 2D grid.

A field holds two complex amplitudes (psi_L, psi_R) per site (l, m) of an
Nx x Ny torus, stored as a (2, Nx, Ny) complex array.  The walk step is
W = V_x V_y with V_i = S_i (C_i (x) Id): the y-factor acts first.

The coins do not depend on the site, so the walk is diagonal in momentum:
``evolve`` takes any number of steps at once as psi_hat(k) <- W(k)^steps
psi_hat(k), at a cost logarithmic in the step count.  ``step`` is the
real-space form of one step, and the oracle ``evolve`` is tested against.

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
too) reads back bit for bit.  ``save_csv`` formats them an array at a time
(``_util.g17_cells``) and writes in binary mode: LF line ends on every platform.
``load_csv`` reads the bytes a block of rows at a time and parses them an array at a
time too: indices of plain digits, and floats exactly, by ``_util.g17_parse``, which
hands each cell outside its fast grammar (``inf``, ``nan``, ``12.5``) to ``float``.
It reads what ``save_csv`` writes and nothing else: cells separated by ``,``, rows
ended by LF (the last may have none) and at most 256 bytes long, no byte below ``-``
but ``+``, and float cells ``float`` reads, without ``_``.

Binary (little-endian): magic ``b"PWFLD1\\x00\\x00"`` (8 bytes), then Nx,
Ny as uint32, then the payload: row-major over sites, for each site
psi_L then psi_R as complex128 (re, im float64 pairs).

Both readers hold the field they fill plus one block of about ``_ROW_BLOCK`` rows
(their bytes and the parse's temporaries) or exactly ``_ROW_BLOCK`` sites; ``save_csv``
holds the text of one block of ``_SITE_BLOCK`` sites, and ``save_binary`` one
interleaved copy of the field.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import WalkConfig, coin_at, coin_pair, walk_planes
from .mat2 import _entries_su2, _power, _wrap
from ._util import (
    POWER_TOL, cells_text, check_unitary, digits_parse, g17_cells, g17_parse, k_tiles,
)

__all__ = [
    "SpinorField",
    "shift",
    "apply_coin",
    "step",
    "evolve",
    "momentum_grid",
    "save_csv",
    "load_csv",
    "save_binary",
    "load_binary",
]

_MAGIC = b"PWFLD1\x00\x00"
_HEADER = b"l,m,re_L,im_L,re_R,im_R\n"
_ROW_SEPARATORS = np.frombuffer(b",,,,,\n", dtype=np.uint8)

# About the CSV rows, or exactly the binary sites, a snapshot reader holds at once beside
# the field it fills.  A CSV block is _ROW_BLOCK times the file's mean row length in
# bytes, to the end of a line.  Measured on 256^2: the byte-level parse of a block peaks
# at 0.27 times the field's bytes (0.52 at 2**11 rows), and 512^2 loads within 10% of
# the speed of 2**12-row blocks.
_ROW_BLOCK = 2 ** 10

# Most sites ``save_csv`` formats at once.  Measured on 256^2: its peak traced memory
# is 1.1x the field's bytes (2.2x at 2**12 sites a block), and 512^2 is written as fast
# as with larger blocks.
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
    def delta(nx: int, ny: int, site: tuple[int, int] = (0, 0),
              component: int = 0) -> "SpinorField":
        """Unit amplitude in one component at one site."""
        d = np.zeros((2, nx, ny), dtype=np.complex128)
        d[component, site[0] % nx, site[1] % ny] = 1.0
        return SpinorField(d)

    @staticmethod
    def plane_wave(nx: int, ny: int, kx: float, ky: float,
                   spinor=(1.0, 0.0)) -> "SpinorField":
        """Normalized plane wave e^{i(kx l + ky m)} times a fixed spinor."""
        ll = np.arange(nx)[:, None]
        mm = np.arange(ny)[None, :]
        wave = np.exp(1j * (kx * ll + ky * mm))
        sp = np.asarray(spinor, dtype=np.complex128)
        sp = sp / np.linalg.norm(sp)
        d = sp[:, None, None] * wave[None, :, :] / np.sqrt(nx * ny)
        return SpinorField(d)

    @staticmethod
    def random(nx: int, ny: int, rng: np.random.Generator | None = None) -> "SpinorField":
        rng = rng or np.random.default_rng()
        d = rng.normal(size=(2, nx, ny)) + 1j * rng.normal(size=(2, nx, ny))
        return SpinorField(d / np.linalg.norm(d))


def shift(field: SpinorField, axis: str) -> SpinorField:
    """Spin-dependent shift along 'x' or 'y'; an exact permutation."""
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    ax = 0 if axis == "x" else 1
    out = np.empty_like(field.data)
    out[0] = np.roll(field.data[0], -1, axis=ax)  # L at l reads input at l+1
    out[1] = np.roll(field.data[1], +1, axis=ax)  # R at l reads input at l-1
    return SpinorField(out)


def apply_coin(field: SpinorField, c: NDArray[np.complex128]) -> SpinorField:
    """Left-multiply the spinor at every site by the unitary 2x2 coin."""
    return SpinorField(np.einsum("ab,bxy->axy", check_unitary(c, "coin", 1e-10), field.data))


def step(field: SpinorField, cfg: WalkConfig, eps: float) -> SpinorField:
    """One walk step W = V_x V_y (the y factor acts first)."""
    s = cfg.drive(eps)
    out = apply_coin(field, coin_at(cfg.coin_y, s))
    out = shift(out, "y")
    out = apply_coin(out, coin_at(cfg.coin_x, s))
    out = shift(out, "x")
    return out


def evolve(field: SpinorField, cfg: WalkConfig, eps: float, steps: int) -> SpinorField:
    """``steps`` walk steps at once, in momentum space: psi_hat(k) <- W(k)^steps psi_hat(k).

    The same map as ``steps`` calls of :func:`step`, up to FFT roundoff (up to
    about 2e-16 where stepping leaves exact zeros).  W(k) is evaluated at k / spacing,
    so each shift moves one site in plastic mode too.  Both coins must be
    unitary to 1e-10, and W(k)^steps to ``POWER_TOL``; ``steps == 0`` returns
    ``field`` itself.  Memory beyond one copy of the field stays small: the
    FFTs run in place, one axis at a time, and the walk power is built one tile
    of ``_util.k_tiles`` at a time.
    """
    if steps == 0:
        return field
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
        pair = coin_pair(cfg, eps)
        for coin in pair[1:]:
            check_unitary(coin, "coin", 1e-10)
    nx, ny = field.shape
    kx, ky = (k / pair[0] for k in momentum_grid(nx, ny))
    psi = field.data.copy()
    for axis in (2, 1):
        np.fft.fft(psi, axis=axis, out=psi)
    for tile, kx_t, ky_t in k_tiles(kx, ky):
        with np.errstate(over="ignore", invalid="ignore"):
            a, b, c, d = _entries_su2(check_unitary(_power(walk_planes(pair, kx_t, ky_t), steps),
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
    """Write a field CSV, ``_SITE_BLOCK`` sites at a time, in binary mode (LF line ends).

    A row is ``l,m,`` from per-axis tables, then the four floats of the site as
    ``_util.g17_cells`` formats them, ``'%.17g'`` byte for byte; the NUL bytes of
    each block are deleted as it is written.
    """
    nx, ny = field.shape
    l_cells, m_cells = _index_cells(nx), _index_cells(ny)
    sites = field.data.reshape(2, nx * ny)
    with open(path, "wb") as fh:
        fh.write(_HEADER)
        for start in range(0, nx * ny, _SITE_BLOCK):
            l, m = np.divmod(np.arange(start, min(start + _SITE_BLOCK, nx * ny)), ny)
            # psi_L then psi_R of each site, as (re, im) pairs
            cells = g17_cells(sites[:, start:start + len(l)].T.copy().view(np.float64))
            cells[:, :, -1] = ord(",")
            cells[:, -1, -1] = ord("\n")
            rows = (l_cells.take(l, axis=0), m_cells.take(m, axis=0),
                    cells.reshape(len(l), -1).view(np.uint32))
            fh.write(cells_text(np.concatenate(rows, axis=1)))


def _index_cells(n: int) -> NDArray[np.uint32]:
    """b"i," for each index i below n, NUL-padded to whole 4-byte words, as (n, words)."""
    text = [b"%d," % i for i in range(n)]
    width = -(-len(text[-1]) // 4) * 4
    return np.array(text, dtype=f"S{width}").view(np.uint32).reshape(n, -1)


def load_csv(path) -> SpinorField:
    """Read a field CSV in the one format :func:`save_csv` writes (module docstring).

    The grid is checked against the file size before the field is allocated, and each
    block of parsed rows against the sites it must hold.  Any other file raises ValueError.
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
            if start != rows:
                raise ValueError(f"{start} rows for {rows} sites")
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
    nx, ny = field.shape
    # row-major over sites, psi_L then psi_R per site: one interleaved copy, written as it is
    payload = np.moveaxis(field.data, 0, -1).astype("<c16", order="C")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + np.array([nx, ny], dtype="<u4").tobytes())
        fh.write(payload)


def load_binary(path) -> SpinorField:
    """Read a field binary.

    Raises ValueError on a bad magic, and unless the payload holds exactly the
    header's nx * ny sites, which is checked against the file size before
    anything is allocated.  The payload is read ``_ROW_BLOCK`` sites at a time.
    """
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:8] != _MAGIC:
            raise ValueError(f"not a spinor-field file (bad magic {head[:8]!r})")
        nx, ny = (int(n) for n in np.frombuffer(head, dtype="<u4", offset=8))
        sites, payload = nx * ny, os.fstat(fh.fileno()).st_size - 16
        if payload % 16:
            raise ValueError(f"{path}: a payload of {payload} bytes is not a whole number "
                             "of 16-byte complex values")
        if payload != 32 * sites:
            raise ValueError(f"{path}: a {nx} x {ny} field takes {32 * sites} bytes of "
                             f"payload, the file has {payload}")
        d = np.empty((2, sites), dtype=np.complex128)
        block = np.empty((min(sites, _ROW_BLOCK), 2), dtype="<c16")
        for start in range(0, sites, _ROW_BLOCK):
            part = block[:sites - start]
            if fh.readinto(part) != part.nbytes:
                raise ValueError(f"{path}: the payload ended early")
            d[:, start:start + len(part)] = part.T
    return SpinorField(d.reshape(2, nx, ny))
