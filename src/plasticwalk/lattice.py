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
CSV: header ``l,m,re_L,im_L,re_R,im_R``, one row per site, row-major in
(l, m), floats at 17 significant digits, so every double (-0.0 too) reads
back bit for bit.

Binary (little-endian): magic ``b"PWFLD1\\x00\\x00"`` (8 bytes), then Nx,
Ny as uint32, then the payload: row-major over sites, for each site
psi_L then psi_R as complex128 (re, im float64 pairs).

Both readers hold the field they fill plus one block of ``_ROW_BLOCK`` rows
or sites; ``save_binary`` holds one interleaved copy of the field.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import WalkConfig, coin_at, walk_k
from .mat2 import unitarity_defect
from ._util import POWER_TOL, stack_power

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

# Most k-points ``evolve`` holds a walk power for at once.  Measured on 256^2: the
# peak traced memory of an evolution is 1.7x the field's bytes at 2**12 k-points a
# block (3.9x at 2**14), and 512^2 x 1000 steps is no slower than with larger blocks.
_K_BLOCK = 2 ** 12

# Most CSV rows, or binary sites, a snapshot reader holds at once beside the field it
# fills.  Measured on 512^2: parsing 2**13 rows a block is as fast as one np.loadtxt of
# the whole file, whose table is 32 such blocks.
_ROW_BLOCK = 2 ** 13


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


def _unitary(c) -> NDArray[np.complex128]:
    """The coin as a complex array, if it is unitary to 1e-10."""
    c = np.asarray(c, dtype=np.complex128)
    if not float(unitarity_defect(c)) <= 1e-10:  # a NaN defect fails too
        raise ValueError("coin must be unitary to 1e-10")
    return c


def apply_coin(field: SpinorField, c: NDArray[np.complex128]) -> SpinorField:
    """Left-multiply the spinor at every site by the unitary 2x2 coin."""
    return SpinorField(np.einsum("ab,bxy->axy", _unitary(c), field.data))


def step(field: SpinorField, cfg: WalkConfig, eps: float) -> SpinorField:
    """One walk step W = V_x V_y (the y factor acts first)."""
    out = apply_coin(field, coin_at(cfg.coin_y, eps))
    out = shift(out, "y")
    out = apply_coin(out, coin_at(cfg.coin_x, eps))
    out = shift(out, "x")
    return out


def evolve(field: SpinorField, cfg: WalkConfig, eps: float, steps: int) -> SpinorField:
    """``steps`` walk steps at once, in momentum space: psi_hat(k) <- W(k)^steps psi_hat(k).

    The same map as ``steps`` calls of :func:`step`, up to FFT roundoff (up to
    about 2e-16 where stepping leaves exact zeros).  W(k) is evaluated at k / spacing,
    so each shift moves one site in plastic mode too.  Both coins must be
    unitary to 1e-10, and W(k)^steps to ``POWER_TOL``; ``steps == 0`` returns
    ``field`` itself.  Memory beyond one copy of the field stays small: the
    FFTs run in place, one axis at a time, and the walk power is built for at
    most ``_K_BLOCK`` k-points at once.
    """
    if steps == 0:
        return field
    for jet in (cfg.coin_x, cfg.coin_y):
        _unitary(coin_at(jet, eps))
    nx, ny = field.shape
    spacing = cfg.spacing(eps)
    kx, ky = (k / spacing for k in momentum_grid(nx, ny))
    psi = field.data.copy()
    for axis in (2, 1):
        np.fft.fft(psi, axis=axis, out=psi)
    # tiles of whole kx rows, or of one row's ky columns when a row alone is too long
    rows, cols = max(1, _K_BLOCK // ny), min(ny, _K_BLOCK)
    for r0, c0 in itertools.product(range(0, nx, rows), range(0, ny, cols)):
        tile = np.s_[r0:r0 + rows, c0:c0 + cols]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the gate
            # broadcast momenta: a tile takes one exponential per row and per column
            w = stack_power(walk_k(cfg, kx[r0:r0 + rows], ky[:, c0:c0 + cols], eps), steps)
            defect = float(np.max(unitarity_defect(w)))
        if not defect <= POWER_TOL:
            raise ValueError(f"W(k)^{steps} is not unitary to {POWER_TOL:g} (defect "
                             f"{defect:.3e}): roundoff grows about 5e-16 a step")
        up, down = psi[0][tile], psi[1][tile]
        psi[0][tile], psi[1][tile] = (w[..., 0, 0] * up + w[..., 0, 1] * down,
                                      w[..., 1, 0] * up + w[..., 1, 1] * down)
    for axis in (2, 1):
        np.fft.ifft(psi, axis=axis, out=psi)
    return SpinorField(psi)


def momentum_grid(nx: int, ny: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Discrete momenta 2 pi j / N mapped to (-pi, pi], as broadcastable grids."""
    kx = 2.0 * np.pi * np.fft.fftfreq(nx)
    ky = 2.0 * np.pi * np.fft.fftfreq(ny)
    kx = np.where(kx <= -np.pi + 1e-15, kx + 2.0 * np.pi, kx)
    ky = np.where(ky <= -np.pi + 1e-15, ky + 2.0 * np.pi, ky)
    return kx[:, None], ky[None, :]


def save_csv(field: SpinorField, path) -> None:
    nx, ny = field.shape
    # the cells of one site; a row puts str(l) before each.  %.17g is f"{x:.17g}"
    cells = [f",{m},%.17g,%.17g,%.17g,%.17g\n" for m in range(ny)]
    with open(path, "w") as fh:
        fh.write("l,m,re_L,im_L,re_R,im_R\n")
        for l in range(nx):
            sites = field.data[:, l, :].T  # (ny, 2): psi_L, psi_R
            values = np.stack((sites.real, sites.imag), axis=-1).ravel().tolist()
            fh.write(str(l).join([""] + cells) % tuple(values))


def load_csv(path) -> SpinorField:
    """Read a field CSV: nx x ny sites, with nx and ny one more than the largest l and m.

    Raises ValueError unless every row has six columns, l and m are integers >= 0,
    and each site of the nx x ny grid has exactly one row, in any order.  The rows
    are parsed at most ``_ROW_BLOCK`` at a time.  Rows in row-major order, as
    :func:`save_csv` writes them, fill the field in place; rows in any other
    order are kept as a whole table and scattered.
    """
    with open(path) as fh, warnings.catch_warnings():
        # a block past the last row has no data; a header-only file is refused below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        d = _load_row_major(fh, path)
        if d is None:
            d = _load_any_order(fh, path)
    return SpinorField(d)


def _csv_blocks(fh, path):
    """The rows after the header, at most ``_ROW_BLOCK`` a block, as (rows, 6) floats."""
    fh.seek(0)
    fh.readline()
    rows = _ROW_BLOCK
    while rows == _ROW_BLOCK:
        block = np.loadtxt(fh, delimiter=",", max_rows=_ROW_BLOCK, ndmin=2)
        rows = len(block)
        if rows and block.shape[1] != 6:
            raise ValueError(f"{path}: need rows of six columns, one a site")
        if rows:
            yield block
        del block  # one block at a time, if the caller drops its reference too


def _put(d: NDArray[np.complex128], index, block: NDArray[np.float64]) -> None:
    """Write the psi_L, psi_R columns of ``block`` to ``d[:, index]``, part by part:
    ``re + 1j * im`` would turn a -0.0 part into +0.0."""
    d.real[(slice(None),) + index] = block[:, 2::2].T
    d.imag[(slice(None),) + index] = block[:, 3::2].T


def _load_row_major(fh, path) -> NDArray[np.complex128] | None:
    """The (2, nx, ny) field if the rows run over the grid in row-major order, else None.

    nx and ny come from the last row; the field is allocated only if the file is
    long enough to hold that many rows, and each block is checked against the
    sites it must hold.
    """
    size = os.fstat(fh.fileno()).st_size
    fh.buffer.seek(max(0, size - 256))
    last = fh.buffer.read().rstrip().rsplit(b"\n", 1)[-1].split(b",")
    try:
        nx, ny = int(last[0]) + 1, int(last[1]) + 1
    except (ValueError, IndexError):
        return None
    rows = nx * ny
    if min(nx, ny) < 1 or 12 * rows > size:  # the shortest row is "0,0,0,0,0,0\n"
        return None
    d = np.empty((2, rows), dtype=np.complex128)
    # numpy reads a file it opens by path in chunks, not line by line: a grid of one
    # block is parsed so, with a row to spare that shows whether more rows follow
    blocks = (_csv_blocks(fh, path) if rows > _ROW_BLOCK else
              [np.loadtxt(path, delimiter=",", skiprows=1, max_rows=rows + 1, ndmin=2)])
    start = 0
    for block in blocks:
        stop = start + len(block)
        if stop > rows or block.shape[1] != 6:
            return None
        l, m = np.divmod(np.arange(start, stop), ny)
        if not (np.array_equal(block[:, 0], l) and np.array_equal(block[:, 1], m)):
            return None
        _put(d, (slice(start, stop),), block)
        start = stop
        del block
    return d.reshape(2, nx, ny) if start == rows else None


def _load_any_order(fh, path) -> NDArray[np.complex128]:
    """The field from rows in any order: the whole table, then one scatter."""
    table = list(_csv_blocks(fh, path))
    rows = sum(map(len, table))
    if not rows:
        raise ValueError(f"{path}: need rows of six columns, one a site")
    missing = f"{path}: need each site of the grid of l, m >= 0 once, got {rows} rows"
    # the grid has as many sites as the file has rows before it is allocated (a NaN or
    # infinite index fails too)
    lo = np.min([block[:, :2].min() for block in table])
    nx, ny = np.max([block[:, :2].max(axis=0) for block in table], axis=0) + 1
    if not (lo >= 0 and nx * ny == rows):
        raise ValueError(missing)
    d = np.empty((2, int(nx), int(ny)), dtype=np.complex128)
    seen = np.zeros(d.shape[1:], dtype=bool)
    for block in table:
        ll, mm = block[:, 0].astype(np.int64), block[:, 1].astype(np.int64)
        if not (np.array_equal(ll, block[:, 0]) and np.array_equal(mm, block[:, 1])):
            raise ValueError(f"{path}: site indices l, m must be integers")
        _put(d, (ll, mm), block)
        seen[ll, mm] = True
    if not seen.all():  # with nx * ny rows, a site given twice leaves another out
        raise ValueError(missing)
    return d


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
