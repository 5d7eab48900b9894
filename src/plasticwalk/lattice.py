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
(l, m), floats at 17 significant digits.

Binary (little-endian): magic ``b"PWFLD1\\x00\\x00"`` (8 bytes), then Nx,
Ny as uint32, then the payload: row-major over sites, for each site
psi_L then psi_R as complex128 (re, im float64 pairs).
"""

from __future__ import annotations

import itertools
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
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    raw = np.atleast_2d(raw)
    nx = int(raw[:, 0].max()) + 1
    ny = int(raw[:, 1].max()) + 1
    d = np.zeros((2, nx, ny), dtype=np.complex128)
    ll = raw[:, 0].astype(int)
    mm = raw[:, 1].astype(int)
    d[0, ll, mm] = raw[:, 2] + 1j * raw[:, 3]
    d[1, ll, mm] = raw[:, 4] + 1j * raw[:, 5]
    return SpinorField(d)


def save_binary(field: SpinorField, path) -> None:
    nx, ny = field.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.array([nx, ny], dtype="<u4").tobytes())
        # row-major over sites, psi_L then psi_R per site
        payload = np.moveaxis(field.data, 0, -1).astype("<c16")
        fh.write(payload.tobytes())


def load_binary(path) -> SpinorField:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"not a spinor-field file (bad magic {magic!r})")
        nx, ny = np.frombuffer(fh.read(8), dtype="<u4")
        payload = np.frombuffer(fh.read(), dtype="<c16")
    if payload.size != 2 * nx * ny:
        raise ValueError("truncated spinor-field file")
    d = np.moveaxis(payload.reshape(nx, ny, 2), -1, 0).astype(np.complex128)
    return SpinorField(d)
