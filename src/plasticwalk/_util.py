"""Small shared numerics helpers: the tile rule of the grid loops (``grid_tiles``), the exact
float text kernels and their parsers, and the one writer of float tables (``grid_text``)."""

from __future__ import annotations

import functools

import numpy as np
from numpy.typing import NDArray

from .mat2 import _defect

# Largest unitarity defect a walk power W^n may carry.  The two-plane squaring adds
# 6e-16 to 7e-16 of defect per step (measured on the time_compliant, time_generic and
# plastic_half_compliant golden walks, 1e6 to 1e12 steps), so this admits about 1.5e12
# steps; by 1e16 steps the power is noise, and by 1e50 it overflows.
POWER_TOL = 1e-3

# Most k-points the tiles of evolve and dispersion, and the band-table rows of dispersion
# in either format (8,192 phases a kernel call), hold at once, and most (eps, k) points a
# group of converge's eps ladder stacks.  Measured on 256^2: the peak traced memory of an
# evolution is 1.7x the field's bytes at 2**12 k-points a tile (3.9x at 2**14), and
# 512^2 x 1000 steps is no slower than with larger tiles.  Measured on converge at grid
# 32 (best of 60 to 150 calls, a 2-core x86 host), 6 eps and 9 eps: eps by eps 1.51 and
# 2.12-2.13 ms; in groups of 2**12 points 1.44-1.84 and 1.89-1.97 ms, of 2**11 1.50-1.68
# and 2.10-2.18 ms, of 2**13 1.76-2.53 and 2.40-2.46 ms.  From 46^2 up a group is one
# eps, a stack of one row, whose broadcast row axis costs a few us an eps; best of 40
# calls, eps by eps against one-eps groups: grid 64, 9 eps, 4.58-4.64 against 4.68-4.72
# ms; grid 80, 7 eps, 5.16-5.29 against 5.26-5.33 ms; grid 96, 8 eps, 9.31-9.80 against
# 8.73-8.94 ms.
K_BLOCK = 2 ** 12

# Most k-points a tile of converge holds.  Each tile makes about 80 numpy calls an eps
# and 8 a squaring whatever its size, so larger tiles spend less on call overhead: the
# benchmark's grids of 80^2 and 96^2 run as one tile, not two or three of K_BLOCK.  Its
# memory is a fixed number of 2x2 stacks of the tile, about 5.7 MiB traced at grid 512.
# A complex plane of 2**14 points is 256 KiB, the size from which numpy reuses
# temporaries; the two-plane kernels give the same bits either side of it (mat2._mul_su2).
CONVERGE_BLOCK = 2 ** 14


def grid_tiles(nx: int, ny: int, block: int):
    """(rows, columns) slices of the tiles of an nx x ny grid in row-major order: whole rows
    of at most ``block`` points, or ``block`` columns of one row where a row is longer."""
    rows, cols = max(1, block // ny), min(ny, block)
    return ((r, c) for r in (slice(i, i + rows) for i in range(0, nx, rows))
            for c in (slice(j, j + cols) for j in range(0, ny, cols)))


def k_tiles(kx, ky, block: int = K_BLOCK):
    """(index into the grid, kx tile, ky tile) for each tile of the momenta kx, ky.

    Factors kx (nx, 1) and ky (1, ny) are sliced along their own axes into the tiles of
    :func:`grid_tiles`.  Any other pair is broadcast to one shape (as it is if the
    shapes agree) and sliced along its first axis into tiles of at most ``block``
    k-points or one row (momentum lists: ``block`` momenta).  A 0-d pair is one tile."""
    kx, ky = np.asarray(kx, dtype=np.float64), np.asarray(ky, dtype=np.float64)
    if kx.ndim == ky.ndim == 2 and kx.shape[1] == ky.shape[0] == 1:
        return ((tile, kx[tile[0]], ky[:, tile[1]])
                for tile in grid_tiles(kx.shape[0], ky.shape[1], block))
    if kx.shape != ky.shape:
        kx, ky = np.broadcast_arrays(kx, ky)
    if kx.ndim == 0:
        return [(..., kx, ky)]
    rows = max(1, block // (kx[:1].size or 1))  # kx[:1].size: the k-points of a row
    return ((s, kx[s], ky[s]) for s in (slice(i, i + rows) for i in range(0, len(kx), rows)))


def check_unitary(m: tuple, what: str, tol: float) -> tuple:
    """``m``, a coin, product, power or evolution in the two-plane form (g, a, b) of
    ``mat2``, returned as it is if every matrix in it is unitary to ``tol``.  Anything
    but a tuple of three (a (3, 2, 2) stack, say) raises TypeError."""
    if not (isinstance(m, tuple) and len(m) == 3):
        raise TypeError(f"{what}: expected the two-plane form (g, a, b), got {type(m).__name__}")
    defect = float(np.max(_defect(m)))
    if not defect <= tol:  # a NaN defect fails too
        raise ValueError(f"{what} is not unitary to {tol:g} (defect {defect:.3e})")
    return m


def stack_power(m: NDArray[np.complex128], n: int) -> NDArray[np.complex128]:
    """n-th matrix power over the trailing (2, 2) axes, n >= 0, as a new array, by
    numpy's matmul squaring.  The k-space tile loops take their powers in the two-plane
    form instead (``mat2._power``).

    Squaring, not the closed-form U(2) power e^{in alpha}(cos n beta - i sin n
    beta n.sigma): against an extended-precision reference the closed form is
    about five times less accurate at every n.
    """
    if n < 0:
        raise ValueError("negative powers not supported")
    return np.linalg.matrix_power(np.array(m, dtype=np.complex128), n)


def flat2(m: NDArray[np.complex128]) -> list[float]:
    """A 2x2 matrix as row-major (re, im) float pairs, the JSON matrix layout."""
    return np.asarray(m, dtype=np.complex128).ravel().view(np.float64).tolist()


@functools.cache
def _g17_tables():
    """The lookup tables of :func:`g17_cells`, built on its first call, not at import.

    10^p for p <= 300 as a double-double hi + lo and hi's Dekker halves (complex pairs, so
    one gather fetches both); the ASCII digits of each 4-digit group as uint32 words, in
    full and then with trailing zeros NUL; for each X from -300 to 0, the prefix code
    (-X for fixed notation with X < 0, else 0) and the tail word ("e-05" of scientific
    notation, X < -4); and the head word of each point (first with it, then without),
    prefix code, first digit and sign ("-0.00" and so on).
    """
    hi = [float(10 ** p) for p in range(301)]
    lo = [float(10 ** p - int(h)) for p, h in enumerate(hi)]  # hi is a whole number
    hi = np.array(hi)
    c = hi * 134217729.0  # 2**27 + 1
    hh = c - (c - hi)
    full = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    kept = np.logical_or.accumulate(full[:, ::-1] != 48, axis=1)[:, ::-1]
    digits = np.concatenate((full, full * kept)).view(np.uint32).ravel()
    exponents = range(-300, 1)
    prefix = np.array([-x if -4 <= x < 0 else 0 for x in exponents])
    tail = b"".join((b"e-%02d" % -x if x < -4 else b"").ljust(8, b"\0") for x in exponents)
    head = b"".join(sign + (b"0." + b"0" * (z - 1) if z else b"").ljust(5, b"\0")
                    + b"%d" % d0 + (b"." if point and not z else b"\0")
                    for point in (1, 0) for z in range(5) for d0 in range(10)
                    for sign in (b"\0", b"-"))
    return (hi + 1j * np.array(lo), hh + 1j * (hi - hh), digits, prefix,
            np.frombuffer(tail, np.uint64), np.frombuffer(head, np.uint64))


# How far a quantity of the kernels below, in units of y (their docstrings), must lie
# from a bound it is compared with for the comparison to be trusted
_MARGIN = 2.0 ** -40


def _decimal_core(flat):
    """The 17-digit decimal of each float64 of the 1-D ``flat``, as the kernels below share it.

    Returns (a, hi, X, below, r, ok).  For finite x with 1e-270 <= |x| < 10, a = |x|
    (1 elsewhere), X = floor(log10 a), hi the table's 10^(16 - X), and y = a 10^(16 - X)
    is formed as a double-double, a Dekker TwoProduct against the table's 10^(16 - X) =
    hi + lo.  TwoProduct is exact, hi + lo is within 2^-106 of 10^p (lo = 0 for p <= 22),
    and y < 2^57, so the error in r, the fraction of y, is below 2^-47; below = floor(y).
    ``ok`` marks the values in that range whose X is right as far as below shows,
    10^16 < below; a kernel adds its own conditions on the rounding.
    """
    pow10, split10 = _g17_tables()[:2]
    ax = np.abs(flat)
    fast = (ax >= 1e-270) & (ax < 10.0)
    a = np.where(fast, ax, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    p = 16 - X  # within the table: 10^-271 < a < 10
    hi, hh = pow10.take(p), split10.take(p)
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    y = a * hi.real  # y = a hi + a lo = y + err + r, with err exact
    err = ah * hh.real - y
    err += ah * hh.imag
    err += al * hh.real
    err += al * hh.imag
    r = a * hi.imag
    r += err
    whole = np.floor(r)
    r -= whole  # the fraction of y
    below = y.astype(np.int64) + whole.astype(np.int64)  # floor(y)
    return a, hi.real, X, below, r, fast & (below > 10 ** 16)


def _layout(flat, N, X, ok, slow, exact):
    """The cells of the 17 digits N (10^16 <= N < 10^17, trailing zeros NUL) at exponent X
    of each value of ``flat`` that ``ok`` marks, laid out as ``'%.17g'`` does; the cells
    marked ``slow`` are formatted by ``exact``, one at a time.  Any other value is laid out
    as 0, with its sign.

    Layout: a word of sign, fixed-notation prefix ("0.", "0.0", ...), the first digit and
    the point; two words of the 16 other digits, the last nonzero 4-digit group and the
    groups after it with their trailing zeros NUL; a word of exponent ("e-05") and the
    free byte.
    """
    digits, prefix, tail, head = _g17_tables()[2:]
    # the values not laid out here are laid out as 0: every gather below stays within
    # its table whatever log10 returned
    N *= ok
    X *= ok
    top = N // 10 ** 8
    low = (N - top * 10 ** 8).astype(np.int32)  # int32 divides faster than int64
    top = top.astype(np.int32)
    d0 = top // 10 ** 8
    mid = top - d0 * 10 ** 8
    g1 = mid // 10 ** 4
    g3 = low // 10 ** 4
    groups = (g1, mid - g1 * 10 ** 4, g3, low - g3 * 10 ** 4)
    cells = np.empty(flat.shape + (4,), dtype=np.uint64)
    words, chars = cells.view(np.uint32), cells.view(np.uint8)
    # 10000, the offset of the digit words with trailing zeros NUL, until a nonzero group
    offset = np.full(flat.shape, 10000, dtype=np.int32)
    for col, g in zip((5, 4, 3, 2), groups[::-1]):
        words[:, col] = digits.take(g + offset)
        offset *= g == 0
    row = X + 300
    cells[:, 3] = tail.take(row)
    # offset // 100 is 0 where a nonzero digit follows the first (the head has a point)
    cells[:, 0] = head.take(offset // 100 + (prefix.take(row) * 10 + d0) * 2 + np.signbit(flat))
    slow = np.flatnonzero(slow)
    if slow.size:
        chars[slow] = exact(flat[slow])
    return chars


def g17_cells(values) -> NDArray[np.uint8]:
    """``'%.17g' % x`` of each float64 x of ``values``, as ASCII cells of 32 bytes.

    Returns a ``values.shape + (32,)`` uint8 array.  A cell holds the text of its
    value with NUL bytes among it; deleting every NUL gives ``'%.17g' % x`` byte for
    byte.  The last byte of every cell is NUL, so a caller may put a separator there.

    Fast path, for finite x with 1e-270 <= |x| < 10 and for +-0: y = |x| 10^(16 - X) to
    within 2^-47 (:func:`_decimal_core`).  N = round(y) is then the 17 significant
    digits of x whenever 10^16 < floor(y) and N < 10^17 (X is right and the rounding
    does not carry) and the fraction of y is more than 2^-40 from 1/2 (the rounding is
    not a tie, nor near enough to one to be misjudged).  Every other value -- those,
    and non-finite, subnormal or out-of-range ones -- is formatted by Python's
    ``'%.17g'`` one at a time, so no value is ever approximated.  A normalised field
    (|x| <= 1) and a band's momenta and phases (|x| <= pi) lie within the fast path.
    The layout is :func:`_layout`'s.
    """
    x = np.asarray(values, dtype=np.float64)
    flat = x.ravel()
    _, _, X, below, r, ok = _decimal_core(flat)
    N = below + (r > 0.5)
    ok &= np.abs(r - 0.5) > _MARGIN
    ok &= N < 10 ** 17
    chars = _layout(flat, N, X, ok, ~ok & (flat != 0), _g17_exact)
    return chars.reshape(x.shape + (32,))


def _g17_exact(values: NDArray[np.float64]) -> NDArray[np.uint8]:
    """The cells of the values the fast path leaves, by Python's ``'%.17g'``, one at a time."""
    text = [b"%.17g" % v for v in values.tolist()]
    return np.array(text, dtype="S32").view(np.uint8).reshape(-1, 32)


# The JSON text of each non-finite float's repr, as json writes it
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def repr_cells(values) -> NDArray[np.uint8]:
    """Each float64 x of ``values`` as ``json.dumps`` writes it, in :func:`g17_cells`'s cells.

    A cell's text, its NUL bytes deleted, is ``float.__repr__(x)`` for finite x and
    ``NaN``, ``Infinity`` or ``-Infinity`` otherwise.  repr(x) is the shortest decimal
    that reads back as x, and of those the nearest to x (Steele & White, PLDI 1990; Ryu,
    Adams, PLDI 2018).

    Fast path, within :func:`g17_cells`'s (1e-270 <= |x| < 10): with y = |x| 10^(16 - X)
    known to 2^-47 (:func:`_decimal_core`) and below = floor(y), the candidate of p
    digits, p = 17 - k, is y rounded to a multiple of 10^k: t = (below mod 10^k) + r
    rounded to D_p = 0 or 1 step of 10^k.  It reads back as x iff its distance to y,
    |D_p 10^k - t|, is below H, half the gap between x and its neighbours in units of y:
    with |x| = m 2^e, m in [0.5, 1), H = 2^(e - 54) 10^(16 - X).  As 10^X <= |x| < 2^e,
    0.555 < 2^-54 10^16 < H < 2^-53 10^17 < 11.1, so the 17-digit candidate always reads
    back; the text is then the ``'%.17g'`` layout of N' = D_p 10^(17 - p) for the least p
    of 15, 16 and 17 whose candidate reads back.  t, the distances and H are each within
    2^-42 of their exact values (t < 1000 is a sum of an integer and r; H is a table
    value times a power of two), so every decision is exact when the quantity it
    compares is more than 2^-40 from H or from a rounding midpoint.  A midpoint matters
    for p = 17 and 16 only: for p <= 15 it lies 50 or more from both candidates, and
    neither reads back.

    Left to ``float.__repr__``, one value at a time: what g17_cells leaves; +-0 (``0.0``);
    powers of two, whose gap below is half the gap above; values whose 14-digit
    candidate reads back (then their shortest form may be shorter still, and an integral
    one needs ``.0``); and values with any of those quantities within 2^-40 of a bound.
    """
    x = np.asarray(values, dtype=np.float64)
    flat = x.ravel()
    a, hi, X, below, r, ok = _decimal_core(flat)
    m, e = np.frexp(a)
    ok &= m != 0.5
    H = np.ldexp(hi, e - 54)
    ok &= np.abs(r - 0.5) > _MARGIN
    low = (below - below // 1000 * 1000).astype(np.float64)  # below mod 1000, exactly
    shift = (r > 0.5).astype(np.float64)  # N - below: a whole number, -99 to 100
    for k in (1, 2, 3):  # p = 16, 15, 14: a shorter candidate that reads back wins
        unit = 10.0 ** k
        rest = low - np.floor(low / unit) * unit if k < 3 else low  # below mod 10^k
        d = rest + r
        d -= unit / 2  # from the midpoint between the candidates below and above y
        up = d > 0
        np.abs(d, out=d)
        if k == 1:
            ok &= d > _MARGIN
        d += H - unit / 2  # H less the distance from y to the nearer candidate
        reads = d > 0
        ok &= np.abs(d, out=d) > _MARGIN
        if k < 3:
            shift = np.where(reads, unit * up - rest, shift)
        else:
            ok &= ~reads
    N = below + shift.astype(np.int64)
    ok &= N < 10 ** 17
    chars = _layout(flat, N, X, ok, ~ok, _repr_exact)
    return chars.reshape(x.shape + (32,))


def _repr_exact(values: NDArray[np.float64]) -> NDArray[np.uint8]:
    """The cells of the values the fast path leaves, by ``float.__repr__``, one at a time."""
    text = [_NONFINITE.get(t, t) for t in map(float.__repr__, values.tolist())]
    return np.array(text, dtype="S32").view(np.uint8).reshape(-1, 32)


_ASCII_0 = 0x3030303030303030  # '0' in every byte of a word
_HIGH_BITS = 0x8080808080808080  # the high bit of every byte of a word


@functools.cache
def _parse_tables():
    """The lookup tables of the parsers below, built on their first call, not at import:
    for k = 0 .. 8, the bytes of a little-endian word that hold its last k characters; for
    k = 0 .. 24 digits that end a window of three words, the bytes of each word they fill;
    and 10^k for k = 0 .. 16."""
    last = ~(np.uint64(2 ** 64 - 1) >> np.arange(0, 72, 8, dtype=np.uint64))
    window = last[np.clip(np.arange(25) - np.array([[16], [8], [0]]), 0, 8)]
    return last, window, 10 ** np.arange(17, dtype=np.int64)


def _word_view(buf):
    """The 8 bytes at each offset of the uint8 array ``buf``, as overlapping <u8 words."""
    return np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _digits(words, keep):
    """The values of the digits in the ``keep`` bytes of each word, the first in the lowest
    byte, computed in place in ``words``; and a word for each whose ``_HIGH_BITS`` are set
    where a kept byte is not a digit (the value is then of no use)."""
    words ^= _ASCII_0  # a digit byte becomes its value: 0x30 .. 0x39 are 0 .. 9
    words &= keep
    bad = words + 0x7676767676767676  # a byte above 9 sets its high bit (a carry comes from one)
    bad |= words
    # SWAR: 10 a + b of each byte pair, then 100 ab + cd of each pair of pairs, then all eight
    words *= 10 << 8 | 1
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 100 << 16 | 1
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 10000 << 32 | 1
    words >>= 32
    return words, bad


def digits_parse(buf, starts, ends):
    """The value of each cell ``buf[starts:ends]`` of 1 to 8 ASCII digits, as int64; raises
    ValueError if a cell is anything else.  ``buf`` holds 8 bytes before the first cell."""
    count = ends - starts
    value, bad = _digits(_word_view(buf)[ends - 8], _parse_tables()[0].take(count, mode="clip"))
    if np.bitwise_or.reduce(bad, axis=None) & _HIGH_BITS or count.min() < 1 or count.max() > 8:
        raise ValueError("a cell is not 1 to 8 digits")
    return value.view(np.int64)


def g17_parse(buf, starts, ends):
    """The float64 value of each text cell ``buf[starts:ends]``, bit for bit what ``float``
    of its text gives; raises ValueError if ``float`` refuses a cell, or it holds ``_``.

    ``buf`` is a uint8 array with 24 bytes before the first cell and 8 after the last; the
    cells are in order.  The fast grammar holds what :func:`g17_cells` writes on its fast
    path, and integers: an optional ``-``, then a digit, a point and up to 24 digits
    (``1.5``, ``0.00012``), or up to 24 digits and no point; then optionally ``e-`` and 1 to
    3 digits.  A cell outside it (``inf``, ``nan``, ``12.5``, ``1e+17``) is read by ``float``.

    Exact scaling (Clinger, PLDI 1990): N, the k digits after the point as one integer plus
    the digit before it times 10^k, is below 10^17, and the value is N / 10^q with q = k
    plus the exponent, q <= 290 (so r 2^-93 below stays far above the smallest subnormal,
    1e-318 or more).  The quotient is formed as r0 = N / hi, corrected by the
    exact remainder N - r0 (hi + lo) against the table's double-double 10^q = hi + lo
    (Dekker's TwoProduct), and rounded to r.  Its error is below 2^-100 r, so r is the
    correctly rounded value whenever the corrected quotient moved by r 2^-93 (about 2^-40
    units in the last place) either way still rounds to r: the exact value is then not at
    or near a rounding midpoint.  Every other value of the grammar -- 18 or more
    significant digits, q > 290, or near a midpoint -- is read by ``float`` too, one cell at
    a time, so no value is ever approximated.

    Layout: the last 8 bytes of a cell show whether it ends with an exponent; the 24 bytes
    before the exponent (or the cell's end) hold all of its digits, and are read as three
    words of 8 digits, the bytes before the digits counted as zeros (SWAR: Lemire,
    Software: Practice and Experience 2021).  Every temporary has one element a cell, and
    each is deleted once spent: their peak sets the block size of ``lattice._ROW_BLOCK``.
    """
    pow10, split10 = _g17_tables()[:2]
    last, window, powers = _parse_tables()
    words = _word_view(buf)
    # not a search for "e": its positions, a small array sized by the text, stay in numpy's
    # cache of small buffers and can keep the heap above a freed field from shrinking
    tail = words[ends - 8]
    count = np.zeros(len(ends), dtype=np.int64)  # the digits of an exponent
    span = ends - starts
    for k in (1, 2, 3):  # "e-" at bytes 6 - k and 7 - k of the tail, inside the cell
        count[((tail >> 8 * (6 - k)) & 0xFFFF == 0x2D65) & (span >= k + 3)] = k
    del span
    exponent, bad = _digits(tail, last.take(count, mode="clip"))
    mend = ends - count
    mend -= 2 * (count > 0)
    del tail, count
    neg = buf[starts] == 45
    first = starts + neg
    lead = buf[first] - 48  # uint8: every byte but a digit wraps above 9
    point = buf[first + 1] == 46
    k = mend - first - 2 * point  # the digits after the point, or all of them
    del first
    # the 24 bytes before the digits end, a word at a time: digits 17-24, 9-16 and 1-8
    top, wrong = _digits(words[mend - 24], window[0].take(k, mode="clip"))
    bad |= wrong
    mid, wrong = _digits(words[mend - 16], window[1].take(k, mode="clip"))
    bad |= wrong
    n, wrong = _digits(words[mend - 8], window[2].take(k, mode="clip"))
    bad |= wrong
    del mend, wrong
    slow = ((bad & _HIGH_BITS) != 0) | (lead > 9) | (k > 24)  # outside the grammar
    del bad
    lead *= point
    q = k * point
    q += exponent.view(np.int64)
    slow |= (top >= 10) | ((lead > 0) & (k > 16)) | (q > 290)  # N >= 10^17
    mid *= 10 ** 8
    n += mid
    top *= 10 ** 16
    n += top
    n = n.view(np.int64)
    n += lead * powers.take(k, mode="clip")
    del top, mid, exponent, k, lead, point
    n[slow] = 0
    q[slow] = 0
    nh = n.astype(np.float64)
    n -= nh.astype(np.int64)
    nl = n.astype(np.float64)  # N = nh + nl exactly
    del n
    hi = pow10.real.take(q)
    r0 = nh / hi
    c = r0 * 134217729.0  # Dekker's split of r0, for r0 hi = p + pe exactly
    c -= c - r0
    rl = r0 - c
    p = r0 * hi
    nh -= p  # exact: p is within an ulp of nh
    nh += nl
    del nl
    hh, hl = split10.real.take(q), split10.imag.take(q)
    pe = c * hh
    pe -= p
    del p
    pe += c * hl
    pe += rl * hh
    pe += rl * hl
    del c, rl, hh, hl
    nh -= pe
    del pe
    nh -= r0 * pow10.imag.take(q)
    nh /= hi
    corr = nh  # N / 10^q - r0, to about 2^-50 of itself
    del q, hi
    r = r0 + corr
    nudge = r * 2.0 ** -93
    slow |= r0 + (corr + nudge) != r
    slow |= r0 + (corr - nudge) != r
    np.copysign(r, 0.5 - neg, out=r)
    slow = np.flatnonzero(slow)
    if slow.size:
        r[slow] = _parse_exact(buf, starts[slow], ends[slow])
    return r


def _parse_exact(buf, starts, ends) -> list[float]:
    """The values of the cells the fast path leaves, by Python's ``float``, one at a time;
    ValueError if ``float`` refuses a cell, or it holds ``_`` (which ``float`` reads)."""
    text = buf.tobytes()
    cells = [text[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
    if b"_" in b"".join(cells):
        raise ValueError("an underscore in a cell")
    return list(map(float, cells))


def cells_text(cells) -> bytes:
    """The bytes of an array of :func:`g17_cells` cells (and other NUL-padded text), in
    order, with every NUL deleted."""
    return cells.tobytes().translate(None, b"\0")


def key_text(cells):
    """The text of each of the kernel cells ``cells``, NULs deleted, left-aligned in a cell
    as wide as the longest text and padded with NULs.  Overwrites the cells' free last byte."""
    cells[:, -1] = ord("\n")  # the free last byte: one split parts the texts
    return np.array(cells_text(cells).split(b"\n")[:-1]).view(np.uint8).reshape(len(cells), -1)


def grid_text(keys, values, parts, cells, block: int):
    """Yield the text of a table over a grid, as bytes, a tile of :func:`grid_tiles` at a time.

    Row (i, j) is ``parts[0]``, row key i, ``parts[1]``, column key j, ``parts[2]``, then
    each float of ``values[i, j]`` as the kernel ``cells`` (:func:`g17_cells` or
    :func:`repr_cells`) writes it, followed by its part of ``parts[3:]``.  ``values`` is
    an (nx, ny, k) array of float64, or of complex128 read as (re, im) pairs; ``keys``
    holds the row and the column keys as (n, width) NUL-padded text (:func:`key_text`).
    The tile buffer holds the literal parts from the start; a part of one byte after a
    value goes in the free last byte of the value's cell, so cells with no literal between
    them fill one slot.  Each tile's NULs are deleted as it is yielded.
    """
    row_keys, col_keys = keys
    widths = [row_keys.shape[1], col_keys.shape[1]] + [32] * (len(parts) - 3) + [0]
    row, spans, seps = bytearray(), [], [0] * (len(parts) - 3)  # each cell's last byte
    for i, (text, width) in enumerate(zip(parts, widths)):
        if i > 2 and len(text) == 1:  # in the free last byte of the cell before it
            seps[i - 3] = text[0]
            spans[-1][1] += width
        else:
            row += text
            spans.append([len(row), len(row) + width, 32 * max(i - 2, 0)])  # slot, start in its text
        row += bytes(width)
    r, c = next(grid_tiles(*values.shape[:2], block))  # the first tile is the largest
    buf = np.tile(np.frombuffer(row, dtype=np.uint8), values[r, c].shape[:2] + (1,))
    for r, c in grid_tiles(*values.shape[:2], block):
        # a complex tile is copied as it is, then viewed as floats: numpy copies 2,048
        # complex pairs in 9 us, and a float view of the same tile in 35 us
        v = cells(np.ascontiguousarray(values[r, c]).view(np.float64))
        n, m = v.shape[:2]
        v[..., 31] = seps  # the free last byte of each cell
        texts = (row_keys[r, None], col_keys[c]) + (v.reshape(n, m, -1),) * (len(spans) - 2)
        for (s0, s1, at), text in zip(spans, texts):  # the keys, then the runs of cells
            buf[:n, :m, s0:s1] = text[..., at:at + s1 - s0]
        yield cells_text(buf[:n, :m])
