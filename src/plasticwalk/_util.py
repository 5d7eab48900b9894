"""Small shared numerics helpers."""

from __future__ import annotations

import functools

import numpy as np
from numpy.typing import NDArray

from .mat2 import _power, unitarity_defect

# Largest unitarity defect a walk power W^n may carry.  Squaring adds about 5e-16 of
# defect per step (measured), so this admits about 2e12 steps; by 1e16 steps the
# power is noise, and by 1e50 it overflows.
POWER_TOL = 1e-3

# Most k-points a k-grid command holds its 2x2 stacks, or dispersion its CSV rows, for
# at once.  Measured on 256^2: the peak traced memory of an evolution is 1.7x the
# field's bytes at 2**12 k-points a tile (3.9x at 2**14), and 512^2 x 1000 steps is no
# slower than with larger tiles.
K_BLOCK = 2 ** 12


def k_tiles(kx, ky):
    """(index into the grid, kx tile, ky tile) for each tile of the momentum grid kx x ky.

    Factors kx (nx, 1) and ky (1, ny) are sliced along their own axes into tiles of whole
    kx rows, or of one row's ky columns when a row alone is longer than ``K_BLOCK``.  Any
    other shape (scalars, 1-D momentum lists) is one tile."""
    kx, ky = np.asarray(kx, dtype=np.float64), np.asarray(ky, dtype=np.float64)
    if not (kx.ndim == ky.ndim == 2 and kx.shape[1] == ky.shape[0] == 1):
        return [(..., kx, ky)]
    nx, ny = kx.shape[0], ky.shape[1]
    rows, cols = max(1, K_BLOCK // ny), min(ny, K_BLOCK)
    return (((r, c), kx[r], ky[:, c])
            for r in (slice(i, i + rows) for i in range(0, nx, rows))
            for c in (slice(j, j + cols) for j in range(0, ny, cols)))


def check_unitary(m, what: str, tol: float) -> NDArray[np.complex128]:
    """``m`` as a complex array, if every 2x2 slice is unitary to ``tol``."""
    m = np.asarray(m, dtype=np.complex128)
    defect = float(np.max(unitarity_defect(m)))
    if not defect <= tol:  # a NaN defect fails too
        raise ValueError(f"{what} is not unitary to {tol:g} (defect {defect:.3e})")
    return m


def stack_power(m: NDArray[np.complex128], n: int) -> NDArray[np.complex128]:
    """n-th matrix power over the trailing (2, 2) axes, n >= 0, by squaring.

    Squaring, not the closed-form U(2) power e^{in alpha}(cos n beta - i sin n
    beta n.sigma): against an extended-precision reference the closed form is
    about five times less accurate at every n.
    """
    if n < 0:
        raise ValueError("negative powers not supported")
    return _power(m, n)


def flat2(m: NDArray[np.complex128]) -> list[float]:
    """A 2x2 matrix as row-major (re, im) float pairs, the JSON matrix layout."""
    return [float(x) for entry in np.asarray(m).reshape(-1) for x in (entry.real, entry.imag)]


@functools.cache
def _g17_tables():
    """The lookup tables of :func:`g17_cells`, built on its first call, not at import.

    10^p for p <= 300 as a double-double hi + lo and hi's Dekker halves (complex pairs, so
    one gather fetches both); the ASCII digits of each 4-digit group as uint32 words, in
    full and then with trailing zeros NUL; for each X from -300 to 0, the prefix code
    (-X for fixed notation with X < 0, else 0) and the tail word ("e-05" of scientific
    notation, X < -4); and the head word of each prefix code, first digit, point and
    sign ("-0.00" and so on).
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
                    for z in range(5) for d0 in range(10) for point in (0, 1)
                    for sign in (b"\0", b"-"))
    return (hi + 1j * np.array(lo), hh + 1j * (hi - hh), digits, prefix,
            np.frombuffer(tail, np.uint64), np.frombuffer(head, np.uint64))


def g17_cells(values) -> NDArray[np.uint8]:
    """``'%.17g' % x`` of each float64 x of ``values``, as ASCII cells of 32 bytes.

    Returns a ``values.shape + (32,)`` uint8 array.  A cell holds the text of its
    value with NUL bytes among it; deleting every NUL gives ``'%.17g' % x`` byte for
    byte.  The last byte of every cell is NUL, so a caller may put a separator there.

    Fast path, for finite x with 1e-270 <= |x| < 10 and for +-0: X = floor(log10|x|),
    and y = |x| 10^(16 - X) is formed as a double-double, a Dekker TwoProduct against
    the table's 10^(16 - X) = hi + lo.  TwoProduct is exact, hi + lo is within 2^-106
    of 10^p (lo = 0 for p <= 22), and y < 2^57, so the error in the fraction of y is
    below 2^-47.  N = round(y) is then the 17 significant digits of x whenever
    10^16 < floor(y) and N < 10^17 (X is right and the rounding does not carry) and
    the fraction of y is more than 2^-40 from 1/2 (the rounding is not a tie, nor
    near enough to one to be misjudged).  Every other value -- those, and
    non-finite, subnormal or out-of-range ones -- is formatted by Python's
    ``'%.17g'`` one at a time, so no value is ever approximated.  A normalised field
    (|x| <= 1) and a band's momenta and phases (|x| <= pi) lie within the fast path.

    Cell layout: a word of sign, fixed-notation prefix ("0.", "0.0", ...), the first
    digit and the point; two words of the 16 other digits, the last nonzero 4-digit
    group and the groups after it with their trailing zeros NUL; a word of exponent
    ("e-05") and the free byte.
    """
    pow10, split10, digits, prefix, tail, head = _g17_tables()
    x = np.asarray(values, dtype=np.float64)
    flat = x.ravel()
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
    N = below + (r > 0.5)
    ok = np.abs(r - 0.5) > 2.0 ** -40
    ok &= fast & (below > 10 ** 16) & (N < 10 ** 17)
    # the values left to the fallback, and zero, are laid out as 0: every gather below
    # stays within its table whatever log10 returned
    slow = ~ok
    N[slow] = 0
    X[slow] = 0
    slow &= ax != 0
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
    fraction = np.zeros(flat.shape, dtype=bool)  # a nonzero digit after this group
    for col, g in zip((5, 4, 3, 2), groups[::-1]):
        words[:, col] = digits.take(g + 10000 * ~fraction)
        fraction |= g != 0
    row = X + 300
    cells[:, 3] = tail.take(row)
    cells[:, 0] = head.take(((prefix.take(row) * 10 + d0) * 2 + fraction) * 2 + np.signbit(flat))
    slow = np.flatnonzero(slow)
    if slow.size:
        chars[slow] = _g17_exact(flat[slow])
    return chars.reshape(x.shape + (32,))


def _g17_exact(values: NDArray[np.float64]) -> NDArray[np.uint8]:
    """The cells of the values the fast path leaves, by Python's ``'%.17g'``, one at a time."""
    text = [b"%.17g" % v for v in values.tolist()]
    return np.array(text, dtype="S32").view(np.uint8).reshape(-1, 32)


_ASCII_0 = 0x3030303030303030  # '0' in every byte of a word


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
    byte, computed in place in ``words``; and whether any kept byte is not a digit."""
    words ^= _ASCII_0  # a digit byte becomes its value: 0x30 .. 0x39 are 0 .. 9
    words &= keep
    bad = words + 0x7676767676767676  # a byte above 9 sets its high bit (a carry comes from one)
    bad |= words
    bad = bool(np.bitwise_or.reduce(bad, axis=None) & 0x8080808080808080)
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
    """The value of each cell ``buf[starts:ends]`` of 1 to 8 ASCII digits, as int64, or None
    if a cell is anything else.  ``buf`` holds 8 bytes before the first cell."""
    count = ends - starts
    value, bad = _digits(_word_view(buf)[ends - 8], _parse_tables()[0].take(count, mode="clip"))
    if bad or count.min() < 1 or count.max() > 8:
        return None
    return value.view(np.int64)


def g17_parse(buf, starts, ends):
    """The float64 value of each text cell ``buf[starts:ends]``, bit for bit what ``float``
    of its text gives, or None if a cell is outside the fast grammar.

    ``buf`` is a uint8 array with 24 bytes before the first cell and 8 after the last; the
    cells are in order.  The grammar holds what :func:`g17_cells` writes on its fast path,
    and integers: an optional ``-``, then a digit, a point and up to 24 digits (``1.5``,
    ``0.00012``), or up to 24 digits and no point; then optionally ``e-`` and 1 to 3 digits.

    Exact scaling (Clinger, PLDI 1990): N, the k digits after the point as one integer plus
    the digit before it times 10^k, is below 10^17, and the value is N / 10^q with q = k
    plus the exponent, q <= 290 (so r 2^-93 below stays far above the smallest subnormal,
    1e-318 or more).  The quotient is formed as r0 = N / hi, corrected by the
    exact remainder N - r0 (hi + lo) against the table's double-double 10^q = hi + lo
    (Dekker's TwoProduct), and rounded to r.  Its error is below 2^-100 r, so r is the
    correctly rounded value whenever the corrected quotient moved by r 2^-93 (about 2^-40
    units in the last place) either way still rounds to r: the exact value is then not at
    or near a rounding midpoint.  Every other value of the grammar -- 18 or more
    significant digits, q > 290, or near a midpoint -- is read by ``float`` one at a time,
    so no value is ever approximated.

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
    if bad:
        return None
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
    top, bad = _digits(words[mend - 24], window[0].take(k, mode="clip"))
    mid, wrong = _digits(words[mend - 16], window[1].take(k, mode="clip"))
    bad |= wrong
    n, wrong = _digits(words[mend - 8], window[2].take(k, mode="clip"))
    del mend
    if bad or wrong or not ((lead <= 9) & (k <= 24)).all():
        return None
    lead *= point
    q = k * point
    q += exponent.view(np.int64)
    slow = (top >= 10) | ((lead > 0) & (k > 16)) | (q > 290)  # N >= 10^17
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
    """The values of the cells the fast path leaves, by Python's ``float``, one at a time."""
    return [float(buf[s:e].tobytes()) for s, e in zip(starts.tolist(), ends.tolist())]


def cells_text(cells) -> bytes:
    """The bytes of an array of :func:`g17_cells` cells (and other NUL-padded text), in
    order, with every NUL deleted."""
    return cells.tobytes().translate(None, b"\0")
