import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasticwalk import mat2
from plasticwalk.coins import coin_pair, walk_planes
from plasticwalk.config import ExperimentConfig
from plasticwalk.mat2 import (
    SY, SZ, _entries, _entries_su2, _from_entries, _gram, _mul_su2, _norm, _norm_diff,
    _power, _radius, _square_su2, _wrap, exp_herm, op_norm, rot,
)

from oracles import (
    ID2, dag, det2, eig2, exp_herm_stack, gram_sums, hermiticity_defect_stack, is_hermitian,
    is_unitary, radius_sums, rot_x,
)


def rotation(axis, w):
    """exp(-i w sigma_axis / 2) about any axis: R_x from the oracle."""
    return rot_x(w) if axis == "x" else rot(axis, w)


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * np.exp(-1j * np.angle(np.diag(r)))[None, :]


def random_hermitian(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return 0.5 * (z + z.conj().T)


def test_rot_special_values():
    assert np.allclose(rot("z", 0.0), ID2, atol=1e-15)
    assert np.allclose(rot("y", np.pi), np.array([[0, -1], [1, 0]]), atol=1e-15)
    assert np.allclose(rot("z", 2 * np.pi), -ID2, atol=1e-15)


def test_rot_composition_1000_random():
    rng = np.random.default_rng(0)
    for axis in "xyz":
        w1 = rng.uniform(-10, 10, size=1000)
        w2 = rng.uniform(-10, 10, size=1000)
        err = op_norm(rotation(axis, w1) @ rotation(axis, w2) - rotation(axis, w1 + w2))
        assert float(np.max(err)) <= 1e-12


def test_rot_is_su2():
    rng = np.random.default_rng(1)
    w = rng.uniform(-10, 10, size=200)
    for axis in "xyz":
        m = rotation(axis, w)
        assert is_unitary(m, tol=1e-12)
        assert float(np.max(np.abs(det2(m) - 1.0))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_det_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = det2(a @ b)
    rhs = det2(a) * det2(b)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_unitarity_closure_of_products():
    rng = np.random.default_rng(2)
    m = ID2.copy()
    for _ in range(500):
        axis = "xyz"[rng.integers(0, 3)]
        m = m @ rotation(axis, rng.uniform(-6, 6))
    assert is_unitary(m, tol=1e-12)


def test_eig2_sigma_z():
    res = eig2(SZ, assume="hermitian")
    assert np.allclose(sorted(res.values.real, reverse=True), [1.0, -1.0], atol=1e-15)
    # canonical basis eigenvectors
    assert np.allclose(np.abs(res.vectors), np.eye(2), atol=1e-12)


def test_eig2_rz_diagonal():
    phi = 0.83
    res = eig2(rot("z", phi), assume="unitary")
    expected = {np.exp(-1j * phi / 2), np.exp(1j * phi / 2)}
    for lam in res.values:
        assert min(abs(lam - e) for e in expected) <= 1e-13


def test_eig2_reconstruction_1000():
    rng = np.random.default_rng(3)
    for _ in range(500):
        u = random_unitary(rng)
        res = eig2(u, assume="unitary")
        recon = res.vectors @ np.diag(res.values) @ np.linalg.inv(res.vectors)
        assert float(op_norm(recon - u)) <= 1e-12
    for _ in range(500):
        h = random_hermitian(rng)
        res = eig2(h, assume="hermitian")
        recon = res.vectors @ np.diag(res.values) @ np.linalg.inv(res.vectors)
        assert float(op_norm(recon - h)) <= 1e-12
        assert float(np.max(np.abs(res.values.imag))) == 0.0


def test_eig2_eigen_equation_and_norms():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    res = eig2(m)
    for j in range(2):
        v = res.vectors[:, j]
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert np.linalg.norm(m @ v - res.values[j] * v) <= 1e-12 * max(1.0, float(op_norm(m)))


def test_eig2_degenerate_scalar():
    res = eig2(3.0 * ID2)
    assert res.degenerate and not res.defective
    assert np.allclose(res.vectors, np.eye(2))


def test_eig2_defective_flag():
    res = eig2(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    assert res.degenerate and res.defective


def _expm_series(m, order=40):
    # scaling-and-squaring Taylor series, independent of the Pauli closed form
    s = 8
    x = m / 2.0 ** s
    acc = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, order):
        term = term @ x / n
        acc = acc + term
    for _ in range(s):
        acc = acc @ acc
    return acc


def _exp(h, t):
    """exp_herm's two-plane form expanded to a stack."""
    return _from_entries(*_entries_su2(exp_herm(h, t)))


def test_exp_herm_trivial_cases():
    assert np.allclose(_exp(np.zeros((2, 2)), 0.7), ID2, atol=1e-15)
    got = _exp(SZ, np.pi / 2)
    assert np.allclose(got, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-14)


def test_exp_herm_matches_series_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = random_hermitian(rng)
        t = 0.7
        expected = _expm_series(-1j * h * t)
        assert float(op_norm(_exp(h, t) - expected)) <= 1e-12


def test_exp_herm_group_property():
    rng = np.random.default_rng(6)
    for _ in range(100):
        h = random_hermitian(rng)
        t1, t2 = rng.uniform(-2, 2, size=2)
        lhs = _exp(h, t1) @ _exp(h, t2)
        assert float(op_norm(lhs - _exp(h, t1 + t2))) <= 1e-11


def test_exp_herm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        exp_herm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_exp_herm_rejects_nan_entry():
    h = np.array([[0.3, np.nan], [np.nan, -0.3]])
    with pytest.raises(ValueError):
        exp_herm(h, 1.0)
    stack = np.broadcast_to(ID2, (3, 2, 2)).copy()
    stack[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        exp_herm(stack, 1.0)


def test_op_norm_basics():
    assert abs(float(op_norm(ID2)) - 1.0) <= 1e-15
    assert abs(float(op_norm(SY)) - 1.0) <= 1e-15
    assert abs(float(op_norm(np.diag([2.0 + 0j, 1.0]))) - 2.0) <= 1e-15


def test_op_norm_unitary_invariance_and_svd_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = random_unitary(rng)
        v = random_unitary(rng)
        n0 = float(op_norm(m))
        assert abs(float(op_norm(u @ m @ v)) - n0) <= 1e-13 * max(1.0, n0)
        assert abs(n0 - np.linalg.svd(m, compute_uv=False)[0]) <= 1e-12 * max(1.0, n0)


def test_finite_entries_preserved():
    rng = np.random.default_rng(8)
    m = rot("y", rng.uniform(-20, 20, size=64))
    chain = m @ dag(m) @ m
    assert np.all(np.isfinite(chain.real)) and np.all(np.isfinite(chain.imag))
    assert is_hermitian(m @ dag(m), tol=1e-12)


def test_wrap_maps_phases_into_the_half_open_circle():
    """Within 1e-15 of -pi is pi exactly: one or two ulps above -pi plus 2 pi would lie
    above pi.  Every shift by 2 pi is exact."""
    up = np.nextafter(-np.pi, 0.0)
    assert _wrap(up) == np.pi
    near = np.array([-np.pi, up, np.nextafter(up, 0.0), np.nextafter(-np.pi, -4.0), -np.pi + 1e-15])
    assert (_wrap(near) == np.pi).all()
    p = np.array([np.pi, np.nextafter(np.pi, 4.0), 2 * np.pi, -2 * np.pi, 3.5, -3.5, 0.25, -0.0])
    got = _wrap(p.copy())
    assert got.tolist() == [np.pi, np.pi, 0.0, 0.0, 3.5 - 2 * np.pi, 2 * np.pi - 3.5, 0.25, -0.0]
    assert ((got > -np.pi) & (got <= np.pi)).all()


# shapes of a stack of planes, each with shapes that broadcast into it
PLANE_SHAPES = {(): [()], (6,): [(6,), (1,), ()], (3, 5): [(3, 5), (3, 1), (1, 5), ()]}
SPECIAL = np.array([0.0, -0.0, 1e200, -1e-200, 5e-324, np.inf, -np.inf, np.nan])


def random_plane(rng, shape, special=False):
    """A complex plane of ``shape``: all zeros (either sign), or normal draws at a random
    scale, a few entries replaced by zeros, huge, tiny, infinite or NaN values when
    ``special``.  A () plane is a numpy scalar, as the tile loops make at scalar momenta."""
    if rng.integers(0, 4) == 0:
        z = np.full(shape, complex(*rng.choice([0.0, -0.0], 2)))
    else:
        z = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-3, 3)
    if special:
        z = np.array(z, dtype=np.complex128)
        for part in (z.real, z.imag):
            hit = rng.random(shape) < 0.2
            part[hit] = rng.choice(SPECIAL, size=shape)[hit]
    return np.complex128(z) if shape == () else z


def _bits(values) -> list[bytes]:
    return [np.asarray(v).tobytes() for v in values]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shape=st.sampled_from(list(PLANE_SHAPES)), special=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_norm_diff_equals_the_norm_of_the_expanded_difference_bitwise(shape, special, seed):
    """||M - T|| for M = (g, a, b), formed in place, against _norm of the _entries_su2
    entries minus T: |g| off 1 or 0, zero planes, g and the target planes broadcasting."""
    rng = np.random.default_rng(seed)
    fits = PLANE_SHAPES[shape]
    g = np.complex128(rng.choice([0.0, rng.uniform(0.5, 2.0)]) * np.exp(1j * rng.uniform(-4, 4)))
    if shape and rng.integers(0, 2):  # a plane of phases, as the exp_herm target has
        g = random_plane(rng, fits[rng.integers(0, len(fits))])
    x = (g, random_plane(rng, shape, special), random_plane(rng, shape, special))
    target = tuple(random_plane(rng, fits[rng.integers(0, len(fits))], special)
                   for _ in range(4))
    with np.errstate(all="ignore"):  # the special values overflow and make NaNs
        ref = _norm(tuple(p - q for p, q in zip(_entries_su2(x), target)))
        got = _norm_diff(x, target)
    assert np.shape(got) == np.shape(ref) == shape
    assert _bits([got]) == _bits([ref])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shape=st.sampled_from(list(PLANE_SHAPES) + ["view"]), special=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gram_and_radius_in_place_equal_the_whole_expressions_bitwise(shape, special, seed):
    """The in-place sums of _gram, _radius and _norm against the expressions they replace
    (left to right), on numpy scalars, planes and the 0-d views of one (2, 2) matrix;
    the inputs of each are left as they were."""
    rng = np.random.default_rng(seed)
    if shape == "view":
        x = _entries(_from_entries(*(random_plane(rng, (), special) for _ in range(4))))
    else:
        x = tuple(random_plane(rng, shape, special) for _ in range(4))
    before = _bits(x)
    with np.errstate(all="ignore"):  # the special values overflow and make NaNs
        ref = gram_sums(*x)
        assert _bits(_gram(*x)) == _bits(ref)
        grams = _bits(ref)
        assert _bits([_radius(*ref)]) == _bits([radius_sums(*ref)])
        assert _bits(ref) == grams
        p, r, q = ref
        norm = np.sqrt(np.maximum(0.5 * (p + r) + radius_sums(p, r, q), 0.0))
        assert _bits([_norm(x)]) == _bits([norm])
    assert _bits(x) == before


@pytest.mark.parametrize("scalar_phase", [True, False])
def test_two_plane_kernels_do_not_depend_on_the_array_size(scalar_phase):
    """_mul_su2, _power (squarings and products), _entries_su2 and _norm_diff on planes of
    2**14 + 3 complex points, past the 256 KiB at which numpy evaluates ``x * temporary``
    as ``temporary *= x``, equal the same kernels on slices of 1,000 points bit for bit:
    a converge tile gives the same bits at any tile size."""
    rng = np.random.default_rng(7)
    n = 2 ** 14 + 3

    def planes():
        return tuple(rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3))

    x, y, t = planes(), planes(), rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    if scalar_phase:  # the walk's g is one complex number, the target's a plane
        x, y = (complex(x[0][0]),) + x[1:], (complex(y[0][0]),) + y[1:]

    def part(p, s):
        return p[s] if np.ndim(p) else p

    kernels = (lambda x, y, t: _mul_su2(x, y), lambda x, y, t: _power(x, [23]),
               lambda x, y, t: _entries_su2(x), lambda x, y, t: (_norm_diff(x, t),))
    for kernel in kernels:
        whole = [np.broadcast_to(p, (n,)) for p in kernel(x, y, t)]
        pieces = [kernel(*(tuple(part(p, s) for p in z) for z in (x, y, t)))
                  for s in (slice(i, i + 1000) for i in range(0, n, 1000))]
        for i, w in enumerate(whole):
            tiled = np.concatenate([np.broadcast_to(p[i], (min(1000, n - k * 1000),))
                                    for k, p in enumerate(pieces)])
            assert w.tobytes() == tiled.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_square_su2_of_one_element_is_that_element_of_a_longer_plane(seed):
    """_square_su2 of each element alone, as a one-element plane and as a 0-d array,
    equals that element of the square of a plane of 64 points bit for bit: numpy takes
    an in-place product of a one-element array on a scalar path whose |b|^2 has an
    imaginary part of exactly 0, where its loop leaves about 1e-17."""
    rng = np.random.default_rng(seed)
    x = tuple(rng.normal(size=64) + 1j * rng.normal(size=64) for _ in range(3))
    whole = _square_su2(x)
    for i in range(64):
        for alone in (tuple(p[i:i + 1] for p in x), tuple(np.asarray(p[i]) for p in x)):
            square = _square_su2(alone)
            assert [np.ravel(p).tobytes() for p in square] == \
                [p[i:i + 1].tobytes() for p in whole], i


GOLDEN_WALKS = tuple(
    ExperimentConfig.load(Path(__file__).parent / "golden" / name / "config.json").walk
    for name in ("time_compliant", "time_tau4_delta0", "plastic_half_compliant",
                 "plastic_third_compliant"))
STEP_COUNTS = (st.integers(1, 300) | st.integers(1, 2 ** 45)
               | st.integers(0, 45).map(lambda j: 2 ** j))


@st.composite
def ascending_counts(draw):
    """1-16 ascending step counts, drawn from a pool of at most 16 so that some tie."""
    pool = draw(st.lists(STEP_COUNTS, min_size=1, max_size=16))
    return sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(walk=st.sampled_from(GOLDEN_WALKS), counts=ascending_counts(),
       points=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_power_of_a_row_is_the_power_of_that_row_alone_bitwise(walk, counts, points, seed):
    """Each row of _power over a stack of W(k), an eps a row as converge stacks its
    ladder, equals _power of that row alone with its own count, bit for bit, its phase
    included: the rows share the squarings and retire at their counts."""
    rng = np.random.default_rng(seed)
    eps = np.sort(rng.uniform(1e-4, 0.1, len(counts)))[::-1].reshape(-1, 1)
    kx, ky = rng.uniform(-np.pi, np.pi, (2, 1, points))
    w = walk_planes(coin_pair(walk, eps), kx, ky)
    g, a, b = _power(w, counts)
    assert np.shape(g) == (len(counts), 1) or len(counts) == 1
    for i, count in enumerate(counts):
        row = slice(i, i + 1)
        h, e, f = _power((w[0], w[1][row], w[2][row]), [count])
        assert _bits([np.ravel(g)[i], a[row], b[row]]) == _bits([h, e, f])


@pytest.mark.parametrize("seed", range(3))
def test_op_norm_of_one_matrix_is_that_matrix_of_a_stack(seed):
    """op_norm of each matrix alone, as a (2, 2) array and as a (1, 2, 2) stack, equals
    that matrix's entry of op_norm of a 256-matrix stack bit for bit: ``_gram`` takes its
    complex products by ufunc calls, where numpy's scalar path for one element could round
    them differently (a one-group plastic table, a one-point converge tile)."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(256, 2, 2)) + 1j * rng.normal(size=(256, 2, 2))
    whole = op_norm(stack)
    for i, m in enumerate(stack):
        for alone in (m, stack[i:i + 1]):
            assert np.ravel(op_norm(alone)).tobytes() == whole[i:i + 1].tobytes(), i


HERM_SHAPES = [(), (1,), (5,), (3, 4)]
HERM_KINDS = ["hermitian", "below", "above", "non_hermitian", "special"]


def random_stack(rng, shape, kind):
    """A (..., 2, 2) stack of ``kind``: Hermitian (0.5 (Z + Z^dag), exactly), off
    Hermitian in one entry of each slice by a defect just below or just over 1e-10,
    clearly non-Hermitian, or a Hermitian stack with NaN, infinite and 1e308 parts."""
    z = (rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))) \
        * 10.0 ** rng.uniform(-3, 2)
    if kind == "non_hermitian":
        return z
    h = 0.5 * (z + dag(z))
    if kind in ("below", "above"):
        # one entry off per slice: h01 + e or h10 + e has defect |e|, h00 + i e 2|e|
        size = 1e-10 * (rng.uniform(0.9, 0.999) if kind == "below" else rng.uniform(1.001, 1.1))
        e = size * np.exp(1j * rng.uniform(-np.pi, np.pi, size=shape))
        entry = rng.integers(0, 3)
        if entry == 2:
            h[..., 0, 0] += 0.5j * abs(e)
        else:
            h[..., entry, 1 - entry] += e
    if kind == "special":
        for part in (h.real, h.imag):
            hit = rng.random(part.shape) < 0.2
            part[hit] = rng.choice([np.nan, np.inf, -np.inf, 1e308, -1e308], size=part.shape)[hit]
    return h


def _outcome(f):
    try:
        return f()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(shape=st.sampled_from(HERM_SHAPES), kind=st.sampled_from(HERM_KINDS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exp_herm_checks_hermiticity_on_entry_planes_as_on_the_stack(shape, kind, seed):
    """exp_herm's defect on the entry planes of H - H^dag against ||H - H^dag|| of the
    stack (oracles.exp_herm_stack): equal bits where the stack's is finite, NaN where it
    is NaN, the same ValueError text, and where both pass the same two-plane tuple."""
    rng = np.random.default_rng(seed)
    h = random_stack(rng, shape, kind)
    t = rng.uniform(-3, 3)
    defects = []

    def recording(x):
        defects.append(norm(x))
        return defects[-1]

    norm = mat2._norm
    with np.errstate(all="ignore"):  # the special values overflow and make NaNs
        ref_defect = hermiticity_defect_stack(h)
        ref = _outcome(lambda: exp_herm_stack(h, t, "H"))
        with mock.patch.object(mat2, "_norm", recording):
            got = _outcome(lambda: exp_herm(h, t, "H"))
    (defect,) = defects
    assert np.shape(defect) == np.shape(ref_defect) == shape
    finite = np.isfinite(ref_defect)
    assert (np.isnan(defect) == np.isnan(ref_defect)).all()
    assert defect[finite].tobytes() == ref_defect[finite].tobytes()
    if kind in ("hermitian", "below"):
        assert not isinstance(got, str)
    if kind in ("above", "non_hermitian"):
        assert isinstance(got, str)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert _bits(got) == _bits(ref)


def _stack_subscripts(tree: ast.AST):
    """(function, line) of every ``x[..., i, j]`` with integer i and j, by the qualified
    name of the function it is in."""
    def integer(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is int

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            parts = node.slice.elts
            if len(parts) == 3 and isinstance(parts[0], ast.Constant) \
                    and parts[0].value is Ellipsis and integer(parts[1]) and integer(parts[2]):
                yield scope, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    yield from visit(tree, "")


def test_only_entries_reads_the_entries_of_a_stack():
    """No ``[..., i, j]`` subscript in the package outside mat2._entries, which reads a
    stack, mat2._from_entries, which writes one, and mat2.rot, which writes its own; and
    no ``dag``: the Hermiticity check runs on entry planes."""
    src = Path(mat2.__file__).parent
    allowed = {"mat2._entries", "mat2._from_entries", "mat2.rot"}
    found, dags = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(f"{path.stem}{scope}", line) for scope, line in _stack_subscripts(tree)
                  if f"{path.stem}{scope}" not in allowed]
        dags += [(path.stem, node.lineno) for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "dag"
                 or isinstance(node, ast.Name) and node.id == "dag"]
    assert found == []
    assert dags == []
    assert "dag" not in mat2.__all__ and not hasattr(mat2, "dag")
