import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasticwalk.mat2 import ID2, SY, SZ, _wrap, dag, exp_herm, op_norm, rot

from oracles import det2, eig2, is_hermitian, is_unitary


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
        err = op_norm(rot(axis, w1) @ rot(axis, w2) - rot(axis, w1 + w2))
        assert float(np.max(err)) <= 1e-12


def test_rot_is_su2():
    rng = np.random.default_rng(1)
    w = rng.uniform(-10, 10, size=200)
    for axis in "xyz":
        m = rot(axis, w)
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
        m = m @ rot(axis, rng.uniform(-6, 6))
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


def test_exp_herm_trivial_cases():
    assert np.allclose(exp_herm(np.zeros((2, 2)), 0.7), ID2, atol=1e-15)
    got = exp_herm(SZ, np.pi / 2)
    assert np.allclose(got, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-14)


def test_exp_herm_matches_series_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = random_hermitian(rng)
        t = 0.7
        expected = _expm_series(-1j * h * t)
        assert float(op_norm(exp_herm(h, t) - expected)) <= 1e-12


def test_exp_herm_group_property():
    rng = np.random.default_rng(6)
    for _ in range(100):
        h = random_hermitian(rng)
        t1, t2 = rng.uniform(-2, 2, size=2)
        lhs = exp_herm(h, t1) @ exp_herm(h, t2)
        assert float(op_norm(lhs - exp_herm(h, t1 + t2))) <= 1e-11


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
