"""The elementwise 2x2 kernels against the gufunc-matmul forms they replace.

Each kernel is compared with its oracle in ``oracles.py`` at the package
tolerances: 1e-12 for algebra, 1e-11 for unitarity.  ``stack_power`` (numpy's
matmul squaring) and the two-plane power of the k-space tile loops are also
held against an extended-precision power.
"""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasticwalk import lattice, walk_k
from plasticwalk.config import ExperimentConfig
from plasticwalk.mat2 import _defect, _entries_su2, _from_entries, _phases_su2, op_norm, rot
from plasticwalk.timelimit import time_hamiltonian
from plasticwalk._util import check_unitary, stack_power

from conftest import draw_plastic_compliant, draw_time_compliant, draw_time_generic
from oracles import (
    apply_coin, is_hermitian, is_unitary, mul2, op_norm_matmul, power_planes, rot_x,
    stack_power_matmul, time_symbol_matmul, unitarity_defect, unitarity_defect_matmul,
    walk_k_matmul, walk_power_extended, walk_power_planes, walk_power_stack,
)

ALGEBRA_TOL = 1e-12
UNITARITY_TOL = 1e-11

SEEDS = st.integers(0, 2 ** 32 - 1)
# stack shapes, single matrix included; pairs broadcast against each other
SHAPES = st.sampled_from([((), ()), ((5,), (5,)), ((3, 1), (1, 4)), ((4,), ())])


def random_stack(rng, shape):
    return rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))


def random_u2(rng, shape):
    """Haar-like U(2) stack: a global phase times z-y-z rotations."""
    def w():
        return rng.uniform(-10, 10, size=shape)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, size=shape))[..., None, None]
    return phase * (rot("z", w()) @ rot("y", w()) @ rot("z", w()))


def near_identity(rng, shape):
    """+-exp(-i h.sigma/2) with |h| between 1e-12 and 1e-4."""
    h = rng.uniform(-1, 1, size=shape + (3,)) * 10.0 ** rng.uniform(-12, -4, size=shape + (1,))
    sign = rng.choice([-1.0, 1.0], size=shape)[..., None, None]
    return sign * (rot_x(h[..., 0]) @ rot("y", h[..., 1]) @ rot("z", h[..., 2]))


def max_err(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


@settings(max_examples=100, deadline=None)
@given(SEEDS, SHAPES)
def test_mul2_matches_matmul(seed, shapes):
    rng = np.random.default_rng(seed)
    a, b = random_stack(rng, shapes[0]), random_stack(rng, shapes[1])
    got = mul2(a, b)
    assert got.shape == (a @ b).shape
    assert max_err(got, a @ b) <= ALGEBRA_TOL


@settings(max_examples=100, deadline=None)
@given(SEEDS, SHAPES)
def test_op_norm_matches_matmul_gram(seed, shapes):
    rng = np.random.default_rng(seed)
    m = random_stack(rng, shapes[0])
    got = op_norm(m)
    assert np.shape(got) == shapes[0]
    assert max_err(got, op_norm_matmul(m)) <= ALGEBRA_TOL
    assert max_err(got, np.linalg.norm(m, ord=2, axis=(-2, -1))) <= ALGEBRA_TOL


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.floats(-14, -2))
def test_unitarity_defect_matches_matmul_oracle(seed, log_noise):
    rng = np.random.default_rng(seed)
    m = random_u2(rng, (6,)) + 10.0 ** log_noise * random_stack(rng, (6,))
    got = unitarity_defect(m)
    assert max_err(got, unitarity_defect_matmul(m)) <= ALGEBRA_TOL
    # one matrix runs as 0-d entry views; it must agree with the stack
    assert abs(float(unitarity_defect(m[0])) - float(got[0])) <= ALGEBRA_TOL
    clear = np.abs(unitarity_defect_matmul(m) - UNITARITY_TOL) > 1e-13
    for i in np.flatnonzero(clear):
        assert is_unitary(m[i], tol=UNITARITY_TOL) == bool(
            unitarity_defect_matmul(m[i]) <= UNITARITY_TOL)


OVERFLOWING = [np.diag([1e100, 1.0]), np.array([[1e100, 1e100j], [0.0, 1.0]]),
               1e155 * np.array([[1.0, 1.0], [1.0, -1.0]])]
OVERFLOWING_IDS = ["diag-1e100", "triangular-1e100", "hadamard-1e155"]


@pytest.mark.parametrize("m", OVERFLOWING, ids=OVERFLOWING_IDS)
def test_overflowing_entries_follow_numpy(m):
    """Entries whose Gram matrix overflows give inf or NaN on both paths, no exception."""
    m = m.astype(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(op_norm(m), op_norm_matmul(m), equal_nan=True)
        for kernel in (op_norm, unitarity_defect):
            assert np.array_equal(kernel(m), kernel(m[None])[0], equal_nan=True)
        assert not is_unitary(m)
        assert is_hermitian(m) == is_hermitian(m[None]) == bool(np.allclose(m, m.conj().T))


@pytest.mark.parametrize("m", OVERFLOWING, ids=OVERFLOWING_IDS)
def test_apply_coin_rejects_overflowing_coin(m):
    """The oracles' stack check of a coin; ``lattice.step``'s own check of the two-plane
    coin is held at an overflowing angle in ``test_step_rejects_overflowing_coin``."""
    field = lattice.SpinorField.random(4, 4, np.random.default_rng(0))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="unitary"):
        apply_coin(field, m)


def test_check_unitary_takes_only_the_two_plane_tuple():
    """The non-unitary (3, 2, 2) stack [ones, ones/sqrt 2, ones/sqrt 2] is refused; read as
    the planes (g, a, b) it is four unitary matrices, with defect 0."""
    ones = np.ones((2, 2), dtype=np.complex128)
    stack = np.stack([ones, ones / np.sqrt(2), ones / np.sqrt(2)])
    assert not is_unitary(stack)
    for m in (stack, list(stack), tuple(stack[:2])):
        with pytest.raises(TypeError, match="two-plane form"):
            check_unitary(m, "stack", UNITARITY_TOL)
    planes = tuple(stack)
    assert check_unitary(planes, "planes", UNITARITY_TOL) is planes


def random_two_plane(rng, shape, log_noise):
    """(g, a, b): a phase g and an SU(2) pair (a, b), each off its unit modulus by about
    10^log_noise."""
    g = np.exp(1j * rng.uniform(-np.pi, np.pi)) * (1.0 + 10.0 ** log_noise * rng.normal())
    u = random_u2(rng, shape) + 10.0 ** log_noise * random_stack(rng, shape)
    return g, u[..., 0, 0], u[..., 0, 1]


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.floats(-14, -2), st.integers(0, 64))
def test_two_plane_kernels_match_matmul(seed, log_noise, n):
    """The two-plane power, defect identity and eigenphases of g [[a, b], [-b*, a*]]
    against matmul on its four entries, np.linalg.eigvals and the matmul defect."""
    rng = np.random.default_rng(seed)
    x = random_two_plane(rng, (7,), log_noise)
    m = _from_entries(*_entries_su2(x))
    assert max_err(_from_entries(*_entries_su2(power_planes(x, n))), stack_power_matmul(m, n)) \
        <= ALGEBRA_TOL * max(1.0, float(np.max(op_norm(m)))) ** n
    assert max_err(_defect(x), unitarity_defect_matmul(m)) <= ALGEBRA_TOL
    # the pair of phases, in either order, as the sum and product of their unit phasors
    got = np.exp(1j * np.stack(_phases_su2(x), axis=-1))
    ref = np.exp(1j * np.angle(np.linalg.eigvals(m)))
    assert max_err(got.sum(-1), ref.sum(-1)) <= ALGEBRA_TOL
    assert max_err(got.prod(-1), ref.prod(-1)) <= ALGEBRA_TOL


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from(["time", "generic", "plastic"]), st.floats(1e-4, 0.3))
def test_walk_k_matches_matmul_chain(seed, family, eps):
    rng = np.random.default_rng(seed)
    draw = {"time": draw_time_compliant, "generic": draw_time_generic,
            "plastic": draw_plastic_compliant}[family]
    cfg = draw(rng)
    ks = rng.uniform(-np.pi, np.pi, size=7)
    kx, ky = ks[:, None], rng.uniform(-np.pi, np.pi, size=(1, 5))
    w = walk_k(cfg, kx, ky, eps)
    assert w.shape == (7, 5, 2, 2)
    assert max_err(w, walk_k_matmul(cfg, kx, ky, eps)) <= ALGEBRA_TOL
    assert float(np.max(unitarity_defect(w))) <= UNITARITY_TOL
    assert max_err(walk_k(cfg, ks[0], ks[1], eps), walk_k_matmul(cfg, ks[0], ks[1], eps)) \
        <= ALGEBRA_TOL


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(0, 64), st.sampled_from([(), (9,)]))
def test_stack_power_matches_matmul_squaring(seed, n, shape):
    rng = np.random.default_rng(seed)
    m = random_u2(rng, shape)
    got = stack_power(m, n)
    assert got.shape == m.shape
    assert max_err(got, stack_power_matmul(m, n)) <= ALGEBRA_TOL


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(0, 8192), st.booleans())
def test_stack_power_against_extended_precision(seed, n, near):
    rng = np.random.default_rng(seed)
    m = (near_identity if near else random_u2)(rng, (16,))
    ref = stack_power_matmul(m, n, dtype=np.clongdouble)
    assert float(np.max(np.abs(stack_power(m, n) - ref))) <= ALGEBRA_TOL


def _golden_walk(name):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", name, "config.json")
    return ExperimentConfig.load(path).walk


@pytest.mark.parametrize("n,eps", [(1000, 0.05), (8192, 2.0 ** -13), (2 ** 20, 2.0 ** -20)])
def test_two_plane_power_against_extended_precision(n, eps):
    """W(k)^n in the two-plane form, against np.clongdouble from the same angles, on a
    32^2 grid: over the time-mode golden walks, one with |delta_x + delta_y| about 10 (so
    g^n turns) and 124 drawn compliant walks (tau 2 or 4), the mean of each walk's largest
    error over the four-entry squaring's stays within 10%, and no walk's error passes
    n 4e-15.  Either error grows about as n 1e-16, seeded by the roundoff of W(k).

    Walk by walk the ratio spreads from about 0.5 to 2 (standard deviation about 0.27
    around a mean of 1.0), so a bound on one walk, or on a sum over a few, can fail
    with no loss of accuracy; the mean of 128 varies by about 0.02."""
    base = _golden_walk("time_compliant")
    walks = [base, _golden_walk("time_generic"), _golden_walk("time_tau4_delta0"),
             replace(base, coin_x=replace(base.coin_x, delta=base.coin_x.delta + 4.0),
                     coin_y=replace(base.coin_y, delta=base.coin_y.delta + 4.5))]
    assert abs(walks[3].delta_sum) > 10.0
    rng = np.random.default_rng(20240811)
    walks += [draw_time_compliant(rng, tau=int(rng.choice([2, 4]))) for _ in range(124)]
    k = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    kx, ky = k[:, None], k[None, :]
    two_plane, ratios = [], []
    for cfg in walks:
        ref = walk_power_extended(cfg, kx, ky, eps, n)
        two_plane.append(max_err(walk_power_planes(cfg, kx, ky, eps, n), ref))
        ratios.append(two_plane[-1] / max_err(walk_power_stack(cfg, kx, ky, eps, n), ref))
    assert np.mean(ratios) <= 1.1
    assert max(two_plane) <= n * 4e-15  # the growth a step, with room


def test_stack_power_edge_cases():
    m = random_u2(np.random.default_rng(0), (3,))
    assert np.array_equal(stack_power(m, 0), np.broadcast_to(np.eye(2), m.shape))
    assert np.array_equal(stack_power(m, 1), m)
    assert stack_power(m, 1) is not m
    with pytest.raises(ValueError):
        stack_power(m, -1)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(0, 1))
def test_time_symbol_matches_word_matmul(seed, nu):
    rng = np.random.default_rng(seed)
    terms, symbol = time_hamiltonian(draw_time_compliant(rng, nu=nu))
    kx = rng.uniform(-np.pi, np.pi, size=(6, 1))
    ky = rng.uniform(-np.pi, np.pi, size=(1, 4))
    h = symbol(kx, ky)
    assert h.shape == (6, 4, 2, 2)
    assert max_err(h, time_symbol_matmul(terms, kx, ky)) <= ALGEBRA_TOL
    assert max_err(symbol(0.3, -1.2), time_symbol_matmul(terms, 0.3, -1.2)) <= ALGEBRA_TOL
