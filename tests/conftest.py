"""Shared draw helpers: walk families, compliant and not, and floats a few ulps apart."""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from plasticwalk import CoinJet, WalkConfig

HALF = Fraction(1, 2)
# the exponents in (0, 1] with denominators up to 8
FAREY_8 = sorted({Fraction(p, q) for q in range(1, 9) for p in range(1, q + 1)})


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer() -> ModuleType:
    """The benchmark's ``perfbench/tracer.py``, loaded by its path and left unchanged."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def load_workloads() -> ModuleType:
    """The benchmark's ``perfbench/workloads.py``, loaded by its path and left unchanged, with
    the tracer it imports as ``tracer`` (:func:`load_tracer`)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    saved = {name: sys.modules.get(name) for name in ("tracer", spec.name)}
    # its dataclasses look the module up by name while they are built
    sys.modules.update({"tracer": load_tracer(), spec.name: workloads})
    try:
        spec.loader.exec_module(workloads)
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name)
            else:
                sys.modules[name] = module
    return workloads


def nudged(x: float, n: int) -> float:
    """x moved n units in the last place (toward +inf for n > 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


def draw_time_compliant(rng: np.random.Generator, nu: int | None = None,
                        tau: int = 2, strong_theta1: bool = False) -> WalkConfig:
    """Random config satisfying the continuous-time constraints exactly."""
    if nu is None:
        nu = int(rng.integers(0, 2))
    m, t = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
    theta0x = 2.0 * np.pi * m + nu * np.pi
    theta0y = 2.0 * np.pi * t + (1 - nu) * np.pi
    p = 2 * int(rng.integers(-2, 3)) + 1
    delta = -p * np.pi / 2.0
    dx = rng.uniform(-np.pi, np.pi)

    def first_order():
        v = rng.uniform(0.3, 1.0) if strong_theta1 else rng.uniform(-1.0, 1.0)
        return float(v * rng.choice([-1.0, 1.0])) if strong_theta1 else float(v)

    jx = CoinJet(delta=float(dx), zeta0=float(rng.uniform(-np.pi, np.pi)),
                 zeta1=float(rng.uniform(-1, 1)), theta0=float(theta0x),
                 theta1=first_order(), phi0=float(rng.uniform(-np.pi, np.pi)),
                 phi1=float(rng.uniform(-1, 1)))
    jy = CoinJet(delta=float(delta - dx), zeta0=float(rng.uniform(-np.pi, np.pi)),
                 zeta1=float(rng.uniform(-1, 1)), theta0=float(theta0y),
                 theta1=first_order(), phi0=float(rng.uniform(-np.pi, np.pi)),
                 phi1=float(rng.uniform(-1, 1)))
    return WalkConfig(coin_x=jx, coin_y=jy, tau=tau)


def draw_time_generic(rng: np.random.Generator, tau: int = 2) -> WalkConfig:
    """Random config bounded away from the theta branch constraint."""
    while True:
        theta0x = float(rng.uniform(-np.pi, np.pi))
        theta0y = float(rng.uniform(-np.pi, np.pi))
        gap = abs(((theta0x - theta0y) % (2.0 * np.pi)))
        if min(abs(gap - np.pi), abs(theta0x % np.pi), abs(theta0y % np.pi)) > 0.3:
            break
    jx = CoinJet(delta=float(rng.uniform(-np.pi, np.pi)),
                 zeta0=float(rng.uniform(-np.pi, np.pi)), zeta1=float(rng.uniform(-1, 1)),
                 theta0=theta0x, theta1=float(rng.uniform(-1, 1)),
                 phi0=float(rng.uniform(-np.pi, np.pi)), phi1=float(rng.uniform(-1, 1)))
    jy = CoinJet(delta=float(rng.uniform(-np.pi, np.pi)),
                 zeta0=float(rng.uniform(-np.pi, np.pi)), zeta1=float(rng.uniform(-1, 1)),
                 theta0=theta0y, theta1=float(rng.uniform(-1, 1)),
                 phi0=float(rng.uniform(-np.pi, np.pi)), phi1=float(rng.uniform(-1, 1)))
    return WalkConfig(coin_x=jx, coin_y=jy, tau=tau)


def plastic_from_angles(a1: float, a2: float, rng: np.random.Generator,
                        m: int | None = None, t: int | None = None,
                        theta1x: float | None = None,
                        theta1y: float | None = None) -> WalkConfig:
    """Plastic config realizing a1 = phi_x + zeta_y, a2 = phi_y + zeta_x."""
    if m is None:
        m = int(rng.integers(-1, 2))
    if t is None:
        t = int(rng.integers(-1, 2))
    phx = float(rng.uniform(-np.pi, np.pi))
    phy = float(rng.uniform(-np.pi, np.pi))
    p = 2 * int(rng.integers(-1, 2)) + 1
    dx = float(rng.uniform(-np.pi, np.pi))
    thx = float(rng.uniform(0.3, 1.0) * rng.choice([-1, 1])) if theta1x is None else theta1x
    thy = float(rng.uniform(0.3, 1.0) * rng.choice([-1, 1])) if theta1y is None else theta1y
    jx = CoinJet(delta=dx, zeta0=a2 - phy, theta0=2.0 * np.pi * m, theta1=thx, phi0=phx)
    jy = CoinJet(delta=-p * np.pi / 2.0 - dx, zeta0=a1 - phx,
                 theta0=2.0 * np.pi * t + np.pi, theta1=thy, phi0=phy)
    return WalkConfig(coin_x=jx, coin_y=jy, tau=2, a_exp=HALF, b_exp=HALF, mode="plastic")


def draw_plastic_compliant(rng: np.random.Generator, **kw) -> WalkConfig:
    """Config on the true divergence shell: a1, a2 in pi Z with odd sum."""
    big_a = int(rng.integers(-2, 3))
    big_b = big_a + 1 + 2 * int(rng.integers(-1, 2))
    if rng.integers(0, 2):
        big_a, big_b = big_b, big_a
    return plastic_from_angles(np.pi * big_a, np.pi * big_b, rng, **kw)


def draw_plastic_generic(rng: np.random.Generator) -> WalkConfig:
    """Compliant theta0 branch but generic a1, a2 (divergent)."""
    while True:
        a1 = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        a2 = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        d_res = abs(np.cos((a1 - a2) / 2.0))
        s_res = abs(np.cos((a1 + a2) / 2.0))
        if max(d_res, s_res) > 0.2:
            return plastic_from_angles(a1, a2, rng)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
