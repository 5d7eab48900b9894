"""Experiment configuration: a single JSON document, exact round-trip.

One section per subsystem:

    {
      "schema_version": 1,
      "walk": {
        "mode": "time" | "plastic",
        "tau": <int>,
        "a": "p/q",                  exact rational, 0 <= a <= 1
        "delta_spatial": <float>,
        "coin_x": {"delta", "zeta0", "zeta1", "theta0", "theta1",
                   "phi0", "phi1", "b": "p/q"},
        "coin_y": {...}
      },
      "lattice": {"nx": <int>, "ny": <int>},
      "run": {"t_final": <float>, "eps": <float>, "eps_list": [...],
              "grid": <int>, "steps": <int>, "momenta": [[kx, ky], ...],
              "l_index": <int>,
              "initial": {"type": "plane_wave" | "delta" | "random",
                          "kx": ..., "ky": ...}},
      "seed": <int>
    }

Ranges are checked on load: nx, ny >= 2, grid >= 1, steps >= 0, eps > 0,
at least three eps_list entries, all > 0, and at least one momentum.
The initial momenta kx, ky must be numbers.
Unknown sections, such as an "output" section, are ignored.

Exponents are rationals written as "p/q" strings so the exact matching
in the term enumerator never sees a float.  Emission is canonical
(sorted keys), so parse -> emit round-trips byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .coins import CoinJet, WalkConfig

__all__ = ["ExperimentConfig", "ConfigError", "parse_rational", "format_rational"]


class ConfigError(ValueError):
    """Malformed configuration; maps to CLI exit code 2."""


def parse_rational(text) -> Fraction:
    """Parse an exact 'p/q' (or integer 'p') rational string."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ConfigError(f"rational exponents must be 'p/q' strings, got {text!r}")
    try:
        frac = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}") from None
    return frac


def format_rational(frac: Fraction) -> str:
    return f"{frac.numerator}/{frac.denominator}"


_COIN_KEYS = ("delta", "zeta0", "zeta1", "theta0", "theta1", "phi0", "phi1")


def _coin_from_dict(section: dict, mode: str) -> CoinJet:
    try:
        values = {k: float(section[k]) for k in _COIN_KEYS}
    except KeyError as exc:
        raise ConfigError(f"coin section missing key {exc}") from None
    b = parse_rational(section.get("b", "1/1"))
    if not (0 < b <= 1):
        raise ConfigError(f"coin exponent b must lie in (0, 1], got {b}")
    try:
        return CoinJet(b_exp=b, mode=mode, **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _coin_to_dict(jet: CoinJet) -> dict:
    out = {k: float(getattr(jet, k if k != "delta" else "delta")) for k in _COIN_KEYS}
    out["b"] = format_rational(jet.b_exp)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    walk: WalkConfig
    nx: int = 32
    ny: int = 32
    t_final: float = 1.0
    eps: float = 2.0 ** -6
    eps_list: tuple[float, ...] = tuple(2.0 ** -k for k in range(6, 13))
    grid: int = 9
    steps: int = 100
    momenta: tuple[tuple[float, float], ...] = ((0.7, -0.3), (0.23, 0.9), (-0.51, 0.42))
    l_index: int = 0
    initial: dict = field(default_factory=lambda: {"type": "plane_wave", "kx": 0.0, "ky": 0.0})
    seed: int = 0

    @property
    def a_exp(self) -> Fraction:
        return self.walk.a_exp

    @property
    def b_exp(self) -> Fraction:
        return self.walk.coin_x.b_exp

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        try:
            wsec = doc["walk"]
            mode = wsec["mode"]
            if mode not in ("time", "plastic"):
                raise ConfigError(f"walk.mode must be 'time' or 'plastic', got {mode!r}")
            a = parse_rational(wsec.get("a", "0/1"))
            if not (0 <= a <= 1):
                raise ConfigError(f"walk exponent a must lie in [0, 1], got {a}")
            walk = WalkConfig(
                coin_x=_coin_from_dict(wsec["coin_x"], mode),
                coin_y=_coin_from_dict(wsec["coin_y"], mode),
                tau=int(wsec.get("tau", 2)),
                a_exp=a,
                delta_spatial=float(wsec.get("delta_spatial", 1.0)),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad walk section: {exc}") from None

        lat = doc.get("lattice", {})
        run = doc.get("run", {})
        try:
            initial = dict(run.get("initial", {"type": "plane_wave", "kx": 0.0, "ky": 0.0}))
            initial.update({k: float(initial[k]) for k in ("kx", "ky") if k in initial})
            cfg = ExperimentConfig(
                walk=walk,
                nx=int(lat.get("nx", 32)),
                ny=int(lat.get("ny", 32)),
                t_final=float(run.get("t_final", 1.0)),
                eps=float(run.get("eps", 2.0 ** -6)),
                eps_list=tuple(float(e) for e in run.get(
                    "eps_list", [2.0 ** -k for k in range(6, 13)])),
                grid=int(run.get("grid", 9)),
                steps=int(run.get("steps", 100)),
                momenta=tuple((float(m[0]), float(m[1])) for m in run.get(
                    "momenta", [(0.7, -0.3), (0.23, 0.9), (-0.51, 0.42)])),
                l_index=int(run.get("l_index", 0)),
                initial=initial,
                seed=int(doc.get("seed", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from None
        if min(cfg.nx, cfg.ny) < 2:
            raise ConfigError(f"lattice nx and ny must be >= 2, got {cfg.nx}, {cfg.ny}")
        if cfg.grid < 1:
            raise ConfigError(f"run.grid must be >= 1, got {cfg.grid}")
        if cfg.steps < 0:
            raise ConfigError(f"run.steps must be >= 0, got {cfg.steps}")
        if not cfg.eps > 0:
            raise ConfigError(f"run.eps must be > 0, got {cfg.eps}")
        if len(cfg.eps_list) < 3 or not all(e > 0 for e in cfg.eps_list):
            raise ConfigError(f"run.eps_list needs at least 3 entries, all > 0, "
                              f"got {list(cfg.eps_list)}")
        if not cfg.momenta:
            raise ConfigError("run.momenta must not be empty")
        return cfg

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "walk": {
                "mode": self.walk.mode,
                "tau": self.walk.tau,
                "a": format_rational(self.walk.a_exp),
                "delta_spatial": self.walk.delta_spatial,
                "coin_x": _coin_to_dict(self.walk.coin_x),
                "coin_y": _coin_to_dict(self.walk.coin_y),
            },
            "lattice": {"nx": self.nx, "ny": self.ny},
            "run": {
                "t_final": self.t_final,
                "eps": self.eps,
                "eps_list": list(self.eps_list),
                "grid": self.grid,
                "steps": self.steps,
                "momenta": [list(m) for m in self.momenta],
                "l_index": self.l_index,
                "initial": dict(self.initial),
            },
            "seed": self.seed,
        }

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return ExperimentConfig.from_dict(doc)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
