"""Experiment configuration: a single JSON document, parsed and checked once.

One section per subsystem:

    {
      "schema_version": 1,
      "walk": {
        "mode": "time" | "plastic",
        "tau": <int>,
        "a": "p/q",                  exact rational, 0 <= a <= 1 (0 in time mode)
        "coin_x": {"delta", "zeta0", "zeta1", "theta0", "theta1",
                   "phi0", "phi1", "b": "p/q"},
        "coin_y": {...}
      },
      "lattice": {"nx": <int>, "ny": <int>},
      "run": {"t_final": <float>, "eps": <float>, "eps_list": [...],
              "grid": <int>, "steps": <int>, "momenta": [[kx, ky], ...],
              "initial": {"type": "plane_wave" | "delta" | "random",
                          "kx": ..., "ky": ...}},
      "seed": <int>
    }

``from_dict`` only parses; an absent key keeps its dataclass default, and
its ``seed`` argument (the CLI's --seed) replaces the document's seed.
Ranges are checked in ``ExperimentConfig.__post_init__``, once per load, and
a config changed with ``dataclasses.replace`` is checked too: nx, ny >= 2, grid >= 1,
steps >= 0, eps > 0, at most 16 eps_list entries, at least 3 distinct, all > 0, t_final >= 0
with t_final / eps finite, at least one momentum, tau at most 2**53,
seed >= 0, finite initial kx and ky, and a known initial type.  The walk
rules (mode, tau, a, b and the jet rules of each mode) are ``WalkConfig``'s.
Integer keys (tau, nx, ny, grid, steps, seed) refuse booleans and numbers with
a fractional part, so 2.5 is an error, not 2; real-valued keys (t_final, eps,
the eps_list and momenta entries, initial kx and ky, the coin angles) refuse
booleans.  eps_list and momenta must be JSON arrays, and each momentum an array
[kx, ky].  Unknown sections and keys, such as an "output" section, are ignored.

Exponents are rationals written as "p/q" strings so the exact matching in the
term enumerator never sees a float; the two coins' "b" (absent: 1) must be equal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .coins import CoinJet, WalkConfig

__all__ = ["ExperimentConfig", "ConfigError", "parse_rational"]


class ConfigError(ValueError):
    """Malformed configuration; maps to CLI exit code 2."""


def parse_rational(text, key: str = "exponent") -> Fraction:
    """Parse an exact 'p/q' (or integer 'p') rational string; errors name ``key``."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ConfigError(f"{key} must be a 'p/q' string, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r} for {key}: {exc}") from None


def _integer(key: str):
    """The parser of an integer key: booleans and numbers with a fractional part are refused."""
    def parse(value) -> int:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(value)
    return parse


def _real(key: str):
    """The parser of a real-valued key: booleans are refused, anything else goes through float."""
    def parse(value) -> float:
        if isinstance(value, bool):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        return float(value)
    return parse


# Most eps_list entries: each is a full walk power over the k-grid in time-mode converge,
# which the k-point work budget does not count.
MAX_EPS_LIST = 16
_COIN_KEYS = ("delta", "zeta0", "zeta1", "theta0", "theta1", "phi0", "phi1")
# per coin: the parser of each angle, in CoinJet field order, and the name of its b
_COINS = {c: ([(k, _real(f"walk.{c}.{k}")) for k in _COIN_KEYS], f"walk.{c}.b")
          for c in ("coin_x", "coin_y")}
_INITIAL_TYPES = ("plane_wave", "delta", "random")
# the parser of each optional key; an absent key keeps the dataclass field default
_WALK = {"tau": ("tau", _integer("walk.tau")),
         "a": ("a_exp", lambda text: parse_rational(text, "walk.a"))}


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _array(value, name: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ConfigError(f"{name} must have {length} entries, got {len(value)}")
    return value


def _coin_from_dict(section, name: str) -> tuple[CoinJet, Fraction]:
    """The coin jet of walk.<name> and its driving exponent b (1 when absent)."""
    section = _object(section, "coin section")
    parsers, b_key = _COINS[name]
    angles = [parse(section[k]) for k, parse in parsers]
    b = parse_rational(section.get("b", 1), b_key)
    return CoinJet(*angles), b


def _walk_from_dict(section) -> WalkConfig:
    section = _object(section, "walk")
    mode = section["mode"]
    coin_x, b_x = _coin_from_dict(section["coin_x"], "coin_x")
    coin_y, b_y = _coin_from_dict(section["coin_y"], "coin_y")
    if b_y != b_x:  # the schema writes b per coin; the walk has one
        raise ConfigError(f"walk.coin_y.b must equal walk.coin_x.b (one b for both coins), "
                          f"got {b_y} and {b_x}")
    return WalkConfig(coin_x=coin_x, coin_y=coin_y, b_exp=b_x, mode=mode,
                      **{name: parse(section[key]) for key, (name, parse) in _WALK.items()
                         if key in section})


def _initial_from_dict(section) -> dict:
    initial = dict(_object(section, "run.initial"))
    initial.update({k: _real(f"run.initial.{k}")(initial[k]) for k in ("kx", "ky")
                    if k in initial})
    return initial


_SECTIONS = {
    "lattice": {"nx": _integer("lattice.nx"), "ny": _integer("lattice.ny")},
    "run": {"t_final": _real("run.t_final"), "eps": _real("run.eps"),
            "grid": _integer("run.grid"), "steps": _integer("run.steps"),
            "eps_list": lambda v, real=_real("run.eps_list entry"):
                tuple(map(real, _array(v, "run.eps_list"))),
            "momenta": lambda v, real=_real("run.momenta entry"):
                tuple(tuple(map(real, _array(k, "run.momenta entry", 2)))
                      for k in _array(v, "run.momenta")),
            "initial": _initial_from_dict},
}
_SEED = _integer("seed")


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
    initial: dict = field(default_factory=lambda: {"type": "plane_wave", "kx": 0.0, "ky": 0.0})
    seed: int = 0

    def __post_init__(self):
        # each message is formatted only when its check fails
        if not min(self.nx, self.ny) >= 2:
            raise ConfigError(f"lattice nx and ny must be >= 2, got {self.nx}, {self.ny}")
        if not self.grid >= 1:
            raise ConfigError(f"run.grid must be >= 1, got {self.grid}")
        if not self.steps >= 0:
            raise ConfigError(f"run.steps must be >= 0, got {self.steps}")
        if not self.eps > 0:
            raise ConfigError(f"run.eps must be > 0, got {self.eps}")
        if not (len(set(self.eps_list)) >= 3 and all(e > 0 for e in self.eps_list)):
            raise ConfigError(f"run.eps_list needs at least 3 distinct entries, all > 0, "
                              f"got {list(self.eps_list)}")
        if not len(self.eps_list) <= MAX_EPS_LIST:
            raise ConfigError(f"run.eps_list may have at most {MAX_EPS_LIST} entries, "
                              f"got {len(self.eps_list)}")
        if not (self.t_final >= 0 and math.isfinite(self.t_final / min(self.eps_list))):
            raise ConfigError(f"run.t_final must be >= 0 with t_final / eps finite, "
                              f"got {self.t_final}")
        if len(self.momenta) == 0:
            raise ConfigError("run.momenta must not be empty")
        if not self.walk.tau <= 2 ** 53:
            raise ConfigError("walk.tau must be at most 2**53")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not all(math.isfinite(self.initial.get(k, 0.0)) for k in ("kx", "ky")):
            raise ConfigError(f"run.initial kx and ky must be finite, got {self.initial}")
        if self.initial_type not in _INITIAL_TYPES:
            raise ConfigError(f"run.initial.type must be one of {_INITIAL_TYPES}, "
                              f"got {self.initial_type!r}")

    @property
    def initial_type(self) -> str:
        return self.initial.get("type", "plane_wave")

    @staticmethod
    def from_dict(doc: dict, seed: int | None = None) -> "ExperimentConfig":
        """The config of ``doc``; ``seed``, when given, replaces the document's seed."""
        doc = _object(doc, "config root")
        sections = [(_object(doc.get(name, {}), name), parsers)
                    for name, parsers in _SECTIONS.items()]
        try:
            walk = _walk_from_dict(doc.get("walk"))
            values = {key: parse(section[key]) for section, parsers in sections
                      for key, parse in parsers.items() if key in section}
            if "seed" in doc:
                values["seed"] = _SEED(doc["seed"])
            if seed is not None:
                values["seed"] = seed
        except KeyError as exc:  # only walk and coin keys are required
            raise ConfigError(f"walk section missing key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config value: {exc}") from None
        return ExperimentConfig(walk=walk, **values)

    @staticmethod
    def load(path, seed: int | None = None) -> "ExperimentConfig":
        try:
            with open(path, "rb") as fh:  # json detects UTF-8 (with or without a BOM), -16, -32
                doc = json.loads(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return ExperimentConfig.from_dict(doc, seed)
