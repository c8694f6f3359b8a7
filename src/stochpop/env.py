"""Environment distributions and reproducible seeded sampling streams.

The random environment is an i.i.d. sequence of vectors, one coordinate per
scalar distribution in an :class:`EnvSpec`.  Determinism contract:

* Streams are counter-based (Philox4x64-10 keyed by ``(seed, replicate_id)``),
  so distinct replicate ids give statistically independent, non-overlapping
  streams and the full draw sequence is a pure function of the key.
* Every scalar draw is produced by inverse CDF from exactly one uniform
  (normal via ``ndtri``, gamma via ``gammaincinv``), so the value of draw
  ``i`` depends only on ``(seed, replicate_id, i)``, however the draws are
  cut into calls or grouped with other streams' draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, ndtri

from .errors import ConfigurationError

__all__ = [
    "Constant",
    "Normal",
    "LogNormal",
    "Gamma",
    "Uniform",
    "Discrete",
    "EnvSpec",
    "Stream",
    "make_stream",
    "sample",
    "sample_block",
    "parse_dist",
    "parse_env_spec",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class Constant:
    value: float

    def validate(self):
        if not math.isfinite(self.value):
            raise ConfigurationError("constant distribution needs a finite value")

    def ppf(self, u):
        return np.full_like(u, self.value, dtype=float)

    def mean(self):
        return self.value


@dataclass(frozen=True)
class Normal:
    mean_: float
    sd: float

    def validate(self):
        if not (self.sd > 0):
            raise ConfigurationError("normal sd must be strictly positive")

    def ppf(self, u):
        return self.mean_ + self.sd * ndtri(u)

    def mean(self):
        return self.mean_


@dataclass(frozen=True)
class LogNormal:
    log_mean: float
    log_sd: float

    def validate(self):
        if not (self.log_sd > 0):
            raise ConfigurationError("lognormal log_sd must be strictly positive")

    def ppf(self, u):
        return np.exp(self.log_mean + self.log_sd * ndtri(u))

    def mean(self):
        return math.exp(self.log_mean + 0.5 * self.log_sd**2)


@dataclass(frozen=True)
class Gamma:
    shape: float
    scale: float

    def validate(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ConfigurationError("gamma shape and scale must be strictly positive")

    def ppf(self, u):
        # shape 1 is exponential; the closed form is much faster than the
        # general inverse regularized incomplete gamma.
        if self.shape == 1.0:
            return -self.scale * np.log1p(-u)
        return self.scale * gammaincinv(self.shape, u)

    def mean(self):
        return self.shape * self.scale


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def validate(self):
        if not (self.lo < self.hi):
            raise ConfigurationError("uniform bounds need lo < hi")

    def ppf(self, u):
        return self.lo + (self.hi - self.lo) * u

    def mean(self):
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class Discrete:
    values: tuple
    probs: tuple

    def validate(self):
        if len(self.values) == 0 or len(self.values) != len(self.probs):
            raise ConfigurationError("discrete values/probs must be equal-length and nonempty")
        p = np.asarray(self.probs, dtype=float)
        if np.any(p < 0):
            raise ConfigurationError("discrete probs must be nonnegative")
        if abs(float(p.sum()) - 1.0) > _PROB_TOL:
            raise ConfigurationError(
                f"discrete probs must sum to 1 within {_PROB_TOL:g}, got {float(p.sum())!r}"
            )

    def ppf(self, u):
        cum = np.cumsum(np.asarray(self.probs, dtype=float))
        cum[-1] = 1.0  # absorb rounding so u close to 1 stays in range
        idx = np.searchsorted(cum, u, side="right")
        return np.asarray(self.values, dtype=float)[np.minimum(idx, len(self.values) - 1)]

    def mean(self):
        return float(np.dot(self.values, self.probs))


@dataclass(frozen=True)
class EnvSpec:
    """Mutually independent scalar coordinates of the environment vector."""

    coords: tuple

    def __post_init__(self):
        if len(self.coords) == 0:
            raise ConfigurationError("environment needs at least one coordinate")
        for c in self.coords:
            c.validate()

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_deterministic(self) -> bool:
        return all(isinstance(c, Constant) for c in self.coords)

    def means(self) -> np.ndarray:
        return np.array([c.mean() for c in self.coords])

    def transform(self, u: np.ndarray, out=None) -> np.ndarray:
        """Map uniforms of shape ``(..., dim)`` to environment vectors, in
        ``out`` (of u's shape, any strides) when given."""
        if out is None:
            out = np.empty_like(u, dtype=float)
        for j, c in enumerate(self.coords):
            out[..., j] = c.ppf(u[..., j])
        return out


def open_unit(u: np.ndarray) -> np.ndarray:
    """Nudge exact zeros of [0, 1) words to 2**-54, in place, so inverse
    CDFs stay finite; the smallest nonzero word is 2**-53."""
    u[u == 0.0] = 2.0**-54
    return u


class Stream:
    """Deterministic uniform stream keyed by ``(seed, replicate_id)``.

    A stream must not be drawn from concurrently; parallel work uses one
    stream per replicate.
    """

    def __init__(self, seed: int, replicate_id: int):
        if replicate_id < 0:
            raise ConfigurationError("replicate_id must be nonnegative")
        self.seed = int(seed)
        self.replicate_id = int(replicate_id)
        key = np.array([self.seed, self.replicate_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, n: int, out=None) -> np.ndarray:
        """``n`` doubles in the open interval (0, 1), one 64-bit word each.

        With ``out`` (a contiguous length-``n`` row of a larger block) the
        words are written there as drawn, in [0, 1): the caller runs
        :func:`open_unit` once over the whole block."""
        if out is not None:
            return self._gen.random(n, out=out)
        return open_unit(self._gen.random(n))

    def __repr__(self):
        return f"Stream(seed={self.seed}, replicate_id={self.replicate_id})"


def make_stream(seed: int, replicate_id: int = 0) -> Stream:
    """Fresh stream; draws depend only on (seed, replicate_id, draw index)."""
    return Stream(seed, replicate_id)


def sample(spec: EnvSpec, stream: Stream) -> np.ndarray:
    """One environment vector, advancing the stream by ``spec.dim`` draws."""
    u = stream.uniforms(spec.dim)
    return spec.transform(u)


def sample_block(spec: EnvSpec, stream: Stream, n: int) -> np.ndarray:
    """``(n, dim)`` environment vectors from a single stream."""
    u = stream.uniforms(n * spec.dim).reshape(n, spec.dim)
    return spec.transform(u)


_DIST_FIELDS = {
    "constant": ("value",),
    "normal": ("mean", "sd"),
    "lognormal": ("log_mean", "log_sd"),
    "gamma": ("shape", "scale"),
    "uniform": ("lo", "hi"),
    "discrete": ("values", "probs"),
}


def parse_dist(obj) -> object:
    """Build a scalar distribution from its JSON form.

    A bare number is shorthand for a constant.
    """
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        d = Constant(float(obj))
        d.validate()
        return d
    if not isinstance(obj, dict):
        raise ConfigurationError(f"distribution must be a number or object, got {obj!r}")
    kind = obj.get("dist")
    if kind not in _DIST_FIELDS:
        raise ConfigurationError(f"unknown distribution kind {kind!r}")
    fields = _DIST_FIELDS[kind]
    extra = set(obj) - set(fields) - {"dist"}
    if extra:
        raise ConfigurationError(f"unknown keys {sorted(extra)} for {kind!r} distribution")
    missing = [f for f in fields if f not in obj]
    if missing:
        raise ConfigurationError(f"{kind!r} distribution missing keys {missing}")
    if kind == "constant":
        d = Constant(float(obj["value"]))
    elif kind == "normal":
        d = Normal(float(obj["mean"]), float(obj["sd"]))
    elif kind == "lognormal":
        d = LogNormal(float(obj["log_mean"]), float(obj["log_sd"]))
    elif kind == "gamma":
        d = Gamma(float(obj["shape"]), float(obj["scale"]))
    elif kind == "uniform":
        d = Uniform(float(obj["lo"]), float(obj["hi"]))
    else:
        d = Discrete(tuple(float(v) for v in obj["values"]), tuple(float(p) for p in obj["probs"]))
    d.validate()
    return d


def dist_to_config(dist) -> dict:
    """Inverse of :func:`parse_dist`, for provenance echoing."""
    if isinstance(dist, Constant):
        return {"dist": "constant", "value": dist.value}
    if isinstance(dist, Normal):
        return {"dist": "normal", "mean": dist.mean_, "sd": dist.sd}
    if isinstance(dist, LogNormal):
        return {"dist": "lognormal", "log_mean": dist.log_mean, "log_sd": dist.log_sd}
    if isinstance(dist, Gamma):
        return {"dist": "gamma", "shape": dist.shape, "scale": dist.scale}
    if isinstance(dist, Uniform):
        return {"dist": "uniform", "lo": dist.lo, "hi": dist.hi}
    if isinstance(dist, Discrete):
        return {"dist": "discrete", "values": list(dist.values), "probs": list(dist.probs)}
    raise ConfigurationError(f"not a distribution: {dist!r}")


def parse_env_spec(obj) -> EnvSpec:
    """Build an :class:`EnvSpec` from ``{"coords": [dist, ...]}``."""
    if not isinstance(obj, dict) or set(obj) != {"coords"}:
        raise ConfigurationError('environment spec must be {"coords": [...]}')
    coords = obj["coords"]
    if not isinstance(coords, list) or not coords:
        raise ConfigurationError("environment coords must be a nonempty list")
    return EnvSpec(tuple(parse_dist(c) for c in coords))


def env_to_config(spec: EnvSpec) -> dict:
    return {"coords": [dist_to_config(c) for c in spec.coords]}
