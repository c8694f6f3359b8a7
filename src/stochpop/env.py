"""Environment distributions and reproducible seeded sampling streams.

The random environment is an i.i.d. sequence of vectors, one coordinate per
scalar distribution in an :class:`EnvSpec`.  Determinism contract:

* Streams are counter-based (Philox4x64-10 keyed by ``(seed, replicate_id)``),
  so distinct replicate ids give statistically independent, non-overlapping
  streams and the full draw sequence is a pure function of the key.
* Every scalar draw is produced by inverse CDF from exactly one uniform
  (normal via ``ndtri``, gamma via ``gammaincinv``), so the value of draw
  ``i`` depends only on ``(seed, replicate_id, i)``, however the draws are
  cut into calls or grouped with other streams' draws.  Every draw lies in
  :meth:`EnvSpec.bounds`, so it is finite in any environment a model accepts.
* :meth:`EnvSpec.transform` runs every ppf inline, in the calling thread,
  a cache-sized block at a time; each value is computed from its own
  uniform by the same ppf, so the bits do not depend on how the draws are
  cut into blocks.  The package's only parallelism is the engine's forked
  row slices; it starts no thread.

Every ``ppf(u, out=None)`` computes in place: it writes its result into
``out`` (any strides, u's shape) and returns it, or into a new array when
``out`` is None, and allocates no other temporary of u's size (Discrete
needs one index array).  Each in-place step is an operation of the plain
expression (``mean + sd * ndtri(u)`` and so on) with its operands swapped;
IEEE multiplication and addition commute, so the bits are the same.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

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
    "sample_block",
    "parse_dist",
    "parse_env_spec",
]

_PROB_TOL = 1e-12
# Most entries in the transform's scratch: 512 KiB, which stays in cache
_SCRATCH = 1 << 16


def _result(u, out):
    """Where a ppf writes: ``out``, or a new array of u's shape."""
    return np.empty(np.shape(u)) if out is None else out


@dataclass(frozen=True)
class Constant:
    value: float

    def validate(self):
        if not math.isfinite(self.value):
            raise ConfigurationError("constant distribution needs a finite value")

    def ppf(self, u, out=None):
        out = _result(u, out)
        out[...] = self.value
        return out

    def mean(self):
        return self.value


@dataclass(frozen=True)
class Normal:
    mean_: float
    sd: float

    def validate(self):
        if not (self.sd > 0):
            raise ConfigurationError("normal sd must be strictly positive")

    def ppf(self, u, out=None):
        out = ndtri(u, out=_result(u, out))
        out *= self.sd
        out += self.mean_
        return out

    def mean(self):
        return self.mean_


@dataclass(frozen=True)
class LogNormal:
    log_mean: float
    log_sd: float

    def validate(self):
        if not (self.log_sd > 0):
            raise ConfigurationError("lognormal log_sd must be strictly positive")

    def ppf(self, u, out=None):
        out = ndtri(u, out=_result(u, out))
        out *= self.log_sd
        out += self.log_mean
        return np.exp(out, out=out)

    def mean(self):
        return math.exp(self.log_mean + 0.5 * self.log_sd**2)


@dataclass(frozen=True)
class Gamma:
    shape: float
    scale: float

    def validate(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ConfigurationError("gamma shape and scale must be strictly positive")

    def ppf(self, u, out=None):
        out = _result(u, out)
        # shape 1 is exponential; the closed form is much faster than the
        # general inverse regularized incomplete gamma.
        if self.shape == 1.0:
            np.negative(u, out=out)
            np.log1p(out, out=out)
            out *= -self.scale
        else:
            gammaincinv(self.shape, u, out=out)
            out *= self.scale
        return out

    def mean(self):
        return self.shape * self.scale


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def validate(self):
        if not (self.lo < self.hi):
            raise ConfigurationError("uniform bounds need lo < hi")

    def ppf(self, u, out=None):
        out = np.multiply(u, self.hi - self.lo, out=_result(u, out))
        out += self.lo
        return out

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

    def ppf(self, u, out=None):
        cum = np.cumsum(np.asarray(self.probs, dtype=float))
        idx = np.searchsorted(cum, u, side="right")
        # clipping keeps u at or above a rounded-down cum[-1] on the last value
        return np.take(np.asarray(self.values, dtype=float), idx, out=_result(u, out),
                       mode="clip")

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

    def bounds(self) -> np.ndarray:
        """The ``(2, dim)`` least and greatest draw of each coordinate: a ppf
        at the least and greatest uniform, or all values of a Discrete, whose
        values may be unsorted and whose clip can draw a last value of p = 0."""
        out = np.empty((2, self.dim))
        for j, c in enumerate(self.coords):
            if isinstance(c, Discrete):
                out[:, j] = min(c.values), max(c.values)
            else:  # every other ppf is nondecreasing; an overflow is an infinite bound
                with np.errstate(over="ignore"):
                    out[:, j] = c.ppf(np.array([2.0**-54, 1.0 - 2.0**-53]), out=np.empty(2))
        return out

    def transform(self, u: np.ndarray, out=None) -> np.ndarray:
        """Map uniforms of shape ``(n, ..., dim)`` to environment vectors, in
        ``out`` (of u's shape, any strides) when given.

        A constant is written straight into its column.  Every other
        coordinate's ppf writes into one contiguous scratch, a block of
        leading-axis entries at a time (at most _SCRATCH values, or one
        entry), and each block is then copied into the column: an inverse
        CDF runs faster into contiguous memory than into a strided column,
        and a cache-sized block copies into a step-major column faster than
        a whole one."""
        if out is None:
            out = np.empty_like(u, dtype=float)
        step = max(1, _SCRATCH // math.prod(u.shape[1:-1]))
        scratch = None
        for j, c in enumerate(self.coords):
            if isinstance(c, Constant):
                c.ppf(u[..., j], out=out[..., j])
                continue
            if scratch is None:
                scratch = np.empty((min(step, len(u)),) + u.shape[1:-1])
            for a in range(0, len(u), step):
                block = u[a:a + step, ..., j]
                out[a:a + step, ..., j] = c.ppf(block, out=scratch[:len(block)])
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
        self.seed = int(seed)
        self.replicate_id = int(replicate_id)
        for what, value in (("seed", self.seed), ("replicate_id", self.replicate_id)):
            if not 0 <= value < 1 << 64:  # the Philox key holds two 64-bit words
                raise ConfigurationError(f"{what} must lie in [0, 2**64), got {value}")
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


def sample_block(spec: EnvSpec, stream: Stream, n: int) -> np.ndarray:
    """``(n, dim)`` environment vectors from a single stream."""
    u = stream.uniforms(n * spec.dim).reshape(n, spec.dim)
    return spec.transform(u)


# Each JSON distribution kind: its class and the fields of its constructor
_DISTS = {
    "constant": (Constant, ("value",)),
    "normal": (Normal, ("mean", "sd")),
    "lognormal": (LogNormal, ("log_mean", "log_sd")),
    "gamma": (Gamma, ("shape", "scale")),
    "uniform": (Uniform, ("lo", "hi")),
    "discrete": (Discrete, ("values", "probs")),
}


def is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def config_int(value, what: str) -> int:
    """``value`` if it is a JSON integer, else a ConfigurationError naming
    ``what``; a bool, a float or a string is never coerced."""
    if not is_int(value):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return value


def config_number(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number (not a bool), else
    a ConfigurationError naming ``what``; JSON's NaN and Infinity, which
    Python's parser accepts, are refused."""
    if not (is_int(value) or isinstance(value, float)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigurationError(f"{what} is out of range: {value!r}") from None
    if not math.isfinite(number):
        raise ConfigurationError(f"{what} must be finite, got {value!r}")
    return number


def config_list(value, what: str, item=config_number) -> tuple:
    """A JSON list whose every entry passes ``item``, as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{what} must be a list, got {value!r}")
    return tuple(item(v, f"{what} entry") for v in value)


def parse_dist(obj) -> object:
    """Build a scalar distribution from its JSON form.

    A bare number is shorthand for a constant.  Every field must be a finite
    JSON number (discrete: a list of them); nothing is coerced.
    """
    if is_int(obj) or isinstance(obj, float):
        return Constant(config_number(obj, "constant value"))
    if not isinstance(obj, dict):
        raise ConfigurationError(f"distribution must be a number or object, got {obj!r}")
    kind = obj.get("dist")
    if not isinstance(kind, str) or kind not in _DISTS:
        raise ConfigurationError(f"unknown distribution kind {kind!r}")
    cls, fields = _DISTS[kind]
    extra = set(obj) - set(fields) - {"dist"}
    if extra:
        raise ConfigurationError(f"unknown keys {sorted(extra)} for {kind!r} distribution")
    missing = [f for f in fields if f not in obj]
    if missing:
        raise ConfigurationError(f"{kind!r} distribution missing keys {missing}")
    check = config_list if kind == "discrete" else config_number
    d = cls(*(check(obj[f], f"{kind} {f}") for f in fields))
    d.validate()
    return d


def dist_to_config(dist) -> dict:
    """Inverse of :func:`parse_dist`, for provenance echoing."""
    for kind, (cls, fields) in _DISTS.items():
        if isinstance(dist, cls):
            values = [list(v) if kind == "discrete" else v for v in astuple(dist)]
            return {"dist": kind, **dict(zip(fields, values))}
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
