"""Catalog of stochastic difference-equation population models.

Each model advances a nonnegative state by ``x' = step(x, w)`` where ``w``
is one environment vector (see :mod:`stochpop.env`).  Zero coordinates stay
exactly zero and positive coordinates stay positive, so the extinction set
and its complement are both invariant.  ``step`` and the per-capita factors
are pure functions and broadcast over leading axes: ``x`` may be ``(k,)`` or
``(R, k)`` with ``w`` of matching leading shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EnvSpec
from .errors import ConfigurationError

__all__ = [
    "Orthant",
    "Simplex",
    "Origin",
    "CoordinateUnion",
    "Hassell",
    "RickerScalar",
    "BevertonHolt",
    "RickerCompetition",
    "Lottery",
    "RpsLottery",
    "Biennial",
    "LinearMatrix",
    "AffineChain",
    "FaceModel",
    "MODEL_NAMES",
    "parse_model",
    "model_info",
]

# Underflow floor for multiplicative dynamics, in log space.
LOG_FLOOR = -700.0
# Linear-space views of exploding log states saturate here to stay finite.
LOG_CAP = 709.0


@dataclass(frozen=True)
class Orthant:
    k: int


@dataclass(frozen=True)
class Simplex:
    k: int


@dataclass(frozen=True)
class Origin:
    """Extinction set {0}: every population absent."""

    k: int

    def distance(self, x):
        return np.max(x, axis=-1)


@dataclass(frozen=True)
class CoordinateUnion:
    """Extinction set: union of the faces {x_i = 0} over the listed species."""

    indices: tuple

    def distance(self, x):
        return np.min(x[..., list(self.indices)], axis=-1)


class Model:
    """Shared interface; concrete models fill in the class attributes."""

    name = ""
    k = 0
    env_dim = 0
    env_coord_names = ()
    multiplicative = False
    structured = False
    # "log_mult": orthant multiplicative dynamics simulated in log state;
    # "simplex": frequency dynamics renormalized each step;
    # "linear": plain state-space iteration.
    sim_mode = "linear"

    def step(self, x, w):
        raise NotImplementedError

    def log_percapita(self, x, w):
        raise ConfigurationError(f"{self.name} has no per-capita form")

    def percapita(self, x, w, i):
        if not (0 <= i < self.k):
            raise ConfigurationError(f"species index {i} out of range for {self.name}")
        return np.exp(self.log_percapita(x, w)[..., i])

    def linearization_at_zero(self, w):
        raise ConfigurationError(f"{self.name} is not a structured model")

    def restrict_to_face(self, support):
        support = tuple(sorted(set(int(i) for i in support)))
        if not support:
            raise ConfigurationError("face support must be nonempty")
        if any(i < 0 or i >= self.k for i in support):
            raise ConfigurationError(f"face support {support} out of range for {self.name}")
        if len(support) == self.k:
            return self
        return FaceModel(self, support)

    def check_env(self, env: EnvSpec):
        if env.dim != self.env_dim:
            raise ConfigurationError(
                f"{self.name} needs {self.env_dim} environment coordinates, got {env.dim}"
            )

    def _mult_step(self, x, w):
        x = np.asarray(x, dtype=float)
        return x * np.exp(self.log_percapita(x, w))


class Hassell(Model):
    """Scalar overcompensating model: x' = x * lam / (1 + x)**b."""

    name = "hassell"
    k = 1
    env_dim = 2
    env_coord_names = ("lam", "b")
    multiplicative = True
    sim_mode = "log_mult"

    def __init__(self):
        self.state_space = Orthant(1)
        self.extinction = Origin(1)

    def step(self, x, w):
        return self._mult_step(x, w)

    def log_percapita(self, x, w):
        lam, b = w[..., 0], w[..., 1]
        if np.any(lam <= 0) or np.any(b < 0):
            raise ConfigurationError("hassell needs lam > 0 and b >= 0")
        lf = np.log(lam) - b * np.log1p(x[..., 0])
        return lf[..., None]

    def log_growth_limit_at_infinity(self, env, lambda0):
        # E[log f(x)] = E[log lam] - E[b] log(1+x): diverges unless b is 0.
        if env.coords[1].mean() > 0:
            return "neg_inf", None
        return "same_as_zero", lambda0


class RickerScalar(Model):
    """Scalar Ricker model: x' = x * exp(r - a*x)."""

    name = "ricker"
    k = 1
    env_dim = 2
    env_coord_names = ("r", "a")
    multiplicative = True
    sim_mode = "log_mult"

    def __init__(self):
        self.state_space = Orthant(1)
        self.extinction = Origin(1)

    def step(self, x, w):
        return self._mult_step(x, w)

    def log_percapita(self, x, w):
        r, a = w[..., 0], w[..., 1]
        lf = r - a * x[..., 0]
        return lf[..., None]

    def log_growth_limit_at_infinity(self, env, lambda0):
        if env.coords[1].mean() > 0:
            return "neg_inf", None
        return "same_as_zero", lambda0


class BevertonHolt(Model):
    """Compensating model with survivorship: x' = lam*x/(1 + a*x) + s*x."""

    name = "beverton_holt"
    k = 1
    env_dim = 2
    env_coord_names = ("lam", "a")
    multiplicative = True
    sim_mode = "log_mult"

    def __init__(self, s: float = 0.0):
        if not (0.0 <= s < 1.0):
            raise ConfigurationError("beverton_holt survivorship must lie in [0, 1)")
        self.s = float(s)
        self.state_space = Orthant(1)
        self.extinction = Origin(1)

    def step(self, x, w):
        return self._mult_step(x, w)

    def log_percapita(self, x, w):
        lam, a = w[..., 0], w[..., 1]
        if np.any(lam <= 0) or np.any(a < 0):
            raise ConfigurationError("beverton_holt needs lam > 0 and a >= 0")
        lf = np.log(lam / (1.0 + a * x[..., 0]) + self.s)
        return lf[..., None]

    def log_growth_limit_at_infinity(self, env, lambda0):
        if env.coords[1].mean() > 0:
            if self.s == 0.0:
                return "neg_inf", None
            return "exact", float(np.log(self.s))
        return "same_as_zero", lambda0


class RickerCompetition(Model):
    """Two-species Ricker competition.

    Species i grows as x_i' = x_i * exp(xi_i - x_i - alpha_i * x_j), so
    ``alpha[i]`` measures how strongly the competitor suppresses species i.
    """

    name = "ricker_competition"
    k = 2
    env_dim = 2
    env_coord_names = ("xi1", "xi2")
    multiplicative = True
    sim_mode = "log_mult"

    def __init__(self, alpha1: float, alpha2: float):
        if not (alpha1 > 0 and alpha2 > 0):
            raise ConfigurationError("competition coefficients must be positive")
        self.alpha = (float(alpha1), float(alpha2))
        self.state_space = Orthant(2)
        self.extinction = CoordinateUnion((0, 1))

    def step(self, x, w):
        return self._mult_step(x, w)

    def log_percapita(self, x, w):
        x = np.asarray(x, dtype=float)
        lf = np.empty(np.broadcast_shapes(x.shape, w.shape), dtype=float)
        lf[..., 0] = w[..., 0] - x[..., 0] - self.alpha[0] * x[..., 1]
        lf[..., 1] = w[..., 1] - x[..., 1] - self.alpha[1] * x[..., 0]
        return lf


class Lottery(Model):
    """Competition for space: freed sites go to species in proportion to
    their weighted offspring counts.

    x_i' = (1-d) x_i + d * x_i xi_i / sum_j x_j xi_j  on the simplex.
    """

    name = "lottery"
    multiplicative = True
    sim_mode = "simplex"

    def __init__(self, k: int, d: float):
        if k < 2:
            raise ConfigurationError("lottery needs at least two species")
        if not (0.0 < d <= 1.0):
            raise ConfigurationError("death fraction must lie in (0, 1]")
        self.k = int(k)
        self.d = float(d)
        self.env_dim = self.k
        self.env_coord_names = tuple(f"xi{i + 1}" for i in range(self.k))
        self.state_space = Simplex(self.k)
        self.extinction = CoordinateUnion(tuple(range(self.k)))

    def step(self, x, w):
        x = np.asarray(x, dtype=float)
        out = x * np.exp(self.log_percapita(x, w))
        return out / out.sum(axis=-1, keepdims=True)

    def log_percapita(self, x, w):
        if np.any(w <= 0):
            raise ConfigurationError("lottery fecundities must be strictly positive")
        x = np.asarray(x, dtype=float)
        pool = np.sum(x * w, axis=-1, keepdims=True)
        return np.log((1.0 - self.d) + self.d * w / pool)


class RpsLottery(Model):
    """Lottery competition with cyclic frequency dependence.

    Per-capita fecundity of species i is row i of the draw matrix
    [[beta, alpha, gamma], [gamma, beta, alpha], [alpha, gamma, beta]]
    applied to the frequency vector; draws must satisfy
    alpha > beta > gamma > 0.
    """

    name = "rps_lottery"
    k = 3
    env_dim = 3
    env_coord_names = ("alpha", "beta", "gamma")
    multiplicative = True
    sim_mode = "simplex"

    def __init__(self, d: float):
        if not (0.0 < d <= 1.0):
            raise ConfigurationError("death fraction must lie in (0, 1]")
        self.d = float(d)
        self.state_space = Simplex(3)
        self.extinction = CoordinateUnion((0, 1, 2))

    def _rates(self, x, w):
        a, b, g = w[..., 0], w[..., 1], w[..., 2]
        if np.any(g <= 0) or np.any(b <= g) or np.any(a <= b):
            raise ConfigurationError("draws must satisfy alpha > beta > gamma > 0")
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        return np.stack(
            [
                b * x1 + a * x2 + g * x3,
                g * x1 + b * x2 + a * x3,
                a * x1 + g * x2 + b * x3,
            ],
            axis=-1,
        )

    def step(self, x, w):
        x = np.asarray(x, dtype=float)
        out = x * np.exp(self.log_percapita(x, w))
        return out / out.sum(axis=-1, keepdims=True)

    def log_percapita(self, x, w):
        x = np.asarray(x, dtype=float)
        rates = self._rates(x, w)
        pool = np.sum(x * rates, axis=-1, keepdims=True)
        return np.log((1.0 - self.d) + self.d * rates / pool)


class Biennial(Model):
    """Two-stage plant model with delayed flowering probability ``p``.

    Stage 1 gains p * xi * s1(N) per adult; stage 2 gains s2(N) survivors
    from both stages, where N is total density, s1(N) = 1/(1 + b1*N) and
    s2(N) = a/(1 + b2*N).
    """

    name = "biennial"
    k = 2
    env_dim = 1
    env_coord_names = ("xi",)
    structured = True
    sim_mode = "linear"

    def __init__(self, p: float, a: float, b1: float, b2: float):
        if not (0.0 <= p <= 1.0):
            raise ConfigurationError("flowering probability must lie in [0, 1]")
        if not (0.0 < a < 1.0):
            raise ConfigurationError("survivorship must lie in (0, 1)")
        if not (b1 > 0 and b2 > 0):
            raise ConfigurationError("competition strengths b1, b2 must be positive")
        self.p, self.a, self.b1, self.b2 = float(p), float(a), float(b1), float(b2)
        self.state_space = Orthant(2)
        self.extinction = Origin(2)

    def step(self, x, w):
        x = np.asarray(x, dtype=float)
        xi = w[..., 0]
        if np.any(xi < 0):
            raise ConfigurationError("biennial seed draws must be nonnegative")
        n = x[..., 0] + x[..., 1]
        s1 = 1.0 / (1.0 + self.b1 * n)
        s2 = self.a / (1.0 + self.b2 * n)
        out = np.empty_like(x)
        out[..., 0] = self.p * xi * s1 * x[..., 1]
        out[..., 1] = s2 * x[..., 0] + (1.0 - self.p) * s2 * x[..., 1]
        return out

    def linearization_at_zero(self, w):
        xi = np.asarray(w, dtype=float)[..., 0]
        a_mat = np.zeros(xi.shape + (2, 2), dtype=float)
        a_mat[..., 0, 1] = self.p * xi
        a_mat[..., 1, 0] = self.a
        a_mat[..., 1, 1] = (1.0 - self.p) * self.a
        return a_mat


class LinearMatrix(Model):
    """Pure random matrix product x' = A(w) x, entries drawn row-major.

    Separates linear growth-rate estimation from nonlinear model effects.
    """

    name = "linear_matrix"
    structured = True
    sim_mode = "linear"

    def __init__(self, k: int):
        if k < 1:
            raise ConfigurationError("matrix dimension must be at least 1")
        self.k = int(k)
        self.env_dim = self.k * self.k
        self.env_coord_names = tuple(
            f"a{i + 1}{j + 1}" for i in range(self.k) for j in range(self.k)
        )
        self.state_space = Orthant(self.k)
        self.extinction = Origin(self.k)

    def _matrix(self, w):
        w = np.asarray(w, dtype=float)
        if np.any(w < 0):
            raise ConfigurationError("matrix entries must be nonnegative")
        return w.reshape(w.shape[:-1] + (self.k, self.k))

    def step(self, x, w):
        x = np.asarray(x, dtype=float)
        return np.einsum("...ij,...j->...i", self._matrix(w), x)

    def linearization_at_zero(self, w):
        return self._matrix(w)


class AffineChain(Model):
    """Scalar dominating chain z' = alpha * z + beta.

    Used to bound multiplicative dynamics from above in drift reports; not
    part of the experiment-config catalog.
    """

    name = "affine_chain"
    k = 1
    env_dim = 2
    env_coord_names = ("alpha", "beta")
    sim_mode = "affine"

    def __init__(self):
        self.state_space = Orthant(1)
        self.extinction = Origin(1)

    def step(self, x, w):
        x = np.asarray(x, dtype=float)
        alpha, beta = w[..., 0], w[..., 1]
        if np.any(alpha < 0) or np.any(beta < 0):
            raise ConfigurationError("affine chain draws must be nonnegative")
        return (alpha * x[..., 0] + beta)[..., None]


class FaceModel(Model):
    """A model with every species outside ``support`` pinned to exactly zero.

    Dynamics agree with the base model on the face.  The pinned coordinates
    are forced back to zero each step because a face need not be invariant
    under the base step: the biennial face (0,) holds only stage 1, which
    the base step sends into stage 2.  Faces of per-capita models are
    invariant, so boundary reports run them as rows of the base model.
    """

    def __init__(self, base: Model, support: tuple):
        self.base = base
        self.support = tuple(sorted(support))
        self.outside = tuple(i for i in range(base.k) if i not in self.support)
        self.name = f"{base.name}[face {'+'.join(str(i + 1) for i in self.support)}]"
        self.k = base.k
        self.env_dim = base.env_dim
        self.env_coord_names = base.env_coord_names
        self.multiplicative = base.multiplicative
        self.structured = base.structured
        self.sim_mode = base.sim_mode
        self.state_space = base.state_space
        self.extinction = CoordinateUnion(self.support)

    def step(self, x, w):
        out = self.base.step(x, w)
        if self.outside:
            out[..., list(self.outside)] = 0.0
        return out

    def log_percapita(self, x, w):
        return self.base.log_percapita(x, w)

    def linearization_at_zero(self, w):
        return self.base.linearization_at_zero(w)

    def restrict_to_face(self, support):
        support = tuple(sorted(set(int(i) for i in support)))
        if not set(support) <= set(self.support):
            raise ConfigurationError("sub-face support must lie inside the current face")
        return self.base.restrict_to_face(support)


MODEL_NAMES = (
    "beverton_holt",
    "biennial",
    "hassell",
    "linear_matrix",
    "lottery",
    "ricker",
    "ricker_competition",
    "rps_lottery",
)


def _require_keys(cfg: dict, allowed: set, required: set):
    extra = set(cfg) - allowed - {"model"}
    if extra:
        raise ConfigurationError(f"unknown model keys {sorted(extra)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigurationError(f"model config missing keys {sorted(missing)}")


def parse_model(cfg: dict):
    """Build ``(model, default_env)`` from a model config object.

    Distribution-valued entries populate the default environment in the
    model's canonical coordinate order; an explicit top-level "env" section
    overrides them.
    """
    from .env import parse_dist

    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ConfigurationError('model config must be an object with a "model" key')
    name = cfg["model"]
    if name == "hassell":
        _require_keys(cfg, {"lam", "b"}, {"lam", "b"})
        model = Hassell()
        coords = (parse_dist(cfg["lam"]), parse_dist(cfg["b"]))
    elif name == "ricker":
        _require_keys(cfg, {"r", "a"}, {"r", "a"})
        model = RickerScalar()
        coords = (parse_dist(cfg["r"]), parse_dist(cfg["a"]))
    elif name == "beverton_holt":
        _require_keys(cfg, {"lam", "a", "s"}, {"lam", "a"})
        model = BevertonHolt(s=float(cfg.get("s", 0.0)))
        coords = (parse_dist(cfg["lam"]), parse_dist(cfg["a"]))
    elif name == "ricker_competition":
        _require_keys(cfg, {"r", "alpha"}, {"r", "alpha"})
        r, alpha = cfg["r"], cfg["alpha"]
        if not (isinstance(r, list) and len(r) == 2):
            raise ConfigurationError("ricker_competition needs two growth-rate distributions")
        if not (isinstance(alpha, list) and len(alpha) == 2):
            raise ConfigurationError("ricker_competition needs two competition coefficients")
        model = RickerCompetition(float(alpha[0]), float(alpha[1]))
        coords = tuple(parse_dist(d) for d in r)
    elif name == "lottery":
        _require_keys(cfg, {"k", "d", "fecundity"}, {"d", "fecundity"})
        fec = cfg["fecundity"]
        if not (isinstance(fec, list) and len(fec) >= 2):
            raise ConfigurationError("lottery needs at least two fecundity distributions")
        k = int(cfg.get("k", len(fec)))
        if k != len(fec):
            raise ConfigurationError("lottery k must match the number of fecundity entries")
        model = Lottery(k=k, d=float(cfg["d"]))
        coords = tuple(parse_dist(d) for d in fec)
    elif name == "rps_lottery":
        _require_keys(cfg, {"d", "alpha", "beta", "gamma"}, {"d", "alpha", "beta", "gamma"})
        model = RpsLottery(d=float(cfg["d"]))
        coords = tuple(parse_dist(cfg[key]) for key in ("alpha", "beta", "gamma"))
    elif name == "biennial":
        _require_keys(cfg, {"p", "a", "b1", "b2", "xi"}, {"p", "a", "b1", "b2", "xi"})
        model = Biennial(float(cfg["p"]), float(cfg["a"]), float(cfg["b1"]), float(cfg["b2"]))
        coords = (parse_dist(cfg["xi"]),)
    elif name == "linear_matrix":
        _require_keys(cfg, {"entries"}, {"entries"})
        entries = cfg["entries"]
        if not (isinstance(entries, list) and entries):
            raise ConfigurationError("linear_matrix needs a nonempty entries matrix")
        k = len(entries)
        if any(not (isinstance(row, list) and len(row) == k) for row in entries):
            raise ConfigurationError("linear_matrix entries must form a square matrix")
        model = LinearMatrix(k=k)
        coords = tuple(parse_dist(d) for row in entries for d in row)
    else:
        raise ConfigurationError(f"unknown model {name!r}")
    return model, EnvSpec(coords)


_MODEL_PARAM_DOC = {
    "beverton_holt": "lam: dist, a: dist, s: float in [0,1)",
    "biennial": "p: float in [0,1], a: float in (0,1), b1: float > 0, b2: float > 0, xi: dist",
    "hassell": "lam: dist, b: dist",
    "linear_matrix": "entries: k x k matrix of dists",
    "lottery": "k: int >= 2, d: float in (0,1], fecundity: list of k dists",
    "ricker": "r: dist, a: dist",
    "ricker_competition": "r: [dist, dist], alpha: [float > 0, float > 0]",
    "rps_lottery": "d: float in (0,1], alpha: dist, beta: dist, gamma: dist",
}

_MODEL_ENV_DOC = {
    "beverton_holt": "lam, a",
    "biennial": "xi",
    "hassell": "lam, b",
    "linear_matrix": "a11..akk (row-major)",
    "lottery": "xi1..xik",
    "ricker": "r, a",
    "ricker_competition": "xi1, xi2",
    "rps_lottery": "alpha, beta, gamma (requires alpha > beta > gamma > 0)",
}


def model_info() -> list:
    """Stable, sorted catalog listing for the CLI."""
    return [
        {"name": name, "params": _MODEL_PARAM_DOC[name], "env_coords": _MODEL_ENV_DOC[name]}
        for name in MODEL_NAMES
    ]
