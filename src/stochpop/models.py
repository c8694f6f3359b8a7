"""Catalog of stochastic difference-equation population models.

Each model advances a nonnegative state by ``x' = step(x, w)`` where ``w``
is one environment vector (see :mod:`stochpop.env`).  In the per-capita
models ("log_mult" and "simplex") a zero coordinate stays exactly zero and a
positive one stays positive, so every face is invariant.  A "linear" model
keeps only the origin: ``Biennial`` sends (1, 0) to (0, s2).
``step`` and the per-capita factors are pure functions and broadcast over
leading axes: ``x`` may be ``(k,)`` or ``(R, k)`` with ``w`` of matching
leading shape.

``step``, ``log_percapita`` and ``linearization_at_zero`` are unchecked
kernels: they assume draws in the model's domain, stated as the least draw
``low`` of each column.  ``check_env`` decides it once from ``EnvSpec.bounds``;
a domain that couples columns overrides ``check_env``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EnvSpec
from .errors import ConfigurationError

__all__ = [
    "Origin",
    "CoordinateUnion",
    "ScalarPerCapita",
    "Hassell",
    "RickerScalar",
    "BevertonHolt",
    "RickerCompetition",
    "Lottery",
    "RpsLottery",
    "Biennial",
    "LinearMatrix",
    "parse_model",
    "model_info",
]

# Underflow floor for multiplicative dynamics, in log space.
LOG_FLOOR = -700.0
# Linear-space views of exploding log states saturate here to stay finite.
LOG_CAP = 709.0
_POSITIVE = float(np.nextafter(0.0, 1.0))  # the least draw of a domain "> 0"


@dataclass(frozen=True)
class Origin:
    """Extinction set {0}: every population absent."""

    def distance(self, x):
        return np.max(x, axis=-1)


@dataclass(frozen=True)
class CoordinateUnion:
    """Extinction set: union of the faces {x_i = 0}, where some species is absent."""

    def distance(self, x):
        return np.min(x, axis=-1)


class Model:
    """Shared interface; concrete models fill in the class attributes."""

    name = ""
    k = 0
    env_dim = 0
    # The model's one kind flag.  "log_mult" and "simplex" models are
    # per-capita (``log_percapita``); "linear" models are the structured
    # ones, with no per-capita form (``linearization_at_zero``).
    # "log_mult": orthant multiplicative dynamics simulated in log state;
    # "simplex": frequency dynamics renormalized each step, states on the simplex;
    # "linear": plain state-space iteration.
    sim_mode = "linear"
    # The domain: each environment column's least draw (one number: every
    # column's), and the refusal of an environment that draws below it
    low = -np.inf
    domain = ""
    # True when the dynamics on every face settle at its vertices, so that a
    # boundary report evaluates the vertices only; else every proper face
    faces_collapse_to_vertices = False

    def step(self, x, w):
        # per-capita models: x_i' = x_i * f_i(x, w), renormalized on a simplex
        x = np.asarray(x, dtype=float)
        out = x * np.exp(self.log_percapita(x, w))
        if self.sim_mode == "simplex":
            out /= out.sum(axis=-1, keepdims=True)
        return out

    def log_percapita(self, x, w):
        raise ConfigurationError(f"{self.name} has no per-capita form")

    def log_growth_limit_at_infinity(self, env: EnvSpec):
        """The limit of E[log f(x, w)] as the scalar density x grows without
        bound: a float (-inf included), or None when it is the rate at zero."""
        raise ConfigurationError(f"{self.name} states no large-density limit")

    def linearization_at_zero(self, w):
        raise ConfigurationError(f"{self.name} is not a structured model")

    def check_env(self, env: EnvSpec) -> np.ndarray:
        """Refuse ``env`` unless every draw is finite and in the domain; returns its bounds."""
        if env.dim != self.env_dim:
            raise ConfigurationError(
                f"{self.name} needs {self.env_dim} environment coordinates, got {env.dim}"
            )
        bounds = env.bounds()
        if not np.isfinite(bounds).all():
            raise ConfigurationError(f"draws must be finite (least, greatest {bounds.tolist()})")
        if (bounds[0] < self.low).any():
            raise ConfigurationError(f"{self.domain} (least draws {bounds[0].tolist()})")
        return bounds


class ScalarPerCapita(Model):
    """One species whose per-capita growth f(x, w) takes two environment
    coordinates, the second a density-dependence strength.  When that
    strength has a positive mean, log f at large densities falls to
    ``log_survival``, the log of the survivors' share: -inf when none survive."""

    k = 1
    env_dim = 2
    sim_mode = "log_mult"
    extinction = Origin()
    log_survival = -np.inf

    def log_growth_limit_at_infinity(self, env):
        return self.log_survival if env.coords[1].mean() > 0 else None


class Hassell(ScalarPerCapita):
    """Scalar overcompensating model: x' = x * lam / (1 + x)**b."""

    name = "hassell"
    low = (_POSITIVE, 0.0)
    domain = "hassell needs lam > 0 and b >= 0"

    def log_percapita(self, x, w):
        lam, b = w[..., 0], w[..., 1]
        lf = np.log(lam) - b * np.log1p(x[..., 0])
        return lf[..., None]


class RickerScalar(ScalarPerCapita):
    """Scalar Ricker model: x' = x * exp(r - a*x)."""

    name = "ricker"
    low = (-np.inf, 0.0)
    domain = "ricker needs a >= 0"

    def log_percapita(self, x, w):
        r, a = w[..., 0], w[..., 1]
        lf = r - a * x[..., 0]
        return lf[..., None]


class BevertonHolt(ScalarPerCapita):
    """Compensating model with survivorship: x' = lam*x/(1 + a*x) + s*x."""

    name = "beverton_holt"
    low = (_POSITIVE, 0.0)
    domain = "beverton_holt needs lam > 0 and a >= 0"

    def __init__(self, s: float = 0.0):
        if not (0.0 <= s < 1.0):
            raise ConfigurationError("beverton_holt survivorship must lie in [0, 1)")
        self.s = float(s)
        if self.s > 0.0:  # lam/(1 + a x) vanishes at large x, leaving the survivors s
            self.log_survival = float(np.log(self.s))

    def log_percapita(self, x, w):
        lam, a = w[..., 0], w[..., 1]
        lf = np.log(lam / (1.0 + a * x[..., 0]) + self.s)
        return lf[..., None]


class RickerCompetition(Model):
    """Two-species Ricker competition.

    Species i grows as x_i' = x_i * exp(xi_i - x_i - alpha_i * x_j), so
    ``alpha[i]`` measures how strongly the competitor suppresses species i.
    """

    name = "ricker_competition"
    k = 2
    env_dim = 2
    sim_mode = "log_mult"
    extinction = CoordinateUnion()

    def __init__(self, alpha1: float, alpha2: float):
        if not (alpha1 > 0 and alpha2 > 0):
            raise ConfigurationError("competition coefficients must be positive")
        self.alpha = (float(alpha1), float(alpha2))

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
    sim_mode = "simplex"
    extinction = CoordinateUnion()
    low = _POSITIVE
    domain = "lottery fecundities must be strictly positive"

    def __init__(self, k: int, d: float):
        if k < 2:
            raise ConfigurationError("lottery needs at least two species")
        if not (0.0 < d <= 1.0):
            raise ConfigurationError("death fraction must lie in (0, 1]")
        self.k = int(k)
        self.d = float(d)
        self.env_dim = self.k

    def log_percapita(self, x, w):
        x = np.asarray(x, dtype=float)
        pool = (x * w).sum(axis=-1, keepdims=True)
        return np.log((1.0 - self.d) + self.d * w / pool)


class RpsLottery(Lottery):
    """Lottery competition with cyclic frequency dependence: the lottery
    of three species whose fecundity depends on the frequencies.

    Per-capita fecundity of species i is row i of the draw matrix
    [[beta, alpha, gamma], [gamma, beta, alpha], [alpha, gamma, beta]]
    applied to the frequency vector; draws must satisfy
    alpha > beta > gamma > 0.
    """

    name = "rps_lottery"
    low = -np.inf  # the coupled domain below decides every refusal
    faces_collapse_to_vertices = True  # each edge's cyclic dominance ends at a vertex

    def __init__(self, d: float):
        super().__init__(3, d)

    def check_env(self, env):
        bounds = super().check_env(env)
        (a_lo, b_lo, g_lo), (_, b_hi, g_hi) = bounds.tolist()
        if not (g_lo > 0 and b_lo > g_hi and a_lo > b_hi):
            raise ConfigurationError(f"draws must satisfy alpha > beta > gamma > 0 (least draws "
                                     f"{bounds[0].tolist()}, greatest {bounds[1].tolist()})")
        return bounds

    def _rates(self, x, w):
        a, b, g = w[..., 0], w[..., 1], w[..., 2]
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        return np.stack(
            [
                b * x1 + a * x2 + g * x3,
                g * x1 + b * x2 + a * x3,
                a * x1 + g * x2 + b * x3,
            ],
            axis=-1,
        )

    def log_percapita(self, x, w):
        x = np.asarray(x, dtype=float)
        return super().log_percapita(x, self._rates(x, w))


class Biennial(Model):
    """Two-stage plant model with delayed flowering probability ``p``.

    Stage 1 gains p * xi * s1(N) per adult; stage 2 gains s2(N) survivors
    from both stages, where N is total density, s1(N) = 1/(1 + b1*N) and
    s2(N) = a/(1 + b2*N).
    """

    name = "biennial"
    k = 2
    env_dim = 1
    sim_mode = "linear"
    extinction = Origin()
    low = 0.0
    domain = "biennial seed draws must be nonnegative"

    def __init__(self, p: float, a: float, b1: float, b2: float):
        if not (0.0 <= p <= 1.0):
            raise ConfigurationError("flowering probability must lie in [0, 1]")
        if not (0.0 < a < 1.0):
            raise ConfigurationError("survivorship must lie in (0, 1)")
        if not (b1 > 0 and b2 > 0):
            raise ConfigurationError("competition strengths b1, b2 must be positive")
        self.p, self.a, self.b1, self.b2 = float(p), float(a), float(b1), float(b2)

    def step(self, x, w):
        x = np.asarray(x, dtype=float)
        xi = w[..., 0]
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
    sim_mode = "linear"
    extinction = Origin()
    low = 0.0
    domain = "matrix entries must be nonnegative"

    def __init__(self, k: int):
        if k < 1:
            raise ConfigurationError("matrix dimension must be at least 1")
        self.k = int(k)
        self.env_dim = self.k * self.k

    def _matrix(self, w):
        w = np.asarray(w, dtype=float)
        return w.reshape(w.shape[:-1] + (self.k, self.k))

    def step(self, x, w):
        x = np.asarray(x, dtype=float)
        return np.einsum("...ij,...j->...i", self._matrix(w), x)

    def linearization_at_zero(self, w):
        return self._matrix(w)


# Each catalog model, by name in sorted order: its parameters and its
# environment coordinates, as ``stochpop list-models`` prints them.
_MODEL_DOC = {
    "beverton_holt": ("lam: dist, a: dist, s: float in [0,1)", "lam, a"),
    "biennial": ("p: float in [0,1], a: float in (0,1), b1: float > 0, b2: float > 0, xi: dist",
                 "xi"),
    "hassell": ("lam: dist, b: dist", "lam, b"),
    "linear_matrix": ("entries: k x k matrix of dists", "a11..akk (row-major)"),
    "lottery": ("k: int >= 2, d: float in (0,1], fecundity: list of k dists", "xi1..xik"),
    "ricker": ("r: dist, a: dist", "r, a"),
    "ricker_competition": ("r: [dist, dist], alpha: [float > 0, float > 0]", "xi1, xi2"),
    "rps_lottery": ("d: float in (0,1], alpha: dist, beta: dist, gamma: dist",
                    "alpha, beta, gamma (requires alpha > beta > gamma > 0)"),
}


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
    overrides them.  Scalar parameters must be JSON numbers (lottery k an
    integer); nothing is coerced.
    """
    from .env import config_int, config_list, config_number, parse_dist

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
        model = BevertonHolt(s=config_number(cfg.get("s", 0.0), "beverton_holt s"))
        coords = (parse_dist(cfg["lam"]), parse_dist(cfg["a"]))
    elif name == "ricker_competition":
        _require_keys(cfg, {"r", "alpha"}, {"r", "alpha"})
        r, alpha = cfg["r"], cfg["alpha"]
        if not (isinstance(r, list) and len(r) == 2):
            raise ConfigurationError("ricker_competition needs two growth-rate distributions")
        if not (isinstance(alpha, list) and len(alpha) == 2):
            raise ConfigurationError("ricker_competition needs two competition coefficients")
        model = RickerCompetition(*config_list(alpha, "ricker_competition alpha"))
        coords = tuple(parse_dist(d) for d in r)
    elif name == "lottery":
        _require_keys(cfg, {"k", "d", "fecundity"}, {"d", "fecundity"})
        fec = cfg["fecundity"]
        if not (isinstance(fec, list) and len(fec) >= 2):
            raise ConfigurationError("lottery needs at least two fecundity distributions")
        k = config_int(cfg.get("k", len(fec)), "lottery k")
        if k != len(fec):
            raise ConfigurationError("lottery k must match the number of fecundity entries")
        model = Lottery(k=k, d=config_number(cfg["d"], "lottery d"))
        coords = tuple(parse_dist(d) for d in fec)
    elif name == "rps_lottery":
        _require_keys(cfg, {"d", "alpha", "beta", "gamma"}, {"d", "alpha", "beta", "gamma"})
        model = RpsLottery(d=config_number(cfg["d"], "rps_lottery d"))
        coords = tuple(parse_dist(cfg[key]) for key in ("alpha", "beta", "gamma"))
    elif name == "biennial":
        _require_keys(cfg, {"p", "a", "b1", "b2", "xi"}, {"p", "a", "b1", "b2", "xi"})
        model = Biennial(*(config_number(cfg[key], f"biennial {key}")
                           for key in ("p", "a", "b1", "b2")))
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


def model_info() -> list:
    """Stable, sorted catalog listing for the CLI."""
    return [{"name": name, "params": params, "env_coords": env}
            for name, (params, env) in _MODEL_DOC.items()]
