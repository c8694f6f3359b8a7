"""Persistence, invasion, and boundedness criterion checkers.

Every checker is estimate-driven and applies the same decision rule: a
strict inequality is only called when the Monte Carlo estimate clears zero
by three standard errors, and anything closer is reported Inconclusive
rather than over-claimed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .engine import ExtinctionNeighborhood, LogPerCapita, RateEstimate, SimConfig
from .engine import _binomial_estimate, _drive, _iid_estimate, _open_rows, _pooled_estimates
from .env import make_stream, sample_block
from .errors import ConfigurationError, FaceDegenerateError
from .models import (
    BevertonHolt,
    Hassell,
    Lottery,
    RickerCompetition,
    RickerScalar,
    RpsLottery,
)

__all__ = [
    "Verdict",
    "FaceRow",
    "InvasionTable",
    "DriftConstruction",
    "DriftReport",
    "mean_percapita_growth_at",
    "invasion_rate",
    "boundary_invasion_report",
    "find_persistence_weights",
    "scalar_classify",
    "drift_construction",
    "drift_bounded_check",
    "affine_domination_audit",
    "rps_condition",
    "lottery_taylor_rate",
]

# Stream namespaces, so nested estimators never share a replicate stream
# with the trajectory simulations (which use small replicate ids).  Every
# stream is keyed by the run's own seed; no seed is offset.
_BASE_POINT_MC = 1 << 32
_BASE_FACE = 1 << 33
_BASE_AUDIT = 1 << 34
_BASE_MOMENTS = 1 << 35
_BASE_VERTEX = 1 << 36  # the rps vertex j draws from _BASE_VERTEX + j
_FACE_FIELD = 1 << 20  # replicate ids per face in the _BASE_FACE namespace
# _BASE_POINT_MC + 1 and + 2 are rps_condition's and lottery_taylor_rate's
_SCALE_MC = _BASE_POINT_MC + 4  # drift's contraction scale

_SIGMAS = 3.0


def _call(est: RateEstimate, at: float = 0.0) -> int:
    """The 3-SE rule on one estimate, which decides every verdict: 1 when
    it clears ``at`` from above, -1 from below, 0 when it is too close."""
    if est.mean - _SIGMAS * est.std_error > at:
        return 1
    return -1 if est.mean + _SIGMAS * est.std_error < at else 0

def _margin(est: RateEstimate) -> float:
    if est.std_error == 0.0:
        return np.inf if est.mean != 0.0 else 0.0
    return abs(est.mean) / est.std_error


@dataclass
class Verdict:
    kind: str  # extinction | explosion | persistent | inconclusive
    evidence: dict
    decision_margin: float


@dataclass
class FaceRow:
    support: tuple
    measure: str  # "simulated" or "analytic_vertex"
    rates: dict
    degenerate: str = ""


@dataclass
class InvasionTable:
    rows: list
    not_permanent: bool = False
    annotations: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Growth rates


def mean_percapita_growth_at(model, envspec, x, i: int, n: int, seed: int = 0) -> RateEstimate:
    """Monte Carlo mean of log f_i(x, w) over n independent draws."""
    model.check_env(envspec)
    if not (0 <= i < model.k):
        raise ConfigurationError(f"species index {i} out of range")
    w = _point_draws(model, envspec, seed, _BASE_POINT_MC, n)
    return _growth_on(model, x, i, w)


def _point_draws(model, envspec, seed: int, sid: int, n: int) -> np.ndarray:
    """The first n draws of stream (seed, sid), one per row, from an
    environment ``model.check_env`` accepts before the stream opens.  A size
    below 2 draws at most one row, which ``_iid_estimate`` refuses."""
    model.check_env(envspec)
    return sample_block(envspec, make_stream(seed, sid), max(n, 0))


def _growth_on(model, x, i: int, w: np.ndarray) -> RateEstimate:
    """Mean of log f_i(x, w) over the draws w, one per row."""
    x = np.asarray(x, dtype=float)
    return _iid_estimate(model.log_percapita(np.tile(x, (len(w), 1)), w)[:, i])


def _face_code(support) -> int:
    return sum(1 << i for i in support)


def _face_runs(model, envspec, cfg: SimConfig, supports, functionals) -> list:
    """``(extinct replicates, pooled estimates by name)`` per face, all faces
    run as rows of one lockstep batch of ``model``: per-capita dynamics keep
    zeros at zero, so a face differs only in the support of its start.
    Replicate r of face S keeps its stream _BASE_FACE + code(S) * 2^20 + r."""
    r_total = cfg.replicates
    if r_total > _FACE_FIELD:
        raise ConfigurationError(f"a boundary run takes at most {_FACE_FIELD} replicates per "
                                 f"face, so that faces never share streams; got {r_total}")
    rows = [
        (_BASE_FACE + _face_code(s) * _FACE_FIELD + r, s, f"face {s} replicate {r}")
        for s in supports
        for r in range(r_total)
    ]
    raw = _drive(model, envspec, cfg, functionals, (), rows=rows)
    names = [f.name for f in functionals]
    return [
        (np.flatnonzero(raw["floored"][a:a + r_total]).tolist(),
         _pooled_estimates(raw["fsums"][a:a + r_total], raw["lengths"], raw["n_steps"], names,
                           f"the pooled replicates of face {s}"))
        for s, a in zip(supports, range(0, len(rows), r_total))
    ]


def invasion_rate(model, envspec, cfg: SimConfig, invader: int, resident_support) -> RateEstimate:
    """Average log growth of a missing species along a boundary-face run.

    The resident community is simulated on its face from a canonical
    interior start (or the start in ``cfg``); the time average of
    log f_invader then estimates the invasion rate for the sampled ergodic
    measure of that face.
    """
    resident_support = tuple(sorted(set(int(i) for i in resident_support)))
    if invader in resident_support:
        raise ConfigurationError("invader must not belong to the resident support")
    if not (0 <= invader < model.k):
        raise ConfigurationError(f"species index {invader} out of range")
    if not resident_support:
        raise ConfigurationError("face support must be nonempty")
    if any(i < 0 or i >= model.k for i in resident_support):
        raise ConfigurationError(f"face support {resident_support} out of range for {model.name}")
    functional = LogPerCapita(invader)
    ((extinct, rates),) = _face_runs(model, envspec, cfg, [resident_support], (functional,))
    if extinct:
        raise FaceDegenerateError(
            f"resident community on face {resident_support} hit the extinction "
            f"floor in replicates {extinct}; invasion rate is ill-posed"
        )
    return rates[functional.name]


def _vertex_rows(model: RpsLottery, envspec, cfg: SimConfig) -> list:
    """Boundary rows for the cyclic lottery: face dynamics collapse to the
    vertices, so the only ergodic boundary measures are the vertex point
    masses and each row is evaluated there directly, every species' rate
    from one block of draws per vertex."""
    n = int(min(max(cfg.horizon - cfg.burn_in, 1000), 100_000))
    rows = []
    for j in range(model.k):
        x = np.zeros((n, model.k))
        x[:, j] = 1.0
        w = _point_draws(model, envspec, cfg.seed, _BASE_VERTEX + j, n)
        logf = model.log_percapita(x, w)
        rates = {i: _iid_estimate(logf[:, i]) for i in range(model.k)}
        rows.append(FaceRow(support=(j,), measure="analytic_vertex", rates=rates))
    return rows


def boundary_invasion_report(model, envspec, cfg: SimConfig):
    """Invasion rates for every boundary face plus a permanence verdict.

    One sampled ergodic measure per face, from the canonical interior-of-
    face start; rows for supported species double as stationarity checks
    (their average log growth should vanish).
    """
    k = model.k
    if k < 2:
        raise ConfigurationError(f"{model.name} has one species and no boundary faces to invade")
    if k > 6:
        raise ConfigurationError("face enumeration supports at most 6 species")
    if isinstance(model, RpsLottery):
        rows = _vertex_rows(model, envspec, cfg)
    else:
        supports = [s for size in range(1, k) for s in combinations(range(k), size)]
        functionals = tuple(LogPerCapita(i) for i in range(k))
        rows = []
        for support, (extinct, pooled) in zip(
                supports, _face_runs(model, envspec, cfg, supports, functionals)):
            if extinct:
                degenerate = (f"resident community degenerated in replicates {extinct}; "
                              "its ergodic measures concentrate on smaller supports")
                rows.append(FaceRow(support, "simulated", rates={}, degenerate=degenerate))
                continue
            rates = {i: pooled[f.name] for i, f in enumerate(functionals)}
            rows.append(FaceRow(support=support, measure="simulated", rates=rates))

    table = InvasionTable(rows=rows)
    margins = []
    all_faces_invasible = True
    for row in rows:
        if row.degenerate:
            # an unexamined measure blocks any permanence claim
            table.annotations.append(f"face {row.support}: {row.degenerate}")
            all_faces_invasible = False
            continue
        outside = [i for i in range(k) if i not in row.support]
        if not outside:
            continue
        ests = [row.rates[i] for i in outside]
        best = max(ests, key=lambda e: e.mean)
        if _call(best) > 0:
            margins.append(_margin(best))
        elif all(_call(e) < 0 for e in ests):
            table.not_permanent = True
            all_faces_invasible = False
            margins.append(min(_margin(e) for e in ests))
        else:
            all_faces_invasible = False
            margins.append(_margin(best))
        for i in row.support:
            if row.rates[i].std_error > 0 and _call(row.rates[i]) != 0:
                table.annotations.append(
                    f"face {row.support}: supported species {i} has nonzero average "
                    f"log growth {row.rates[i].mean:.3g}; the face run may not have "
                    "settled on an ergodic measure"
                )
    kind = "persistent" if all_faces_invasible else "inconclusive"
    evidence = {}
    for row in rows:
        for i, est in row.rates.items():
            evidence[f"lambda_{i}|face={row.support}"] = est
    verdict = Verdict(kind=kind, evidence=evidence, decision_margin=min(margins, default=0.0))
    return table, verdict


# ---------------------------------------------------------------------------
# Permanence weights


def _objective(p, lam, se2):
    comb = lam @ p
    guard = _SIGMAS * np.sqrt(se2 @ (p * p))
    return float(np.min(comb - guard))


def _composition_grid(k, res):
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + [remaining]
            return
        for v in range(remaining + 1):
            yield from rec(prefix + [v], remaining - v, slots - 1)

    for combo in rec([], res, k):
        if all(v > 0 for v in combo):
            yield np.array(combo, dtype=float) / res


def find_persistence_weights(table: InvasionTable):
    """Search the weight simplex for p > 0 making every boundary row's
    weighted rate positive beyond its aggregated standard error.

    Grid-plus-local-refinement maximin search down to resolution 1/200;
    returns the best weights, or None when no positive combination clears
    the noise guard (infeasibility is a result, not an error).
    """
    rows = [r for r in table.rows if not r.degenerate]
    if not rows:
        raise ConfigurationError("table has no usable rows")
    k = 1 + max(max(r.rates) for r in rows)
    lam = np.array([[r.rates[i].mean for i in range(k)] for r in rows])
    se2 = np.array([[r.rates[i].std_error ** 2 for i in range(k)] for r in rows])
    if k == 1:
        p = np.ones(1)
        return p if _objective(p, lam, se2) > 0 else None

    res = 20 if k <= 3 else (10 if k == 4 else 6)
    best_p = np.full(k, 1.0 / k)
    best_val = _objective(best_p, lam, se2)
    for p in _composition_grid(k, res):
        v = _objective(p, lam, se2)
        if v > best_val:
            best_val, best_p = v, p

    floor = 1.0 / 200.0
    for h in (1.0 / 40.0, 1.0 / 100.0, 1.0 / 200.0):
        improved = True
        while improved:
            improved = False
            for i in range(k):
                for j in range(k):
                    if i == j:
                        continue
                    cand = best_p.copy()
                    cand[i] += h
                    cand[j] -= h
                    if cand[j] < floor:
                        continue
                    v = _objective(cand, lam, se2)
                    if v > best_val + 1e-15:
                        best_val, best_p, improved = v, cand, True
    return best_p if best_val > 0 else None


# ---------------------------------------------------------------------------
# Scalar classification


def scalar_classify(model, envspec, cfg: SimConfig) -> Verdict:
    """Classify a scalar model as extinction, explosion, or persistent.

    Decides on the average log growth at zero and its large-density limit,
    which the model states in closed form (a model that states none is
    refused; the estimate at zero obeys the 3-SE rule), then attaches the
    confirming long-run simulation as evidence.
    """
    if model.k != 1 or model.sim_mode == "linear":
        raise ConfigurationError("classification applies to scalar per-capita models")
    model.check_env(envspec)
    limit = model.log_growth_limit_at_infinity(envspec)
    n = int(min(max(cfg.horizon, 1000), 100_000))
    lam0 = mean_percapita_growth_at(model, envspec, np.zeros(1), 0, n, seed=cfg.seed)
    lam_inf = lam0 if limit is None else RateEstimate(limit, 0.0, 0, 0)

    if _call(lam0) < 0:
        kind = "extinction"
        margins = [_margin(lam0)]
    elif _call(lam_inf) > 0:
        kind = "explosion"
        margins = [_margin(lam_inf)]
    elif _call(lam0) > 0 and _call(lam_inf) < 0:
        kind = "persistent"
        margins = [_margin(lam0), _margin(lam_inf)]
    else:
        kind = "inconclusive"
        margins = [_margin(lam0), _margin(lam_inf)]

    near = ExtinctionNeighborhood(min(cfg.eta_grid, default=0.01))
    r_total = cfg.replicates
    # one replicate shows no spread between replicates, so its occupation
    # takes its SE from its own time batches
    raw = _drive(model, envspec, cfg, (), (near,), estimates=r_total == 1)
    name = f"occupation[{near.name}]"
    evidence = {
        "lambda_0": lam0,
        "lambda_inf": lam_inf,
        "extinct_fraction": _binomial_estimate(raw["floored"]),
    }
    n_steps = raw["n_steps"]
    if r_total == 1:
        evidence[name] = _pooled_estimates(raw["occ_counts"], raw["lengths"], n_steps, [name])[name]
    else:
        evidence[name] = _iid_estimate(raw["occ_counts"][:, 0].sum(axis=-1) / n_steps)
    return Verdict(kind=kind, evidence=evidence, decision_margin=float(min(margins)))


# ---------------------------------------------------------------------------
# Drift checks


@dataclass
class DriftConstruction:
    """Certificate (V, alpha, beta) for V(F(x,w)) <= alpha(w) V(x) + beta(w)."""

    name: str
    v: object
    alpha: object
    beta: object
    params: dict


@dataclass
class DriftReport:
    construction: str
    params: dict
    n_pairs: int
    violations: int
    worst_slack: float
    counterexample: object
    e_log_alpha: RateEstimate
    e_logplus_alpha: RateEstimate
    e_logplus_beta: RateEstimate
    hypotheses_hold: bool


def _scalar_contraction_scale(model, envspec, seed, margin) -> float:
    """Smallest doubling scale M with E[log f(M)] clearly below -margin;
    every scale is tested on the same draws."""
    w = _point_draws(model, envspec, seed, _SCALE_MC, 4000)
    m_val = 1.0
    for _ in range(60):
        est = _growth_on(model, np.full(1, m_val), 0, w)
        if _call(est, -margin) < 0:
            return m_val
        m_val *= 2.0
    raise ConfigurationError(
        "no contracting density scale found; the model does not thin out at "
        "large densities under this environment"
    )


def drift_construction(model, envspec, seed: int = 0, margin: float = 0.1) -> DriftConstruction:
    """Catalog-shipped (V, alpha, beta) certificates.

    Scalar models with decreasing per-capita growth use V(x) = x with
    alpha(w) = f(M, w) and beta(w) = M f(0, w) at a contracting scale M:
    above M the per-capita bound applies, below M the absolute bound does.
    The two-species competition model uses V(x) = x1 + x2 with a constant
    alpha and beta(w) = e^{xi1 - 1} + e^{xi2 - 1}, since x e^{-x} <= 1/e.
    """
    model.check_env(envspec)
    if isinstance(model, (Hassell, RickerScalar, BevertonHolt)):
        m_val = _scalar_contraction_scale(model, envspec, seed, margin)
        m_arr = np.full(1, m_val)
        zero = np.zeros(1)

        def v(x):
            return x[..., 0]

        def alpha(w):
            return np.exp(model.log_percapita(m_arr, w))[..., 0]

        def beta(w):
            return m_val * np.exp(model.log_percapita(zero, w))[..., 0]

        return DriftConstruction(
            name=f"{model.name}_scale_bound",
            v=v,
            alpha=alpha,
            beta=beta,
            params={"M": m_val, "margin": margin},
        )
    if isinstance(model, RickerCompetition):

        def v(x):
            return x[..., 0] + x[..., 1]

        def alpha(w):
            return np.full(w.shape[:-1], 0.5)

        def beta(w):
            return np.exp(w[..., 0] - 1.0) + np.exp(w[..., 1] - 1.0)

        return DriftConstruction(
            name="competition_total_density",
            v=v,
            alpha=alpha,
            beta=beta,
            params={"alpha_const": 0.5},
        )
    raise ConfigurationError(f"no shipped drift construction for {model.name}")


def _log_uniform_states(stream, n, k):
    """Audit states spread over the decades from 1e-6 to 1e6, with a
    sprinkling of exact zeros so the extinction boundary is exercised."""
    lo, hi = 1e-6, 1e6
    u = stream.uniforms(n * k).reshape(n, k)
    x = 10.0 ** (np.log10(lo) + (np.log10(hi) - np.log10(lo)) * u)
    mask = stream.uniforms(n * k).reshape(n, k) < 0.05
    x[mask] = 0.0
    return x


def drift_bounded_check(model, envspec, construction: DriftConstruction, n: int, seed: int = 0) -> DriftReport:
    """Audit the drift inequality pointwise and estimate its moment
    hypotheses.

    The inequality is checked on n random (x, w) pairs with 1e-9 relative
    slack; any violation is a hard failure carrying the counterexample.
    The verdict requires E[log alpha] at least three standard errors below
    zero.
    """
    model.check_env(envspec)
    if n < 1:
        raise ConfigurationError("need at least 1 (x, w) pair")
    stream = make_stream(seed, _BASE_AUDIT)
    x = _log_uniform_states(stream, n, model.k)
    w = sample_block(envspec, stream, n)  # from the environment checked above
    lhs = construction.v(model.step(x, w))
    rhs = construction.alpha(w) * construction.v(x) + construction.beta(w)
    tol = 1e-9 * (1.0 + np.abs(rhs))
    bad = lhs > rhs + tol
    violations = int(bad.sum())
    worst_slack = float((rhs - lhs).min())
    counterexample = None
    if violations:
        idx = int(np.argmax(lhs - rhs))
        counterexample = {
            "x": x[idx].tolist(),
            "w": w[idx].tolist(),
            "lhs": float(lhs[idx]),
            "rhs": float(rhs[idx]),
        }

    moments = _point_draws(model, envspec, seed, _BASE_MOMENTS, max(n, 4000))
    with np.errstate(divide="ignore"):
        log_alpha = np.log(construction.alpha(moments))
        logp_beta = np.maximum(np.log(construction.beta(moments)), 0.0)
    logp_alpha = np.maximum(log_alpha, 0.0)
    e_log_alpha = _iid_estimate(log_alpha)
    report = DriftReport(
        construction=construction.name,
        params=dict(construction.params),
        n_pairs=n,
        violations=violations,
        worst_slack=worst_slack,
        counterexample=counterexample,
        e_log_alpha=e_log_alpha,
        e_logplus_alpha=_iid_estimate(logp_alpha),
        e_logplus_beta=_iid_estimate(logp_beta),
        hypotheses_hold=violations == 0 and _call(e_log_alpha) < 0,
    )
    return report


def affine_domination_audit(model, envspec, construction: DriftConstruction, cfg: SimConfig):
    """Couple the model to its dominating chain on shared draws.

    Z_{t+1} = alpha(w) Z_t + beta(w) started from Z_0 = V(X_0) must stay at
    or above V(X_t) pathwise; returns the minimum slack observed.
    """
    _, x, _, pieces = _open_rows(model, envspec, cfg)
    z = construction.v(x).copy()
    min_slack = np.inf
    for _, _, draws in pieces:
        for w in draws:
            x = model.step(x, w)
            z = construction.alpha(w) * z + construction.beta(w)
            min_slack = min(min_slack, float((z - construction.v(x)).min()))
    return {"ok": min_slack >= 0.0, "min_slack": min_slack, "steps": cfg.horizon}


# ---------------------------------------------------------------------------
# Cyclic lottery and taylor-rate helpers


def rps_condition(envspec, d: float, n: int, seed: int = 0) -> dict:
    """Evaluate both persistence conditions for the cyclic lottery.

    exact: E[log(1-d+d a/b)] + E[log(1-d+d g/b)] > 0;
    small-d: E[a/b] + E[g/b] > 2.  Verdicts follow the 3-SE rule; with a
    constant environment both estimates are exact and the SEs vanish.
    """
    if envspec.dim != 3:
        raise ConfigurationError("environment must supply (alpha, beta, gamma) draws")
    model = RpsLottery(d)  # checks the death fraction
    w = _point_draws(model, envspec, seed, _BASE_POINT_MC + 1, n)
    a, b, g = w[:, 0], w[:, 1], w[:, 2]
    exact = np.log1p(d * (a / b - 1.0)) + np.log1p(d * (g / b - 1.0))
    small = a / b + g / b - 2.0
    exact_est = _iid_estimate(exact)
    small_est = _iid_estimate(small)
    verdicts = ("fails", "inconclusive", "persists")
    return {
        "exact_lhs": exact_est,
        "small_d_lhs": small_est,
        "exact_verdict": verdicts[_call(exact_est) + 1],
        "small_d_verdict": verdicts[_call(small_est) + 1],
    }


def lottery_taylor_rate(envspec, d: float, face_samples, invader: int, seed: int = 0) -> RateEstimate:
    """First-order invasion rate -d + d * avg E[xi_i / sum_j x_j xi_j].

    One fresh environment draw per face sample keeps the estimate an
    unbiased plain Monte Carlo average over the product measure.
    """
    if d > 0.2:
        warnings.warn(f"first-order rate requested at d={d:g}; the expansion "
                      "is only reliable for small turnover")
    m = envspec.dim
    x = np.asarray(face_samples, dtype=float)
    if x.ndim != 2 or x.shape[1] != m:
        raise ConfigurationError(f"face_samples must be a 2-d array of states with {m} "
                                 f"columns, got shape {x.shape}")
    if not 0 <= invader < m:
        raise ConfigurationError(f"invader {invader} out of range for {m} species")
    w = _point_draws(Lottery(m, d), envspec, seed, _BASE_POINT_MC + 2, len(x))
    ratio = w[:, invader] / np.sum(x * w, axis=-1)
    return _iid_estimate(d * ratio - d)
