"""Persistence, invasion, and boundedness criterion checkers.

Every checker is estimate-driven and applies the same decision rule: a
strict inequality is only called when the Monte Carlo estimate clears zero
by three standard errors, and anything closer is reported Inconclusive
rather than over-claimed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .engine import ExtinctionNeighborhood, LogPerCapita, RateEstimate, SimConfig
from .engine import (_binomial_estimate, _drive, _iid_estimate, _initial_states, _measured_steps,
                     _open_rows, _open_streams, _point_draws, _pooled_estimates, _stream_id)
from .env import sample_block
from .errors import ConfigurationError, FaceDegenerateError
from .models import Lottery, RickerCompetition, RpsLottery, ScalarPerCapita

__all__ = [
    "DriftConstruction",
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


# ---------------------------------------------------------------------------
# Growth rates


def mean_percapita_growth_at(model, envspec, x, i: int, n: int, seed: int = 0) -> RateEstimate:
    """Monte Carlo mean of log f_i(x, w) over n independent draws."""
    if not (0 <= i < model.k):
        raise ConfigurationError(f"species index {i} out of range")
    w = _point_draws(model, envspec, seed, _stream_id("growth_at"), n)
    return _growth_on(model, x, w)[i]


def _growth_on(model, x, w: np.ndarray) -> list:
    """Each species' mean of log f_i(x, w) over the draws w, one per row."""
    x = np.asarray(x, dtype=float)
    return [_iid_estimate(f) for f in model.log_percapita(np.tile(x, (len(w), 1)), w).T]


def _face_runs(model, envspec, cfg: SimConfig, supports, species) -> list:
    """One boundary face per support, ``{"support", "measure", "rates",
    "degenerate"}``: the rates of ``species``, keyed by decimal index.  A
    simplex model's vertex e_j is invariant in every environment, so its
    point mass is face (j,)'s one ergodic measure: the rates there are iid
    means over n draws of ``_stream_id("vertex", j)``, n the measured steps
    within [1000, 100000].  Every other face is run as rows of one lockstep
    batch of ``model``: per-capita dynamics keep zeros at zero, so a face
    differs only in the support of its start.  A run face with an extinct
    replicate is degenerate and is not pooled.  Replicate r of face S keeps
    its stream ``_stream_id("face", code(S), r)``."""
    n = int(min(max(_measured_steps(cfg, True), 1000), 100_000))
    run = [s for s in supports if model.sim_mode != "simplex" or len(s) > 1]
    functionals = tuple(LogPerCapita(i) for i in species)
    r_total = cfg.replicates
    faces = {}
    if run:
        _stream_id("face", 0, r_total - 1)  # refuses too many replicates before any row is built
        rows = [(_stream_id("face", sum(1 << i for i in s), r), s, f"face {s} replicate {r}")
                for s in run for r in range(r_total)]
        raw = _drive(model, envspec, cfg, functionals, (), rows=rows)
        for s, a in zip(run, range(0, len(rows), r_total)):
            extinct = np.flatnonzero(raw["floored"][a:a + r_total]).tolist()
            if extinct:
                faces[s] = ("simulated", {}, f"resident community degenerated in replicates "
                            f"{extinct}; its ergodic measures concentrate on smaller supports")
                continue
            pooled = _pooled_estimates(raw["fsums"][a:a + r_total], raw["lengths"],
                                       raw["n_steps"], [f.name for f in functionals],
                                       f"the pooled replicates of face {s}")
            faces[s] = ("simulated", {str(f.i): pooled[f.name] for f in functionals}, "")
    for s in supports:
        if s not in faces:
            stream = _open_streams(model, envspec, cfg.seed, [_stream_id("vertex", s[0])])[0]
            w = sample_block(envspec, stream, n)
            # the face's start, random or given, is e_j; made after the draws, it shifts none
            rates = _growth_on(model, _initial_states(model, cfg, [stream], [s])[0], w)
            faces[s] = ("analytic_vertex", {str(i): rates[i] for i in species}, "")
    return [{"support": list(s), "measure": faces[s][0], "rates": faces[s][1],
             "degenerate": faces[s][2]} for s in supports]


def invasion_rate(model, envspec, cfg: SimConfig, invader: int, resident_support) -> RateEstimate:
    """Average log growth of a missing species along a boundary-face run.

    The resident community is simulated on its face from a canonical
    interior start (or the start in ``cfg``); the time average of
    log f_invader then estimates the invasion rate for the sampled ergodic
    measure of that face.  A vertex of a simplex model is evaluated at its
    point mass instead (see ``_face_runs``).
    """
    resident_support = tuple(sorted(int(i) for i in resident_support))
    if invader in resident_support:
        raise ConfigurationError("invader must not belong to the resident support")
    if not (0 <= invader < model.k):
        raise ConfigurationError(f"species index {invader} out of range")
    if not resident_support:
        raise ConfigurationError("face support must be nonempty")
    if len(set(resident_support)) < len(resident_support):
        raise ConfigurationError(f"face support {resident_support} names a species twice")
    if any(i < 0 or i >= model.k for i in resident_support):
        raise ConfigurationError(f"face support {resident_support} out of range for {model.name}")
    (face,) = _face_runs(model, envspec, cfg, [resident_support], (invader,))
    if face["degenerate"]:
        raise FaceDegenerateError(f"face {resident_support}: {face['degenerate']}")
    return face["rates"][str(invader)]


def boundary_invasion_report(model, envspec, cfg: SimConfig) -> dict:
    """Invasion rates for every boundary face plus a permanence verdict:
    ``{"verdict", "not_permanent", "decision_margin", "faces",
    "annotations", "weights", "weights_verdict"}``, each face as
    ``_face_runs`` makes it.

    One sampled ergodic measure per face, from the canonical interior-of-
    face start, or the point mass at a vertex of a simplex model; rates for
    supported species double as stationarity checks (their average log
    growth should vanish).  A model whose faces collapse to the vertices
    is evaluated at its vertices only.  "persistent" needs some invader to
    clear 3 SE on every face and weights from one ``find_persistence_weights``
    search (Hofbauer 1981), whose weights and verdict the report returns.
    ``decision_margin`` is the least margin of the per-face 3-SE calls; the
    search has no margin, so ``weights_verdict`` shows when it decided.
    """
    k = model.k
    if k < 2:
        raise ConfigurationError(f"{model.name} has one species and no boundary faces to invade")
    if k > 6:
        raise ConfigurationError("face enumeration supports at most 6 species")
    sizes = (1,) if model.faces_collapse_to_vertices else range(1, k)
    supports = [s for size in sizes for s in combinations(range(k), size)]
    faces = _face_runs(model, envspec, cfg, supports, range(k))

    margins, annotations = [], []
    not_permanent = False
    all_faces_invasible = True
    for face in faces:
        support = tuple(face["support"])
        if face["degenerate"]:
            # an unexamined measure blocks any permanence claim
            annotations.append(f"face {support}: {face['degenerate']}")
            all_faces_invasible = False
            continue
        rates = list(face["rates"].values())
        ests = [rates[i] for i in range(k) if i not in support]
        best = max(ests, key=lambda e: e.mean)
        clear = [e for e in ests if _call(e) > 0]  # any invader that clears makes it invadable
        if clear:
            margins.append(_margin(best) if _call(best) > 0 else max(map(_margin, clear)))
        elif all(_call(e) < 0 for e in ests):
            not_permanent = True
            all_faces_invasible = False
            margins.append(min(_margin(e) for e in ests))
        else:
            all_faces_invasible = False
            margins.append(_margin(best))
        for i in support:
            if rates[i].std_error > 0 and _call(rates[i]) != 0:
                annotations.append(
                    f"face {support}: supported species {i} has nonzero average "
                    f"log growth {rates[i].mean:.3g}; the face run may not have "
                    "settled on an ergodic measure"
                )
    search = find_persistence_weights({"faces": faces})
    if all_faces_invasible and search["weights"] is None:
        all_faces_invasible = False
        annotations.append("every face is invadable, but no positive weights make the weighted "
                           "invasion rates clear zero on every face: a cycle of faces may attract")
    return {
        "verdict": "persistent" if all_faces_invasible else "inconclusive",
        "not_permanent": not_permanent,
        "decision_margin": min(margins, default=0.0),
        "faces": faces,
        "annotations": annotations,
        "weights": search["weights"],
        "weights_verdict": search["verdict"],
    }


# ---------------------------------------------------------------------------
# Permanence weights


def _objective(p, lam, se2):
    comb = lam @ p
    guard = _SIGMAS * np.sqrt(se2 @ (p * p))
    return float(np.min(comb - guard))


def find_persistence_weights(report: dict) -> dict:
    """Search the weight simplex for p > 0 making every weighed face's
    weighted rate positive beyond its aggregated standard error; the faces
    of a ``boundary_invasion_report`` that did not degenerate are weighed.

    Grid-plus-local-refinement maximin search down to resolution 1/200.
    Returns ``{"verdict", "weights"}``: "feasible" with the best weights as
    a list, "infeasible" when no positive combination clears the noise
    guard, and "inconclusive" when no face was left to weigh (weights None
    for both).
    """
    rates = [list(face["rates"].values()) for face in report["faces"] if not face["degenerate"]]
    if not rates:
        return {"verdict": "inconclusive", "weights": None}
    k = len(rates[0])
    lam = np.array([[est.mean for est in row] for row in rates])
    se2 = np.array([[est.std_error ** 2 for est in row] for row in rates])
    res = 20 if k <= 3 else (10 if k == 4 else 6)
    best_p = np.full(k, 1.0 / k)
    best_val = _objective(best_p, lam, se2)
    for cuts in combinations(range(1, res), k - 1):  # each positive composition of res
        p = np.diff((0, *cuts, res)) / res
        v = _objective(p, lam, se2)
        if v > best_val:
            best_val, best_p = v, p

    floor = 1.0 / 200.0
    for h in (1.0 / 40.0, 1.0 / 100.0, 1.0 / 200.0):
        improved = True
        while improved:
            improved = False
            for i, j in permutations(range(k), 2):
                cand = best_p.copy()
                cand[i] += h
                cand[j] -= h
                if cand[j] < floor:
                    continue
                v = _objective(cand, lam, se2)
                if v > best_val + 1e-15:
                    best_val, best_p, improved = v, cand, True
    if best_val > 0:
        return {"verdict": "feasible", "weights": best_p.tolist()}
    return {"verdict": "infeasible", "weights": None}


# ---------------------------------------------------------------------------
# Scalar classification


def scalar_classify(model, envspec, cfg: SimConfig) -> dict:
    """Classify a scalar model as extinction, explosion, or persistent.

    Decides on the average log growth at zero and its large-density limit,
    which the model states in closed form (a model that states none is
    refused; the estimate at zero obeys the 3-SE rule), then attaches the
    confirming long-run simulation as evidence.  Returns ``{"verdict",
    "decision_margin", "evidence"}``.
    """
    if model.k != 1 or model.sim_mode == "linear":
        raise ConfigurationError("classification applies to scalar per-capita models")
    n = int(min(max(cfg.horizon, 1000), 100_000))
    lam0 = mean_percapita_growth_at(model, envspec, np.zeros(1), 0, n, seed=cfg.seed)
    limit = model.log_growth_limit_at_infinity(envspec)
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
    return {"verdict": kind, "decision_margin": float(min(margins)), "evidence": evidence}


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


def _scalar_contraction_scale(model, envspec, seed, margin) -> float:
    """Smallest doubling scale M with E[log f(M)] clearly below -margin;
    every scale is tested on the same draws."""
    w = _point_draws(model, envspec, seed, _stream_id("scale"), 4000)
    m_val = 1.0
    for _ in range(60):
        (est,) = _growth_on(model, np.full(1, m_val), w)
        if _call(est, -margin) < 0:
            return m_val
        m_val *= 2.0
    raise ConfigurationError(
        "no contracting density scale found; the model does not thin out at "
        "large densities under this environment"
    )


def drift_construction(model, envspec, seed: int = 0, margin: float = 0.1) -> DriftConstruction:
    """Catalog-shipped (V, alpha, beta) certificates.

    A ``ScalarPerCapita`` model, its growth decreasing in x, uses V(x) = x with
    alpha(w) = f(M, w) and beta(w) = M f(0, w) at a contracting scale M:
    above M the per-capita bound applies, below M the absolute bound does.
    The two-species competition model uses V(x) = x1 + x2 with a constant
    alpha and beta(w) = e^{xi1 - 1} + e^{xi2 - 1}, since x e^{-x} <= 1/e.
    """
    if isinstance(model, ScalarPerCapita):
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


def drift_bounded_check(model, envspec, construction: DriftConstruction, n: int, seed: int = 0) -> dict:
    """Audit the drift inequality pointwise and estimate its moment
    hypotheses.

    The inequality is checked on n random (x, w) pairs with 1e-9 relative
    slack; any violation is a hard failure carrying the counterexample.
    The verdict, ``hypotheses_hold``, requires E[log alpha] at least three
    standard errors below zero as well.
    """
    if n < 1:
        raise ConfigurationError("need at least 1 (x, w) pair")
    stream = _open_streams(model, envspec, seed, [_stream_id("audit")])[0]
    x = _log_uniform_states(stream, n, model.k)
    w = sample_block(envspec, stream, n)
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

    moments = _point_draws(model, envspec, seed, _stream_id("moments"), max(n, 4000))
    with np.errstate(divide="ignore"):
        log_alpha = np.log(construction.alpha(moments))
        logp_beta = np.maximum(np.log(construction.beta(moments)), 0.0)
    logp_alpha = np.maximum(log_alpha, 0.0)
    e_log_alpha = _iid_estimate(log_alpha)
    return {
        "construction": construction.name,
        "params": dict(construction.params),
        "n_pairs": n,
        "violations": violations,
        "worst_slack": worst_slack,
        "counterexample": counterexample,
        "E_log_alpha": e_log_alpha,
        "E_logplus_alpha": _iid_estimate(logp_alpha),
        "E_logplus_beta": _iid_estimate(logp_beta),
        "hypotheses_hold": violations == 0 and _call(e_log_alpha) < 0,
    }


def affine_domination_audit(model, envspec, construction: DriftConstruction, cfg: SimConfig):
    """Couple the model to its dominating chain on shared draws.

    Z_{t+1} = alpha(w) Z_t + beta(w) started from Z_0 = V(X_0) must stay at
    or above V(X_t) pathwise; returns the minimum slack observed.
    """
    _, x, _, pieces = _open_rows(model, envspec, cfg)
    z = construction.v(x).copy()
    min_slack = np.inf
    for _, _, draws in pieces():
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
    w = _point_draws(model, envspec, seed, _stream_id("rps"), n)
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
    # the tolerance of a simplex initial_state; a NaN or inf entry fails it too
    bad = ~((x >= 0).all(axis=1) & (np.abs(x.sum(axis=1) - 1.0) <= 1e-9))
    if bad.any():
        row = int(np.argmax(bad))
        raise ConfigurationError(f"face_samples must be simplex states, nonnegative and summing "
                                 f"to 1 within 1e-9; row {row} is {x[row].tolist()}")
    w = _point_draws(Lottery(m, d), envspec, seed, _stream_id("taylor"), len(x))
    ratio = w[:, invader] / np.sum(x * w, axis=-1)
    return _iid_estimate(d * ratio - d)
