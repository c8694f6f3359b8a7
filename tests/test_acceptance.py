"""Acceptance gate: every exit criterion at its stated tolerance.

Each test is one criterion; the terminal summary prints one pass/fail line
per criterion (see conftest).  All runs are seeded, so the suite is
deterministic.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest
import scipy.integrate

from stochpop.cli import main as cli_main
from stochpop.engine import (
    Coordinate,
    SimConfig,
    ergodic_average,
    simulate,
)
from stochpop.env import Constant, EnvSpec, Gamma, LogNormal, Normal
from stochpop.lyap import GammaClosedFormInput, gamma_closed_form, lyapunov_mc
from stochpop.models import (
    Biennial,
    Hassell,
    LinearMatrix,
    Lottery,
    RickerCompetition,
    RickerScalar,
    RpsLottery,
)
from stochpop.persist import (
    affine_domination_audit,
    boundary_invasion_report,
    drift_bounded_check,
    drift_construction,
    find_persistence_weights,
    invasion_rate,
    lottery_taylor_rate,
    rps_condition,
    scalar_classify,
)

SIGMAS = 3.0


def test_criterion_1_scalar_trichotomy():
    started = time.perf_counter()

    env_ext = EnvSpec((LogNormal(-0.2, 0.3), Constant(1.0)))
    cfg_ext = SimConfig(seed=101, replicates=50, burn_in=0, horizon=5000, eta_grid=(0.01,))
    verdict_ext = scalar_classify(Hassell(), env_ext, cfg_ext)
    assert verdict_ext["verdict"] == "extinction"
    assert verdict_ext["evidence"]["extinct_fraction"].mean == 1.0  # 50 of 50 by T=5000

    env_per = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    cfg_per = SimConfig(
        seed=102, replicates=10, burn_in=10_000, horizon=100_000, eta_grid=(0.01,)
    )
    verdict_per = scalar_classify(Hassell(), env_per, cfg_per)
    assert verdict_per["verdict"] == "persistent"
    assert verdict_per["evidence"]["occupation[S_eta=0.01]"].mean <= 0.05

    assert time.perf_counter() - started <= 30.0


def test_criterion_2_ricker_stationarity_identity():
    for r_mean in (0.5, 1.0, 1.5):
        env = EnvSpec((Normal(r_mean, 0.3), Constant(1.0)))
        cfg = SimConfig(seed=201, replicates=4, burn_in=5000, horizon=30_000)
        est = ergodic_average(RickerScalar(), env, cfg, Coordinate(0))
        assert abs(est.mean - r_mean) < SIGMAS * est.std_error, (r_mean, est)


def test_criterion_3_ricker_competition_invasion():
    env = EnvSpec((Normal(1.0, 0.3), Normal(0.8, 0.3)))
    model = RickerCompetition(0.6, 0.5)
    cfg = SimConfig(seed=301, replicates=2, burn_in=5000, horizon=55_000)
    rate_1 = invasion_rate(model, env, cfg, invader=0, resident_support=(1,))
    rate_2 = invasion_rate(model, env, cfg, invader=1, resident_support=(0,))
    assert abs(rate_1.mean - 0.52) < SIGMAS * rate_1.std_error
    assert abs(rate_2.mean - 0.30) < SIGMAS * rate_2.std_error

    full = SimConfig(seed=302, replicates=50, burn_in=0, horizon=100_000)
    result = simulate(model, env, full, functionals=(Coordinate(0), Coordinate(1)))
    kept = sum(
        1
        for s in result["replicates"]
        if s["functional_averages"]["coord_0"].mean >= 0.05
        and s["functional_averages"]["coord_1"].mean >= 0.05
    )
    assert kept >= 45, kept


def test_criterion_4_lottery_coexistence():
    env = EnvSpec((LogNormal(1.0, 0.3),) * 3)
    model = Lottery(3, 0.1)
    cfg = SimConfig(seed=401, replicates=1, burn_in=5000, horizon=55_000)
    report = boundary_invasion_report(model, env, cfg)
    assert report["verdict"] == "persistent"
    for face in report["faces"]:
        assert not face["degenerate"]
        for i, est in face["rates"].items():
            if int(i) not in face["support"]:
                assert est.mean - SIGMAS * est.std_error > 0, (face["support"], i, est)

    interior = SimConfig(
        seed=402, replicates=5, burn_in=10_000, horizon=100_000, eta_grid=(0.001,)
    )
    result = simulate(model, env, interior)
    assert result["pooled"]["occupation"]["S_eta=0.001"] <= 0.01

    for d in (0.02, 0.05):
        small = Lottery(3, d)
        cfg_d = SimConfig(seed=403, replicates=1, burn_in=1000, horizon=31_000)
        exact = invasion_rate(small, env, cfg_d, invader=1, resident_support=(0,))
        # the terminal states of 3000 runs on the resident face (0,), each the
        # vertex (1, 0, 0)
        face = simulate(small, env, SimConfig(seed=403, replicates=3000, horizon=100,
                                              initial_state=(1.0, 0.0, 0.0)))
        samples = np.stack([s["terminal_state"] for s in face["replicates"]])
        taylor = lottery_taylor_rate(env, d, samples, 1, seed=404)
        tol = max(SIGMAS * math.hypot(exact.std_error, taylor.std_error), 0.25 * d * d)
        assert abs(exact.mean - taylor.mean) < tol, (d, exact, taylor)


def test_criterion_5_rps_condition():
    env_a = EnvSpec((Constant(3.2), Constant(2.0), Constant(1.0)))
    rep_a = rps_condition(env_a, 0.1, 1000, seed=501)
    assert rep_a["exact_lhs"].std_error == 0.0  # constants: exact
    assert rep_a["exact_lhs"].mean == pytest.approx(math.log(1.06) + math.log(0.95), abs=1e-12)
    assert rep_a["exact_lhs"].mean == pytest.approx(0.00698, abs=5e-6)
    assert rep_a["exact_verdict"] == "persists"
    report_a = boundary_invasion_report(
        RpsLottery(0.1), env_a, SimConfig(seed=502, replicates=1, burn_in=100, horizon=1100)
    )
    assert report_a["verdict"] == "persistent"

    env_b = EnvSpec((Constant(3.0), Constant(2.0), Constant(1.0)))
    rep_b = rps_condition(env_b, 0.5, 1000, seed=503)
    assert rep_b["exact_lhs"].mean == pytest.approx(-0.06454, abs=5e-6)
    assert rep_b["exact_verdict"] == "fails"
    # every vertex is invadable, but the cycle through the vertices attracts
    report_b = boundary_invasion_report(
        RpsLottery(0.5), env_b, SimConfig(seed=16, replicates=1, burn_in=100, horizon=2100)
    )
    assert report_b["verdict"] != "persistent"

    # feasibility of permanence weights tracks the sign of the exact
    # condition across a 20-point (alpha, d) sweep
    cfg = SimConfig(seed=504, replicates=1, burn_in=100, horizon=1100)
    checked = 0
    for alpha in (2.4, 2.8, 3.2, 3.6):
        for d in (0.1, 0.25, 0.4, 0.55, 0.7):
            env = EnvSpec((Constant(alpha), Constant(2.0), Constant(1.0)))
            lhs = math.log(1 - d + d * alpha / 2.0) + math.log(1 - d + d / 2.0)
            assert abs(lhs) > 1e-3  # sweep stays away from the razor edge
            report = boundary_invasion_report(RpsLottery(d), env, cfg)
            weights = find_persistence_weights(report)["weights"]
            assert (weights is not None) == (lhs > 0), (alpha, d, lhs)
            checked += 1
    assert checked == 20


def _reference_quadrature(p, a, theta, k):
    z = a * (1 - p) ** 2 / (theta * p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        i1, _ = scipy.integrate.quad(
            lambda t: math.log1p(t) * t ** (k - 1) * (1 + t) ** (-k) * math.exp(-z * t),
            0.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=500,
        )
        k0, _ = scipy.integrate.quad(
            lambda t: t ** (k - 1) * (1 + t) ** (-k) * math.exp(-z * t),
            0.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=500,
        )
    return math.log(a * (1 - p)) + i1 / k0


def test_criterion_6_lyapunov_exponents():
    # deterministic primitive matrix: exponent equals log spectral radius
    fib = LinearMatrix(2)
    env_fib = EnvSpec(tuple(Constant(v) for v in (1.0, 1.0, 1.0, 0.0)))
    est = lyapunov_mc(fib, env_fib, SimConfig(seed=601, replicates=2, burn_in=200, horizon=2200))
    rho = max(abs(np.linalg.eigvals(np.array([[1.0, 1.0], [1.0, 0.0]]))))
    assert abs(est.mean - math.log(rho)) < 1e-8

    # never-flowering endpoint: exponent is exactly log survivorship
    env_g = EnvSpec((Gamma(1.0, 2.0),))
    p0 = lyapunov_mc(
        Biennial(p=0.0, a=0.5, b1=1.0, b2=1.0),
        env_g,
        SimConfig(seed=602, replicates=2, burn_in=10, horizon=1000),
    )
    assert p0.mean == pytest.approx(math.log(0.5), abs=1e-14)
    assert p0.std_error < 1e-12  # collapses to rounding residue

    for p in (0.3, 0.5, 0.7):
        inp = GammaClosedFormInput(p=p, a=0.5, theta=2.0, k=1.0)
        closed = gamma_closed_form(inp)
        ref = _reference_quadrature(p, 0.5, 2.0, 1.0)
        assert closed == pytest.approx(ref, rel=1e-6)
        mc = lyapunov_mc(
            Biennial(p=p, a=0.5, b1=1.0, b2=1.0),
            env_g,
            SimConfig(seed=603, replicates=20, burn_in=1000, horizon=51_000),
        )
        assert abs(mc.mean - closed) < SIGMAS * mc.std_error, (p, mc, closed)

    near_zero = gamma_closed_form(GammaClosedFormInput(p=1e-6, a=0.5, theta=2.0, k=1.0))
    assert abs(near_zero - math.log(0.5)) < 1e-4


def test_criterion_7_drift_checks():
    env = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    model = Hassell()
    construction = drift_construction(model, env, seed=701)
    report = drift_bounded_check(model, env, construction, 100_000, seed=701)
    assert report["violations"] == 0
    assert report["E_log_alpha"].mean + SIGMAS * report["E_log_alpha"].std_error < 0
    assert report["hypotheses_hold"]

    for seed in (702, 703, 704, 705, 706):
        audit = affine_domination_audit(
            model, env, construction, SimConfig(seed=seed, replicates=2, horizon=10_000)
        )
        assert audit["ok"], seed
        assert audit["min_slack"] >= 0.0


def test_criterion_8_reproducibility(tmp_path):
    classify_cfg = {
        "model": {
            "model": "hassell",
            "lam": {"dist": "lognormal", "log_mean": -0.2, "log_sd": 0.3},
            "b": 1.0,
        },
        "sim": {"seed": 801, "replicates": 10, "burn_in": 0, "horizon": 3000, "eta_grid": [0.01]},
        "task": "classify",
    }
    gamma_cfg = {
        "model": {
            "model": "biennial",
            "p": 0.5,
            "a": 0.5,
            "b1": 1.0,
            "b2": 1.0,
            "xi": {"dist": "gamma", "shape": 1.0, "scale": 2.0},
        },
        "sim": {"seed": 802, "replicates": 4, "burn_in": 500, "horizon": 10_500},
        "task": "gamma",
    }
    for tag, cfg in (("classify", classify_cfg), ("gamma", gamma_cfg)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        blobs = []
        for i, threads in enumerate(("1", "1", "4")):
            out = tmp_path / f"{tag}_out{i}"
            code = cli_main(
                ["run", "--config", str(path), "--out", str(out), "--threads", threads]
            )
            assert code == 0
            blobs.append((out / "results.json").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], tag


def test_criterion_9_negative_exponent_forces_extinction():
    params = {"p": 0.5, "a": 0.3, "b1": 1.0, "b2": 1.0}
    theta, k = 0.5, 1.0
    gamma = gamma_closed_form(GammaClosedFormInput(p=params["p"], a=params["a"], theta=theta, k=k))
    assert gamma < -0.05  # verified negative by the closed-form machinery

    env = EnvSpec((Gamma(k, theta),))
    cfg = SimConfig(seed=901, replicates=50, burn_in=0, horizon=10_000)
    result = simulate(Biennial(**params), env, cfg)
    assert result["pooled"]["extinct_fraction"] == 1.0
    for s in result["replicates"]:
        assert s["extinct"]
