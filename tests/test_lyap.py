"""Growth exponents: Monte Carlo estimator, closed form, digamma."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from stochpop import engine, lyap
from stochpop.engine import _CHUNK, SimConfig, _batch_lengths
from stochpop.env import Constant, Discrete, EnvSpec, Gamma, LogNormal, Normal, Uniform, make_stream
from stochpop.errors import ConfigurationError, NumericError, QuadratureError
from stochpop.lyap import (
    GammaClosedFormInput,
    adaptive_simpson,
    digamma,
    flowering_limit_report,
    gamma_closed_form,
    gamma_closed_form_detailed,
    _mc_batch_sums,
    _norm,
    lyapunov_mc,
)
from stochpop.models import Biennial, Hassell, LinearMatrix


def _const_env(values):
    return EnvSpec(tuple(Constant(v) for v in values))


# ---------------------------------------------------------------------------
# digamma


def test_digamma_returns_scipys_value():
    for x in (0.01, 0.5, 1.0, 3.3, 123.4):
        assert digamma(x) == scipy.special.digamma(x)
        assert type(digamma(x)) is float


def test_digamma_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        digamma(0.0)
    with pytest.raises(ConfigurationError):
        digamma(-1.0)


# ---------------------------------------------------------------------------
# adaptive quadrature


def test_adaptive_simpson_polynomial_exact():
    val, err, _ = adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0, rel_tol=1e-12)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_adaptive_simpson_matches_known_integral():
    val, err, _ = adaptive_simpson(math.exp, 0.0, 1.0, rel_tol=1e-11)
    assert val == pytest.approx(math.e - 1.0, rel=1e-10)
    assert err < 1e-9


def test_adaptive_simpson_raises_on_nonfinite():
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda x: math.inf if x == 0.0 else 1.0 / x, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo exponent


def test_constant_primitive_matrix_matches_spectral_radius():
    m = LinearMatrix(2)
    env = _const_env([1.0, 1.0, 1.0, 0.0])
    cfg = SimConfig(seed=7, replicates=2, burn_in=200, horizon=1200)
    est = lyapunov_mc(m, env, cfg)
    rho = max(abs(np.linalg.eigvals(np.array([[1.0, 1.0], [1.0, 0.0]]))))
    assert est.mean == pytest.approx(math.log(rho), abs=1e-8)


def test_two_step_alternator_has_zero_exponent():
    # A^2 = I for [[0, 2], [0.5, 0]], so the exponent vanishes
    m = LinearMatrix(2)
    env = _const_env([0.0, 2.0, 0.5, 0.0])
    cfg = SimConfig(seed=7, replicates=2, burn_in=200, horizon=1200)
    est = lyapunov_mc(m, env, cfg)
    assert abs(est.mean) < 1e-10


def test_biennial_p_zero_is_log_survivorship_exactly():
    m = Biennial(p=0.0, a=0.5, b1=1.0, b2=1.0)
    env = EnvSpec((Gamma(1.0, 2.0),))
    est = lyapunov_mc(m, env, SimConfig(seed=3, replicates=2, burn_in=10, horizon=1000))
    assert est.mean == pytest.approx(math.log(0.5), abs=1e-14)


def test_norm_independence():
    m = Biennial(p=0.4, a=0.5, b1=1.0, b2=1.0)
    env = EnvSpec((Gamma(1.0, 2.0),))
    cfg = SimConfig(seed=21, replicates=8, burn_in=500, horizon=20500)
    l1 = lyapunov_mc(m, env, cfg, norm="l1")
    linf = lyapunov_mc(m, env, cfg, norm="max")
    tol = 3 * math.hypot(l1.std_error, linf.std_error)
    assert abs(l1.mean - linf.mean) < tol


def test_scale_invariance_of_estimator():
    m = Biennial(p=0.4, a=0.5, b1=1.0, b2=1.0)
    env = EnvSpec((Gamma(1.0, 2.0),))
    base = np.array([0.3, 0.7])
    cfg = SimConfig(seed=22, replicates=2, burn_in=100, horizon=2100, initial_state=tuple(base))
    ref = lyapunov_mc(m, env, cfg)
    for c in (0.5, 2.0, 8.0):  # power-of-two scalings are float-exact
        scaled = lyapunov_mc(m, env, cfg.replaced(initial_state=tuple(c * base)))
        assert scaled.mean == ref.mean
        assert scaled.std_error == ref.std_error


def test_lyapunov_requires_structured_model_and_positive_start():
    env = EnvSpec((Constant(2.0), Constant(1.0)))
    cfg = SimConfig(seed=1, horizon=100)
    with pytest.raises(ConfigurationError):
        lyapunov_mc(Hassell(), env, cfg)
    m = Biennial(p=0.4, a=0.5, b1=1.0, b2=1.0)
    genv = EnvSpec((Gamma(1.0, 2.0),))
    with pytest.raises(ConfigurationError):
        lyapunov_mc(m, genv, SimConfig(seed=1, horizon=100, initial_state=(1.0, 0.0)))


def _reference_batch_sums(model, envspec, cfg, norm="l1"):
    """The estimator one renormalized step at a time: per-step log growth of
    the norm, summed into 20 time batches."""
    k, m = model.k, model.env_dim
    burn, t_total = cfg.burn_in, cfg.horizon
    n_steps = t_total - burn
    n_batches = min(20, n_steps)
    streams = [make_stream(cfg.seed, r) for r in range(cfg.replicates)]
    if isinstance(cfg.initial_state, str):
        v = np.array([0.1 + 0.9 * s.uniforms(k) for s in streams])
    else:
        v = np.tile(np.asarray(cfg.initial_state, dtype=float), (cfg.replicates, 1))
    v = v / _norm(v, norm)[:, None]
    gsums = np.zeros((cfg.replicates, n_batches))
    t = 0
    while t < t_total:
        n = min(_CHUNK, t_total - t)
        u = np.stack([s.uniforms(n * m).reshape(n, m) for s in streams], axis=1)
        mats = model.linearization_at_zero(envspec.transform(u))
        for s in range(n):
            grown = np.einsum("rij,rj->ri", mats[s], v)
            tot = _norm(grown, norm)
            if t + s >= burn:
                gsums[:, ((t + s - burn) * n_batches) // n_steps] += np.log(tot)
            v = grown / tot[:, None]
        t += n
    return gsums


_BIENNIAL = (Biennial(p=0.5, a=0.5, b1=1.0, b2=1.0), EnvSpec((Gamma(2.0, 2.0),)))
_LINEAR3 = (LinearMatrix(3), EnvSpec(tuple(Uniform(0.05, 1.0) for _ in range(9))))


@pytest.mark.parametrize(
    "case,model_env,cfg,norm",
    [
        ("biennial", _BIENNIAL, SimConfig(seed=31, replicates=3, burn_in=500, horizon=10_500), "l1"),
        ("linear3", _LINEAR3, SimConfig(seed=32, replicates=3, burn_in=300, horizon=6300), "l1"),
        ("max-norm", _BIENNIAL, SimConfig(seed=33, replicates=2, burn_in=300, horizon=6300), "max"),
        ("no-burn-in", _BIENNIAL, SimConfig(seed=34, replicates=2, burn_in=0, horizon=6000), "l1"),
        ("ragged-burn-in", _LINEAR3, SimConfig(seed=35, replicates=2, burn_in=4100, horizon=9000), "l1"),
        ("short-horizon", _BIENNIAL, SimConfig(seed=36, replicates=2, burn_in=100, horizon=3000), "l1"),
        ("few-steps", _BIENNIAL, SimConfig(seed=37, replicates=2, burn_in=4090, horizon=4105), "l1"),
        ("explicit-start", _LINEAR3,
         SimConfig(seed=38, replicates=2, burn_in=50, horizon=5050, initial_state=(0.2, 0.5, 0.3)), "l1"),
        # the same edges placed around the 2048-step chunk
        ("under-one-chunk", _BIENNIAL, SimConfig(seed=39, replicates=2, burn_in=100, horizon=1500), "l1"),
        ("burn-in-past-edge", _LINEAR3, SimConfig(seed=40, replicates=2, burn_in=2100, horizon=6100), "l1"),
        ("straddle-edge", _BIENNIAL, SimConfig(seed=41, replicates=2, burn_in=2040, horizon=2055), "l1"),
    ],
)
def test_blocked_batch_means_match_stepwise_reference(case, model_env, cfg, norm):
    model, env = model_env
    n_steps = cfg.horizon - cfg.burn_in
    lengths = _batch_lengths(n_steps, min(20, n_steps))
    sums, _ = _mc_batch_sums(model, env, cfg, norm)
    blocked = sums / lengths
    ref = _reference_batch_sums(model, env, cfg, norm) / lengths
    assert blocked.shape == ref.shape == (cfg.replicates, len(lengths))
    np.testing.assert_allclose(blocked, ref, rtol=1e-12, atol=0.0)


def test_unknown_initial_state_string_is_refused():
    m = Biennial(p=0.5, a=0.5, b1=1.0, b2=1.0)
    cfg = SimConfig(seed=1, horizon=200, initial_state="bogus")
    with pytest.raises(ConfigurationError, match="unknown initial_state 'bogus'"):
        lyapunov_mc(m, EnvSpec((Gamma(2.0, 2.0),)), cfg)


def test_negative_seed_draws_are_refused():
    m = Biennial(p=0.4, a=0.5, b1=1.0, b2=1.0)
    env = EnvSpec((Normal(0.5, 1.0),))
    with pytest.raises(ConfigurationError, match="nonnegative"):
        lyapunov_mc(m, env, SimConfig(seed=1, horizon=100))


def test_batch_sums_do_not_depend_on_grouping(monkeypatch):
    m = Biennial(p=0.4, a=0.5, b1=1.0, b2=1.0)
    env = EnvSpec((Gamma(1.0, 2.0),))
    cfg = SimConfig(seed=23, replicates=6, burn_in=100, horizon=5100)
    group, _ = _mc_batch_sums(m, env, cfg, "l1")
    for r in range(cfg.replicates):
        # replicate r run as the only row
        monkeypatch.setattr(lyap, "_open_rows", lambda model, envspec, cfg, r=r, **kw: (
            engine._open_rows(model, envspec, cfg, [(r, (0, 1), f"replicate {r}")], **kw)))
        alone, _ = _mc_batch_sums(m, env, cfg, "l1")
        assert np.array_equal(group[r], alone[0]), r


def test_vanishing_vector_raises_at_its_first_step():
    # [[0]] with probability 1/2: the iteration dies at the first zero draw
    m = LinearMatrix(1)
    env = EnvSpec((Discrete((0.0, 1.0), (0.5, 0.5)),))
    steps = []
    for seed in range(40):
        cfg = SimConfig(seed=seed, replicates=1, burn_in=0, horizon=200)
        stream = make_stream(seed, 0)
        stream.uniforms(1)  # the random initial vector
        first_zero = int(np.argmax(env.transform(stream.uniforms(200)[:, None])[:, 0] == 0.0))
        with pytest.raises(NumericError, match="primitivity") as info:
            lyapunov_mc(m, env, cfg)
        assert info.value.step == first_zero, seed
        steps.append(first_zero)
    assert max(steps) >= 4  # some zeros lie well inside the first piece


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_exponent_is_refused():
    # lognormal draws overflow to inf, which check_draws lets through: the
    # first piece's log growth is not finite, and the run stops there
    env = EnvSpec((LogNormal(0.0, 300.0),))
    cfg = SimConfig(seed=0, replicates=2, burn_in=0, horizon=5000)
    with pytest.raises(NumericError, match=r"^non-finite log growth for replicate 0 within "
                                           r"steps 0\.\.249$") as info:
        lyapunov_mc(LinearMatrix(1), env, cfg)
    assert info.value.step == 249
    # at log_sd 100 nothing overflows, and a 1x1 product's exponent is the
    # mean log draw
    env = EnvSpec((LogNormal(0.0, 100.0),))
    logs = []
    for r in range(cfg.replicates):
        stream = make_stream(0, r)
        stream.uniforms(1)  # the random initial vector
        logs.append(np.log(env.transform(stream.uniforms(5000)[:, None])[:, 0]))
    est = lyapunov_mc(LinearMatrix(1), env, cfg)
    assert est.mean == pytest.approx(np.mean(logs), rel=1e-9)
    assert est.mean == pytest.approx(-0.91613, abs=1e-5)


# ---------------------------------------------------------------------------
# closed form


def _reference_gamma(p, a, theta, k):
    """Independent oracle: adaptive Gauss-Kronrod on the half-line integrals
    at 10x tighter tolerance than the production quadrature."""
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


@pytest.mark.parametrize(
    "p,a,theta,k",
    [
        (0.5, 0.5, 2.0, 1.0),
        (0.3, 0.5, 2.0, 1.0),
        (0.4, 0.6, 1.5, 0.5),
        (0.4, 0.6, 1.5, 3.2),
        (0.2, 0.8, 0.7, 7.0),
        (0.9, 0.4, 3.0, 0.25),
    ],
)
def test_closed_form_matches_independent_reference(p, a, theta, k):
    mine = gamma_closed_form(GammaClosedFormInput(p=p, a=a, theta=theta, k=k))
    ref = _reference_gamma(p, a, theta, k)
    assert mine == pytest.approx(ref, rel=1e-6)


def test_closed_form_p_zero_is_log_survivorship():
    assert gamma_closed_form(GammaClosedFormInput(p=0.0, a=0.5, theta=2.0, k=1.0)) == math.log(0.5)


def test_closed_form_continuous_at_small_p():
    g = gamma_closed_form(GammaClosedFormInput(p=1e-6, a=0.5, theta=2.0, k=1.0))
    assert abs(g - math.log(0.5)) < 1e-4


def test_quadrature_self_consistency():
    loose = gamma_closed_form_detailed(GammaClosedFormInput(p=0.5, a=0.5, theta=2.0, k=1.0, rel_tol=1e-7))
    tight = gamma_closed_form_detailed(GammaClosedFormInput(p=0.5, a=0.5, theta=2.0, k=1.0, rel_tol=5e-8))
    assert abs(loose["value"] - tight["value"]) <= loose["error_bound"]


def test_closed_form_matches_monte_carlo():
    env = EnvSpec((Gamma(1.0, 2.0),))
    m = Biennial(p=0.5, a=0.5, b1=1.0, b2=1.0)
    cfg = SimConfig(seed=4, replicates=10, burn_in=1000, horizon=41000)
    mc = lyapunov_mc(m, env, cfg)
    cf = gamma_closed_form(GammaClosedFormInput(p=0.5, a=0.5, theta=2.0, k=1.0))
    assert abs(mc.mean - cf) < 3 * mc.std_error


def test_flowering_limit_report_states_both_candidates():
    rep = flowering_limit_report(0.5, 2.0, 1.0)
    assert set(rep) == {
        "quadrature_limit",
        "candidate_digamma_of_survivorship",
        "candidate_digamma_of_shape",
        "abs_diff_survivorship",
        "abs_diff_shape",
    }
    expected_shape = 0.5 * (math.log(0.5 * 2.0) + digamma(1.0))
    assert rep["candidate_digamma_of_shape"] == pytest.approx(expected_shape, abs=1e-12)


def test_closed_form_input_validation():
    with pytest.raises(ConfigurationError):
        GammaClosedFormInput(p=1.2, a=0.5, theta=2.0, k=1.0)
    with pytest.raises(ConfigurationError):
        GammaClosedFormInput(p=0.5, a=1.0, theta=2.0, k=1.0)
    with pytest.raises(ConfigurationError):
        GammaClosedFormInput(p=0.5, a=0.5, theta=-2.0, k=1.0)
    with pytest.raises(ConfigurationError):
        GammaClosedFormInput(p=0.5, a=0.5, theta=2.0, k=1.0, rel_tol=0.0)
