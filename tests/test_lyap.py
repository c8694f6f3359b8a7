"""Growth exponents: Monte Carlo estimator and closed form."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

import stochpop
from stochpop import engine, lyap
from stochpop.engine import _CHUNK, SimConfig, _batch_lengths
from stochpop.env import Constant, Discrete, EnvSpec, Gamma, LogNormal, Normal, Uniform, make_stream
from stochpop.errors import ConfigurationError, NumericError, QuadratureError
from stochpop.lyap import (
    GammaClosedFormInput,
    adaptive_simpson,
    gamma_closed_form,
    gamma_closed_form_detailed,
    _mc_batch_sums,
    lyapunov_mc,
)
from stochpop.models import Biennial, Hassell, LinearMatrix


def _const_env(values):
    return EnvSpec(tuple(Constant(v) for v in values))


# ---------------------------------------------------------------------------
# adaptive quadrature


def test_adaptive_simpson_polynomial_exact():
    val, err, _ = adaptive_simpson(lambda x: x**3 - 2 * x, [0.0, 0.5, 1.0, 2.0], 1e-12)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_adaptive_simpson_matches_known_integral():
    val, err, _ = adaptive_simpson(math.exp, [i / 8 for i in range(9)], 1e-11)
    assert val == pytest.approx(math.e - 1.0, rel=1e-10)
    assert err < 1e-9


def test_adaptive_simpson_raises_on_nonfinite():
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda x: math.inf if x == 0.0 else 1.0 / x, [0.0, 0.5, 1.0], 1e-9)


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


def test_scale_invariance_of_estimator():
    m = Biennial(p=0.4, a=0.5, b1=1.0, b2=1.0)
    env = EnvSpec((Gamma(1.0, 2.0),))
    base = np.array([0.3, 0.7])
    cfg = SimConfig(seed=22, replicates=2, burn_in=100, horizon=2100, initial_state=tuple(base))
    ref = lyapunov_mc(m, env, cfg)
    for c in (0.5, 2.0, 8.0):  # power-of-two scalings are float-exact
        scaled = lyapunov_mc(m, env, replace(cfg, initial_state=tuple(c * base)))
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


def _reference_batch_sums(model, envspec, cfg):
    """The estimator one renormalized step at a time: per-step log growth of
    the l1 norm, summed into 20 time batches."""
    k, m = model.k, model.env_dim
    burn, t_total = cfg.burn_in, cfg.horizon
    n_steps = t_total - burn
    n_batches = min(20, n_steps)
    streams = [make_stream(cfg.seed, r) for r in range(cfg.replicates)]
    if isinstance(cfg.initial_state, str):
        v = np.array([0.1 + 0.9 * s.uniforms(k) for s in streams])
    else:
        v = np.tile(np.asarray(cfg.initial_state, dtype=float), (cfg.replicates, 1))
    v = v / v.sum(axis=-1)[:, None]
    gsums = np.zeros((cfg.replicates, n_batches))
    t = 0
    while t < t_total:
        n = min(_CHUNK, t_total - t)
        u = np.stack([s.uniforms(n * m).reshape(n, m) for s in streams], axis=1)
        mats = model.linearization_at_zero(envspec.transform(u))
        for s in range(n):
            grown = np.einsum("rij,rj->ri", mats[s], v)
            tot = grown.sum(axis=-1)
            if t + s >= burn:
                gsums[:, ((t + s - burn) * n_batches) // n_steps] += np.log(tot)
            v = grown / tot[:, None]
        t += n
    return gsums


_BIENNIAL = (Biennial(p=0.5, a=0.5, b1=1.0, b2=1.0), EnvSpec((Gamma(2.0, 2.0),)))
_LINEAR3 = (LinearMatrix(3), EnvSpec(tuple(Uniform(0.05, 1.0) for _ in range(9))))


@pytest.mark.parametrize(
    "case,model_env,cfg",
    [
        ("biennial", _BIENNIAL, SimConfig(seed=31, replicates=3, burn_in=500, horizon=10_500)),
        ("linear3", _LINEAR3, SimConfig(seed=32, replicates=3, burn_in=300, horizon=6300)),
        ("no-burn-in", _BIENNIAL, SimConfig(seed=34, replicates=2, burn_in=0, horizon=6000)),
        ("ragged-burn-in", _LINEAR3, SimConfig(seed=35, replicates=2, burn_in=4100, horizon=9000)),
        ("short-horizon", _BIENNIAL, SimConfig(seed=36, replicates=2, burn_in=100, horizon=3000)),
        ("few-steps", _BIENNIAL, SimConfig(seed=37, replicates=2, burn_in=4090, horizon=4105)),
        ("explicit-start", _LINEAR3,
         SimConfig(seed=38, replicates=2, burn_in=50, horizon=5050, initial_state=(0.2, 0.5, 0.3))),
        # the same edges placed around the 2048-step chunk
        ("under-one-chunk", _BIENNIAL, SimConfig(seed=39, replicates=2, burn_in=100, horizon=1500)),
        ("burn-in-past-edge", _LINEAR3, SimConfig(seed=40, replicates=2, burn_in=2100, horizon=6100)),
        ("straddle-edge", _BIENNIAL, SimConfig(seed=41, replicates=2, burn_in=2040, horizon=2055)),
    ],
)
def test_blocked_batch_means_match_stepwise_reference(case, model_env, cfg):
    model, env = model_env
    n_steps = cfg.horizon - cfg.burn_in
    lengths = _batch_lengths(n_steps, min(20, n_steps))
    sums, _ = _mc_batch_sums(model, env, cfg)
    blocked = sums / lengths
    ref = _reference_batch_sums(model, env, cfg) / lengths
    assert blocked.shape == ref.shape == (cfg.replicates, len(lengths))
    np.testing.assert_allclose(blocked, ref, rtol=1e-12, atol=0.0)


def _python_product(mats):
    """``_product`` in Python floats, one row and one pair at a time: entry
    (i, j) of a pair is ``a_i0*b_0j + a_i1*b_1j + ...`` added in order of l,
    divided by the pair's largest entry (1.0 for a zero product), whose log
    is added to the later and the earlier log in that order; an odd level's
    last matrix moves up as it is."""
    n, r, k, _ = mats.shape
    prods, logs = [], []
    for row in range(r):
        level = [(mats[t, row].tolist(), 0.0) for t in range(n)]
        while len(level) > 1:
            up = []
            for (b, log_b), (a, log_a) in zip(level[0::2], level[1::2]):
                c = [[0.0] * k for _ in range(k)]
                for i in range(k):
                    for j in range(k):
                        acc = a[i][0] * b[0][j]
                        for l in range(1, k):
                            acc += a[i][l] * b[l][j]
                        c[i][j] = acc
                scale = max(max(line) for line in c)
                if scale <= 0.0:
                    scale = 1.0
                up.append(([[e / scale for e in line] for line in c],
                           log_a + log_b + float(np.log(scale))))
            if len(level) % 2:
                up.append(level[-1])
            level = up
        prods.append(level[0][0])
        logs.append(level[0][1])
    return np.array(prods), np.array(logs)


@pytest.mark.parametrize("n,r,k", [(1, 2, 2), (2, 3, 1), (7, 2, 1), (64, 3, 2), (37, 2, 2),
                                   (100, 1, 3), (45, 2, 3)])
def test_product_is_the_python_float_tree_bit_for_bit(n, r, k):
    rng = np.random.default_rng(100 * n + 10 * r + k)
    mats = rng.gamma(2.0, 2.0, size=(n, r, k, k))
    mats[n // 2, -1] = 0.0  # the last row's product is zero: a scale of 1.0 from there up
    before = mats.copy()
    prod, logs = lyap._product(mats)
    want_prod, want_logs = _python_product(mats)
    assert np.array_equal(mats, before)  # the stack is read, not written
    assert prod.shape == (r, k, k) and logs.shape == (r,)
    assert prod.tobytes() == want_prod.tobytes()
    assert logs.tobytes() == want_logs.tobytes()
    assert not prod[-1].any() and np.isfinite(logs[-1])


def test_batch_sums_do_not_depend_on_the_blas_kernel():
    # a BLAS kernel with FMA (Haswell and later) rounds a matrix product
    # differently from one without; the products call no BLAS, so a run
    # under OpenBLAS's SSE3 kernel has the bits of this process's run
    model, envspec = _BIENNIAL
    cfg = SimConfig(seed=5, replicates=4, burn_in=100, horizon=3100)
    here, _ = _mc_batch_sums(model, envspec, cfg)
    code = """if True:
        import sys
        from stochpop.engine import SimConfig
        from stochpop.env import EnvSpec, Gamma
        from stochpop.lyap import _mc_batch_sums
        from stochpop.models import Biennial
        gsums, _ = _mc_batch_sums(Biennial(p=0.5, a=0.5, b1=1.0, b2=1.0), EnvSpec((Gamma(2.0, 2.0),)),
                                  SimConfig(seed=5, replicates=4, burn_in=100, horizon=3100))
        sys.stdout.write(gsums.tobytes().hex())
    """
    src = os.path.dirname(os.path.dirname(stochpop.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert bytes.fromhex(done.stdout) == here.tobytes()


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
    group, _ = _mc_batch_sums(m, env, cfg)
    for r in range(cfg.replicates):
        # replicate r run as the only row
        monkeypatch.setattr(lyap, "_open_rows", lambda model, envspec, cfg, r=r, **kw: (
            engine._open_rows(model, envspec, cfg, [(r, (0, 1), f"replicate {r}")], **kw)))
        alone, _ = _mc_batch_sums(m, env, cfg)
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
    # a product of 1e200s overflows in the first piece, so its log growth is
    # not finite and the run stops there (an environment that could draw
    # inf, such as LogNormal(0, 300), is refused before any stream opens)
    env = EnvSpec((Constant(1e200),))
    cfg = SimConfig(seed=0, replicates=2, burn_in=0, horizon=5000)
    with pytest.raises(NumericError, match=r"^non-finite log growth for replicate 0 within "
                                           r"steps 0\.\.249$") as info:
        lyapunov_mc(LinearMatrix(1), env, cfg)
    assert info.value.step == 249
    # at log_sd 85 nothing overflows, and a 1x1 product's exponent is the
    # mean log draw: 0.85 times that of log_sd 100 on the same normal words
    env = EnvSpec((LogNormal(0.0, 85.0),))
    logs = []
    for r in range(cfg.replicates):
        stream = make_stream(0, r)
        stream.uniforms(1)  # the random initial vector
        logs.append(np.log(env.transform(stream.uniforms(5000)[:, None])[:, 0]))
    est = lyapunov_mc(LinearMatrix(1), env, cfg)
    assert est.mean == pytest.approx(np.mean(logs), rel=1e-9)
    assert est.mean == pytest.approx(-0.77871, abs=1e-5)


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


def test_closed_form_input_validation():
    with pytest.raises(ConfigurationError):
        GammaClosedFormInput(p=1.2, a=0.5, theta=2.0, k=1.0)
    with pytest.raises(ConfigurationError):
        GammaClosedFormInput(p=0.5, a=1.0, theta=2.0, k=1.0)
    with pytest.raises(ConfigurationError):
        GammaClosedFormInput(p=0.5, a=0.5, theta=-2.0, k=1.0)
    with pytest.raises(ConfigurationError):
        GammaClosedFormInput(p=0.5, a=0.5, theta=2.0, k=1.0, rel_tol=0.0)
