"""Model catalog: step maps, invariance, and the dynamics on faces."""

import math
import re

import numpy as np
import pytest

from stochpop.engine import SimConfig, simulate
from stochpop.env import Constant, EnvSpec, Gamma, LogNormal, Normal, Uniform, make_stream, sample_block
from stochpop.errors import ConfigurationError
from stochpop.models import (
    BevertonHolt,
    Biennial,
    Hassell,
    LinearMatrix,
    Lottery,
    RickerCompetition,
    RickerScalar,
    RpsLottery,
    parse_model,
)
from test_engine import _no_streams


def test_hassell_zero_is_absorbing():
    m = Hassell()
    for w in ([2.0, 1.0], [0.5, 3.0], [7.3, 0.2]):
        assert m.step(np.zeros(1), np.array(w))[0] == 0.0


def test_hassell_direct_evaluation():
    # f = 2 / (1 + 1) = 1, so x = 1 is a fixed point of the draw
    m = Hassell()
    out = m.step(np.ones(1), np.array([2.0, 1.0]))
    assert out[0] == pytest.approx(1.0, abs=1e-15)
    assert np.exp(m.log_percapita(np.ones(1), np.array([2.0, 1.0])))[0] == pytest.approx(1.0)


def test_competition_percapita_at_origin():
    # with no competitors present the growth factor is just e^{draw}
    m = RickerCompetition(0.5, 0.5)
    f1 = np.exp(m.log_percapita(np.zeros(2), np.array([1.0, 0.3])))[0]
    assert f1 == pytest.approx(math.e, rel=1e-15)


def test_lottery_symmetric_fixed_point():
    m = Lottery(2, 0.5)
    x = np.array([0.5, 0.5])
    out = m.step(x, np.array([2.0, 2.0]))
    assert np.allclose(out, x, atol=1e-15)


def test_lottery_equal_fecundity_percapita_is_one():
    m = Lottery(3, 0.3)
    x = np.array([0.2, 0.5, 0.3])
    f = np.exp(m.log_percapita(x, np.array([4.0, 4.0, 4.0])))
    assert np.allclose(f, 1.0, atol=1e-14)


def test_rps_vertex_rates():
    # at the vertex e_1 the pool rate is beta; the species that beats the
    # resident carries alpha, the one it beats carries gamma
    m = RpsLottery(0.1)
    x = np.array([1.0, 0.0, 0.0])
    w = np.array([3.0, 2.0, 1.0])  # alpha, beta, gamma
    f1, f2, f3 = np.exp(m.log_percapita(x, w))
    assert f3 == pytest.approx(1 - 0.1 + 0.1 * 3.0 / 2.0, abs=1e-14)
    assert f2 == pytest.approx(1 - 0.1 + 0.1 * 1.0 / 2.0, abs=1e-14)
    assert f1 == pytest.approx(1.0, abs=1e-14)


def test_rps_rejects_unordered_draws():
    # step is an unchecked kernel; check_env refuses the environment once,
    # from its range, where before each draw block was scanned
    m = RpsLottery(0.1)
    env = EnvSpec((Constant(2.0), Constant(3.0), Constant(1.0)))
    message = "alpha > beta > gamma > 0 (least draws [2.0, 3.0, 1.0], greatest [2.0, 3.0, 1.0])"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        m.check_env(env)
    cfg = SimConfig(seed=1, horizon=10, initial_state=(0.3, 0.3, 0.4))
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        simulate(m, env, cfg)


@pytest.mark.parametrize("alpha, beta, gamma, ordered", [
    (Uniform(2.5, 3.0), Uniform(1.5, 2.0), Uniform(0.5, 1.0), True),
    (Uniform(2.0, 3.0), Uniform(1.5, 2.5), Uniform(0.5, 1.0), False),
    (Uniform(2.5, 3.0), Uniform(0.8, 2.0), Uniform(0.5, 1.0), False),
    (Uniform(2.5, 3.0), Uniform(1.5, 2.0), Uniform(-0.5, 1.0), False),
    # Uniform(1.5, 2.0)'s greatest draw rounds to 2.0, Uniform(2.0, 3.0)'s least is 2.0
    (Uniform(2.0, 3.0), Uniform(1.5, 2.0), Uniform(0.5, 1.0), False),
    (LogNormal(1.5, 0.1), Constant(2.0), Constant(1.0), False),
], ids=["separated", "alpha_beta_overlap", "beta_gamma_overlap", "gamma_below_zero",
        "touching", "unbounded_alpha"])
def test_rps_decides_its_ordering_on_the_ranges(monkeypatch, alpha, beta, gamma, ordered):
    env = EnvSpec((alpha, beta, gamma))
    cfg = SimConfig(seed=1, replicates=2, horizon=50)
    if ordered:
        simulate(RpsLottery(0.1), env, cfg)
        return
    _no_streams(monkeypatch)
    with pytest.raises(ConfigurationError,
                       match=r"^draws must satisfy alpha > beta > gamma > 0 \(least draws \["):
        simulate(RpsLottery(0.1), env, cfg)


def test_biennial_linearization_at_zero():
    m = Biennial(p=0.3, a=0.6, b1=1.0, b2=2.0)
    a_mat = m.linearization_at_zero(np.array([[5.0]]))[0]
    assert np.allclose(a_mat, [[0.0, 1.5], [0.6, 0.7 * 0.6]])
    # p = 0 gives a lower-triangular matrix with spectral radius a
    m0 = Biennial(p=0.0, a=0.6, b1=1.0, b2=1.0)
    a0 = m0.linearization_at_zero(np.array([[5.0]]))[0]
    assert a0[0, 1] == 0.0
    assert max(abs(np.linalg.eigvals(a0))) == pytest.approx(0.6)


def test_linear_matrix_constant_entries():
    m = LinearMatrix(2)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(m.linearization_at_zero(w), [[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(m.step(np.array([1.0, 1.0]), w), [3.0, 7.0])


_CASES = [
    (Hassell(), EnvSpec((LogNormal(0.1, 0.3), Uniform(0.5, 2.0)))),
    (RickerScalar(), EnvSpec((Normal(0.5, 0.4), Uniform(0.5, 1.5)))),
    (BevertonHolt(s=0.2), EnvSpec((LogNormal(0.3, 0.2), Uniform(0.5, 1.5)))),
    (RickerCompetition(0.6, 0.5), EnvSpec((Normal(1.0, 0.3), Normal(0.8, 0.3)))),
    (Lottery(3, 0.2), EnvSpec((LogNormal(1.0, 0.3),) * 3)),
    (RpsLottery(0.2), EnvSpec((Uniform(3.0, 3.5), Uniform(2.0, 2.5), Uniform(1.0, 1.5)))),
]


@pytest.mark.parametrize("model,envspec", _CASES, ids=[m.name for m, _ in _CASES])
def test_percapita_invariance_sweep(model, envspec):
    # exact zeros stay exactly zero and positive coordinates stay positive
    n = 10_000
    stream = make_stream(99, 0)
    w = sample_block(envspec, stream, n)
    x = stream.uniforms(n * model.k).reshape(n, model.k) * 3.0 + 1e-6
    zero_mask = stream.uniforms(n * model.k).reshape(n, model.k) < 0.3
    if model.sim_mode == "simplex":
        zero_mask[zero_mask.all(axis=1)] = False
        x[zero_mask] = 0.0
        x /= x.sum(axis=1, keepdims=True)
    else:
        x[zero_mask] = 0.0
    out = model.step(x, w)
    assert np.all(out[zero_mask] == 0.0)
    assert np.all(out[~zero_mask & (x > 0)] > 0)


@pytest.mark.parametrize(
    "model,envspec",
    [
        (Biennial(0.4, 0.5, 1.0, 1.0), EnvSpec((Gamma(1.0, 2.0),))),
        (LinearMatrix(2), EnvSpec((Uniform(0.1, 1.0),) * 4)),
    ],
    ids=["biennial", "linear_matrix"],
)
def test_structured_invariance_sweep(model, envspec):
    # for structured models only the full-zero state is absorbing
    n = 10_000
    stream = make_stream(98, 0)
    w = sample_block(envspec, stream, n)
    x = stream.uniforms(n * model.k).reshape(n, model.k) * 3.0
    zero_rows = stream.uniforms(n) < 0.2
    x[zero_rows] = 0.0
    out = model.step(x, w)
    assert np.all(out[zero_rows] == 0.0)


@pytest.mark.parametrize(
    "model,envspec",
    [
        (Lottery(3, 0.3), EnvSpec((LogNormal(1.0, 0.3),) * 3)),
        (RpsLottery(0.3), EnvSpec((Uniform(3.0, 3.5), Uniform(2.0, 2.5), Uniform(1.0, 1.5)))),
    ],
    ids=["lottery", "rps"],
)
def test_simplex_preserved_over_long_runs(model, envspec):
    stream = make_stream(5, 0)
    x = np.array([0.5, 0.3, 0.2])
    w = sample_block(envspec, stream, 100_000)
    for t in range(100_000):
        x = model.step(x, w[t])
    assert abs(x.sum() - 1.0) <= 1e-12
    assert np.all(x >= 0)


def test_hassell_growth_strictly_decreasing_in_density():
    m = Hassell()
    grid = np.linspace(0.0, 50.0, 200)[:, None]
    for w in ([2.0, 1.0], [1.2, 0.7], [5.0, 2.5]):
        f = m.log_percapita(grid, np.array(w))[:, 0]
        assert np.all(np.diff(f) < 0)


def test_biennial_entries_nonincreasing_in_density():
    m = Biennial(0.4, 0.5, 1.0, 2.0)
    xi = np.array([[3.0]])
    prev = None
    for total in np.linspace(0.0, 20.0, 50):
        x = np.array([0.5 * total, 0.5 * total])
        n = x[0] + x[1]
        s1 = 1.0 / (1.0 + m.b1 * n)
        s2 = m.a / (1.0 + m.b2 * n)
        entries = np.array([m.p * 3.0 * s1, s2, (1 - m.p) * s2])
        if prev is not None:
            assert np.all(entries <= prev + 1e-15)
        prev = entries


def test_rps_pairwise_dominance_ratio_decreases():
    # on the {1,2} face the subordinate-to-dominant ratio falls every step,
    # strictly so until the subordinate underflows to the denormal floor
    m = RpsLottery(0.2)
    envspec = EnvSpec((Uniform(3.0, 3.5), Uniform(2.0, 2.5), Uniform(1.0, 1.5)))
    x = np.array([0.5, 0.5, 0.0])
    w = sample_block(envspec, make_stream(17, 0), 10_000)
    ratio = x[1] / x[0]
    strict_steps = 0
    for t in range(10_000):
        x = m.step(x, w[t])
        new_ratio = x[1] / x[0]
        if x[1] < 1e-300:
            assert new_ratio <= ratio
        else:
            assert new_ratio < ratio
            strict_steps += 1
        ratio = new_ratio
    assert strict_steps > 3000


def test_competition_face_matches_scalar_reduction():
    # competition on the face of species 1 steps exactly like the scalar
    # ricker map with unit self-limitation
    comp = RickerCompetition(0.6, 0.5)
    scalar = RickerScalar()
    for x0, r in [(0.5, 1.0), (2.0, 0.3), (0.05, 1.7)]:
        full = comp.step(np.array([x0, 0.0]), np.array([r, 0.0]))
        red = scalar.step(np.array([x0]), np.array([r, 1.0]))
        assert full[1] == 0.0
        assert full[0] == pytest.approx(red[0], rel=1e-14)


def test_lottery_face_matches_the_two_species_lottery():
    face = Lottery(3, 0.4)
    two = Lottery(2, 0.4)
    x3 = np.array([0.6, 0.4, 0.0])
    w3 = np.array([2.0, 3.0, 9.9])
    out3 = face.step(x3, w3)
    out2 = two.step(np.array([0.6, 0.4]), np.array([2.0, 3.0]))
    assert out3[2] == 0.0
    assert np.allclose(out3[:2], out2, atol=1e-15)


def test_step_rejects_wrong_wiring():
    m = Hassell()
    env = EnvSpec((Constant(2.0),))
    with pytest.raises(ConfigurationError):
        m.check_env(env)


def test_parse_model_round_trip_and_validation():
    m, env = parse_model(
        {"model": "ricker_competition", "r": [{"dist": "normal", "mean": 1.0, "sd": 0.2}, 0.8], "alpha": [0.5, 0.6]}
    )
    assert isinstance(m, RickerCompetition)
    assert m.alpha == (0.5, 0.6)
    assert env.dim == 2
    with pytest.raises(ConfigurationError):
        parse_model({"model": "hassell", "lam": 2.0})
    with pytest.raises(ConfigurationError):
        parse_model({"model": "hassell", "lam": 2.0, "b": 1.0, "extra": 1})
    with pytest.raises(ConfigurationError):
        parse_model({"model": "unicorn"})
    with pytest.raises(ConfigurationError):
        parse_model({"model": "lottery", "k": 3, "d": 0.1, "fecundity": [1.0, 2.0]})


def test_percapita_unavailable_for_structured():
    m = Biennial(0.4, 0.5, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        m.log_percapita(np.array([1.0, 1.0]), np.array([2.0]))
