"""Simulation engine: occupation statistics, averages, reproducibility."""

import math

import numpy as np
import pytest

from stochpop.engine import (
    Box,
    Complement,
    Coordinate,
    ExtinctionNeighborhood,
    Indicator,
    LogNorm,
    LogPerCapita,
    OutsideBall,
    SimConfig,
    _drive,
    auxiliary_affine_chain,
    default_sets,
    ensemble_hit_probability,
    ergodic_average,
    simulate,
)
from stochpop.env import Constant, EnvSpec, LogNormal, Normal, Uniform
from stochpop.errors import ConfigurationError, NumericError
from stochpop.models import BevertonHolt, Hassell, Lottery, RickerScalar


def _bh_env():
    return EnvSpec((Constant(2.0), Constant(1.0)))


def test_deterministic_beverton_holt_settles_at_fixed_point():
    # cobweb oracle: x' = 2x/(1+x) converges to x* = 1 from any start
    x = 0.37
    for _ in range(200):
        x = 2 * x / (1 + x)
    assert x == pytest.approx(1.0, abs=1e-12)

    cfg = SimConfig(seed=1, replicates=3, burn_in=200, horizon=1200)
    result = simulate(
        BevertonHolt(s=0.0),
        _bh_env(),
        cfg,
        functionals=(Indicator(Box(((0.99, 1.01),))), Coordinate(0)),
    )
    assert result.pooled.functional_averages["indicator[box([0.99,1.01])]"].mean == 1.0
    est = result.pooled.functional_averages["coord_0"]
    assert est.mean == pytest.approx(1.0, abs=1e-9)

    # started exactly at the fixed point the chain is constant: SE is zero
    pinned = simulate(
        BevertonHolt(s=0.0),
        _bh_env(),
        cfg.replaced(initial_state=(1.0,)),
        functionals=(Coordinate(0),),
    )
    at_fp = pinned.pooled.functional_averages["coord_0"]
    assert at_fp.mean == 1.0 and at_fp.std_error == 0.0


def test_occupation_additivity():
    cfg = SimConfig(seed=2, replicates=4, burn_in=100, horizon=5100, bound_radius=1.5, eta_grid=(0.05,))
    result = simulate(Hassell(), EnvSpec((LogNormal(0.3, 0.3), Constant(1.0))), cfg)
    for s in result.replicates + [result.pooled]:
        assert s.occupation["outside_ball=1.5"] + s.occupation["not[outside_ball=1.5]"] == pytest.approx(
            1.0, abs=1e-12
        )


def test_rows_of_a_batch_match_one_row_runs():
    cfg = SimConfig(seed=3, replicates=6, burn_in=50, horizon=2050, eta_grid=(0.01,), bound_radius=3.0)
    env = EnvSpec((LogNormal(0.2, 0.4), Constant(1.0)))
    model = Hassell()
    functionals = (Coordinate(0), LogPerCapita(0))
    sets = default_sets(cfg)
    batch = _drive(model, env, cfg, functionals, sets)
    again = _drive(model, env, cfg, functionals, sets)
    for key, value in batch.items():
        assert np.array_equal(value, again[key]), key
    support = tuple(range(model.k))
    for r in range(cfg.replicates):
        alone = _drive(model, env, cfg, functionals, sets, rows=[(r, support, f"replicate {r}")])
        for key in ("occ_counts", "fsums", "terminal"):
            assert np.array_equal(alone[key][0], batch[key][r]), (key, r)


def test_extinction_flags_for_decaying_hassell():
    env = EnvSpec((LogNormal(-0.2, 0.3), Constant(1.0)))
    cfg = SimConfig(seed=4, replicates=20, burn_in=0, horizon=5000)
    result = simulate(Hassell(), env, cfg)
    assert result.pooled.extinct_fraction == 1.0
    for s in result.replicates:
        assert s.extinction_flag


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_average_raises_instead_of_reporting():
    # without density dependence the state explodes and saturates, so its
    # running sum overflows: an inf mean with a NaN SE must not be returned
    env = EnvSpec((LogNormal(0.3, 0.3), Constant(0.0)))
    cfg = SimConfig(seed=1, horizon=6000)
    with pytest.raises(NumericError, match=r"coord_0 for replicate 0") as info:
        simulate(Hassell(), env, cfg, functionals=(Coordinate(0),))
    assert info.value.step < 5999  # stopped at the chunk where the sum overflowed


def test_thinned_samples_shape_and_terminal():
    cfg = SimConfig(seed=5, replicates=2, burn_in=100, horizon=1100, thinning=100)
    result = simulate(Hassell(), EnvSpec((LogNormal(0.3, 0.3), Constant(1.0))), cfg)
    assert result.replicates[0].thinned_samples.shape == (10, 1)
    assert result.replicates[0].terminal_state.shape == (1,)


def test_lottery_exchangeable_species_split_time_evenly():
    env = EnvSpec((LogNormal(1.0, 0.3), LogNormal(1.0, 0.3)))
    cfg = SimConfig(seed=6, replicates=2, burn_in=2000, horizon=42000, initial_state=(0.5, 0.5))
    est = ergodic_average(Lottery(2, 0.5), env, cfg, Coordinate(0))
    assert abs(est.mean - 0.5) < 3 * est.std_error


def test_ricker_stationary_mean_matches_growth_rate():
    env = EnvSpec((Normal(1.0, 0.3), Constant(1.0)))
    cfg = SimConfig(seed=8, replicates=4, burn_in=5000, horizon=30000)
    est = ergodic_average(RickerScalar(), env, cfg, Coordinate(0))
    assert abs(est.mean - 1.0) < 3 * est.std_error


def test_ergodic_average_validates_functional_and_horizon():
    cfg = SimConfig(seed=1, replicates=1, burn_in=0, horizon=1)
    env = _bh_env()
    with pytest.raises(ConfigurationError):
        ergodic_average(BevertonHolt(), env, cfg, Coordinate(0))
    with pytest.raises(ConfigurationError):
        ergodic_average(BevertonHolt(), env, SimConfig(seed=1, horizon=100), "coord_0")


def test_log_percapita_functional_near_zero_for_persistent_lottery():
    env = EnvSpec((LogNormal(1.0, 0.3),) * 2)
    cfg = SimConfig(seed=9, replicates=2, burn_in=2000, horizon=32000)
    for i in (0, 1):
        est = ergodic_average(Lottery(2, 0.3), env, cfg, LogPerCapita(i))
        assert abs(est.mean) < 3 * est.std_error


def test_ensemble_hit_probability_deterministic_is_zero_or_one():
    cfg = SimConfig(seed=10, replicates=8, burn_in=0, horizon=500, initial_state=(0.37,))
    est = ensemble_hit_probability(BevertonHolt(), _bh_env(), cfg, Box(((0.99, 1.01),)), 500)
    assert est.mean == 1.0 and est.std_error == 0.0
    est2 = ensemble_hit_probability(BevertonHolt(), _bh_env(), cfg, OutsideBall(5.0), 500)
    assert est2.mean == 0.0


def test_ensemble_hit_probability_tracks_extinction():
    env = EnvSpec((LogNormal(-0.2, 0.3), Constant(1.0)))
    cfg = SimConfig(seed=11, replicates=40, burn_in=0, horizon=5000)
    est = ensemble_hit_probability(Hassell(), env, cfg, ExtinctionNeighborhood(0.01), 5000)
    assert est.mean > 0.95
    envp = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    estp = ensemble_hit_probability(Hassell(), envp, cfg, ExtinctionNeighborhood(0.01), 5000)
    assert estp.mean <= 0.05


def test_affine_chain_contracts_to_geometric_limit():
    cfg = SimConfig(seed=12, replicates=3, burn_in=200, horizon=1200, bound_radius=5.0)
    result = auxiliary_affine_chain(
        Constant(0.5), Constant(1.0), cfg, extra_sets=(Box(((1.9, 2.1),)),)
    )
    for s in result.replicates:
        assert s.occupation["box([1.9,2.1])"] == 1.0
        assert not s.divergence_flag


def test_affine_chain_flags_divergence():
    cfg = SimConfig(seed=13, replicates=2, burn_in=100, horizon=2100)
    result = auxiliary_affine_chain(Constant(1.1), Constant(1.0), cfg)
    assert result.pooled.divergence_fraction == 1.0


def test_affine_chain_tail_occupation_decreases_with_radius():
    # contracting chain: time outside [0, a] shrinks as a grows and is
    # eventually below 5 percent
    cfg = SimConfig(seed=14, replicates=2, burn_in=1000, horizon=21000)
    occs = []
    for radius in (2.0, 4.0, 8.0, 16.0, 32.0):
        result = auxiliary_affine_chain(
            LogNormal(-0.3, 0.4), Constant(1.0), cfg.replaced(bound_radius=radius)
        )
        occs.append(result.pooled.occupation[f"outside_ball={radius:g}"])
    assert all(b <= a + 1e-12 for a, b in zip(occs, occs[1:]))
    assert occs[-1] < 0.05
    assert result.pooled.divergence_fraction == 0.0


def test_sim_config_validation():
    with pytest.raises(ConfigurationError):
        SimConfig(seed=1, horizon=0)
    with pytest.raises(ConfigurationError):
        SimConfig(seed=1, burn_in=10, horizon=10)
    with pytest.raises(ConfigurationError):
        SimConfig(seed=1, horizon=10, thinning=0)
    with pytest.raises(ConfigurationError):
        SimConfig(seed=1, horizon=10, eta_grid=(0.0,))
    with pytest.raises(ConfigurationError):
        SimConfig(seed=1, horizon=10, replicates=0)


def test_initial_state_validation():
    env = _bh_env()
    cfg = SimConfig(seed=1, horizon=10, initial_state=(1.0, 2.0))
    with pytest.raises(ConfigurationError):
        simulate(BevertonHolt(), env, cfg)
    cfg2 = SimConfig(seed=1, horizon=10, initial_state="random_exterior")
    with pytest.raises(ConfigurationError):
        simulate(BevertonHolt(), env, cfg2)
    lot_env = EnvSpec((Constant(2.0), Constant(2.0)))
    bad_simplex = SimConfig(seed=1, horizon=10, initial_state=(0.5, 0.4))
    with pytest.raises(ConfigurationError):
        simulate(Lottery(2, 0.5), lot_env, bad_simplex)


def test_random_interior_simplex_start_is_interior():
    env = EnvSpec((LogNormal(1.0, 0.3),) * 3)
    cfg = SimConfig(seed=15, replicates=16, burn_in=0, horizon=1, thinning=1)
    result = simulate(Lottery(3, 0.2), env, cfg)
    starts = np.stack([s.thinned_samples[0] for s in result.replicates])
    assert np.all(starts >= 0.01 - 1e-12)
    assert np.allclose(starts.sum(axis=1), 1.0, atol=1e-12)
