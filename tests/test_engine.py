"""Simulation engine: occupation statistics, averages, reproducibility."""

import math

import numpy as np
import pytest

from scipy.special import logsumexp

from stochpop import engine
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
    _draw_chunks,
    _drive,
    _initial_states,
    auxiliary_affine_chain,
    default_sets,
    ensemble_hit_probability,
    ergodic_average,
    simulate,
)
from stochpop.env import (
    Constant,
    Discrete,
    EnvSpec,
    LogNormal,
    Normal,
    Uniform,
    make_stream,
    sample_block,
)
from stochpop.errors import ConfigurationError, NumericError
from stochpop.models import (
    LOG_CAP,
    LOG_FLOOR,
    AffineChain,
    BevertonHolt,
    Biennial,
    Hassell,
    Lottery,
    RickerCompetition,
    RickerScalar,
)


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
    _check_rows_match_one_row_runs()


def test_rows_match_one_row_runs_across_draw_block_lengths(monkeypatch):
    # 6 rows x 2 draws make 83-step chunks, one row 500-step chunks
    monkeypatch.setattr(engine, "_BLOCK", 1000)
    _check_rows_match_one_row_runs()


def _check_rows_match_one_row_runs():
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


_LINEAR_FLOOR = float(np.exp(LOG_FLOOR))


def _reference_drive(model, envspec, cfg, functionals, sets):
    """The driver with its pair functionals accumulated separately in each
    sim_mode branch, one replicate per row."""
    support = tuple(range(model.k))
    rows = [(r, support, f"replicate {r}") for r in range(cfg.replicates)]
    k = model.k
    t_total = cfg.horizon
    burn = cfg.burn_in
    n_steps = t_total - burn
    n_batches = min(20, n_steps)
    rg = len(rows)
    streams = [make_stream(cfg.seed, cfg.replicate_base + sid) for sid, _, _ in rows]
    x = _initial_states(model, cfg, streams, [support for _, support, _ in rows])

    mode = model.sim_mode
    alive0 = x > 0
    if mode == "log_mult":
        with np.errstate(divide="ignore"):
            ell = np.log(x)
    elif mode == "affine":
        with np.errstate(divide="ignore"):
            ell = np.log(x[:, 0])

    state_fns = [f for f in functionals if f.kind == "state"]
    pair_fns = [f for f in functionals if f.kind != "state"]
    f_index = {f.name: i for i, f in enumerate(functionals)}
    occ_counts = np.zeros((rg, len(sets)), dtype=np.int64)
    fsums = np.zeros((rg, len(functionals), n_batches))
    n_thin = 0 if n_steps == 0 else 1 + (n_steps - 1) // cfg.thinning
    thinned = np.zeros((rg, n_thin, k))
    floored = np.zeros(rg, dtype=bool)
    frozen = np.zeros(rg, dtype=bool)

    for t, draws in _draw_chunks(envspec, streams, t_total):
        for s, w in enumerate(draws):
            step_t = t + s
            if mode == "log_mult":
                x = np.exp(np.minimum(ell, LOG_CAP))
            elif mode == "affine":
                x = np.exp(np.minimum(ell, LOG_CAP))[:, None]

            measuring = step_t >= burn
            if measuring:
                rel = step_t - burn
                b = (rel * n_batches) // n_steps
                for j, sd in enumerate(sets):
                    occ_counts[:, j] += sd.contains(x, model)
                for f in state_fns:
                    if isinstance(f, Coordinate):
                        val = x[:, f.i]
                    else:
                        val = f.set_descriptor.contains(x, model).astype(float)
                    fsums[:, f_index[f.name], b] += val
                if rel % cfg.thinning == 0:
                    thinned[:, rel // cfg.thinning] = x

            if mode == "log_mult":
                logf = model.log_percapita(x, w)
                ell_new = ell + logf
                dip = (ell_new < LOG_FLOOR) & alive0
                if dip.any():
                    ell_new[dip] = LOG_FLOOR
                    floored |= dip.any(axis=-1)
                if measuring and pair_fns:
                    for f in pair_fns:
                        if isinstance(f, LogPerCapita):
                            val = logf[:, f.i]
                        else:
                            val = logsumexp(ell_new, axis=-1) - logsumexp(ell, axis=-1)
                        fsums[:, f_index[f.name], b] += val
                ell = ell_new
            elif mode == "simplex":
                logf = model.log_percapita(x, w)
                x_new = x * np.exp(logf)
                x_new /= x_new.sum(axis=-1, keepdims=True)
                floored |= np.where(alive0, x_new, np.inf).min(axis=-1) < _LINEAR_FLOOR
                if measuring and pair_fns:
                    for f in pair_fns:
                        if isinstance(f, LogPerCapita):
                            val = logf[:, f.i]
                        else:
                            val = np.zeros(rg)
                        fsums[:, f_index[f.name], b] += val
                x = x_new
            elif mode == "affine":
                la, lb = np.log(w[:, 0]), np.log(w[:, 1])
                ell_new = np.logaddexp(la + ell, lb)
                if measuring and pair_fns:
                    for f in pair_fns:
                        fsums[:, f_index[f.name], b] += ell_new - ell
                ell = ell_new
            else:
                x_new = model.step(x, w)
                crossed = (np.max(x_new, axis=-1) <= _LINEAR_FLOOR) & ~frozen
                if crossed.any():
                    floored |= crossed
                    frozen |= crossed
                    x_new[frozen] = x[frozen]
                if measuring and pair_fns:
                    tot_old = x.sum(axis=-1)
                    tot_new = x_new.sum(axis=-1)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        g = np.log(tot_new) - np.log(tot_old)
                    for f in pair_fns:
                        fsums[:, f_index[f.name], b] += g
                x = x_new

    if mode == "log_mult":
        x = np.exp(np.minimum(ell, LOG_CAP))
    elif mode == "affine":
        x = np.exp(np.minimum(ell, LOG_CAP))[:, None]
    return {"occ_counts": occ_counts, "fsums": fsums, "thinned": thinned,
            "floored": floored, "terminal": x}


# (model, env, pair functionals); p = 1 makes a zero seed draw on a
# stage-2-only biennial state kill its row, so the floor freeze is exercised
_DRIVE_CASES = {
    "hassell": (Hassell(), EnvSpec((LogNormal(0.2, 0.4), Constant(1.0))),
                (LogPerCapita(0), LogNorm())),
    "ricker-competition": (RickerCompetition(0.6, 0.5),
                           EnvSpec((Normal(1.0, 0.3), Normal(0.8, 0.3))),
                           (LogPerCapita(1), LogNorm())),
    "lottery": (Lottery(3, 0.3), EnvSpec((LogNormal(1.0, 0.5),) * 3),
                (LogPerCapita(2), LogNorm())),
    "biennial": (Biennial(1.0, 0.5, 1.0, 1.0),
                 EnvSpec((Discrete((0.0, 3.0), (0.004, 0.996)),)), (LogNorm(),)),
    "affine": (AffineChain(), EnvSpec((LogNormal(-0.3, 0.4), Constant(1.0))), (LogNorm(),)),
}


@pytest.mark.parametrize("case", list(_DRIVE_CASES))
def test_drive_matches_per_mode_reference(monkeypatch, case):
    # 7- to 21-step chunks at _BLOCK = 64, so burn_in 25 ends inside a chunk
    monkeypatch.setattr(engine, "_BLOCK", 64)
    model, env, pair_fns = _DRIVE_CASES[case]
    cfg = SimConfig(seed=16, replicates=3, burn_in=25, horizon=400, thinning=7,
                    eta_grid=(0.05,), bound_radius=2.0)
    functionals = (Coordinate(model.k - 1), Indicator(Box(((0.2, 1.5),) * model.k))) + pair_fns
    sets = default_sets(cfg)
    got = _drive(model, env, cfg, functionals, sets)
    want = _reference_drive(model, env, cfg, functionals, sets)
    for key in ("occ_counts", "fsums", "thinned", "floored", "terminal"):
        assert np.array_equal(got[key], want[key]), key
    if case == "biennial":
        assert 0 < got["floored"].sum() < cfg.replicates


def test_repeated_functional_is_not_counted_twice():
    cfg = SimConfig(seed=1, replicates=2, burn_in=10, horizon=510)
    env = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    once = simulate(Hassell(), env, cfg, (Coordinate(0),))
    twice = simulate(Hassell(), env, cfg, (Coordinate(0), Coordinate(0)))
    assert twice.pooled.functional_averages == once.pooled.functional_averages


def test_functional_index_out_of_range_opens_no_stream(monkeypatch):
    def no_stream(*args):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(engine, "make_stream", no_stream)
    cfg = SimConfig(seed=1, replicates=2, horizon=50)
    env = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    for bad in (Coordinate(-1), Coordinate(1), LogPerCapita(3), LogPerCapita(-2)):
        with pytest.raises(ConfigurationError, match="species index"):
            simulate(Hassell(), env, cfg, (Coordinate(0), bad))


# ---------------------------------------------------------------------------
# The draw block against one stream at a time


class _ZeroAt:
    """A stream generator that emits an exact 0.0 at the given word indices."""

    def __init__(self, gen, zeros):
        self.gen, self.zeros, self.pos = gen, set(zeros), 0

    def random(self, n, out=None):
        u = self.gen.random(n, out=out)
        for i in range(self.pos, self.pos + n):
            if i in self.zeros:
                u[i - self.pos] = 0.0
        self.pos += n
        return u


def _streams(rows, zeros):
    streams = [make_stream(9, r) for r in range(rows)]
    for r, words in zeros.items():
        streams[r]._gen = _ZeroAt(streams[r]._gen, words)
    return streams


_BLOCK_CASES = {
    # m, rows, steps, _BLOCK (None keeps the shipped bound), zeros {row: word indices}
    "m1_short_last_chunk": (1, 3, 5000, None, {}),
    "m3_short_last_chunk": (3, 4, 2100, None, {}),
    "rows_above_block_per_chunk": (1, 3, 3000, 4096, {}),
    "one_step_chunks": (2, 3, 7, 4, {}),
    "exact_zero_words": (2, 3, 3000, 4096, {0: (5, 2731), 2: (0, 5999)}),
}


@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_draw_block_matches_each_stream_alone(monkeypatch, case):
    m, rows, steps, block, zeros = _BLOCK_CASES[case]
    if block is not None:
        monkeypatch.setattr(engine, "_BLOCK", block)
        assert rows > engine._BLOCK // engine._CHUNK
    env = EnvSpec((Uniform(0.0, 1.0), LogNormal(0.3, 0.3), Discrete((1.0, 2.0), (0.25, 0.75)))[:m])
    chunks = list(_draw_chunks(env, _streams(rows, zeros), steps))
    assert all(draws.flags.c_contiguous for _, draws in chunks)
    got = np.concatenate([draws for _, draws in chunks])
    assert [t for t, _ in chunks] == list(range(0, steps, len(chunks[0][1])))
    assert got.shape == (steps, rows, m)
    for r, stream in enumerate(_streams(rows, zeros)):
        assert np.array_equal(got[:, r, :], sample_block(env, stream, steps))
    for r, words in zeros.items():
        for word in words:
            # an exact zero word comes out as 2**-54, transformed
            j = word % m
            assert got[word // m, r, j] == env.coords[j].ppf(np.array([2.0**-54]))[0]
    if zeros:
        assert got[0, 2, 0] == 2.0**-54  # through the Uniform(0, 1) ppf


# ---------------------------------------------------------------------------
# The row-wise reduction against one estimate per row


def _reference_estimate(sums, bmeans, n_steps):
    """One row's batch-means estimate, computed on its own."""
    b = bmeans.size
    n = n_steps * (sums.size // sums.shape[-1])
    mean = float(sums.sum() / n)
    flat = bmeans.ravel()
    if b < 2 or np.ptp(flat) == 0.0:
        return engine.RateEstimate(mean, 0.0, b, n)
    return engine.RateEstimate(mean, float(np.sqrt(flat.var(ddof=1) / b)), b, n)


def _reference_rows(raw, functionals):
    """Each row's estimates one call at a time, and the first non-finite one
    in row order, named as the error names it."""
    lengths = engine._batch_lengths(raw["n_steps"], raw["n_batches"])
    bmeans = raw["fsums"] / lengths
    out, first_bad = [], None
    with np.errstate(all="ignore"):
        for r, label in enumerate(raw["labels"]):
            fa = {f.name: _reference_estimate(raw["fsums"][r, j], bmeans[r, j], raw["n_steps"])
                  for j, f in enumerate(functionals)}
            out.append(fa)
            for name, est in fa.items():
                if first_bad is None and not (np.isfinite(est.mean) and np.isfinite(est.std_error)):
                    first_bad = (f"non-finite estimate of {name} for {label}: "
                                 f"mean {est.mean}, std_error {est.std_error}")
    return out, first_bad


def _raw(fsums, n_steps):
    rows = len(fsums)
    return {
        "occ_counts": np.zeros((rows, 0), dtype=np.int64),
        "fsums": fsums,
        "thinned": np.zeros((rows, 1, 1)),
        "floored": np.zeros(rows, dtype=bool),
        "terminal": np.ones((rows, 1)),
        "labels": [f"replicate {r}" for r in range(rows)],
        "n_steps": n_steps,
        "n_batches": fsums.shape[-1],
    }


def test_row_wise_reduction_matches_per_row_estimates():
    rng = np.random.default_rng(3)
    n_steps = 1003  # batches of 50 and 51 steps
    fsums = rng.normal(size=(6, 3, 20)) * np.array([1.0, 1e-9, 1e6])[None, :, None]
    lengths = engine._batch_lengths(n_steps, 20)
    fsums[2, 1] = 0.1 * lengths  # zero spread: every batch mean is 0.1 ...
    assert np.ptp(fsums[2, 1] / lengths) == 0.0
    assert np.var(fsums[2, 1] / lengths, ddof=1) > 0.0  # ... but the variance has residue
    fsums[4, 0] = 0.0
    functionals = (Coordinate(0), LogNorm(), LogPerCapita(0))
    want, first_bad = _reference_rows(_raw(fsums, n_steps), functionals)
    assert first_bad is None
    got = engine._build_result(_raw(fsums, n_steps), functionals, ())
    assert [s.functional_averages for s in got.replicates] == want
    assert want[2]["log_norm_growth"].std_error == 0.0
    assert want[4]["coord_0"].std_error == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("horizon", [1, 2, 301])
def test_row_wise_reduction_matches_per_row_estimates_on_a_run(horizon):
    # horizon 1 leaves one batch of one step; Indicator of an empty box has
    # zero spread in every row
    cfg = SimConfig(seed=4, replicates=5, burn_in=0, horizon=horizon, thinning=3)
    env = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    functionals = (Coordinate(0), LogPerCapita(0), Indicator(Box(((-2.0, -1.0),))), LogNorm())
    raw = _drive(Hassell(), env, cfg, functionals, ())
    want, _ = _reference_rows(raw, functionals)
    got = engine._build_result(raw, functionals, ())
    assert [s.functional_averages for s in got.replicates] == want
    for r, s in enumerate(got.replicates):
        assert np.shares_memory(s.terminal_state, raw["terminal"])
        assert np.array_equal(s.terminal_state, raw["terminal"][r])
        assert np.array_equal(s.thinned_samples, raw["thinned"][r])
    if horizon == 1:
        assert all(est.batches == 1 and est.std_error == 0.0
                   for fa in want for est in fa.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_row_wise_reduction_names_the_same_non_finite_row():
    functionals = (Coordinate(0), LogPerCapita(0))
    fsums = np.ones((4, 2, 20))
    fsums[1, 1, ::2] = 1e307  # finite sums whose variance overflows: SE inf
    fsums[1, 1, 1::2] = -1e307
    fsums[2, 0, 3] = np.nan
    fsums[2, 1, 3] = np.nan
    fsums[3, 1, 0] = np.inf
    for first, expected in ((0, "log_percapita_0 for replicate 1: mean 0.0, std_error inf"),
                            (2, "coord_0 for replicate 0: mean nan"),
                            (3, "log_percapita_0 for replicate 0: mean inf")):
        raw = _raw(fsums[first:], 400)
        _, first_bad = _reference_rows(raw, functionals)
        assert expected in first_bad
        with pytest.raises(NumericError) as err:
            engine._build_result(raw, functionals, ())
        assert str(err.value) == first_bad
