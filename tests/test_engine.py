"""Simulation engine: occupation statistics, averages, reproducibility."""

import itertools
import re
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from scipy.special import logsumexp

from stochpop import engine, lyap, persist
from stochpop.engine import (
    Coordinate,
    ExtinctionNeighborhood,
    LogNorm,
    LogPerCapita,
    OutsideBall,
    SimConfig,
    _draw_chunks,
    _drive,
    _initial_states,
    default_sets,
    ensemble_hit_probability,
    ergodic_average,
    simulate,
)
from stochpop.env import (
    Constant,
    Discrete,
    EnvSpec,
    Gamma,
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
    BevertonHolt,
    Biennial,
    Hassell,
    LinearMatrix,
    Lottery,
    Model,
    Origin,
    RickerCompetition,
    RickerScalar,
)


class AffineChain(Model):
    """Scalar chain z' = alpha * z + beta: a user-defined model that the
    engine runs as plain state-space iteration."""

    name = "affine_chain"
    k = 1
    env_dim = 2
    extinction = Origin()
    low = 0.0
    domain = "affine chain draws must be nonnegative"

    def step(self, x, w):
        return w[..., :1] * x + w[..., 1:]


@dataclass(frozen=True)
class Box:
    """A set the tests build: the product of closed per-coordinate intervals."""

    intervals: tuple

    @property
    def name(self):
        parts = ",".join(f"[{lo:g},{hi:g}]" for lo, hi in self.intervals)
        return f"box({parts})"

    def contains(self, x, model):
        ok = np.ones(x.shape[:-1], dtype=bool)
        for j, (lo, hi) in enumerate(self.intervals):
            ok &= (x[..., j] >= lo) & (x[..., j] <= hi)
        return ok


def _with_sets(model, envspec, cfg, functionals, sets):
    """``simulate``'s result, measuring ``sets`` instead of the default ones."""
    raw = _drive(model, envspec, cfg, functionals, sets)
    return engine._build_result(raw, functionals, sets)


def _bh_env():
    return EnvSpec((Constant(2.0), Constant(1.0)))


def test_deterministic_beverton_holt_settles_at_fixed_point():
    # cobweb oracle: x' = 2x/(1+x) converges to x* = 1 from any start
    x = 0.37
    for _ in range(200):
        x = 2 * x / (1 + x)
    assert x == pytest.approx(1.0, abs=1e-12)

    cfg = SimConfig(seed=1, replicates=3, burn_in=200, horizon=1200)
    result = _with_sets(BevertonHolt(s=0.0), _bh_env(), cfg, (Coordinate(0),),
                        (Box(((0.99, 1.01),)),))
    assert result["pooled"]["occupation"]["box([0.99,1.01])"] == 1.0
    est = result["pooled"]["functional_averages"]["coord_0"]
    assert est.mean == pytest.approx(1.0, abs=1e-9)

    # started exactly at the fixed point the chain is constant: SE is zero
    pinned = simulate(
        BevertonHolt(s=0.0),
        _bh_env(),
        replace(cfg, initial_state=(1.0,)),
        functionals=(Coordinate(0),),
    )
    at_fp = pinned["pooled"]["functional_averages"]["coord_0"]
    assert at_fp.mean == 1.0 and at_fp.std_error == 0.0


def test_occupation_additivity():
    cfg = SimConfig(seed=2, replicates=4, burn_in=100, horizon=5100, bound_radius=1.5, eta_grid=(0.05,))
    result = simulate(Hassell(), EnvSpec((LogNormal(0.3, 0.3), Constant(1.0))), cfg)
    for s in result["replicates"] + [result["pooled"]]:
        assert s["occupation"]["outside_ball=1.5"] + s["occupation"]["not[outside_ball=1.5]"] == pytest.approx(
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
    assert result["pooled"]["extinct_fraction"] == 1.0
    for s in result["replicates"]:
        assert s["extinct"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_average_raises_instead_of_reporting():
    # without density dependence the state explodes and saturates, so its
    # running sum overflows: an inf mean with a NaN SE must not be returned
    env = EnvSpec((LogNormal(0.3, 0.3), Constant(0.0)))
    cfg = SimConfig(seed=1, horizon=6000)
    with pytest.raises(NumericError, match=r"coord_0 for replicate 0") as info:
        simulate(Hassell(), env, cfg, functionals=(Coordinate(0),))
    assert info.value.step < 5999  # stopped at the piece where the sum overflowed


def test_terminal_state_shape():
    cfg = SimConfig(seed=5, replicates=2, burn_in=100, horizon=1100)
    result = simulate(Hassell(), EnvSpec((LogNormal(0.3, 0.3), Constant(1.0))), cfg)
    assert np.shape(result["replicates"][0]["terminal_state"]) == (1,)


def _simulate_peak_bytes(cfg):
    tracemalloc.start()
    try:
        simulate(Hassell(), EnvSpec((LogNormal(0.3, 0.3), Constant(1.0))), cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_in_the_horizon():
    # both horizons run 2048-step chunks at R = 64 through one reused draw
    # block, so they hold the same buffers; a horizon ten times longer may
    # add no more than a small fixed amount, a third of what keeping one
    # state per 100 steps would add (189 kB)
    short = _simulate_peak_bytes(SimConfig(seed=1, replicates=64, horizon=4096))
    long = _simulate_peak_bytes(SimConfig(seed=1, replicates=64, horizon=40_960))
    assert long - short < 64 * 1024


def test_a_second_chunk_reuses_the_draw_block():
    # at R = 64 one 2048-step chunk against two: a second draw block live
    # while the next chunk is drawn would add its 2 MiB
    one = _simulate_peak_bytes(SimConfig(seed=1, replicates=64, horizon=2048))
    two = _simulate_peak_bytes(SimConfig(seed=1, replicates=64, horizon=4096))
    assert two - one < 8 * 1024


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
    env = EnvSpec((Constant(0.5), Constant(1.0)))
    result = _with_sets(AffineChain(), env, cfg, (), (*default_sets(cfg), Box(((1.9, 2.1),))))
    for s in result["replicates"]:
        assert s["occupation"]["box([1.9,2.1])"] == 1.0
        assert s["occupation"]["outside_ball=5"] == 0.0
        assert not s["extinct"]


def test_affine_chain_divergence_leaves_every_ball():
    # z_t >= 1.1**t, so every measured state lies beyond 1.1**100 > 1e4
    cfg = SimConfig(seed=13, replicates=2, burn_in=100, horizon=2100, bound_radius=1e4)
    result = simulate(AffineChain(), EnvSpec((Constant(1.1), Constant(1.0))), cfg)
    assert result["pooled"]["occupation"]["outside_ball=10000"] == 1.0
    assert np.all(np.isfinite([s["terminal_state"] for s in result["replicates"]]))


def test_affine_chain_tail_occupation_decreases_with_radius():
    # contracting chain: time outside [0, a] shrinks as a grows and is
    # eventually below 5 percent
    cfg = SimConfig(seed=14, replicates=2, burn_in=1000, horizon=21000)
    env = EnvSpec((LogNormal(-0.3, 0.4), Constant(1.0)))
    occs = []
    for radius in (2.0, 4.0, 8.0, 16.0, 32.0):
        result = simulate(AffineChain(), env, replace(cfg, bound_radius=radius))
        occs.append(result["pooled"]["occupation"][f"outside_ball={radius:g}"])
    assert all(b <= a + 1e-12 for a, b in zip(occs, occs[1:]))
    assert occs[-1] < 0.05
    assert result["pooled"]["extinct_fraction"] == 0.0


def test_sim_config_validation():
    with pytest.raises(ConfigurationError):
        SimConfig(seed=1, horizon=0)
    with pytest.raises(ConfigurationError):
        SimConfig(seed=1, burn_in=10, horizon=10)
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
    cfg = SimConfig(seed=15, replicates=16, horizon=1)
    streams = [make_stream(cfg.seed, r) for r in range(cfg.replicates)]
    starts = _initial_states(Lottery(3, 0.2), cfg, streams, [(0, 1, 2)] * cfg.replicates)
    assert np.all(starts >= 0.01 - 1e-12)
    assert np.allclose(starts.sum(axis=1), 1.0, atol=1e-12)


_LINEAR_FLOOR = float(np.exp(LOG_FLOOR))


def _reference_drive(model, envspec, cfg, functionals, sets):
    """The driver measuring every step as it goes: each set counted and
    each functional added into its time batch one step at a time, the pair
    functionals in each sim_mode branch, one replicate per row.  ``before``
    holds each floored linear row's state in the step before it crossed."""
    support = tuple(range(model.k))
    rows = [(r, support, f"replicate {r}") for r in range(cfg.replicates)]
    t_total = cfg.horizon
    burn = cfg.burn_in
    n_steps = t_total - burn
    n_batches = min(20, n_steps)
    rg = len(rows)
    streams = [make_stream(cfg.seed, sid) for sid, _, _ in rows]
    x = _initial_states(model, cfg, streams, [support for _, support, _ in rows])

    mode = model.sim_mode
    alive0 = x > 0
    if mode == "log_mult":
        with np.errstate(divide="ignore"):
            ell = np.log(x)

    state_fns = [f for f in functionals if isinstance(f, Coordinate)]
    pair_fns = [f for f in functionals if not isinstance(f, Coordinate)]
    f_index = {f.name: i for i, f in enumerate(functionals)}
    occ_counts = np.zeros((rg, len(sets), n_batches), dtype=np.int64)
    fsums = np.zeros((rg, len(functionals), n_batches))
    floored = np.zeros(rg, dtype=bool)
    before = np.full((rg, model.k), np.nan)

    for t, draws in _draw_chunks(envspec, streams, t_total):
        for s, w in enumerate(draws):
            step_t = t + s
            if mode == "log_mult":
                x = np.exp(np.minimum(ell, LOG_CAP))

            measuring = step_t >= burn
            if measuring:
                rel = step_t - burn
                b = (rel * n_batches) // n_steps
                for j, sd in enumerate(sets):
                    occ_counts[:, j, b] += sd.contains(x, model)
                for f in state_fns:
                    fsums[:, f_index[f.name], b] += x[:, f.i]

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
            else:
                x_new = model.step(x, w)
                crossed = (np.max(x_new, axis=-1) <= _LINEAR_FLOOR) & ~floored
                before[crossed] = x[crossed]
                floored |= crossed
                x_new[floored] = x[floored]
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
    return {"occ_counts": occ_counts, "fsums": fsums, "floored": floored, "terminal": x,
            "labels": [label for _, _, label in rows], "n_steps": n_steps,
            "lengths": engine._batch_lengths(n_steps, n_batches), "before": before}


# (model, env, pair functionals); p = 1 makes a zero seed draw on a
# stage-2-only biennial state kill its row, so the floor freeze is exercised
_DRIVE_CASES = {
    "hassell": (Hassell(), EnvSpec((LogNormal(0.2, 0.4), Constant(1.0))),
                (LogPerCapita(0), LogNorm())),
    "ricker-competition": (RickerCompetition(0.6, 0.5),
                           EnvSpec((Normal(1.0, 0.3), Normal(0.8, 0.3))),
                           (LogPerCapita(1), LogNorm())),
    "lottery": (Lottery(3, 0.3), EnvSpec((LogNormal(1.0, 0.5),) * 3),
                (LogPerCapita(2), LogNorm(), LogPerCapita(0))),
    "biennial": (Biennial(1.0, 0.5, 1.0, 1.0),
                 EnvSpec((Discrete((0.0, 3.0), (0.004, 0.996)),)), (LogNorm(),)),
    "affine": (AffineChain(), EnvSpec((LogNormal(-0.3, 0.4), Constant(1.0))), (LogNorm(),)),
    # species 2 starts just above the floor; with d = 0.5 its per-capita
    # factor is at least 0.5, so it dips without being absorbed: seed 16
    # takes replicate 0 below the floor at step 3 and back above it at
    # step 4, inside the first chunk
    "lottery-floor": (Lottery(2, 0.5), EnvSpec((Constant(1.0), Discrete((1e-6, 1e6), (0.8, 0.2)))),
                      (LogPerCapita(1), LogNorm())),
    # species 1 is absent and species 0 starts at log state -699.5, just
    # above the floor; its log growth xi - x has mean 0.3, so seed 16 takes
    # replicate 0 below the floor at steps 1 and 4 and back above it, inside
    # the first piece
    "ricker-floor": (RickerCompetition(0.6, 0.5), EnvSpec((Normal(0.3, 1.0), Normal(0.8, 0.3))),
                     (LogPerCapita(1), LogNorm())),
}
_DRIVE_CFG = {"lottery-floor": {"initial_state": (1.0, 1e-303)},
              "ricker-floor": {"initial_state": (float(np.exp(-699.5)), 0.0)}}


@pytest.mark.parametrize("replicates", [1, 2, 3, 64])
@pytest.mark.parametrize("case", list(_DRIVE_CASES))
def test_drive_matches_per_mode_reference(monkeypatch, case, replicates):
    # 7- to 21-step chunks at _BLOCK = 64 and 3 rows, so burn_in 25 ends
    # inside a chunk; 64 rows draw one-step chunks
    monkeypatch.setattr(engine, "_BLOCK", 64)
    model, env, pair_fns = _DRIVE_CASES[case]
    cfg = replace(SimConfig(seed=16, replicates=replicates, burn_in=25, horizon=400,
                            eta_grid=(0.05,), bound_radius=2.0), **_DRIVE_CFG.get(case, {}))
    # two coordinates where k > 1 (the reference names each column once)
    functionals = (Coordinate(model.k - 1), *[Coordinate(0)][:model.k - 1], *pair_fns)
    sets = (*default_sets(cfg), Box(((0.2, 1.5),) * model.k))
    want = _reference_drive(model, env, cfg, functionals, sets)
    got = _drive(model, env, cfg, functionals, sets)
    for key in ("occ_counts", "fsums", "floored", "terminal"):
        assert np.array_equal(got[key], want[key]), key
    assert got["occ_counts"].shape == (replicates, len(sets), 20)
    if case == "biennial" and replicates >= 3:
        assert 0 < got["floored"].sum() < cfg.replicates
        # a floored row stays where it was before it crossed; before, a row
        # was held only in the step it crossed, and at 64 rows replicate 43
        # stepped on from step 92 to a zero total at step 117 (exit 3)
        held = got["floored"]
        assert np.array_equal(got["terminal"][held], want["before"][held])
        assert np.all(got["terminal"][held].max(axis=-1) > _LINEAR_FLOOR)
    if case.endswith("-floor"):
        assert got["floored"][0]
        # a dip, not an absorption: every live coordinate ends above the floor
        live = got["terminal"][got["floored"]][:, np.array(cfg.initial_state) > 0]
        assert np.all(live > _LINEAR_FLOOR)


def test_step_sum_adds_rows_in_step_order():
    # terms spread over 24 decades: numpy's reduce sums a one-value column
    # pairwise, which differs here from adding the terms one at a time
    rng = np.random.default_rng(5)
    terms = rng.normal(size=2001) * 10.0 ** rng.integers(-12, 12, size=2001)
    for shape in ((1,), (1, 1), (2,), (2, 1), (1, 3), (64, 1)):
        scale = (1.0 + np.arange(np.prod(shape))).reshape(shape)  # columns differ
        block = terms.reshape(-1, *[1] * len(shape)) * scale
        want = np.zeros(shape)
        for row in block:
            want = want + row
        assert np.array_equal(engine._step_sum(block), want), shape
    one = terms.reshape(-1, 1)
    assert not np.array_equal(np.add.reduce(one, axis=0), engine._step_sum(one))


def test_one_row_functional_of_widely_varying_terms_matches_the_reference():
    # E[log alpha] = 0: log z wanders with sd 3 a step, so the coordinate's
    # terms within a batch span many decades, and a pairwise sum of a
    # one-row block changes their last bits
    model = AffineChain()
    env = EnvSpec((LogNormal(0.0, 3.0), Constant(1.0)))
    cfg = SimConfig(seed=8, replicates=1, burn_in=10, horizon=1010)
    functionals = (Coordinate(0), LogNorm())
    got = _drive(model, env, cfg, functionals, ())
    want = _reference_drive(model, env, cfg, functionals, ())
    for key in ("fsums", "floored", "terminal"):
        assert np.array_equal(got[key], want[key]), key


def _recut_chunks(lengths):
    """A ``_draw_chunks`` whose chunks have the given lengths, repeated:
    the same draws as the regular chunks, cut elsewhere."""
    def chunks(envspec, streams, t_total):
        # each chunk is valid only until the next is drawn, so copy it
        draws = np.concatenate([d.copy() for _, d in _draw_chunks(envspec, streams, t_total)])
        t = 0
        for n in itertools.cycle(lengths):
            if t >= t_total:
                return
            yield t, draws[t:t + n]
            t += n
    return chunks


# chunk edges at 8, 38, 41, 86, 94, ...: unequal chunks, so a burn-in end or
# a full state block falls at a chunk edge or inside a chunk
_RECUT = (8, 30, 3, 45)


@pytest.mark.parametrize("case", ["hassell", "lottery", "biennial", "affine"])
@pytest.mark.parametrize("burn_in", [8, 41, 50], ids=["at_first_edge", "at_later_edge",
                                                      "past_three_chunks"])
def test_occupation_per_chunk_matches_the_reference_across_burn_in_edges(
        monkeypatch, case, burn_in):
    monkeypatch.setattr(engine, "_draw_chunks", _recut_chunks(_RECUT))
    model, env, pair_fns = _DRIVE_CASES[case]
    cfg = SimConfig(seed=17, replicates=3, burn_in=burn_in, horizon=200,
                    eta_grid=(0.05, 0.5), bound_radius=2.0)
    functionals = (Coordinate(0), *pair_fns)
    sets = (*default_sets(cfg), Box(((0.2, 1.5),) * model.k))
    got = _drive(model, env, cfg, functionals, sets)
    want = _reference_drive(model, env, cfg, functionals, sets)
    for key in ("occ_counts", "fsums", "floored", "terminal"):
        assert np.array_equal(got[key], want[key]), key
    # the ball and its complement split every measured step of each batch
    assert np.array_equal(got["occ_counts"][:, 2] + got["occ_counts"][:, 3],
                          np.tile(got["lengths"], (cfg.replicates, 1)))


@pytest.mark.parametrize("case", ["hassell", "lottery", "biennial", "affine"])
@pytest.mark.parametrize("steps", [0, 7, 45])
def test_occupation_from_a_state_block_shorter_than_a_chunk_matches_the_reference(
        monkeypatch, case, steps):
    # _SCRATCH holds `steps` steps' states of the 159 measured (0 is below
    # one step, so the state block holds one): 7 fill the block first at
    # step 47, inside the 45-step chunk that starts at the burn-in end, and
    # leave 5 for the count after the last chunk; 45 fill it at that chunk's
    # last step, then inside later chunks, and leave 24
    monkeypatch.setattr(engine, "_draw_chunks", _recut_chunks(_RECUT))
    model, env, pair_fns = _DRIVE_CASES[case]
    cfg = SimConfig(seed=17, replicates=3, burn_in=41, horizon=200,
                    eta_grid=(0.05, 0.5), bound_radius=2.0)
    monkeypatch.setattr(engine, "_SCRATCH", cfg.replicates * model.k * steps)
    functionals = (Coordinate(0), *pair_fns)
    sets = default_sets(cfg)
    got = _drive(model, env, cfg, functionals, sets)
    want = _reference_drive(model, env, cfg, functionals, sets)
    for key in ("occ_counts", "fsums", "floored", "terminal"):
        assert np.array_equal(got[key], want[key]), key


def test_repeated_functional_is_not_counted_twice():
    cfg = SimConfig(seed=1, replicates=2, burn_in=10, horizon=510)
    env = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    once = simulate(Hassell(), env, cfg, (Coordinate(0),))
    twice = simulate(Hassell(), env, cfg, (Coordinate(0), Coordinate(0)))
    assert twice["pooled"]["functional_averages"] == once["pooled"]["functional_averages"]


def test_functional_index_out_of_range_opens_no_stream(monkeypatch):
    def no_stream(*args):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(engine, "make_stream", no_stream)
    cfg = SimConfig(seed=1, replicates=2, horizon=50)
    env = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    for bad in (Coordinate(-1), Coordinate(1), LogPerCapita(3), LogPerCapita(-2)):
        with pytest.raises(ConfigurationError, match="species index"):
            simulate(Hassell(), env, cfg, (Coordinate(0), bad))


def test_per_capita_functional_of_a_linear_model_is_refused_before_any_stream_opens(monkeypatch):
    def no_stream(*args):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(engine, "make_stream", no_stream)
    cfg = SimConfig(seed=1, replicates=2, horizon=50)
    env = EnvSpec((Gamma(2.0, 2.0),))
    with pytest.raises(ConfigurationError, match="biennial has no per-capita growth factors"):
        simulate(Biennial(0.5, 0.5, 1.0, 1.0), env, cfg, (LogPerCapita(0),))


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
    # m, rows, steps, _BLOCK and engine._SCRATCH (None keeps the shipped
    # bound), zeros {row: word indices}
    "m1_short_last_chunk": (1, 3, 5000, None, None, {}),
    "m3_short_last_chunk": (3, 4, 2100, None, None, {}),
    "rows_above_block_per_chunk": (1, 3, 3000, 4096, None, {}),
    "one_step_chunks": (2, 3, 7, 4, None, {}),
    "exact_zero_words": (2, 3, 3000, 4096, None, {0: (5, 2731), 2: (0, 5999)}),
    # every kind: a constant written straight into its column and each
    # other ppf through the transform's scratch; 195-step chunks
    "m8_every_kind": (8, 3, 700, 4096, None, {}),
    "m8_exact_zero_words": (8, 3, 700, 4096, None, {0: (3, 4, 1373), 1: (6, 7), 2: (0, 5, 5599)}),
    # 409-step chunks whose uniforms are drawn for rows 0-1, 2-3 and 4
    "row_blocks": (2, 5, 3000, 4096, 2 * 409 * 2, {1: (3, 5999), 2: (0,), 4: (818, 5998)}),
    # a uniform buffer below one row still holds one row
    "row_blocks_of_one_row": (3, 4, 700, 4096, 5, {0: (2,), 2: (0,), 3: (1000, 2099)}),
}
# the coordinates of a case with m draws per step are the first m here
_BLOCK_COORDS = (Uniform(0.0, 1.0), LogNormal(0.3, 0.3), Discrete((1.0, 2.0), (0.25, 0.75)),
                 Constant(1.5), Gamma(1.0, 2.0), Gamma(2.0, 2.0), Normal(0.5, 1.0),
                 Uniform(-1.0, 3.0))


@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_draw_block_matches_each_stream_alone(monkeypatch, case):
    m, rows, steps, block, scratch, zeros = _BLOCK_CASES[case]
    if block is not None:
        monkeypatch.setattr(engine, "_BLOCK", block)
        assert rows > engine._BLOCK // engine._CHUNK
    if scratch is not None:
        monkeypatch.setattr(engine, "_SCRATCH", scratch)
    env = EnvSpec(_BLOCK_COORDS[:m])
    chunks = []
    for t, draws in _draw_chunks(env, _streams(rows, zeros), steps):
        assert draws.flags.c_contiguous
        chunks.append((t, draws.copy()))  # valid only until the next chunk
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
# The rows of a run: its streams, and its draws cut into pieces

# burn_in, horizon and _BLOCK (None keeps the shipped bound); at _BLOCK = 60
# a 3-row Hassell run draws 10-step chunks, so each 18- or 19-step batch of
# the 400-step runs spans two or three chunks
_PIECE_CASES = {
    "burn_in_inside_a_chunk": (25, 400, 60),
    "burn_in_at_a_chunk_edge": (30, 400, 60),
    "no_burn_in": (0, 400, 60),
    "fewer_than_20_measured_steps": (25, 37, 60),
    "many_batches_in_one_chunk": (5, 405, None),
}


@pytest.mark.parametrize("case", list(_PIECE_CASES))
def test_pieces_tile_the_horizon_within_chunks_and_batches(monkeypatch, case):
    burn_in, horizon, block = _PIECE_CASES[case]
    if block is not None:
        monkeypatch.setattr(engine, "_BLOCK", block)
    chunks = []

    def recording(envspec, streams, t_total):
        for t, draws in _draw_chunks(envspec, streams, t_total):
            chunks.append((t, draws.copy()))  # valid only until the next chunk
            yield t, draws

    monkeypatch.setattr(engine, "_draw_chunks", recording)
    cfg = SimConfig(seed=3, replicates=3, burn_in=burn_in, horizon=horizon)
    env = EnvSpec((LogNormal(0.3, 0.3), Uniform(0.5, 1.5)))
    _, _, lengths, pieces = engine._open_rows(Hassell(), env, cfg)
    n_steps = horizon - burn_in
    n_batches = min(20, n_steps)
    step, cells = 0, set()
    counts = np.zeros(n_batches + 1, dtype=int)  # the burn-in counted last
    for t, b, draws in pieces:
        counts[b] += len(draws)
        c, chunk = chunks[-1]
        assert t == step and 0 < len(draws) and c <= t and t + len(draws) <= c + len(chunk)
        assert np.array_equal(draws, chunk[t - c:t - c + len(draws)])
        for s in range(t, t + len(draws)):
            assert b == (-1 if s < burn_in else ((s - burn_in) * n_batches) // n_steps), s
        cells.add((c, b))
        step += len(draws)
    assert step == horizon
    assert counts[-1] == burn_in and np.array_equal(counts[:-1], lengths)
    # one piece per chunk and batch it meets: no cut other than the edges
    assert len(cells) == len({(s - s % len(chunks[0][1]),
                               -1 if s < burn_in else ((s - burn_in) * n_batches) // n_steps)
                              for s in range(horizon)})


# one pinned id per stream namespace: the ids the package has always used
_PINNED_IDS = {
    ("replicate", 7): 7,
    ("growth_at",): 2**32,
    ("rps",): 2**32 + 1,
    ("taylor",): 2**32 + 2,
    ("scale",): 2**32 + 4,
    ("face", 0b101, 3): 2**33 + 0b101 * 2**20 + 3,
    ("audit",): 2**34,
    ("moments",): 2**35,
    ("vertex", 2): 2**36 + 2,
    ("vertex", 7): 2**36 + 7,
}


def test_every_stream_namespace_keeps_its_pinned_id():
    assert {name for name, *_ in _PINNED_IDS} == set(engine._STREAM_IDS)
    for (name, *indices), sid in _PINNED_IDS.items():
        assert engine._stream_id(name, *indices) == sid, name


def test_stream_namespaces_are_disjoint_and_fit_the_key_word():
    spans = sorted((first, first + (1 << sum(widths)))
                   for first, widths in engine._STREAM_IDS.values())
    assert spans[-1][1] <= 2**64
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start
    # each namespace's least and greatest ids lie in its own span
    for name, (first, widths) in engine._STREAM_IDS.items():
        lo = engine._stream_id(name, *[0] * len(widths))
        hi = engine._stream_id(name, *[(1 << w) - 1 for w in widths])
        assert (lo, hi) == (first, first + (1 << sum(widths)) - 1), name


@pytest.mark.parametrize("name, indices, bounds", [
    ("replicate", (2**32,), [2**32]),
    ("replicate", (-1,), [2**32]),
    ("face", (2**6, 0), [2**6, 2**20]),
    ("face", (1, 2**20), [2**6, 2**20]),
    ("vertex", (8,), [8]),
    ("face", (1,), [2**6, 2**20]),
    ("audit", (0,), []),
], ids=["replicate_2^32", "replicate_-1", "face_code_2^6", "face_replicate_2^20", "vertex_8",
        "face_one_index", "audit_one_index"])
def test_an_index_outside_its_field_or_a_wrong_index_count_is_refused(name, indices, bounds):
    message = (f"the {name} stream id packs indices below {bounds}, so that no two streams "
               f"share an id; got {list(indices)}")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        engine._stream_id(name, *indices)


def test_every_trajectory_run_opens_its_streams_through_open_rows(monkeypatch):
    cfg = SimConfig(seed=2, replicates=3, burn_in=5, horizon=60)
    replicates = [(2, r) for r in range(3)]
    h_env = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    lottery, l_env = Lottery(3, 0.3), EnvSpec((LogNormal(1.0, 0.3),) * 3)
    edges = list(itertools.combinations(range(3), 2))  # a vertex is evaluated at its point
    construction = persist.drift_construction(Hassell(), h_env, seed=2)
    runs = {
        "simulate": (lambda: simulate(Hassell(), h_env, cfg), replicates),
        "ensemble_hit_probability": (lambda: ensemble_hit_probability(
            Hassell(), h_env, cfg, ExtinctionNeighborhood(0.1), 10), replicates),
        "boundary_face_runs": (lambda: persist.boundary_invasion_report(lottery, l_env, cfg),
                               [(2, engine._stream_id("face", sum(1 << i for i in s), r))
                                for s in edges for r in range(3)]
                               + [(2, engine._stream_id("vertex", j)) for j in range(3)]),
        "lyapunov_mc": (lambda: lyap.lyapunov_mc(
            Biennial(0.5, 0.5, 1.0, 1.0), EnvSpec((Gamma(2.0, 2.0),)), cfg), replicates),
        "affine_domination_audit": (lambda: persist.affine_domination_audit(
            Hassell(), h_env, construction, cfg), replicates),
    }
    opened = []
    real = engine.make_stream

    def recording(seed, replicate_id=0):
        opened.append((seed, replicate_id))
        return real(seed, replicate_id)

    monkeypatch.setattr(engine, "make_stream", recording)
    for name, (run, ids) in runs.items():
        opened.clear()
        run()
        assert opened == ids, name


def test_fewer_than_two_measured_steps_are_refused_before_any_stream_opens(monkeypatch):
    # one measured step is one time batch, whose SE would read 0.0
    h_env = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    lottery, l_env = Lottery(3, 0.3), EnvSpec((LogNormal(1.0, 0.3),) * 3)
    biennial, b_env = Biennial(0.5, 0.5, 1.0, 1.0), EnvSpec((Gamma(2.0, 2.0),))
    estimates = {
        "simulate": lambda cfg: simulate(Hassell(), h_env, cfg, (Coordinate(0),)),
        "ergodic_average": lambda cfg: ergodic_average(Hassell(), h_env, cfg, LogPerCapita(0)),
        "invasion_rate": lambda cfg: persist.invasion_rate(lottery, l_env, cfg, 2, (0, 1)),
        "boundary_invasion_report": lambda cfg: persist.boundary_invasion_report(
            lottery, l_env, cfg),
        "lyapunov_mc": lambda cfg: lyap.lyapunov_mc(biennial, b_env, cfg),
    }

    def no_stream(*args):
        raise AssertionError("a stream was opened")

    with monkeypatch.context() as m:
        m.setattr(engine, "make_stream", no_stream)
        for run in estimates.values():
            for burn_in, horizon in ((100, 101), (0, 1)):
                cfg = SimConfig(seed=2, replicates=2, burn_in=burn_in, horizon=horizon)
                with pytest.raises(ConfigurationError, match="at least 2 measured steps"):
                    run(cfg)
    # two measured steps give two one-step batches per replicate; runs
    # without a time-batch estimate keep their one step
    est = simulate(Hassell(), h_env, SimConfig(seed=2, replicates=2, burn_in=99, horizon=101),
                   (Coordinate(0),))["pooled"]["functional_averages"]["coord_0"]
    assert (est.batches, est.n) == (4, 4) and est.std_error > 0
    one = SimConfig(seed=2, replicates=2, burn_in=0, horizon=1, eta_grid=(0.5,))
    assert simulate(Hassell(), h_env, one)["pooled"]["occupation"]["S_eta=0.5"] in (0.0, 0.5, 1.0)
    hit = ensemble_hit_probability(Hassell(), h_env, one, ExtinctionNeighborhood(10.0), 1)
    assert (hit.mean, hit.n) == (1.0, 2)
    construction = persist.drift_construction(Hassell(), h_env, seed=2)
    assert persist.affine_domination_audit(Hassell(), h_env, construction, one)["steps"] == 1


def _reference_starts(model, cfg, streams, supports):
    """Random interior starts drawn and placed one row at a time."""
    x0 = np.zeros((len(streams), model.k))
    for i, (stream, support) in enumerate(zip(streams, supports)):
        u = stream.uniforms(model.k)[list(support)]
        if isinstance(model, Lottery):
            e = -np.log(u)
            x0[i, list(support)] = 0.01 + (1.0 - 0.01 * len(support)) * (e / e.sum())
        else:
            x0[i, list(support)] = 0.1 + 0.9 * u
    return x0


@pytest.mark.parametrize("model", [Hassell(), RickerCompetition(0.6, 0.5), Lottery(3, 0.2),
                                   Lottery(9, 0.2)], ids=["hassell", "ricker", "lottery3",
                                                          "lottery9"])
def test_random_interior_starts_match_one_row_at_a_time(model):
    # rows of every support interleaved; nine species take numpy's pairwise
    # sum past its 8-term unrolled block
    faces = [s for size in range(1, model.k + 1)
             for s in itertools.combinations(range(model.k), size)][-6:]
    supports = [faces[i % len(faces)] for i in range(40)]
    cfg = SimConfig(seed=5, replicates=len(supports), horizon=10)
    got = _initial_states(model, cfg, [make_stream(5, i) for i in range(40)], supports)
    want = _reference_starts(model, cfg, [make_stream(5, i) for i in range(40)], supports)
    assert np.array_equal(got, want)


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


def _reference_rows(raw, functionals, key="fsums"):
    """Each row's estimates of the sums ``raw[key]`` one call at a time, and
    the first non-finite one in row order, named as the error names it."""
    bmeans = raw[key] / raw["lengths"]
    out, first_bad = [], None
    with np.errstate(all="ignore"):
        for r, label in enumerate(raw["labels"]):
            fa = {f.name: _reference_estimate(raw[key][r, j], bmeans[r, j], raw["n_steps"])
                  for j, f in enumerate(functionals)}
            out.append(fa)
            for name, est in fa.items():
                if first_bad is None and not (np.isfinite(est.mean) and np.isfinite(est.std_error)):
                    first_bad = (f"non-finite estimate of {name} for {label}: "
                                 f"mean {est.mean}, std_error {est.std_error}")
    return out, first_bad


def _reference_pool(raw, functionals):
    """The pooled estimates, each from a contiguous copy of its functional's
    (replicates, batches) sums."""
    out = {}
    for j, f in enumerate(functionals):
        sums = np.ascontiguousarray(raw["fsums"][:, j])
        out[f.name] = _reference_estimate(sums, sums / raw["lengths"], raw["n_steps"])
    return out


def _raw(fsums, n_steps):
    rows = len(fsums)
    return {
        "occ_counts": np.zeros((rows, 0, fsums.shape[-1]), dtype=np.int32),
        "fsums": fsums,
        "floored": np.zeros(rows, dtype=bool),
        "terminal": np.ones((rows, 1)),
        "labels": [f"replicate {r}" for r in range(rows)],
        "n_steps": n_steps,
        "lengths": engine._batch_lengths(n_steps, fsums.shape[-1]),
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
    assert [s["functional_averages"] for s in got["replicates"]] == want
    assert got["pooled"]["functional_averages"] == _reference_pool(_raw(fsums, n_steps), functionals)
    assert want[2]["log_norm_growth"].std_error == 0.0
    assert want[4]["coord_0"].std_error == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("horizon", [2, 301])
def test_row_wise_reduction_matches_per_row_estimates_on_a_run(horizon):
    # horizon 2 leaves two batches of one step; an empty box has zero spread
    # in every row
    cfg = SimConfig(seed=4, replicates=5, burn_in=0, horizon=horizon)
    env = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    functionals = (Coordinate(0), LogPerCapita(0), LogNorm())
    sets = (ExtinctionNeighborhood(0.5), Box(((-2.0, -1.0),)))
    raw = _drive(Hassell(), env, cfg, functionals, sets)
    want, _ = _reference_rows(raw, functionals)
    got = engine._build_result(raw, functionals, sets)
    assert [s["functional_averages"] for s in got["replicates"]] == want
    assert got["pooled"]["functional_averages"] == _reference_pool(raw, functionals)
    for r, s in enumerate(got["replicates"]):
        assert s["terminal_state"] == raw["terminal"][r].tolist()
    # each set's per-batch counts give a time-batch estimate of its
    # occupation, the same as one from per-step indicators
    reference = _reference_drive(Hassell(), env, cfg, functionals, sets)
    assert np.array_equal(raw["occ_counts"], reference["occ_counts"])
    means, ses = engine._batch_estimates(raw["occ_counts"], raw["lengths"], raw["n_steps"],
                                         raw["labels"], [sd.name for sd in sets])
    want, _ = _reference_rows(reference, sets, key="occ_counts")
    assert [[(est.mean, est.std_error) for est in row.values()] for row in want] == [
        list(zip(m, e)) for m, e in zip(means.tolist(), ses.tolist())]
    assert np.all(ses[:, 1] == 0.0) and np.all(means[:, 1] == 0.0)
    assert [s["occupation"]["S_eta=0.5"] for s in got["replicates"]] == means[:, 0].tolist()


def test_lyapunov_mc_matches_the_reference_estimate():
    # 993 measured steps: batches of 49 and 50 steps
    m = Biennial(p=0.4, a=0.5, b1=1.0, b2=1.0)
    env = EnvSpec((Gamma(2.0, 2.0),))
    cfg = SimConfig(seed=3, replicates=3, burn_in=10, horizon=1003)
    gsums, lengths = lyap._mc_batch_sums(m, env, cfg)
    n_steps = cfg.horizon - cfg.burn_in
    want = _reference_estimate(gsums, gsums / lengths, n_steps)
    assert lyap.lyapunov_mc(m, env, cfg) == want
    assert engine._pooled_estimates(gsums[:, None], lengths, n_steps, ["g"]) == {"g": want}
    assert (want.batches, want.n) == (60, 3 * 993)
    # a pool of one row is that row's own time-batch estimate, bit for bit:
    # the one-replicate classifier occupation and face run
    for r in range(cfg.replicates):
        sums = gsums[r:r + 1, None]
        means, ses = engine._batch_estimates(sums, lengths, n_steps, ["replicate"], ["g"])
        assert engine._pooled_estimates(sums, lengths, n_steps, ["g"]) == {
            "g": engine.RateEstimate(means.item(), ses.item(), 20, n_steps)}


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


# ---------------------------------------------------------------------------
# Draw domains, decided once per environment from its exact range

_TINY = float(np.nextafter(0.0, 1.0))  # the least draw of a domain "> 0"


def _no_streams(monkeypatch):
    """Fail any stream a trajectory run or a Monte Carlo sample opens."""
    def no_stream(*args):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(engine, "make_stream", no_stream)


# model, coordinates whose column j draws exactly the domain's least draw,
# j, and the refusal; an environment whose column j draws just below it is
# refused.  Gamma(0.01, 1)'s least draw underflows to exactly 0.
_EDGE_CASES = {
    "hassell_lam": (Hassell(), (Constant(_TINY), Constant(1.0)), 0,
                    "hassell needs lam > 0 and b >= 0"),
    "hassell_b": (Hassell(), (LogNormal(0.3, 0.3), Constant(0.0)), 1,
                  "hassell needs lam > 0 and b >= 0"),
    "beverton_holt_lam": (BevertonHolt(), (Constant(_TINY), Constant(0.0)), 0,
                          "beverton_holt needs lam > 0 and a >= 0"),
    "beverton_holt_a": (BevertonHolt(), (LogNormal(0.3, 0.3), Constant(0.0)), 1,
                        "beverton_holt needs lam > 0 and a >= 0"),
    "ricker_a": (RickerScalar(), (Normal(0.5, 0.3), Constant(0.0)), 1, "ricker needs a >= 0"),
    "lottery": (Lottery(3, 0.3), (LogNormal(1.0, 0.3), Constant(_TINY), LogNormal(1.0, 0.3)), 1,
                "lottery fecundities must be strictly positive"),
    "biennial": (Biennial(0.5, 0.5, 1.0, 1.0), (Gamma(0.01, 1.0),), 0,
                 "biennial seed draws must be nonnegative"),
    "linear_matrix": (LinearMatrix(2), (Constant(0.5), Constant(0.0), Constant(0.5),
                                        Constant(0.5)), 1, "matrix entries must be nonnegative"),
    "affine_chain": (AffineChain(), (Constant(0.5), Constant(0.0)), 1,
                     "affine chain draws must be nonnegative"),
}


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_an_environment_at_the_domain_edge_runs_and_one_just_below_it_is_refused(
        monkeypatch, case):
    # before, every draw block was scanned: a crossing environment ran until
    # its first bad draw, so whether it was refused hung on seed and horizon
    model, coords, j, message = _EDGE_CASES[case]
    cfg = SimConfig(seed=5, replicates=3, burn_in=10, horizon=200)
    edge = model.check_env(EnvSpec(coords))[0, j]
    assert edge == np.broadcast_to(model.low, model.env_dim)[j]
    simulate(model, EnvSpec(coords), cfg)
    below = EnvSpec(coords[:j] + (Constant(float(np.nextafter(edge, -1.0))),) + coords[j + 1:])
    _no_streams(monkeypatch)
    least = re.escape(f"{message} (least draws {below.bounds()[0].tolist()})")
    with pytest.raises(ConfigurationError, match=f"^{least}$"):
        simulate(model, below, cfg)
    if model.sim_mode == "linear":
        with pytest.raises(ConfigurationError, match=f"^{least}$"):
            lyap.lyapunov_mc(model, below, cfg)


@pytest.mark.parametrize("dist", [LogNormal(0.0, 100.0), Normal(0.0, 1e308),
                                  Uniform(-1e308, 1e308), Discrete((1.0, np.inf), (0.5, 0.5))],
                         ids=["lognormal_overflow", "normal_overflow", "uniform_overflow",
                              "discrete_inf"])
def test_an_environment_that_could_draw_a_non_finite_value_is_refused(monkeypatch, dist):
    # RickerCompetition states no domain, so only finiteness is decided;
    # before, exp overflowed to inf on about 0.9% of LogNormal(0, 300)'s
    # draws and the run failed later on a non-finite state
    _no_streams(monkeypatch)
    env = EnvSpec((Normal(1.0, 0.3), dist))
    with pytest.raises(ConfigurationError, match=r"^draws must be finite \(least, greatest \[\["):
        simulate(RickerCompetition(0.6, 0.5), env, SimConfig(seed=5, horizon=200))
