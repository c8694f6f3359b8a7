"""Criterion checkers: classification, invasion, drift, cyclic conditions."""

import math
import re

import numpy as np
import pytest

from stochpop import engine, persist
from stochpop.engine import (
    _CHUNK,
    ExtinctionNeighborhood,
    LogPerCapita,
    RateEstimate,
    SimConfig,
    _build_result,
    _drive,
    _iid_estimate,
    _initial_states,
    simulate,
)
from stochpop.env import (Constant, Discrete, EnvSpec, Gamma, LogNormal, Normal, Uniform,
                          make_stream, sample_block)
from stochpop.errors import ConfigurationError, FaceDegenerateError, NumericError
from stochpop.models import (
    BevertonHolt,
    Biennial,
    Hassell,
    Lottery,
    Model,
    RickerCompetition,
    RickerScalar,
    RpsLottery,
)
from stochpop.persist import (
    _BASE_FACE,
    DriftConstruction,
    _call,
    _face_code,
    affine_domination_audit,
    boundary_invasion_report,
    drift_bounded_check,
    drift_construction,
    find_persistence_weights,
    invasion_rate,
    lottery_taylor_rate,
    mean_percapita_growth_at,
    rps_condition,
    scalar_classify,
)
from stochpop.lyap import lyapunov_mc
from test_engine import _no_streams


# ---------------------------------------------------------------------------
# point growth rates


def test_hassell_growth_at_zero_is_mean_log_fitness():
    env = EnvSpec((LogNormal(0.2, 0.3), Uniform(0.5, 1.5)))
    est = mean_percapita_growth_at(Hassell(), env, np.zeros(1), 0, 20_000, seed=1)
    assert abs(est.mean - 0.2) < 3 * est.std_error


def test_hassell_growth_identity_in_density():
    # E[log f(x)] = E[log lam] - E[b] log(1 + x)
    env = EnvSpec((LogNormal(0.2, 0.3), Uniform(0.5, 1.5)))
    est = mean_percapita_growth_at(Hassell(), env, np.array([3.0]), 0, 20_000, seed=2)
    assert abs(est.mean - (0.2 - 1.0 * math.log(4.0))) < 3 * est.std_error


def test_competition_growth_at_origin_is_mean_rate():
    env = EnvSpec((Normal(1.0, 0.3), Normal(0.8, 0.3)))
    est = mean_percapita_growth_at(RickerCompetition(0.6, 0.5), env, np.zeros(2), 0, 20_000, seed=3)
    assert abs(est.mean - 1.0) < 3 * est.std_error


def test_constant_environment_growth_is_exact():
    env = EnvSpec((Constant(2.0), Constant(1.0)))
    est = mean_percapita_growth_at(Hassell(), env, np.zeros(1), 0, 100, seed=4)
    assert est.mean == pytest.approx(math.log(2.0), abs=1e-15)
    assert est.std_error == 0.0


# Fewer than two draws give no standard error; before they were refused, a
# one-sample Taylor rate came back with standard error 0.0, which the 3-SE
# rule reads as exact
_ONE_DRAW_ESTIMATES = {
    "mean_percapita_growth_at": lambda: mean_percapita_growth_at(
        Hassell(), EnvSpec((LogNormal(0.2, 0.3), Uniform(0.5, 1.5))), [1.0], 0, 1, seed=1),
    "lottery_taylor_rate": lambda: lottery_taylor_rate(
        EnvSpec((LogNormal(1.0, 0.3),) * 3), 0.05, np.eye(3)[:1], 1, seed=1),
}


@pytest.mark.parametrize("case", list(_ONE_DRAW_ESTIMATES))
def test_estimate_from_fewer_than_two_draws_is_refused(case):
    with pytest.raises(ConfigurationError, match="need at least 2 draws"):
        _ONE_DRAW_ESTIMATES[case]()


# ---------------------------------------------------------------------------
# invasion rates


def test_rps_vertex_invasion_rates_are_exact_for_constants():
    env = EnvSpec((Constant(3.0), Constant(2.0), Constant(1.0)))
    m = RpsLottery(0.1)
    cfg = SimConfig(seed=5, replicates=1, burn_in=100, horizon=2100)
    up = invasion_rate(m, env, cfg, invader=2, resident_support=(0,))
    down = invasion_rate(m, env, cfg, invader=1, resident_support=(0,))
    assert up.mean == pytest.approx(math.log(1.05), abs=1e-12)
    assert up.std_error == 0.0
    assert down.mean == pytest.approx(math.log(0.95), abs=1e-12)


def test_lottery_exchangeable_invasion_symmetry():
    env = EnvSpec((LogNormal(1.0, 0.3), LogNormal(1.0, 0.3)))
    m = Lottery(2, 0.3)
    cfg = SimConfig(seed=6, replicates=2, burn_in=500, horizon=30500)
    r12 = invasion_rate(m, env, cfg, invader=0, resident_support=(1,))
    r21 = invasion_rate(m, env, cfg, invader=1, resident_support=(0,))
    assert abs(r12.mean - r21.mean) < 3 * math.hypot(r12.std_error, r21.std_error)
    assert r12.mean > 0 and r21.mean > 0


def test_invasion_rate_validates_support():
    env = EnvSpec((Normal(1.0, 0.3), Normal(0.8, 0.3)))
    m = RickerCompetition(0.6, 0.5)
    cfg = SimConfig(seed=1, horizon=100)
    with pytest.raises(ConfigurationError):
        invasion_rate(m, env, cfg, invader=0, resident_support=(0,))
    with pytest.raises(ConfigurationError):
        invasion_rate(m, env, cfg, invader=3, resident_support=(1,))


@pytest.mark.parametrize("support, message", [
    ((), "face support must be nonempty"),
    ((-1,), r"face support \(-1,\) out of range for ricker_competition"),
    ((0, 2), r"face support \(0, 2\) out of range for ricker_competition"),
], ids=["empty", "negative", "out_of_range"])
def test_invasion_rate_refuses_a_bad_support_before_any_stream_opens(monkeypatch, support,
                                                                     message):
    def no_stream(*args):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(engine, "make_stream", no_stream)
    monkeypatch.setattr(persist, "make_stream", no_stream)
    env = EnvSpec((Normal(1.0, 0.3), Normal(0.8, 0.3)))
    cfg = SimConfig(seed=1, horizon=100)
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        invasion_rate(RickerCompetition(0.6, 0.5), env, cfg, invader=1, resident_support=support)


def test_degenerate_face_raises():
    # the cyclic two-species face collapses to a vertex, so its resident
    # community loses a member and the invasion rate is ill-posed
    env = EnvSpec((Constant(3.0), Constant(2.0), Constant(1.0)))
    m = RpsLottery(0.5)
    cfg = SimConfig(seed=7, replicates=1, burn_in=100, horizon=5100)
    with pytest.raises(FaceDegenerateError):
        invasion_rate(m, env, cfg, invader=2, resident_support=(0, 1))


def test_face_stream_field_overflow_raises_before_any_stream(monkeypatch):
    # replicate 2^20 of one face would take the first stream of the next face
    def no_stream(*args):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(engine, "make_stream", no_stream)
    monkeypatch.setattr(persist, "make_stream", no_stream)
    # no stream id is even packed, so a missing check fails at the first row
    monkeypatch.setattr(persist, "_face_code", no_stream)
    m = Lottery(3, 0.3)
    env = EnvSpec((LogNormal(1.0, 0.3),) * 3)
    cfg = SimConfig(seed=1, replicates=2**20 + 1, burn_in=0, horizon=10)
    with pytest.raises(ConfigurationError, match="replicates per face"):
        boundary_invasion_report(m, env, cfg)
    with pytest.raises(ConfigurationError, match="replicates per face"):
        invasion_rate(m, env, cfg, invader=2, resident_support=(0, 1))


# ---------------------------------------------------------------------------
# scalar classification


def _hassell_env(log_mean):
    return EnvSpec((LogNormal(log_mean, 0.3), Constant(1.0)))


def test_classify_extinction():
    cfg = SimConfig(seed=8, replicates=20, burn_in=0, horizon=5000, eta_grid=(0.01,))
    v = scalar_classify(Hassell(), _hassell_env(-0.2), cfg)
    assert v.kind == "extinction"
    assert v.decision_margin > 3
    assert v.evidence["extinct_fraction"].mean == 1.0


def test_classify_persistent():
    cfg = SimConfig(seed=9, replicates=5, burn_in=2000, horizon=22000, eta_grid=(0.01,))
    v = scalar_classify(Hassell(), _hassell_env(0.3), cfg)
    assert v.kind == "persistent"
    assert v.evidence["lambda_inf"].mean == -np.inf
    assert v.evidence["occupation[S_eta=0.01]"].mean <= 0.05


def test_classify_explosion_without_density_dependence():
    env = EnvSpec((Constant(2.0), Constant(0.0)))
    cfg = SimConfig(seed=10, replicates=2, burn_in=10, horizon=200)
    v = scalar_classify(Hassell(), env, cfg)
    assert v.kind == "explosion"


def test_classify_inconclusive_at_boundary():
    cfg = SimConfig(seed=11, replicates=2, burn_in=100, horizon=2100)
    v = scalar_classify(Hassell(), _hassell_env(0.0), cfg)
    assert v.kind == "inconclusive"


def test_one_replicate_classify_takes_its_occupation_se_from_time_batches():
    # one replicate has no spread between replicates; its occupation evidence
    # used to read SE 0.0 with n 1
    env = _hassell_env(-0.2)
    cfg = SimConfig(seed=42, replicates=1, burn_in=0, horizon=3000, eta_grid=(0.01,))
    got = scalar_classify(Hassell(), env, cfg).evidence["occupation[S_eta=0.01]"]
    near = ExtinctionNeighborhood(0.01)
    assert got.mean == simulate(Hassell(), env, cfg).replicates[0].occupation[near.name]
    assert (got.batches, got.n) == (20, 3000) and got.std_error > 0.0


def test_classify_occupation_over_replicates_is_an_iid_estimate():
    # R replicate occupations are R iid values, so R batches of one value
    # each; the evidence used to read batches 1
    env = _hassell_env(0.05)
    cfg = SimConfig(seed=42, replicates=3, burn_in=0, horizon=3000, eta_grid=(0.2,))
    got = scalar_classify(Hassell(), env, cfg).evidence["occupation[S_eta=0.2]"]
    occs = [s.occupation["S_eta=0.2"] for s in simulate(Hassell(), env, cfg).replicates]
    assert got == _iid_estimate(np.array(occs))
    assert (got.batches, got.n) == (3, 3) and got.std_error > 0.0


def test_one_replicate_classify_occupation_keeps_its_bits():
    # the estimate and SE that an indicator functional's 20 time batches
    # gave, now from the set's own per-batch counts: 613 steps make batches
    # of 30 and 31 steps, and the smallest eta of the grid is the set
    cfg = SimConfig(seed=7, replicates=1, burn_in=0, horizon=613, eta_grid=(0.5, 0.2))
    got = scalar_classify(Hassell(), _hassell_env(0.05), cfg).evidence
    assert got["occupation[S_eta=0.2]"] == RateEstimate(0.9738988580750407, 0.017146532185067436,
                                                        20, 613)


def test_classify_refuses_a_negative_ricker_density_coefficient():
    # before, the stated limit was taken as the rate at zero and the
    # confirming run exited 3 on a non-finite state at step 10..19
    env = EnvSpec((Normal(0.0, 0.3), Constant(-0.5)))
    with pytest.raises(ConfigurationError, match=re.escape("ricker needs a >= 0 (least draws [")):
        scalar_classify(RickerScalar(), env, SimConfig(seed=1, replicates=2, horizon=200))


def test_classify_rejects_non_scalar():
    env = EnvSpec((Normal(1.0, 0.3), Normal(0.8, 0.3)))
    with pytest.raises(ConfigurationError):
        scalar_classify(RickerCompetition(0.6, 0.5), env, SimConfig(seed=1, horizon=100))


class _NoStatedLimit(Model):
    """A scalar per-capita model, x' = x exp(r - x), that states no
    large-density limit."""

    name = "no_stated_limit"
    k = 1
    env_dim = 1
    sim_mode = "log_mult"
    extinction = RickerScalar.extinction

    def log_percapita(self, x, w):
        return w[..., :1] - x


_RANDOM_B = Uniform(0.5, 1.5)


@pytest.mark.parametrize(
    "model,envspec,want",
    [
        (Hassell(), EnvSpec((LogNormal(0.3, 0.3), _RANDOM_B)), -np.inf),
        (RickerScalar(), EnvSpec((Normal(0.5, 0.3), _RANDOM_B)), -np.inf),
        (Hassell(), EnvSpec((LogNormal(0.3, 0.3), Constant(0.0))), "lambda_0"),
        (BevertonHolt(s=0.3), EnvSpec((LogNormal(0.4, 0.2), _RANDOM_B)), np.log(0.3)),
        (BevertonHolt(s=0.0), EnvSpec((LogNormal(0.4, 0.2), _RANDOM_B)), -np.inf),
        (_NoStatedLimit(), EnvSpec((Normal(0.5, 0.3),)), None),
    ],
    ids=["hassell", "ricker", "hassell-b0", "bh-survivors", "bh-no-survivors", "no-stated-limit"],
)
def test_classifier_reads_the_large_density_limit_each_model_states(model, envspec, want):
    cfg = SimConfig(seed=13, replicates=2, burn_in=0, horizon=200)
    if want is None:
        # no sampled stand-in for the limit: the model is refused
        with pytest.raises(ConfigurationError, match="no_stated_limit states no large-density limit"):
            scalar_classify(model, envspec, cfg)
        return
    evidence = scalar_classify(model, envspec, cfg).evidence
    if want == "lambda_0":
        assert evidence["lambda_inf"] == evidence["lambda_0"]
    else:
        assert evidence["lambda_inf"].mean == want
        assert evidence["lambda_inf"].std_error == 0.0


@pytest.mark.parametrize(
    "model,envspec,expected",
    [
        (Hassell(), _hassell_env(-0.25), "extinction"),
        (Hassell(), _hassell_env(0.4), "persistent"),
        (RickerScalar(), EnvSpec((Normal(-0.3, 0.3), Constant(1.0))), "extinction"),
        (RickerScalar(), EnvSpec((Normal(0.8, 0.3), Constant(1.0))), "persistent"),
        (BevertonHolt(s=0.3), EnvSpec((LogNormal(0.4, 0.2), Constant(1.0))), "persistent"),
    ],
    ids=["hassell-ext", "hassell-pers", "ricker-ext", "ricker-pers", "bh-pers"],
)
def test_classifier_agrees_with_long_run_simulation(model, envspec, expected):
    cfg = SimConfig(seed=12, replicates=10, burn_in=2000, horizon=22000, eta_grid=(0.01,))
    v = scalar_classify(model, envspec, cfg)
    assert v.kind == expected
    if expected == "extinction":
        assert v.evidence["extinct_fraction"].mean == 1.0
    else:
        assert v.evidence["extinct_fraction"].mean == 0.0
        assert v.evidence["occupation[S_eta=0.01]"].mean < 0.05


# ---------------------------------------------------------------------------
# boundary reports and weights


def test_competition_boundary_report_persistent():
    env = EnvSpec((Normal(1.0, 0.3), Normal(0.8, 0.3)))
    m = RickerCompetition(0.6, 0.5)
    cfg = SimConfig(seed=13, replicates=2, burn_in=2000, horizon=32000)
    table, verdict = boundary_invasion_report(m, env, cfg)
    assert verdict.kind == "persistent"
    assert not table.not_permanent
    rates = {row.support: row.rates for row in table.rows}
    assert abs(rates[(1,)][0].mean - 0.52) < 3 * rates[(1,)][0].std_error
    assert abs(rates[(0,)][1].mean - 0.30) < 3 * rates[(0,)][1].std_error
    # supported species hover at zero average log growth
    for row in table.rows:
        for i in row.support:
            assert abs(row.rates[i].mean) < 3 * row.rates[i].std_error
    weights = find_persistence_weights(table)
    assert weights is not None and np.all(weights > 0)


def test_deterministic_lottery_dominance_flags_not_permanent():
    env = EnvSpec((Constant(3.0), Constant(2.0)))
    m = Lottery(2, 0.2)
    cfg = SimConfig(seed=14, replicates=1, burn_in=100, horizon=2100)
    table, verdict = boundary_invasion_report(m, env, cfg)
    assert table.not_permanent
    assert verdict.kind == "inconclusive"
    assert find_persistence_weights(table) is None


def test_degenerate_face_blocks_permanence_claim():
    # species 2 cannot persist alone, so its face row degenerates and the
    # report refuses to call the system permanent
    env = EnvSpec((Normal(1.0, 0.3), Normal(-0.5, 0.3)))
    m = RickerCompetition(0.3, 0.3)
    cfg = SimConfig(seed=27, replicates=1, burn_in=500, horizon=5500)
    table, verdict = boundary_invasion_report(m, env, cfg)
    degenerate = [row for row in table.rows if row.degenerate]
    assert degenerate and degenerate[0].support == (1,)
    assert verdict.kind == "inconclusive"
    assert table.annotations


@pytest.mark.parametrize(
    "model,env,cfg",
    [
        (
            Lottery(3, 0.1),
            EnvSpec((LogNormal(1.0, 0.3),) * 3),
            SimConfig(seed=28, replicates=2, burn_in=100, horizon=1100),
        ),
        (
            RickerCompetition(0.3, 0.3),
            EnvSpec((Normal(1.0, 0.3), Normal(-0.5, 0.3))),
            SimConfig(seed=27, replicates=1, burn_in=500, horizon=5500),
        ),
    ],
    ids=["lottery", "ricker-degenerate"],
)
def test_boundary_report_rows_match_separate_face_runs(model, env, cfg):
    # the report runs all faces as rows of one batch of the base model; each
    # face must reproduce a batch of its own rows alone, on its own streams
    table, _ = boundary_invasion_report(model, env, cfg)
    functionals = tuple(LogPerCapita(i) for i in range(model.k))
    assert [row.support for row in table.rows]
    for row in table.rows:
        base = _BASE_FACE + (_face_code(row.support) << 20)
        rows = [(base + r, row.support, f"replicate {r}") for r in range(cfg.replicates)]
        raw = _drive(model, env, cfg, functionals, (), rows=rows)
        ref = _build_result(raw, functionals, ())
        assert bool(row.degenerate) == any(s.extinction_flag for s in ref.replicates)
        if not row.degenerate:
            assert row.rates == {
                i: ref.pooled.functional_averages[f.name] for i, f in enumerate(functionals)
            }


def test_face_runs_keep_their_checks():
    with pytest.raises(ConfigurationError, match="per-capita"):
        boundary_invasion_report(
            Biennial(0.5, 0.5, 1.0, 1.0), EnvSpec((Gamma(2.0, 2.0),)), SimConfig(seed=1, horizon=100)
        )
    env = EnvSpec((LogNormal(1.0, 0.3),) * 3)
    off_face = SimConfig(seed=1, horizon=100, initial_state=(0.5, 0.5, 0.0))
    with pytest.raises(ConfigurationError, match="vanish outside the face support"):
        invasion_rate(Lottery(3, 0.1), env, off_face, invader=2, resident_support=(0,))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_face_numeric_error_names_face_and_replicate():
    env = EnvSpec((Constant(1e308), Constant(1e308)))
    cfg = SimConfig(seed=1, replicates=2, horizon=100)
    with pytest.raises(NumericError, match=r"face \(0,\) replicate 0 "):
        boundary_invasion_report(RickerCompetition(0.3, 0.3), env, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_face_pool_whose_estimate_overflows_names_its_face():
    # a rare draw of 1500 sends species 0 to the state cap, and the next
    # step's log f of about -8e307 floors it: every batch sum stays finite,
    # so no row is named, but the variance of the batch means overflows.
    # Replicate 0 floored, so the face is degenerate, but its pool is made
    # before the report reads that, and the run stops here
    env = EnvSpec((Discrete((1.0, 1500.0), (0.999, 0.001)), Constant(1.0)))
    cfg = SimConfig(seed=2, replicates=2, horizon=2000)
    with pytest.raises(NumericError, match=r"^non-finite estimate of log_percapita_0 for the "
                                           r"pooled replicates of face \(0,\): mean -2\.05"):
        boundary_invasion_report(RickerCompetition(0.3, 0.3), env, cfg)


def test_single_species_boundary_report_is_refused():
    # no proper face exists, so there is nothing to invade and no verdict
    env = EnvSpec((LogNormal(-0.5, 0.3), Constant(1.0)))
    with pytest.raises(ConfigurationError, match="no boundary faces"):
        boundary_invasion_report(Hassell(), env, SimConfig(seed=1, horizon=1000))


def test_rps_boundary_rows_are_analytic_vertices():
    env = EnvSpec((Constant(3.2), Constant(2.0), Constant(1.0)))
    m = RpsLottery(0.1)
    cfg = SimConfig(seed=15, replicates=1, burn_in=100, horizon=5100)
    table, verdict = boundary_invasion_report(m, env, cfg)
    assert verdict.kind == "persistent"
    assert [row.measure for row in table.rows] == ["analytic_vertex"] * 3
    weights = find_persistence_weights(table)
    assert weights is not None
    assert np.allclose(weights, 1.0 / 3.0, atol=0.02)


def test_weights_infeasible_when_a_face_rejects_everyone():
    env = EnvSpec((Constant(3.0), Constant(2.0), Constant(1.0)))
    m = RpsLottery(0.5)  # exact condition fails at this turnover
    cfg = SimConfig(seed=16, replicates=1, burn_in=100, horizon=2100)
    table, verdict = boundary_invasion_report(m, env, cfg)
    assert find_persistence_weights(table) is None


def test_single_species_weights_trivial():
    from stochpop.engine import RateEstimate
    from stochpop.persist import FaceRow, InvasionTable

    row = FaceRow(support=(), measure="analytic_vertex", rates={0: RateEstimate(0.4, 0.01, 10, 100)})
    assert find_persistence_weights(InvasionTable(rows=[row]))[0] == 1.0
    row_neg = FaceRow(support=(), measure="analytic_vertex", rates={0: RateEstimate(-0.4, 0.01, 10, 100)})
    assert find_persistence_weights(InvasionTable(rows=[row_neg])) is None


# ---------------------------------------------------------------------------
# drift checks


def test_hassell_drift_construction_passes_audit():
    env = _hassell_env(0.3)
    m = Hassell()
    con = drift_construction(m, env, seed=17)
    report = drift_bounded_check(m, env, con, 100_000, seed=17)
    assert report.violations == 0
    assert report.hypotheses_hold
    assert report.e_log_alpha.mean + 3 * report.e_log_alpha.std_error < 0


def test_contraction_scale_draws_its_block_once(monkeypatch):
    # E[log f(M)] = 3 - log(1 + M) first clears -0.1 at M = 32, after six
    # scales; each used to redraw the same block from a reopened stream
    env = EnvSpec((LogNormal(3.0, 0.3), Constant(1.0)))
    w = sample_block(env, make_stream(5, persist._SCALE_MC), 4000)
    want = 1.0
    while True:
        logf = Hassell().log_percapita(np.full((4000, 1), want), w)[:, 0]
        if logf.mean() + 3 * logf.std(ddof=1) / np.sqrt(4000) <= -0.1:
            break
        want *= 2.0
    opened = []

    def counting(seed, replicate_id=0):
        opened.append((seed, replicate_id))
        return make_stream(seed, replicate_id)

    monkeypatch.setattr(persist, "make_stream", counting)
    con = drift_construction(Hassell(), env, seed=5, margin=0.1)
    assert con.params["M"] == want == 32.0
    assert opened == [(5, persist._SCALE_MC)]


def test_competition_drift_construction_passes_audit():
    env = EnvSpec((Normal(1.0, 0.3), Normal(0.8, 0.3)))
    m = RickerCompetition(0.6, 0.5)
    con = drift_construction(m, env, seed=18)
    report = drift_bounded_check(m, env, con, 50_000, seed=18)
    assert report.violations == 0
    assert report.hypotheses_hold


def test_drift_verdict_fails_for_unit_alpha():
    env = _hassell_env(0.3)
    m = Hassell()
    con = drift_construction(m, env, seed=19)
    rigged = DriftConstruction(
        name="unit_alpha",
        v=con.v,
        alpha=lambda w: np.ones(w.shape[:-1]),
        beta=con.beta,
        params={},
    )
    report = drift_bounded_check(m, env, rigged, 10_000, seed=19)
    assert report.violations == 0  # alpha = 1 only weakens the bound
    assert not report.hypotheses_hold  # E[log alpha] = 0 is not negative


def test_drift_audit_reports_counterexample():
    env = _hassell_env(0.3)
    m = Hassell()
    con = drift_construction(m, env, seed=20)
    broken = DriftConstruction(
        name="no_beta",
        v=con.v,
        alpha=con.alpha,
        beta=lambda w: np.zeros(w.shape[:-1]),
        params={},
    )
    report = drift_bounded_check(m, env, broken, 10_000, seed=20)
    assert report.violations > 0
    assert report.counterexample is not None
    assert report.counterexample["lhs"] > report.counterexample["rhs"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_dominating_chain_stays_above_model(seed):
    env = _hassell_env(0.3)
    m = Hassell()
    con = drift_construction(m, env, seed=seed)
    audit = affine_domination_audit(m, env, con, SimConfig(seed=seed, replicates=3, horizon=10_000))
    assert audit["ok"]
    assert audit["min_slack"] >= 0.0


def _reference_domination_audit(model, envspec, construction, cfg):
    """The audit with every draw of the horizon held at once."""
    streams = [make_stream(cfg.seed, r) for r in range(cfg.replicates)]
    x = _initial_states(model, cfg, streams, [tuple(range(model.k))] * cfg.replicates)
    z = construction.v(x).copy()
    draws = np.empty((cfg.horizon, cfg.replicates, model.env_dim))
    for i, stream in enumerate(streams):
        draws[:, i, :] = sample_block(envspec, stream, cfg.horizon)
    min_slack = np.inf
    for t in range(cfg.horizon):
        w = draws[t]
        x = model.step(x, w)
        z = construction.alpha(w) * z + construction.beta(w)
        min_slack = min(min_slack, float((z - construction.v(x)).min()))
    return {"ok": min_slack >= 0.0, "min_slack": min_slack, "steps": cfg.horizon}


def test_chunked_domination_audit_matches_all_at_once_reference():
    env = EnvSpec((Normal(1.0, 0.3), Normal(0.8, 0.3)))
    m = RickerCompetition(0.6, 0.5)
    con = drift_construction(m, env, seed=18)
    # a chain that loses 1e-3 a step has its smallest slack at the last
    # step, so every draw of the horizon moves min_slack
    sinking = DriftConstruction(name="sinking", v=con.v,
                                alpha=lambda w: np.ones(w.shape[:-1]),
                                beta=lambda w: np.full(w.shape[:-1], -1e-3), params={})
    cfg = SimConfig(seed=18, replicates=3, horizon=5000)
    assert cfg.horizon > 2 * _CHUNK and cfg.horizon % _CHUNK
    for construction in (con, sinking):
        audit = affine_domination_audit(m, env, construction, cfg)
        assert audit == _reference_domination_audit(m, env, construction, cfg)


# ---------------------------------------------------------------------------
# cyclic lottery conditions


def test_rps_condition_exact_values():
    env = EnvSpec((Constant(3.2), Constant(2.0), Constant(1.0)))
    rep = rps_condition(env, 0.1, 100)
    expected = math.log(1.06) + math.log(0.95)
    assert rep["exact_lhs"].mean == pytest.approx(expected, abs=1e-12)
    assert rep["exact_lhs"].std_error == 0.0
    assert rep["exact_verdict"] == "persists"


def test_rps_condition_fails_at_high_turnover():
    env = EnvSpec((Constant(3.0), Constant(2.0), Constant(1.0)))
    rep = rps_condition(env, 0.5, 100)
    assert rep["exact_lhs"].mean == pytest.approx(math.log(1.25) + math.log(0.75), abs=1e-12)
    assert rep["exact_verdict"] == "fails"


def test_rps_small_d_boundary_is_inconclusive():
    env = EnvSpec((Constant(3.0), Constant(2.0), Constant(1.0)))
    rep = rps_condition(env, 0.1, 100)
    assert rep["small_d_lhs"].mean == pytest.approx(0.0, abs=1e-12)
    assert rep["small_d_verdict"] == "inconclusive"


@pytest.mark.parametrize("mean, se, at, want", [
    (1e-300, 0.0, 0.0, 1),  # SE 0: any positive mean clears zero
    (-1e-300, 0.0, 0.0, -1),
    (0.0, 0.0, 0.0, 0),
    (1.5, 0.5, 0.0, 0),  # exactly 3 SE above zero does not clear it
    (-1.5, 0.5, 0.0, 0),
    (1.0, 0.25, 0.125, 1),
    (1.0, 0.25, 0.25, 0),  # mean - 3 SE == at
    (1.0, 0.25, 1.75, 0),  # mean + 3 SE == at
    (1.0, 0.25, 2.0, -1),
    (-1.0, 0.25, -2.0, 1),
])
def test_call_is_the_strict_3se_rule(mean, se, at, want):
    assert _call(engine.RateEstimate(mean, se, 2, 2), at) == want


@pytest.mark.parametrize("fecundities, d, verdicts", [
    ((3.2, 2.0, 1.0), 0.1, ("persists", "persists")),
    ((3.0, 2.0, 1.0), 0.5, ("fails", "inconclusive")),
])
def test_rps_verdicts_name_the_call(fecundities, d, verdicts):
    rep = rps_condition(EnvSpec(tuple(Constant(v) for v in fecundities)), d, 100)
    assert (rep["exact_verdict"], rep["small_d_verdict"]) == verdicts


def test_rps_condition_validates_ordering():
    env = EnvSpec((Constant(1.0), Constant(2.0), Constant(3.0)))
    with pytest.raises(ConfigurationError):
        rps_condition(env, 0.1, 10)


# ---------------------------------------------------------------------------
# first-order lottery rates


def _vertex_samples(k, vertex, n=4000):
    x = np.zeros((n, k))
    x[:, vertex] = 1.0
    return x


def test_taylor_rate_positive_for_missing_species_under_noise():
    env = EnvSpec((LogNormal(1.0, 0.3),) * 3)
    for invader in (1, 2):
        est = lottery_taylor_rate(env, 0.05, _vertex_samples(3, 0), invader, seed=23)
        assert est.mean - 3 * est.std_error > 0


def test_taylor_rate_zero_without_noise():
    env = EnvSpec((Constant(2.0),) * 3)
    est = lottery_taylor_rate(env, 0.05, _vertex_samples(3, 0), 1, seed=24)
    assert est.mean == 0.0
    assert est.std_error == 0.0


@pytest.mark.parametrize("d", [0.02, 0.05])
def test_taylor_rate_agrees_with_exact_invasion_rate(d):
    env = EnvSpec((LogNormal(1.0, 0.3),) * 3)
    m = Lottery(3, d)
    cfg = SimConfig(seed=25, replicates=1, burn_in=1000, horizon=31000)
    exact = invasion_rate(m, env, cfg, invader=1, resident_support=(0,))
    # the terminal states of 3000 runs on the resident face (0,), each the
    # vertex (1, 0, 0)
    face = simulate(m, env, SimConfig(seed=25, replicates=3000, horizon=100,
                                      initial_state=(1.0, 0.0, 0.0)))
    samples = np.stack([s.terminal_state for s in face.replicates])
    taylor = lottery_taylor_rate(env, d, samples, 1, seed=25)
    tol = max(3 * math.hypot(exact.std_error, taylor.std_error), 0.25 * d * d)
    assert abs(exact.mean - taylor.mean) < tol


def test_taylor_rate_warns_for_large_turnover():
    env = EnvSpec((Constant(2.0),) * 3)
    with pytest.warns(UserWarning):
        lottery_taylor_rate(env, 0.5, _vertex_samples(3, 0), 1, seed=26)


@pytest.mark.parametrize("invader, samples, message", [
    (-1, _vertex_samples(3, 0, n=50), "invader -1 out of range for 3 species"),
    (3, _vertex_samples(3, 0, n=50), "invader 3 out of range for 3 species"),
    (1, _vertex_samples(2, 0, n=50), r"with 3 columns, got shape \(50, 2\)"),
], ids=["invader_-1", "invader_3", "two_columns"])
def test_taylor_rate_refuses_a_bad_invader_or_sample_width(monkeypatch, invader, samples,
                                                           message):
    # before, -1 returned species 2's rate, 3 raised IndexError and two
    # columns a numpy broadcast ValueError
    def no_stream(*args):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(persist, "make_stream", no_stream)
    env = EnvSpec((LogNormal(1.0, 0.3),) * 3)
    with pytest.raises(ConfigurationError, match=message):
        lottery_taylor_rate(env, 0.05, samples, invader, seed=1)


# ---------------------------------------------------------------------------
# Draw domains, decided before any stream opens


def _refusing_runs():
    """Each consumer of draws on an environment that can leave the model's
    domain, and the refusal's text; before, each sample block and each chunk
    was scanned and the text named the first bad sample or step."""
    hassell = Hassell()
    bad_h = EnvSpec((Normal(2.0, 0.3), Constant(1.0)))  # least lam -0.488
    construction = drift_construction(hassell, EnvSpec((LogNormal(0.3, 0.3), Constant(1.0))),
                                      seed=3)
    bad_rps = EnvSpec((Uniform(1.5, 3.0), Constant(2.0), Constant(1.0)))
    bad_lot = EnvSpec((LogNormal(1.0, 0.3), Normal(2.0, 0.3), LogNormal(1.0, 0.3)))
    cfg = SimConfig(seed=3, replicates=3, horizon=200)
    hassell_msg = "hassell needs lam > 0 and b >= 0"
    return {
        "simulate": (lambda: simulate(hassell, bad_h, cfg), hassell_msg),
        "lyapunov_mc": (lambda: lyapunov_mc(Biennial(0.5, 0.5, 1.0, 1.0),
                                            EnvSpec((Normal(2.0, 0.3),)), cfg),
                        "biennial seed draws must be nonnegative"),
        "mean_percapita_growth_at": (
            lambda: mean_percapita_growth_at(hassell, bad_h, [1.0], 0, 50, seed=3), hassell_msg),
        "scalar_classify": (lambda: scalar_classify(hassell, bad_h, cfg), hassell_msg),
        "drift_construction": (lambda: drift_construction(hassell, bad_h, seed=3), hassell_msg),
        "drift_bounded_check": (
            lambda: drift_bounded_check(hassell, bad_h, construction, 100, seed=3), hassell_msg),
        "affine_domination_audit": (
            lambda: affine_domination_audit(hassell, bad_h, construction, cfg), hassell_msg),
        "rps_condition": (lambda: rps_condition(bad_rps, 0.1, 50, seed=3),
                          "draws must satisfy alpha > beta > gamma > 0"),
        "rps_vertex_rows": (lambda: boundary_invasion_report(RpsLottery(0.1), bad_rps, cfg),
                            "draws must satisfy alpha > beta > gamma > 0"),
        "lottery_taylor_rate": (
            lambda: lottery_taylor_rate(bad_lot, 0.05, np.eye(3)[[0] * 50], 1, seed=3),
            "lottery fecundities must be strictly positive"),
    }


@pytest.mark.parametrize("case", list(_refusing_runs()))
def test_an_environment_outside_the_domain_is_refused_before_any_stream_opens(monkeypatch,
                                                                             case):
    run, message = _refusing_runs()[case]
    _no_streams(monkeypatch)
    with pytest.raises(ConfigurationError, match="^" + re.escape(f"{message} (least draws [")):
        run()
