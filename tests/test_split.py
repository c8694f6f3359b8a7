"""A wide batch's rows run in slices, one per usable CPU, the first in the
calling process and each other in a forked child: the slices give the bits
of the one batch, raise the error the one batch raises, and leave no child
behind.  That holds for ``_drive`` and for ``lyap._mc_batch_sums``.  The
split is forced at small sizes by lowering ``engine._MIN_SLICE_ROWS`` (or
``lyap._MIN_SLICE_ROW_STEPS``) and faking ``engine._usable_cpus``.  These
slices are the package's only parallelism: nothing it runs starts a thread."""

import os
import pickle
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest

from stochpop import engine, lyap, persist
from stochpop.cli import run_config
from stochpop.engine import (
    Coordinate,
    ExtinctionNeighborhood,
    LogNorm,
    LogPerCapita,
    SimConfig,
    _drive,
    default_sets,
    simulate,
    terminal_states,
)
from stochpop.env import Constant, Discrete, EnvSpec, Gamma, LogNormal, Normal, Uniform
from stochpop.errors import NumericError, StochpopError
from stochpop.models import Biennial, Hassell, LinearMatrix, Lottery, RickerCompetition

pytestmark = pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
                                reason="the split needs os.fork and CPU affinity")


def _split(monkeypatch, cpus, min_rows=1):
    """Cut every batch into up to ``cpus`` slices of at least ``min_rows``
    rows each (a lyap slice of at least one row), and record each fork made
    from this process."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(engine, "_MIN_SLICE_ROWS", min_rows)
    monkeypatch.setattr(lyap, "_MIN_SLICE_ROW_STEPS", 1)
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _inline(monkeypatch):
    monkeypatch.setattr(engine, "_MIN_SLICE_ROWS", 1 << 30)
    monkeypatch.setattr(lyap, "_MIN_SLICE_ROW_STEPS", 1 << 60)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# model, environment and functionals: every sim_mode (log_mult, simplex,
# linear), every functional kind, rows that floor by step 400 or not, and a
# gamma coordinate
_CASES = {
    "hassell": (Hassell(), EnvSpec((LogNormal(0.2, 0.4), Constant(1.0))),
                (Coordinate(0), LogPerCapita(0), LogNorm())),
    "hassell-gamma": (Hassell(), EnvSpec((Gamma(2.0, 0.7), Constant(1.0))),
                      (Coordinate(0), LogPerCapita(0), LogNorm())),
    "lottery": (Lottery(3, 0.3), EnvSpec((LogNormal(1.0, 0.5),) * 3),
                (Coordinate(1), LogPerCapita(2), LogNorm(), LogPerCapita(0))),
    "hassell-floor": (Hassell(), EnvSpec((LogNormal(-1.75, 1.0), Constant(1.0))),
                      (Coordinate(0), LogNorm())),
    "biennial": (Biennial(1.0, 0.5, 1.0, 1.0),
                 EnvSpec((Discrete((0.0, 3.0), (0.004, 0.996)),)), (Coordinate(0), LogNorm())),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_split_rows_give_the_bits_of_the_one_batch(monkeypatch, case):
    # 7 rows in 3 slices of 2, 2 and 3 rows
    model, envspec, functionals = _CASES[case]
    cfg = SimConfig(seed=16, replicates=7, burn_in=25, horizon=400, eta_grid=(0.05, 0.5),
                    bound_radius=2.0)
    sets = default_sets(cfg)
    _inline(monkeypatch)
    want = _drive(model, envspec, cfg, functionals, sets)
    forks = _split(monkeypatch, 3)
    got = _drive(model, envspec, cfg, functionals, sets)
    assert forks == [os.getpid()] * 2
    _no_child_left()
    for key in ("occ_counts", "fsums", "floored", "saturated", "terminal"):
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key
        assert got[key].tobytes() == want[key].tobytes(), key
    if case == "hassell-floor":
        assert got["floored"].any() and not got["floored"].all()


def _outputs(cfg, out):
    run_config(cfg, out_dir=out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_split_simulate_task_writes_the_bytes_of_the_one_batch(monkeypatch, tmp_path):
    cfg = {"model": {"model": "hassell", "b": 1.0,
                     "lam": {"dist": "lognormal", "log_mean": 0.3, "log_sd": 0.3}},
           "sim": {"seed": 3, "replicates": 5, "burn_in": 10, "horizon": 300,
                   "eta_grid": [0.01, 0.2], "bound_radius": 2.0},
           "task": "simulate",
           "task_params": {"functionals": [{"kind": "coordinate", "i": 0},
                                           {"kind": "log_percapita", "i": 0},
                                           {"kind": "log_norm"}]}}
    _inline(monkeypatch)
    want = _outputs(cfg, tmp_path / "inline")
    forks = _split(monkeypatch, 2)
    got = _outputs(cfg, tmp_path / "split")
    assert len(forks) == 1
    assert set(got) == {"results.json", "results.csv", "replicates.csv"}
    assert got == want


def test_split_face_runs_classifier_and_terminal_states_match_the_one_batch(monkeypatch):
    # 3 edges of 5 replicates make 15 face rows in 4 slices; 7 replicates in 3
    lottery, l_env = Lottery(3, 0.3), EnvSpec((LogNormal(1.0, 0.3),) * 3)
    h_env = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0)))
    cfg = SimConfig(seed=2, replicates=5, burn_in=20, horizon=300, eta_grid=(0.1,))
    wide = replace(cfg, replicates=7)
    runs = {
        "faces": (4, lambda: persist.boundary_invasion_report(lottery, l_env, cfg)),
        "classify": (3, lambda: persist.scalar_classify(Hassell(), h_env, wide)),
        "terminal": (3, lambda: terminal_states(Hassell(), h_env, wide, 150).tolist()),
        "hit": (3, lambda: engine.ensemble_hit_probability(
            Hassell(), h_env, wide, ExtinctionNeighborhood(0.5), 150)),
    }
    for name, (cpus, run) in runs.items():
        with monkeypatch.context() as m:
            _inline(m)
            want = run()
        with monkeypatch.context() as m:
            forks = _split(m, cpus)
            got = run()
        assert len(forks) == cpus - 1, name
        assert got == want, name
        _no_child_left()


def _error(run):
    with pytest.raises(NumericError) as info:
        run()
    return type(info.value), str(info.value), info.value.step


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_split_run_raises_the_numeric_error_of_the_one_batch(monkeypatch):
    # a non-finite state on the faces of a competition whose draws are 1e308,
    # and without density dependence a coordinate whose running sum
    # overflows, first in whichever row grows fastest
    big = EnvSpec((Constant(1e308), Constant(1e308)))
    free = EnvSpec((LogNormal(0.3, 0.3), Constant(0.0)))
    cfg = SimConfig(seed=1, replicates=5, horizon=6000)
    runs = {
        "state": lambda: persist.boundary_invasion_report(RickerCompetition(0.3, 0.3), big,
                                                          replace(cfg, horizon=100)),
        "estimate": lambda: simulate(Hassell(), free, cfg, functionals=(Coordinate(0),)),
    }
    for name, run in runs.items():
        with monkeypatch.context() as m:
            _inline(m)
            want = _error(run)
        with monkeypatch.context() as m:
            forks = _split(m, 3)
            got = _error(run)
        assert forks, name
        assert got == want, name
        _no_child_left()
    # the row that overflows first, alone at its piece, placed in the last
    # slice after rows that overflow later: a child's error is raised.  A
    # wider lognormal spreads the overflows over several 300-step pieces
    free = EnvSpec((LogNormal(0.3, 1.5), Constant(0.0)))
    alone = {r: _error(lambda r=r: _drive(Hassell(), free, cfg, (Coordinate(0),), (),
                                          rows=[(r, (0,), f"replicate {r}")]))[2]
             for r in range(8)}
    first = min(alone, key=alone.get)
    rows = [(r, (0,), f"replicate {r}") for r in alone if alone[r] > alone[first]]
    rows.append((first, (0,), f"replicate {first}"))
    assert len(rows) >= 3

    def moved():
        return _drive(Hassell(), free, cfg, (Coordinate(0),), (), rows=rows)

    with monkeypatch.context() as m:
        _inline(m)
        want = _error(moved)
    _split(monkeypatch, 3)
    assert _error(moved) == want
    assert f"for replicate {first} " in want[1]
    _no_child_left()


def test_numeric_error_keeps_its_step_through_pickling():
    err = pickle.loads(pickle.dumps(NumericError("non-finite state", step=41)))
    assert (type(err), str(err), err.step) == (NumericError, "non-finite state", 41)


class _Failing(Hassell):
    """Hassell whose per-capita step does ``act`` in a forked slice (``where``
    "child") or in the process that made it (``where`` "parent")."""

    def __init__(self, where, act):
        self.where, self.act, self.parent = where, act, os.getpid()

    def log_percapita(self, x, w):
        if (os.getpid() == self.parent) == (self.where == "parent"):
            self.act()
        return super().log_percapita(x, w)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _interrupt():
    raise KeyboardInterrupt


def _bad_value():
    raise ValueError("a model fault")


_FAULTS = {
    "child_killed": ("child", _kill_self, StochpopError,
                     r"^the process running rows [24]\.\.[35] ended without its result "
                     rf"\(exit status -{int(signal.SIGKILL)}\)$"),
    "child_raises": ("child", _bad_value, ValueError, "^a model fault$"),
    "parent_interrupted": ("parent", _interrupt, KeyboardInterrupt, None),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_no_child_outlives_a_split_run_that_fails(monkeypatch, fault):
    where, act, error, message = _FAULTS[fault]
    before = os.sched_getaffinity(0)
    forks = _split(monkeypatch, 3)
    cfg = SimConfig(seed=1, replicates=6, horizon=50)
    with pytest.raises(error, match=message):
        simulate(_Failing(where, act), EnvSpec((LogNormal(0.3, 0.3), Constant(1.0))), cfg)
    assert len(forks) == 2
    _no_child_left()
    assert os.sched_getaffinity(0) == before  # the parent's mask is restored


def _thread_starts(monkeypatch) -> list:
    """The name of every thread started in this process from now on."""
    started = []
    real = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        return real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_no_transform_or_narrow_batch_starts_a_thread(monkeypatch, cpus):
    # on a mask of 1 to 64 CPUs: a gamma transform of 4 x 8192 values, and a
    # gamma batch of 255 rows, one short of two slices, whose transform
    # blocks hold 255 x 128 values
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    started = _thread_starts(monkeypatch)
    gamma = EnvSpec((Gamma(2.0, 2.0), Constant(1.0)))
    u = np.linspace(0.01, 0.99, 4 * 8192 * 2).reshape(-1, 2)
    assert np.array_equal(gamma.transform(u), np.stack([Gamma(2.0, 2.0).ppf(u[:, 0]),
                                                        np.ones(len(u))], axis=1))
    cfg = SimConfig(seed=4, replicates=255, horizon=128)
    assert engine._slices(255, engine._MIN_SLICE_ROWS) == 1
    assert terminal_states(Hassell(), gamma, cfg, 128).shape == (255, 1)
    assert started == []


@pytest.mark.parametrize("slices", [1, 2])
def test_no_lyap_gamma_run_starts_a_thread(monkeypatch, slices):
    # biennial's gamma draws in 16 rows x 2048 steps, inline or in 2 slices
    # on 2 CPUs; the first slice runs in this process
    if slices == 1:
        _inline(monkeypatch)
    else:
        forks = _split(monkeypatch, 2)
    started = _thread_starts(monkeypatch)
    cfg = SimConfig(seed=4, replicates=16, burn_in=48, horizon=2048)
    got, _ = lyap._mc_batch_sums(Biennial(0.5, 0.5, 1.0, 1.0), EnvSpec((Gamma(2.0, 0.7),)), cfg)
    assert got.shape == (16, 20) and np.isfinite(got).all()
    assert started == []
    if slices == 2:
        assert forks == [os.getpid()]
        _no_child_left()


# a run's draws at the shapes of the workloads: hassell-wide's first chunk
# (4096 rows, blocks of 128 rows x 512 steps), a gamma coordinate in blocks
# of that shape, and biennial-gamma's first chunk (20 rows x 2048 steps);
# each run ends in a short chunk
_DRAW_CASES = {
    "hassell-wide": (EnvSpec((LogNormal(0.3, 0.3),)), 4096, 512 + 37),
    "gamma": (EnvSpec((Gamma(2.0, 2.0),)), 256, 512 + 37),
    "biennial-gamma": (EnvSpec((Gamma(2.0, 2.0),)), 20, 2048 + 37),
}


@pytest.mark.parametrize("slices", [2, 3, 4, 7])
@pytest.mark.parametrize("case", list(_DRAW_CASES))
def test_a_row_slice_draws_its_rows_of_the_one_batch(case, slices):
    # each slice draws with the whole run's budget, so its chunks start at
    # the steps of the one batch's and hold those rows' bits
    envspec, rows, steps = _DRAW_CASES[case]
    streams = [engine.make_stream(0, r) for r in range(rows)]
    want = [(t, draws.copy()) for t, draws in engine._draw_chunks(envspec, streams, steps)]
    assert len(want) == (1 if case == "gamma" else 2)
    cuts = [rows * i // slices for i in range(slices + 1)]
    for lo, hi in zip(cuts, cuts[1:]):
        streams = [engine.make_stream(0, r) for r in range(lo, hi)]  # drawn afresh
        got = [(t, draws.copy()) for t, draws in
               engine._draw_chunks(envspec, streams, steps, rows)]
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert g.tobytes() == w[:, lo:hi].tobytes(), (lo, hi)


def test_a_batch_below_two_slices_forks_no_child(monkeypatch):
    forks = _split(monkeypatch, 4, min_rows=4)
    cfg = SimConfig(seed=1, replicates=7, horizon=50)
    simulate(Hassell(), EnvSpec((LogNormal(0.3, 0.3), Constant(1.0))), cfg)
    assert forks == []
    assert [engine._slices(rows, engine._MIN_SLICE_ROWS) for rows in (7, 8, 100)] == [1, 2, 4]


def test_a_split_run_reads_the_budget_of_the_whole_run(monkeypatch):
    # every slice draws the chunk lengths of all 6 rows: 6 x 2 draws in a
    # 1000-draw budget make 83-step chunks, whatever rows a slice holds
    monkeypatch.setattr(engine, "_BLOCK", 1000)
    lengths = []
    real = engine._draw_chunks

    def recording(envspec, streams, t_total, shared=None):
        for t, draws in real(envspec, streams, t_total, shared):
            lengths.append((len(streams), len(draws)))
            yield t, draws

    monkeypatch.setattr(engine, "_draw_chunks", recording)
    cfg = SimConfig(seed=3, replicates=6, horizon=300)
    _, _, _, pieces = engine._open_rows(Hassell(), EnvSpec((LogNormal(0.3, 0.3),
                                                            Normal(1.0, 0.1))), cfg)
    for lo, hi in ((0, 2), (2, 6)):
        lengths.clear()
        assert sum(len(draws) for _, _, draws in pieces(lo, hi)) == 300
        assert lengths == [(hi - lo, 83)] * 3 + [(hi - lo, 51)]



# ---------------------------------------------------------------------------
# lyapunov_mc's rows


_LYAP_CASES = {
    "biennial": (Biennial(0.5, 0.5, 1.0, 1.0), EnvSpec((Gamma(2.0, 2.0),)),
                 SimConfig(seed=31, replicates=7, burn_in=500, horizon=5500)),
    "linear3": (LinearMatrix(3), EnvSpec(tuple(Uniform(0.05, 1.0) for _ in range(9))),
                SimConfig(seed=32, replicates=5, burn_in=300, horizon=4400)),
}


@pytest.mark.parametrize("case", list(_LYAP_CASES))
def test_split_lyap_rows_give_the_bits_of_the_one_batch(monkeypatch, case):
    # 7 rows in 3 slices of 2, 2 and 3 rows; 5 in 2 of 2 and 3.  A budget of
    # 1000 draws a chunk makes the products' cuts depend on the rows drawn,
    # unless each slice draws the whole run's chunk lengths
    model, envspec, cfg = _LYAP_CASES[case]
    monkeypatch.setattr(engine, "_BLOCK", 1000)
    _inline(monkeypatch)
    want, want_lengths = lyap._mc_batch_sums(model, envspec, cfg)
    forks = _split(monkeypatch, 3 if cfg.replicates == 7 else 2)
    got, lengths = lyap._mc_batch_sums(model, envspec, cfg)
    assert forks == [os.getpid()] * (2 if cfg.replicates == 7 else 1)
    _no_child_left()
    assert got.shape == (cfg.replicates, 20)
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
    assert np.array_equal(lengths, want_lengths)


def test_split_gamma_task_writes_the_bytes_of_the_one_batch(monkeypatch, tmp_path):
    cfg = {"model": {"model": "biennial", "p": 0.5, "a": 0.5, "b1": 1.0, "b2": 1.0,
                     "xi": {"dist": "gamma", "shape": 2.0, "scale": 2.0}},
           "sim": {"seed": 9, "replicates": 6, "burn_in": 100, "horizon": 3100},
           "task": "gamma"}
    _inline(monkeypatch)
    want = _outputs(cfg, tmp_path / "inline")
    forks = _split(monkeypatch, 4)
    got = _outputs(cfg, tmp_path / "split")
    assert len(forks) == 3
    assert set(got) == {"results.json", "results.csv"}
    assert got == want
    _no_child_left()


def _lyap_rows(monkeypatch, rows):
    """Run ``lyap._mc_batch_sums`` on ``rows`` (stream id, support, label)
    of ``_open_rows`` in place of its replicates."""
    monkeypatch.setattr(lyap, "_open_rows", lambda model, envspec, cfg, **kw: (
        engine._open_rows(model, envspec, cfg, rows, **kw)))


def _row(r):
    return (r, (0,), f"replicate {r}")


def _lyap_error(monkeypatch, envspec, cfg, rows, cpus):
    """The error of a one-species matrix product over ``rows``, inline and
    split into ``cpus`` slices, with the forks the split made."""
    one = LinearMatrix(1)
    with monkeypatch.context() as m:
        _inline(m)
        _lyap_rows(m, rows)
        want = _error(lambda: lyap._mc_batch_sums(one, envspec, cfg))
    with monkeypatch.context() as m:
        forks = _split(m, cpus)
        _lyap_rows(m, rows)
        got = _error(lambda: lyap._mc_batch_sums(one, envspec, cfg))
    _no_child_left()
    return want, got, forks


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_split_lyap_run_raises_the_numeric_error_of_the_one_batch(monkeypatch):
    # one species: a draw of 0 makes its vector vanish at that step, and two
    # draws of 1e200 paired in a product's first level overflow, so the log
    # growth of their piece is not finite.  horizon 2000 is one chunk cut
    # into 20 pieces of 100 steps
    cfg = SimConfig(seed=5, replicates=1, horizon=2000)
    envs = {
        "vanish": EnvSpec((Discrete((0.0, 1.0), (0.004, 0.996)),)),
        "overflow": EnvSpec((Discrete((1.0, 1e200), (0.95, 0.05)),)),
        "both": EnvSpec((Discrete((0.0, 1.0, 1e200), (0.002, 0.93, 0.068)),)),
    }
    alone = {}  # (kind, step) of each row's own error
    for name, envspec in envs.items():
        for r in range(40):
            with monkeypatch.context() as m:
                _inline(m)
                _lyap_rows(m, [_row(r)])
                try:
                    lyap._mc_batch_sums(LinearMatrix(1), envspec, cfg)
                except NumericError as exc:
                    alone[name, r] = ("primitivity" in str(exc), exc.step)

    def faulting(name, vanish):
        return sorted(((alone[key][1], key[1]) for key in alone
                       if key[0] == name and alone[key][0] == vanish), reverse=True)

    for name, vanish in (("vanish", True), ("overflow", False)):
        # rows that fault at 6 different steps, the 5 latest in descending
        # order and then the earliest, alone in the last slice
        by_step = list(dict(faulting(name, vanish)).items())
        assert len(by_step) >= 6, name
        (first, r), rows = by_step[-1], [_row(r) for _, r in by_step[:5] + by_step[-1:]]
        want, got, forks = _lyap_error(monkeypatch, envs[name], cfg, rows, 3)
        assert len(forks) == 2 and got == want, name
        assert want[2] == first, name
        if not vanish:
            assert want[1].startswith(f"non-finite log growth for replicate {r} "), name
    # two rows that overflow in one piece, in slices 1 and 2 behind a row
    # that faults later: the lower slice's row is named
    pieces = {}
    for step, r in faulting("overflow", False):
        pieces.setdefault(step, []).append(r)
    step, (r1, r2) = next((step, rs[:2]) for step, rs in sorted(pieces.items()) if len(rs) > 1)
    later = next(r for s, r in faulting("overflow", False) if s > step)
    want, got, _ = _lyap_error(monkeypatch, envs["overflow"], cfg,
                               [_row(later), _row(r2), _row(r1)], 3)
    assert got == want and want[1].startswith(f"non-finite log growth for replicate {r2} ")
    # a row whose vector vanishes in the piece where a lower slice's row
    # overflows: the one batch finds the vanishing first in that piece
    vanishing = {step // 100: (step, r) for step, r in faulting("both", True)}
    overflowing = {step // 100: r for step, r in faulting("both", False)}
    piece = min(set(vanishing) & set(overflowing))
    step, r_vanish = vanishing[piece]
    want, got, _ = _lyap_error(monkeypatch, envs["both"], cfg,
                               [_row(overflowing[piece]), _row(r_vanish)], 2)
    assert got == want == (NumericError, "zero vector under the linearized dynamics: "
                                         "the model violates primitivity", step)


def test_a_lyap_run_below_its_row_steps_forks_no_child(monkeypatch):
    # 20 rows of 2000 steps hold 40 000 row-steps, under one slice's least
    forks = _split(monkeypatch, 4)
    monkeypatch.setattr(lyap, "_MIN_SLICE_ROW_STEPS", 50_000)
    cfg = SimConfig(seed=1, replicates=20, burn_in=100, horizon=2000)
    lyap.lyapunov_mc(Biennial(0.5, 0.5, 1.0, 1.0), EnvSpec((Gamma(2.0, 2.0),)), cfg)
    assert forks == []
    # the rows of 20 x 50500 steps run in 4 slices of 5
    assert engine._slices(20, -(-50_000 // 50_500)) == 4


def test_a_split_never_makes_more_slices_than_rows(monkeypatch):
    model, envspec, cfg = _LYAP_CASES["biennial"]
    cfg = replace(cfg, replicates=3)
    _inline(monkeypatch)
    want, _ = lyap._mc_batch_sums(model, envspec, cfg)
    forks = _split(monkeypatch, 8)
    assert [engine._slices(rows, 1) for rows in (1, 3, 8, 100)] == [1, 3, 8, 8]
    got, _ = lyap._mc_batch_sums(model, envspec, cfg)
    assert len(forks) == 2  # 3 slices of one row
    assert got.tobytes() == want.tobytes()
    _no_child_left()
