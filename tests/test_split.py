"""A wide batch's rows run in slices, one per usable CPU, the first in the
calling process and each other in a forked child: the slices give the bits
of the one batch, raise the error the one batch raises, and leave no child
behind.  The split is forced at small sizes by lowering
``engine._MIN_SLICE_ROWS`` and faking ``env._usable_cpus``."""

import os
import pickle
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest

from stochpop import engine, env, persist
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
from stochpop.env import Constant, Discrete, EnvSpec, Gamma, LogNormal, Normal
from stochpop.errors import NumericError, StochpopError
from stochpop.models import Biennial, Hassell, Lottery, RickerCompetition

pytestmark = pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
                                reason="the split needs os.fork and CPU affinity")


def _split(monkeypatch, cpus, min_rows=1):
    """Cut every batch into up to ``cpus`` slices of at least ``min_rows``
    rows each, and record each fork made from this process."""
    monkeypatch.setattr(env, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(engine, "_MIN_SLICE_ROWS", min_rows)
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _inline(monkeypatch):
    monkeypatch.setattr(engine, "_MIN_SLICE_ROWS", 1 << 30)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# model, environment and functionals: every sim_mode (log_mult, simplex,
# linear), every functional kind, and rows that floor by step 400 or not
_CASES = {
    "hassell": (Hassell(), EnvSpec((LogNormal(0.2, 0.4), Constant(1.0))),
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


class _Recorded(Gamma):
    """A gamma coordinate whose ppf appends the name of the thread that runs
    it, and its process, to the file ``path``."""

    path = None

    def ppf(self, u, out=None):
        with open(self.path, "a") as fh:
            fh.write(f"{os.getpid()} {threading.current_thread().name}\n")
        return super().ppf(u, out)


def test_a_slice_splits_no_gamma_ppf_across_threads(monkeypatch, tmp_path):
    # a made-up mask of 2 CPUs: the ppf blocks of 16 rows x 2048 steps split
    # across threads inline, and each slice, pinned to its own one CPU of
    # the mask, splits none
    mask = [{0, 1}]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask[0]))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: mask.__setitem__(0, set(cpus)))
    monkeypatch.setattr(_Recorded, "path", tmp_path / "ppf.txt")
    envspec = EnvSpec((_Recorded(2.0, 0.7), Constant(1.0)))
    cfg = SimConfig(seed=4, replicates=16, horizon=2048)
    seen = {}
    for name, min_rows in (("inline", 1 << 30), ("split", 8)):
        monkeypatch.setattr(engine, "_MIN_SLICE_ROWS", min_rows)
        _Recorded.path.write_text("")
        seen[name] = terminal_states(Hassell(), envspec, cfg, cfg.horizon)
        lines = [line.split() for line in _Recorded.path.read_text().splitlines()]
        pids = {int(pid) for pid, _ in lines}
        threads = {thread.startswith("stochpop-ppf") for _, thread in lines}
        if name == "inline":
            assert pids == {os.getpid()} and threads == {False, True}
        else:
            assert len(pids) == 2 and threads == {False}
    assert mask[0] == {0, 1}
    assert np.array_equal(seen["inline"], seen["split"])
    _no_child_left()


def test_a_batch_below_two_slices_forks_no_child(monkeypatch):
    forks = _split(monkeypatch, 4, min_rows=4)
    cfg = SimConfig(seed=1, replicates=7, horizon=50)
    simulate(Hassell(), EnvSpec((LogNormal(0.3, 0.3), Constant(1.0))), cfg)
    assert forks == []
    assert engine._slices(7) == 1 and engine._slices(8) == 2 and engine._slices(100) == 4


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

