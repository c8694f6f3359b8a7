"""CLI contract: schema validation, exit codes, deterministic outputs."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochpop
from stochpop import cli, engine, persist
from stochpop.cli import main, run_config
from stochpop.engine import RateEstimate
from stochpop.env import env_to_config, parse_env_spec
from stochpop.errors import ConfigurationError
from stochpop.models import parse_model
from test_engine import _no_streams


def _classify_cfg(seed=42):
    return {
        "model": {
            "model": "hassell",
            "lam": {"dist": "lognormal", "log_mean": -0.2, "log_sd": 0.3},
            "b": 1.0,
        },
        "sim": {"seed": seed, "replicates": 10, "burn_in": 0, "horizon": 3000, "eta_grid": [0.01]},
        "task": "classify",
    }


def _permanence_cfg():
    return {
        "model": {
            "model": "lottery",
            "k": 3,
            "d": 0.1,
            "fecundity": [{"dist": "lognormal", "log_mean": 1.0, "log_sd": 0.3}] * 3,
        },
        "sim": {"seed": 5, "replicates": 2, "burn_in": 100, "horizon": 1100},
        "task": "permanence",
    }


def _simulate_cfg():
    return {
        "model": {
            "model": "hassell",
            "lam": {"dist": "lognormal", "log_mean": 0.3, "log_sd": 0.3},
            "b": 1.0,
        },
        "sim": {
            "seed": 5,
            "replicates": 3,
            "burn_in": 100,
            "horizon": 2100,
            "eta_grid": [0.01],
            "bound_radius": 5.0,
        },
        "task": "simulate",
        "task_params": {"functionals": [{"kind": "coordinate", "i": 0}]},
    }


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run_module(tmp_path, cfg, *args, name="cfg.json", out="out"):
    """Run ``python -m stochpop.cli run`` on ``cfg``; returns the finished
    process and its output directory."""
    src = str(Path(stochpop.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / out
    proc = subprocess.run(
        [sys.executable, "-m", "stochpop.cli", "run",
         "--config", _write(tmp_path, cfg, name), "--out", str(out), *args],
        capture_output=True, text=True, env=env,
    )
    return proc, out


def test_classify_run_writes_results(tmp_path):
    cfg_path = _write(tmp_path, _classify_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads((out / "results.json").read_text())
    assert report["results"]["verdict"] == "extinction"
    assert report["provenance"]["seed"] == 42
    assert report["provenance"]["package"] == "stochpop"
    rows = list(csv.DictReader((out / "results.csv").open()))
    assert any(r["quantity"] == "lambda_0" for r in rows)


def test_every_csv_estimate_is_in_json_with_se_and_n(tmp_path):
    cfg_path = _write(tmp_path, _classify_cfg())
    out = tmp_path / "out"
    main(["run", "--config", cfg_path, "--out", str(out)])
    report = json.loads((out / "results.json").read_text())
    rows = list(csv.DictReader((out / "results.csv").open()))
    estimates = report["estimates"]
    assert len(estimates) == len(rows)
    for row, est in zip(rows, estimates):
        assert str(est["mean"]) == row["mean"]
        assert str(est["std_error"]) == row["std_error"]
        assert str(est["n"]) == row["n"]


def test_byte_identical_across_runs_and_threads(tmp_path):
    for name, cfg in (("classify", _classify_cfg()), ("permanence", _permanence_cfg())):
        cfg_path = _write(tmp_path, cfg, name=f"{name}.json")
        blobs = []
        for i, threads in enumerate(("1", "1", "4")):
            out = tmp_path / f"{name}{i}"
            assert main(["run", "--config", cfg_path, "--out", str(out), "--threads", threads]) == 0
            blobs.append((out / "results.json").read_bytes() + (out / "results.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


def test_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    cfg = _classify_cfg()
    cfg["model"]["lam"] = {"dist": "discrete", "values": [1, 2], "probs": [0.5, 0.4]}
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert not (out / "results.json").exists()
    assert not (out / "results.csv").exists()
    assert "configuration error" in capsys.readouterr().err


def test_unknown_keys_rejected(tmp_path):
    cfg = _classify_cfg()
    cfg["extra_section"] = {}
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    cfg2 = _classify_cfg()
    cfg2["sim"]["walltime"] = 10
    assert main(["run", "--config", _write(tmp_path, cfg2, "c2.json"), "--out", str(tmp_path / "o2")]) == 2
    cfg3 = _classify_cfg()
    cfg3["task"] = "classification"
    assert main(["run", "--config", _write(tmp_path, cfg3, "c3.json"), "--out", str(tmp_path / "o3")]) == 2
    cfg4 = _classify_cfg()
    cfg4["task_params"] = {"bogus": 1}
    assert main(["run", "--config", _write(tmp_path, cfg4, "c4.json"), "--out", str(tmp_path / "o4")]) == 2
    cfg5 = _simulate_cfg()
    cfg5["task_params"] = {"functionls": [{"kind": "coordinate", "i": 0}]}
    assert main(["run", "--config", _write(tmp_path, cfg5, "c5.json"), "--out", str(tmp_path / "o5")]) == 2
    assert not (tmp_path / "o4").exists() and not (tmp_path / "o5").exists()
    # a functional spec takes "kind", and "i" for a coordinate or per-capita rate
    for n, spec in enumerate([{"kind": "log_norm", "i": 3},
                              {"kind": "coordinate", "i": 0, "species": 1}], start=6):
        cfg_n = _simulate_cfg()
        cfg_n["task_params"] = {"functionals": [spec]}
        out = tmp_path / f"o{n}"
        assert main(["run", "--config", _write(tmp_path, cfg_n, f"c{n}.json"), "--out", str(out)]) == 2
        assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_numeric_error_exits_3(tmp_path):
    cfg = {
        "model": {"model": "linear_matrix", "entries": [[{"dist": "constant", "value": 1e200}]]},
        "sim": {"seed": 1, "replicates": 1, "burn_in": 0, "horizon": 50},
        "task": "simulate",
    }
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert not (out / "results.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_exponent_exits_3_without_outputs(tmp_path, capsys):
    # a product of 1e200s overflows and stops the run in its first piece
    cfg = {
        "model": {"model": "linear_matrix",
                  "entries": [[{"dist": "constant", "value": 1e200}]]},
        "sim": {"seed": 0, "replicates": 2, "burn_in": 0, "horizon": 5000},
        "task": "lyapunov",
    }
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert not (out / "results.json").exists()
    assert not (out / "results.csv").exists()
    assert "non-finite log growth for replicate 0 within steps 0..249" in capsys.readouterr().err


def test_set_overrides_and_seed_flag(tmp_path):
    cfg_path = _write(tmp_path, _classify_cfg())
    out = tmp_path / "out"
    assert (
        main(
            [
                "run",
                "--config",
                cfg_path,
                "--out",
                str(out),
                "--set",
                "sim.horizon=2000",
                "--seed",
                "7",
            ]
        )
        == 0
    )
    report = json.loads((out / "results.json").read_text())
    assert report["config"]["sim"]["horizon"] == 2000
    assert report["config"]["sim"]["seed"] == 7
    assert report["provenance"]["seed"] == 7


def test_gamma_task_p_zero(tmp_path, capsys):
    cfg = {
        "model": {
            "model": "biennial",
            "p": 0.0,
            "a": 0.5,
            "b1": 1.0,
            "b2": 1.0,
            "xi": {"dist": "gamma", "shape": 1.0, "scale": 2.0},
        },
        "sim": {"seed": 3, "replicates": 2, "burn_in": 10, "horizon": 500},
        "task": "gamma",
    }
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["gamma_closed_form"] == pytest.approx(math.log(0.5), abs=1e-12)
    report = json.loads((out / "results.json").read_text())
    assert report["results"]["gamma_closed_form"] == pytest.approx(-0.6931471805599453, abs=1e-12)
    assert report["results"]["abs_difference"] < 1e-10


def test_invade_task(tmp_path):
    cfg = {
        "model": {
            "model": "ricker_competition",
            "r": [
                {"dist": "normal", "mean": 1.0, "sd": 0.3},
                {"dist": "normal", "mean": 0.8, "sd": 0.3},
            ],
            "alpha": [0.6, 0.5],
        },
        "sim": {"seed": 11, "replicates": 2, "burn_in": 2000, "horizon": 22000},
        "task": "invade",
        "task_params": {"invader": 0, "resident_support": [1]},
    }
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "results.json").read_text())
    rate = report["results"]["rate"]
    assert abs(rate["mean"] - 0.52) < 3 * rate["std_error"]


def test_permanence_task(tmp_path):
    cfg = {
        "model": {
            "model": "rps_lottery",
            "d": 0.1,
            "alpha": 3.2,
            "beta": 2.0,
            "gamma": 1.0,
        },
        "sim": {"seed": 2, "replicates": 1, "burn_in": 100, "horizon": 5100},
        "task": "permanence",
    }
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "results.json").read_text())
    assert report["results"]["verdict"] == "persistent"
    assert report["results"]["weights"] is not None


def _degenerate_cfg():
    # both species die out alone, so every face degenerates
    return {
        "model": {"model": "ricker_competition",
                  "r": [{"dist": "normal", "mean": -2.0, "sd": 0.1}] * 2, "alpha": [0.5, 0.5]},
        "sim": {"seed": 0, "burn_in": 100, "horizon": 1000},
        "task": "permanence",
    }


def test_permanence_with_every_face_degenerate_is_inconclusive(tmp_path):
    # no face row is left to weigh; this once exited 2 with "table has no
    # usable rows" and wrote nothing
    cfg_path = _write(tmp_path, _degenerate_cfg())
    for flags, word in (((), "inconclusive"), (("--explore",), "exploratory")):
        out = tmp_path / word
        assert main(["run", "--config", cfg_path, "--out", str(out), *flags]) == 0
        results = json.loads((out / "results.json").read_text())["results"]
        assert results["verdict"] == word and results["weights"] is None
        assert [face["support"] for face in results["faces"] if face["degenerate"]] == [[0], [1]]
        assert len(results["annotations"]) == 2
        with (out / "results.csv").open() as fh:
            assert [(r["quantity"], r["verdict"]) for r in csv.DictReader(fh)] == [("weights", word)]


def test_rps_task_uses_model_turnover(tmp_path):
    cfg = {
        "model": {"model": "rps_lottery", "d": 0.1, "alpha": 3.2, "beta": 2.0, "gamma": 1.0},
        "sim": {"seed": 2, "replicates": 1, "burn_in": 10, "horizon": 110},
        "task": "rps",
        "task_params": {"n": 500},
    }
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "results.json").read_text())
    assert report["results"]["exact_verdict"] == "persists"
    assert report["results"]["exact_lhs"]["mean"] == pytest.approx(0.0069756, abs=1e-6)


def test_simulate_task_writes_replicate_csv(tmp_path):
    cfg = _simulate_cfg()
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "replicates.csv").open()))
    assert {r["replicate"] for r in rows} == {"0", "1", "2", "pooled"}
    report = json.loads((out / "results.json").read_text())
    occ = report["results"]["pooled"]["occupation"]
    assert occ["outside_ball=5"] + occ["not[outside_ball=5]"] == pytest.approx(1.0, abs=1e-12)


def test_simulate_with_nothing_to_measure_writes_header_only(tmp_path):
    cfg = _simulate_cfg()
    del cfg["sim"]["eta_grid"], cfg["sim"]["bound_radius"], cfg["task_params"]
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out / "replicates.csv").read_text().splitlines() == [
        "replicate,set_name,occupation,functional,mean,std_error,extinct"
    ]


def test_write_failure_part_way_leaves_no_outputs(tmp_path, monkeypatch):
    task_simulate = cli._RUNNERS["simulate"]

    def bad_rows(*args):
        results, rows, extra = task_simulate(*args)
        extra["replicates.csv"][1]["unexpected"] = 1
        return results, rows, extra

    monkeypatch.setitem(cli._RUNNERS, "simulate", bad_rows)
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        run_config(_simulate_cfg(), out_dir=out)
    assert list(out.iterdir()) == []


def test_list_models_stable_and_complete(capsys):
    assert main(["list-models"]) == 0
    first = capsys.readouterr().out
    assert main(["list-models"]) == 0
    second = capsys.readouterr().out
    assert first == second
    for name in ("hassell", "rps_lottery", "biennial", "lottery", "ricker_competition"):
        assert name in first
    assert "env coordinates" in first


def test_run_config_rejects_bad_task_params():
    cfg = _classify_cfg()
    cfg["task_params"] = "not-a-dict"
    with pytest.raises(ConfigurationError):
        run_config(cfg, out_dir="/tmp/_stochpop_never")


def test_explore_reports_raw_statistics_without_verdicts(tmp_path):
    cfg_path = _write(tmp_path, _classify_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--explore"]) == 0
    report = json.loads((out / "results.json").read_text())
    assert report["results"]["verdict"] == "exploratory"
    hit = report["results"]["exploratory"]["ensemble_hit_at_horizon"]["S_eta=0.01"]
    assert 0.0 <= hit["mean"] <= 1.0
    assert all(r["verdict"] in ("", "exploratory") for r in report["estimates"])


def test_functional_index_out_of_range_exits_2_through_the_module(tmp_path):
    for n, functional in enumerate(({"kind": "coordinate", "i": -1},
                                    {"kind": "log_percapita", "i": 3})):
        cfg = _simulate_cfg()
        cfg["task_params"] = {"functionals": [{"kind": "coordinate", "i": 0}, functional]}
        proc, out = _run_module(tmp_path, cfg, name=f"c{n}.json", out=f"out{n}")
        assert proc.returncode == 2, proc.stderr
        assert "configuration error: species index" in proc.stderr
        assert not out.exists()


def _set_functional(cfg, functional):
    cfg["task_params"] = {"functionals": [functional]}


# (edit of the simulate config, expected stderr); before the config was
# type-checked, the first and last two exited 1 and the second ran as coord_0
_MISTYPED = {
    "missing_i": (lambda c: _set_functional(c, {"kind": "coordinate"}), "integer 'i'"),
    "fractional_i": (lambda c: _set_functional(c, {"kind": "coordinate", "i": 0.7}),
                     "integer 'i'"),
    "string_horizon": (lambda c: c["sim"].update(horizon="50"), "sim horizon must be an integer"),
    "fractional_replicates": (lambda c: c["sim"].update(replicates=2.5),
                              "sim replicates must be an integer"),
}


@pytest.mark.parametrize("case", list(_MISTYPED))
def test_mistyped_config_value_exits_2_through_the_module(tmp_path, case):
    edit, message = _MISTYPED[case]
    cfg = _simulate_cfg()
    edit(cfg)
    proc, out = _run_module(tmp_path, cfg)
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr and message in proc.stderr
    assert not out.exists()


_MISTYPED_MORE = {
    "bool_seed": lambda c: c["sim"].update(seed=True),
    "float_seed": lambda c: c["sim"].update(seed=5.0),
    "null_burn_in": lambda c: c["sim"].update(burn_in=None),
    "string_thinning": lambda c: c["sim"].update(thinning="10"),
    "string_eta": lambda c: c["sim"].update(eta_grid=["0.01"]),
    "scalar_eta_grid": lambda c: c["sim"].update(eta_grid=0.01),
    "string_bound_radius": lambda c: c["sim"].update(bound_radius="5"),
    "string_initial_coordinate": lambda c: c["sim"].update(initial_state=[1, "x"]),
    "object_initial_state": lambda c: c["sim"].update(initial_state={"x": 1}),
    "bool_i": lambda c: _set_functional(c, {"kind": "log_percapita", "i": False}),
    "string_i": lambda c: _set_functional(c, {"kind": "log_percapita", "i": "0"}),
    "functionals_object": lambda c: c.update(task_params={"functionals": {"kind": "log_norm"}}),
    # once exited 1 with a TypeError after the task had run
    "int_output_dir": lambda c: c.update(output_dir=5),
}


@pytest.mark.parametrize("case", list(_MISTYPED_MORE))
def test_mistyped_config_value_exits_2_without_outputs(tmp_path, capsys, case):
    cfg = _simulate_cfg()
    _MISTYPED_MORE[case](cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_through_a_file_exits_2_before_any_stream_opens(tmp_path, capsys, monkeypatch, out):
    # once exited 1 with FileExistsError after the task had run
    _no_streams(monkeypatch)
    (tmp_path / "file").write_text("kept")
    assert main(["run", "--config", _write(tmp_path, _simulate_cfg()),
                 "--out", str(tmp_path / out)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize("eta_grid", [[0.5, 0.5000001], [0.01, 0.01]], ids=["same_name", "same_value"])
def test_eta_grid_entries_of_one_name_exit_2_without_outputs(tmp_path, capsys, eta_grid):
    # both would be reported under the one key S_eta=..., and one set lost
    cfg = _simulate_cfg()
    cfg["sim"]["eta_grid"] = eta_grid
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert "configuration error: eta_grid entries must differ in name" in capsys.readouterr().err
    assert not out.exists()


def test_thinning_is_an_unknown_sim_key(tmp_path, capsys):
    # runs keep no thinned samples, so the key that spaced them is refused
    cfg = _simulate_cfg()
    cfg["sim"]["thinning"] = 10
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert "configuration error: unknown sim keys ['thinning']" in capsys.readouterr().err
    assert not out.exists()


def _invade_lottery_cfg():
    return {
        "model": {
            "model": "lottery",
            "k": 3,
            "d": 0.1,
            "fecundity": [{"dist": "lognormal", "log_mean": 1.0, "log_sd": 0.3}] * 3,
        },
        "sim": {"seed": 3, "replicates": 1, "burn_in": 10, "horizon": 110},
        "task": "invade",
        "task_params": {"invader": 1, "resident_support": [0]},
    }


def test_empty_resident_support_exits_2_without_outputs(tmp_path, capsys):
    cfg = dict(_invade_lottery_cfg(), task_params={"invader": 1, "resident_support": []})
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert "configuration error: face support must be nonempty" in capsys.readouterr().err
    assert not out.exists()


def test_invade_writes_the_sorted_support_it_ran(tmp_path):
    # the face run is (0, 1) whatever the order given; before, results.json
    # wrote the support as given, [1, 0], beside the CSV face 0+1
    cfg = dict(_invade_lottery_cfg(), task_params={"invader": 2, "resident_support": [1, 0]})
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())["results"]
    assert results["resident_support"] == [0, 1]
    assert [row["face"] for row in csv.DictReader((out / "results.csv").open())] == ["0+1"]


def _set_log_sd(cfg, value):
    cfg["model"]["fecundity"] = [dict(cfg["model"]["fecundity"][0], log_sd=value)] * 3


# (edit of the lottery invade config, expected stderr); before model and
# task parameters were type-checked, the first two ran as invader 1 and k = 3
# and exited 0, the last three exited 1 with a ValueError traceback
_MISTYPED_PARAMS = {
    "fractional_invader": (lambda c: c["task_params"].update(invader=1.7),
                           "task_params invader must be an integer, got 1.7"),
    "fractional_k": (lambda c: c["model"].update(k=3.5), "lottery k must be an integer, got 3.5"),
    "string_resident": (lambda c: c["task_params"].update(resident_support=["a"]),
                        "task_params resident_support entry must be an integer, got 'a'"),
    "string_d": (lambda c: c["model"].update(d="0.1x"), "lottery d must be a number, got '0.1x'"),
    "string_log_sd": (lambda c: _set_log_sd(c, "0.3"),
                      "lognormal log_sd must be a number, got '0.3'"),
}


@pytest.mark.parametrize("case", list(_MISTYPED_PARAMS))
def test_mistyped_model_or_task_param_exits_2_through_the_module(tmp_path, case):
    edit, message = _MISTYPED_PARAMS[case]
    cfg = _invade_lottery_cfg()
    edit(cfg)
    proc, out = _run_module(tmp_path, cfg)
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr and message in proc.stderr
    assert not out.exists()


def _drift_cfg():
    return {
        "model": {"model": "hassell", "lam": {"dist": "lognormal", "log_mean": 0.3,
                                              "log_sd": 0.3}, "b": 1.0},
        "sim": {"seed": 3, "horizon": 100},
        "task": "drift",
    }


def _rps_cfg():
    return {
        "model": {"model": "rps_lottery", "d": 0.1, "alpha": 3.2, "beta": 2.0, "gamma": 1.0},
        "sim": {"seed": 3, "horizon": 100},
        "task": "rps",
    }


def _gamma_task_cfg():
    return {
        "model": {"model": "biennial", "p": 0.5, "a": 0.5, "b1": 1.0, "b2": 1.0,
                  "xi": {"dist": "gamma", "shape": 2.0, "scale": 2.0}},
        "sim": {"seed": 3, "horizon": 100},
        "task": "gamma",
    }


def _model_cfg(model):
    return dict(_drift_cfg(), model=model)


# (config, expected stderr): each value is a bool, a fractional float or a
# string where a number or an integer is required
_MISTYPED_PARAMS_MORE = {
    "bool_invader": (dict(_invade_lottery_cfg(), task_params={"invader": True,
                                                              "resident_support": [0]}),
                     "task_params invader must be an integer"),
    "scalar_resident_support": (dict(_invade_lottery_cfg(), task_params={
        "invader": 1, "resident_support": 0}), "task_params resident_support must be a list"),
    "bool_n_pairs": (dict(_drift_cfg(), task_params={"n_pairs": True}),
                     "task_params n_pairs must be an integer"),
    "string_margin": (dict(_drift_cfg(), task_params={"margin": "0.1"}),
                      "task_params margin must be a number"),
    "fractional_domination_steps": (dict(_drift_cfg(), task_params={"domination_steps": 2.5}),
                                    "task_params domination_steps must be an integer"),
    "fractional_rps_n": (dict(_rps_cfg(), task_params={"n": 500.5}),
                         "task_params n must be an integer"),
    "string_rps_d": (dict(_rps_cfg(), task_params={"d": "0.1"}), "task_params d must be a number"),
    "string_rel_tol": (dict(_gamma_task_cfg(), task_params={"rel_tol": "1e-9"}),
                       "task_params rel_tol must be a number"),
    "bool_k": (dict(_invade_lottery_cfg(), model=dict(_invade_lottery_cfg()["model"], k=True)),
               "lottery k must be an integer"),
    "string_beverton_holt_s": (_model_cfg({"model": "beverton_holt", "lam": 2.0, "a": 1.0,
                                           "s": "0.5"}), "beverton_holt s must be a number"),
    "string_alpha": (_model_cfg({"model": "ricker_competition", "r": [1.0, 0.8],
                                 "alpha": ["0.6", 0.5]}),
                     "ricker_competition alpha entry must be a number"),
    "bool_biennial_p": (dict(_gamma_task_cfg(), model=dict(_gamma_task_cfg()["model"], p=False)),
                        "biennial p must be a number"),
    "string_rps_model_d": (dict(_rps_cfg(), model=dict(_rps_cfg()["model"], d="0.1")),
                           "rps_lottery d must be a number"),
    "string_constant": (_model_cfg({"model": "hassell", "lam": 2.0,
                                    "b": {"dist": "constant", "value": "1"}}),
                        "constant value must be a number"),
    "bool_normal_mean": (_model_cfg({"model": "ricker", "a": 1.0,
                                     "r": {"dist": "normal", "mean": True, "sd": 0.3}}),
                         "normal mean must be a number"),
    "string_discrete_prob": (_model_cfg({"model": "hassell", "lam": 2.0, "b": {
        "dist": "discrete", "values": [1.0, 2.0], "probs": ["0.5", 0.5]}}),
                             "discrete probs entry must be a number"),
    "scalar_discrete_values": (_model_cfg({"model": "hassell", "lam": 2.0, "b": {
        "dist": "discrete", "values": 1.0, "probs": [1.0]}}),
                               "discrete values must be a list"),
    # an integer no float can hold
    "huge_int_log_sd": (_model_cfg({"model": "hassell", "b": 1.0, "lam": {
        "dist": "lognormal", "log_mean": 0.3, "log_sd": 10**400}}),
                        "lognormal log_sd is out of range"),
    # a kind that is no string; both once exited 1 with a TypeError traceback
    "list_dist_kind": (_model_cfg({"model": "hassell", "b": 1.0, "lam": {
        "dist": ["lognormal"], "log_mean": 0.3, "log_sd": 0.3}}),
                       "unknown distribution kind ['lognormal']"),
    "dict_dist_kind": (_model_cfg({"model": "hassell", "b": 1.0, "lam": {
        "dist": {"kind": "lognormal"}, "log_mean": 0.3, "log_sd": 0.3}}),
                       "unknown distribution kind {'kind': 'lognormal'}"),
}

# (config, expected stderr): sample sizes too small for an estimate with a
# standard error; before they were refused, rps n = 1 exited 0 with SE 0 and
# a decisive verdict from one draw, n = 0 exited 0 with nan, and rps n = -3
# and drift n_pairs = 0 exited 1 with a traceback
_TOO_FEW_SAMPLES = {
    "rps_n_1": (dict(_rps_cfg(), task_params={"n": 1}), "need at least 2 draws"),
    "rps_n_0": (dict(_rps_cfg(), task_params={"n": 0}), "need at least 2 draws"),
    "rps_n_-3": (dict(_rps_cfg(), task_params={"n": -3}), "need at least 2 draws"),
    "drift_n_pairs_0": (dict(_drift_cfg(), task_params={"n_pairs": 0}),
                        "need at least 1 (x, w) pair"),
    "drift_n_pairs_-1": (dict(_drift_cfg(), task_params={"n_pairs": -1}),
                         "need at least 1 (x, w) pair"),
}


# (config, expected stderr): integers out of range; before they were
# refused, a seed outside [0, 2**64) ended in numpy's OverflowError (exit 1,
# with a traceback), and a negative domination_steps exited 0 as if it were 0
_OUT_OF_RANGE = {
    "negative_seed": (dict(_simulate_cfg(), sim=dict(_simulate_cfg()["sim"], seed=-1)),
                      "seed must lie in [0, 2**64), got -1"),
    "seed_2_64": (dict(_simulate_cfg(), sim=dict(_simulate_cfg()["sim"], seed=2**64)),
                  f"seed must lie in [0, 2**64), got {2**64}"),
    "negative_domination_steps": (dict(_drift_cfg(), task_params={"domination_steps": -5}),
                                  "task_params domination_steps must be nonnegative, got -5"),
}
# (config, expected stderr): the exponent is renormalized in the l1 norm
# only, so the key that chose the norm is read by no task
_RETIRED_PARAMS = {
    "gamma_norm": (dict(_gamma_task_cfg(), task_params={"norm": "l1"}),
                   "unknown gamma task_params ['norm']"),
    "lyapunov_norm": (dict(_gamma_task_cfg(), task="lyapunov", task_params={"norm": "l1"}),
                      "unknown lyapunov task_params ['norm']"),
}
# (config, expected stderr): an environment that can draw outside the
# model's domain, refused from its range before any stream opens.  Before
# draws were checked, ricker with a negative density coefficient took its
# verdict on the rate at zero as the large-density limit, then exited 3 on a
# non-finite state in the confirming run; before the range decided it,
# hassell's Normal(2, 0.3) lam (least draw -0.488) ran unless a draw at or
# below zero landed, and LogNormal(0, 300) entries overflowed to inf and
# exited 3
_OUT_OF_DOMAIN = {
    "ricker_negative_a": (dict(_classify_cfg(), model={
        "model": "ricker", "a": -0.5, "r": {"dist": "normal", "mean": 0.0, "sd": 0.3}}),
        "ricker needs a >= 0 (least draws [-2.4877"),
    "hassell_normal_lam": (dict(_simulate_cfg(), model={
        "model": "hassell", "b": 1.0, "lam": {"dist": "normal", "mean": 2.0, "sd": 0.3}}),
        "hassell needs lam > 0 and b >= 0 (least draws [-0.4877"),
    "linear_matrix_lognormal_overflow": (dict(_gamma_task_cfg(), task="lyapunov", model={
        "model": "linear_matrix",
        "entries": [[{"dist": "lognormal", "log_mean": 0.0, "log_sd": 300.0}]]}),
        "draws must be finite (least, greatest [[0.0], [inf]])"),
}
# (config, expected stderr): a resident support that repeats a species;
# before it was refused, it exited 0 and wrote the face 0+0 for face (0,)
_REPEATED_SPECIES = {
    "repeated_resident": (dict(_invade_lottery_cfg(), task_params={
        "invader": 1, "resident_support": [0, 0]}), "face support (0, 0) names a species twice"),
}
_REFUSED_PARAMS = {**_MISTYPED_PARAMS_MORE, **_TOO_FEW_SAMPLES, **_OUT_OF_RANGE,
                   **_RETIRED_PARAMS, **_OUT_OF_DOMAIN, **_REPEATED_SPECIES}


@pytest.mark.parametrize("case", list(_REFUSED_PARAMS))
def test_mistyped_model_or_task_param_exits_2_without_outputs(tmp_path, capsys, case):
    cfg, message = _REFUSED_PARAMS[case]
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("case", list(_OUT_OF_DOMAIN))
def test_out_of_domain_config_exits_2_before_any_stream_opens(tmp_path, monkeypatch, case):
    _no_streams(monkeypatch)
    cfg, _ = _OUT_OF_DOMAIN[case]
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_seed_flag_outside_64_bits_exits_2_without_outputs(tmp_path, capsys):
    for seed in (-5, 2**64):
        out = tmp_path / f"out{seed}"
        args = ["--out", str(out), "--seed", str(seed)]
        assert main(["run", "--config", _write(tmp_path, _simulate_cfg()), *args]) == 2
        assert f"seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()


def test_seed_flag_with_a_sim_that_is_no_object_exits_2_without_outputs(tmp_path, capsys):
    # the seed was once written into the sim before its type was checked,
    # which exited 1 with a TypeError
    out = tmp_path / "out"
    cfg_path = _write(tmp_path, dict(_simulate_cfg(), sim=[1]))
    assert main(["run", "--config", cfg_path, "--out", str(out), "--seed", "1"]) == 2
    assert "configuration error: sim section must be an object" in capsys.readouterr().err
    assert not out.exists()


def _ricker_cfg(**normal):
    return {
        "model": {"model": "ricker", "a": 1.0,
                  "r": dict({"dist": "normal", "mean": 1.0, "sd": 0.3}, **normal)},
        "sim": {"seed": 3, "replicates": 2, "horizon": 100},
        "task": "simulate",
    }


# (config, extra arguments, expected stderr): json.loads reads NaN, Infinity
# and -Infinity; before numbers were checked to be finite, the first two
# exited 3 with "non-finite state for replicate 0" and the others failed a
# later check whose message did not name the value.  The last two set a key
# through a value that is not an object: the first once turned the
# fecundity list into {"0": {...}} and exited 2 on a misleading count of
# distributions, the second exited 1 with a TypeError
_REFUSED_BY_THE_MODULE = {
    "nan_normal_mean": (_ricker_cfg(mean=math.nan), (), "normal mean must be finite, got nan"),
    "infinite_normal_sd": (_ricker_cfg(sd=math.inf), (), "normal sd must be finite, got inf"),
    "nan_bound_radius_by_set": (_ricker_cfg(), ("--set", "sim.bound_radius=NaN"),
                                "sim bound_radius must be finite, got nan"),
    "nan_margin": (dict(_drift_cfg(), task_params={"margin": math.nan}), (),
                   "task_params margin must be finite, got nan"),
    "negative_infinite_constant": (_ricker_cfg(), ("--set", "model.a=-Infinity"),
                                   "constant value must be finite, got -inf"),
    "set_through_a_list": (_permanence_cfg(), ("--set", "model.fecundity.0.log_sd=0.5"),
                           "--set model.fecundity.0.log_sd: model.fecundity is not an object"),
    "set_on_a_list_config": ([_ricker_cfg()], ("--set", "sim.seed=1"),
                             "--set sim.seed: the config is not an object"),
}


@pytest.mark.parametrize("case", list(_REFUSED_BY_THE_MODULE))
def test_refused_config_exits_2_through_the_module(tmp_path, case):
    cfg, args, message = _REFUSED_BY_THE_MODULE[case]
    proc, out = _run_module(tmp_path, cfg, *args)
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr and message in proc.stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# Output bytes against the writer that converted every field on the way out


def _reference_jsonable(obj):
    if isinstance(obj, RateEstimate):
        return _reference_jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _reference_outputs(cfg, explore=False) -> dict:
    """The bytes of each output file when the runner's results and rows go
    through ``_reference_jsonable`` and the stdlib's writers.  Under
    ``explore`` the report gains the ensemble hit probability of each eta at
    the horizon, and every verdict, ``not_permanent``, ``weights_verdict``,
    ``hypotheses_hold`` and ``domination.ok`` reads "exploratory"."""
    model, envspec = parse_model(cfg["model"])
    if "env" in cfg:
        envspec = parse_env_spec(cfg["env"])
    sim = cli._parse_sim(cfg["sim"])
    resolved = dict(cfg, env=env_to_config(envspec))
    resolved_json = json.dumps(_reference_jsonable(resolved), sort_keys=True, indent=2)
    results, rows, extra = cli._RUNNERS[cfg["task"]](model, envspec, sim,
                                                     cfg.get("task_params", {}), lambda v: v)
    if explore:
        hits = {}
        for eta in sim.eta_grid:
            name = f"S_eta={eta:g}"
            hits[name] = est = engine.ensemble_hit_probability(
                model, envspec, sim, engine.ExtinctionNeighborhood(eta), sim.horizon)
            rows.append(dict(task=cfg["task"], quantity=f"ensemble_hit[{name}]@t={sim.horizon}",
                             species="", face="", mean=est.mean, std_error=est.std_error,
                             n=est.n, verdict=""))
        results = dict(results, exploratory={
            "ensemble_hit_at_horizon": hits,
            "note": "raw statistics only; nothing here is adjudicated",
        })
        for key in ("verdict", "not_permanent", "weights_verdict", "hypotheses_hold"):
            if key in results:
                results[key] = "exploratory"
        if "domination" in results:
            results["domination"] = dict(results["domination"], ok="exploratory")
        for row in rows:
            if row["verdict"]:
                row["verdict"] = "exploratory"
    report = {
        "task": cfg["task"],
        "provenance": {
            "package": "stochpop",
            "version": stochpop.__version__,
            "seed": sim.seed,
            "config_sha256": hashlib.sha256(resolved_json.encode()).hexdigest(),
            "explore": explore,
        },
        "config": json.loads(resolved_json),
        "results": _reference_jsonable(results),
        "estimates": _reference_jsonable(rows),
    }
    files = {"results.json": (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()}
    for name, file_rows in {"results.csv": report["estimates"], **extra}.items():
        fh = io.StringIO(newline="")
        writer = csv.DictWriter(fh, fieldnames=cli._CSV_FIELDS[name])
        writer.writeheader()
        for row in file_rows:
            writer.writerow({k: _reference_jsonable(v) for k, v in row.items()})
        files[name] = fh.getvalue().encode()
    return files


def _gamma_cfg():
    return {
        "model": {"model": "biennial", "p": 0.5, "a": 0.5, "b1": 1.0, "b2": 1.0,
                  "xi": {"dist": "gamma", "shape": 2.0, "scale": 2.0}},
        "sim": {"seed": 2, "replicates": 3, "burn_in": 10, "horizon": 600},
        "task": "gamma",
    }


def _simulate_all_cfg():
    cfg = _simulate_cfg()
    cfg["task_params"] = {"functionals": [{"kind": "coordinate", "i": 0},
                                          {"kind": "log_percapita", "i": 0},
                                          {"kind": "log_norm"}]}
    return cfg


def _drift_domination_cfg():
    return dict(_drift_cfg(), task_params={"n_pairs": 5000, "domination_steps": 50})


def _lyapunov_cfg():
    return dict(_gamma_cfg(), task="lyapunov")


def _simulate_linear_cfg():
    # the one structured model, so the linear step and its measurement run
    return dict(_gamma_cfg(), sim=dict(_gamma_cfg()["sim"], eta_grid=[0.01], bound_radius=5.0),
                task="simulate",
                task_params={"functionals": [{"kind": "coordinate", "i": 0},
                                             {"kind": "coordinate", "i": 1},
                                             {"kind": "log_norm"}]})


def _classify_one_replicate_cfg():
    # one replicate's occupation SE comes from its time batches
    return dict(_classify_cfg(), sim=dict(_classify_cfg()["sim"], replicates=1))


def _rps_permanence_cfg():
    return {
        "model": {"model": "rps_lottery", "d": 0.1, "alpha": 3.2, "beta": 2.0, "gamma": 1.0},
        "env": {"coords": [{"dist": "uniform", "lo": 3.0, "hi": 3.5},
                           {"dist": "uniform", "lo": 1.5, "hi": 2.5},
                           {"dist": "uniform", "lo": 0.5, "hi": 1.2}]},
        "sim": {"seed": 3, "burn_in": 10, "horizon": 1010},
        "task": "permanence",
    }


def _cyclic_lottery_cfg():
    # every vertex is invadable, but the exact condition fails (-0.0645), so
    # the cycle through the vertices attracts and no permanence weights exist
    return {
        "model": {"model": "rps_lottery", "d": 0.5, "alpha": 3.0, "beta": 2.0, "gamma": 1.0},
        "sim": {"seed": 16, "burn_in": 100, "horizon": 2100},
        "task": "permanence",
    }


def _invade_rps_cfg():
    return dict(_rps_permanence_cfg(), task="invade",
                task_params={"invader": 1, "resident_support": [0]})


def _dominance_cfg():
    # species 0 dominates, so face (0,) is not invaded and not_permanent is true
    return {
        "model": {"model": "lottery", "k": 2, "d": 0.2,
                  "fecundity": [{"dist": "constant", "value": 3.0},
                                {"dist": "constant", "value": 2.0}]},
        "sim": {"seed": 14, "replicates": 1, "burn_in": 100, "horizon": 2100},
        "task": "permanence",
    }


def _drift_audit_cfg():
    return dict(_drift_cfg(), sim={"seed": 1, "horizon": 100},
                task_params={"n_pairs": 2000, "domination_steps": 200})


# (config, explore): every task, invade and permanence on the cyclic lottery
# too (only its vertices are evaluated) and permanence with every face
# degenerate (its weight search is inconclusive), simulate on the linear
# model and classify on one replicate, the two whose --explore run adds rows,
# and the two whose not_permanent and domination.ok claims --explore once
# left in place
_BYTE_CASES = {
    "simulate": (_simulate_all_cfg, False),
    "simulate_linear": (_simulate_linear_cfg, False),
    "classify": (_classify_cfg, False),
    "classify_one_replicate": (_classify_one_replicate_cfg, False),
    "invade": (_invade_lottery_cfg, False),
    "invade_rps": (_invade_rps_cfg, False),
    "permanence": (_permanence_cfg, False),
    "permanence_rps": (_rps_permanence_cfg, False),
    "permanence_cyclic": (_cyclic_lottery_cfg, False),
    "permanence_degenerate": (_degenerate_cfg, False),
    "drift": (_drift_domination_cfg, False),
    "rps": (_rps_cfg, False),
    "gamma": (_gamma_cfg, False),
    "lyapunov": (_lyapunov_cfg, False),
    "simulate_explore": (_simulate_cfg, True),
    "classify_explore": (_classify_cfg, True),
    "permanence_explore": (_dominance_cfg, True),
    "drift_explore": (_drift_audit_cfg, True),
}


@pytest.mark.parametrize("case", list(_BYTE_CASES))
def test_output_bytes_match_the_per_field_writer(tmp_path, case):
    # the runners hand their values over unconverted, so a numpy leaf left in
    # any of them fails here
    make_cfg, explore = _BYTE_CASES[case]
    out = tmp_path / "out"
    run_config(make_cfg(), out_dir=out, explore=explore)
    want = _reference_outputs(make_cfg(), explore)
    assert sorted(p.name for p in out.iterdir()) == sorted(want)
    for name, blob in want.items():
        assert (out / name).read_bytes() == blob, name


@pytest.mark.parametrize("make_cfg", [_rps_permanence_cfg, _permanence_cfg, _invade_rps_cfg],
                         ids=["rps_permanence", "lottery_permanence", "rps_invade"])
def test_a_start_off_a_vertex_is_refused_alike_by_every_face_task(tmp_path, make_cfg):
    # the cyclic lottery's permanence run once ignored the start and exited 0
    cfg = make_cfg()
    cfg["sim"]["initial_state"] = [0.2, 0.3, 0.5]
    with pytest.raises(ConfigurationError, match="^initial_state must vanish outside the face "
                                                 "support$"):
        run_config(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# a supplied start that vanishes on a species of the face support once ran
# the smaller face under the face's name and exited 0:
# permanence on the competition model ran both faces at the origin and read
# "persistent", invade read r1's mean into an empty community, and the
# lottery edge (0, 1) from e0 read the vertex e0's rate
def _competition_from_origin_cfg():
    return {
        "model": {"model": "ricker_competition",
                  "r": [{"dist": "normal", "mean": 1.0, "sd": 0.3}] * 2, "alpha": [0.5, 0.5]},
        "sim": {"seed": 0, "burn_in": 200, "horizon": 2000, "initial_state": [0, 0]},
        "task": "permanence",
    }


_OFF_FACE_STARTS = {
    "competition_permanence": _competition_from_origin_cfg(),
    "competition_invade": dict(_competition_from_origin_cfg(), task="invade",
                               task_params={"invader": 1, "resident_support": [0]}),
    "lottery_edge_from_a_vertex": dict(
        _invade_lottery_cfg(),
        sim={"seed": 0, "burn_in": 200, "horizon": 2000, "initial_state": [1, 0, 0]},
        task_params={"invader": 2, "resident_support": [0, 1]}),
}


@pytest.mark.parametrize("case", list(_OFF_FACE_STARTS))
def test_a_start_that_vanishes_on_the_face_exits_2_without_outputs(tmp_path, capsys, case):
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, _OFF_FACE_STARTS[case]),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: initial_state must be positive on the face support" in err, err
    assert not out.exists()


_PERMANENCE_CASES = [case for case, (make_cfg, _) in _BYTE_CASES.items()
                     if make_cfg()["task"] == "permanence"]


@pytest.mark.parametrize("case", _PERMANENCE_CASES)
def test_a_permanence_report_returns_the_weight_search_it_decided_with(case):
    cfg = _BYTE_CASES[case][0]()
    model, envspec = parse_model(cfg["model"])
    if "env" in cfg:
        envspec = parse_env_spec(cfg["env"])
    report = persist.boundary_invasion_report(model, envspec, cli._parse_sim(cfg["sim"]))
    search = persist.find_persistence_weights(report)
    assert (report["weights"], report["weights_verdict"]) == (search["weights"],
                                                              search["verdict"])


@pytest.mark.parametrize("make_cfg", [_permanence_cfg, _cyclic_lottery_cfg],
                         ids=["lottery", "cyclic_lottery"])
def test_a_permanence_run_searches_for_weights_once(tmp_path, monkeypatch, make_cfg):
    # the task once searched again for its weights rows when every face was
    # invadable; each call records the module that made it
    callers = []

    def counting(report, real=persist.find_persistence_weights):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real(report)

    monkeypatch.setattr(persist, "find_persistence_weights", counting)
    run_config(make_cfg(), out_dir=tmp_path / "out")
    assert callers == ["stochpop.persist"]


# (case, the library call that makes its runner's report, the keys the runner adds)
_LIBRARY_REPORTS = [
    ("simulate", lambda model, envspec, sim, params: engine.simulate(
        model, envspec, sim, cli._parse_functionals(params["functionals"])), ()),
    ("permanence", lambda model, envspec, sim, params: persist.boundary_invasion_report(
        model, envspec, sim), ()),
    ("classify", lambda model, envspec, sim, params: persist.scalar_classify(model, envspec, sim),
     ()),
    ("drift", lambda model, envspec, sim, params: persist.drift_bounded_check(
        model, envspec, persist.drift_construction(model, envspec, seed=sim.seed),
        params["n_pairs"], seed=sim.seed), ("domination",)),
    ("rps", lambda model, envspec, sim, params: persist.rps_condition(
        envspec, model.d, 10_000, seed=sim.seed), ("d",)),
]


@pytest.mark.parametrize("case, library_call, added", _LIBRARY_REPORTS,
                         ids=[case for case, _, _ in _LIBRARY_REPORTS])
def test_a_runner_writes_the_library_report_as_it_returns_it(case, library_call, added):
    # no field is copied under a new name: the results are the library's
    # report, plus only the keys the runner adds
    cfg = _BYTE_CASES[case][0]()
    model, envspec = parse_model(cfg["model"])
    sim = cli._parse_sim(cfg["sim"])
    params = cfg.get("task_params", {})
    results, _, _ = cli._RUNNERS[cfg["task"]](model, envspec, sim, params, lambda v: v)
    report = library_call(model, envspec, sim, params)
    assert results == dict(report, **{key: results[key] for key in added})


# every word a report writes as a claim: the verdict kinds, the weights
# rows', the drift and audit rows' and the rps verdicts
_VERDICT_WORDS = {"extinction", "explosion", "persistent", "inconclusive", "feasible",
                  "infeasible", "hypotheses hold", "hypotheses not shown", "dominates",
                  "violated", "fails", "persists"}


def _leaves(node, path=()):
    """``{path: value}`` of every leaf of a decoded JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {p: v for key, child in items for p, v in _leaves(child, path + (key,)).items()}
    return {path: node}


@pytest.mark.parametrize("case", list(_BYTE_CASES))
def test_explore_replaces_every_claim_and_nothing_else(tmp_path, case):
    make_cfg, _ = _BYTE_CASES[case]
    run_config(make_cfg(), out_dir=tmp_path / "plain")
    run_config(make_cfg(), out_dir=tmp_path / "explore", explore=True)
    plain, explored = (json.loads((tmp_path / side / "results.json").read_text())
                       for side in ("plain", "explore"))
    assert plain["provenance"].pop("explore") is False
    assert explored["provenance"].pop("explore") is True
    hits = explored["results"].pop("exploratory")["ensemble_hit_at_horizon"]
    hit_rows = explored["estimates"][len(plain["estimates"]):]
    del explored["estimates"][len(plain["estimates"]):]
    horizon = plain["config"]["sim"]["horizon"]
    assert [r["quantity"] for r in hit_rows] == [f"ensemble_hit[{n}]@t={horizon}" for n in hits]
    # the two reports differ only where a claim (a bool or a verdict word)
    # reads "exploratory": estimates, margins, weights, slacks, violations
    # and annotations all stay
    before, after = _leaves(plain), _leaves(explored)
    assert before.keys() == after.keys()
    claims = {path: value for path, value in before.items() if after[path] != value}
    assert all(after[path] == "exploratory" for path in claims), claims
    assert all(isinstance(v, bool) or v in _VERDICT_WORDS for v in claims.values()), claims
    assert bool(claims) == (plain["task"] in ("classify", "permanence", "drift", "rps"))
    for path, value in after.items():
        assert not isinstance(value, bool) or path[:2] + path[3:] == (
            "results", "replicates", "extinct"), path
        assert value not in _VERDICT_WORDS, path
    with (tmp_path / "explore" / "results.csv").open() as fh:
        assert {row["verdict"] for row in csv.DictReader(fh)} <= {"", "exploratory"}
    for name in os.listdir(tmp_path / "plain"):
        if name not in ("results.json", "results.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == (
                tmp_path / "explore" / name).read_bytes(), name


@pytest.mark.parametrize("make_cfg, path", [(_dominance_cfg, ("not_permanent",)),
                                            (_drift_audit_cfg, ("domination", "ok"))],
                         ids=["not_permanent", "domination_ok"])
def test_explore_replaces_a_claim_it_once_left_in_place(tmp_path, make_cfg, path):
    for explore, want in ((False, True), (True, "exploratory")):
        node = run_config(make_cfg(), out_dir=tmp_path / str(explore), explore=explore)["results"]
        for key in path:
            node = node[key]
        assert node == want and type(node) is type(want)


# ---------------------------------------------------------------------------
# The package's JSON and CSV writers against the stdlib's


# each value written alone and inside containers, as the stdlib writes it
_JSON_VALUES = {
    "empty_containers_at_depth": {"a": {}, "b": [], "c": [{}, [], [[], {"d": {}}]], "e": ({},)},
    "non_ascii": {"Ωmega": "naïve ☃ \U0001f600", "日本": ["ü", " "]},
    "control_characters": ["\x00\x01\x1f\x7f", "tab\tnew\nline\r", 'quote " back \\ slash'],
    "floats": [0.1, -0.0, 0.0, 5e-324, 1e308, -1e308, 1e16, 1e-7, 2.5, 1 / 3],
    "non_finite": {"nan": math.nan, "inf": math.inf, "ninf": -math.inf},
    "ints": [0, -1, 2**64, -(10**300), 10**4000],
    "bools_and_none": {"t": True, "f": False, "n": None, "l": [True, False, None]},
    "tuples": (1, (2.5, ("x", ())), [(), (None,)]),
    "leaf": "top-level ü",
    "float_leaf": math.inf,
    "nested_report": {"b": [{"z": 1, "a": [1.5, {"y": None}]}], "a": {"c": {"d": [[0.5]]}}},
}


@pytest.mark.parametrize("case", list(_JSON_VALUES))
def test_json_writer_matches_the_stdlib_on_every_leaf(case):
    value = _JSON_VALUES[case]
    for doc in (value, [value], {"wrapped": value, "x": [value, {"y": value}]}):
        fh = io.StringIO()
        cli._write_json(fh, doc)
        # a non-finite float is written as the string the reports have always
        # held, not as json's NaN or Infinity
        want = _reference_jsonable(doc) if case in ("non_finite", "float_leaf") else doc
        assert fh.getvalue() == json.dumps(want, sort_keys=True, indent=2)


def test_json_writer_writes_a_rate_estimate_as_its_fields():
    est = RateEstimate(-0.25, 1e-3, 20, 4000)
    fields = dataclasses.asdict(est)
    for doc, want in (({"rate": est, "a": [est]}, {"rate": fields, "a": [fields]}),
                      ([{"x": est}, est], [{"x": fields}, fields]),
                      (est, fields)):
        fh = io.StringIO()
        cli._write_json(fh, doc)
        assert fh.getvalue() == json.dumps(want, sort_keys=True, indent=2)


def test_json_writer_flushes_a_long_document_in_parts(monkeypatch):
    monkeypatch.setattr(cli, "_FLUSH_PARTS", 16)
    doc = {"rows": [{"i": i, "x": [i / 7, {"s": str(i)}]} for i in range(500)]}
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    fh = Sink()
    cli._write_json(fh, doc)
    assert fh.getvalue() == json.dumps(doc, sort_keys=True, indent=2)
    assert len(writes) > 100 and max(writes) < len(fh.getvalue()) / 50


# the stdlib refuses the first four and writes the rest; reports hold none
# of them, since every runner hands over plain values with str keys
@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", np.int64(3), np.float64(0.5),
                                 np.bool_(True), {1: "int key"}, {None: "null key"}])
def test_json_writer_refuses_a_value_reports_do_not_hold(bad):
    for doc in (bad, {"x": [bad]}, [{"y": bad}]):
        with pytest.raises(TypeError):
            cli._write_json(io.StringIO(), doc)


def test_a_leaf_that_is_not_json_leaves_no_outputs(tmp_path, monkeypatch):
    task_simulate = cli._RUNNERS["simulate"]

    def bad_results(*args):
        results, rows, extra = task_simulate(*args)
        results["replicates"][-1]["note"] = object()  # past the first flushed parts
        return results, rows, extra

    monkeypatch.setitem(cli._RUNNERS, "simulate", bad_results)
    monkeypatch.setattr(cli, "_FLUSH_PARTS", 8)
    out = tmp_path / "out"
    with pytest.raises(TypeError, match="not JSON serializable"):
        run_config(_simulate_cfg(), out_dir=out)
    assert list(out.iterdir()) == []


def test_a_config_value_no_report_holds_is_refused_before_the_task_runs(tmp_path, monkeypatch):
    # a Python caller's numpy float passes the config's number checks, but
    # the writer refuses it, so it is refused before the run, not after
    ran = []
    monkeypatch.setitem(cli._RUNNERS, "simulate", lambda *args: ran.append(args))
    cfg = _simulate_cfg()
    cfg["sim"]["bound_radius"] = np.float64(5.0)
    with pytest.raises(TypeError, match="float64 is not JSON serializable"):
        run_config(cfg, out_dir=tmp_path / "out")
    assert not ran and not (tmp_path / "out").exists()


def test_csv_writer_matches_dict_writer():
    fields = cli._CSV_FIELDS["results.csv"]
    two = [dict(zip(fields, ("t", "q", 1, "0+1", 0.1, -0.0, 10**20, "a,\"b\"\n"))),
           dict(zip(fields, ("", "", "", "", 5e-324, math.nan, None, True)))]
    for rows in ([], two, two * 3):
        want = io.StringIO(newline="")
        writer = csv.DictWriter(want, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        got = io.StringIO(newline="")
        cli._write_csv(got, fields, rows)
        assert got.getvalue() == want.getvalue()
    got = io.StringIO()
    with pytest.raises(ValueError, match="'unexpected'"):
        cli._write_csv(got, fields, two + [dict(two[0], unexpected=1)])
    assert got.getvalue() == ""


# (config, expected stderr): one measured step is one time batch, whose SE
# read 0.0; before it was refused, lottery permanence with burn_in 100 and
# horizon 101 exited 0 with every rate at std_error 0.0
def _one_step(cfg, burn_in=100):
    return dict(cfg, sim=dict(cfg["sim"], burn_in=burn_in, horizon=burn_in + 1))


_ONE_MEASURED_STEP = {
    "permanence": _one_step(_permanence_cfg()),
    "invade": _one_step(_invade_lottery_cfg()),
    "simulate": _one_step(_simulate_cfg()),
    "gamma": _one_step(_gamma_cfg(), burn_in=0),
    "lyapunov": dict(_one_step(_gamma_cfg()), task="lyapunov"),
    "classify_one_replicate": _one_step(_classify_one_replicate_cfg()),
}


@pytest.mark.parametrize("case", list(_ONE_MEASURED_STEP))
def test_one_measured_step_exits_2_without_outputs(tmp_path, capsys, case):
    out = tmp_path / "out"
    cfg_path = _write(tmp_path, _ONE_MEASURED_STEP[case])
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "at least 2 measured steps" in err, err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Stream keys: every stream is keyed by the run's own seed


# (config, explore): one config of each task; permanence on a lottery runs
# faces, on the cyclic lottery it evaluates the vertices; simulate --explore
# reads its hit fractions from the run's own terminal states
_KEY_CASES = dict(
    {case: (make_cfg, False) for case, (make_cfg, explore) in _BYTE_CASES.items()
     if not explore},
    simulate_explore=(_simulate_cfg, True),
)


def _opened_keys(tmp_path, monkeypatch, cfg, seed, explore) -> tuple:
    """The (seed, stream id) of every stream that one run opens, and the set
    of ids that ``engine._stream_id`` packed in the run."""
    opened, packed = [], set()

    def recording(seed, replicate_id=0, real=engine.make_stream):
        opened.append((seed, replicate_id))
        return real(seed, replicate_id)

    def packing(name, *indices, real=engine._stream_id):
        sid = real(name, *indices)
        packed.add(sid)
        return sid

    monkeypatch.setattr(engine, "make_stream", recording)
    for module in (engine, persist):  # the modules that pack stream ids
        monkeypatch.setattr(module, "_stream_id", packing)
    run_config(cfg, out_dir=tmp_path / f"out{seed}", seed=seed, explore=explore)
    monkeypatch.undo()
    return opened, packed


@pytest.mark.parametrize("case", list(_KEY_CASES))
def test_no_stream_key_is_opened_twice_or_shared_with_a_nearby_seed(tmp_path, monkeypatch, case):
    # the cyclic lottery's vertex j once drew from seed + 7j, so a run at
    # seed s + 7 reused the draws of vertex 1 at seed s, and each vertex's
    # stream was opened once per species.  Every opened id must also come
    # from the one table of stream namespaces
    make_cfg, explore = _KEY_CASES[case]
    seed = make_cfg()["sim"]["seed"]
    keys, packed = {}, {}
    for s in (seed, seed + 1, seed + 7):
        keys[s], packed[s] = _opened_keys(tmp_path, monkeypatch, make_cfg(), s, explore)
        assert {sid for _, sid in keys[s]} <= packed[s], s
    assert keys[seed] and len(set(keys[seed])) == len(keys[seed]), keys[seed]
    assert not set(keys[seed]) & (set(keys[seed + 1]) | set(keys[seed + 7]))
