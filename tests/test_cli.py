"""CLI contract: schema validation, exit codes, deterministic outputs."""

import csv
import json
import math

import pytest

from stochpop.cli import main, run_config
from stochpop.errors import ConfigurationError


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


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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
    cfg = {
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
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "replicates.csv").open()))
    assert {r["replicate"] for r in rows} == {"0", "1", "2", "pooled"}
    report = json.loads((out / "results.json").read_text())
    occ = report["results"]["pooled"]["occupation"]
    assert occ["outside_ball=5"] + occ["not[outside_ball=5]"] == pytest.approx(1.0, abs=1e-12)


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
