"""Configuration-driven experiment runner.

One task per invocation, declared in a JSON config:

    {"model": {...}, "env": {...}?, "sim": {...},
     "task": "simulate|classify|invade|permanence|drift|rps|gamma|lyapunov",
     "task_params": {...}?, "output_dir": "..."?}

Outputs are results.json (full report with provenance) and results.csv
(flat estimates table); the simulate task additionally writes
replicates.csv with per-replicate occupation and functional summaries.
Identical config and seed give byte-identical outputs; ``--threads`` is
accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__, engine, persist
from .engine import Coordinate, LogNorm, LogPerCapita, RateEstimate, SimConfig
from .env import config_int, config_list, config_number, env_to_config, is_int, parse_env_spec
from .errors import ConfigurationError, NumericError, StochpopError
from .lyap import GammaClosedFormInput, gamma_closed_form_detailed, lyapunov_mc
from .models import Biennial, model_info, parse_model
from .env import Gamma as GammaDist

_TOP_KEYS = {"model", "env", "sim", "task", "task_params", "output_dir"}
# The task_params keys each task reads; any other key is rejected.
_TASK_PARAMS = {
    "simulate": {"functionals"},
    "classify": set(),
    "invade": {"invader", "resident_support"},
    "permanence": set(),
    "drift": {"n_pairs", "margin", "domination_steps"},
    "rps": {"n", "d"},
    "gamma": {"rel_tol"},
    "lyapunov": set(),
}
_TASKS = tuple(_TASK_PARAMS)
# The header of each CSV output, in column order.
_CSV_FIELDS = {
    "results.csv": ("task", "quantity", "species", "face", "mean", "std_error", "n", "verdict"),
    "replicates.csv": ("replicate", "set_name", "occupation", "functional", "mean", "std_error",
                       "extinct"),
}
_SIM_KEYS = {f.name for f in dataclasses.fields(SimConfig)}
# sim keys that must be JSON integers
_SIM_INTS = ("seed", "replicates", "burn_in", "horizon")


def _container(value):
    return None


def _not_json(value):
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


# The one place that decides how a report value is written: the text of a
# leaf of each type the reports hold, made by C functions, so the writer makes
# no Python call per leaf; a container has no text, and any other type (a
# numpy scalar, say) is refused.
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    dict: _container,
    list: _container,
    tuple: _container,
    RateEstimate: _container,
}
# a non-finite float is written as a string, which any JSON reader accepts
_FLOAT_SPECIAL = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}
_FLUSH_PARTS = 4096  # parts held before they are written out


def _write_json(fh, obj):
    """Write ``obj`` to ``fh`` with the bytes of ``json.dump(obj, fh,
    sort_keys=True, indent=2)``, a few thousand parts at a time, so the
    document is never held whole.  Keys must be strings; a RateEstimate is
    written as the dict of its fields, and a non-finite float as the string
    "nan", "inf" or "-inf".  The stdlib encodes an indented document with a
    generator per container and a write per part; here each leaf is written
    inline."""
    parts = []
    append = parts.append
    leaf_text = _LEAF_TEXT.get
    special = _FLOAT_SPECIAL.get

    def encode(node, newline):
        inner = newline + "  "
        if isinstance(node, RateEstimate):
            node = vars(node)
        if isinstance(node, dict):
            if not node:
                append("{}")
                return
            sep = "{" + inner
            for key, value in sorted(node.items()):
                key = encode_basestring_ascii(key)  # a key that is not a str raises TypeError
                text = leaf_text(value.__class__, _not_json)(value)
                if text is None:
                    append(sep + key + ": ")
                    encode(value, inner)
                else:
                    append(sep + key + ": " + special(text, text))
                sep = "," + inner
            append(newline + "}")
        else:
            if not node:
                append("[]")
                return
            sep = "[" + inner
            for value in node:
                text = leaf_text(value.__class__, _not_json)(value)
                if text is None:
                    append(sep)
                    encode(value, inner)
                else:
                    append(sep + special(text, text))
                sep = "," + inner
            append(newline + "]")
        if len(parts) >= _FLUSH_PARTS:
            fh.write("".join(parts))
            parts.clear()

    text = leaf_text(obj.__class__, _not_json)(obj)
    if text is None:
        encode(obj, "\n")
    else:
        append(special(text, text))
    fh.write("".join(parts))


def _write_csv(fh, fields, rows):
    """Write a header and one line per row dict, with the bytes of
    ``csv.DictWriter``.  Every row holds every field; a key outside
    ``fields`` raises ``ValueError`` before anything is written."""
    extra = set().union(*rows).difference(fields)
    if extra:
        raise ValueError("dict contains fields not in fieldnames: "
                         + ", ".join(map(repr, extra)))
    writer = csv.writer(fh)
    writer.writerow(fields)
    writer.writerows(map(itemgetter(*fields), rows))


def _validate_top(cfg: dict):
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    extra = set(cfg) - _TOP_KEYS
    if extra:
        raise ConfigurationError(f"unknown config keys {sorted(extra)}")
    for key in ("model", "sim", "task"):
        if key not in cfg:
            raise ConfigurationError(f"config missing required key {key!r}")
    if cfg["task"] not in _TASKS:
        raise ConfigurationError(f"unknown task {cfg['task']!r}; choose from {_TASKS}")
    if not isinstance(cfg.get("output_dir", ""), str):
        raise ConfigurationError(f"output_dir must be a string, got {cfg['output_dir']!r}")


def _parse_sim(obj) -> SimConfig:
    if not isinstance(obj, dict):
        raise ConfigurationError("sim section must be an object")
    extra = set(obj) - _SIM_KEYS
    if extra:
        raise ConfigurationError(f"unknown sim keys {sorted(extra)}")
    if "seed" not in obj or "horizon" not in obj:
        raise ConfigurationError("sim section needs at least seed and horizon")
    for key in _SIM_INTS:
        if key in obj:
            config_int(obj[key], f"sim {key}")
    kw = dict(obj)
    if "eta_grid" in kw:
        kw["eta_grid"] = config_list(kw["eta_grid"], "sim eta_grid")
    if kw.get("bound_radius") is not None:
        config_number(kw["bound_radius"], "sim bound_radius")
    if not isinstance(kw.get("initial_state", ""), str):  # a start's name, or its coordinates
        kw["initial_state"] = config_list(kw["initial_state"], "sim initial_state")
    return SimConfig(**kw)


def _parse_functionals(spec_list):
    if not isinstance(spec_list, list):
        raise ConfigurationError(f"functionals must be a list, got {spec_list!r}")
    out = []
    for item in spec_list:
        if not isinstance(item, dict) or "kind" not in item:
            raise ConfigurationError(f"functional spec must be an object with 'kind': {item!r}")
        kind = item["kind"]
        if kind not in ("coordinate", "log_percapita", "log_norm"):
            raise ConfigurationError(f"unknown functional kind {kind!r}")
        extra = set(item) - ({"kind"} if kind == "log_norm" else {"kind", "i"})
        if extra:
            raise ConfigurationError(f"unknown keys {sorted(extra)} for {kind!r} functional")
        if kind == "log_norm":
            out.append(LogNorm())
        else:
            if not is_int(item.get("i")):
                raise ConfigurationError(f"{kind} functional needs an integer 'i': {item!r}")
            out.append((Coordinate if kind == "coordinate" else LogPerCapita)(item["i"]))
    return tuple(out)


def _face_label(support) -> str:
    return "+".join(str(int(i)) for i in sorted(support))


def _row(task, quantity, species="", face="", mean="", std_error="", n="", verdict=""):
    """One results.csv row; its values are plain Python scalars."""
    return {
        "task": task,
        "quantity": quantity,
        "species": species,
        "face": face,
        "mean": mean,
        "std_error": std_error,
        "n": n,
        "verdict": verdict,
    }


def _est_row(task, quantity, est: RateEstimate, species="", face="", verdict=""):
    return _row(task, quantity, species, face, est.mean, est.std_error, est.n, verdict)


def _replicate_rows(tag, summary, extinct):
    """The replicates.csv rows of one replicate's summary, or of the pool's:
    one per set, then one per functional."""
    rows = [{"replicate": tag, "set_name": name, "occupation": value, "functional": "",
             "mean": "", "std_error": "", "extinct": extinct}
            for name, value in summary["occupation"].items()]
    rows += [{"replicate": tag, "set_name": "", "occupation": "", "functional": name,
              "mean": est.mean, "std_error": est.std_error, "extinct": extinct}
             for name, est in summary["functional_averages"].items()]
    return rows


# ---------------------------------------------------------------------------
# Task runners: each returns (results_dict, estimate_rows, extra_files) as the
# library gives them, which the writers take as they are, and writes each claim
# it makes (a verdict, or a flag that decides one) as ``claim(value)``


def _task_simulate(model, envspec, sim, params, claim):
    functionals = _parse_functionals(params.get("functionals", []))
    results = engine.simulate(model, envspec, sim, functionals=functionals)
    pooled = results["pooled"]
    rows = [
        _row("simulate", f"occupation[{name}]", mean=val, n=sim.horizon - sim.burn_in)
        for name, val in pooled["occupation"].items()
    ]
    rows += [_est_row("simulate", name, est)
             for name, est in pooled["functional_averages"].items()]
    rows.append(_row("simulate", "extinct_fraction", mean=pooled["extinct_fraction"],
                     n=sim.replicates))
    csv_rows = [row for r, rep in enumerate(results["replicates"])
                for row in _replicate_rows(str(r), rep, int(rep["extinct"]))]
    csv_rows += _replicate_rows("pooled", pooled, pooled["extinct_fraction"])
    return results, rows, {"replicates.csv": csv_rows}


def _task_classify(model, envspec, sim, params, claim):
    report = persist.scalar_classify(model, envspec, sim)
    kind = claim(report["verdict"])
    rows = [
        _est_row("classify", name, est, verdict=kind)
        for name, est in report["evidence"].items()
    ]
    return dict(report, verdict=kind), rows, {}


def _task_invade(model, envspec, sim, params, claim):
    if "invader" not in params or "resident_support" not in params:
        raise ConfigurationError("invade task needs task_params invader and resident_support")
    invader = config_int(params["invader"], "task_params invader")
    support = config_list(params["resident_support"], "task_params resident_support", config_int)
    est = persist.invasion_rate(model, envspec, sim, invader, support)
    rows = [
        _est_row("invade", "invasion_rate", est, species=invader, face=_face_label(support))
    ]
    return {"invader": invader, "resident_support": sorted(support), "rate": est}, rows, {}


def _task_permanence(model, envspec, sim, params, claim):
    report = persist.boundary_invasion_report(model, envspec, sim)
    kind, weighed = claim(report["verdict"]), claim(report["weights_verdict"])
    rows = [_est_row("permanence", "invasion_rate", est, species=int(i),
                     face=_face_label(face["support"]), verdict=kind)
            for face in report["faces"] for i, est in face["rates"].items()]
    if report["weights"] is None:
        rows.append(_row("permanence", "weights", verdict=weighed))
    else:
        rows += [_row("permanence", "weight", species=i, mean=w, verdict=weighed)
                 for i, w in enumerate(report["weights"])]
    return dict(report, verdict=kind, not_permanent=claim(report["not_permanent"]),
                weights_verdict=weighed), rows, {}


def _task_drift(model, envspec, sim, params, claim):
    n_pairs = config_int(params.get("n_pairs", 100_000), "task_params n_pairs")
    margin = config_number(params.get("margin", 0.1), "task_params margin")
    steps = config_int(params.get("domination_steps", 0), "task_params domination_steps")
    if steps < 0:
        raise ConfigurationError(f"task_params domination_steps must be nonnegative, got {steps}")
    construction = persist.drift_construction(model, envspec, seed=sim.seed, margin=margin)
    report = persist.drift_bounded_check(model, envspec, construction, n_pairs, seed=sim.seed)
    results = dict(report, hypotheses_hold=claim(report["hypotheses_hold"]))
    verdict = claim("hypotheses hold" if report["hypotheses_hold"] else "hypotheses not shown")
    rows = [
        _est_row("drift", "E_log_alpha", report["E_log_alpha"], verdict=verdict),
        _est_row("drift", "E_logplus_alpha", report["E_logplus_alpha"]),
        _est_row("drift", "E_logplus_beta", report["E_logplus_beta"]),
        _row("drift", "violations", mean=report["violations"], n=n_pairs),
    ]
    if steps > 0:
        audit = persist.affine_domination_audit(
            model, envspec, construction, dataclasses.replace(sim, horizon=steps, burn_in=0)
        )
        results["domination"] = dict(audit, ok=claim(audit["ok"]))
        rows.append(
            _row(
                "drift",
                "domination_min_slack",
                mean=audit["min_slack"],
                n=steps,
                verdict=claim("dominates" if audit["ok"] else "violated"),
            )
        )
    return results, rows, {}


def _task_rps(model, envspec, sim, params, claim):
    if "d" in params:
        d = config_number(params["d"], "task_params d")
    elif hasattr(model, "d"):
        d = model.d
    else:
        raise ConfigurationError("rps task needs a death fraction (model.d or task_params.d)")
    n = config_int(params.get("n", 10_000), "task_params n")
    rep = persist.rps_condition(envspec, d, n, seed=sim.seed)
    exact, small_d = claim(rep["exact_verdict"]), claim(rep["small_d_verdict"])
    rows = [
        _est_row("rps", "exact_lhs", rep["exact_lhs"], verdict=exact),
        _est_row("rps", "small_d_lhs", rep["small_d_lhs"], verdict=small_d),
    ]
    return dict(rep, d=d, exact_verdict=exact, small_d_verdict=small_d), rows, {}


def _task_gamma(model, envspec, sim, params, claim):
    if not isinstance(model, Biennial):
        raise ConfigurationError("gamma task needs the biennial model")
    dist = envspec.coords[0]
    if not isinstance(dist, GammaDist):
        raise ConfigurationError("gamma task needs a gamma-distributed seed draw")
    inp = GammaClosedFormInput(
        p=model.p,
        a=model.a,
        theta=dist.scale,
        k=dist.shape,
        rel_tol=config_number(params.get("rel_tol", 1e-9), "task_params rel_tol"),
    )
    detail = gamma_closed_form_detailed(inp)
    mc = lyapunov_mc(model, envspec, sim)
    results = {
        "gamma_closed_form": detail["value"],
        "quadrature_error_bound": detail["error_bound"],
        "gamma_mc": mc.mean,
        "gamma_mc_se": mc.std_error,
        "abs_difference": abs(detail["value"] - mc.mean),
        "inputs": {"p": inp.p, "a": inp.a, "theta": inp.theta, "k": inp.k},
    }
    rows = [
        _row("gamma", "gamma_closed_form", mean=detail["value"], std_error=0.0, n=detail["evaluations"]),
        _est_row("gamma", "gamma_mc", mc),
        _row("gamma", "abs_difference", mean=results["abs_difference"]),
    ]
    print(json.dumps(results, sort_keys=True))
    return results, rows, {}


def _task_lyapunov(model, envspec, sim, params, claim):
    mc = lyapunov_mc(model, envspec, sim)
    return {"gamma_mc": mc}, [_est_row("lyapunov", "gamma_mc", mc)], {}


_RUNNERS = {
    "simulate": _task_simulate,
    "classify": _task_classify,
    "invade": _task_invade,
    "permanence": _task_permanence,
    "drift": _task_drift,
    "rps": _task_rps,
    "gamma": _task_gamma,
    "lyapunov": _task_lyapunov,
}


# ---------------------------------------------------------------------------
# Config plumbing


def _apply_set(cfg: dict, assignment: str):
    """Set the value at a dotted key, creating each missing section; a key
    whose path runs through a value that is not an object is refused."""
    if "=" not in assignment:
        raise ConfigurationError(f"--set needs key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for n, part in enumerate(parts):
        if not isinstance(node, dict):
            walked = ".".join(parts[:n]) or "the config"
            raise ConfigurationError(f"--set {key}: {walked} is not an object")
        if n < len(parts) - 1:
            node = node.setdefault(part, {})
    node[parts[-1]] = value


def run_config(cfg: dict, out_dir=None, seed=None, threads: int = 1, explore: bool = False) -> dict:
    """Validate, run one task, and write results; returns the full report.

    ``threads`` is accepted for compatibility and has no effect."""
    _validate_top(cfg)
    target = Path(out_dir if out_dir is not None else cfg.get("output_dir", "."))
    # refused before the task runs: the nearest existing ancestor must be a directory
    existing = next(path for path in (target, *target.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigurationError(f"output location {target}: {existing} is not a directory")
    if seed is not None and isinstance(cfg["sim"], dict):  # _parse_sim refuses any other sim
        cfg = dict(cfg, sim=dict(cfg["sim"], seed=int(seed)))  # the caller's config is kept
    model, default_env = parse_model(cfg["model"])
    envspec = parse_env_spec(cfg["env"]) if "env" in cfg else default_env
    model.check_env(envspec)
    sim = _parse_sim(cfg["sim"])
    params = cfg.get("task_params", {})
    if not isinstance(params, dict):
        raise ConfigurationError("task_params must be an object")
    extra = set(params) - _TASK_PARAMS[cfg["task"]]
    if extra:
        raise ConfigurationError(f"unknown {cfg['task']} task_params {sorted(extra)}")

    resolved = dict(cfg, env=env_to_config(envspec))
    text = io.StringIO()
    _write_json(text, resolved)  # a value no report holds is refused before the task runs
    digest = hashlib.sha256(text.getvalue().encode()).hexdigest()

    # exploratory runs report raw statistics only: every claim reads "exploratory"
    claim = (lambda value: "exploratory") if explore else (lambda value: value)
    results, rows, extra_files = _RUNNERS[cfg["task"]](model, envspec, sim, params, claim)
    if explore:
        if cfg["task"] == "simulate":
            # the run's own terminal states: a probe would redo its steps
            states = np.array([rep["terminal_state"] for rep in results["replicates"]])
        else:
            states = engine.terminal_states(model, envspec, sim, sim.horizon)
        raw = {}
        for eta in sim.eta_grid:
            near = engine.ExtinctionNeighborhood(eta)
            raw[near.name] = est = engine.hit_fraction(model, states, near)
            rows.append(_est_row(cfg["task"], f"ensemble_hit[{near.name}]@t={sim.horizon}", est))
        results = dict(results)
        results["exploratory"] = {
            "ensemble_hit_at_horizon": raw,
            "note": "raw statistics only; nothing here is adjudicated",
        }
    report = {
        "task": cfg["task"],
        "provenance": {
            "package": "stochpop",
            "version": __version__,
            "seed": sim.seed,
            "config_sha256": digest,
            "explore": bool(explore),
        },
        "config": resolved,
        "results": results,
        "estimates": rows,
    }

    target.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        json_path = target / "results.json"
        written.append(json_path)
        with json_path.open("w") as fh:
            _write_json(fh, report)
            fh.write("\n")
        for name, file_rows in {"results.csv": report["estimates"], **extra_files}.items():
            path = target / name
            written.append(path)
            with path.open("w", newline="") as fh:
                _write_csv(fh, _CSV_FIELDS[name], file_rows)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return report


def _cmd_run(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"error: config not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        for assignment in args.set or []:
            _apply_set(cfg, assignment)
        run_config(cfg, out_dir=args.out, seed=args.seed, explore=args.explore)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except StochpopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_list_models(args) -> int:
    for entry in model_info():
        print(f"{entry['name']}")
        print(f"  params: {entry['params']}")
        print(f"  env coordinates: {entry['env_coords']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochpop",
        description="Stochastic population models: simulation and persistence checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one configured task")
    p_run.add_argument("--config", required=True, help="path to the JSON experiment config")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override sim.seed")
    p_run.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
    p_run.add_argument("--explore", action="store_true",
                       help="write each claim (verdict strings, not_permanent, weights_verdict, "
                            "hypotheses_hold, domination.ok, rps verdicts, the CSV verdict "
                            "column) as 'exploratory', keep estimates, decision_margin, weights, "
                            "slacks, annotations and degenerate, and attach eta-grid hit "
                            "probabilities")
    p_run.set_defaults(fn=_cmd_run)
    p_list = sub.add_parser("list-models", help="print the model catalog")
    p_list.set_defaults(fn=_cmd_list_models)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
