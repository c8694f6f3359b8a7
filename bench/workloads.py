"""Workload configs for the benchmark and the output check for each.

Every workload is one ``stochpop run`` task, run through
``stochpop.cli.run_config`` with ``threads=1``.  The benchmark's seed is
passed as ``sim.seed``; nothing else in a config depends on it.  Each check
uses the acceptance suite's three-standard-error rule, so it holds on any
seed, and returns a list of problems (empty when the outputs are right).
"""

from __future__ import annotations

import copy

SIGMAS = 3.0

WORKLOADS = {
    "lottery-permanence": {
        "why": "six one-replicate face runs of the permanence task: per-step "
               "dispatch and the persist face loop dominate, env is negligible",
        "config": {
            "model": {
                "model": "lottery",
                "k": 3,
                "d": 0.1,
                "fecundity": [{"dist": "lognormal", "log_mean": 1.0, "log_sd": 0.3}] * 3,
            },
            "sim": {"seed": 0, "replicates": 1, "burn_in": 1000, "horizon": 10000},
            "task": "permanence",
        },
    },
    "hassell-wide": {
        "why": "simulate task at R=4096: the numerics-bound regime where stream, "
               "transform, set tests, reduction and CSV output all show",
        "config": {
            "model": {
                "model": "hassell",
                "lam": {"dist": "lognormal", "log_mean": 0.3, "log_sd": 0.3},
                "b": 1.0,
            },
            "sim": {
                "seed": 0,
                "replicates": 4096,
                "burn_in": 500,
                "horizon": 4000,
                "eta_grid": [0.01],
                "bound_radius": 10.0,
            },
            "task": "simulate",
            "task_params": {
                "functionals": [{"kind": "coordinate", "i": 0}, {"kind": "log_percapita", "i": 0}],
            },
        },
    },
    "biennial-gamma": {
        "why": "gamma task on the biennial model: the only workload in lyap, and "
               "gamma shape 2 makes gammaincinv sampling a large share",
        "config": {
            "model": {
                "model": "biennial",
                "p": 0.5,
                "a": 0.5,
                "b1": 1.0,
                "b2": 1.0,
                "xi": {"dist": "gamma", "shape": 2.0, "scale": 2.0},
            },
            "sim": {"seed": 0, "replicates": 20, "burn_in": 500, "horizon": 50500},
            "task": "gamma",
        },
    },
}


def config_for(name: str, seed: int) -> dict:
    cfg = copy.deepcopy(WORKLOADS[name]["config"])
    cfg["sim"]["seed"] = int(seed)
    return cfg


def replicate_steps(cfg: dict) -> int:
    """Replicate-steps the task advances, counted from its config."""
    sim = cfg["sim"]
    steps = sim.get("replicates", 1) * sim["horizon"]
    if cfg["task"] == "permanence":
        k = len(cfg["model"]["fecundity"])
        steps *= 2**k - 2  # every proper nonempty face is simulated
    return steps


def _clears(est: dict) -> bool:
    return est["mean"] - SIGMAS * est["std_error"] > 0


def _check_permanence(results: dict) -> list:
    problems = []
    if results["verdict"] != "persistent":
        problems.append(f"verdict is {results['verdict']!r}, not 'persistent'")
    if results["weights"] is None:
        problems.append("no feasible persistence weights")
    for face in results["faces"]:
        if face["degenerate"]:
            problems.append(f"face {face['support']} degenerate: {face['degenerate']}")
            continue
        for species, est in face["rates"].items():
            if int(species) not in face["support"] and not _clears(est):
                problems.append(f"invader {species} on face {face['support']} at {est}")
    return problems


def _check_simulate(results: dict) -> list:
    problems = []
    pooled = results["pooled"]
    if pooled["extinct_fraction"] != 0:
        problems.append(f"extinct_fraction {pooled['extinct_fraction']} != 0")
    occ = pooled["occupation"]["S_eta=0.01"]
    if not occ <= 0.05:
        problems.append(f"occupation of S_eta=0.01 is {occ} > 0.05")
    est = pooled["functional_averages"]["log_percapita_0"]
    if not abs(est["mean"]) <= SIGMAS * est["std_error"]:
        problems.append(f"pooled log_percapita_0 {est} is not within 3 SE of 0")
    return problems


def _check_gamma(results: dict) -> list:
    diff = abs(results["gamma_mc"] - results["gamma_closed_form"])
    if diff < SIGMAS * results["gamma_mc_se"]:
        return []
    return [f"|gamma_mc - gamma_closed_form| = {diff} >= 3 * {results['gamma_mc_se']}"]


_CHECKS = {
    "permanence": _check_permanence,
    "simulate": _check_simulate,
    "gamma": _check_gamma,
}


def check_results(report: dict) -> list:
    """Problems with one task's ``results.json`` report."""
    return _CHECKS[report["task"]](report["results"])
