"""stochpop benchmark: one ``stochpop run`` task per fresh process, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: the next task process starts when the
previous one has ended, until ``--seconds`` have passed (with a minimum
number of processes so medians and the output-hash comparison mean
something).  Every process's outputs are checked (see ``workloads.py``) and
its ``results.json`` must hash the same as every other process's in the
run.  A process fails on a non-zero exit or on a failed check.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  ``task_s`` is the mean task time over the run's
processes and ``replicate_steps_per_s`` the replicate-steps per second of
that mean; ``setup_s`` and ``peak_rss_mb`` are medians.  The mean, not the
median, because on a shared host the machine's speed switches between
levels for tens of seconds at a time: a run median jumps from one level to
the other with the share of the run spent in each, while the mean moves in
proportion to it.  The ``failed`` and ``attempted`` counts give the error
rate.

With ``--trace 1`` untraced and traced processes alternate; the per-layer
metrics are medians over the traced ones.  Each traced process is compared
with the untraced one just before it, which ran in nearly the same host
state: ``trace.overhead_frac`` is the median ratio of their task times,
less one.  The run fails if the reported layer self times, so compared,
come to more than ``TRACE_MAX_OVERHEAD`` above the untraced task time:
the trace would then distort the layers it measures.  The span file, the
per-layer table and a report with the run environment are written under
``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

from tracing import EXACT_COUNTS, LAYER_METRICS, reported_self_s
from workloads import WORKLOADS, check_results, config_for, replicate_steps

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_UNTRACED = 3
MIN_TRACED = 2
PROCESS_TIMEOUT_S = 60
# Tracing costs about 12% on lottery-permanence and 2% elsewhere; the rest
# allows for the host's speed changing between neighbouring processes, by
# up to a fifth on 2 shared vCPUs.  No lower limit: each traced process's reported self times
# already match its own task time (``Tracer.check``), so coming in under
# the untraced time is host noise.
TRACE_MAX_OVERHEAD = 0.5


def run_environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_process(workload, seed, out_dir, traced, env):
    """One task process; returns (measure or None, problems)."""
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(out_dir)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t0), "1" if traced else "0"], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=PROCESS_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return None, [f"timed out after {PROCESS_TIMEOUT_S} s"]
    if proc.returncode != 0:
        return None, [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    measure = json.loads((out_dir / "measure.json").read_text())
    results = json.loads((out_dir / "results" / "results.json").read_text())
    problems = check_results(results) + measure.get("trace_problems", [])
    if not Path(measure["stochpop_file"]).resolve().is_relative_to(ROOT / "src"):
        problems.append(f"imported stochpop from {measure['stochpop_file']}")
    return measure, problems


def layer_table(metrics: dict) -> str:
    lines = [f"{'metric':32} {'value':>16}  unit"]
    for name, entry in metrics.items():
        lines.append(f"{name:32} {entry['value']:>16.6g}  {entry['unit']}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "stochpop" / "cli.py").is_file():
        print(f"error: no stochpop source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_run" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()
    # Untimed warm-up: compiles bytecode and fills the file cache for imports.
    subprocess.run([sys.executable, "-c", "import stochpop.cli"], check=True,
                   env=dict(env, PYTHONPATH=str(ROOT / "src")))

    cfg = config_for(args.workload, args.seed)
    steps = replicate_steps(cfg)
    samples = {False: [], True: []}
    hashes = set()
    failures = []
    attempted = 0
    deadline = time.monotonic() + args.seconds
    # Past the deadline, keep going only to reach the minimum counts, and
    # give up on them by the hard stop so the run always ends in time.
    hard_stop = deadline + PROCESS_TIMEOUT_S
    while time.monotonic() < hard_stop and (
            time.monotonic() < deadline or len(samples[False]) < MIN_UNTRACED
            or (args.trace and len(samples[True]) < MIN_TRACED)):
        traced = bool(args.trace) and attempted % 2 == 1
        out_dir = run_dir / f"p{attempted}"
        measure, problems = run_process(args.workload, args.seed, out_dir, traced, env)
        attempted += 1
        if measure is not None:
            hashes.add(measure["results_sha256"])
            if len(hashes) > 1:
                problems.append("results.json differs from an earlier process of this run")
        if problems:
            failures.append({"process": out_dir.name, "traced": traced, "problems": problems})
            print(f"FAILED {out_dir.name}: {problems}", file=sys.stderr)
            if len(failures) > attempted // 2:
                break  # mostly failing: stop rather than loop until the deadline
        else:
            if traced:
                # Process 0 is untraced, and the loop stops if it fails.
                measure["untraced_task_s"] = samples[False][-1]["task_s"]
            samples[traced].append(measure)
        if traced and (out_dir / "spans.csv").exists():
            shutil.move(out_dir / "spans.csv", run_dir / "spans.csv")
        shutil.rmtree(out_dir)

    untraced = samples[False]
    if not untraced or (args.trace and not samples[True]):
        print("error: no process of this run, or no traced one, succeeded", file=sys.stderr)
        return 1
    traced = samples[True]

    task_s = fmean(m["task_s"] for m in untraced)
    if args.trace:
        for name in EXACT_COUNTS:
            seen = {m["layers"][name] for m in traced}
            if len(seen) != 1:
                print(f"error: {name} differs across traced processes: {sorted(seen)}",
                      file=sys.stderr)
                return 1
        overhead = median(m["task_s"] / m["untraced_task_s"] for m in traced) - 1.0
        excess = median(reported_self_s(m["layers"]) / m["untraced_task_s"]
                        for m in traced) - 1.0
        if excess > TRACE_MAX_OVERHEAD:
            print(f"error: reported layer self times come to {excess:+.1%} of the "
                  "untraced task time", file=sys.stderr)
            return 1
        metrics = {name: {"value": overhead if name == "trace.overhead_frac"
                          else traced[0]["layers"][name] if name in EXACT_COUNTS
                          else median(m["layers"][name] for m in traced), "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
        (run_dir / "layers.txt").write_text(layer_table(metrics))
        print(layer_table(metrics), end="")
    else:
        metrics = {
            "task_s": {"value": task_s, "unit": "s"},
            "replicate_steps_per_s": {"value": steps / task_s, "unit": "1/s"},
            "setup_s": {"value": median(m["setup_s"] for m in untraced), "unit": "s"},
            "peak_rss_mb": {"value": median(m["peak_rss_mb"] for m in untraced), "unit": "MiB"},
        }

    report = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload]["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": cfg,
        "replicate_steps": steps,
        "environment": dict(run_environment(), **untraced[0]["versions"]),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "results_sha256": sorted(hashes),
        "samples": {"untraced": untraced, "traced": traced},
        "metrics": metrics,
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
