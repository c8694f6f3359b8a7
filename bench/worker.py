"""One workload task in a fresh process; the benchmark's unit of measurement.

    python3 bench/worker.py WORKLOAD SEED OUT_DIR T0 TRACE

``T0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter
start, importing stochpop and validating the config.  ``task_s`` is the
wall time of ``stochpop.cli.run_config`` until its results files are
written.  The measurements go to ``OUT_DIR/measure.json``; with TRACE 1
the spans go to ``OUT_DIR/spans.csv``.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from stochpop import cli  # noqa: E402
from stochpop.env import parse_env_spec  # noqa: E402
from stochpop.models import parse_model  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import config_for  # noqa: E402


def main(argv):
    name, seed, out_dir, t0, trace = argv
    out_dir = Path(out_dir)
    cfg = config_for(name, int(seed))

    # The validation steps run_config starts with, in the package's own code.
    cli._validate_top(cfg)
    model, envspec = parse_model(cfg["model"])
    if "env" in cfg:
        envspec = parse_env_spec(cfg["env"])
    model.check_env(envspec)
    cli._parse_sim(cfg["sim"])
    setup_s = time.monotonic() - float(t0)

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    results = out_dir / "results"
    started, started_cpu = time.perf_counter(), time.process_time()
    cli.run_config(cfg, out_dir=results, threads=1)
    task_s = time.perf_counter() - started
    task_cpu_s = time.process_time() - started_cpu

    measure = {
        "setup_s": setup_s,
        "task_s": task_s,
        "task_cpu_s": task_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results_sha256": hashlib.sha256((results / "results.json").read_bytes()).hexdigest(),
        "output_bytes": sum(p.stat().st_size for p in results.iterdir()),
        "stochpop_file": cli.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        measure["layers"] = tracer.layer_metrics()
        measure["layers"]["cli.output_bytes"] = measure["output_bytes"]
        measure["trace_problems"] = tracer.check(task_s)
        tracer.write(out_dir / "spans.csv")
    (out_dir / "measure.json").write_text(json.dumps(measure))


if __name__ == "__main__":
    main(sys.argv[1:])
