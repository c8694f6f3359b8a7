"""Spans around the public entry points of each stochpop module.

The wrappers are installed at run time from the benchmark's own files; the
package source is untouched.  Each name is wrapped where its caller looks
it up: ``persist`` imports ``simulate`` by name and ``cli`` imports
``lyapunov_mc`` and ``gamma_closed_form_detailed`` by name, so those
module attributes are patched as well.  Spans are kept in memory as
``[name, start_ns, end_ns, parent, work]`` and written out after the task.
"""

from __future__ import annotations

import functools
import math
import time

MODEL_METHODS = ("log_percapita", "step", "linearization_at_zero")

# Per-layer metrics in report order (env, models, engine, persist, lyap, cli,
# then the trace itself) with their units.
LAYER_METRICS = {
    "env.draws": "count",
    "env.uniforms_ns_per_draw": "ns",
    "env.transform_ns_per_draw": "ns",
    "env.self_s": "s",
    "models.calls": "count",
    "models.rows_per_call": "rows",
    "models.us_per_call": "us",
    "models.self_s": "s",
    "engine.calls": "count",
    "engine.self_s": "s",
    "engine.self_us_per_step": "us",
    "persist.self_s": "s",
    "lyap.self_s": "s",
    "lyap.self_us_per_step": "us",
    "lyap.quad_s": "s",
    "lyap.quad_evals": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "fraction",
}

# Counts that depend only on the workload and seed: they must repeat exactly.
EXACT_COUNTS = (
    "env.draws",
    "models.calls",
    "models.rows_per_call",
    "engine.calls",
    "lyap.quad_evals",
    "cli.output_bytes",
)

# The reported self times.  Between them they must cover every span: the
# benchmark checks that they add up to the task time.
SELF_TIME_METRICS = (
    "env.self_s",
    "models.self_s",
    "engine.self_s",
    "persist.self_s",
    "lyap.self_s",
    "lyap.quad_s",
    "cli.self_s",
)


def reported_self_s(layers: dict) -> float:
    """Total of the reported self times of one traced task."""
    return sum(layers[name] for name in SELF_TIME_METRICS)


def _rows(args, result):
    shape = args[1].shape  # (self, x or w, ...): rows are all but the last axis
    return math.prod(shape[:-1])


def _horizon(args, result):
    return args[2].horizon  # (model, envspec, cfg, ...)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn, work=None):
        """``fn`` recorded as span ``name``; ``work(args, result)`` counts its work.

        A call made from inside a span of the same layer is not recorded
        again, so a face model delegating to its base model counts as one call.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        layer = name.split(".")[0] + "."

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and spans[parent][0].startswith(layer):
                return fn(*args, **kwargs)
            rec = [name, 0, 0, parent, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[4] = work(args, result)
            return result

        return traced

    def install(self):
        from stochpop import cli, engine, env, lyap, models, persist

        env.Stream.uniforms = self.wrap("env.uniforms", env.Stream.uniforms,
                                        work=lambda args, result: result.size)
        env.EnvSpec.transform = self.wrap("env.transform", env.EnvSpec.transform,
                                          work=lambda args, result: result.size)
        for cls in vars(models).values():
            if isinstance(cls, type) and issubclass(cls, models.Model) and cls is not models.Model:
                for meth in MODEL_METHODS:
                    if meth in vars(cls):
                        setattr(cls, meth, self.wrap(f"models.{meth}", vars(cls)[meth],
                                                     work=_rows))
        engine.simulate = persist.simulate = self.wrap(
            "engine.simulate", engine.simulate, work=_horizon)
        engine.ensemble_hit_probability = self.wrap(
            "engine.ensemble_hit_probability", engine.ensemble_hit_probability,
            work=lambda args, result: args[4])
        for fname in ("boundary_invasion_report", "invasion_rate", "scalar_classify",
                      "find_persistence_weights"):
            setattr(persist, fname, self.wrap(f"persist.{fname}", getattr(persist, fname)))
        cli.lyapunov_mc = lyap.lyapunov_mc = self.wrap(
            "lyap.lyapunov_mc", lyap.lyapunov_mc, work=_horizon)
        cli.gamma_closed_form_detailed = lyap.gamma_closed_form_detailed = self.wrap(
            "lyap.gamma_closed_form_detailed", lyap.gamma_closed_form_detailed,
            work=lambda args, result: result["evaluations"])
        cli.run_config = self.wrap("cli.run_config", cli.run_config)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,work\n")
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end},{work}\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times; a span's self time excludes its children."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, work in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns, work = {}, {}, {}
        for i, (name, start, end, parent, w) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[i]
            work[name] = work.get(name, 0) + w

        def layer_sum(table, layer):
            return sum(v for k, v in table.items() if k.startswith(layer + "."))

        def per(num, den, scale):
            return num / den * scale if den else 0.0

        draws = work.get("env.uniforms", 0)
        model_calls = layer_sum(calls, "models")
        engine_steps = layer_sum(work, "engine")
        lyap_steps = work.get("lyap.lyapunov_mc", 0)
        return {
            "env.draws": draws,
            "env.uniforms_ns_per_draw": per(self_ns.get("env.uniforms", 0), draws, 1.0),
            "env.transform_ns_per_draw": per(self_ns.get("env.transform", 0),
                                             work.get("env.transform", 0), 1.0),
            "env.self_s": layer_sum(self_ns, "env") / 1e9,
            "models.calls": model_calls,
            "models.rows_per_call": per(layer_sum(work, "models"), model_calls, 1.0),
            "models.us_per_call": per(layer_sum(self_ns, "models"), model_calls, 1e-3),
            "models.self_s": layer_sum(self_ns, "models") / 1e9,
            "engine.calls": layer_sum(calls, "engine"),
            "engine.self_s": layer_sum(self_ns, "engine") / 1e9,
            "engine.self_us_per_step": per(layer_sum(self_ns, "engine"), engine_steps, 1e-3),
            "persist.self_s": layer_sum(self_ns, "persist") / 1e9,
            "lyap.self_s": self_ns.get("lyap.lyapunov_mc", 0) / 1e9,
            "lyap.self_us_per_step": per(self_ns.get("lyap.lyapunov_mc", 0), lyap_steps, 1e-3),
            "lyap.quad_s": self_ns.get("lyap.gamma_closed_form_detailed", 0) / 1e9,
            "lyap.quad_evals": work.get("lyap.gamma_closed_form_detailed", 0),
            "cli.self_s": layer_sum(self_ns, "cli") / 1e9,
        }

    def check(self, task_s: float, tolerance: float = 0.03) -> list:
        """Problems with the span tree: one ``cli.run_config`` root, and
        reported self times that add up to the task time measured outside
        the wrappers (a wrapped span that no metric reports falls short)."""
        roots = [s for s in self.spans if s[3] < 0]
        if [s[0] for s in roots] != ["cli.run_config"]:
            return [f"expected one cli.run_config root span, got {[s[0] for s in roots]}"]
        total_s = reported_self_s(self.layer_metrics())
        if abs(total_s - task_s) > tolerance * task_s:
            return [f"reported self times add up to {total_s:.4f} s, task took {task_s:.4f} s"]
        return []
