"""Outside-in layer tracing for the cache_rl benchmark.

Inside ``instrumented(tracer)`` the public entry points of the package's
layers are replaced, in every module namespace that holds them, by wrappers
that record one span per call. ``run_lockstep`` additionally receives a
timing proxy for a learner agent and one for each per-realization
Generator. The proxies only delegate, so the RNG draw order, and with it
every per-slot result, is the same as in an untraced run. Nothing in
``src/`` is changed.

Spans live in memory as ``[name, start, end, parent]`` lists, ``parent``
being the index of the enclosing span or -1. A span's self time is its
duration minus the durations of its children; calls are strictly nested,
so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from collections import defaultdict
from time import perf_counter

# Modules whose namespaces hold the patched names. The benchmark itself
# calls through the package namespace, the layers through their own.
PATCHED_MODULES = ("cache_rl", "cache_rl.experiments", "cache_rl.mdp_oracle", "cache_rl.simulate")

# Learner agents get a timing proxy; other agents run as engine self time.
AGENT_LAYERS = {"cache_rl.q_exact": "q_exact", "cache_rl.q_linear": "q_linear"}
AGENT_METHODS = ("predraw", "select", "learn", "normalized_error")

# Span that the benchmark wraps around one whole repeat.
ROOT_SPAN = "perfbench.repeat"

# Per-layer metric -> (span name, statistic). "self" excludes child spans:
# an agent's predraw self time excludes its Generator calls, the engine's
# self time excludes agent and Generator calls.
SPAN_METRICS = {
    "simulate.run_lockstep_s": ("simulate.run_lockstep", "incl"),
    "simulate.self_s": ("simulate.run_lockstep", "self"),
    "simulate.rng_s": ("simulate.rng", "incl"),
    "simulate.rng_calls": ("simulate.rng", "calls"),
    "q_exact.predraw_s": ("q_exact.predraw", "self"),
    "q_exact.select_s": ("q_exact.select", "self"),
    "q_exact.learn_s": ("q_exact.learn", "self"),
    "q_exact.normalized_error_s": ("q_exact.normalized_error", "self"),
    "q_exact.error_snapshots": ("q_exact.normalized_error", "calls"),
    "q_linear.predraw_s": ("q_linear.predraw", "self"),
    "q_linear.select_s": ("q_linear.select", "self"),
    "q_linear.learn_s": ("q_linear.learn", "self"),
    "q_linear.normalized_error_s": ("q_linear.normalized_error", "self"),
    "q_linear.select_calls": ("q_linear.select", "calls"),
    "mdp_oracle.state_space_s": ("mdp_oracle.state_space", "self"),
    "mdp_oracle.policy_evaluation_s": ("mdp_oracle.policy_evaluation", "self"),
    "mdp_oracle.q_from_value_s": ("mdp_oracle.q_from_value", "self"),
    "mdp_oracle.policy_improvement_s": ("mdp_oracle.policy_improvement", "self"),
    "mdp_oracle.long_run_average_cost_s": ("mdp_oracle.long_run_average_cost", "self"),
    "experiments.run_scenario_self_s": ("experiments.run_scenario", "self"),
    "experiments.export_metrics_s": ("experiments.export_metrics", "self"),
}
COUNT_METRICS = ("mdp_oracle.pi_iterations", "mdp_oracle.dense_bytes", "experiments.export_bytes")


class Tracer:
    """Span recorder plus counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: (call count, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[i]
        return calls, incl, own

    def layer_metrics(self) -> dict[str, float]:
        """SPAN_METRICS and COUNT_METRICS of the recorded run (0 for an unused layer).

        ``trace.accounted_frac`` is the share of the root span's time that
        layer spans cover; the rest is the benchmark's own glue.
        """
        calls, incl, own = self.totals()
        stats = {"calls": calls, "incl": incl, "self": own}
        out = {
            metric: float(stats[kind].get(span, 0.0))
            for metric, (span, kind) in SPAN_METRICS.items()
        }
        out.update({name: float(self.counts.get(name, 0.0)) for name in COUNT_METRICS})
        out["trace.accounted_frac"] = 1.0 - own[ROOT_SPAN] / incl[ROOT_SPAN]
        return out


class _RngProxy:
    """Times every method call on one realization's Generator."""

    def __init__(self, rng, tracer: Tracer) -> None:
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, name):
        return self._tracer.wrap("simulate.rng", getattr(self._rng, name))


class _AgentProxy:
    """Times a learner's engine-facing methods; other attributes pass through."""

    def __init__(self, agent, layer: str, tracer: Tracer) -> None:
        self._agent = agent
        for method in AGENT_METHODS:
            setattr(self, method, tracer.wrap(f"{layer}.{method}", getattr(agent, method)))

    def __getattr__(self, name):
        return getattr(self._agent, name)


def _wrappers(tracer: Tracer, originals: dict) -> dict:
    wrap = tracer.wrap
    counts = tracer.counts

    timed_lockstep = wrap("simulate.run_lockstep", originals["run_lockstep"])

    def run_lockstep(env, agent, cost_schedule, horizon, rngs, *args, **kwargs):
        layer = AGENT_LAYERS.get(type(agent).__module__)
        if layer is not None:
            agent = _AgentProxy(agent, layer, tracer)
        rngs = [_RngProxy(rng, tracer) for rng in rngs]
        return timed_lockstep(env, agent, cost_schedule, horizon, rngs, *args, **kwargs)

    timed_pi = wrap("mdp_oracle.policy_iteration", originals["policy_iteration"])

    def policy_iteration(*args, **kwargs):
        result = timed_pi(*args, **kwargs)
        counts["mdp_oracle.pi_iterations"] += result.iterations
        return result

    timed_eval = wrap("mdp_oracle.policy_evaluation", originals["policy_evaluation"])

    def policy_evaluation(space, *args, **kwargs):
        # the dense solve materializes |S| x |S| float64 matrices
        dense = 8.0 * space.n_states**2
        counts["mdp_oracle.dense_bytes"] = max(counts["mdp_oracle.dense_bytes"], dense)
        return timed_eval(space, *args, **kwargs)

    timed_export = wrap("experiments.export_metrics", originals["export_metrics"])

    def export_metrics(trace, path):
        timed_export(trace, path)
        counts["experiments.export_bytes"] += os.path.getsize(path)

    return {
        "StateSpace": wrap("mdp_oracle.state_space", originals["StateSpace"]),
        "policy_iteration": policy_iteration,
        "policy_evaluation": policy_evaluation,
        "q_from_value": wrap("mdp_oracle.q_from_value", originals["q_from_value"]),
        "policy_improvement": wrap("mdp_oracle.policy_improvement", originals["policy_improvement"]),
        "long_run_average_cost": wrap(
            "mdp_oracle.long_run_average_cost", originals["long_run_average_cost"]
        ),
        "run_lockstep": run_lockstep,
        "run_scenario": wrap("experiments.run_scenario", originals["run_scenario"]),
        "export_metrics": export_metrics,
    }


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the package's layer entry points through ``tracer`` until exit."""
    modules = [importlib.import_module(name) for name in PATCHED_MODULES]
    mdp_oracle = importlib.import_module("cache_rl.mdp_oracle")
    simulate = importlib.import_module("cache_rl.simulate")
    experiments = importlib.import_module("cache_rl.experiments")
    originals = {
        "StateSpace": mdp_oracle.StateSpace,
        "policy_iteration": mdp_oracle.policy_iteration,
        "policy_evaluation": mdp_oracle.policy_evaluation,
        "q_from_value": mdp_oracle.q_from_value,
        "policy_improvement": mdp_oracle.policy_improvement,
        "long_run_average_cost": mdp_oracle.long_run_average_cost,
        "run_lockstep": simulate.run_lockstep,
        "run_scenario": experiments.run_scenario,
        "export_metrics": experiments.export_metrics,
    }
    wrappers = _wrappers(tracer, originals)
    patched = []
    try:
        for module in modules:
            for name, original in originals.items():
                if getattr(module, name, None) is original:
                    setattr(module, name, wrappers[name])
                    patched.append((module, name, original))
        yield tracer
    finally:
        for module, name, original in patched:
            setattr(module, name, original)
