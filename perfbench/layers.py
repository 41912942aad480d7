"""Traced runs: self time and counts per layer, measured from outside.

The program carries no instrumentation, so :func:`install` wraps each
layer's public entry point where its callers look it up (a module
attribute, or a class attribute for methods) and records nested spans on
:func:`time.perf_counter`.  A span's self time is its duration minus the
time of the spans it encloses, so the named leaves add up to the traced
plan time less whatever no wrapped entry point covers, which lands in
``api.runner_self_s``.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Span names whose self time is reported, and the metric each feeds.
LEAF_METRICS = {
    "benchmarks.resolve": "benchmarks.resolve_s",
    "synthesis.self": "synthesis.self_s",
    "synthesis.partition": "synthesis.partition_s",
    "synthesis.floorplan": "synthesis.floorplan_s",
    "routing.compute_routes": "routing.compute_routes_s",
    "core.removal": "core.removal_s",
    "routing.ordering": "routing.ordering_s",
    "power.estimate": "power.estimate_s",
    "simulation.build_simulator": "simulation.build_simulator_s",
    "simulation.traffic_gen": "simulation.traffic_gen_s",
    "simulation.traffic_setup": "simulation.traffic_gen_s",
    "simulation.recovery": "simulation.recovery_s",
    "perf.compiled_sim": "perf.compiled_sim_s",
    "perf.batch_sim": "perf.batch_sim_s",
    "api.cache_get": "api.cache_get_s",
    "api.cache_put": "api.cache_put_s",
    "api.render": "api.render_s",
}

#: The root span: its self time is everything the leaves do not cover.
ROOT_SPAN = "api.runner"

#: Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS = {
    "synthesis.self_s": "s",
    "synthesis.partition_s": "s",
    "synthesis.floorplan_s": "s",
    "synthesis.designs": "count",
    "routing.compute_routes_s": "s",
    "routing.compute_routes_calls": "count",
    "benchmarks.resolve_s": "s",
    "core.removal_s": "s",
    "core.removal_calls": "count",
    "core.removal_iterations": "count",
    "core.initial_cdg_cycles": "count",
    "core.removal_vcs": "count",
    "routing.ordering_s": "s",
    "routing.ordering_calls": "count",
    "power.estimate_s": "s",
    "power.estimate_calls": "count",
    "perf.compiled_sim_s": "s",
    "perf.compiled_sims": "count",
    "perf.compiled_us_per_cycle": "us/cycle",
    "simulation.build_simulator_s": "s",
    "perf.sim_template_builds": "count",
    "perf.sim_template_reuses": "count",
    "perf.batch_sim_s": "s",
    "perf.batch_programs": "count",
    "perf.batch_lanes": "count",
    "perf.batch_us_per_lane_cycle": "us/lane-cycle",
    "simulation.traffic_gen_s": "s",
    "simulation.traffic_gen_calls": "count",
    "simulation.recovery_s": "s",
    "simulation.fault_events": "count",
    "simulation.packets_lost": "count",
    "simulation.fault_batches_drained_ratio": "ratio",
    "simulation.cycles": "cycles",
    "simulation.packets_injected": "count",
    "simulation.flits_delivered": "count",
    "simulation.delivered_ratio": "ratio",
    "simulation.deadlocked_variants": "count",
    "simulation.removal_latency_cycles": "cycles",
    "simulation.removal_delivered_fraction": "ratio",
    "api.cache_get_s": "s",
    "api.cache_gets": "count",
    "api.cache_hit_ratio": "ratio",
    "api.cache_put_s": "s",
    "api.cache_puts": "count",
    "api.cache_bytes_written": "bytes",
    "analysis.cost_pipelines": "count",
    "analysis.sim_points": "count",
    "analysis.grid_lanes": "count",
    "api.render_s": "s",
    "api.runner_self_s": "s",
    "trace.plan_s": "s",
    "trace.leaf_coverage": "ratio",
    "trace.overhead": "ratio",
}

Observer = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Nested spans and counters for one traced plan execution."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []

    def _span(self, name: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[name] += elapsed - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[name] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, *, span: bool = True,
             observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attr`` with a span (or a call counter) named ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        make = self._span if span else self._counter
        setattr(owner, attr, make(name, original, observe))


def _removal_observer(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["core.removal_iterations"] += result.iterations
    tracer.counts["core.initial_cdg_cycles"] += result.initial_cycle_count or 0


def _compiled_observer(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["compiled_cycles"] += result.cycles_run


def _batch_observer(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["perf.batch_lanes"] += len(result)
    tracer.counts["batch_lane_cycles"] += sum(stats.cycles_run for stats in result)


def _cache_get_observer(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["cache_hits"] += result is not None


def _cache_put_observer(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["api.cache_bytes_written"] += result.stat().st_size


def _grid_observer(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["analysis.grid_lanes"] += len(result)


def install() -> Tracer:
    """Wrap every layer entry point for the rest of the process; call before the plan runs."""
    module = importlib.import_module
    runner = module("repro.api.runner")
    cache = module("repro.api.cache")
    experiments = module("repro.analysis.experiments")
    performance = module("repro.analysis.performance")
    builder = module("repro.synthesis.builder")
    families = module("repro.synthesis.families")
    simulator = module("repro.simulation.simulator")
    traffic_gen = module("repro.simulation.traffic_gen")
    recovery = module("repro.simulation.recovery")
    sim_engine = module("repro.perf.sim_engine")
    batch_engine = module("repro.perf.batch_engine")
    module("repro.perf.design_context").counters.reset()

    tracer = Tracer()
    wrap = tracer.wrap
    wrap(runner.Runner, "run", ROOT_SPAN)
    wrap(runner.PlanResult, "render_reports", "api.render")
    wrap(cache.ArtifactCache, "get", "api.cache_get", observe=_cache_get_observer)
    wrap(cache.ArtifactCache, "put", "api.cache_put", observe=_cache_put_observer)
    wrap(runner, "compare_methods", "analysis.cost_pipelines", span=False)
    wrap(performance, "measure_load_point", "analysis.sim_points", span=False)
    wrap(performance, "measure_load_grid", "analysis.grid", span=False,
         observe=_grid_observer)
    wrap(experiments, "get_benchmark", "benchmarks.resolve")
    wrap(builder, "synthesize_design", "synthesis.self")
    wrap(builder, "partition_cores", "synthesis.partition")
    wrap(builder, "assign_link_lengths", "synthesis.floorplan")
    wrap(builder, "compute_routes", "routing.compute_routes")
    wrap(families, "compute_routes", "routing.compute_routes")
    wrap(experiments, "remove_deadlocks", "core.removal", observe=_removal_observer)
    wrap(recovery, "remove_deadlocks", "core.removal", observe=_removal_observer)
    wrap(experiments, "apply_resource_ordering", "routing.ordering")
    wrap(experiments, "estimate_power_and_area", "power.estimate")
    wrap(performance, "build_simulator", "simulation.build_simulator")
    wrap(simulator, "make_traffic_generator", "simulation.traffic_setup")
    wrap(performance, "make_traffic_generator", "simulation.traffic_setup")
    wrap(traffic_gen.FlowTrafficGenerator, "generate", "simulation.traffic_gen")
    for method in ("__init__", "on_cycle", "after_step", "finalise"):
        wrap(recovery.RecoveryController, method, "simulation.recovery")
    wrap(sim_engine.CompiledSimulator, "run", "perf.compiled_sim",
         observe=_compiled_observer)
    wrap(batch_engine, "run_batch", "perf.batch_sim", observe=_batch_observer)
    return tracer


def layer_metrics(tracer: Tracer, plan_s: float) -> Dict[str, float]:
    """The traced run's per-layer figures (record-derived counts excluded)."""
    from repro.perf.design_context import counters

    metrics: Dict[str, float] = {name: 0.0 for name in set(LEAF_METRICS.values())}
    for span, metric in LEAF_METRICS.items():
        metrics[metric] += tracer.self_s.get(span, 0.0)
    leaves = sum(metrics.values())
    calls, counts = tracer.calls, tracer.counts
    compiled_cycles = counts["compiled_cycles"]
    lane_cycles = counts["batch_lane_cycles"]
    gets = calls["api.cache_get"]
    metrics.update(
        {
            "synthesis.designs": calls["synthesis.self"],
            "routing.compute_routes_calls": calls["routing.compute_routes"],
            "core.removal_calls": calls["core.removal"],
            "core.removal_iterations": counts["core.removal_iterations"],
            "core.initial_cdg_cycles": counts["core.initial_cdg_cycles"],
            "routing.ordering_calls": calls["routing.ordering"],
            "power.estimate_calls": calls["power.estimate"],
            "perf.compiled_sims": calls["perf.compiled_sim"],
            "perf.compiled_us_per_cycle": (
                metrics["perf.compiled_sim_s"] * 1e6 / compiled_cycles
                if compiled_cycles else 0.0
            ),
            "perf.sim_template_builds": counters.sim_template_builds,
            "perf.sim_template_reuses": counters.sim_template_reuses,
            "perf.batch_programs": calls["perf.batch_sim"],
            "perf.batch_lanes": counts["perf.batch_lanes"],
            "perf.batch_us_per_lane_cycle": (
                metrics["perf.batch_sim_s"] * 1e6 / lane_cycles if lane_cycles else 0.0
            ),
            "simulation.traffic_gen_calls": calls["simulation.traffic_gen"],
            "api.cache_gets": gets,
            "api.cache_hit_ratio": counts["cache_hits"] / gets if gets else 0.0,
            "api.cache_puts": calls["api.cache_put"],
            "api.cache_bytes_written": counts["api.cache_bytes_written"],
            "analysis.cost_pipelines": calls["analysis.cost_pipelines"],
            "analysis.sim_points": calls["analysis.sim_points"],
            "analysis.grid_lanes": counts["analysis.grid_lanes"],
            "api.runner_self_s": tracer.self_s.get(ROOT_SPAN, 0.0),
            "trace.plan_s": plan_s,
            "trace.leaf_coverage": leaves / plan_s if plan_s else 0.0,
        }
    )
    return metrics
