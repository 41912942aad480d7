"""The three-way comparison behind the paper's evaluation.

For a benchmark traffic specification and a switch count the paper's
experiments compare three variants of the same synthesized topology:

* **unprotected** — the synthesized design as-is (may deadlock);
* **deadlock removal** — the paper's algorithm (adds few VCs);
* **resource ordering** — the classic avoidance scheme (adds many VCs).

:func:`compare_methods` produces all three plus their VC counts, power and
area; :func:`sweep_switch_counts` repeats it over a range of switch counts,
which is exactly what Figures 8 and 9 plot.  :func:`runtime_scaling` times
fresh synthesis and removal for the paper's runtime claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.metrics import percent_reduction
from repro.api.registry import synthesis_backends
from repro.api.reports import FIGURE10_BENCHMARKS, FIGURE10_SWITCH_COUNT
from repro.benchmarks.registry import get_benchmark
from repro.core.removal import DEFAULT_REMOVAL_ENGINE, remove_deadlocks
from repro.core.report import RemovalResult
from repro.model.design import NocDesign
from repro.model.traffic import CommunicationGraph
from repro.perf.executor import parallel_map
from repro.power.estimator import (
    NocAreaReport,
    NocPowerReport,
    estimate_power_and_area,
)
from repro.power.orion import TechnologyParameters
from repro.routing.ordering import (
    STRATEGY_HOP_INDEX,
    OrderingResult,
    apply_resource_ordering,
)
from repro.synthesis.builder import SynthesisConfig, synthesize_design


@dataclass
class MethodComparison:
    """All numbers the evaluation needs for one (benchmark, switch count) point."""

    benchmark: str
    switch_count: int
    unprotected: NocDesign
    removal: RemovalResult
    ordering: OrderingResult
    unprotected_power: NocPowerReport
    removal_power: NocPowerReport
    ordering_power: NocPowerReport
    unprotected_area: NocAreaReport
    removal_area: NocAreaReport
    ordering_area: NocAreaReport

    # ------------------------------------------------------------------
    # headline numbers
    # ------------------------------------------------------------------
    @property
    def removal_extra_vcs(self) -> int:
        """Extra VCs added by the deadlock-removal algorithm."""
        return self.removal.added_vc_count

    @property
    def ordering_extra_vcs(self) -> int:
        """Extra VCs added by resource ordering."""
        return self.ordering.extra_vcs

    @property
    def vc_reduction_percent(self) -> float:
        """How many fewer VCs removal needs than ordering (the 88% claim)."""
        return percent_reduction(self.ordering_extra_vcs, self.removal_extra_vcs)

    @property
    def power_saving_percent(self) -> float:
        """Power saved by removal relative to ordering (the 8.6% claim)."""
        return percent_reduction(
            self.ordering_power.total_power_mw, self.removal_power.total_power_mw
        )

    @property
    def area_saving_percent(self) -> float:
        """Router+link area saved by removal relative to ordering (66% claim)."""
        return percent_reduction(
            self.ordering_area.total_area_mm2, self.removal_area.total_area_mm2
        )

    @property
    def removal_power_overhead_percent(self) -> float:
        """Power overhead of removal vs. the unprotected design (<5% claim)."""
        if self.unprotected_power.total_power_mw == 0:
            return 0.0
        return (
            self.removal_power.total_power_mw / self.unprotected_power.total_power_mw
            - 1.0
        ) * 100.0

    @property
    def removal_area_overhead_percent(self) -> float:
        """Area overhead of removal vs. the unprotected design (<5% claim)."""
        if self.unprotected_area.total_area_mm2 == 0:
            return 0.0
        return (
            self.removal_area.total_area_mm2 / self.unprotected_area.total_area_mm2
            - 1.0
        ) * 100.0

    @property
    def normalised_ordering_power(self) -> float:
        """Ordering power normalised to removal power (Figure 10's y-axis)."""
        if self.removal_power.total_power_mw == 0:
            return 0.0
        return self.ordering_power.total_power_mw / self.removal_power.total_power_mw

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for tables and JSON dumps."""
        return {
            "benchmark": self.benchmark,
            "switch_count": self.switch_count,
            "removal_extra_vcs": self.removal_extra_vcs,
            "ordering_extra_vcs": self.ordering_extra_vcs,
            "vc_reduction_percent": round(self.vc_reduction_percent, 2),
            "removal_power_mw": round(self.removal_power.total_power_mw, 3),
            "ordering_power_mw": round(self.ordering_power.total_power_mw, 3),
            "unprotected_power_mw": round(self.unprotected_power.total_power_mw, 3),
            "power_saving_percent": round(self.power_saving_percent, 2),
            "removal_area_mm2": round(self.removal_area.total_area_mm2, 4),
            "ordering_area_mm2": round(self.ordering_area.total_area_mm2, 4),
            "unprotected_area_mm2": round(self.unprotected_area.total_area_mm2, 4),
            "area_saving_percent": round(self.area_saving_percent, 2),
            "removal_power_overhead_percent": round(self.removal_power_overhead_percent, 2),
            "removal_area_overhead_percent": round(self.removal_area_overhead_percent, 2),
            "removal_runtime_s": round(self.removal.runtime_seconds, 4),
        }


@lru_cache(maxsize=None)
def resolve_benchmark_traffic(name: str, seed: int = 0) -> CommunicationGraph:
    """Benchmark traffic by registry name, memoised per process.

    Sweep workers call this instead of unpickling a full
    :class:`CommunicationGraph` per point: only the (name, seed) pair
    crosses the process boundary and the graph is built once per worker.
    Callers must treat the returned graph as read-only (the synthesis
    pipeline copies it into each design).
    """
    return get_benchmark(name, seed=seed)


def _resolve_traffic(
    benchmark: Union[str, CommunicationGraph], seed: int
) -> CommunicationGraph:
    if isinstance(benchmark, CommunicationGraph):
        return benchmark
    return resolve_benchmark_traffic(benchmark, seed)


def compare_methods(
    benchmark: Union[str, CommunicationGraph],
    switch_count: int,
    *,
    seed: int = 0,
    tech: Optional[TechnologyParameters] = None,
    synthesis_overrides: Optional[Dict] = None,
    engine: str = DEFAULT_REMOVAL_ENGINE,
    ordering_strategy: str = STRATEGY_HOP_INDEX,
    synthesis_backend: str = "custom",
    routing_engine: str = "indexed",
    topology_family: Optional[str] = None,
    family_params: Optional[Dict] = None,
    unprotected: Optional[NocDesign] = None,
) -> MethodComparison:
    """Run the full unprotected / removal / ordering comparison for one point.

    ``engine``, ``ordering_strategy``, ``synthesis_backend``,
    ``routing_engine`` and ``topology_family`` name entries of the
    pluggable registries in :mod:`repro.api.registry` (``topology_family``
    with its ``family_params`` routes synthesis through the parameterized
    generator).  Passing a pre-synthesized ``unprotected`` design (e.g.
    from the artifact cache) skips the synthesis step entirely.
    """
    if unprotected is None:
        # Only resolve the benchmark traffic when synthesis actually needs
        # it; with a pre-built design (e.g. from the artifact cache) the
        # design's own traffic copy carries everything downstream uses.
        traffic = _resolve_traffic(benchmark, seed)
        overrides = dict(synthesis_overrides or {})
        overrides.setdefault("routing_engine", routing_engine)
        if topology_family is not None:
            overrides.setdefault("topology_family", topology_family)
            overrides.setdefault("family_params", dict(family_params or {}))
        config = SynthesisConfig(n_switches=switch_count, seed=seed, **overrides)
        backend = synthesis_backends.get(synthesis_backend)
        unprotected = backend(traffic, config)
        benchmark_name = traffic.name
    else:
        benchmark_name = unprotected.traffic.name

    removal = remove_deadlocks(unprotected, engine=engine)
    ordering = apply_resource_ordering(unprotected, strategy=ordering_strategy)

    tech = tech or TechnologyParameters()
    # One fused pass per design: power and area share the router-load /
    # port-count / link-load derivations instead of re-deriving them.
    unprotected_power, unprotected_area = estimate_power_and_area(unprotected, tech=tech)
    removal_power, removal_area = estimate_power_and_area(removal.design, tech=tech)
    ordering_power, ordering_area = estimate_power_and_area(ordering.design, tech=tech)
    return MethodComparison(
        benchmark=benchmark_name,
        switch_count=switch_count,
        unprotected=unprotected,
        removal=removal,
        ordering=ordering,
        unprotected_power=unprotected_power,
        removal_power=removal_power,
        ordering_power=ordering_power,
        unprotected_area=unprotected_area,
        removal_area=removal_area,
        ordering_area=ordering_area,
    )


def _compare_point(args) -> MethodComparison:
    """Process-pool worker: one ``compare_methods`` point, fully materialised.

    Must stay module-level so :func:`repro.perf.executor.parallel_map` can
    pickle it into worker processes.  ``benchmark`` arrives as the registry
    *name* whenever possible — :func:`resolve_benchmark_traffic` then builds
    the traffic graph once per worker instead of unpickling it per point.
    """
    benchmark, count, seed, overrides = args
    return compare_methods(benchmark, count, seed=seed, synthesis_overrides=overrides)


def sweep_switch_counts(
    benchmark: Union[str, CommunicationGraph],
    switch_counts: Sequence[int],
    *,
    seed: int = 0,
    synthesis_overrides: Optional[Dict] = None,
    jobs: Optional[int] = None,
) -> List[MethodComparison]:
    """Repeat :func:`compare_methods` over several switch counts (Figures 8/9).

    Each point is an independent synthesize/remove/order/estimate pipeline;
    ``jobs`` fans them out over a process pool (results stay in
    ``switch_counts`` order; ``None``/``0``/``1`` runs serially).

    Legacy adapter: prefer a :class:`repro.api.spec.ExperimentPlan` over
    :class:`repro.api.runner.Runner`, which adds artifact caching and
    returns serializable :class:`~repro.api.result.RunResult` records.
    """
    if isinstance(benchmark, str):
        # Validate the name up front (and warm this process's memo); the
        # workers re-resolve from the name so no traffic graph is pickled.
        resolve_benchmark_traffic(benchmark, seed)
    points = [(benchmark, count, seed, synthesis_overrides) for count in switch_counts]
    return parallel_map(_compare_point, points, jobs=jobs)


def runtime_scaling(
    *,
    benchmarks: Optional[Sequence[str]] = None,
    switch_count: int = FIGURE10_SWITCH_COUNT,
    seed: int = 0,
) -> Dict[str, List]:
    """The §5 runtime claim: the method runs in seconds/minutes and scales.

    Kept on the direct path (not the cached runner): the whole point is to
    measure fresh synthesis and removal wall-clock, which a cache hit would
    falsify.
    """
    names = list(benchmarks or FIGURE10_BENCHMARKS)
    synthesis_seconds: List[float] = []
    removal_seconds: List[float] = []
    added_vcs: List[int] = []
    for name in names:
        traffic = get_benchmark(name, seed=seed)
        start = time.perf_counter()
        design = synthesize_design(traffic, SynthesisConfig(n_switches=switch_count, seed=seed))
        synthesis_seconds.append(time.perf_counter() - start)
        result = remove_deadlocks(design)
        removal_seconds.append(result.runtime_seconds)
        added_vcs.append(result.added_vc_count)
    return {
        "benchmarks": names,
        "switch_count": switch_count,
        "synthesis_seconds": synthesis_seconds,
        "removal_seconds": removal_seconds,
        "added_vcs": added_vcs,
        "total_removal_seconds": sum(removal_seconds),
    }
