"""Batched simulation engine vs. per-spec compiled execution.

The batched engine (:mod:`repro.perf.batch_engine`) runs a whole latency
grid as one structure-of-arrays numpy program per design variant; the
:class:`~repro.api.runner.Runner` batch planner threads it through the
experiment API.  Batching must be invisible except in wall clock, so this
benchmark measures *and* proves, on a 16-point D36_8 @ 35-switch latency
grid (full configuration):

* **end-to-end speedup** — per-spec ``compiled`` execution (the pre-batch
  runner semantics: synthesized design shared, removal re-run per spec,
  every load point simulated alone) against a cold-cache ``Runner`` run of
  the same grid under ``sim_engine: "batched"`` (one removal via the
  shared cost bundle + one array program per design variant), asserting
  ``>= 4x`` in the full configuration;
* **engine-only speedup** — the summed solo ``compiled`` simulation time
  against the batched array program on the same designs, reported and
  asserted at a conservative floor (wall-clock noise on shared runners
  dominates the tighter bound);
* **per-lane field identity** — every spec's every variant re-run under
  ``cross_check=True``, which raises on any ``SimulationStats`` field
  divergence between the batched lanes and the ``compiled`` reference;
* **record byte-identity** — the cached ``RunResult`` documents written by
  the batched run compared byte-for-byte against solo
  :func:`~repro.api.runner.execute_spec` executions of every spec in the
  grid (same cost bundle, fresh cache).

Results go to ``BENCH_batched_sim.json`` at the repository root.  Runnable
standalone::

    PYTHONPATH=src python benchmarks/bench_batched_sim.py           # full
    PYTHONPATH=src python benchmarks/bench_batched_sim.py --smoke   # CI, <60 s
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOT_RESULT_PATH = REPO_ROOT / "BENCH_batched_sim.json"

from repro.analysis.experiments import compare_methods
from repro.analysis.performance import measure_load_point
from repro.api.cache import ArtifactCache
from repro.api.runner import (
    COST_KIND,
    DESIGN_KIND,
    RESULT_KIND,
    SIMULATED_VARIANTS,
    Runner,
    execute_spec,
    execute_spec_batch,
)
from repro.api.spec import ExperimentPlan, RunSpec

#: End-to-end acceptance threshold at the headline grid (D36_8 @ 35).
FULL_SPEEDUP_THRESHOLD = 4.0
#: Conservative floor for the engine-only ratio (reported for context; the
#: acceptance bar is end-to-end).
FULL_SIM_ONLY_THRESHOLD = 2.0
#: Loose smoke thresholds: tiny topologies and short runs put process
#: noise on shared CI runners in the same order as the measured times.
SMOKE_SPEEDUP_THRESHOLD = 1.3
SMOKE_SIM_ONLY_THRESHOLD = 0.7

#: The headline grid: 16 load points spanning the latency curve.
FULL_SCALES = (
    0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0,
    1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0,
)
SMOKE_SCALES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def _grid_specs(benchmark: str, switches: int, seed: int, scales, sim_cycles: int):
    return [
        RunSpec(
            benchmark=benchmark,
            switch_count=switches,
            seed=seed,
            injection_scale=scale,
            sim_cycles=sim_cycles,
            sim_engine="batched",
        )
        for scale in scales
    ]


def _baseline_variants(spec: RunSpec, design_memo: Dict[str, object]) -> Dict[str, Dict]:
    """Per-spec ``compiled`` execution with pre-batch runner semantics.

    The synthesized design is shared across the grid (the old design
    cache); removal, ordering and the power/area models re-run per spec,
    and every load point simulates its three variants alone — exactly what
    a cold-cache sweep paid before the cost-bundle + batch-planner layer.
    """
    key = spec.synthesis_fingerprint()
    comparison = compare_methods(
        spec.benchmark,
        spec.switch_count,
        seed=spec.seed,
        engine=spec.engine,
        ordering_strategy=spec.ordering_strategy,
        unprotected=design_memo.get(key),
    )
    design_memo[key] = comparison.unprotected
    designs = {
        "unprotected": comparison.unprotected,
        "removal": comparison.removal.design,
        "ordering": comparison.ordering.design,
    }
    return {
        variant: measure_load_point(
            designs[variant],
            injection_scale=spec.injection_scale,
            max_cycles=spec.sim_cycles,
            buffer_depth=spec.buffer_depth,
            seed=spec.seed,
            sim_engine="compiled",
        )
        for variant in SIMULATED_VARIANTS
    }


def run_batched_benchmark(
    *,
    benchmark: str = "D36_8",
    switches: int = 35,
    seed: int = 0,
    scales=FULL_SCALES,
    sim_cycles: int = 3000,
) -> dict:
    """Time, cross-check and byte-compare the batched grid execution."""
    specs = _grid_specs(benchmark, switches, seed, scales, sim_cycles)
    plan = ExperimentPlan(name="bench-batched", specs=specs)

    # --- baseline: per-spec compiled execution (pre-batch semantics) ----
    design_memo: Dict[str, object] = {}
    start = time.perf_counter()
    baseline = [_baseline_variants(spec, design_memo) for spec in specs]
    per_spec_seconds = time.perf_counter() - start

    work_dir = Path(tempfile.mkdtemp(prefix="bench_batched_"))
    try:
        # --- batched: cold-cache Runner execution of the same grid ------
        batched_cache = work_dir / "batched-cache"
        start = time.perf_counter()
        plan_result = Runner(cache_dir=batched_cache).run(plan)
        batched_seconds = time.perf_counter() - start

        # The grids must agree point by point, variant by variant (the
        # records' metrics are plain JSON scalars, so == is exact).
        grids_identical = all(
            result.simulation["variants"] == expected
            for result, expected in zip(plan_result.results, baseline)
        )

        # --- engine-only ratio on the removal design --------------------
        from repro.core.removal import remove_deadlocks

        unprotected = next(iter(design_memo.values()))  # the shared design
        protected = remove_deadlocks(unprotected).design
        config_points = [
            {"injection_scale": spec.injection_scale, "seed": spec.seed}
            for spec in specs
        ]
        start = time.perf_counter()
        solo_metrics = [
            measure_load_point(
                protected,
                injection_scale=point["injection_scale"],
                max_cycles=sim_cycles,
                seed=point["seed"],
                sim_engine="compiled",
            )
            for point in config_points
        ]
        solo_sim_seconds = time.perf_counter() - start
        from repro.analysis.performance import measure_load_grid

        start = time.perf_counter()
        grid_metrics = measure_load_grid(
            protected, config_points, max_cycles=sim_cycles
        )
        batched_sim_seconds = time.perf_counter() - start
        sim_lanes_identical = solo_metrics == grid_metrics

        # --- cross_check: per-lane SimulationStats field identity -------
        execute_spec_batch(specs, None, cross_check=True)  # raises on divergence

        # --- record byte-identity: batched cache vs solo re-execution ---
        batch_store = ArtifactCache(batched_cache)
        solo_cache_dir = work_dir / "solo-cache"
        for kind in (DESIGN_KIND, COST_KIND):
            if (batched_cache / kind).is_dir():
                shutil.copytree(batched_cache / kind, solo_cache_dir / kind)
        solo_store = ArtifactCache(solo_cache_dir)
        records_identical = True
        for spec in specs:
            execute_spec(spec, solo_store)
            batch_bytes = batch_store._path(RESULT_KIND, spec.fingerprint()).read_text()
            solo_bytes = solo_store._path(RESULT_KIND, spec.fingerprint()).read_text()
            if batch_bytes != solo_bytes:
                records_identical = False
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    return {
        "benchmark": benchmark,
        "switches": switches,
        "seed": seed,
        "sim_cycles": sim_cycles,
        "grid_points": len(specs),
        "injection_scales": list(scales),
        "per_spec_seconds": per_spec_seconds,
        "batched_seconds": batched_seconds,
        "end_to_end_speedup": (
            per_spec_seconds / batched_seconds if batched_seconds > 0 else float("inf")
        ),
        "solo_sim_seconds": solo_sim_seconds,
        "batched_sim_seconds": batched_sim_seconds,
        "sim_only_speedup": (
            solo_sim_seconds / batched_sim_seconds
            if batched_sim_seconds > 0
            else float("inf")
        ),
        "grids_identical": grids_identical,
        "sim_lanes_identical": sim_lanes_identical,
        "cross_check_passed": True,  # execute_spec_batch raises otherwise
        "records_identical": records_identical,
    }


def _persist(data: dict) -> None:
    ROOT_RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _report(data: dict) -> str:
    return "\n".join(
        [
            f"batched simulation benchmark — {data['benchmark']} @ "
            f"{data['switches']} switches, {data['grid_points']}-point grid "
            f"(seed {data['seed']}, {data['sim_cycles']} cycles)",
            f"  per-spec compiled execution: {data['per_spec_seconds']:8.2f}s",
            f"  batched Runner execution:    {data['batched_seconds']:8.2f}s "
            f"({data['end_to_end_speedup']:.2f}x)",
            f"  solo sims on removal design: {data['solo_sim_seconds']:8.2f}s",
            f"  batched array program:       {data['batched_sim_seconds']:8.2f}s "
            f"({data['sim_only_speedup']:.2f}x)",
            f"  grids identical: {data['grids_identical']}  "
            f"sim lanes identical: {data['sim_lanes_identical']}  "
            f"cross-check passed: {data['cross_check_passed']}  "
            f"records byte-identical: {data['records_identical']}",
        ]
    )


def _check(data: dict, threshold: float, sim_threshold: float) -> List[str]:
    failures = []
    for flag in (
        "grids_identical",
        "sim_lanes_identical",
        "cross_check_passed",
        "records_identical",
    ):
        if not data[flag]:
            failures.append(f"{flag} is False — batching is not invisible")
    if data["end_to_end_speedup"] < threshold:
        failures.append(
            f"end-to-end speedup {data['end_to_end_speedup']:.2f}x below "
            f"{threshold}x on the {data['grid_points']}-point grid"
        )
    if data["sim_only_speedup"] < sim_threshold:
        failures.append(
            f"engine-only speedup {data['sim_only_speedup']:.2f}x below "
            f"{sim_threshold}x"
        )
    return failures


def test_batched_sim_speedup(benchmark, context_counters):
    """Harness entry: full configuration, asserts the 4x acceptance bar."""
    data = benchmark.pedantic(run_batched_benchmark, rounds=1, iterations=1)
    print("\n" + _report(data))
    _persist(data)
    failures = _check(data, FULL_SPEEDUP_THRESHOLD, FULL_SIM_ONLY_THRESHOLD)
    assert not failures, "; ".join(failures)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="D36_8")
    parser.add_argument("--switches", type=int, default=35)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI configuration (4-point grid, short horizon, loose "
        "thresholds; keeps the headline topology so the array program has "
        "enough lanes/channels to win)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        data = run_batched_benchmark(
            benchmark=args.benchmark,
            switches=args.switches,
            seed=args.seed,
            scales=SMOKE_SCALES,
            sim_cycles=600,
        )
        thresholds = (SMOKE_SPEEDUP_THRESHOLD, SMOKE_SIM_ONLY_THRESHOLD)
    else:
        data = run_batched_benchmark(
            benchmark=args.benchmark,
            switches=args.switches,
            seed=args.seed,
        )
        thresholds = (FULL_SPEEDUP_THRESHOLD, FULL_SIM_ONLY_THRESHOLD)
    print(_report(data))
    _persist(data)
    print(f"wrote {ROOT_RESULT_PATH}")
    failures = _check(data, *thresholds)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
