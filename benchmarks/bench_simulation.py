"""Wormhole simulation: compiled array engine vs. legacy object engine.

The compiled engine (:mod:`repro.perf.sim_engine`) must be measurably
faster than the seed object-per-flit simulator while producing
**field-identical** :class:`~repro.simulation.stats.SimulationStats` — the
simulation is the runtime evidence behind the paper's deadlock-freedom
claims, so the fast engine earning its keep means nothing if its verdicts
could drift.  This benchmark:

* times both engines end-to-end (injection + drain) on the deadlock-free
  D36_8 design at 35 switches and on an 8x8 XY mesh, asserting the
  compiled engine's speedup at the D36_8 point is at least ``3x`` (full
  configuration);
* asserts the stats of every timed pair are identical field by field;
* cross-checks (``simulate_design(..., cross_check=True)`` — the compiled
  run re-executed on the legacy engine and compared stat-by-stat) on all
  six SoC benchmarks at 14 switches **and** under all four synthetic
  traffic scenarios (uniform, hotspot, transpose, bursty) plus the paper's
  ``flows`` traffic;
* asserts the per-design :class:`~repro.perf.sim_engine.SimulationTemplate`
  is compiled once and *reused* across a design's runs
  (``counters.sim_template_reuses``), so a regression that recompiles per
  run fails loudly here.

Results go to ``BENCH_simulation.json`` at the repository root, together
with the interpreter, machine and commit they were measured on.  Timings from
different machines do not compare, so ``--baseline`` embeds the timings of
another checkout's results file (say, the parent commit's, measured just
before on the same machine) next to this run's.  Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_simulation.py           # full
    PYTHONPATH=src python benchmarks/bench_simulation.py --smoke   # CI, <60 s
    PYTHONPATH=src python benchmarks/bench_simulation.py --baseline other/BENCH_simulation.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOT_RESULT_PATH = REPO_ROOT / "BENCH_simulation.json"

from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.core.removal import remove_deadlocks
from repro.perf.design_context import counters
from repro.simulation.simulator import (
    SimulationConfig,
    simulate_design,
    stats_divergences,
)
from repro.simulation.stats import SimulationStats
from repro.synthesis.builder import SynthesisConfig, synthesize_design
from repro.synthesis.families import family_design
from repro.synthesis.regular import default_mesh_traffic

#: Acceptance threshold at the headline point (D36_8 @ 35 switches).
FULL_SPEEDUP_THRESHOLD = 3.0
#: Looser threshold for the CI smoke configuration (small topology, short
#: runs — process noise on shared runners dominates small absolute times).
SMOKE_SPEEDUP_THRESHOLD = 1.5
#: Switch count of the six-benchmark cross-check (the Figure 10 setting).
CROSS_CHECK_SWITCHES = 14
#: Every registered scenario the cross-check sweep exercises.
SCENARIOS = ("flows", "uniform", "hotspot", "transpose", "bursty")


def _environment() -> dict:
    """Where the timings were taken: interpreter, machine and commit."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": commit or None,
    }


def _baseline(path: Path) -> dict:
    """The timings of another run's results file, to store beside ours."""
    other = json.loads(Path(path).read_text())
    return {
        "environment": other.get("environment"),
        "headline_speedup": other["headline_speedup"],
        "points": [
            {
                key: point[key]
                for key in ("design", "legacy_seconds", "compiled_seconds", "speedup")
            }
            for point in other["points"]
        ],
    }


def _stats_identical(a: SimulationStats, b: SimulationStats) -> bool:
    return not stats_divergences(a, b)


def _protected_design(benchmark: str, switches: int, seed: int):
    traffic = get_benchmark(benchmark, seed=seed)
    design = synthesize_design(traffic, SynthesisConfig(n_switches=switches, seed=seed))
    return remove_deadlocks(design).design


def _time_point(design, *, max_cycles: int, injection_scale: float, seed: int, rounds: int):
    """Min-of-rounds wall time for both engines plus stats equality."""
    config = SimulationConfig(injection_scale=injection_scale, seed=seed)
    legacy_times: List[float] = []
    compiled_times: List[float] = []
    legacy_stats = compiled_stats = None
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        legacy_stats = simulate_design(
            design, max_cycles=max_cycles, config=config, engine="legacy"
        )
        legacy_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        compiled_stats = simulate_design(
            design, max_cycles=max_cycles, config=config, engine="compiled"
        )
        compiled_times.append(time.perf_counter() - start)
    legacy_s, compiled_s = min(legacy_times), min(compiled_times)
    return {
        "design": design.name,
        "max_cycles": max_cycles,
        "cycles_run": compiled_stats.cycles_run,
        "injection_scale": injection_scale,
        "packets_delivered": compiled_stats.packets_delivered,
        "average_latency": round(compiled_stats.average_latency, 2),
        "legacy_seconds": legacy_s,
        "compiled_seconds": compiled_s,
        "speedup": legacy_s / compiled_s if compiled_s > 0 else float("inf"),
        "stats_identical": _stats_identical(legacy_stats, compiled_stats),
    }


def run_simulation_benchmark(
    *,
    benchmark: str = "D36_8",
    switches: int = 35,
    seed: int = 0,
    rounds: int = 3,
    max_cycles: int = 2000,
    cross_check_benchmarks: Optional[List[str]] = None,
    cross_check_cycles: int = 600,
) -> dict:
    """Time compiled vs. legacy and cross-check benchmarks x scenarios."""
    counters.reset()
    points = []

    protected = _protected_design(benchmark, switches, seed)
    points.append(
        _time_point(
            protected,
            max_cycles=max_cycles,
            injection_scale=1.0,
            seed=seed,
            rounds=rounds,
        )
    )
    mesh = family_design(
        "mesh",
        default_mesh_traffic(8, 8),
        {"rows": 8, "cols": 8, "routing": "xy"},
        name="mesh8x8",
    )
    points.append(
        _time_point(
            mesh,
            max_cycles=max_cycles,
            injection_scale=1.0,
            seed=seed,
            rounds=rounds,
        )
    )

    names = (
        cross_check_benchmarks
        if cross_check_benchmarks is not None
        else list_benchmarks()
    )
    cross_checks = []
    for name in names:
        design = _protected_design(name, CROSS_CHECK_SWITCHES, seed)
        for scenario in SCENARIOS:
            config = SimulationConfig(
                injection_scale=2.0, seed=seed, traffic_scenario=scenario
            )
            # cross_check=True re-runs the legacy engine on an identical
            # fresh configuration and raises on any stats divergence.
            stats = simulate_design(
                design,
                max_cycles=cross_check_cycles,
                config=config,
                engine="compiled",
                cross_check=True,
            )
            cross_checks.append(
                {
                    "benchmark": name,
                    "scenario": scenario,
                    "packets_delivered": stats.packets_delivered,
                    "deadlocked": stats.deadlock_detected,
                    "identical": True,  # cross_check raises otherwise
                }
            )

    # The five scenario cross-checks per design (and every timed round past
    # the first) must be served by the design's cached simulation template.
    template_reuse = counters.snapshot()
    return {
        "benchmark": benchmark,
        "switches": switches,
        "seed": seed,
        "rounds": max(rounds, 1),
        "points": points,
        "cross_checks": cross_checks,
        "headline_speedup": points[0]["speedup"],
        "all_stats_identical": all(p["stats_identical"] for p in points),
        "template_reuse": template_reuse,
        "environment": _environment(),
    }


def _persist(data: dict) -> None:
    ROOT_RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _report(data: dict) -> str:
    lines = [
        f"simulation engine benchmark — {data['benchmark']} (seed {data['seed']})",
        f"{'design':>22} {'cycles':>7} {'legacy':>10} {'compiled':>10} "
        f"{'speedup':>8} {'identical':>9}",
    ]
    for point in data["points"]:
        lines.append(
            f"{point['design']:>22} {point['cycles_run']:>7} "
            f"{point['legacy_seconds'] * 1e3:>8.0f}ms "
            f"{point['compiled_seconds'] * 1e3:>8.0f}ms "
            f"{point['speedup']:>7.2f}x {str(point['stats_identical']):>9}"
        )
    benchmarks = sorted({c["benchmark"] for c in data["cross_checks"]})
    scenarios = sorted({c["scenario"] for c in data["cross_checks"]})
    lines.append(
        f"  cross-check: {len(benchmarks)} benchmark(s) @ {CROSS_CHECK_SWITCHES} "
        f"switches x {len(scenarios)} scenario(s) — all stats identical"
    )
    reuse = data["template_reuse"]
    lines.append(
        f"  sim templates: {reuse['sim_template_builds']} compiled, "
        f"{reuse['sim_template_reuses']} reused"
    )
    baseline = {p["design"]: p for p in data.get("baseline", {}).get("points", [])}
    for point in data["points"]:
        if point["design"] in baseline:
            before = baseline[point["design"]]
            lines.append(
                f"  baseline {point['design']}: legacy "
                f"{before['legacy_seconds'] * 1e3:.0f}ms, compiled "
                f"{before['compiled_seconds'] * 1e3:.0f}ms -> "
                f"{point['compiled_seconds'] * 1e3:.0f}ms"
            )
    return "\n".join(lines)


def _check(data: dict, threshold: float) -> List[str]:
    failures = []
    if not data["all_stats_identical"]:
        failures.append("engines disagreed on a timed run's statistics")
    if data["headline_speedup"] < threshold:
        failures.append(
            f"speedup {data['headline_speedup']:.2f}x below {threshold}x at "
            f"the headline point"
        )
    reuse = data["template_reuse"]
    if reuse["sim_template_reuses"] <= 0:
        failures.append(
            "repeated simulations of one design recompiled the simulation "
            "template instead of reusing the design context's cached one"
        )
    return failures


def test_simulation_speedup(benchmark, context_counters):
    """Harness entry: full configuration, asserts the 3x acceptance bar."""
    data = benchmark.pedantic(run_simulation_benchmark, rounds=1, iterations=1)
    print("\n" + _report(data))
    _persist(data)
    failures = _check(data, FULL_SPEEDUP_THRESHOLD)
    assert not failures, "; ".join(failures)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="D36_8")
    parser.add_argument("--switches", type=int, default=35)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI configuration (20 switches, short runs, 2-benchmark "
        "cross-check, looser threshold)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        help="results file of another checkout measured on the same machine "
        "(e.g. the parent commit's BENCH_simulation.json); its timings are "
        "stored under 'baseline'",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        data = run_simulation_benchmark(
            benchmark=args.benchmark,
            switches=20,
            seed=args.seed,
            rounds=1,
            max_cycles=600,
            cross_check_benchmarks=["D26_media", "D36_8"],
            cross_check_cycles=250,
        )
        threshold = SMOKE_SPEEDUP_THRESHOLD
    else:
        data = run_simulation_benchmark(
            benchmark=args.benchmark,
            switches=args.switches,
            seed=args.seed,
            rounds=args.rounds,
        )
        threshold = FULL_SPEEDUP_THRESHOLD
    if args.baseline is not None:
        data["baseline"] = _baseline(args.baseline)
    print(_report(data))
    _persist(data)
    print(f"wrote {ROOT_RESULT_PATH}")
    failures = _check(data, threshold)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
