"""The benchmark's workloads: a workload seed becomes experiment plans.

Each workload is a plan document for the public experiment API.  A run
measures ``INPUTS_PER_RUN[workload]`` inputs derived from the workload
seed, one design seed each: plan time moves by up to ~1.5x from one
design seed to the next (synthesized topology, deadlocks, drain length),
so a run-level figure that rested on a single design would spread across
workload seeds by more than any useful bound.  The counts make one pass
over the inputs last about a run (``run_seconds`` in BENCHMARK.json)
on the machine the benchmark was written on, when that machine was slow.
The design seed goes into every report request: report requests ignore
plan ``defaults``.
"""

from __future__ import annotations

from typing import Any, Dict, List

WORKLOADS = ("paper_cost", "latency_sweep", "fault_availability")

#: Workload seed used while the benchmark was written.
DEFAULT_SEED = 0

#: Seed never used while tuning; a later performance claim must hold on it too.
HELD_OUT_SEED = 101

#: Inputs (design seeds) measured per run.
INPUTS_PER_RUN = {"paper_cost": 8, "latency_sweep": 8, "fault_availability": 10}

#: Spacing of the design seeds of consecutive workload seeds, so two
#: workload seeds never share an input.
_INPUT_STRIDE = 1000

#: The paper's evaluation: Figures 8-10 plus the area and overhead claims.
PAPER_REPORTS = ("figure8", "figure9", "figure10", "area", "overhead")

#: Load points of the latency sweep, below saturation to past it.
LATENCY_SCALES = [0.5, 1.0, 2.0]
LATENCY_CYCLES = 300

AVAILABILITY_POLICIES = ["removal", "reroute", "idle", "protection"]
AVAILABILITY_FAULT_SEEDS = [0, 1]
AVAILABILITY_CYCLES = 600
AVAILABILITY_FAULTS = {
    "radius": 1,
    "start_cycle": 60,
    "end_cycle": 360,
    "restore_after": 180,
}


def input_seeds(workload: str, seed: int) -> List[int]:
    """The design seeds one run of ``workload`` at ``seed`` measures, in order."""
    return [seed * _INPUT_STRIDE + index for index in range(INPUTS_PER_RUN[workload])]


def plan_document(workload: str, design_seed: int) -> Dict[str, Any]:
    """The experiment-plan document of one input of ``workload``."""
    if workload == "paper_cost":
        reports = [{"type": name, "seed": design_seed} for name in PAPER_REPORTS]
    elif workload == "latency_sweep":
        sweep = {
            "type": "latency",
            "benchmark": "D36_8",
            "switch_count": 14,
            "sim_cycles": LATENCY_CYCLES,
            "injection_scales": list(LATENCY_SCALES),
            "seed": design_seed,
        }
        # The default engine runs the flows grid one spec at a time; the
        # hotspot grid asks for the batched engine, one program per variant.
        reports = [
            sweep,
            dict(sweep, traffic_scenario="hotspot", sim_engine="batched"),
        ]
    elif workload == "fault_availability":
        reports = [
            {
                "type": "availability",
                "benchmark": "D36_4",
                "switch_count": 14,
                "injection_scale": 1.0,
                "sim_cycles": AVAILABILITY_CYCLES,
                "fault_model": "spatial_burst",
                "fault_params": dict(AVAILABILITY_FAULTS),
                "recovery_policies": list(AVAILABILITY_POLICIES),
                "seeds": list(AVAILABILITY_FAULT_SEEDS),
                "seed": design_seed,
            }
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return {
        "format_version": 1,
        "name": f"perfbench-{workload}-{design_seed}",
        "reports": reports,
    }
