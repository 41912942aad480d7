"""Output checks, the records digest and the simulated outcome figures.

Everything here works on plain record documents (``RunResult.to_dict()``)
so the checks can be tested on doctored records without running a plan.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: Variants whose designs are deadlock-free by construction.
PROTECTED_VARIANTS = ("removal", "ordering")

#: Recovery policies that keep the protected variants deadlock-free after a fault.
DEADLOCK_FREE_POLICIES = ("removal", "idle", "protection")

#: Wall-clock field of a record; the only part that may differ between runs.
WALL_CLOCK_FIELD = "removal_runtime_s"


def _faulted(simulation: Mapping[str, Any]) -> bool:
    return "fault_model" in simulation or "fault_schedule" in simulation


def record_problems(record: Mapping[str, Any], *, cache_hit: bool = False) -> List[str]:
    """Every output check one record breaks (empty when it passes).

    ``cache_hit`` is the record's runtime flag: the benchmark runs on a
    fresh cache, so a result served from the cache means it read a cache
    it does not own.
    """
    problems = []
    if cache_hit:
        problems.append("served from the result cache on a cold pass")
    simulation = record.get("simulation")
    if simulation is None:
        return problems
    faulted = _faulted(simulation)
    policy = simulation.get("fault_recovery")
    for variant, metrics in simulation["variants"].items():
        if metrics["packets_delivered"] > metrics["packets_injected"]:
            problems.append(
                f"{variant}: delivered {metrics['packets_delivered']} packets "
                f"of {metrics['packets_injected']} injected"
            )
        if variant not in PROTECTED_VARIANTS:
            continue
        if not faulted and metrics["deadlocked"]:
            problems.append(f"{variant}: deadlocked without faults")
        if (
            faulted
            and policy in DEADLOCK_FREE_POLICIES
            and metrics.get("resilience", {}).get("post_fault_deadlock_free") is False
        ):
            problems.append(f"{variant}: cyclic CDG after a fault under {policy!r}")
    return problems


def records_digest(records: Iterable[Mapping[str, Any]]) -> str:
    """SHA-256 over the records in order, wall-clock field excluded."""
    digest = hashlib.sha256()
    for record in records:
        document = {key: value for key, value in record.items() if key != WALL_CLOCK_FIELD}
        digest.update(json.dumps(document, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _variants(records: Sequence[Mapping[str, Any]]):
    for record in records:
        simulation = record.get("simulation")
        if simulation is not None:
            for variant, metrics in simulation["variants"].items():
                yield simulation, variant, metrics


def simulated_outcomes(records: Sequence[Mapping[str, Any]]) -> Dict[str, Optional[float]]:
    """Deterministic model outputs of one plan's records.

    ``removal_latency_cycles`` is the removal variant's mean packet latency
    at the lowest fault-free ``flows`` load point, and
    ``delivered_fraction`` the removal variant's delivered/injected packets
    over the faulted specs; each is ``None`` when the plan has no such spec.
    """
    cycles = sum(metrics["cycles_run"] for _, _, metrics in _variants(records))
    lowest: Optional[Mapping[str, Any]] = None
    delivered = injected = 0
    for simulation, variant, metrics in _variants(records):
        if variant != "removal":
            continue
        if _faulted(simulation):
            delivered += metrics["packets_delivered"]
            injected += metrics["packets_injected"]
        elif simulation["traffic_scenario"] == "flows" and (
            lowest is None or metrics["injection_scale"] < lowest["injection_scale"]
        ):
            lowest = metrics
    return {
        "sim_cycles": cycles,
        "removal_latency_cycles": None if lowest is None else lowest["average_latency"],
        "delivered_fraction": delivered / injected if injected else None,
    }


def layer_counts(records: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Per-layer figures read from the records (identical under any speed-up)."""
    cycles = injected = delivered_packets = flits = deadlocked = 0
    fault_events = packets_lost = batches = drained = 0
    for _, _, metrics in _variants(records):
        cycles += metrics["cycles_run"]
        injected += metrics["packets_injected"]
        delivered_packets += metrics["packets_delivered"]
        flits += metrics["flits_delivered"]
        deadlocked += bool(metrics["deadlocked"])
        resilience = metrics.get("resilience")
        if resilience:
            fault_events += resilience["fault_events_applied"]
            packets_lost += resilience["packets_lost"]
            batches += len(resilience["recovery_cycles"])
            drained += sum(1 for value in resilience["recovery_cycles"] if value >= 0)
    return {
        "simulation.cycles": cycles,
        "simulation.packets_injected": injected,
        "simulation.flits_delivered": flits,
        "simulation.delivered_ratio": delivered_packets / injected if injected else 0.0,
        "simulation.deadlocked_variants": deadlocked,
        "simulation.fault_events": fault_events,
        "simulation.packets_lost": packets_lost,
        "simulation.fault_batches_drained_ratio": drained / batches if batches else 0.0,
    }
