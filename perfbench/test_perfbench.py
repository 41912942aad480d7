"""Tests of the benchmark itself: inputs, output checks and the records digest."""

from __future__ import annotations

import copy

import pytest

from perfbench import checks, workloads
from repro.api import ExperimentPlan


def _fingerprints(workload, design_seed):
    plan = ExperimentPlan.from_dict(workloads.plan_document(workload, design_seed))
    return [spec.fingerprint() for spec in plan.all_specs()]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_inputs_are_deterministic_per_seed(workload):
    seeds = workloads.input_seeds(workload, 3)
    assert seeds == workloads.input_seeds(workload, 3)
    assert not set(seeds) & set(workloads.input_seeds(workload, 4))
    assert _fingerprints(workload, seeds[0]) == _fingerprints(workload, seeds[0])
    assert _fingerprints(workload, seeds[0]) != _fingerprints(workload, seeds[1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_design_seed_reaches_every_spec(workload):
    plan = ExperimentPlan.from_dict(workloads.plan_document(workload, 7))
    assert {spec.seed for spec in plan.all_specs()} == {7}


def _variant(**overrides):
    metrics = {
        "injection_scale": 0.5,
        "offered_flits_per_cycle": 1.5,
        "delivered_flits_per_cycle": 1.4,
        "average_latency": 13.25,
        "max_latency": 40,
        "packets_injected": 100,
        "packets_delivered": 98,
        "flits_delivered": 600,
        "cycles_run": 320,
        "deadlocked": False,
        "deadlock_cycle": None,
    }
    metrics.update(overrides)
    return metrics


def _record(**simulation_fields):
    simulation = {
        "engine": "compiled",
        "traffic_scenario": "flows",
        "injection_scale": 0.5,
        "variants": {
            "unprotected": _variant(deadlocked=True),
            "removal": _variant(),
            "ordering": _variant(),
        },
    }
    simulation.update(simulation_fields)
    return {"format_version": 1, "removal_extra_vcs": 3, "removal_runtime_s": 0.0123,
            "simulation": simulation}


def _faulted_record(policy):
    record = _record(fault_model="spatial_burst", fault_recovery=policy)
    for metrics in record["simulation"]["variants"].values():
        metrics["resilience"] = {"post_fault_deadlock_free": True}
    return record


def test_clean_records_pass():
    assert checks.record_problems(_record()) == []
    assert checks.record_problems(_faulted_record("removal")) == []
    assert checks.record_problems({"removal_extra_vcs": 3}) == []


def test_check_flags_a_deadlocked_removal_variant():
    record = _record()
    record["simulation"]["variants"]["removal"]["deadlocked"] = True
    assert checks.record_problems(record) == ["removal: deadlocked without faults"]


def test_check_flags_more_deliveries_than_injections():
    record = _record()
    record["simulation"]["variants"]["ordering"]["packets_delivered"] = 101
    assert len(checks.record_problems(record)) == 1


def test_check_flags_a_cache_hit_on_a_cold_pass():
    assert checks.record_problems(_record(), cache_hit=True) != []


@pytest.mark.parametrize("policy,flagged", [("removal", True), ("idle", True),
                                            ("protection", True), ("reroute", False)])
def test_check_flags_a_cyclic_cdg_after_faults(policy, flagged):
    record = _faulted_record(policy)
    record["simulation"]["variants"]["removal"]["resilience"]["post_fault_deadlock_free"] = False
    assert bool(checks.record_problems(record)) is flagged


def test_digest_ignores_wall_clock_but_sees_one_cycle_of_latency():
    records = [_record(), _faulted_record("idle")]
    digest = checks.records_digest(records)
    retimed = copy.deepcopy(records)
    retimed[0]["removal_runtime_s"] = 9.75
    assert checks.records_digest(retimed) == digest
    slower = copy.deepcopy(records)
    slower[1]["simulation"]["variants"]["removal"]["average_latency"] += 1
    assert checks.records_digest(slower) != digest
    assert checks.records_digest(records[::-1]) != digest


def test_simulated_outcomes_pick_the_lowest_fault_free_flows_load():
    low, high = _record(), _record()
    high["simulation"]["variants"]["removal"].update(injection_scale=2.0, average_latency=90.0)
    hotspot = _record(traffic_scenario="hotspot")
    hotspot["simulation"]["variants"]["removal"].update(injection_scale=0.25)
    outcomes = checks.simulated_outcomes([high, hotspot, low, _faulted_record("removal")])
    assert outcomes["removal_latency_cycles"] == 13.25
    assert outcomes["delivered_fraction"] == 0.98
    assert outcomes["sim_cycles"] == 12 * 320
    assert checks.simulated_outcomes([{"removal_extra_vcs": 1}])["delivered_fraction"] is None
