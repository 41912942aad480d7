"""Tests for the pluggable recovery-policy registry (repro.simulation.recovery).

Three layers: unit tests drive a :class:`RecoveryController` directly
(with a stub network) to pin each policy's route-set semantics — idle's
park/reinstate cycle, protection's candidate swap; parity tests pin the
controller's delta-maintained state (the design context's CDG index, the
index-based deadlock verdict, one-pass severing, grouped backup-path
search) to the from-scratch references; and engine-equivalence tests run
every policy through ``simulate_design(..., cross_check=True)`` on a
fat-tree ``k=2`` design under a fail/restore schedule, so compiled and
legacy engines are proven field-identical per policy.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.api.registry import recovery_policies
from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.core.cdg import build_cdg
from repro.core.cycles import count_cycles
from repro.core.removal import remove_deadlocks
from repro.errors import SimulationError
from repro.model.channels import Link
from repro.model.design import NocDesign
from repro.perf.design_context import DesignContext, counters
from repro.simulation.events import EventSchedule
from repro.simulation.fault_models import build_fault_schedule
from repro.simulation.recovery import (
    BACKUP_SUFFIX,
    RecoveryController,
    _disjoint_path,
    _link_groups,
    _severed_flows,
)
from repro.simulation.simulator import SimulationConfig, simulate_design
from repro.simulation.stats import SimulationStats
from repro.synthesis.builder import SynthesisConfig, synthesize_design
from repro.synthesis.families import family_design
from repro.synthesis.regular import mesh_design

POLICIES = ["idle", "protection", "removal", "reroute"]


class _StubNetwork:
    """The slice of the network interface the controller touches."""

    def drop_flows(self, names):
        return (0, 0)

    def sync_with_design(self):
        pass

    def live_packet_ids(self):
        return set()

    def is_packet_live(self, pid):
        return False


def _protected_mesh():
    return remove_deadlocks(mesh_design(3, 3)).design


def _severable(design):
    """A (flow name, link) pair where the link carries the flow's route."""
    routes = design.routes
    for name in routes.flow_names:
        links = routes.route(name).links
        if links:
            return name, links[0]
    raise AssertionError("mesh design has no routed inter-switch flow")


class TestRegistry:
    def test_canonical_names(self):
        assert recovery_policies.names() == POLICIES


class _DrainingNetwork(_StubNetwork):
    """A stub whose in-flight packets die on scripted cycles."""

    def __init__(self, deaths):
        self.deaths = dict(deaths)  # pid -> cycle after whose step it is gone
        self.cycle = -1

    def live_packet_ids(self):
        return set(self.deaths)

    def is_packet_live(self, pid):
        return self.deaths[pid] > self.cycle


class TestRecoveryWatches:
    @pytest.mark.parametrize(
        "deaths",
        [
            {1: 12, 2: 15, 3: 20},  # youngest packet leaves last
            {1: 20, 2: 15, 3: 12},  # oldest packet leaves last
            {1: 14, 2: 20, 3: 11, 4: 20},
        ],
    )
    def test_latency_is_the_cycle_the_last_survivor_leaves(self, deaths):
        design = _protected_mesh()
        _, link = _severable(design)
        schedule = EventSchedule().fail_link(10, link.src, link.dst, link.index)
        controller = RecoveryController(design, schedule, mode="idle")
        stats = SimulationStats(design_name=design.name)
        network = _DrainingNetwork(deaths)
        for cycle in range(10, 30):
            network.cycle = cycle - 1
            controller.on_cycle(cycle, network, stats)
            network.cycle = cycle
            controller.after_step(cycle, network, stats)
        assert stats.recovery_cycles == [max(deaths.values()) - 10 + 1]


class TestIdlePolicy:
    def test_parks_severed_route_and_reinstates_on_restore(self):
        design = _protected_mesh()
        name, link = _severable(design)
        original = design.routes.route(name)
        schedule = (
            EventSchedule()
            .fail_link(10, link.src, link.dst, link.index)
            .restore_link(50, link.src, link.dst, link.index)
        )
        controller = RecoveryController(design, schedule, mode="idle")
        stats = SimulationStats(design_name=design.name)
        network = _StubNetwork()

        controller.on_cycle(10, network, stats)
        assert not controller.design.routes.has_route(name)
        assert controller.policy._parked[name] == original
        # Quiesced, never re-routed: the live CDG shrank, so still acyclic.
        assert count_cycles(build_cdg(controller.design), limit=1) == 0

        controller.on_cycle(50, network, stats)
        assert controller.design.routes.route(name) == original
        assert name not in controller.policy._parked

    def test_route_stays_parked_while_any_link_is_down(self):
        design = _protected_mesh()
        name, link = _severable(design)
        other = next(
            l for l in design.topology.links if l != link
        )
        schedule = (
            EventSchedule()
            .fail_link(10, link.src, link.dst, link.index)
            .fail_link(10, other.src, other.dst, other.index)
            .restore_link(40, other.src, other.dst, other.index)
        )
        controller = RecoveryController(design, schedule, mode="idle")
        stats = SimulationStats(design_name=design.name)
        controller.on_cycle(10, _StubNetwork(), stats)
        controller.on_cycle(40, _StubNetwork(), stats)
        # The restore batch did not bring `link` back, so `name` stays parked.
        assert name in controller.policy._parked


class TestProtectionPolicy:
    def test_prepare_provisions_disjoint_candidates(self):
        design = _protected_mesh()
        controller = RecoveryController(
            design, EventSchedule().fail_link(10, "sw0", "sw1"), mode="protection"
        )
        candidates = controller.policy._candidates
        assert set(candidates) == set(design.routes.flow_names)
        protected = 0
        for name, routes in candidates.items():
            assert 1 <= len(routes) <= 2
            if len(routes) == 2:
                protected += 1
                primary, backup = routes
                assert not (set(primary.links) & set(backup.links))
        assert protected, "a 3x3 mesh offers disjoint paths for some flows"

    def test_ported_design_keeps_traffic_and_stays_acyclic(self):
        design = _protected_mesh()
        controller = RecoveryController(
            design, EventSchedule().fail_link(10, "sw0", "sw1"), mode="protection"
        )
        ported = controller.design
        assert ported.traffic is design.traffic
        assert sorted(ported.routes.flow_names) == sorted(design.routes.flow_names)
        assert not any(
            name.endswith(BACKUP_SUFFIX) for name in ported.routes.flow_names
        )
        assert count_cycles(build_cdg(ported), limit=1) == 0

    def test_failure_swaps_backup_in_without_rerouting(self):
        design = _protected_mesh()
        controller = RecoveryController(design, EventSchedule(), mode="protection")
        # Pick a protected flow and fail its primary's first link.
        name = next(
            n for n, c in sorted(controller.policy._candidates.items()) if len(c) == 2
        )
        primary, backup = controller.policy._candidates[name]
        link = primary.links[0]
        schedule = EventSchedule().fail_link(10, link.src, link.dst, link.index)
        controller = RecoveryController(design, schedule, mode="protection")
        primary, backup = controller.policy._candidates[name]
        stats = SimulationStats(design_name=design.name)
        controller.on_cycle(10, _StubNetwork(), stats)
        routes = controller.design.routes
        if all(controller.design.topology.has_link(l) for l in backup.links):
            assert routes.route(name) == backup
        else:
            assert not routes.has_route(name)
        # Any primary/backup mixture is a subset of the jointly removed
        # route set, so the degraded CDG must still be acyclic.
        assert count_cycles(build_cdg(controller.design), limit=1) == 0
        assert stats.post_fault_deadlock_free is True

    def test_backup_namespace_collision_rejected(self):
        design = _protected_mesh()
        victim = design.routes.flow_names[0]
        flow = design.traffic.flow(victim)
        design.traffic.add_flow(
            victim + BACKUP_SUFFIX, flow.src, flow.dst, bandwidth=flow.bandwidth
        )
        with pytest.raises(SimulationError, match="backup namespace"):
            RecoveryController(
                design, EventSchedule().fail_link(10, "sw0", "sw1"), mode="protection"
            )

    def test_disjoint_path_avoids_the_avoid_set(self):
        design = _protected_mesh()
        name, _ = _severable(design)
        primary = design.routes.route(name)
        flow = design.traffic.flow(name)
        path = _disjoint_path(
            _link_groups(design.topology),
            design.switch_of(flow.src),
            design.switch_of(flow.dst),
            set(primary.links),
        )
        if path is not None:
            assert not (set(path) & set(primary.links))


class TestEngineEquivalencePerPolicy:
    @pytest.fixture(scope="class")
    def fat_tree(self):
        traffic = get_benchmark("D26_media", seed=0)
        return remove_deadlocks(family_design("fat_tree", traffic, {"k": 2})).design

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cross_check_on_fat_tree(self, fat_tree, policy):
        schedule = EventSchedule.random(
            fat_tree.topology,
            seed=3,
            link_failures=2,
            start_cycle=40,
            end_cycle=200,
            restore_after=100,
        )
        config = SimulationConfig(
            injection_scale=1.0,
            seed=0,
            fault_schedule=schedule,
            fault_recovery=policy,
        )
        stats = simulate_design(fat_tree, max_cycles=400, config=config, cross_check=True)
        assert stats.fault_events_applied > 0
        assert stats.post_fault_deadlock_free is not None

    @pytest.mark.parametrize("policy", ["idle", "protection"])
    def test_never_rerouting_policies_stay_deadlock_free(self, fat_tree, policy):
        schedule = EventSchedule.random(
            fat_tree.topology, seed=5, link_failures=3, start_cycle=30, end_cycle=150
        )
        config = SimulationConfig(
            injection_scale=1.0,
            seed=0,
            fault_schedule=schedule,
            fault_recovery=policy,
        )
        stats = simulate_design(fat_tree, max_cycles=400, config=config, cross_check=True)
        assert stats.post_fault_deadlock_free is True


# ----------------------------------------------------------------------
# parity of the delta-maintained recovery state with its references
# ----------------------------------------------------------------------

#: Fail/restore schedules of the parity suite, one per fault model.
PARITY_FAULTS = {
    "uniform": {
        "seed": 2,
        "link_failures": 3,
        "router_failures": 1,
        "start_cycle": 10,
        "end_cycle": 100,
        "restore_after": 40,
    },
    "spatial_burst": {
        "seed": 2,
        "bursts": 2,
        "radius": 1,
        "start_cycle": 10,
        "end_cycle": 100,
        "restore_after": 40,
    },
}

#: (design, variant) points: two SoC benchmarks at 14 switches, each as
#: synthesized (a cyclic CDG on D36_8) and deadlock-removed, plus a
#: ``fat_tree(k=4)`` carrying D36_8's traffic.
PARITY_DESIGNS = [
    ("D36_4", "unprotected"),
    ("D36_4", "removal"),
    ("D36_8", "unprotected"),
    ("D36_8", "removal"),
    ("fat_tree", "unprotected"),
]


@lru_cache(maxsize=None)
def _parity_design(name: str, variant: str = "unprotected") -> NocDesign:
    if name == "fat_tree":
        return family_design("fat_tree", get_benchmark("D36_8", seed=0), {"k": 4})
    design = synthesize_design(
        get_benchmark(name, seed=0), SynthesisConfig(n_switches=14, seed=0)
    )
    if variant == "removal":
        design = remove_deadlocks(design).design
    return design


class TestIndexVerdictParity:
    """The controller's CDG index and verdict against the networkx oracle.

    After every batch that changed the topology the design context's
    index must equal a fresh ``build_cdg`` and the recorded verdict must
    equal ``count_cycles(...) == 0``.  The build counter pins the delta
    path: the index is built at most once per run, on the first batch
    (never after it), and ``prepare`` builds or forks it at most once —
    a route edit that bypassed the index would force a rebuild.
    """

    @pytest.mark.parametrize("model", sorted(PARITY_FAULTS))
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name,variant", PARITY_DESIGNS)
    def test_index_and_verdict_after_every_batch(self, name, variant, policy, model):
        source = _parity_design(name, variant)
        schedule = build_fault_schedule(
            source, fault_model=model, fault_params=PARITY_FAULTS[model]
        )
        design = source.copy()  # the simulator's private copy
        counters.reset()
        controller = RecoveryController(design, schedule, mode=policy)
        assert counters.cdg_builds + counters.contexts_forked <= 1
        network = _StubNetwork()
        batches = 0
        for cycle in sorted({event.cycle for event in schedule.events}):
            builds = counters.cdg_builds
            stats = SimulationStats(design_name=design.name)
            controller.on_cycle(cycle, network, stats)
            if stats.post_fault_deadlock_free is None:
                continue  # the batch changed no link
            batches += 1
            assert counters.cdg_builds - builds <= (1 if batches == 1 else 0)
            current = controller.design
            cdg = build_cdg(current)
            DesignContext.of(current).cdg_index().verify_against(cdg)
            assert stats.post_fault_deadlock_free == (count_cycles(cdg, limit=1) == 0)
        assert batches >= 2


def _reference_severed(design: NocDesign, removed: List[Link]) -> Set[str]:
    names: Set[str] = set()
    for link in removed:
        names.update(design.routes.flows_using_link(link))
    return names


def _reference_disjoint_path(
    topology, source: str, destination: str, avoid: Set[Link]
) -> Optional[Tuple[Link, ...]]:
    """The per-flow-adjacency backup search the grouped one replaced."""
    best: Dict[Tuple[str, str], Link] = {}
    for link in topology.links:  # sorted: lowest index wins per (src, dst)
        if link in avoid:
            continue
        best.setdefault((link.src, link.dst), link)
    adjacency: Dict[str, List[Tuple[str, Link]]] = {}
    for (src, dst), link in sorted(best.items()):
        adjacency.setdefault(src, []).append((dst, link))
    parents: Dict[str, Optional[Tuple[str, Link]]] = {source: None}
    frontier = [source]
    while frontier and destination not in parents:
        next_frontier: List[str] = []
        for switch in frontier:
            for neighbor, link in adjacency.get(switch, ()):
                if neighbor not in parents:
                    parents[neighbor] = (switch, link)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    if destination not in parents:
        return None
    path: List[Link] = []
    node = destination
    while parents[node] is not None:
        switch, link = parents[node]
        path.append(link)
        node = switch
    return tuple(reversed(path))


#: All six SoC benchmarks at 14 switches (deadlock-removed, so some
#: links are parallel duplicates) plus the fat-tree.
SEARCH_DESIGNS = [(name, "removal") for name in list_benchmarks()] + [
    ("fat_tree", "unprotected")
]


class TestSeveringAndBackupParity:
    @pytest.mark.parametrize("name,variant", SEARCH_DESIGNS)
    def test_one_pass_severing_matches_per_link_scans(self, name, variant):
        design = _parity_design(name, variant)
        routes = dict(design.routes.items())
        links = design.topology.links
        rng = random.Random(0)
        removed_sets = [[link] for link in links]
        removed_sets += [rng.sample(links, min(k, len(links))) for k in (2, 5, 12)]
        for removed in removed_sets:
            severed = _severed_flows(routes, removed)
            assert len(severed) == len(set(severed))
            assert set(severed) == _reference_severed(design, removed)

    @pytest.mark.parametrize("name,variant", SEARCH_DESIGNS)
    def test_grouped_backup_search_matches_per_flow_adjacency(self, name, variant):
        design = _parity_design(name, variant)
        topology = design.topology
        groups = _link_groups(topology)
        rng = random.Random(0)
        links = topology.links
        checked = 0
        for flow_name, route in design.routes.items():
            flow = design.traffic.flow(flow_name)
            src, dst = design.switch_of(flow.src), design.switch_of(flow.dst)
            for avoid in (set(route.links), set(rng.sample(links, len(links) // 3))):
                assert _disjoint_path(groups, src, dst, avoid) == _reference_disjoint_path(
                    topology, src, dst, avoid
                )
                checked += 1
        assert checked
