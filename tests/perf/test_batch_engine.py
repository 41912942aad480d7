"""The batched numpy engine reproduces the compiled engine exactly, per lane.

``run_batch`` advances B simulations of one design as a single
structure-of-arrays program; every lane must produce **field-identical**
:class:`~repro.simulation.stats.SimulationStats` to what
``CompiledSimulator(design, config).run(...)`` yields for that lane's
config — delivered flits and packets, the full latency list (order
included), per-channel busy cycles, and the deadlock verdict with the
exact channels on the wait cycle.  The suite sweeps hand-built fixtures,
a hypothesis grid of topology families x scenarios x loads, mixed-lane
batches, and pins the registry contract (B = 1 ``"batched"`` simulator),
the fault-schedule fallback and the lazy numpy import error.  The
equivalence tests run both on the pure array program and with the last
lanes handed to the compiled engine, and the hand-off itself is pinned at
chosen cycles mid-run.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import simulation_engines
from repro.core.removal import remove_deadlocks
from repro.errors import SimulationError
from repro.examples_data.paper_ring import paper_ring_design
from repro.perf import batch_engine
from repro.perf.batch_engine import BatchedSimulator, run_batch
from repro.perf.sim_engine import CompiledSimulator
from repro.simulation.events import EventSchedule
from repro.simulation.simulator import (
    SimulationConfig,
    build_simulator,
    make_traffic_generator,
    simulate_design,
    stats_divergences,
)
from repro.simulation.stats import SimulationStats
from repro.synthesis.regular import mesh_design, ring_design

SCENARIOS = ("flows", "uniform", "hotspot", "transpose", "bursty")


def assert_lane_identical(batched, config, design, max_cycles):
    reference = CompiledSimulator(design, config).run(max_cycles)
    problems = stats_divergences(batched, reference)
    assert not problems, problems


@contextmanager
def scalar_tail_lanes(value):
    """Temporarily set how many last lanes finish on the compiled engine."""
    saved = batch_engine.SCALAR_TAIL_LANES
    batch_engine.SCALAR_TAIL_LANES = value
    try:
        yield
    finally:
        batch_engine.SCALAR_TAIL_LANES = saved


class TestRegistry:
    def test_batched_engine_registered(self):
        assert "batched" in simulation_engines.names()

    def test_build_simulator_returns_batched(self, small_mesh_design):
        simulator = build_simulator(
            small_mesh_design, SimulationConfig(injection_scale=1.0), engine="batched"
        )
        assert isinstance(simulator, BatchedSimulator)


class TestFastInjectionDetection:
    """Lanes whose generator is the base Bernoulli sweep take the numpy path."""

    @pytest.mark.parametrize(
        "scenario, fast",
        [
            ("flows", True),
            ("uniform", True),
            ("hotspot", True),
            ("transpose", True),
            ("bursty", False),
            ("trace", False),
        ],
    )
    def test_fast_generator_by_scenario(self, small_mesh_design, scenario, fast):
        config = SimulationConfig(injection_scale=1.0, traffic_scenario=scenario)
        generator = make_traffic_generator(small_mesh_design, config)
        assert batch_engine._is_fast_generator(generator) is fast


class TestSingleLaneEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_mesh_all_scenarios(self, scenario):
        design = mesh_design(3, 3)
        config = SimulationConfig(
            injection_scale=3.0, seed=2, traffic_scenario=scenario
        )
        stats = BatchedSimulator(design, config).run(600)
        assert_lane_identical(stats, config, design, 600)
        assert stats.packets_delivered > 0

    def test_deadlock_verdict_and_channels_identical(self):
        """An unprotected ring under pressure deadlocks identically."""
        design = paper_ring_design()
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        reference = CompiledSimulator(design, config).run(4000)
        stats = BatchedSimulator(design, config).run(4000)
        assert reference.deadlock_detected
        assert not stats_divergences(stats, reference)
        assert stats.deadlocked_channels == reference.deadlocked_channels
        assert stats.deadlock_cycle == reference.deadlock_cycle

    def test_protected_ring_survives(self):
        design = remove_deadlocks(paper_ring_design()).design
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        stats = BatchedSimulator(design, config).run(4000)
        assert not stats.deadlock_detected
        assert_lane_identical(stats, config, design, 4000)

    def test_simulate_design_engine_flag(self, small_mesh_design):
        config = SimulationConfig(injection_scale=1.5, seed=3)
        batched = simulate_design(
            small_mesh_design, max_cycles=300, config=config, engine="batched"
        )
        compiled = simulate_design(
            small_mesh_design, max_cycles=300, config=config, engine="compiled"
        )
        assert batched == compiled


class TestMultiLaneEquivalence:
    def test_mixed_lanes_one_program(self, small_mesh_design):
        """Scales, seeds and scenarios vary freely across the lanes."""
        configs = [
            SimulationConfig(injection_scale=0.5, seed=0),
            SimulationConfig(injection_scale=2.0, seed=1),
            SimulationConfig(injection_scale=1.0, seed=2, traffic_scenario="uniform"),
            SimulationConfig(injection_scale=4.0, seed=3, traffic_scenario="hotspot"),
            SimulationConfig(injection_scale=1.5, seed=4, traffic_scenario="bursty"),
        ]
        stats_list = run_batch(small_mesh_design, configs, max_cycles=400)
        assert len(stats_list) == len(configs)
        for stats, config in zip(stats_list, configs):
            assert_lane_identical(stats, config, small_mesh_design, 400)

    def test_deadlocking_and_surviving_lanes_coexist(self):
        """A lane deadlocking must not perturb its batch neighbours."""
        design = paper_ring_design()
        configs = [
            SimulationConfig(injection_scale=0.25, buffer_depth=2, seed=0),
            SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1),
        ]
        stats_list = run_batch(design, configs, max_cycles=4000)
        assert stats_list[1].deadlock_detected
        for stats, config in zip(stats_list, configs):
            assert_lane_identical(stats, config, design, 4000)

    def test_lane_count_one_matches_solo(self, small_ring_design):
        config = SimulationConfig(injection_scale=2.0, seed=5)
        (stats,) = run_batch(small_ring_design, [config], max_cycles=500)
        assert_lane_identical(stats, config, small_ring_design, 500)

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["ring", "biring", "mesh", "protected_ring"]),
        size=st.integers(min_value=4, max_value=7),
        scales=st.lists(
            st.sampled_from([0.5, 1.5, 4.0, 8.0]), min_size=1, max_size=4
        ),
        depth=st.integers(min_value=1, max_value=4),
        scenario=st.sampled_from(SCENARIOS),
        tail=st.sampled_from([0, 1, 2, 3]),
    )
    def test_random_grids_identical(
        self, family, size, scales, depth, scenario, tail
    ):
        if family == "ring":
            design = ring_design(size)
        elif family == "biring":
            design = ring_design(size, bidirectional=True)
        elif family == "mesh":
            design = mesh_design(2, size - 2)
        else:
            design = remove_deadlocks(ring_design(size)).design
        configs = [
            SimulationConfig(
                injection_scale=scale,
                buffer_depth=depth,
                seed=lane,
                traffic_scenario=scenario,
            )
            for lane, scale in enumerate(scales)
        ]
        with scalar_tail_lanes(tail):
            stats_list = run_batch(design, configs, max_cycles=400)
        for stats, config in zip(stats_list, configs):
            assert_lane_identical(stats, config, design, 400)


class TestSingleLaneArrayProgram(TestSingleLaneEquivalence):
    """The single-lane checks with the lane kept on the array program."""

    @pytest.fixture(autouse=True)
    def _array_only(self):
        with scalar_tail_lanes(0):
            yield


class TestMultiLaneArrayProgram(TestMultiLaneEquivalence):
    """The multi-lane checks with every lane kept on the array program."""

    # The hypothesis grid already draws the hand-off width itself.
    test_random_grids_identical = None

    @pytest.fixture(autouse=True)
    def _array_only(self):
        with scalar_tail_lanes(0):
            yield


class TestCompiledHandoff:
    """Lanes handed to the compiled engine finish exactly as a solo run."""

    @staticmethod
    def _run_with_handoff_at(design, configs, max_cycles, handoff):
        generators = [make_traffic_generator(design, config) for config in configs]
        stats_list = [SimulationStats(design_name=design.name) for _ in configs]
        program = batch_engine._BatchProgram(design, configs, generators, stats_list)
        for cycle in range(handoff):
            program._inject(cycle)
            _transfers, deadlocked = program._step(cycle)
            assert not deadlocked
        program._run_compiled(handoff, max_cycles - handoff, True, 5_000)
        return stats_list, generators

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("handoff", [0, 1, 97, 299])
    def test_mid_injection_handoff(self, scenario, handoff):
        """Queued backlogs, half-forwarded packets and owned channels move
        over intact; lanes sharing a seed share one draw stream."""
        design = mesh_design(3, 3)
        configs = [
            SimulationConfig(
                injection_scale=scale,
                buffer_depth=2,
                seed=4,
                traffic_scenario=scenario,
            )
            for scale in (1.0, 6.0)
        ]
        stats_list, generators = self._run_with_handoff_at(
            design, configs, 300, handoff
        )
        for stats, generator, config in zip(stats_list, generators, configs):
            reference = CompiledSimulator(design, config)
            assert not stats_divergences(stats, reference.run(300))
            # The generator carries on with the solo run's ids and draws.
            assert generator._next_packet_id == reference.generator._next_packet_id
            assert generator._rng.getstate() == reference.generator._rng.getstate()
        assert stats_list[1].packets_delivered > 0

    def test_drain_phase_handoff_keeps_the_drain_budget(self, small_mesh_design):
        """A lane handed off mid-drain stops at the same drain limit."""
        configs = [
            SimulationConfig(injection_scale=scale, buffer_depth=1, seed=2)
            for scale in (6.0, 40.0)
        ]
        with scalar_tail_lanes(1):
            stats_list = run_batch(
                small_mesh_design, configs, max_cycles=200, drain_cycles=60
            )
        for stats, config in zip(stats_list, configs):
            reference = CompiledSimulator(small_mesh_design, config).run(
                200, drain_cycles=60
            )
            assert not stats_divergences(stats, reference)
        # The saturated lane outlived the other and hit the drain limit.
        assert stats_list[1].cycles_run == 260 > stats_list[0].cycles_run

    def test_handoff_keeps_the_watchdog_count(self):
        """A lane handed off while stalled deadlocks on the same cycle."""
        design = paper_ring_design()
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        reference = CompiledSimulator(design, config).run(4000)
        assert reference.deadlock_detected
        handoff = reference.deadlock_cycle - 5
        (stats,), _ = self._run_with_handoff_at(design, [config], 4000, handoff)
        assert not stats_divergences(stats, reference)

    def test_narrow_batches_never_step_the_arrays(
        self, small_mesh_design, monkeypatch
    ):
        def forbidden(self, cycle):
            raise AssertionError("the array sweep ran")

        monkeypatch.setattr(batch_engine._BatchProgram, "_step", forbidden)
        configs = [
            SimulationConfig(injection_scale=scale, seed=1) for scale in (0.5, 2.0)
        ]
        with scalar_tail_lanes(2):
            stats_list = run_batch(small_mesh_design, configs, max_cycles=300)
        for stats, config in zip(stats_list, configs):
            assert_lane_identical(stats, config, small_mesh_design, 300)

    def test_cross_check_runs_the_array_program(
        self, small_mesh_design, monkeypatch
    ):
        """cross_check verifies the numpy sweep itself, so it never hands off."""
        swept = []
        original = batch_engine._BatchProgram._step

        def counting(self, cycle):
            swept.append(cycle)
            return original(self, cycle)

        monkeypatch.setattr(batch_engine._BatchProgram, "_step", counting)
        run_batch(
            small_mesh_design,
            [SimulationConfig(injection_scale=1.0)],
            max_cycles=200,
            cross_check=True,
        )
        assert len(swept) >= 200


class TestCrossCheckFlag:
    def test_cross_check_passes(self, d36_8_design_14sw):
        design = remove_deadlocks(d36_8_design_14sw).design
        stats = simulate_design(
            design,
            max_cycles=300,
            config=SimulationConfig(injection_scale=2.0, seed=0),
            engine="batched",
            cross_check=True,
        )
        assert stats.packets_delivered > 0

    def test_cross_check_raises_on_divergence(self, small_mesh_design, monkeypatch):
        """A rigged compiled reference must be caught lane by lane."""
        original = CompiledSimulator.run

        def rigged(self, max_cycles=10_000, **kwargs):
            stats = original(self, max_cycles, **kwargs)
            stats.flits_delivered += 1
            return stats

        monkeypatch.setattr(CompiledSimulator, "run", rigged)
        with pytest.raises(SimulationError, match="diverged"):
            run_batch(
                small_mesh_design,
                [SimulationConfig(injection_scale=2.0)],
                max_cycles=200,
                cross_check=True,
            )


class TestBatchRejections:
    def test_empty_batch_rejected(self, small_mesh_design):
        with pytest.raises(SimulationError, match="at least one"):
            run_batch(small_mesh_design, [], max_cycles=100)

    def test_mixed_buffer_depth_rejected(self, small_mesh_design):
        configs = [
            SimulationConfig(injection_scale=1.0, buffer_depth=2),
            SimulationConfig(injection_scale=1.0, buffer_depth=4),
        ]
        with pytest.raises(SimulationError, match="buffer_depth"):
            run_batch(small_mesh_design, configs, max_cycles=100)

    def test_fault_schedule_rejected_in_batch(self, small_mesh_design):
        schedule = EventSchedule.random(
            small_mesh_design.topology, seed=1, link_failures=1
        )
        configs = [SimulationConfig(injection_scale=1.0, fault_schedule=schedule)]
        with pytest.raises(SimulationError, match="fault"):
            run_batch(small_mesh_design, configs, max_cycles=100)


class TestFaultScheduleFallback:
    def _schedule(self, design):
        return EventSchedule.random(
            design.topology, seed=1, link_failures=1, start_cycle=40, end_cycle=200
        )

    def test_constructor_falls_back_with_structured_warning(self, small_mesh_design):
        config = SimulationConfig(
            injection_scale=1.0, fault_schedule=self._schedule(small_mesh_design)
        )
        with pytest.warns(RuntimeWarning, match=r"batched-engine-fallback"):
            simulator = BatchedSimulator(small_mesh_design, config)
        assert isinstance(simulator, CompiledSimulator)
        assert not isinstance(simulator, BatchedSimulator)

    def test_warning_payload_is_structured(self, small_mesh_design):
        config = SimulationConfig(
            injection_scale=1.0, fault_schedule=self._schedule(small_mesh_design)
        )
        with pytest.warns(RuntimeWarning, match=r"\[noc-lint \{") as captured:
            BatchedSimulator(small_mesh_design, config)
        assert any("batched-engine-fallback" in str(w.message) for w in captured)

    def test_fallback_results_correct(self, small_mesh_design):
        """The fallback simulator's verdict matches a compiled run exactly."""
        config = SimulationConfig(
            injection_scale=1.5, seed=2, fault_schedule=self._schedule(small_mesh_design)
        )
        with pytest.warns(RuntimeWarning):
            stats = BatchedSimulator(small_mesh_design, config).run(400)
        reference = CompiledSimulator(small_mesh_design, config).run(400)
        assert not stats_divergences(stats, reference)
        assert stats.fault_events_applied > 0


class TestLazyNumpyImport:
    def test_missing_numpy_raises_clear_error(self, small_mesh_design, monkeypatch):
        """Without numpy the 'batched' engine must name the dependency."""
        monkeypatch.setattr(batch_engine, "_np", None)
        monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy -> ImportError
        config = SimulationConfig(injection_scale=1.0)
        with pytest.raises(SimulationError, match="numpy"):
            BatchedSimulator(small_mesh_design, config).run(100)

    def test_other_engines_unaffected_by_missing_numpy(
        self, small_mesh_design, monkeypatch
    ):
        monkeypatch.setattr(batch_engine, "_np", None)
        monkeypatch.setitem(sys.modules, "numpy", None)
        config = SimulationConfig(injection_scale=1.0)
        stats = simulate_design(
            small_mesh_design, max_cycles=100, config=config, engine="compiled"
        )
        assert stats.flits_delivered > 0
