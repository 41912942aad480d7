"""Tests for the traffic-scenario generators (repro.simulation.scenarios)."""

import pytest

from repro.api.registry import traffic_scenarios
from repro.errors import SimulationError
from repro.simulation.scenarios import (
    BurstyTrafficGenerator,
    HotspotTrafficGenerator,
    TransposeTrafficGenerator,
    UniformTrafficGenerator,
)
from repro.simulation.traffic_gen import FlowTrafficGenerator

ALL_SCENARIOS = ("flows", "uniform", "hotspot", "transpose", "bursty")


def make_generator(design, scenario, **kwargs):
    """Build a scenario generator the way the simulator does: by registry name."""
    return traffic_scenarios.get(scenario)(design, **kwargs)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(traffic_scenarios.names()) >= set(ALL_SCENARIOS)

    def test_flows_is_the_paper_generator(self):
        assert traffic_scenarios.get("flows") is FlowTrafficGenerator

    def test_make_generator_dispatches(self, simple_line_design):
        generator = make_generator(simple_line_design, "uniform", injection_scale=2.0)
        assert isinstance(generator, UniformTrafficGenerator)


class TestDeterminism:
    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_same_seed_same_packets(self, simple_line_design, scenario):
        a = make_generator(simple_line_design, scenario, injection_scale=20.0, seed=7)
        b = make_generator(simple_line_design, scenario, injection_scale=20.0, seed=7)
        for cycle in range(100):
            packets_a = [(p.flow_name, p.packet_id) for p in a.generate(cycle)]
            packets_b = [(p.flow_name, p.packet_id) for p in b.generate(cycle)]
            assert packets_a == packets_b

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_different_seeds_diverge_eventually(self, simple_line_design, scenario):
        a = make_generator(simple_line_design, scenario, injection_scale=5.0, seed=1)
        b = make_generator(simple_line_design, scenario, injection_scale=5.0, seed=2)
        streams_differ = any(
            [(p.flow_name) for p in a.generate(c)] != [(p.flow_name) for p in b.generate(c)]
            for c in range(300)
        )
        assert streams_differ


class TestAggregateLoad:
    @pytest.mark.parametrize("scenario", ("uniform", "hotspot", "transpose"))
    def test_spatial_scenarios_preserve_offered_load(self, simple_line_design, scenario):
        """Re-weighting keeps the aggregate offered flits/cycle comparable."""
        base = FlowTrafficGenerator(simple_line_design, injection_scale=0.5)
        other = make_generator(simple_line_design, scenario, injection_scale=0.5)
        assert other.offered_flits_per_cycle == pytest.approx(
            base.offered_flits_per_cycle
        )

    def test_uniform_rates_equal_flit_load(self, simple_line_design):
        generator = UniformTrafficGenerator(simple_line_design, injection_scale=0.5)
        rates = generator.flow_rates
        traffic = simple_line_design.traffic
        flit_loads = {
            name: rate * traffic.flow(name).packet_size_flits
            for name, rate in rates.items()
        }
        values = list(flit_loads.values())
        assert all(v == pytest.approx(values[0]) for v in values)


class TestHotspot:
    def test_hotspot_flows_get_boosted_weight(self, simple_line_design):
        generator = HotspotTrafficGenerator(
            simple_line_design, injection_scale=0.5, hotspot="A", factor=4.0
        )
        rates = generator.flow_rates
        # f1 (c2 -> c0, destination switch A) is the hotspot flow.
        assert rates["f1"] > rates["f0"]
        assert rates["f1"] == pytest.approx(4.0 * rates["f0"])

    def test_default_hotspot_is_busiest_destination(self, simple_line_design):
        generator = HotspotTrafficGenerator(simple_line_design)
        # f0 (bandwidth 100) ends at C, f1 (bandwidth 50) at A.
        assert generator.hotspot == "C"

    def test_unknown_hotspot_switch_rejected(self, simple_line_design):
        with pytest.raises(SimulationError):
            HotspotTrafficGenerator(simple_line_design, hotspot="NOPE")

    def test_non_positive_factor_rejected(self, simple_line_design):
        with pytest.raises(SimulationError):
            HotspotTrafficGenerator(simple_line_design, factor=0.0)


class TestTranspose:
    def test_transposed_pairs_dominate(self, simple_line_design):
        # Switches sorted: A(0), B(1), C(2); N-1-idx pairs are A<->C.
        generator = TransposeTrafficGenerator(simple_line_design, off_factor=0.1)
        assert generator.is_transposed("f0")  # A -> C
        assert generator.is_transposed("f1")  # C -> A
        rates = generator.flow_rates
        assert all(rate > 0 for rate in rates.values())

    def test_off_factor_scales_inactive_flows(self, small_mesh_design):
        generator = TransposeTrafficGenerator(small_mesh_design, off_factor=0.25)
        rates = generator.flow_rates
        active = [n for n in rates if generator.is_transposed(n)]
        inactive = [n for n in rates if not generator.is_transposed(n)]
        if active and inactive:
            traffic = small_mesh_design.traffic
            load = lambda n: rates[n] * traffic.flow(n).packet_size_flits
            assert load(active[0]) == pytest.approx(load(inactive[0]) / 0.25)

    def test_negative_off_factor_rejected(self, simple_line_design):
        with pytest.raises(SimulationError):
            TransposeTrafficGenerator(simple_line_design, off_factor=-0.5)


class TestBursty:
    def test_long_run_rate_approximates_nominal(self, simple_line_design):
        nominal = FlowTrafficGenerator(simple_line_design, injection_scale=10.0)
        bursty = BurstyTrafficGenerator(simple_line_design, injection_scale=10.0, seed=4)
        cycles = 20_000
        nominal_count = sum(len(nominal.generate(c)) for c in range(cycles))
        bursty_count = sum(len(bursty.generate(c)) for c in range(cycles))
        assert bursty_count == pytest.approx(nominal_count, rel=0.15)

    def test_packets_cluster_in_bursts(self, simple_line_design):
        """Bursty inter-arrival variance exceeds the Bernoulli baseline."""
        bursty = BurstyTrafficGenerator(
            simple_line_design, injection_scale=5.0, seed=3, duty=0.2
        )
        active_cycles = [bool(bursty.generate(c)) for c in range(5000)]
        # Count ON->OFF style runs: bursts imply long idle gaps.
        longest_gap = 0
        gap = 0
        for active in active_cycles:
            gap = 0 if active else gap + 1
            longest_gap = max(longest_gap, gap)
        assert longest_gap > 50

    def test_invalid_parameters_rejected(self, simple_line_design):
        with pytest.raises(SimulationError):
            BurstyTrafficGenerator(simple_line_design, burst_length=0.5)
        with pytest.raises(SimulationError):
            BurstyTrafficGenerator(simple_line_design, duty=1.5)


class TestSeedThreading:
    def test_generator_never_uses_module_level_randomness(self, simple_line_design):
        """Seeding the global RNG differently must not change the stream."""
        import random as random_module

        random_module.seed(123)
        a = make_generator(simple_line_design, "bursty", injection_scale=10.0, seed=5)
        stream_a = [len(a.generate(c)) for c in range(200)]
        random_module.seed(456)
        b = make_generator(simple_line_design, "bursty", injection_scale=10.0, seed=5)
        stream_b = [len(b.generate(c)) for c in range(200)]
        assert stream_a == stream_b


def _reference_injects(generator, flow_name):
    """The per-flow Bernoulli draw of the generators, one call per flow."""
    rng = generator._rng
    if isinstance(generator, BurstyTrafficGenerator):
        on = generator._on[flow_name]
        if on:
            if rng.random() < generator._p_off:
                on = False
        elif rng.random() < generator._p_on:
            on = True
        generator._on[flow_name] = on
        if not on:
            return False
        return rng.random() < generator._rates[flow_name] / generator.duty
    return rng.random() < generator._rates[flow_name]


class TestDrawStream:
    """The one-pass sweep draws exactly what a per-flow draw loop draws."""

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_stream_and_rng_state_match_per_flow_sweep(
        self, d36_8_design_14sw, scenario
    ):
        kwargs = dict(injection_scale=16.0, seed=11)
        generator = make_generator(d36_8_design_14sw, scenario, **kwargs)
        reference = make_generator(d36_8_design_14sw, scenario, **kwargs)
        emitted, expected = [], []
        for cycle in range(500):
            emitted.extend(
                (p.packet_id, p.flow_name, p.created_cycle)
                for p in generator.generate(cycle)
            )
            for flow_name in reference._flow_order:
                if _reference_injects(reference, flow_name):
                    expected.append((len(expected), flow_name, cycle))
        assert len(expected) > 1000
        assert emitted == expected
        assert generator._rng.getstate() == reference._rng.getstate()
