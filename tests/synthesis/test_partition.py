"""Tests for core-to-switch partitioning (repro.synthesis.partition)."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.registry import BENCHMARK_NAMES, get_benchmark
from repro.benchmarks.synthetic import neighbour_traffic, pipeline_traffic
from repro.errors import SynthesisError
from repro.model.traffic import CommunicationGraph
from repro.synthesis.partition import (
    cluster_sizes,
    internal_bandwidth_fraction,
    partition_cores,
)


def _pair_weight(traffic, cluster_a, cluster_b):
    """Bandwidth exchanged between two clusters, recomputed from scratch."""
    members_b = set(cluster_b)
    weight = 0.0
    for flow in traffic.flows:
        if flow.src in cluster_a and flow.dst in members_b:
            weight += flow.bandwidth
        elif flow.dst in cluster_a and flow.src in members_b:
            weight += flow.bandwidth
    return weight


def _reference_partition(traffic, n_switches, *, balance_slack=1):
    """The original greedy partitioning, which rescans every pair per merge.

    Kept as the oracle :func:`partition_cores` must match exactly.
    """
    cores = traffic.cores
    max_size = math.ceil(len(cores) / n_switches) + max(0, balance_slack)
    clusters = [[core] for core in sorted(cores)]
    while len(clusters) > n_switches:
        best_key = None
        best_pair = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if len(clusters[i]) + len(clusters[j]) > max_size:
                    continue
                weight = _pair_weight(traffic, clusters[i], clusters[j])
                key = (weight, -(len(clusters[i]) + len(clusters[j])))
                if best_key is None or key > best_key:
                    best_key = key
                    best_pair = (i, j)
        if best_pair is None:
            order = sorted(range(len(clusters)), key=lambda k: (len(clusters[k]), clusters[k][0]))
            i, j = sorted(order[:2])
        else:
            i, j = best_pair
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
    clusters.sort(key=lambda cluster: cluster[0])
    return {core: f"sw{index}" for index, cluster in enumerate(clusters) for core in cluster}


class TestPartitionBasics:
    def test_every_core_is_mapped(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 8)
        assert set(core_map) == set(d26_traffic.cores)

    def test_switch_count_respected(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 8)
        assert len(set(core_map.values())) == 8

    def test_switch_names_use_prefix(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 4, switch_prefix="router")
        assert all(switch.startswith("router") for switch in core_map.values())

    def test_one_switch_puts_everything_together(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 1)
        assert set(core_map.values()) == {"sw0"}

    def test_one_core_per_switch_at_maximum(self, d26_traffic):
        core_map = partition_cores(d26_traffic, d26_traffic.core_count)
        sizes = cluster_sizes(core_map)
        assert all(size == 1 for size in sizes.values())

    def test_deterministic(self, d26_traffic):
        assert partition_cores(d26_traffic, 8) == partition_cores(d26_traffic, 8)


class TestBalance:
    def test_cluster_sizes_respect_slack(self, d36_8_traffic):
        core_map = partition_cores(d36_8_traffic, 9, balance_slack=1)
        sizes = cluster_sizes(core_map)
        # ceil(36 / 9) + 1 = 5
        assert max(sizes.values()) <= 5

    def test_zero_slack_gives_tight_balance(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 13, balance_slack=0)
        sizes = cluster_sizes(core_map)
        assert max(sizes.values()) <= 2


class TestQuality:
    def test_communicating_cores_end_up_together(self):
        # Two independent pipelines: each should collapse into one switch.
        traffic = pipeline_traffic(["a0", "a1", "a2"], bandwidth=500.0)
        traffic.add_cores(["b0", "b1", "b2"])
        traffic.add_flow("pb0", "b0", "b1", 500.0)
        traffic.add_flow("pb1", "b1", "b2", 500.0)
        core_map = partition_cores(traffic, 2)
        assert core_map["a0"] == core_map["a1"] == core_map["a2"]
        assert core_map["b0"] == core_map["b1"] == core_map["b2"]
        assert core_map["a0"] != core_map["b0"]

    def test_internal_fraction_improves_with_fewer_switches(self, d26_traffic):
        few = internal_bandwidth_fraction(d26_traffic, partition_cores(d26_traffic, 4))
        many = internal_bandwidth_fraction(d26_traffic, partition_cores(d26_traffic, 20))
        assert few >= many

    def test_internal_fraction_bounds(self, d26_traffic):
        fraction = internal_bandwidth_fraction(d26_traffic, partition_cores(d26_traffic, 8))
        assert 0.0 <= fraction <= 1.0

    def test_neighbour_traffic_partition(self):
        traffic = neighbour_traffic(12)
        core_map = partition_cores(traffic, 4)
        assert len(set(core_map.values())) == 4


class TestErrors:
    def test_too_many_switches_rejected(self, d26_traffic):
        with pytest.raises(SynthesisError):
            partition_cores(d26_traffic, d26_traffic.core_count + 1)

    def test_zero_switches_rejected(self, d26_traffic):
        with pytest.raises(SynthesisError):
            partition_cores(d26_traffic, 0)

    def test_internal_fraction_rejects_unmapped_cores(self):
        traffic = pipeline_traffic(["a", "b", "c"], bandwidth=10.0)
        with pytest.raises(SynthesisError, match="'c'"):
            internal_bandwidth_fraction(traffic, {"a": "sw0", "b": "sw0"})

    def test_internal_fraction_rejects_flow_with_both_ends_unmapped(self):
        # Both endpoints missing used to compare None == None: "internal".
        traffic = pipeline_traffic(["a", "b"], bandwidth=10.0)
        with pytest.raises(SynthesisError, match="not mapped"):
            internal_bandwidth_fraction(traffic, {})


#: Bandwidths that are not exact binary fractions, so that sums depend on
#: their order, plus repeats, so that exact ties occur too.
BANDWIDTH_POOL = (0.1, 0.2, 0.3, 0.6, 0.7, 1.1, 12.3)


@st.composite
def communication_graphs(draw):
    n_cores = draw(st.integers(min_value=4, max_value=20))
    traffic = CommunicationGraph("random")
    traffic.add_cores([f"c{index}" for index in range(n_cores)])
    flows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_cores - 1),
                st.integers(min_value=1, max_value=n_cores - 1),
                st.sampled_from(BANDWIDTH_POOL),
            ),
            max_size=3 * n_cores,
        )
    )
    for index, (src, offset, bandwidth) in enumerate(flows):
        dst = (src + offset) % n_cores
        traffic.add_flow(f"f{index:03d}", f"c{src}", f"c{dst}", bandwidth)
    return traffic


class TestReferenceEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        traffic=communication_graphs(),
        balance_slack=st.sampled_from((0, 1, 2)),
        data=st.data(),
    )
    def test_matches_reference_greedy(self, traffic, balance_slack, data):
        n_switches = data.draw(st.integers(min_value=1, max_value=traffic.core_count))
        assert partition_cores(
            traffic, n_switches, balance_slack=balance_slack
        ) == _reference_partition(traffic, n_switches, balance_slack=balance_slack)

    def test_merged_weights_are_flow_order_sums(self):
        # After {a, b} merges, its weight to c is (0.1 + 0.2) + 0.3 in flow
        # order, which beats d-e's 0.6 by one ulp.  Adding the per-core
        # weights instead, 0.1 + (0.2 + 0.3) == 0.6, ties with d-e, and
        # the tie goes to the smaller merge.
        traffic = CommunicationGraph("order")
        traffic.add_cores(["a", "b", "c", "d", "e"])
        traffic.add_flow("f0", "a", "c", 0.1)
        traffic.add_flow("f1", "b", "c", 0.2)
        traffic.add_flow("f2", "b", "c", 0.3)
        traffic.add_flow("f3", "a", "b", 12.3)
        traffic.add_flow("f4", "d", "e", 0.6)
        core_map = partition_cores(traffic, 3)
        assert core_map == _reference_partition(traffic, 3)
        assert core_map["a"] == core_map["b"] == core_map["c"]
        assert core_map["d"] != core_map["e"]

    def test_d36_4_seed_3_four_switches(self):
        # A real design where re-associating merged weights picks a
        # different merge than the flow-order sum.
        traffic = get_benchmark("D36_4", 3)
        assert partition_cores(traffic, 4) == _reference_partition(traffic, 4)


#: SHA-256 of the canonical JSON of every core map below, as produced by
#: the original greedy partitioning.
GOLDEN_CORE_MAPS_SHA256 = "f59f211bb828349e069642159c62f92db81c1726bc91c5c51a46be42561dd5ff"


def test_golden_core_maps():
    maps = {}
    for name in BENCHMARK_NAMES:
        traffic = get_benchmark(name, 0)
        for n_switches in range(1, traffic.core_count + 1):
            for balance_slack in (0, 1, 2):
                maps[f"{name}/{n_switches}/{balance_slack}"] = partition_cores(
                    traffic, n_switches, balance_slack=balance_slack
                )
    assert len(maps) == 621
    blob = json.dumps(maps, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_CORE_MAPS_SHA256
