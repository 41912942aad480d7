"""Traffic-weighted core-to-switch partitioning.

Greedy agglomerative clustering: every core starts in its own cluster and
the pair of clusters exchanging the most bandwidth is merged, subject to a
balance cap, until the requested number of clusters (= switches) remains.
This mirrors the first phase of application-specific topology synthesis
flows: heavily communicating cores end up behind the same switch, so their
traffic never enters the switch-to-switch network.

The weight of a cluster pair is the bandwidth of every flow with one
endpoint in each cluster, summed from ``0.0`` in flow-name order.  That
order is part of the contract: bandwidths are not exact binary fractions,
so a re-associated sum (say ``w(a|b, c) = w(a, c) + w(b, c)``) can differ
in the last bit and pick a different merge.  The weights are therefore
cached per cluster pair, and only the merged cluster's row is rebuilt
after a merge, with one ordered pass over the flows.  For ``n`` cores and
``F`` flows that costs O(n·F) for the weights plus O(n³) dictionary
lookups for the pair scans.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.model.traffic import CommunicationGraph


def partition_cores(
    traffic: CommunicationGraph,
    n_switches: int,
    *,
    balance_slack: int = 1,
    switch_prefix: str = "sw",
) -> Dict[str, str]:
    """Partition the cores of ``traffic`` into ``n_switches`` groups.

    Returns the core-to-switch mapping with switches named
    ``{switch_prefix}0 .. {switch_prefix}{n_switches-1}``.

    Parameters
    ----------
    balance_slack:
        How many cores beyond the perfectly balanced size
        ``ceil(core_count / n_switches)`` a cluster may hold.  A small slack
        lets tightly-coupled groups stay together without letting a single
        switch absorb everything.

    Raises
    ------
    SynthesisError
        When ``n_switches`` is not in ``[1, core_count]``.
    """
    cores = traffic.cores
    if n_switches < 1:
        raise SynthesisError(f"switch count must be positive, got {n_switches}")
    if n_switches > len(cores):
        raise SynthesisError(
            f"cannot spread {len(cores)} cores over {n_switches} switches; "
            "switch count must not exceed the core count"
        )

    max_size = math.ceil(len(cores) / n_switches) + max(0, balance_slack)
    clusters: List[List[str]] = [[core] for core in sorted(cores)]
    # Every cluster carries a label that is never reused; ``weights[a][b]``
    # is the pair weight of the clusters labelled ``a`` and ``b``.
    labels: List[int] = list(range(len(clusters)))
    next_label = len(labels)
    owner: Dict[str, int] = {cluster[0]: label for label, cluster in zip(labels, clusters)}
    flows = [(flow.src, flow.dst, flow.bandwidth) for flow in traffic.flows]
    weights: Dict[int, Dict[int, float]] = {label: {} for label in labels}
    for src, dst, bandwidth in flows:
        a, b = owner[src], owner[dst]
        weights[a][b] = weights[b][a] = weights[a].get(b, 0.0) + bandwidth

    while len(clusters) > n_switches:
        best_key: Optional[Tuple[float, int]] = None
        best_pair: Optional[Tuple[int, int]] = None
        for i in range(len(clusters)):
            row = weights[labels[i]]
            for j in range(i + 1, len(clusters)):
                if len(clusters[i]) + len(clusters[j]) > max_size:
                    continue
                weight = row.get(labels[j], 0.0)
                # Prefer the heaviest pair; among equals, the smallest merged
                # cluster (keeps the partition balanced and deterministic).
                key = (weight, -(len(clusters[i]) + len(clusters[j])))
                if best_key is None or key > best_key:
                    best_key = key
                    best_pair = (i, j)
        if best_pair is None:
            # Every merge would violate the balance cap: merge the two
            # smallest clusters regardless (still deterministic).
            order = sorted(range(len(clusters)), key=lambda k: (len(clusters[k]), clusters[k][0]))
            i, j = sorted(order[:2])
        else:
            i, j = best_pair
        merged_label = next_label
        next_label += 1
        clusters[i] = sorted(clusters[i] + clusters[j])
        labels[i] = merged_label
        del clusters[j]
        del labels[j]
        for core in clusters[i]:
            owner[core] = merged_label
        merged_row: Dict[int, float] = {}
        for src, dst, bandwidth in flows:
            a, b = owner[src], owner[dst]
            if a == merged_label and b != merged_label:
                merged_row[b] = merged_row.get(b, 0.0) + bandwidth
            elif b == merged_label and a != merged_label:
                merged_row[a] = merged_row.get(a, 0.0) + bandwidth
        weights[merged_label] = merged_row
        for other, weight in merged_row.items():
            weights[other][merged_label] = weight

    # Deterministic switch numbering: clusters ordered by their first core.
    clusters.sort(key=lambda cluster: cluster[0])
    core_map: Dict[str, str] = {}
    for index, cluster in enumerate(clusters):
        switch = f"{switch_prefix}{index}"
        for core in cluster:
            core_map[core] = switch
    return core_map


def cluster_sizes(core_map: Dict[str, str]) -> Dict[str, int]:
    """Number of cores attached to every switch in a core mapping."""
    sizes: Dict[str, int] = {}
    for switch in core_map.values():
        sizes[switch] = sizes.get(switch, 0) + 1
    return sizes


def internal_bandwidth_fraction(
    traffic: CommunicationGraph, core_map: Dict[str, str]
) -> float:
    """Fraction of total bandwidth that stays inside a single switch.

    A higher value means the partitioning absorbed more traffic locally; it
    is the quantity the greedy merge maximises and a useful quality metric
    for tests.

    Raises
    ------
    SynthesisError
        When a flow endpoint is missing from ``core_map``.
    """
    flows = traffic.flows
    for flow in flows:
        for core in (flow.src, flow.dst):
            if core not in core_map:
                raise SynthesisError(
                    f"flow {flow.name!r}: core {core!r} is not mapped to a switch"
                )
    total = traffic.total_bandwidth
    if total == 0:
        return 0.0
    internal = sum(
        flow.bandwidth for flow in flows if core_map[flow.src] == core_map[flow.dst]
    )
    return internal / total
