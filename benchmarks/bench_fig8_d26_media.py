"""Figure 8 — extra VCs vs. switch count for D26_media.

The paper plots, for topologies synthesized with 5..25 switches, the number
of extra virtual channels required by resource ordering (dotted, growing to
~16-18) and by the deadlock-removal algorithm (solid, zero for most switch
counts).  The headline observation: an application-specific topology can be
deadlock free even without restricting the routing function, so removal is
almost free while ordering pays one class per route hop.
"""

from __future__ import annotations

from conftest import banner, save_results

from repro.analysis.metrics import format_table
from repro.api.reports import FIGURE8_SWITCH_COUNTS, run_report


def test_figure8_vc_overhead_sweep(benchmark):
    """Regenerate the two series of Figure 8."""
    params = {"seed": 0, "switch_counts": FIGURE8_SWITCH_COUNTS}
    data = benchmark.pedantic(run_report, args=("figure8", params), rounds=1, iterations=1)

    print(banner("Figure 8 — number of extra VCs vs. switch count (D26_media)"))
    rows = list(
        zip(
            data["switch_counts"],
            data["resource_ordering_vcs"],
            data["deadlock_removal_vcs"],
        )
    )
    print(
        format_table(
            ["switch count", "resource ordering VCs", "deadlock removal VCs"], rows
        )
    )
    removal_total = sum(data["deadlock_removal_vcs"])
    ordering_total = sum(data["resource_ordering_vcs"])
    print(
        f"\npaper shape: removal ~0 for most switch counts, ordering grows with "
        f"switch count.\nreproduced: removal total {removal_total} VC(s), "
        f"ordering total {ordering_total} VC(s) over the sweep."
    )
    save_results("figure8_d26_media", data)

    # Shape assertions (not absolute numbers): removal never exceeds ordering,
    # removal is zero at most switch counts, ordering grows overall.
    assert all(
        removal <= ordering
        for removal, ordering in zip(
            data["deadlock_removal_vcs"], data["resource_ordering_vcs"]
        )
    )
    zero_points = sum(1 for v in data["deadlock_removal_vcs"] if v == 0)
    assert zero_points >= len(data["switch_counts"]) // 2
    assert data["resource_ordering_vcs"][-1] > data["resource_ordering_vcs"][0]
