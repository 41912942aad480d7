"""Figure 9 — extra VCs vs. switch count for D36_8.

D36_8 is the paper's stress case: 36 cores, each sending to eight others.
With that traffic density the synthesized topologies do exhibit CDG cycles,
so the removal algorithm has to add some VCs — but still an order of
magnitude fewer than resource ordering, whose overhead climbs above one
hundred VCs at large switch counts (the paper's y-axis reaches 130).
"""

from __future__ import annotations

from conftest import banner, save_results

from repro.analysis.metrics import format_table, percent_reduction
from repro.api.reports import FIGURE9_SWITCH_COUNTS, run_report


def test_figure9_vc_overhead_sweep(benchmark):
    """Regenerate the two series of Figure 9."""
    params = {"seed": 0, "switch_counts": FIGURE9_SWITCH_COUNTS}
    data = benchmark.pedantic(run_report, args=("figure9", params), rounds=1, iterations=1)

    print(banner("Figure 9 — number of extra VCs vs. switch count (D36_8)"))
    rows = []
    for count, ordering, removal in zip(
        data["switch_counts"],
        data["resource_ordering_vcs"],
        data["deadlock_removal_vcs"],
    ):
        rows.append([count, ordering, removal, round(percent_reduction(ordering, removal), 1)])
    print(
        format_table(
            ["switch count", "resource ordering VCs", "deadlock removal VCs", "reduction [%]"],
            rows,
        )
    )
    average_reduction = sum(row[3] for row in rows) / len(rows)
    print(
        "\npaper shape: ordering grows to >100 VCs at 35 switches, removal stays "
        f"small.\nreproduced: average VC reduction {average_reduction:.1f}% "
        "(paper reports an 88% average across its benchmark set)."
    )
    save_results("figure9_d36_8", data)

    # Shape assertions.
    for removal, ordering in zip(
        data["deadlock_removal_vcs"], data["resource_ordering_vcs"]
    ):
        assert removal < ordering
    assert data["resource_ordering_vcs"][-1] >= 3 * data["resource_ordering_vcs"][0]
    assert max(data["deadlock_removal_vcs"]) < max(data["resource_ordering_vcs"]) / 2
    assert average_reduction > 60.0
