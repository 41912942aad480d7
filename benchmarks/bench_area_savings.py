"""Section 5 area / resource claims.

The paper reports, against the resource-ordering baseline and averaged over
its benchmark set at 14 switches:

* an 88% average reduction in the number of additional channels (VCs);
* a 66% average reduction in NoC area.

This benchmark regenerates both columns for all six benchmarks.  The VC
reduction reproduces closely; the area reduction is smaller in our model
because our ORION-style router keeps a larger VC-independent area share
(crossbar, allocators, control) — the *direction and ranking* match, which
is what the substitution can preserve (see DESIGN.md, substitution 3).
"""

from __future__ import annotations

from conftest import banner, save_results

from repro.analysis.metrics import format_table
from repro.api.reports import FIGURE10_SWITCH_COUNT, run_report


def test_area_and_vc_savings(benchmark):
    """Regenerate the 88% VC-reduction and 66% area-reduction claims."""
    params = {"seed": 0, "switch_count": FIGURE10_SWITCH_COUNT}
    data = benchmark.pedantic(run_report, args=("area", params), rounds=1, iterations=1)

    print(banner("Section 5 — VC and area reduction vs. resource ordering (14 switches)"))
    rows = []
    for name, removal_vcs, ordering_vcs, vc_red, area_sav in zip(
        data["benchmarks"],
        data["removal_extra_vcs"],
        data["ordering_extra_vcs"],
        data["vc_reduction_percent"],
        data["area_saving_percent"],
    ):
        rows.append([name, removal_vcs, ordering_vcs, round(vc_red, 1), round(area_sav, 1)])
    print(
        format_table(
            ["benchmark", "removal VCs", "ordering VCs", "VC reduction [%]", "area saving [%]"],
            rows,
        )
    )
    print(
        f"\naverage VC reduction  : {data['average_vc_reduction_percent']:.1f}% "
        "(paper: 88%)"
    )
    print(
        f"average area saving   : {data['average_area_saving_percent']:.1f}% "
        "(paper: 66%; see DESIGN.md on the router area model)"
    )
    save_results("area_savings", data)

    assert data["average_vc_reduction_percent"] > 60.0
    assert data["average_area_saving_percent"] > 5.0
    for removal_vcs, ordering_vcs in zip(
        data["removal_extra_vcs"], data["ordering_extra_vcs"]
    ):
        assert removal_vcs <= ordering_vcs
