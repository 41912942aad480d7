"""Experiment drivers and metrics used by the benchmark harness.

* :mod:`repro.analysis.metrics` — percentages, normalisation, text tables.
* :mod:`repro.analysis.experiments` — the three-way comparison (unprotected
  / deadlock removal / resource ordering) the paper's evaluation is built
  on, and the runtime measurement behind the paper's scalability claim.

The figure-level sweeps (Figures 8, 9, 10 and the area/overhead claims) are
report types of the experiment API: :func:`repro.api.reports.run_report`.
"""

from repro.analysis.experiments import (
    MethodComparison,
    compare_methods,
    runtime_scaling,
    sweep_switch_counts,
)
from repro.analysis.metrics import geometric_mean, percent_change, percent_reduction

__all__ = [
    "MethodComparison",
    "compare_methods",
    "sweep_switch_counts",
    "percent_change",
    "percent_reduction",
    "geometric_mean",
    "runtime_scaling",
]
