"""One measured repetition: a fresh interpreter runs one plan on a cold cache.

Started by :mod:`perfbench.run` as ``python -m perfbench.child '<json>'``
with the checkout root as working directory.  It prints ``READY`` once
set-up is done (imports, plan load, the lazy numpy import), so the parent
can time set-up from process start, then one JSON line with the
measurement, the output checks and the records digest.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    request = json.loads(argv[1])
    sys.path.insert(0, str(ROOT / "src"))

    import numpy  # noqa: F401  (the batched engine's lazy import, paid in set-up)

    import repro.perf.batch_engine  # noqa: F401
    from repro.api import ExperimentPlan
    from repro.api.runner import Runner

    from perfbench import checks, layers
    from perfbench.workloads import plan_document

    plan = ExperimentPlan.from_dict(plan_document(request["workload"], request["design_seed"]))
    tracer = layers.install() if request["trace"] else None
    print("READY", flush=True)

    specs = len(plan.all_specs())
    start = perf_counter()
    try:
        outcome = Runner(cache_dir=request["cache_dir"], jobs=1).run(plan)
        reports = outcome.render_reports()
    except Exception:  # a plan that aborts counts every spec as failed
        traceback.print_exc()
        print(json.dumps({"specs": specs, "failed": specs, "error": True}), flush=True)
        return 0
    plan_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = [result.to_dict() for result in outcome.results]
    failed = 0
    for result, record in zip(outcome.results, records):
        problems = checks.record_problems(record, cache_hit=result.cache_hit)
        if problems:
            failed += 1
            print(f"check failed for {result.spec.fingerprint()[:12]}: {problems}",
                  file=sys.stderr)
    removal_vcs = {
        result.spec.cost_fingerprint(): result.removal_extra_vcs
        for result in outcome.results
    }
    measurement = {
        "specs": specs,
        "failed": failed,
        "error": False,
        "plan_s": plan_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": checks.records_digest(records),
        "removal_vcs": sum(removal_vcs.values()),
        "headline": _headline(dict(reports)),
        **checks.simulated_outcomes(records),
    }
    if tracer is not None:
        measurement["layers"] = {
            **layers.layer_metrics(tracer, plan_s),
            **checks.layer_counts(records),
            "core.removal_vcs": measurement["removal_vcs"],
            "simulation.removal_latency_cycles": measurement["removal_latency_cycles"] or 0.0,
            "simulation.removal_delivered_fraction": measurement["delivered_fraction"] or 0.0,
        }
    print(json.dumps(measurement), flush=True)
    return 0


def _headline(reports):
    """The reproduction's averages next to the paper's claims (paper_cost only)."""
    if not {"figure10", "area", "overhead"} <= set(reports):
        return None
    area, overhead = reports["area"], reports["overhead"]
    return {
        "vc_reduction_percent": area["average_vc_reduction_percent"],
        "power_saving_percent": reports["figure10"]["average_power_saving_percent"],
        "area_saving_percent": area["average_area_saving_percent"],
        "power_overhead_percent": overhead["average_power_overhead_percent"],
        "area_overhead_percent": overhead["average_area_overhead_percent"],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
