"""Run one benchmark workload and print its metrics.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload paper_cost --seed 0 --seconds 36 --trace 0

A closed loop with one caller: repetitions run one after another, each in a
fresh interpreter (:mod:`perfbench.child`) on a fresh cache directory, and
cycle through the run's inputs (:func:`perfbench.workloads.input_seeds`)
until ``--seconds`` have passed and every input has run.  Each repetition
is preceded by the calibration kernel (:mod:`perfbench.calibrate`).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced repetition per input, over at least half the
inputs, and reports the per-layer metrics plus the tracing overhead.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import LAYER_UNITS  # noqa: E402
from perfbench.workloads import WORKLOADS, input_seeds  # noqa: E402

#: Where repetitions keep their caches and logs; removed when the run ends.
WORK_DIR = ROOT / ".perfbench_work"

#: No repetition starts, and any still running is killed, this long after the
#: run began, so a run ends well inside its 180 s limit.
RUN_DEADLINE_S = 150.0

#: Calibration time of the reference machine that ``setup_s`` and ``plan_s``
#: are scaled to.
REFERENCE_CALIBRATION_S = 0.2

#: What the paper reports for the headline comparisons (informational).
PAPER_CLAIMS = {
    "vc_reduction_percent": "88% fewer VCs than resource ordering",
    "power_saving_percent": "8.6% power saving",
    "area_saving_percent": "66% area saving",
    "power_overhead_percent": "<5% power overhead vs unprotected",
    "area_overhead_percent": "<5% area overhead vs unprotected",
}


def _run_child(workload: str, design_seed: int, trace: bool, deadline: float) -> dict:
    """One repetition; returns its measurement plus the parent-timed ``setup_s``."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
    request = {
        "workload": workload,
        "design_seed": design_seed,
        "trace": trace,
        "cache_dir": cache_dir,
    }
    env = {key: value for key, value in os.environ.items() if key != "NOC_DEADLOCK_CACHE_DIR"}
    calibration = subprocess.run(
        [sys.executable, "-m", "perfbench.calibrate"],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=max(1.0, deadline - perf_counter()),
    )
    with open(Path(cache_dir) / "stderr.log", "w+") as log:
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", json.dumps(request)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
        ready = ""
        try:
            if select.select([child.stdout], [], [], max(0.0, deadline - perf_counter()))[0]:
                ready = child.stdout.readline()
            setup_s = perf_counter() - start
            output, _ = child.communicate(timeout=max(0.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            output = ""
        lines = output.strip().splitlines()
        measurement = None
        if ready.strip() == "READY" and child.returncode == 0 and lines:
            measurement = json.loads(lines[-1])
        if measurement is None:
            log.seek(0)
            sys.stderr.write(f"repetition (design seed {design_seed}) failed:\n{log.read()[-4000:]}")
            measurement = {"specs": 0, "failed": 0, "error": True}
        elif measurement["failed"]:
            log.seek(0)
            sys.stderr.write(log.read()[-4000:])
    shutil.rmtree(cache_dir, ignore_errors=True)
    measurement["setup_s"] = setup_s
    measurement["calibration_s"] = float(calibration.stdout)
    measurement["design_seed"] = design_seed
    return measurement


def _per_input(reps, key):
    """Mean over inputs of each input's median ``key``."""
    by_input = {}
    for rep in reps:
        by_input.setdefault(rep["design_seed"], []).append(rep[key])
    return statistics.fmean(statistics.median(values) for values in by_input.values())


def _failures(reps):
    """(attempted, failed) specs; a digest that differs from its input's first fails."""
    first_digest = {}
    attempted = failed = 0
    for rep in reps:
        attempted += rep["specs"]
        if rep["error"]:
            failed += rep["specs"]
            continue
        expected = first_digest.setdefault(rep["design_seed"], rep["digest"])
        if rep["digest"] != expected:
            sys.stderr.write(f"records digest changed between repetitions of seed {rep['design_seed']}\n")
            failed += rep["specs"]
        else:
            failed += rep["failed"]
    return attempted, failed


def _fmt(value, unit):
    if value is None:
        return "n/a (not simulated by this workload)"
    return f"{value:.6g} {unit}".rstrip()


def _report_end_to_end(workload, seed, plain):
    attempted, failed = _failures(plain)
    good = [rep for rep in plain if not rep["error"]]
    plan_s = _per_input(good, "plan_s")
    cycles = sum(rep["sim_cycles"] for rep in good)
    sim_rate = cycles / sum(rep["plan_s"] for rep in good) if cycles else None

    def mean_of(key):
        values = [rep[key] for rep in good if rep[key] is not None]
        return statistics.fmean(values) if values else None

    calibration_s = statistics.median(rep["calibration_s"] for rep in plain)
    setup_s = statistics.median(rep["setup_s"] for rep in plain)
    to_reference = REFERENCE_CALIBRATION_S / calibration_s
    metrics = {
        "setup_s": (setup_s * to_reference, "s"),
        "plan_s": (plan_s * to_reference, "s"),
        "peak_rss_mb": (_per_input(good, "peak_rss_mb"), "MB"),
    }
    print(f"workload {workload}  seed {seed}  inputs {sorted({r['design_seed'] for r in plain})}"
          f"  repetitions {len(plain)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {_fmt(value, unit)}")
    print(f"  {'setup_host_s':<24} {_fmt(setup_s, 's')}")
    print(f"  {'plan_host_s':<24} {_fmt(plan_s, 's')}  (host seconds; times above are scaled by"
          f" {REFERENCE_CALIBRATION_S} s / calibration median {calibration_s:.4g} s)")
    print(f"  {'sim_cycles_per_s':<24} {_fmt(sim_rate, 'cycles/s')}  (simulated cycles per host second)")
    print(f"  {'failed_fraction':<24} {failed / attempted if attempted else 1.0:.6g} ratio"
          f"  ({failed} of {attempted} specs)")
    print(f"  {'removal_vcs':<24} {_fmt(mean_of('removal_vcs'), 'count')}  (simulated, mean per input)")
    print(f"  {'removal_latency_cycles':<24} {_fmt(mean_of('removal_latency_cycles'), 'cycles')}"
          "  (simulated, mean per input)")
    print(f"  {'delivered_fraction':<24} {_fmt(mean_of('delivered_fraction'), 'ratio')}"
          "  (simulated, mean per input)")
    digests = {rep["design_seed"]: rep["digest"] for rep in good}
    print(f"  records digest           {_combined_digest(digests)}")
    first = next((rep for rep in good if rep["headline"]), None)
    if first:
        print(f"  reproduction vs paper (informational; design seed {first['design_seed']},"
              " mean over the six SoC benchmarks at 14 switches):")
        for key, claim in PAPER_CLAIMS.items():
            print(f"    {key:<24} {first['headline'][key]:8.2f}%   paper: {claim}")
    if cycles:
        print("  the wormhole simulator has no hardware reference here: simulated latency is"
              " unvalidated and carries no error figure")
    return attempted, failed, metrics


def _combined_digest(digests):
    joined = "".join(f"{seed}:{digests[seed]}\n" for seed in sorted(digests))
    return hashlib.sha256(joined.encode()).hexdigest()


def _report_layers(plain, traced):
    good = [rep for rep in traced if not rep["error"]]
    by_input = {}
    for rep in good:
        by_input.setdefault(rep["design_seed"], []).append(rep["layers"])
    values = {}
    for name in LAYER_UNITS:
        if name == "trace.overhead":
            continue
        values[name] = statistics.fmean(
            statistics.median(layer[name] for layer in layers) for layers in by_input.values()
        )
    untraced = _per_input([rep for rep in plain if not rep["error"]], "plan_s")
    values["trace.overhead"] = values["trace.plan_s"] / untraced - 1.0
    print("per-layer metrics (traced repetitions; mean over inputs of per-input medians)")
    for name, unit in LAYER_UNITS.items():
        share = ""
        if unit == "s" and name != "trace.plan_s":
            share = f"  {values[name] / values['trace.plan_s']:6.1%} of traced plan_s"
        print(f"  {name:<40} {values[name]:<12.6g} {unit:<13}{share}")
    print(f"  untraced plan_s {untraced:.6g} s; named leaves cover "
          f"{values['trace.leaf_coverage']:.1%} of traced plan_s")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro sources under {ROOT / 'src'}; run from a checkout\n")
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    # Byte-compile up front so no repetition pays for it inside its timings.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    inputs = input_seeds(args.workload, args.seed)
    kinds = (False, True) if args.trace else (False,)
    # A traced run pays for two repetitions per input, so its required pass
    # covers half the inputs and lasts about as long as an untraced run.
    required = (len(inputs) + 1) // 2 if args.trace else len(inputs)
    start = perf_counter()
    deadline = start + RUN_DEADLINE_S
    reps = []
    round_index = 0
    try:
        while perf_counter() < deadline and (
            round_index < required or perf_counter() - start < args.seconds
        ):
            design_seed = inputs[round_index % len(inputs)]
            for trace in kinds:
                rep = _run_child(args.workload, design_seed, trace, deadline)
                rep["traced"] = trace
                reps.append(rep)
            round_index += 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    if any(rep["error"] and not rep["specs"] for rep in reps) or not all(
        any(not rep["error"] for rep in group) for group in (plain, traced) if group
    ):
        sys.stderr.write("perfbench: a repetition did not run; no result\n")
        return 1
    attempted, failed, metrics = _report_end_to_end(args.workload, args.seed, plain)
    if args.trace:
        attempted_t, failed_t = _failures(traced)
        attempted, failed = attempted + attempted_t, failed + failed_t
        layer_values = _report_layers(plain, traced)
        result_metrics = {
            name: {"value": layer_values[name], "unit": unit} for name, unit in LAYER_UNITS.items()
        }
    else:
        result_metrics = {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
