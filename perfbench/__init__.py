"""Repository benchmark: cold-plan time and simulator throughput.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload (see :mod:`perfbench.workloads`) in fresh interpreters
and prints one JSON result line; ``perfbench/README.md`` documents the
workloads, the metrics and which layer should move which metric.
"""
