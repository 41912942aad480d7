"""Fixed reference workload: how fast the machine runs Python right now.

The host this benchmark was written on slows down by up to ~1.4x for
minutes at a time (other tenants), which moved run-level times by far
more than any useful bound.  :mod:`perfbench.run` runs this module in a
fresh interpreter before every repetition and scales the gated times
(``setup_s``, ``plan_s``) by the run's median calibration time.  It uses
only the standard library and allocates, hashes and sorts like the plan
does, so it slows down with it.  Changing it changes every gated time
ever reported: don't.

Prints the kernel's duration in seconds.
"""

from time import perf_counter


def kernel() -> int:
    rows = [(i * 2654435761 % 1000003, str(i), (i, i + 1)) for i in range(120000)]
    index = {}
    for key, name, pair in rows:
        index.setdefault(key % 5003, []).append((name, pair))
    rows.sort()
    return len(index)


if __name__ == "__main__":
    start = perf_counter()
    kernel()
    print(perf_counter() - start)
