"""Per-kernel timing of lambert_sum against its mpf oracle, as JSON.

Usage, from the repository root:

    PYTHONPATH=src:tests python tests/kernel_bench.py > kernel_bench.json

Each point sums f = mobius with the minus kernel and weight 1/n at z = 1,
the default tolerance and 128 bits.  Both kernels run in this one process on
the same table, alternating which goes first, and each time is the median
of RUNS calls; the ratio is oracle median / kernel median.
"""

import json
import os
import platform
import statistics
import time

import mpmath
from mpf_kernels import oracle_lambert_sum
from mpmath import mp, mpf

from lambertq import identities
from lambertq.numerics import set_precision
from lambertq.qseries import KernelForm, QPoint, lambert_sum

RUNS = 5
POINTS = [("0.3", mpf("0.3")), ("0.9", mpf("0.9")), ("0.99", mpf("0.99")),
          ("1-2^-10", 1 - mpf(2) ** -10)]


def main():
    set_precision(128)
    kern = KernelForm("minus", "over_n")
    rows = []
    for label, q in POINTS:
        pt = QPoint(q, 1)
        # size and build the table outside the timed calls
        terms = identities._with_table("std:mobius", lambda f: lambert_sum(f, kern, pt)).terms_used
        f = identities._get_table("std:mobius", terms)
        new, old = [], []
        for i in range(RUNS):
            pair = [(new, lambda: lambert_sum(f, kern, pt)),
                    (old, lambda: oracle_lambert_sum(f, kern, pt))]
            for times, fn in pair if i % 2 == 0 else pair[::-1]:
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
        rows.append({
            "q": label, "terms": terms,
            "lambert_sum_s": statistics.median(new),
            "oracle_s": statistics.median(old),
            "ratio": round(statistics.median(old) / statistics.median(new), 2),
            "lambert_sum_runs_s": new, "oracle_runs_s": old,
        })
    out = {
        "what": "lambert_sum (fixed point) against tests/mpf_kernels.oracle_lambert_sum "
                "(the mpf loop it replaced), same process, median of %d runs" % RUNS,
        "setup": {"f": "mobius", "kernel": "minus", "weight": "over_n", "z": 1,
                  "tol": "1e-25", "precision_bits": mp.prec},
        "environment": {"python": platform.python_version(), "mpmath": mpmath.__version__,
                        "mpmath_backend": mpmath.libmp.BACKEND,
                        "machine": platform.machine(), "cpus": os.cpu_count()},
        "points": rows,
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
