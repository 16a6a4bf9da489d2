"""Per-kernel timing of lambert_sum and weighted_product_log against their
mpf oracles, as JSON.

Usage, from the repository root:

    PYTHONPATH=src:tests python tests/kernel_bench.py > kernel_bench.json

lambert_sum sums f = mobius with the minus kernel and weight 1/n at z = 1.
weighted_product_log takes g = mobius, form A and weight 1/n at each (q, z)
of PRODUCT_POINTS.  Both use the default tolerance and 128 bits.  Each
kernel and its oracle run in this one process on the same table, alternating
which goes first, and each time is the median of ``runs`` calls; the ratio
is oracle median / kernel median.  A product's cold time is its first call
at that point in the process, before the timed calls.
"""

import gc
import json
import os
import platform
import statistics
import time

import mpmath
from mpf_kernels import oracle_lambert_sum, oracle_weighted_product_log
from mpmath import mp, mpc, mpf

from lambertq import identities
from lambertq.numerics import set_precision
from lambertq.qseries import KernelForm, QPoint, lambert_sum, weighted_product_log

RUNS = 5
LAMBERT_POINTS = [("0.3", mpf("0.3")), ("0.9", mpf("0.9")), ("0.99", mpf("0.99")),
                  ("1-2^-10", 1 - mpf(2) ** -10)]
PRODUCT_POINTS = [(q, z) for q in ("0.3", "0.9", "0.99") for z in ("1", "2", "0.5", "1+0.5j")]


def _timed(fn):
    """Wall time of one call, with the garbage collector off as in timeit,
    so that one kernel does not pay for the objects another left behind."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _alternate(new_fn, old_fn, runs):
    """Times of ``runs`` calls of each, alternating which goes first."""
    new, old = [], []
    for i in range(runs):
        pair = [(new, new_fn), (old, old_fn)]
        for times, fn in pair if i % 2 == 0 else pair[::-1]:
            times.append(_timed(fn))
    return new, old


def lambert_rows(points=LAMBERT_POINTS, runs=RUNS):
    kern = KernelForm("minus", "over_n")
    rows = []
    for label, q in points:
        pt = QPoint(q, 1)
        # size and build the table outside the timed calls
        terms = identities._with_table("std:mobius", lambda f: lambert_sum(f, kern, pt)).terms_used
        f = identities._get_table("std:mobius", terms)
        new, old = _alternate(lambda: lambert_sum(f, kern, pt),
                              lambda: oracle_lambert_sum(f, kern, pt), runs)
        rows.append({
            "q": label, "terms": terms,
            "lambert_sum_s": statistics.median(new),
            "oracle_s": statistics.median(old),
            "ratio": round(statistics.median(old) / statistics.median(new), 2),
            "lambert_sum_runs_s": new, "oracle_runs_s": old,
        })
    return rows


def product_rows(points=PRODUCT_POINTS, runs=RUNS):
    rows = []
    for q, z in points:
        pt = QPoint(mpf(q), mpc(complex(z)) if "j" in z else mpf(z))
        g = identities._get_table("std:mobius", 1 << 15)

        def kernel():
            return weighted_product_log(g, pt)

        cold = _timed(kernel)
        new, old = _alternate(kernel, lambda: oracle_weighted_product_log(g, pt), runs)
        rows.append({
            "q": q, "z": z, "terms": kernel().terms_used, "cold_s": cold,
            "warm_s": statistics.median(new),
            "oracle_s": statistics.median(old),
            "ratio": round(statistics.median(old) / statistics.median(new), 2),
            "warm_runs_s": new, "oracle_runs_s": old,
        })
    return rows


def main():
    set_precision(128)
    out = {
        "environment": {"python": platform.python_version(), "mpmath": mpmath.__version__,
                        "mpmath_backend": mpmath.libmp.BACKEND,
                        "machine": platform.machine(), "cpus": os.cpu_count()},
        "lambert_sum": {
            "what": "lambert_sum (fixed point) against tests/mpf_kernels.oracle_lambert_sum "
                    "(the mpf loop it replaced), same process, median of %d runs" % RUNS,
            "setup": {"f": "mobius", "kernel": "minus", "weight": "over_n", "z": 1,
                      "tol": "1e-25", "precision_bits": mp.prec},
            "points": lambert_rows(),
        },
        "weighted_product_log": {
            "what": "weighted_product_log (fixed-point inner products) against "
                    "tests/mpf_kernels.oracle_weighted_product_log (one mpf loop per inner "
                    "product), same process, median of %d runs; cold_s is the first call" % RUNS,
            "setup": {"g": "mobius", "form": "A", "weight": "over_n", "tol": "1e-25",
                      "precision_bits": mp.prec},
            "points": product_rows(),
        },
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
