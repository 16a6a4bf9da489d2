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

To compare weighted_product_log with another checkout's, for instance the
parent commit's exported to OLD:

    PYTHONPATH=src:tests python tests/kernel_bench.py --against OLD/src

runs the product rows ``rounds`` times in fresh processes, once on OLD/src
and once on this tree's src per round, alternating which goes first.

    PYTHONPATH=src:tests python tests/kernel_bench.py --against OLD/src --cold

times cold CLI processes instead: ``python -m lambertq.cli ... --format
json``, one op of each kind in a round of the benchmark's cli-near1 workload
(COLD_OPS), each in a fresh process.  Per round the two trees run each op
back to back, alternating which goes first.  It also records each tree's import cost from ``-X importtime``
and the cold start of the interpreter with mpmath and the standard modules
the CLI uses, which no change to lambertq moves.  Both trees are
byte-compiled first, as benchmarks/run.py does.
"""

import argparse
import compileall
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
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
# one op of each kind in a cli-near1 round (benchmarks/workloads.py), at fixed
# inputs: Lambert sums and q-Pochhammers at q = 0.9, 0.99 and 0.999, sieves of
# an integer table at 2^13 and 2^16 and of a non-integer one at 2^11, a
# weighted product, an identity check and a limit check
COLD_OPS = [
    ["eval", "lambert", "--f", "mobius", "--q", "0.9", "--z", "1"],
    ["eval", "qpoch", "--z", "0.5", "--q", "0.9"],
    ["sieve", "totient", "8192"],
    ["sieve", "totient", "65536"],
    ["sieve", "sigma:0.5", "2048"],
    ["eval", "lambert", "--f", "mobius", "--q", "0.99", "--z", "1"],
    ["eval", "qpoch", "--z", "0.5", "--q", "0.99"],
    ["eval", "product", "--g", "totient", "--form", "B", "--q", "0.9", "--z", "0.5"],
    ["verify", "EQ3.29", "--q", "0.9", "--z", "0.5"],
    ["limit", "EQ3.30-1"],
    ["eval", "lambert", "--f", "mobius", "--q", "0.999", "--z", "1"],
    ["eval", "qpoch", "--z", "0.5", "--q", "0.999"],
]
# what the interpreter loads for the CLI besides lambertq itself
BASE_IMPORTS = "import mpmath, fractions, argparse, json"
# modules a cold CLI process should not load
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


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


def _environment():
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "machine": platform.machine(), "cpus": os.cpu_count()}


def compare_products(parent_src, rounds=3, points=PRODUCT_POINTS, runs=RUNS):
    """product_rows on ``parent_src`` and on this tree's src, each in a fresh
    process, ``rounds`` times with the order alternating.  Per point, each
    time is the median over the rounds of that round's value, and each ratio
    is parent / change."""
    here = os.path.dirname(os.path.abspath(__file__))
    srcs = {"parent": parent_src, "change": os.path.join(here, os.pardir, "src")}
    code = ("import json, kernel_bench; kernel_bench.set_precision(128); "
            f"print(json.dumps(kernel_bench.product_rows({points!r}, {runs})))")
    rows = {"parent": [], "change": []}
    for i in range(rounds):
        for tree in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([srcs[tree], here]))
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True).stdout
            rows[tree].append(json.loads(out))
    table = []
    for k, row in enumerate(rows["change"][0]):
        pt = {"q": row["q"], "z": row["z"], "terms": row["terms"]}
        for key in ("warm_s", "cold_s", "oracle_s"):
            for tree in ("parent", "change"):
                times = [r[k][key] for r in rows[tree]]
                pt[f"{tree}_{key}"] = statistics.median(times)
                pt[f"{tree}_{key[:-2]}_rounds_s"] = times
        pt["warm_ratio"] = round(pt["parent_warm_s"] / pt["change_warm_s"], 2)
        pt["cold_ratio"] = round(pt["parent_cold_s"] / pt["change_cold_s"], 2)
        pt["change_oracle_ratio"] = round(pt["change_oracle_s"] / pt["change_warm_s"], 2)
        table.append(pt)
    return {"environment": _environment(), "weighted_product_log": {
        "what": "weighted_product_log of the --against tree (parent) and of this tree "
                "(change): product_rows in a fresh process per tree and round, %d rounds "
                "alternating which tree goes first; each time is the median over the rounds "
                "of a round's median of %d calls (cold: its first call)" % (rounds, runs),
        "setup": {"g": "mobius", "form": "A", "weight": "over_n", "tol": "1e-25",
                  "precision_bits": 128},
        "points": table}}


def _wall(argv, src):
    """Wall time of one fresh process ``python argv`` with PYTHONPATH=src."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _import_times(src):
    """{module: (self_ms, cumulative_ms)} of ``import lambertq.cli`` in a
    fresh process, from -X importtime."""
    env = dict(os.environ, PYTHONPATH=src)
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lambertq.cli"],
                         env=env, check=True, capture_output=True, text=True).stderr
    out = {}
    for line in err.splitlines():
        head, _, rest = line.partition(":")
        cells = rest.split("|")
        if head == "import time" and cells[0].strip().isdigit():
            out[cells[2].strip()] = (int(cells[0]) / 1000, int(cells[1]) / 1000)
    return out


def _median(xs):
    return round(statistics.median(xs), 4)


def compare_cold(parent_src, rounds=20, ops=COLD_OPS):
    """Cold CLI wall times and import costs on ``parent_src`` and on this
    tree's src over ``rounds`` rounds, each time the median over the rounds."""
    here = os.path.dirname(os.path.abspath(__file__))
    srcs = {"parent": parent_src, "change": os.path.join(here, os.pardir, "src")}
    # byte-compile both trees as an install (and the benchmark) would, so that
    # no timed process compiles lambertq, whether or not bytecode is cached
    for src in srcs.values():
        compileall.compile_dir(os.path.join(src, "lambertq"), quiet=1)
    walls = {t: [[] for _ in ops] for t in srcs}
    imports = {t: [] for t in srcs}
    base = []
    for i in range(rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        base.append(_wall(["-c", BASE_IMPORTS], here))
        for tree in order:
            imports[tree].append(_import_times(srcs[tree]))
        # the two trees run each op back to back, so a drift in the host's
        # speed over a round weighs on both alike
        for k, argv in enumerate(ops):
            for tree in order:
                walls[tree][k].append(
                    _wall(["-m", "lambertq.cli", *argv, "--format", "json"], srcs[tree]))
    rows = []
    for k, argv in enumerate(ops):
        row = {"argv": " ".join(argv)}
        for tree in srcs:
            row[f"{tree}_s"] = _median(walls[tree][k])
        row["saved_s"] = round(row["parent_s"] - row["change_s"], 4)
        row["ratio"] = round(row["parent_s"] / row["change_s"], 3)
        for tree in srcs:
            row[f"{tree}_runs_s"] = [round(t, 4) for t in walls[tree][k]]
        rows.append(row)
    split = {}
    for tree, runs in imports.items():
        cli = [r["lambertq.cli"][1] for r in runs]
        mpm = [r["mpmath"][1] for r in runs]
        split[tree] = {
            "cli_import_ms": _median(cli), "mpmath_import_ms": _median(mpm),
            "lambertq_own_ms": _median([c - m for c, m in zip(cli, mpm)]),
            "lambertq_self_ms": {name: _median([r[name][0] for r in runs])
                                 for name in sorted(runs[0]) if name.startswith("lambertq")},
            "heavy_modules_loaded": [m for m in HEAVY_MODULES if m in runs[0]],
        }
    totals = {t: [sum(walls[t][k][i] for k in range(len(ops))) for i in range(rounds)]
              for t in srcs}
    env = dict(_environment(), dont_write_bytecode=sys.dont_write_bytecode)
    return {"environment": env, "cold_cli": {
        "what": "wall time of a fresh `python -m lambertq.cli ARGV --format json` process "
                "per op, on the --against tree (parent) and on this tree (change) back to "
                "back, %d rounds alternating which tree goes first; each time is the median "
                "over the rounds; both trees byte-compiled first" % rounds,
        "base_imports": BASE_IMPORTS,
        "base_s": _median(base),
        "ops": rows,
        "round_total": {f"{t}_s": _median(v) for t, v in totals.items()},
        "import": {
            "what": "-X importtime of `import lambertq.cli` in a fresh process, once per tree "
                    "and round, medians; lambertq_own_ms is the CLI's import less mpmath's",
            **split}}}


def main():
    set_precision(128)
    out = {
        "environment": _environment(),
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
    ap = argparse.ArgumentParser(description="per-kernel timings as JSON")
    ap.add_argument("--against", metavar="SRC",
                    help="compare weighted_product_log with the lambertq package under SRC")
    ap.add_argument("--cold", action="store_true",
                    help="with --against, compare cold CLI processes instead")
    args = ap.parse_args()
    if args.cold and not args.against:
        ap.error("--cold needs --against")
    if args.against:
        compare = compare_cold if args.cold else compare_products
        print(json.dumps(compare(args.against), indent=2))
    else:
        main()
