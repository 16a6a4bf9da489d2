"""Per-kernel timing of lambert_sum and weighted_product_log against their
mpf oracles, as JSON.

Usage, from the repository root:

    PYTHONPATH=src:tests python tests/kernel_bench.py > kernel_bench.json

lambert_sum sums f = mobius with the minus kernel and weight 1/n at z = 1.
weighted_product_log takes g = mobius and weight 1/n at each (q, z, form) of
PRODUCT_POINTS, forms A and B at every (q, z).  Both use the default
tolerance and 128 bits.  Each kernel and its oracle run in this one process
on the same table, alternating which goes first, and each time is the
median of ``runs`` calls; the ratio is oracle median / kernel median.

To compare the kernels with another checkout's, for instance the parent
commit's exported to OLD:

    PYTHONPATH=src:tests python tests/kernel_bench.py --against OLD/src

imports the package under OLD/src a second time, as ``lambertq_against``,
and at each point calls the two trees' kernels in this one process,
alternating which goes first, for at least PAIR_RUNS pairs and PAIR_SECONDS
seconds; each time is the median of its tree's calls, so a drift in the
host's speed weighs on both alike.  weighted_product_log runs at each point
of PRODUCT_POINTS.  lambert_sum runs at the 16 (q, z) points of the default
grid, where the benchmark's verify-grid workload sums, in two rows each: a
warm row repeats one call, so a tree that keeps Lambert plans reuses its
plan, and a miss row clears each tree's plans (qseries._LAMBERT_PLANS, where
it has them) before every call, so each call works its set-up out afresh.
The q = 0.99 product rows take 20-100 ms a call, so PAIR_SECONDS stops them
at the PAIR_RUNS minimum.  On two identical trees (2-core Xeon, Python 3.11),
three runs with 21 pairs read one such row as low as 0.968; three with 41
read them all at 0.978-1.016.

The fast rows (under 1 ms a call, hundreds of pairs) are no steadier: on two
identical trees one read 0.966 in one run of three and 0.992-1.015 in the
others, and more pairs do not help a row that already has hundreds.  So a
ratio below 0.97 on one row is not by itself a slowdown.  Rerun that row
alone (``compare_products(OLD_SRC, points=[...], lambert_points=[...])``)
and count it only if the rerun reads below 0.97 as well; a bar over a set
of rows applies to the median of their ratios.

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
import importlib.util
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

from lambertq import identities, qseries
from lambertq.numerics import set_precision
from lambertq.qseries import KernelForm, QPoint, lambert_sum, weighted_product_log

RUNS = 5
# calls per tree and point of --against: at least this many pairs, and pairs
# until this many seconds have passed
PAIR_RUNS = 41
PAIR_SECONDS = 2.0
LAMBERT_POINTS = [("0.3", mpf("0.3")), ("0.9", mpf("0.9")), ("0.99", mpf("0.99")),
                  ("1-2^-10", 1 - mpf(2) ** -10)]
# q = 0.7 is the largest q of the library's default grid, where the slowest
# ops of the benchmark's verify-grid workload sit
# q = 0.9, z = 1+10j splits the inner products into pieces (_log_qpoch)
PRODUCT_POINTS = [(q, z, form) for q in ("0.3", "0.7", "0.9", "0.99")
                  for z in ("1", "2", "0.5", "1+0.5j") for form in ("A", "B")] + [
                  ("0.9", "1+10j", form) for form in ("A", "B")]
# the library's default grid (identities.DEFAULT_GRID_Q and DEFAULT_GRID_Z)
LAMBERT_GRID = [(q, z) for q in identities.DEFAULT_GRID_Q for z in identities.DEFAULT_GRID_Z]
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


def _alternate(new_fn, old_fn, runs, seconds=0.0):
    """Times of each's calls, alternating which goes first, for at least
    ``runs`` pairs and ``seconds`` seconds."""
    new, old = [], []
    end = time.perf_counter() + seconds
    while len(new) < runs or time.perf_counter() < end:
        pair = [(new, new_fn), (old, old_fn)]
        for times, fn in pair if len(new) % 2 == 0 else pair[::-1]:
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
    for q, z, form in points:
        pt = QPoint(mpf(q), mpc(complex(z)) if "j" in z else mpf(z))
        g = identities._get_table("std:mobius", 1 << 15)

        def kernel():
            return weighted_product_log(g, pt, form=form)

        new, old = _alternate(kernel, lambda: oracle_weighted_product_log(g, pt, form=form), runs)
        rows.append({
            "q": q, "z": z, "form": form, "terms": kernel().terms_used,
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


def _load_tree(src, name="lambertq_against"):
    """The lambertq package under ``src``, imported as ``name`` beside this
    tree's own; its modules import each other relatively, so all of them
    load under ``name``."""
    pkg_dir = os.path.join(src, "lambertq")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(name + ".identities"), importlib.import_module(name + ".qseries")


def _point(qs, q, z):
    return qs.QPoint(mpf(q), mpc(complex(z)) if "j" in z else mpf(z))


def _lambert_rows(trees, points, runs, seconds):
    """lambert_sum of both trees at each (q, z) of ``points``: a warm and a
    miss row each (module docstring); each ratio is parent / change."""
    rows = []
    for q, z in points:
        for mode in ("warm", "miss"):
            fns = {}
            for tree, (ids, qs) in trees.items():
                pt, kern = _point(qs, q, z), qs.KernelForm("minus", "over_n")
                f = ids._get_table("std:mobius", 1 << 10)
                plans = getattr(qs, "_LAMBERT_PLANS", {}) if mode == "miss" else {}

                def call(qs=qs, f=f, kern=kern, pt=pt, plans=plans):
                    plans.clear()
                    return qs.lambert_sum(f, kern, pt)

                fns[tree] = call
            change, parent = _alternate(fns["change"], fns["parent"], runs, seconds)
            row = {"q": q, "z": z, "mode": mode, "terms": fns["change"]().terms_used,
                   "parent_s": statistics.median(parent), "change_s": statistics.median(change)}
            row["ratio"] = round(row["parent_s"] / row["change_s"], 3)
            row["parent_runs_s"], row["change_runs_s"] = parent, change
            rows.append(row)
    return rows


def compare_products(parent_src, points=PRODUCT_POINTS, runs=PAIR_RUNS, seconds=PAIR_SECONDS,
                     lambert_points=LAMBERT_GRID):
    """weighted_product_log and lambert_sum of the package under
    ``parent_src`` against this tree's, interleaved in this process
    (_alternate) at each point; each ratio is parent / change."""
    trees = {"parent": _load_tree(parent_src), "change": (identities, qseries)}
    table = []
    for q, z, form in points:
        fns = {}
        for tree, (ids, qs) in trees.items():
            pt = _point(qs, q, z)
            g = ids._get_table("std:mobius", 1 << 15)
            fns[tree] = (lambda qs=qs, g=g, pt=pt: qs.weighted_product_log(g, pt, form=form))
        change, parent = _alternate(fns["change"], fns["parent"], runs, seconds)
        row = {"q": q, "z": z, "form": form, "terms": fns["change"]().terms_used,
               "parent_warm_s": statistics.median(parent),
               "change_warm_s": statistics.median(change)}
        row["warm_ratio"] = round(row["parent_warm_s"] / row["change_warm_s"], 3)
        row["parent_warm_runs_s"], row["change_warm_runs_s"] = parent, change
        table.append(row)
    return {"environment": _environment(), "weighted_product_log": {
        "what": "weighted_product_log of the --against tree (parent) and of this tree "
                "(change), both imported into one process; at each point the two kernels' "
                "calls alternate, which goes first alternating too, for at least %d pairs and "
                "%g s; each warm time is the median of its tree's calls" % (runs, seconds),
        "setup": {"g": "mobius", "forms": "A and B", "weight": "over_n", "tol": "1e-25",
                  "precision_bits": mp.prec},
        "points": table}, "lambert_sum": {
        "what": "lambert_sum of the two trees, interleaved as above; a warm row repeats one "
                "call, a miss row clears each tree's Lambert plans before every call",
        "setup": {"f": "mobius", "kernel": "minus", "weight": "over_n", "tol": "1e-25",
                  "table_N": 1 << 10, "precision_bits": mp.prec},
        "points": _lambert_rows(trees, lambert_points, runs, seconds)}}


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
                    "product), same process, median of %d runs" % RUNS,
            "setup": {"g": "mobius", "forms": "A and B", "weight": "over_n", "tol": "1e-25",
                      "precision_bits": mp.prec},
            "points": product_rows(),
        },
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="per-kernel timings as JSON")
    ap.add_argument("--against", metavar="SRC",
                    help="compare the kernels with the lambertq package under SRC")
    ap.add_argument("--cold", action="store_true",
                    help="with --against, compare cold CLI processes instead")
    args = ap.parse_args()
    if args.cold and not args.against:
        ap.error("--cold needs --against")
    if args.against:
        set_precision(128)
        compare = compare_cold if args.cold else compare_products
        print(json.dumps(compare(args.against), indent=2))
    else:
        main()
