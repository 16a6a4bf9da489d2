"""lambertq benchmark: one workload, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload verify-grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics: one untraced pass
of the workload in a fresh process, with set-up time taken over several cold
starts before and after it.  ``--trace 1`` runs a fixed number of ops twice,
untraced and then with the layer wrappers of ``spans.py`` installed, checks
that both passes produced identical outputs, and reports per-layer metrics.

Every line but the last is a ``# `` comment carrying context: environment,
calibration loop time, input mix shares, failed ops by input.  The last line
is the result object ``{"correct", "attempted", "failed", "metrics"}``.
See ``benchmarks/README.md`` for the workloads and what each metric should
move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
from mpmath import mp, mpf

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# cold starts before the workload pass and again after it; setup_s is the
# median of both batches, so a slow spell of the host on one side weighs less
SETUP_REPEATS = 12
RUN_LIMIT_S = 160  # a run must end within 180 s, set-up after the pass included
CALIBRATION_REPEATS = 3
SETUP_CODE = "import lambertq; lambertq.catalog(); lambertq.limit_targets()"


def library_env():
    """This process's environment with the checkout's ``src`` first on the
    import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_times(env):
    """Wall times of SETUP_REPEATS cold interpreters that each import
    lambertq and load both catalogs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def calibrate():
    """Median time of a fixed pure-mpmath loop: context for machine noise."""
    def loop():
        with mp.workprec(128):
            q, w, acc = mpf("0.999"), mpf(1) / 3, mpf(0)
            t0 = time.perf_counter()
            for _ in range(20000):
                acc += mp.log(1 - w)
                w *= q
            return time.perf_counter() - t0

    return statistics.median(loop() for _ in range(CALIBRATION_REPEATS))


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "machine": platform.machine()}


def run_worker(env, deadline, workload, seed, seconds, ops, traced):
    """One worker pass; past ``deadline`` (perf_counter) its whole process
    group, CLI children included, is killed and the run fails."""
    cfg = {"workload": workload, "seed": seed, "seconds": seconds,
           "ops": ops, "trace": traced}
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("benchmark worker overran the run's time limit")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def end_to_end(record, setup_s):
    ops = record["ops"]
    lat = [o["latency_s"] for o in ops]
    passed = sum(o["ok"] for o in ops)
    pct = workloads.TAIL_PERCENTILE[record["workload"]]
    tail_s = statistics.quantiles(lat, n=100, method="inclusive")[pct - 1]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (passed / record["busy_s"], "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }
    extra = {"op_tail_percentile": pct, "ops": len(ops),
             "samples_beyond_tail": sum(x > tail_s for x in lat),
             "fail_frac": (len(ops) - passed) / len(ops),
             "busy_s": record["busy_s"]}
    return metrics, extra


def _sum_layers(layers):
    totals, counts, cache = {}, {}, {}
    for proc in layers:
        for name, agg in proc["totals"].items():
            acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += agg[k]
        for src, dst in ((proc["counts"], counts), (proc["cache"], cache)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    return totals, counts, cache


def per_layer(traced, untraced):
    """Per-layer metrics of a traced pass.

    Layer times are shares of the pass's summed op latency, so that a layer a
    workload never reaches reads 0 without being a constant time; kernel
    speed is terms per second of the kernel's own span time.
    """
    totals, counts, cache = _sum_layers(traced["layers"])
    busy = traced["busy_s"]

    def t(layer, field):
        return totals.get(layer, {}).get(field, 0)

    def share(layer, field="s"):
        return (t(layer, field) / busy, "ratio")

    def rate(layer):
        secs = t(layer, "s")
        return (counts.get(layer + ".terms", 0) / secs if secs else 0.0, "1/s")

    def count(name):
        return (counts.get(name, 0), "count")

    attempts = counts.get("identities.adaptive_attempts", 0)
    lookups = counts.get("identities.cache_hits", 0) + counts.get("identities.cache_misses", 0)
    m = {}
    for k in ("log_qpoch_inf", "lambert_sum"):
        layer = "qseries." + k
        m[layer + ".calls"] = (t(layer, "calls"), "count")
        m[layer + ".share"] = share(layer)
        m[layer + ".terms"] = count(layer + ".terms")
        m[layer + ".terms_rate"] = rate(layer)
    wpl = "qseries.weighted_product_log"
    m[wpl + ".calls"] = (t(wpl, "calls"), "count")
    m[wpl + ".self_share"] = share(wpl, "self_s")
    m[wpl + ".outer_terms"] = count(wpl + ".terms")
    qid = "qseries.qpoch_inf_direct"
    m[qid + ".calls"] = (t(qid, "calls"), "count")
    m[qid + ".share"] = share(qid)
    m[qid + ".terms"] = count(qid + ".terms")
    m["identities.adaptive_attempts"] = (attempts, "count")
    m["identities.adaptive_useful_ratio"] = (
        counts.get("identities.adaptive_useful", 0) / attempts if attempts else 1.0, "ratio")
    m["identities.wasted_terms"] = count("identities.wasted_terms")
    m["identities.get_table_calls"] = (t("identities.get_table", "calls"), "count")
    m["identities.cache_hit_ratio"] = (
        counts.get("identities.cache_hits", 0) / lookups if lookups else 0.0, "ratio")
    m["identities.cache_tables"] = (cache.get("identities.cache_tables", 0), "count")
    m["identities.cache_entries"] = (cache.get("identities.cache_entries", 0), "count")
    m["arith.build_calls"] = (t("arith.build", "calls"), "count")
    m["arith.build_share"] = share("arith.build")
    m["arith.entries_built"] = count("arith.entries_built")
    m["identities.self_share"] = (sum(t(layer, "self_s") for layer in (
        "identities.op", "identities.adaptive", "identities.get_table")) / busy, "ratio")
    m["identities.target_share"] = share("identities.target")
    m["numerics.extrapolate.calls"] = (t("numerics.extrapolate", "calls"), "count")
    m["numerics.extrapolate.share"] = share("numerics.extrapolate")
    m["cli.self_share"] = share("cli.main", "self_s")
    m["cli.bytes_out"] = (traced["bytes_out"], "bytes")
    m["trace.overhead_frac"] = (busy / untraced["busy_s"] - 1, "ratio")
    return m


def failures(record):
    return [{"op": o["op"], "reason": o["reason"]} for o in record["ops"] if not o["ok"]]


def emit(comment, result):
    for key, value in comment.items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lambertq" / "__init__.py").is_file():
        print(f"benchmark: no lambertq sources under {SRC}; run from the root "
              "of a lambertq checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    # byte-compile the library as an install would, so that no timed process
    # compiles it, whether or not the environment lets Python cache bytecode
    compileall.compile_dir(str(SRC / "lambertq"), quiet=1)
    env = library_env()
    comment = {"environment": environment(), "calibration_s": calibrate()}
    if args.trace:
        n = workloads.TRACE_OPS[args.workload]
        untraced = run_worker(env, deadline, args.workload, args.seed, args.seconds, n, False)
        traced = run_worker(env, deadline, args.workload, args.seed, args.seconds, n, True)
        identical = all(a["digest"] == b["digest"]
                        for a, b in zip(untraced["ops"], traced["ops"]))
        records = (untraced, traced)
        metrics = per_layer(traced, untraced)
        comment["traced_ops"] = n
        comment["busy_s"] = {"untraced": untraced["busy_s"], "traced": traced["busy_s"]}
        comment["traced_outputs_identical"] = identical
    else:
        times = setup_times(env)
        rec = run_worker(env, deadline, args.workload, args.seed, args.seconds, None, False)
        times += setup_times(env)
        records = (rec,)
        metrics, extra = end_to_end(rec, statistics.median(times))
        comment.update(extra)
        identical = True
    last = records[-1]
    comment["mix"] = last["mix"]
    comment["failed_ops"] = failures(last)
    wrong = [o["op"] for r in records for o in r["ops"] if o["wrong"]]
    comment["wrong_outputs"] = wrong
    result = {
        "correct": not wrong and identical,
        "attempted": len(last["ops"]),
        "failed": len(comment["failed_ops"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    emit(comment, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
