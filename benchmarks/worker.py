"""Run one pass of a workload in a fresh process and print its record.

    PYTHONPATH=src python3 benchmarks/worker.py '{"workload": "verify-grid", "seed": 1,
                                   "seconds": 30, "ops": null, "trace": false}'

With ``ops`` null the pass issues whole rounds of the workload's stream and
stops where the ops' summed latency comes closest to ``seconds``; otherwise
it issues exactly the first ``ops`` ops of the stream.  The record (one JSON
line on stdout) holds every op's inputs, latency, verdict and an output
digest, the peak RSS of the process that ran the ops, and with ``trace`` the
per-layer totals.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from itertools import chain, islice
from pathlib import Path

from mpmath import mpc, mpf

from lambertq import identities, qseries

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent

# an op that runs longer than this counts as failed; a CLI op is killed then
DEADLINE_S = 20.0


def _grid_z(text):
    v = complex(text)
    return mpc(v) if v.imag else mpf(v.real)


def run_library_op(op):
    """verify / limit_check in this process: (latency, ok, wrong, reason,
    digest).  The clock runs only while the library call runs."""
    if op[0] == "verify":
        call = identities.verify
        args = (op[1], mpf(op[2]), _grid_z(op[3]))
    else:
        call, args = identities.limit_check, (op[1],)
    t0 = time.perf_counter()
    try:
        report = call(*args)
    except Exception as exc:  # any raised error fails the op
        return time.perf_counter() - t0, False, False, f"{type(exc).__name__}: {exc}", ""
    latency = time.perf_counter() - t0
    digest = json.dumps(report.to_json_dict(), sort_keys=True)
    if not report.passed:
        return latency, False, True, "report says FAIL", digest
    return latency, True, False, "", digest


def run_cli_op(argv, traced, layer_sink):
    """One cold CLI process: (latency, ok, wrong, reason, digest, stdout
    bytes).  The clock runs from the process's start to its exit; the output
    is checked after."""
    if traced:
        cmd = [sys.executable, str(HERE / "cli_child.py")]
    else:
        cmd = [sys.executable, "-m", "lambertq.cli"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + argv + ["--format", "json"],
                              capture_output=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, False, False, f"deadline {DEADLINE_S} s overrun", "", 0
    latency = time.perf_counter() - t0
    out = proc.stdout.decode()
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if traced:
        err_lines = proc.stderr.decode().splitlines()
        if err_lines and err_lines[-1].startswith(spans.TRACE_MARK):
            layer_sink.append(json.loads(err_lines[-1][len(spans.TRACE_MARK):]))
    if proc.returncode != 0:
        wrong = proc.returncode == 1  # a verification that says FAIL
        return latency, False, wrong, f"exit code {proc.returncode}", digest, len(proc.stdout)
    problem = checks.check_cli_output(argv, out)
    if problem:
        return latency, False, True, problem, digest, len(proc.stdout)
    return latency, True, False, "", digest, len(proc.stdout)


def run_op(op, traced, child_layers):
    """Issue one op; return its result entry and its stdout bytes."""
    nbytes = 0
    if op[0] == "cli":
        latency, ok, wrong, reason, digest, nbytes = run_cli_op(op[1], traced, child_layers)
    else:
        latency, ok, wrong, reason, digest = run_library_op(op)
        if ok and latency > DEADLINE_S:
            ok, reason = False, f"deadline {DEADLINE_S} s overrun"
    entry = {"op": op[1] if op[0] == "cli" else list(op[1:]),
             "latency_s": latency, "ok": ok, "wrong": wrong,
             "reason": reason, "digest": digest}
    return entry, nbytes


def main():
    cfg = json.loads(sys.argv[1])
    workload, traced = cfg["workload"], cfg["trace"]
    stream = workloads.STREAMS[workload](cfg["seed"], identities)
    tracer = None
    if traced and workload != "cli-near1":
        tracer = spans.Tracer()
        spans.install(tracer, identities, qseries)
    if cfg["ops"] is None:
        rounds = stream
    else:
        rounds = [list(islice(chain.from_iterable(stream), cfg["ops"]))]
    child_layers = []
    ops, results = [], []
    busy = 0.0
    bytes_out = 0
    for n_rounds, todo in enumerate(rounds):
        # stop unless another round of average length ends nearer the target
        if cfg["ops"] is None and n_rounds and busy * (1 + 0.5 / n_rounds) >= cfg["seconds"]:
            break
        for op in todo:
            ops.append(op)
            entry, nbytes = run_op(op, traced, child_layers)
            results.append(entry)
            busy += entry["latency_s"]
            bytes_out += nbytes
    rss_who = resource.RUSAGE_CHILDREN if workload == "cli-near1" else resource.RUSAGE_SELF
    record = {
        "workload": workload,
        "busy_s": busy,
        "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024,
        "ops": results,
        "mix": workloads.mix_properties(workload, ops, identities),
        "bytes_out": bytes_out,
    }
    if traced:
        if tracer is not None:
            tracer.restore()
            child_layers = [spans.summary(tracer, identities)]
        record["layers"] = child_layers
    print(json.dumps(record))


if __name__ == "__main__":
    main()
