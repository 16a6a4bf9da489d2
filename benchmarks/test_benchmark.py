"""Self-test of the benchmark harness.

    python3 -m pytest benchmarks/test_benchmark.py

Checks that traced runs are reproducible and change nothing: two traced
passes with one seed give identical per-layer counts, and their outputs are
value-identical to an untraced pass.
"""

import json
import os
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ENV = run.library_env()
sys.path.insert(0, str(run.SRC))


def _worker(workload, seed, ops, traced):
    cfg = {"workload": workload, "seed": seed, "seconds": 0, "ops": ops,
           "trace": traced}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                          env=ENV, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _is_count(name):
    return (name.endswith((".calls", ".terms", "_terms", "_attempts"))
            or name.startswith("identities.cache_")
            or name in ("arith.entries_built", "identities.adaptive_useful_ratio"))


# the first ops of each stream, kept cheap: light limit records, and the
# q = 0.9 CLI slots
@pytest.mark.parametrize("workload, ops", [
    ("verify-grid", 32), ("limit-near1", 2), ("cli-near1", 4)])
def test_traced_runs_repeat_and_change_nothing(workload, ops):
    plain = _worker(workload, 7, ops, False)
    first = _worker(workload, 7, ops, True)
    second = _worker(workload, 7, ops, True)
    for rec in (plain, first, second):
        assert all(o["ok"] for o in rec["ops"]), rec["ops"]
    digests = [o["digest"] for o in plain["ops"]]
    assert [o["digest"] for o in first["ops"]] == digests
    assert [o["digest"] for o in second["ops"]] == digests
    a = run.per_layer(first, plain)
    b = run.per_layer(second, plain)
    counts = sorted(k for k in a if _is_count(k))
    assert "arith.entries_built" in counts and "identities.wasted_terms" in counts
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_streams_are_seeded_and_stratified():
    from lambertq import identities

    for name, stream in workloads.STREAMS.items():
        one = list(islice(stream(3, identities), 40))
        assert one == list(islice(stream(3, identities), 40)), name
        assert one != list(islice(stream(4, identities), 40)), name
    assert len(next(workloads.cli_near1(5, identities))) == workloads.CLI_ROUND_OPS
    grid = list(islice(workloads.verify_grid(5, identities), 16 * 4))
    for r in range(4):
        cells = {(op[2], op[3]) for op in grid[16 * r:16 * (r + 1)]}
        assert len(cells) == 16


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
