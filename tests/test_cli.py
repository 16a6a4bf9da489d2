"""Exit-code contract, output formats, and determinism of the CLI."""

import json
import os
import subprocess
import sys
import time

import pytest

from lambertq import cli
from lambertq.cli import SIEVE_MAX_N, main
from lambertq.numerics import set_precision


@pytest.fixture(autouse=True)
def _fixed_precision():
    set_precision(128)
    yield
    set_precision(128)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# sieve

def test_sieve_mobius(capsys):
    code, out, _ = run(capsys, "sieve", "mobius", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    assert [l.split(",")[1] for l in lines[1:]] == \
        ["1", "-1", "-1", "0", "-1", "1", "-1", "0", "0", "1"]


def test_sieve_jordan(capsys):
    code, out, _ = run(capsys, "sieve", "jordan:2", "5")
    assert code == 0
    assert [l.split(",")[1] for l in out.strip().splitlines()[1:]] == \
        ["1", "3", "8", "12", "24"]


@pytest.mark.parametrize("N", ["0", "-3", str(SIEVE_MAX_N + 1)])
def test_sieve_N_out_of_range_exits_4(capsys, monkeypatch, N):
    # rejected before any table is built or allocated
    monkeypatch.setattr(cli, "build_table", None)
    code, out, err = run(capsys, "sieve", "mobius", N)
    assert code == 4 and out == "" and f"N must be in [1, {SIEVE_MAX_N}]" in err


def test_sieve_unknown_spec_exits_2(capsys):
    code, _, err = run(capsys, "sieve", "bogus", "5")
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize("argv", [("sieve", "sigma:nan", "3"),
                                  ("sieve", "sigma:inf", "3"),
                                  ("sieve", "jordan:1e400", "3"),
                                  ("eval", "lambert", "--f", "sigma:nan")])
def test_non_finite_spec_parameter_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "parse error" in err


def test_sieve_to_file(tmp_path, capsys):
    path = tmp_path / "mu.csv"
    code, out, _ = run(capsys, "sieve", "mobius", "4", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[0] == "n,value"


# ---------------------------------------------------------------------------
# eval

def test_eval_lambert_mobius(capsys):
    code, out, _ = run(capsys, "eval", "lambert", "--f", "mobius",
                       "--weight", "plain", "--kernel", "minus",
                       "--q", "0.3", "--z", "1", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert abs(float(rec["value"]) - 0.3) < 1e-20
    assert float(rec["err_bound"]) < 1e-24
    assert int(rec["terms_used"]) > 0


def test_eval_qpoch_at_zero(capsys):
    code, out, _ = run(capsys, "eval", "qpoch", "--z", "0", "--q", "0.5",
                       "--format", "json")
    assert code == 0
    assert float(json.loads(out)["value"]) == 1.0


def test_eval_product_reports_exponential(capsys):
    code, out, _ = run(capsys, "eval", "product", "--g", "mobius",
                       "--q", "0.3", "--z", "1", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    # prod (1-q^(nz))^(mu/n) = exp(-q^z/... ); just check coherence
    import math
    assert abs(math.exp(float(rec["value"])) - float(rec["product"])) < 1e-12


def test_eval_domain_error_exits_4(capsys):
    code, _, err = run(capsys, "eval", "lambert", "--q", "1.2", "--f", "mobius")
    assert code == 4 and "domain" in err


@pytest.mark.parametrize("cmd", [("eval", "lambert", "--f", "mobius"),
                                 ("eval", "product", "--g", "mobius"),
                                 ("verify", "EQ3.29")])
@pytest.mark.parametrize("point", [("--z", "inf"), ("--z", "1+infj"), ("--z", "inf+1j"),
                                   ("--z", "nan"), ("--q", "inf"), ("--q", "nan")])
def test_non_finite_point_exits_4(capsys, cmd, point):
    argv = cmd + ("--q", "0.5", "--z", "1")
    code, out, err = run(capsys, *argv, *point)
    assert code == 4 and "domain" in err and out == ""


@pytest.mark.parametrize("max_terms", ["0", "-5"])
def test_max_terms_below_one_exits_4(capsys, max_terms):
    code, _, err = run(capsys, "eval", "lambert", "--f", "mobius", "--q", "0.5",
                       "--max-terms", max_terms)
    assert code == 4 and "max_terms must be >= 1" in err


@pytest.mark.parametrize("tol", ["0", "-1e-30", "nan"])
def test_non_positive_tol_exits_4(capsys, tol):
    code, out, err = run(capsys, f"--tol={tol}", "eval", "lambert", "--f", "mobius")
    assert code == 4 and "tol must be positive" in err and out == ""


def test_eval_convergence_failure_exits_5(capsys):
    code, _, err = run(capsys, "eval", "lambert", "--f", "divisor_d",
                       "--q", "0.99", "--z", "1", "--max-terms", "50")
    assert code == 5 and "convergence" in err


def test_eval_qpoch_beyond_the_term_cap_exits_5_at_once(capsys):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "eval", "qpoch", "--q", "0.99999", "--z", "0.5")
    assert code == 5 and "needs J=" in err and "cap" in err
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("argv", [
    # q^Re z rounds to 1: no truncation point certifies
    ("eval", "lambert", "--q", "0.5", "--z", "1e-50"),
    ("eval", "product", "--g", "mobius", "--q", "0.5", "--z", "1e-50"),
    ("eval", "product", "--g", "mobius", "--q", "0.5", "--z", "1e-50+1j"),
    # past max_terms, and past the table cap
    ("eval", "product", "--g", "mobius", "--q", "0.5", "--z", "1e-30"),
    ("eval", "lambert", "--f", "one", "--q", "0.99999"),
    ("eval", "lambert", "--f", "mobius", "--q", "0.9999"),
])
def test_eval_past_the_certified_range_exits_5_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 5 and "needs N*=" in err
    assert time.perf_counter() - t0 < 2


def test_eval_product_at_large_z_returns_at_once(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "eval", "product", "--g", "mobius",
                       "--q", "0.5", "--z", "1e9")
    assert code == 0 and out
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("argv", [
    ("eval", "lambert", "--q", "abc"),
    ("eval", "lambert", "--q", "0.5+1j"),
    ("verify", "EQ3.1", "--q", "0.5+1j"),
    ("--tol", "abc", "eval", "lambert"),
    ("limit", "EQ3.1a", "--limit-tol", "abc"),
    ("eval", "lambert", "--z", "abc"),
    ("eval", "eta", "--tau", "abc"),
])
def test_unparseable_number_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "parse error" in err


def test_eval_bad_function_exits_2(capsys):
    code, _, _ = run(capsys, "eval", "lambert", "--f", "nope", "--q", "0.3")
    assert code == 2


# ---------------------------------------------------------------------------
# verify / limit

def test_verify_single_record(capsys):
    code, out, _ = run(capsys, "verify", "EQ3.29", "--q", "0.5", "--z", "1")
    assert code == 0 and "[PASS] EQ3.29" in out


def test_verify_unknown_id_exits_2(capsys):
    code, _, err = run(capsys, "verify", "UNKNOWN")
    assert code == 2 and "unknown" in err.lower()


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "THM-2.2", "--q", "0.3", "--z", "2",
                       "--format", "json")
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 1 and recs[0]["pass"] is True
    for key in ("id", "q", "z", "lhs_value", "rhs_value", "abs_diff",
                "error_budget", "pass", "terms_used", "note"):
        assert key in recs[0]
    assert "tol_slack" not in recs[0]


def test_verify_csv_header(capsys):
    code, out, _ = run(capsys, "verify", "EQ3.1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("id,q,z,lhs_value")


def test_verify_fixed_z_conflict_exits_4(capsys):
    code, _, _ = run(capsys, "verify", "INTRO-1", "--q", "0.3", "--z", "2")
    assert code == 4


def test_limit_single_record(capsys):
    code, out, _ = run(capsys, "limit", "EQ3.1a", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["pass"] is True
    assert abs(float(rec["estimate"]) - 0.36787944117144233) < 1e-6


def test_limit_failure_exits_1(capsys):
    code, out, _ = run(capsys, "limit", "EQ3.13-1", "--limit-tol", "1e-9",
                       "--format", "json")
    assert code == 1
    assert json.loads(out)[0]["pass"] is False


def test_limit_divergent_verdict(capsys):
    code, out, _ = run(capsys, "limit", "EQ3.12b-lim", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["mode"] in ("escape", "trend")


# ---------------------------------------------------------------------------
# determinism and global flags

def test_repeated_runs_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "EQ3.23", "--q", "0.7",
                           "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_global_flags_accepted_before_and_after_subcommand(capsys):
    _, a, _ = run(capsys, "--format", "csv", "sieve", "mobius", "3")
    _, b, _ = run(capsys, "sieve", "mobius", "3", "--format", "csv")
    assert a == b


def test_precision_flag_changes_reported_digits(capsys):
    _, lo, _ = run(capsys, "--precision", "64", "eval", "qpoch",
                   "--z", "0.5", "--q", "0.5", "--format", "json")
    _, hi, _ = run(capsys, "--precision", "192", "eval", "qpoch",
                   "--z", "0.5", "--q", "0.5", "--format", "json")
    assert len(json.loads(hi)["value"]) > len(json.loads(lo)["value"])


def test_precision_below_floor_exits_4(capsys):
    code, _, _ = run(capsys, "--precision", "20", "sieve", "mobius", "3")
    assert code == 4


# ---------------------------------------------------------------------------
# cold start

_COLD = """
import contextlib, io, sys
from lambertq import cli
argvs = [
    ["eval", "qpoch", "--z", "0.5", "--q", "0.9", "--format", "json"],
    ["eval", "lambert", "--f", "mobius", "--q", "0.9", "--format", "json"],
    ["sieve", "totient", "64"],
    ["sieve", "sigma:0.5", "8"],
    ["verify", "EQ3.29", "--q", "0.5", "--z", "0.5"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(a) for a in argvs]
before = sorted(m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize")
                if m in sys.modules)
import dataclasses, lambertq
from lambertq import identities
identities.limit_targets()
print(codes, before, dataclasses.is_dataclass(lambertq.LimitTarget),
      lambertq.LimitTarget is identities.LimitTarget)
"""


def test_cold_cli_process_never_imports_dataclasses():
    # a fresh interpreter: pytest itself has imported all of these
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _COLD], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[0,", "0,", "0,", "0,", "0]", "[]", "True", "True"]
