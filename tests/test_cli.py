"""Exit-code contract, output formats, and determinism of the CLI."""

import csv
import gc
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import time

import pytest
from mpmath import mp, mpf

from lambertq import cli, identities
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
                                  ("sieve", "jordan:-1", "3"),
                                  ("eval", "lambert", "--f", "sigma:nan"),
                                  *(("sieve", spec, "4") for spec in (
                                      "divides:0", "f_muk:0", "pow:nan", "jk_over_pow:1.5",
                                      "log_n:2", "custom:x"))])
def test_non_finite_spec_parameter_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "parse error" in err


def test_sieve_of_catalog_tables(capsys):
    code, out, _ = run(capsys, "sieve", "log_n", "4")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    assert [n for n, _ in rows] == ["1", "2", "3", "4"]
    assert rows[0][1] == "0.0" and rows[1][1].startswith("0.693147180559945309")
    code, out, _ = run(capsys, "sieve", "pow:-1", "4")
    assert code == 0
    assert [l.split(",")[1] for l in out.strip().splitlines()[1:]] == \
        ["1.0", "0.5", mp.nstr(mpf(1) / 3, mp.dps), "0.25"]


def test_sieve_entry_past_the_digit_limit_exits_3(capsys):
    # 2^20000 has 6021 digits, past Python's integer-to-string limit
    code, out, err = run(capsys, "sieve", "sigma:20000", "2")
    assert code == 3 and out == ""
    assert err.startswith("lambertq: overflow:") and err.count("\n") == 1


def test_every_record_table_is_a_spec(capsys):
    keys = {k for r in identities.catalog() for k in (r.g_key, r.f_key)}
    keys |= {r.f_key for r in identities.limit_targets()}
    specs = sorted(k.removeprefix("std:") for k in keys if k and not k.startswith("__"))
    assert len(specs) == 75
    for spec in specs:
        for argv in (("sieve", spec, "4"),
                     ("eval", "lambert", "--f", spec, "--q", "0.1"),
                     ("eval", "product", "--g", spec, "--q", "0.1")):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)


def test_sieve_to_file(tmp_path, capsys):
    path = tmp_path / "mu.csv"
    code, out, _ = run(capsys, "sieve", "mobius", "4", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[0] == "n,value"


@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_sieve_to_an_unwritable_path_exits_2(tmp_path, capsys, where):
    # a path in no directory, and a directory: one line naming it, no traceback
    path = str(tmp_path / where)
    code, out, err = run(capsys, "sieve", "mobius", "4", "--out", path)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("lambertq: ") and path in err


# every value type of the text output (int, Fraction, mpf, mpc, None, bool)
# in every format, from the one text rule: sha256 of the concatenated stdout
_TEXT_PIN_ARGV = (
    ("eval", "lambert", "--f", "mu_k:2", "--q", "0.5", "--z", "1+0.5j"),
    ("eval", "product", "--g", "totient", "--q", "0.5", "--z", "1"),
    ("eval", "qpoch", "--q", "0.5", "--z", "0.3+0.2j"),
    ("eval", "eta", "--tau", "1j"),
    ("verify", "EQ3.44-k2", "--q", "0.5", "--z", "1+0.5j"),
    ("verify", "EQ2.6"),
    ("limit", "EQ3.6-lim"),
)
_TEXT_PIN_SIEVES = ("mobius", "phi_over_n", "log_n", "mu_k:2", "sigma:-1", "h_of_d")
_TEXT_PIN = (14715, "fbf3b6fa825b3cb9bd4aa04d7bee9ffdd2af06dcad3806c15256005dad2880e5")


def test_value_text_is_pinned(capsys):
    argvs = [(*argv, "--format", fmt) for fmt in ("json", "csv", "human")
             for argv in _TEXT_PIN_ARGV]
    argvs += [("sieve", spec, "64") for spec in _TEXT_PIN_SIEVES]
    text = "".join(run(capsys, *argv)[1] for argv in argvs).encode()
    assert (len(text), hashlib.sha256(text).hexdigest()) == _TEXT_PIN


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
                                 ("verify", "EQ3.29"),
                                 ("eval", "qpoch")])
@pytest.mark.parametrize("point", [("--z", "inf"), ("--z", "1+infj"), ("--z", "inf+1j"),
                                   ("--z", "nan"), ("--q", "inf"), ("--q", "nan"),
                                   ("--z", "1e400")])
def test_non_finite_point_exits_4(capsys, cmd, point):
    argv = cmd + ("--q", "0.5", "--z", "1")
    code, out, err = run(capsys, *argv, *point)
    assert code == 4 and "domain" in err and out == ""


@pytest.mark.parametrize("argv", [
    ("eval", "qpoch", "--q", "0.5", "--z", "-0.5+0.2j"),
    ("eval", "qpoch", "--q", "0.5", "--z", "-1e-3"),
    ("eval", "eta", "--tau", "-0.5+1j"),
    ("eval", "eta", "--tau", "-.5+1j"),
])
def test_negative_value_after_its_option_reads_as_the_equals_form(capsys, argv):
    *head, opt, value = argv
    joined = run(capsys, *head, f"{opt}={value}", "--format", "json")
    assert joined[0] == 0 and joined[2] == ""
    assert run(capsys, *argv, "--format", "json") == joined


def test_negative_z_to_lambert_is_a_domain_error(capsys):
    code, out, err = run(capsys, "eval", "lambert", "--q", "0.5", "--z", "-1e-3")
    assert code == 4 and "Re(z) must be positive, got -0.001" in err and out == ""
    assert "j" not in err


def test_only_a_token_after_an_option_is_joined():
    argv = ["verify", "-1e-3", "--z", "-1e-3", "--tol=-1", "-2", "--help", "-3", "--", "-4",
            "--q", "0.5", "sigma:-1"]
    assert cli._join_negative_values(argv) == [
        "verify", "-1e-3", "--z=-1e-3", "--tol=-1", "-2", "--help", "-3", "--", "-4",
        "--q", "0.5", "sigma:-1"]


@pytest.mark.parametrize("max_terms", ["0", "-5"])
def test_max_terms_below_one_exits_4(capsys, max_terms):
    code, _, err = run(capsys, "eval", "lambert", "--f", "mobius", "--q", "0.5",
                       "--max-terms", max_terms)
    assert code == 4 and "max_terms must be >= 1" in err


@pytest.mark.parametrize("tol", ["0", "-1e-30", "nan", "inf", "-inf"])
def test_non_positive_tol_exits_4(capsys, tol):
    code, out, err = run(capsys, f"--tol={tol}", "eval", "lambert", "--f", "mobius")
    assert code == 4 and "tol must be positive and finite" in err and out == ""


def test_huge_finite_tol_keeps_a_certified_budget(capsys):
    # a huge finite tol is accepted: each side sums one term, and the check
    # passes against the certified tail of those terms, which it reports
    code, out, _ = run(capsys, "--tol", "1e300", "verify", "EQ3.11", "--q", "0.5",
                       "--format", "json")
    (rec,) = json.loads(out)
    assert code == 0 and rec["pass"] and rec["terms_used"] == 2
    assert float(rec["abs_diff"]) <= float(rec["error_budget"]) < 10


def test_eval_convergence_failure_exits_5(capsys):
    code, _, err = run(capsys, "eval", "lambert", "--f", "divisor_d",
                       "--q", "0.99", "--z", "1", "--max-terms", "50")
    assert code == 5 and "convergence" in err


def test_eval_qpoch_beyond_the_term_cap_exits_5_at_once(capsys):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "eval", "qpoch", "--q", "0.99999", "--z", "0.5")
    assert code == 5 and "needs J=" in err and "cap" in err
    assert time.perf_counter() - t0 < 2


def test_eval_product_beyond_the_inner_term_cap_names_the_product(capsys):
    # q^z = 0.99999^100 needs some 10^7 factors in the first inner product
    t0 = time.perf_counter()
    code, _, err = run(capsys, "eval", "product", "--g", "mobius", "--q", "0.99999", "--z", "100")
    assert code == 5 and "weighted_product_log needs J=" in err and "cap" in err
    assert "log_qpoch_inf" not in err
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


@pytest.mark.parametrize("argv", [
    ("eval", "lambert", "--g", "mobius", "--q", "0.5", "--z", "1"),
    ("eval", "lambert", "--form", "B"),
    ("eval", "product", "--f", "mobius"),
    ("eval", "product", "--kernel", "plus"),
    ("eval", "qpoch", "--f", "mobius"),
    ("eval", "qpoch", "--weight", "plain"),
    ("eval", "qpoch", "--tau", "1j"),
    ("eval", "eta", "--q", "0.9"),
    ("eval", "eta", "--z", "5"),
    ("eval", "qpoch", "--f", "csv"),
    ("eval", "lambert", "--form", "csv"),
])
def test_eval_option_of_another_target_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and "error" in out.err and out.out == ""


def test_global_flags_accepted_around_the_eval_target(capsys):
    flags = ("--format", "json", "--precision", "64", "--tol", "1e-15")
    target = ("lambert", "--f", "mobius", "--q", "0.3")
    full = json.loads(run(capsys, "--format", "json", "eval", *target)[1])
    runs = [run(capsys, *flags, "eval", *target), run(capsys, "eval", *flags, *target),
            run(capsys, "eval", *target, *flags)]
    assert runs[0][0] == 0 and runs[0] == runs[1] == runs[2]
    short = json.loads(runs[0][1])  # at 64 bits and tol 1e-15
    assert int(short["terms_used"]) < int(full["terms_used"])
    assert len(short["value"]) < len(full["value"])


def test_eval_lambert_of_a_catalog_table_is_the_record_side(capsys):
    # EQ3.13's series side is minus the Lambert series of phi(n)/n
    code, out, _ = run(capsys, "eval", "lambert", "--f", "phi_over_n", "--q", "0.5",
                       "--z", "1", "--format", "json")
    assert code == 0
    rep = identities.verify("EQ3.13", q=mpf("0.5"), z=mpf(1))
    assert json.loads(out)["value"] == mp.nstr(-rep.rhs_value, mp.dps)
    assert json.loads(out)["value"].startswith("1.13090903449945092896")


def test_eval_bad_function_exits_2(capsys):
    code, _, _ = run(capsys, "eval", "lambert", "--f", "nope", "--q", "0.3")
    assert code == 2


# ---------------------------------------------------------------------------
# verify / limit

def test_verify_single_record(capsys):
    code, out, _ = run(capsys, "verify", "EQ3.29", "--q", "0.5", "--z", "1")
    assert code == 0 and "[PASS] EQ3.29" in out


def test_verify_defaults_to_the_second_grid_q(capsys):
    # verify ID with no --q runs at DEFAULT_GRID_Q[1] = 0.3
    code, out, _ = run(capsys, "verify", "EQ3.11", "--format", "json")
    rep = json.loads(out)[0]
    assert code == 0 and rep["q"] == "0.3" and rep["z"] == "1.0"


def test_verify_unknown_id_exits_2(capsys):
    code, _, err = run(capsys, "verify", "UNKNOWN")
    assert code == 2 and "unknown" in err.lower()


@pytest.mark.parametrize("point", [("--q", "0.9"), ("--z", "0.5"),
                                   ("--q", "0.9", "--z", "0.5")])
def test_verify_all_rejects_a_point(capsys, point):
    code, out, err = run(capsys, "verify", "all", *point)
    assert code == 2 and out == ""
    assert "parse error" in err and "--q" in err and "--z" in err


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "THM-2.2", "--q", "0.3", "--z", "2",
                       "--format", "json")
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 1 and recs[0]["pass"] is True
    for key in ("id", "q", "z", "lhs_value", "rhs_value", "abs_diff",
                "error_budget", "pass", "terms_used", "note"):
        assert key in recs[0]
    assert "tol_slack" not in recs[0] and "params" not in recs[0]


def test_verify_csv_header(capsys):
    code, out, _ = run(capsys, "verify", "EQ3.1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("id,q,z,lhs_value")


def test_verify_csv_quotes_the_exact_note(capsys):
    code, out, _ = run(capsys, "verify", "EQ2.6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].endswith(',"n<=200, g in (1, mu, phi, lambda)"')
    head, row = csv.reader(io.StringIO(out))
    rec = dict(zip(head, row))
    assert rec["q"] == rec["z"] == "" and rec["pass"] == "true"
    assert rec["note"] == "n<=200, g in (1, mu, phi, lambda)"


def test_verify_human_line(capsys):
    code, out, _ = run(capsys, "verify", "EQ3.1", "--q", "0.3", "--z", "1+0.5j")
    assert code == 0 and out.count("\n") == 1
    assert out.startswith("[PASS] EQ3.1: q=0.3 z=1.0+0.5j lhs_value=")
    assert " pass=true terms_used=" in out and "note=" not in out


def test_limit_csv_divergent_has_empty_targets(capsys):
    code, out, _ = run(capsys, "limit", "EQ3.12b-lim", "--format", "csv")
    assert code == 0
    head, row = csv.reader(io.StringIO(out))
    assert head == ["id", "estimate", "target_value", "rel_err", "err_estimate",
                    "pass", "mode", "note"]
    rec = dict(zip(head, row))
    assert rec["id"] == "EQ3.12b-lim" and rec["estimate"] != ""
    assert rec["target_value"] == rec["rel_err"] == rec["err_estimate"] == ""


def test_verify_fixed_z_conflict_exits_4(capsys):
    code, _, _ = run(capsys, "verify", "INTRO-1", "--q", "0.3", "--z", "2")
    assert code == 4


@pytest.mark.parametrize("point", [("--z", "3"), ("--q", "0.5"), ("--q", "0.3", "--z", "1")])
@pytest.mark.parametrize("id", ["EQ2.6", "EQ2.12"])
def test_verify_exact_record_at_a_point_exits_4(capsys, id, point):
    code, out, err = run(capsys, "verify", id, *point)
    assert code == 4 and "takes no q or z" in err and out == ""


@pytest.mark.parametrize("limit_tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("id", ["EQ3.1a", "EQ3.13-1", "all"])
def test_limit_tol_not_positive_finite_exits_4(capsys, id, limit_tol):
    code, out, err = run(capsys, "limit", id, f"--limit-tol={limit_tol}")
    assert code == 4 and "limit_tol must be positive and finite" in err and out == ""


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


def test_limit_passes_only_within_its_tolerance(capsys):
    # rel_err 7.7e-8: the extrapolation's error estimate covers it, but an
    # estimate is not a bound and passes nothing past --limit-tol
    code, out, _ = run(capsys, "limit", "EQ3.30-1", "--limit-tol", "1e-9", "--format", "json")
    (rec,) = json.loads(out)
    assert code == 1 and rec["pass"] is False and rec["mode"] == "extrapolation"
    assert 1e-9 < float(rec["rel_err"]) <= float(rec["err_estimate"])


def test_limit_tol_default_has_one_home():
    default = identities.DEFAULT_LIMIT_TOL
    assert cli.build_parser().parse_args(["limit", "all"]).limit_tol is default
    for fn in (identities.limit_check, identities.limit_check_all):
        assert inspect.signature(fn).parameters["limit_tol"].default is default


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
    ["verify", "EQ3.29", "--q", "0.5", "--z", "0.5", "--format", "json"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(a) for a in argvs]
before = sorted(m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv")
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
    assert out.split() == ["[0,", "0,", "0,", "0,", "0,", "0]", "[]", "True", "True"]


# one argv for each exit code the process can give
_PROCESS_ARGVS = [
    ["eval", "qpoch", "--z", "0.5", "--q", "0.5", "--format", "json"],
    ["limit", "EQ3.13-1", "--limit-tol", "1e-9"],
    ["verify", "all", "--q", "0.9", "--z", "0.5"],
    ["sieve", "mobius", "0"],
    ["eval", "lambert", "--f", "divisor_d", "--q", "0.99", "--z", "1", "--max-terms", "50"],
]


def test_process_entry_matches_in_process_main(capsys):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("LAMBERTQ_PRECISION_BITS", None)
    codes = []
    for argv in _PROCESS_ARGVS:
        proc = subprocess.run([sys.executable, "-m", "lambertq.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
        codes.append(proc.returncode)
    assert codes == [0, 1, 2, 4, 5]


@pytest.mark.parametrize("bits, code", [("abc", 2), ("20", 4), ("64", 0)])
def test_precision_env_is_the_cli_default(capsys, bits, code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = ["eval", "qpoch", "--q", "0.5", "--z", "0.5"]
    env = dict(os.environ, PYTHONPATH=src, LAMBERTQ_PRECISION_BITS=bits)
    proc = subprocess.run([sys.executable, "-m", "lambertq.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == code and "Traceback" not in proc.stderr
    if code:
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
    else:
        assert (0, proc.stdout, "") == run(capsys, "--precision", bits, *argv)


def test_precision_env_leaves_the_library_at_128_bits():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, LAMBERTQ_PRECISION_BITS="20")
    out = subprocess.run([sys.executable, "-c", "import lambertq, mpmath; print(mpmath.mp.prec)"],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out == "128\n"


def test_only_the_process_entry_freezes_the_collector(capsys):
    assert gc.get_freeze_count() == 0
    assert main(["sieve", "mobius", "3"]) == 0
    assert gc.get_freeze_count() == 0
    try:
        assert cli.run(["sieve", "mobius", "3"]) == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
