"""Catalog integrity, verification reports, and the limit engine."""

import ast
import hashlib
import json
from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpc

from lambertq import arith
from lambertq import identities as idmod
from lambertq.arith import build_table, gcd_sum_transform
from lambertq.identities import (
    UnknownIdError,
    catalog,
    hypothesis_check,
    limit_check,
    limit_lookup,
    limit_targets,
    lookup,
    verify,
    verify_all,
)
from lambertq.numerics import ConvergenceError, DomainError, precision, set_precision


@pytest.fixture(autouse=True)
def _fixed_precision():
    set_precision(128)
    yield
    set_precision(128)


# ---------------------------------------------------------------------------
# catalog integrity

def test_catalog_size_and_uniqueness():
    recs = catalog()
    ids = [r.id for r in recs]
    assert len(recs) >= 40
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)


# sha256 over every record's fields but its description, in catalog order;
# a record whose tables, weights or sign change moves it
_CATALOG_DIGEST = "c91a59e5105fd6e7eb4b35fc7a64036c2b4be083895dd2802094470ae2204101"


def test_catalog_matches_digest():
    h = hashlib.sha256()
    recs = catalog()
    for r in recs:
        fields = (r.id, r.kind, r.g_key, r.f_key, r.form, r.weight, r.f_weight,
                  r.rhs_sign, r.value_space, str(r.z_fixed), r.closed_rhs is not None,
                  r.exact_check.__name__ if r.exact_check else None)
        h.update(f"{fields!r}\n".encode())
    assert len(recs) == 85
    assert h.hexdigest() == _CATALOG_DIGEST


def test_lookup_errors():
    with pytest.raises(UnknownIdError, match="unknown identity id 'EQ99.1'"):
        lookup("EQ99.1")
    with pytest.raises(UnknownIdError, match="unknown limit id 'EQ99.1a'"):
        limit_lookup("EQ99.1a")
    for find in (lookup, limit_lookup):
        with pytest.raises(UnknownIdError, match="id None"):
            find(None)


def test_limit_targets_cover_both_kinds():
    recs = limit_targets()
    assert sum(1 for r in recs if r.verdict) >= 8
    assert sum(1 for r in recs if not r.verdict) >= 17


def test_catalog_leaves_the_fixed_point_format_to_qseries():
    # F = prec + _GUARD and the int kernels stay behind qseries' public names
    with open(idmod.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("mpmath.libmp") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            assert not (node.module or "").startswith("mpmath.libmp")
            assert not (node.module == "mpmath" and "libmp" in names)
            if node.module in ("qseries", "lambertq.qseries") or "qseries" in names:
                assert not [n for n in names if n.startswith("_")], names
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert not (node.value.id == "qseries" and node.attr.startswith("_"))


# ---------------------------------------------------------------------------
# single-record verification

SAMPLE_IDS = ["THM-2.2", "THM-2.3", "COR-2.7", "REM-2.9", "EQ3.1", "EQ3.7",
              "EQ3.13", "EQ3.23", "EQ3.29", "EQ3.33", "EQ3.39", "EQ3.43-k2"]


@pytest.mark.parametrize("id", SAMPLE_IDS)
def test_sample_records_pass_at_default_point(id):
    rep = verify(id, mpf("0.3"), 1)
    assert rep.passed, f"{id}: diff={rep.abs_diff} budget={rep.error_budget}"


def test_exact_records_have_zero_tolerance():
    for id in ("EQ2.6", "EQ2.12"):
        rep = verify(id)
        assert rep.passed and rep.error_budget == 0 and rep.abs_diff == 0


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_real_jordan_gcd_budget_scales_with_the_precision(bits):
    # the real-order gcd-sum check passes at every precision, with a counted
    # budget that falls with 2^-bits
    with precision(bits):
        rep = verify("EQ2.12-real")
        ja1 = build_table("jordan:1.5", 120)
        cap = mp.ldexp(max(ja1.values[1:]), 32 - bits)
        assert rep.passed and 0 < rep.error_budget <= cap


def test_complex_z_point():
    rep = verify("EQ3.11", mpf("0.5"), mpc(1, "0.5"))
    assert rep.passed


# every product record off the default grid, against its own Lambert or
# closed side: at z = 0.2+2.5i, q^z has a modulus near 1 and a large
# argument, so the first inner products are logged in pieces
@pytest.mark.parametrize("z", [mpc("0.57", "0.76"), mpc("0.2", "2.5")], ids=str)
@pytest.mark.parametrize("q", [mpf("0.3"), mpf("0.7")], ids=str)
def test_product_records_pass_off_the_grid(q, z):
    recs = [r for r in catalog() if r.kind == "qz" and r.z_fixed is None]
    assert len(recs) > 70
    failed = [(r.id, rep.abs_diff, rep.error_budget)
              for r in recs for rep in [verify(r.id, q, z)] if not rep.passed]
    assert not failed


def test_fixed_z_records_reject_other_z():
    with pytest.raises(DomainError):
        verify("INTRO-1", mpf("0.3"), 2)


@pytest.mark.parametrize("id, q, z", [("EQ2.12", None, 3), ("EQ2.6", mpf("0.5"), None),
                                      ("EQ2.12-real", mpf("0.3"), 1)])
def test_exact_records_reject_a_point(id, q, z):
    with pytest.raises(DomainError, match="takes no q or z"):
        verify(id, q, z)


def test_tolerance_scaling_coherence():
    # loosening tol must loosen the certified budget but not move the values
    # beyond it
    tight = verify("EQ3.23", mpf("0.5"), 1, tol=mpf("1e-25"))
    loose = verify("EQ3.23", mpf("0.5"), 1, tol=mpf("1e-12"))
    assert tight.passed and loose.passed
    assert tight.error_budget < loose.error_budget
    assert abs(tight.lhs_value - loose.lhs_value) <= loose.error_budget


def test_near_one_q_exhausts_term_budget():
    with pytest.raises(ConvergenceError):
        verify("THM-2.2", mpf("0.99"), 1, max_terms=2000)


def test_verify_is_deterministic():
    a = verify("EQ3.25", mpf("0.7"), 2)
    b = verify("EQ3.25", mpf("0.7"), 2)
    assert a.lhs_value == b.lhs_value and a.abs_diff == b.abs_diff


@pytest.mark.parametrize("id, keys, z", [
    ("EQ3.29", ("std:liouville", "issquare"), mpf(1)),
    ("EQ3.41", ("std:phi_abs_mu", "std:core_gamma"), mpc(1, "0.5")),
    ("INTRO-3", ("std:totient",), mpf(1)),
])
def test_verify_does_not_depend_on_cached_table_length(id, keys, z):
    for key in keys:
        idmod._table_cache.pop((key, mp.prec), None)
    cold = verify(id, mpf("0.7"), z).to_json_dict()
    for key in keys:
        idmod._table_cache.pop((key, mp.prec), None)
        assert idmod._get_table(key, 5000).N == 8192
    assert verify(id, mpf("0.7"), z).to_json_dict() == cold


def test_report_json_round_trip():
    rep = verify("EQ3.43-k2", mpf("0.3"), 1)
    blob = json.dumps(rep.to_json_dict())
    back = json.loads(blob)
    assert back["id"] == "EQ3.43-k2" and back["pass"] is True
    # numbers travel as decimal strings (complex as {"re","im"} pairs)
    assert isinstance(back["abs_diff"], str)
    float(back["abs_diff"])
    assert isinstance(back["lhs_value"], dict)
    float(back["lhs_value"]["re"])


def test_verify_all_reduced_grid():
    reports = verify_all(grid_q=("0.3",), grid_z=("1",))
    assert len(reports) >= 40
    bad = [r.id for r in reports if not r.passed]
    assert not bad, f"failing records: {bad}"
    ids = [(r.id, str(r.q), str(r.z)) for r in reports]
    assert ids == sorted(ids)


# ---------------------------------------------------------------------------
# limit engine (fast subset; the full sweep runs in the acceptance suite)

def test_limit_extrapolation_hits_closed_form():
    rep = limit_check("EQ3.1a")
    assert rep.passed and rep.mode == "extrapolation"
    assert rep.rel_err < mpf("1e-6")
    assert abs(rep.target_value - mp.exp(-1)) < mpf("1e-30")


def test_limit_alternating_form():
    rep = limit_check("EQ3.2a")
    assert rep.passed and rep.rel_err < mpf("1e-6")


def test_limit_divergence_escape():
    rep = limit_check("EQ3.12b-lim")
    assert rep.passed and rep.mode in ("escape", "trend")
    assert rep.estimate is None or rep.estimate != 0


def test_limit_failure_when_tolerance_is_unreachable():
    rep = limit_check("EQ3.13-1", limit_tol=mpf("1e-9"))
    assert not rep.passed


# records whose extrapolation error estimate covers |estimate - target|
# although rel_err is past 1e-9 (EQ3.23a by 3.0e-4): an error estimate is not
# a bound, so each passes at the default tolerance and fails at 1e-9
_COVERED_PAST_1E9 = ("EQ3.5a", "EQ3.7a", "EQ3.17a-k0.5", "EQ3.18a-k-0.5", "EQ3.23a",
                     "EQ3.30-1", "EQ3.43a-k2", "EQ3.43a-k3")


@pytest.mark.parametrize("id", _COVERED_PAST_1E9)
def test_limit_error_estimate_never_passes_a_missed_tolerance(id):
    rep = limit_check(id, limit_tol=mpf("1e-9"))
    assert abs(rep.estimate - rep.target_value) <= rep.err_estimate
    assert mpf("1e-9") < rep.rel_err <= idmod.DEFAULT_LIMIT_TOL
    assert not rep.passed and rep.mode == "extrapolation"


@pytest.mark.parametrize("limit_tol", ["-1", "0", "nan", "inf"])
def test_limit_tol_must_be_positive_and_finite(monkeypatch, limit_tol):
    with pytest.raises(DomainError, match="limit_tol"):
        limit_check("EQ3.1a", limit_tol)
    # limit_check_all rejects the argument before it checks any record
    monkeypatch.setattr(idmod, "limit_check", None)
    with pytest.raises(DomainError, match="limit_tol"):
        idmod.limit_check_all(limit_tol)


@pytest.mark.parametrize("id", ["EQ3.30-1", "EQ3.32-1-v4"])
def test_limit_ladder_builds_its_table_once(monkeypatch, id):
    rec = limit_lookup(id)
    idmod._table_cache.pop((rec.f_key, mp.prec), None)
    builds, orig = [], idmod._build_named

    def counting(key, N):
        builds.append((key, N))
        return orig(key, N)

    monkeypatch.setattr(idmod, "_build_named", counting)
    rep = limit_check(id)
    assert rep.passed and rep.mode == "extrapolation"
    # a 1-entry table, which carries the growth bound and sums nothing, then
    # one table sized from N* for the whole ladder, not one per doubling of
    # N* along it
    assert [key for key, _ in builds] == [rec.f_key] * 2
    N = builds[1][1]
    assert builds[0][1] == 1 and N >= idmod._TABLE_START_N and N & (N - 1) == 0
    assert idmod._table_cache[(rec.f_key, mp.prec)].N == N


def test_limit_report_schema():
    rep = limit_check("EQ3.31-1-v6")
    d = rep.to_json_dict()
    assert set(d) == {"id", "q_grid", "raw_values", "estimate", "target_value",
                      "rel_err", "err_estimate", "pass", "mode", "note"}
    assert len(d["q_grid"]) == len(d["raw_values"]) >= 3


def _json_keys(report):
    return ["pass" if k == "passed" else k for k in report._fields]


def test_report_json_keys_follow_field_order(monkeypatch):
    exact = verify("EQ2.6")
    assert list(exact.to_json_dict()) == _json_keys(exact)
    assert exact.to_json_dict()["q"] is None and exact.to_json_dict()["pass"] is True

    failed = next(r for r in verify_all(grid_q=("0.7",), grid_z=("1+0.5j",), max_terms=20)
                  if not r.passed)
    d = failed.to_json_dict()
    assert list(d) == _json_keys(failed)
    assert d["lhs_value"] is None and d["terms_used"] == 0
    assert d["z"] == {"re": "1.0", "im": "0.5"} and d["note"].startswith("ConvergenceError")

    rec = limit_targets()[0]

    def fails(id, limit_tol):
        raise ConvergenceError("no limit")

    monkeypatch.setattr(idmod, "limit_targets", lambda: [rec])
    monkeypatch.setattr(idmod, "limit_check", fails)
    (err,) = idmod.limit_check_all()
    d = err.to_json_dict()
    assert list(d) == _json_keys(err)
    assert d["mode"] == "error" and d["q_grid"] == [] and d["estimate"] is None
    assert d["note"] == "ConvergenceError: no limit"


def test_verify_all_parses_z_at_the_working_precision():
    # a decimal z is read at the working precision, not rounded to a double
    reps = [r for r in verify_all(grid_q=("0.3",), grid_z=("0.3",)) if r.z is not None]
    assert reps and all(r.z == mpf("0.3") and isinstance(r.z, mpf) for r in reps)
    assert {r.to_json_dict()["z"] for r in reps} == {"0.3"}
    reps = [r for r in verify_all(grid_q=("0.3",), grid_z=("0.3+0.2j", "2+0j"))
            if r.z is not None]
    assert {r.z for r in reps} == {mpc("0.3", "0.2"), mpf(2)}
    assert all(isinstance(r.z, mpf) for r in reps if r.z == 2)


@pytest.mark.parametrize("id,expect_nonneg", [
    ("EQ3.23a", True),    # d(n^2) >= 0
    ("EQ3.25a", True),    # d(n)^2 >= 0
    ("EQ3.3a", False),    # (-1)^omega changes sign
])
def test_hypothesis_check(id, expect_nonneg):
    out = hypothesis_check(id, N=500)
    assert out["nonnegative"] is expect_nonneg
    assert mp.isfinite(out["sup_ratio"])


def test_hypothesis_checks_growth_condition_scale():
    # f(n) = d(n^2) satisfies f(n) log^2(n+1)/n bounded on the sampled range
    out = hypothesis_check("EQ3.23a", N=2000)
    assert out["sup_ratio"] < 50


# ---------------------------------------------------------------------------
# the named tables behind the catalog and the limit records

def _record_table_keys():
    keys = {k for r in catalog() for k in (r.g_key, r.f_key)}
    keys |= {r.f_key for r in limit_targets()}
    return sorted(k for k in keys if k and not k.startswith("__"))


def test_record_tables_satisfy_growth_certificates():
    keys = _record_table_keys()
    assert len(keys) == 75
    N = 1 << 10
    for key in keys:
        tab = idmod._build_named(key, N)
        assert tab.N == N
        for n in range(1, N + 1):
            assert tab.growth_holds(n), f"{key} growth fails at n={n}"


# growth certificates proved in a comment beside their rules, checked well
# past the 2^10 of the test above
@pytest.mark.parametrize("key", ["h_of_d", "f_muk:2", "f_muk:3"])
def test_growth_certificates_hold_to_two_to_the_15(key):
    N = 1 << 15
    tab = idmod._build_named(key, N)
    assert all(tab.growth_holds(n) for n in range(1, N + 1))


# the mu_k-family tables read w^omega(n) from a list of powers; every entry
# keeps the bits of the one product or power per entry it replaced
@pytest.mark.parametrize("bits", [64, 128, 256])
def test_mu_k_family_entries_keep_their_bits(bits):
    N = 1 << 12
    set_precision(bits)
    omega = build_table("omega", N).values
    mob = build_table("mobius", N).values
    for k in (2, 3):
        w = 1 + mp.expjpi(mpf(1) / k)
        old = arith.multiplicative(N, lambda p, a: w, mpc(1))
        new = idmod._build_named(f"f_muk:{k}", N).values
        assert [v._mpc_ for v in new[1:]] == [v._mpc_ for v in old[1:]]
        root = mp.expjpi(mpf(1) / k)
        old = [root ** omega[n] if mob[n] else mpc(0) for n in range(1, N + 1)]
        new = build_table(f"mu_k:{k}", N).values
        assert [v._mpc_ for v in new[1:]] == [v._mpc_ for v in old]


# sha256 over (type name, value) of every exact-valued record table at
# N = 2^12 and 128 bits, taken from the if-chain builders that the
# prime-power rules, divisor sums and pointwise maps replaced
_EXACT_TABLES_DIGEST = "51d38a8c430fe880649692fc21677bc0985ed4bd95b0a1f4a3094c1895244d11"


def test_exact_record_tables_match_digest():
    N = 1 << 12
    h = hashlib.sha256()
    n_exact = 0
    for key in _record_table_keys():
        tab = idmod._build_named(key, N)
        if tab.exact:
            n_exact += 1
            h.update(f"{key}\n".encode())
            for v in tab.values[1:N + 1]:
                h.update(f"{type(v).__name__} {v}\n".encode())
    assert n_exact == 65
    assert h.hexdigest() == _EXACT_TABLES_DIGEST


# every table a sigma, jordan, mu_k, pow or f_muk rule or h_transform builds:
# the record and limit keys, README's spec examples, the sieve specs of the
# CLI benchmark and each rule over integer, negative and fractional
# parameters
_RULE_TABLE_KEYS = sorted(set(_record_table_keys()) | {
    f"std:{spec}" for spec in (
        "mobius", "totient", "divisor_d", "liouville", "mangoldt", "r2", "r4",
        "ramanujan:6", "sigma:-1", "mu_k:2",
        *(f"sigma:{s}" for s in (0, 1, 2, 3, -1, -2, 0.5, -0.5, 1.5)),
        *(f"jordan:{k}" for k in (0, 1, 2, 3, 0.5, 1.5, 2.5)),
        *(f"mu_k:{k}" for k in (1, 2, 3, 6)))
} | {f"f_muk:{k}" for k in (1, 2, 3, 6)}
  | {f"pow:{a}" for a in (1, 2, 3, -1, -2, 0.5, -0.5)})
_H_TRANSFORM_SPECS = ("divisor_d", "jordan:0.5", "sigma:-1", "mangoldt")

# sha256 over (key, type name, exact bits) of entries 1..2^12 of each table
# above, per precision, taken from the exact/inexact builders that the one
# rule per table replaced
_RULE_TABLES_DIGESTS = {
    64: "37c30a07a21e977e86a2287cd435db29f6d3142f4297f19ae801e3a9fa768b1c",
    128: "e14ab1768e9b5aacf6a1ba91a901c450bae9b0afab7273a3b2309b438a2ea2b6",
    256: "aa6243ac109440b54069e9ee81380d5d698cf806b656891d630c8156663f9f23",
}


def _exact_bits(v):
    return getattr(v, "_mpc_", None) or getattr(v, "_mpf_", None) or v


@pytest.mark.parametrize("bits", sorted(_RULE_TABLES_DIGESTS))
def test_rule_tables_keep_their_bits(bits):
    N = 1 << 12
    set_precision(bits)
    tables = [(key, idmod._build_named(key, N)) for key in _RULE_TABLE_KEYS]
    tables += [(f"h_transform({spec})", arith.h_transform(build_table(spec, N)))
               for spec in _H_TRANSFORM_SPECS]
    h = hashlib.sha256()
    for key, tab in tables:
        h.update(f"{key}\n".encode())
        for v in tab.values[1:N + 1]:
            h.update(f"{type(v).__name__} {_exact_bits(v)}\n".encode())
    assert h.hexdigest() == _RULE_TABLES_DIGESTS[bits]


def test_gcdsum_mu_matches_literal_gcd_sum():
    N = 300
    mob = build_table("mobius", N)
    tab = idmod._build_named("gcdsum_mu", N)
    for n in range(1, N + 1):
        assert tab[n] == Fraction(gcd_sum_transform(mob, n), n)
