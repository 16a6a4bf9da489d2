"""Catalog integrity, verification reports, and the limit engine."""

import hashlib
import json
from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpc

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
from lambertq.numerics import ConvergenceError, DomainError, set_precision


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


def test_lookup_errors():
    with pytest.raises(UnknownIdError):
        lookup("EQ99.1")
    with pytest.raises(UnknownIdError):
        limit_lookup("EQ99.1a")


def test_limit_targets_cover_both_kinds():
    recs = limit_targets()
    assert sum(1 for r in recs if r.verdict) >= 8
    assert sum(1 for r in recs if not r.verdict) >= 17


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


def test_complex_z_point():
    rep = verify("EQ3.11", mpf("0.5"), mpc(1, "0.5"))
    assert rep.passed


def test_fixed_z_records_reject_other_z():
    with pytest.raises(DomainError):
        verify("INTRO-1", mpf("0.3"), 2)


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


def test_limit_report_schema():
    rep = limit_check("EQ3.31-1-v6")
    d = rep.to_json_dict()
    assert set(d) == {"id", "q_grid", "raw_values", "estimate", "target_value",
                      "rel_err", "err_estimate", "pass", "mode", "note"}
    assert len(d["q_grid"]) == len(d["raw_values"]) >= 3


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


def test_gcdsum_mu_matches_literal_gcd_sum():
    N = 300
    mob = build_table("mobius", N)
    tab = idmod._build_named("gcdsum_mu", N)
    for n in range(1, N + 1):
        assert tab[n] == Fraction(gcd_sum_transform(mob, n), n)
