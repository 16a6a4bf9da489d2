"""Machine-checkable catalog of product/Lambert-series identities and q->1 limits.

Each catalog record pairs a weighted q-Pochhammer product (the "product side",
evaluated in log space) with a Lambert-type series (the "series side"), or an
exact arithmetic statement.  Verification compares both sides against the sum
of their certified error bounds.  Limit records evaluate the scaled exponent
on the grid q_j = 1 - 2^-j and extrapolate in x = 1 - q; divergent targets
are confirmed by threshold escape, with a monotone-trend certificate as the
fallback for slowly (logarithmically) divergent exponents, where no feasible
grid point can cross a fixed threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from mpmath import mp, mpf, mpc

from . import arith
from .arith import ArithTable, build_table, custom_table, h_transform
from .numerics import (
    ConvergenceError,
    DomainError,
    catalan,
    euler_gamma,
    glaisher,
    basis_extrapolate,
    richardson_extrapolate,
    zeta,
)
from .qseries import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    KernelForm,
    QPoint,
    SeriesValue,
    TableTooShortError,
    _poly_geom_tail,
    _truncation,
    lambert_sum,
    weighted_product_log,
)

__all__ = [
    "IdentityRecord",
    "IdentityReport",
    "LimitTarget",
    "LimitReport",
    "catalog",
    "lookup",
    "verify",
    "verify_all",
    "limit_targets",
    "limit_lookup",
    "limit_check",
    "limit_check_all",
    "hypothesis_check",
    "DEFAULT_GRID_Q",
    "DEFAULT_GRID_Z",
    "UnknownIdError",
]

DEFAULT_GRID_Q = ("0.1", "0.3", "0.5", "0.7")
DEFAULT_GRID_Z = ("1", "2", "0.5", "1+0.5j")

_TABLE_START_N = 512
_TABLE_CAP_N = 1 << 18

DIVERGES = "DivergesToInfinity"
TO_ZERO = "ConvergesToZero"


class UnknownIdError(KeyError):
    """No catalog record with the requested id."""


# ---------------------------------------------------------------------------
# table registry (one cached table per key, sized on demand)

_table_cache: dict = {}


def _pointwise(N, fn, *specs):
    """[fn(n, f1(n), f2(n), ...)] for n = 1..N over standard tables f1, f2, ...

    Slot 0 holds 0.
    """
    cols = [islice(build_table(spec, N).values, 1, None) for spec in specs]
    return [0] + list(map(fn, range(1, N + 1), *cols))


def _over_pow(N, spec, k):
    """f(n) / n^k in exact rationals."""
    return _pointwise(N, lambda n, v: Fraction(v, n**k), spec)


def _pow(N, arg):
    a = float(arg)
    if a != int(a):
        return _pointwise(N, lambda n: mpf(n) ** a), (1, max(a, 0.0))
    k = int(a)
    if k >= 0:
        return [n**k for n in range(N + 1)], (1, k)
    return _pointwise(N, lambda n: Fraction(1, n ** (-k))), (1, 0)


def _f_muk(N, arg):
    k = int(arg)
    if k == 1:  # (1 + e^(i pi))^omega(n) = [n = 1], kept exact
        return _pointwise(N, lambda n: int(n == 1)), (1, 0)
    w = 1 + mp.expjpi(mpf(1) / k)
    return arith.multiplicative(N, lambda p, a: w, mpc(1)), (2, 0.5)


def _j2k_ratio(N, arg):
    k = int(arg)
    vals = _pointwise(N, lambda n, jk, j2k: Fraction(j2k, n**k * jk),
                      f"jordan:{k}", f"jordan:{2 * k}")
    # J_2k/(n^k J_k) = prod (1 + p^-k) <= 2^omega(n) <= 2 sqrt(n)
    return vals, (2, 0.5)


# key name -> builder(N, arg) returning (values, growth); every table here
# is a pointwise map over standard tables, a divisor sum or a product over
# prime powers
_NAMED = {
    "id": lambda N, _: (list(range(N + 1)), (1, 1)),
    "unit_e": lambda N, _: (_pointwise(N, lambda n: int(n == 1)), (1, 0)),
    "log_n": lambda N, _: (_pointwise(N, mp.log), (2, 0.5)),
    "mu_log": lambda N, _: (_pointwise(N, lambda n, m: m * mp.log(n), "mobius"), (2, 0.5)),
    "two_pow_omega_mu": lambda N, _: (
        _pointwise(N, lambda n, m, w: m * w, "mobius", "two_pow_omega"), (2, 0.5)),
    "mu_over_n": lambda N, _: (_over_pow(N, "mobius", 1), (1, 0)),
    "phi_over_n": lambda N, _: (_over_pow(N, "totient", 1), (1, 0)),
    "mu2_over_phi": lambda N, _: (
        _pointwise(N, lambda n, m, t: Fraction(m, t), "mobius_abs", "totient"), (1, 0)),
    # n/phi(n) = prod p/(p-1) <= 2^omega(n) <= d(n) <= 2 sqrt(n)
    "n_over_phi": lambda N, _: (_pointwise(N, lambda n, t: Fraction(n, t), "totient"), (2, 0.5)),
    "pow": _pow,
    "mu_over_pow": lambda N, k: (_over_pow(N, "mobius", int(k)), (1, 0)),
    "absmu_over_pow": lambda N, k: (_over_pow(N, "mobius_abs", int(k)), (1, 0)),
    "jk_over_pow": lambda N, k: (_over_pow(N, f"jordan:{k}", int(k)), (1, 0)),
    "j2k_ratio": _j2k_ratio,
    "d_squared": lambda N, _: (_pointwise(N, lambda n, d: d**2, "divisor_d"), (4, 1)),
    "issquare": lambda N, _: (_pointwise(N, lambda n: int(math.isqrt(n) ** 2 == n)), (1, 0)),
    "divides": lambda N, v: (_pointwise(N, lambda n: n if int(v) % n == 0 else 0), (int(v), 0)),
    "neg4chi1": lambda N, _: (_pointwise(N, lambda n, c: -4 * c, "chi1"), (4, 0)),
    "neg_r2": lambda N, _: (_pointwise(N, lambda n, r: -r, "r2"), (8, 0.5)),
    "not_div4": lambda N, _: (_pointwise(N, lambda n: int(n % 4 != 0)), (1, 0)),
    "r4_over8": lambda N, _: (_pointwise(N, lambda n, r: r // 8, "r4"), (2, 1.5)),
    "odd_ind": lambda N, _: (_pointwise(N, lambda n: n % 2), (1, 0)),
    "odd_sigma": lambda N, _: (arith.divisor_sum(N, lambda d: d % 2 * d), (2, 1.5)),
    "signed_nsq": lambda N, _: (_pointwise(N, lambda n: (-1) ** (n + 1) * n * n), (1, 2)),
    "neg_signed_nsq": lambda N, _: (_pointwise(N, lambda n: (-1) ** n * n * n), (1, 2)),
    # sum_{d|n} (-1)^d d^3 = (-1)^n r8(n) / 16
    "signed_cube": lambda N, _: (_pointwise(N, lambda n, r: (-1) ** n * r // 16, "r8"), (2, 3)),
    "neg_signed_cube": lambda N, _: (
        _pointwise(N, lambda n, r: (-1) ** (n + 1) * r // 16, "r8"), (2, 3)),
    "mu_nsq": lambda N, _: (_pointwise(N, lambda n, m: m * n * n, "mobius"), (1, 2)),
    "prod1mp2": lambda N, _: (arith.multiplicative(N, lambda p, a: 1 - p * p), (1, 2)),
    "f_muk": _f_muk,
    "conv_one_d": lambda N, _: (
        arith.divisor_sum(N, build_table("divisor_d", N).values.__getitem__), (8, 1.5)),
    # sum_k gcd(n,k) mu(gcd(n,k)) = sum_{d|n} d mu(d) phi(n/d) = mu(n): the
    # first step is EQ2.6, the second the Dirichlet series 1/zeta(s-1) *
    # zeta(s-1)/zeta(s).  The growth bound is the one of the literal gcd sum.
    "gcdsum_mu": lambda N, _: (_over_pow(N, "mobius", 1), (2, 0.5)),
}


def _build_named(key: str, N: int) -> ArithTable:
    name, _, arg = key.partition(":")
    if name == "std":
        return build_table(arg, N)
    if name == "h_of_d":
        return h_transform(build_table("divisor_d", N))
    if name not in _NAMED:
        raise DomainError(f"unknown table key {key!r}")
    vals, growth = _NAMED[name](N, arg)
    return custom_table(key, vals, growth, exact=not isinstance(vals[1], (mpf, mpc)))


def _get_table(key: str, N: int) -> ArithTable:
    """The one cached table of ``key`` at this precision, rebuilt at the next
    power of two >= max(N, 512) when it is shorter than N."""
    ck = (key, mp.prec)
    tab = _table_cache.get(ck)
    if tab is None or tab.N < N:
        tab = _table_cache[ck] = _build_named(key, max(_TABLE_START_N, 1 << (N - 1).bit_length()))
    return tab


def _adaptive(eval_fn, start=_TABLE_START_N, cap=_TABLE_CAP_N):
    """eval_fn(N) on a table of length >= N; a TableTooShortError, raised
    before any term is summed, names the length to retry at, up to ``cap``."""
    try:
        return eval_fn(start)
    except TableTooShortError as exc:
        if exc.needed > cap:
            raise ConvergenceError(f"needs N*={exc.needed:.6g} > table cap {cap}") from None
        return eval_fn(exc.needed)


def _with_table(key: str, eval_fn):
    """eval_fn(table) on the cached table of ``key``, sized by _adaptive."""
    return _adaptive(lambda N: eval_fn(_get_table(key, N)))


# ---------------------------------------------------------------------------
# report types

@dataclass(frozen=True)
class IdentityRecord:
    """One catalog entry pairing two independently evaluated sides."""

    id: str
    description: str
    lhs_spec: str
    rhs_spec: str
    domain: str
    kind: str  # "qz" or "exact"
    g_key: str = ""
    f_key: str = ""
    form: str = "A"
    weight: str = "over_n"
    f_weight: str = ""  # series-side weight when it differs from the product side
    rhs_sign: int = -1
    closed_rhs: object = None  # callable(pt) -> value, used instead of f_key
    value_space: bool = False  # compare values instead of logs (intro records)
    z_fixed: object = None  # restrict to a single z (intro records)
    exact_check: object = None  # callable() -> (max_diff, budget, detail)


@dataclass
class IdentityReport:
    id: str
    q: object
    z: object
    params: dict
    lhs_value: object
    rhs_value: object
    abs_diff: object
    error_budget: object
    tol_slack: object
    passed: bool
    terms_used: int
    note: str = ""

    def to_json_dict(self):
        return {
            "id": self.id,
            "q": _dec(self.q),
            "z": _dec(self.z),
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "lhs_value": _dec(self.lhs_value),
            "rhs_value": _dec(self.rhs_value),
            "abs_diff": _dec(self.abs_diff),
            "error_budget": _dec(self.error_budget),
            "tol_slack": _dec(self.tol_slack),
            "pass": self.passed,
            "terms_used": self.terms_used,
            "note": self.note,
        }


@dataclass(frozen=True)
class LimitTarget:
    id: str
    description: str
    expression: str
    f_key: str = ""
    form: str = "A"
    sign: int = -1
    verdict: str = ""  # "", DivergesToInfinity, ConvergesToZero
    target_fn: object = None  # callable() -> mpf/mpc
    # singular terms x^a log^k(1/x), k = 0..m, known to appear in the scaled
    # exponent as x -> 0 (from the pole structure of sum f(n) n^-s); an empty
    # tuple selects plain polynomial Richardson extrapolation
    sing: tuple = ()


@dataclass
class LimitReport:
    id: str
    q_grid: list
    raw_values: list
    estimate: object
    target_value: object
    rel_err: object
    err_estimate: object
    passed: bool
    mode: str  # "extrapolation", "bracket", "escape", "trend", "error"
    note: str = ""

    def to_json_dict(self):
        return {
            "id": self.id,
            "q_grid": [_dec(q) for q in self.q_grid],
            "raw_values": [_dec(v) for v in self.raw_values],
            "estimate": _dec(self.estimate),
            "target_value": _dec(self.target_value),
            "rel_err": _dec(self.rel_err),
            "err_estimate": _dec(self.err_estimate),
            "pass": self.passed,
            "mode": self.mode,
            "note": self.note,
        }


def _dec(x):
    """Decimal-string serialization at full working precision."""
    if x is None:
        return None
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        x = mpc(x)
    if isinstance(x, mpc):
        return {"re": mp.nstr(x.real, mp.dps), "im": mp.nstr(x.imag, mp.dps)}
    return mp.nstr(mpf(x), mp.dps)


# ---------------------------------------------------------------------------
# record evaluation

def _closed(value):
    """A closed-form side: exact up to the last few bits of the working precision."""
    return SeriesValue(value, mpf(2) ** (-mp.prec + 4) * (1 + abs(value)), 0)


def _record_sides(rec: IdentityRecord, pt: QPoint, tol, max_terms):
    """(lhs, rhs) SeriesValues oriented for comparison, each sized on its own table."""
    if rec.g_key in ("__intro3__", "__intro4__"):
        lhs = _with_table("std:totient", lambda tot: _intro_product_log(
            tot, pt.q, tol, max_terms, odd_ratio=rec.g_key == "__intro4__"))
    elif rec.value_space:
        kern = KernelForm("minus", rec.weight)
        lhs = _with_table(rec.f_key, lambda f: lambert_sum(
            f, kern, pt, tol=tol, max_terms=max_terms))
    else:
        lhs = _with_table(rec.g_key, lambda g: weighted_product_log(
            g, pt, form=rec.form, weight=rec.weight, tol=tol, max_terms=max_terms))
    if rec.closed_rhs is not None:
        return lhs, _closed(rec.closed_rhs(pt))
    kern = KernelForm("minus" if rec.form == "A" else "plus", rec.f_weight or rec.weight)
    s = _with_table(rec.f_key, lambda f: lambert_sum(
        f, kern, pt, tol=tol, max_terms=max_terms))
    return lhs, SeriesValue(rec.rhs_sign * s.value, s.err_bound, s.terms_used)


def verify(id: str, q=None, z=None, tol=DEFAULT_TOL, max_terms=DEFAULT_MAX_TERMS):
    """Evaluate both sides of one identity and compare against the budget."""
    rec = lookup(id)
    slack = mpf(2) ** (-mp.prec + 24)
    if rec.kind == "exact":
        max_diff, budget, detail = rec.exact_check()
        return IdentityReport(
            id=rec.id, q=None, z=None, params={},
            lhs_value=None, rhs_value=None,
            abs_diff=max_diff, error_budget=budget, tol_slack=mpf(0),
            passed=bool(max_diff <= budget), terms_used=0, note=detail,
        )
    if q is None:
        q = mpf(DEFAULT_GRID_Q[1])
    if z is None:
        z = rec.z_fixed if rec.z_fixed is not None else mpf(1)
    pt = QPoint(q, z)
    if rec.z_fixed is not None and pt.z != rec.z_fixed:
        raise DomainError(f"{rec.id} is only asserted at z={rec.z_fixed}")
    lhs, rhs = _record_sides(rec, pt, mpf(tol), max_terms)
    diff = abs(lhs.value - rhs.value)
    budget = lhs.err_bound + rhs.err_bound
    scale = 1 + abs(lhs.value) + abs(rhs.value)
    return IdentityReport(
        id=rec.id, q=pt.q, z=pt.z, params={},
        lhs_value=lhs.value, rhs_value=rhs.value,
        abs_diff=diff, error_budget=budget, tol_slack=slack * scale,
        passed=bool(diff <= budget + slack * scale),
        terms_used=lhs.terms_used + rhs.terms_used,
    )


def verify_all(grid_q=DEFAULT_GRID_Q, grid_z=DEFAULT_GRID_Z,
               tol=DEFAULT_TOL, max_terms=DEFAULT_MAX_TERMS):
    """Verify every catalog record over the grid; failures are recorded."""
    reports = []
    qs = [mpf(q) for q in grid_q]
    zs = [mpc(complex(z)) if complex(z).imag else mpf(complex(z).real) for z in grid_z]
    for rec in catalog():
        if rec.kind == "exact":
            reports.append(verify(rec.id))
            continue
        for q in qs:
            for z in zs:
                if rec.z_fixed is not None and z != rec.z_fixed:
                    continue
                try:
                    reports.append(verify(rec.id, q, z, tol, max_terms))
                except (ConvergenceError, DomainError) as exc:
                    reports.append(IdentityReport(
                        id=rec.id, q=q, z=z, params={},
                        lhs_value=None, rhs_value=None, abs_diff=None,
                        error_budget=None, tol_slack=None, passed=False,
                        terms_used=0, note=f"{type(exc).__name__}: {exc}",
                    ))
    reports.sort(key=lambda r: (r.id, str(_dec(r.q)), str(_dec(r.z))))
    return reports


# ---------------------------------------------------------------------------
# exact checks (no q)

def _check_eq_triple(N=200):
    """n h(n) = sum d f(d) mu(n/d) = sum d g(d) phi(n/d) = gcd-sum, exactly."""
    worst = 0
    tot = build_table("totient", N)
    mob = build_table("mobius", N)
    one = build_table("one", N)
    lam = build_table("liouville", N)
    for g in (one, mob, tot, lam):
        f = arith.dirichlet_convolve(one, g)
        for n in range(1, N + 1):
            s1 = sum(d * f.values[d] * mob.values[n // d]
                     for d in arith.divisors(n) )
            s2 = sum(d * g.values[d] * tot.values[n // d]
                     for d in arith.divisors(n))
            s3 = arith.gcd_sum_transform(g, n)
            worst = max(worst, abs(s1 - s2), abs(s2 - s3))
    return mpf(worst), mpf(0), f"n<=200, g in (1, mu, phi, lambda)"


def _check_jordan_gcd(N=200):
    """J_{a+1}(n) equals the gcd-sum of J_a, exactly for integer a."""
    worst = 0
    for a in (1, 2, 3):
        ja = build_table(f"jordan:{a}", N)
        ja1 = build_table(f"jordan:{a + 1}", N)
        for n in range(1, N + 1):
            worst = max(worst, abs(ja1.values[n] - arith.gcd_sum_transform(ja, n)))
    return mpf(worst), mpf(0), "alpha in (1,2,3), n<=200"


def _check_jordan_gcd_real(N=120):
    """The same gcd-sum identity at real order alpha = 0.5."""
    ja = build_table("jordan:0.5", N)
    ja1 = build_table("jordan:1.5", N)
    worst = mpf(0)
    for n in range(1, N + 1):
        worst = max(worst, abs(ja1.values[n] - arith.gcd_sum_transform(ja, n)))
    return worst, mpf("1e-20"), "alpha = 0.5, n<=120"


# ---------------------------------------------------------------------------
# catalog

_catalog_cache: list = []
_catalog_index: dict = {}


def _R(**kw) -> IdentityRecord:
    return IdentityRecord(**kw)


def _pair(id, desc, g_key, f_key, form, weight="over_n", f_weight="", sign=None,
          domain="0<q<1, Re(z)>0"):
    if sign is None:
        sign = -1 if form == "A" else 1
    lhs = f"qseries.weighted_product_log(g={g_key}, form={form}, weight={weight})"
    rhs = f"{'-' if sign < 0 else '+'}qseries.lambert_sum(f={f_key}, "\
          f"kernel={'minus' if form == 'A' else 'plus'}, weight={f_weight or weight})"
    return _R(id=id, description=desc, lhs_spec=lhs, rhs_spec=rhs, domain=domain,
              kind="qz", g_key=g_key, f_key=f_key, form=form, weight=weight,
              f_weight=f_weight, rhs_sign=sign)


def _build_catalog():
    recs = []

    # warm-up Lambert series and products (asserted at z = 1)
    recs.append(_R(
        id="INTRO-1", description="sum mu(n) q^n/(1-q^n) = q",
        lhs_spec="qseries.lambert_sum(f=mobius, kernel=minus, weight=plain)",
        rhs_spec="closed: q", domain="0<q<1, z=1", kind="qz",
        f_key="std:mobius", weight="plain", value_space=True, z_fixed=mpf(1),
        closed_rhs=lambda pt: pt.q,
    ))
    recs.append(_R(
        id="INTRO-2", description="sum phi(n) q^n/(1-q^n) = q/(1-q)^2",
        lhs_spec="qseries.lambert_sum(f=totient, kernel=minus, weight=plain)",
        rhs_spec="closed: q/(1-q)^2", domain="0<q<1, z=1", kind="qz",
        f_key="std:totient", weight="plain", value_space=True, z_fixed=mpf(1),
        closed_rhs=lambda pt: pt.q / (1 - pt.q) ** 2,
    ))
    recs.append(_R(
        id="INTRO-3", description="prod (1-q^n)^(phi(n)/n) = exp(-q/(1-q))",
        lhs_spec="custom single-factor product log with exponents phi(n)/n",
        rhs_spec="closed log: -q/(1-q)", domain="0<q<1, z=1", kind="qz",
        g_key="__intro3__", z_fixed=mpf(1),
        closed_rhs=lambda pt: -pt.q / (1 - pt.q),
    ))
    recs.append(_R(
        id="INTRO-4",
        description="prod over odd n ((1+q^n)/(1-q^n))^(phi(n)/n) = exp(2q/(1-q^2))",
        lhs_spec="custom odd-index product log", rhs_spec="closed log: 2q/(1-q^2)",
        domain="0<q<1, z=1", kind="qz", g_key="__intro4__", z_fixed=mpf(1),
        closed_rhs=lambda pt: 2 * pt.q / (1 - pt.q**2),
    ))

    # main theorem / corollary with a generic pair g = d, f = 1*d
    recs.append(_pair("THM-2.2", "product form over (q^{nz};q^n) with g=d vs f=1*d",
                      "std:divisor_d", "conv_one_d", "A"))
    recs.append(_pair("THM-2.3", "alternating-kernel form with g=d vs f=1*d",
                      "std:divisor_d", "conv_one_d", "B"))
    recs.append(_pair("COR-2.7", "plain-weight product with h-transform of f=d",
                      "h_of_d", "std:divisor_d", "A", weight="plain"))
    recs.append(_pair("COR-2.8", "plain-weight alternating form, h-transform of f=d",
                      "h_of_d", "std:divisor_d", "B", weight="plain"))
    recs.append(_pair("REM-2.9", "gcd-sum exponent (g=mu) vs f=1*mu",
                      "gcdsum_mu", "unit_e", "A", weight="plain"))
    recs.append(_pair("REM-2.10", "gcd-sum exponent (g=mu), alternating form",
                      "gcdsum_mu", "unit_e", "B", weight="plain"))
    recs.append(_pair("REM-2.13-a", "multiplicative kernel f(p)=1/p: g=mu/n vs phi/n",
                      "mu_over_n", "phi_over_n", "A"))
    recs.append(_pair("REM-2.13-b", "multiplicative kernel f(p)=p^2: g=mu n^2",
                      "mu_nsq", "prod1mp2", "A"))
    recs.append(_pair("REM-2.14-a", "alternating form of REM-2.13-a",
                      "mu_over_n", "phi_over_n", "B"))
    recs.append(_pair("REM-2.14-b", "alternating form of REM-2.13-b",
                      "mu_nsq", "prod1mp2", "B"))

    recs.append(_R(
        id="EQ2.6", description="triple divisor-sum equality, exact integers",
        lhs_spec="arith: sum d f(d) mu(n/d)", rhs_spec="arith: gcd-sum of g",
        domain="n <= 200, g in {1, mu, phi, lambda}", kind="exact",
        exact_check=_check_eq_triple,
    ))
    recs.append(_R(
        id="EQ2.12", description="J_{a+1}(n) = gcd-sum of J_a, exact",
        lhs_spec="arith: jordan(a+1)", rhs_spec="arith: gcd_sum_transform(jordan(a))",
        domain="a in {1,2,3}, n <= 200", kind="exact",
        exact_check=_check_jordan_gcd,
    ))
    recs.append(_R(
        id="EQ2.12-real", description="the gcd-sum identity at real order a=0.5",
        lhs_spec="arith: jordan(1.5)", rhs_spec="arith: gcd_sum_transform(jordan(0.5))",
        domain="a = 0.5, n <= 120", kind="exact",
        exact_check=_check_jordan_gcd_real,
    ))

    # Mobius family
    recs.append(_R(
        id="EQ3.1", description="g=mu product equals exp(-q^z/(1-q))",
        lhs_spec="qseries.weighted_product_log(g=mobius, form=A)",
        rhs_spec="closed log: -q^z/(1-q)", domain="0<q<1, Re(z)>0", kind="qz",
        g_key="std:mobius",
        closed_rhs=lambda pt: -_qz(pt) / (1 - pt.q),
    ))
    recs.append(_R(
        id="EQ3.2", description="g=mu alternating form equals exp(q^z/(1+q))",
        lhs_spec="qseries.weighted_product_log(g=mobius, form=B)",
        rhs_spec="closed log: q^z/(1+q)", domain="0<q<1, Re(z)>0", kind="qz",
        g_key="std:mobius", form="B",
        closed_rhs=lambda pt: _qz(pt) / (1 + pt.q),
    ))
    recs.append(_pair("EQ3.3", "g=2^omega mu vs f=(-1)^omega",
                      "two_pow_omega_mu", "std:neg_one_pow_omega", "A"))
    recs.append(_pair("EQ3.4", "alternating form of EQ3.3",
                      "two_pow_omega_mu", "std:neg_one_pow_omega", "B"))
    recs.append(_pair("EQ3.5", "g=|mu| vs f=2^omega",
                      "std:mobius_abs", "std:two_pow_omega", "A"))
    recs.append(_pair("EQ3.6", "alternating form of EQ3.5",
                      "std:mobius_abs", "std:two_pow_omega", "B"))

    # von Mangoldt family
    recs.append(_pair("EQ3.7", "g=Lambda vs f=log n", "std:mangoldt", "log_n", "A"))
    recs.append(_pair("EQ3.8", "alternating form of EQ3.7", "std:mangoldt", "log_n", "B"))
    recs.append(_pair("EQ3.9", "g=mu log n vs f=Lambda (sign-flipped)",
                      "mu_log", "std:mangoldt", "A", sign=1))
    recs.append(_pair("EQ3.10", "alternating form of EQ3.9 (sign-flipped)",
                      "mu_log", "std:mangoldt", "B", sign=-1))

    # Euler totient family
    recs.append(_pair("EQ3.11", "g=phi vs f=n", "std:totient", "id", "A"))
    recs.append(_pair("EQ3.12", "alternating form of EQ3.11", "std:totient", "id", "B"))
    recs.append(_pair("EQ3.13", "g=mu/n vs f=phi/n", "mu_over_n", "phi_over_n", "A"))
    recs.append(_pair("EQ3.14", "alternating form of EQ3.13",
                      "mu_over_n", "phi_over_n", "B"))
    recs.append(_pair("EQ3.15", "g=mu^2/phi vs f=n/phi",
                      "mu2_over_phi", "n_over_phi", "A"))
    recs.append(_pair("EQ3.16", "alternating form of EQ3.15",
                      "mu2_over_phi", "n_over_phi", "B"))

    # Jordan totient family, k in {1, 2, 3}
    for k in (1, 2, 3):
        recs.append(_pair(f"EQ3.17-k{k}", f"g=J_{k} vs f=n^{k}",
                          f"std:jordan:{k}", f"pow:{k}", "A"))
        recs.append(_pair(f"EQ3.18-k{k}", f"alternating form, g=J_{k}",
                          f"std:jordan:{k}", f"pow:{k}", "B"))
        recs.append(_pair(f"EQ3.19-k{k}", f"g=mu/n^{k} vs f=J_{k}/n^{k}",
                          f"mu_over_pow:{k}", f"jk_over_pow:{k}", "A"))
        recs.append(_pair(f"EQ3.20-k{k}", f"alternating form of EQ3.19-k{k}",
                          f"mu_over_pow:{k}", f"jk_over_pow:{k}", "B"))
        recs.append(_pair(f"EQ3.21-k{k}", f"g=|mu|/n^{k} vs f=J_{2*k}/(n^{k} J_{k})",
                          f"absmu_over_pow:{k}", f"j2k_ratio:{k}", "A"))
        recs.append(_pair(f"EQ3.22-k{k}", f"alternating form of EQ3.21-k{k}",
                          f"absmu_over_pow:{k}", f"j2k_ratio:{k}", "B"))

    # divisor family
    recs.append(_pair("EQ3.23", "g=2^omega vs f=d(n^2)",
                      "std:two_pow_omega", "std:divisor_d_sq", "A"))
    recs.append(_pair("EQ3.24", "alternating form of EQ3.23",
                      "std:two_pow_omega", "std:divisor_d_sq", "B"))
    recs.append(_pair("EQ3.25", "g=d(n^2) vs f=d(n)^2",
                      "std:divisor_d_sq", "d_squared", "A"))
    recs.append(_pair("EQ3.26", "alternating form of EQ3.25",
                      "std:divisor_d_sq", "d_squared", "B"))
    for s, tagf in ((-1, "-1"), (0.5, "0.5")):
        recs.append(_pair(f"EQ3.27-s{tagf}", f"g=n^s vs f=sigma_s, s={s}",
                          f"pow:{tagf}", f"std:sigma:{tagf}", "A"))
        recs.append(_pair(f"EQ3.28-s{tagf}", f"alternating form, s={s}",
                          f"pow:{tagf}", f"std:sigma:{tagf}", "B"))

    # Liouville family (the series side runs over square indices)
    recs.append(_pair("EQ3.29", "g=lambda vs f=[n is square]",
                      "std:liouville", "issquare", "A"))
    recs.append(_pair("EQ3.30", "alternating form of EQ3.29",
                      "std:liouville", "issquare", "B"))

    # Ramanujan sums, v in {1, 4, 6, 12}
    for v in (1, 4, 6, 12):
        recs.append(_pair(f"EQ3.31-v{v}", f"g=c_n({v}) vs finite divisor sum",
                          f"std:ramanujan:{v}", f"divides:{v}", "A"))
        recs.append(_pair(f"EQ3.32-v{v}", f"alternating form, v={v}",
                          f"std:ramanujan:{v}", f"divides:{v}", "B"))

    # sums of squares: residue-class products as signed-table evaluations
    recs.append(_pair("EQ3.33", "r_2 residue-class ratio: g=-4 chi_1 vs f=-r_2",
                      "neg4chi1", "neg_r2", "A"))
    recs.append(_pair("EQ3.34", "alternating r_2 form", "neg4chi1", "neg_r2", "B"))
    recs.append(_pair("EQ3.35", "three-residue-class product vs f=r_4/8",
                      "not_div4", "r4_over8", "A", weight="plain", f_weight="over_n"))
    recs.append(_pair("EQ3.36", "alternating form of EQ3.35",
                      "not_div4", "r4_over8", "B", weight="plain", f_weight="over_n"))
    recs.append(_pair("EQ3.37", "odd-index product vs odd-divisor sum",
                      "odd_ind", "odd_sigma", "A", weight="plain", f_weight="over_n"))
    recs.append(_pair("EQ3.38", "alternating form of EQ3.37",
                      "odd_ind", "odd_sigma", "B", weight="plain", f_weight="over_n"))
    recs.append(_pair("EQ3.39", "parity-split squared exponents vs signed cube sums",
                      "signed_nsq", "neg_signed_cube", "A", weight="plain",
                      f_weight="over_n"))
    recs.append(_pair("EQ3.40", "alternating parity-split form",
                      "neg_signed_nsq", "signed_cube", "B", weight="plain",
                      f_weight="over_n"))

    # core function
    recs.append(_pair("EQ3.41", "g=phi |mu| vs f=core gamma",
                      "std:phi_abs_mu", "std:core_gamma", "A"))
    recs.append(_pair("EQ3.42", "alternating form of EQ3.41",
                      "std:phi_abs_mu", "std:core_gamma", "B"))

    # generalized Mobius mu_k, k in {1, 2, 3}
    for k in (1, 2, 3):
        recs.append(_pair(f"EQ3.43-k{k}", f"g=mu_{k} vs f=(1+e^(i pi/{k}))^omega",
                          f"std:mu_k:{k}", f"f_muk:{k}", "A"))
        recs.append(_pair(f"EQ3.44-k{k}", f"alternating form, k={k}",
                          f"std:mu_k:{k}", f"f_muk:{k}", "B"))

    return recs


def _qz(pt):
    z = pt.z
    if isinstance(z, mpc):
        return mp.exp(z * mp.log(pt.q))
    return pt.q**z


def catalog():
    """All identity records, sorted by id."""
    if not _catalog_cache:
        recs = sorted(_build_catalog(), key=lambda r: r.id)
        _catalog_cache.extend(recs)
        _catalog_index.update({r.id: r for r in recs})
    return list(_catalog_cache)


def lookup(id: str) -> IdentityRecord:
    catalog()
    try:
        return _catalog_index[id]
    except KeyError:
        raise UnknownIdError(f"unknown identity id {id!r}") from None


# the two intro products use single factors (1 -+ q^n), not full Pochhammers,
# so they get their own small evaluator
def _intro_product_log(tot, q, tol, max_terms, odd_ratio: bool):
    # |log(1 -+ x)| <= x/(1-x) and phi(m)/m <= 1: the tail after N terms is
    # at most 2 q^(N+1)/(1-q)^2, which is pref * _poly_geom_tail(0, q, N)
    pref = 2 * (1 - mp.sqrt(q)) / (1 - q) ** 2
    N = _truncation(tot, pref, 0, q, tol, max_terms, "intro product", "product")
    acc = mpf(0)
    for n in range(1, N + 1, 2 if odd_ratio else 1):
        qn = q**n
        w = mpf(tot.values[n]) / n
        if odd_ratio:
            acc += w * (mp.log(1 + qn) - mp.log(1 - qn))
        else:
            acc += w * mp.log(1 - qn)
    tail = pref * _poly_geom_tail(0, q, N)
    return SeriesValue(acc, tail + mpf(2) ** (-mp.prec + 6) * N, N)


# ---------------------------------------------------------------------------
# limit targets

def _euler_product(factor, P=200000):
    """prod over primes p <= P of factor(p), with |log tail| <= 3/P.

    Valid whenever |factor(p) - 1| <= 2.5/p^2 for p > P, which holds for every
    kernel used here (each is 1 + O(1/p^2) with a small constant).
    """
    prod = mpf(1)
    for p in arith.primes(P):
        prod *= factor(p)
    return prod, mpf(3) / P


def _t_3_3a():
    v, _ = _euler_product(lambda p: mpf(p * p - 2) / (p * p - 1))
    return mp.exp(-v)


def _t_3_7a():
    A = glaisher()
    return (2 * mp.pi * mp.exp(euler_gamma()) / A**12) ** (mp.pi**2 / 6)


def _t_3_9a():
    A = glaisher()
    return A**12 / (2 * mp.pi * mp.exp(euler_gamma()))


def _t_3_15a():
    v, _ = _euler_product(lambda p: 1 + mpf(p) / ((p - 1) * (p * p - 1)))
    return mp.exp(-v)


def _t_3_33_1():
    return mp.exp(mpf(2) / 3 * mp.pi**2 * catalan())


def _t_3_43a(k):
    if k == 1:
        return mp.exp(mpf(-1))
    w = 1 + mp.expjpi(mpf(1) / k)
    prod, _ = _euler_product(lambda p: 1 + w / mpf(p * p - 1))
    return mp.exp(-prod)


_limit_cache: list = []
_limit_index: dict = {}


def _L(**kw) -> LimitTarget:
    return LimitTarget(**kw)


def _build_limits():
    recs = [
        _L(id="EQ3.1a", description="scaled mu-product limit", expression="exp(-1)",
           f_key="unit_e", form="A", target_fn=lambda: mp.exp(mpf(-1))),
        _L(id="EQ3.2a", description="alternating mu-form limit", expression="exp(1/2)",
           f_key="unit_e", form="B", sign=1, target_fn=lambda: mp.exp(mpf("0.5"))),
        _L(id="EQ3.3a", description="(-1)^omega limit",
           expression="exp(-sum (-1)^omega(n)/n^2)",
           f_key="std:neg_one_pow_omega", form="A", target_fn=_t_3_3a),
        _L(id="EQ3.5a", description="2^omega limit", expression="exp(-5/2)",
           f_key="std:two_pow_omega", form="A",
           sing=((1, 2), (2, 1), (3, 0)),
           target_fn=lambda: mp.exp(mpf("-2.5"))),
        _L(id="EQ3.7a", description="log n limit",
           expression="(2 pi e^gamma / A^12)^(pi^2/6)",
           f_key="log_n", form="A", sing=((1, 2), (2, 1), (3, 0)),
           target_fn=_t_3_7a),
        _L(id="EQ3.9a", description="von Mangoldt limit (sign-flipped)",
           expression="A^12/(2 pi e^gamma)",
           f_key="std:mangoldt", form="A", sign=1, target_fn=_t_3_9a),
        _L(id="EQ3.13-1", description="phi/n limit", expression="exp(-zeta(2)/zeta(3))",
           f_key="phi_over_n", form="A",
           target_fn=lambda: mp.exp(-zeta(2) / zeta(3))),
        _L(id="EQ3.15a", description="n/phi limit", expression="exp(-sum 1/(n phi(n)))",
           f_key="n_over_phi", form="A", sing=((1, 1), (2, 1), (3, 0)),
           target_fn=_t_3_15a),
        _L(id="EQ3.17a-k0.5", description="n^k limit, k=0.5",
           expression="exp(-zeta(1.5))",
           f_key="pow:0.5", form="A",
           sing=(("0.5", 0), (1, 0), ("1.5", 0), (2, 0), ("2.5", 0)),
           target_fn=lambda: mp.exp(-zeta(mpf("1.5")))),
        _L(id="EQ3.18a-k-0.5", description="alternating n^k limit, k=-0.5",
           expression="exp(zeta(1.5)/2)",
           f_key="pow:-0.5", form="B", sign=1,
           sing=(("0.5", 0), (1, 0), ("1.5", 0), (2, 0), ("2.5", 0)),
           target_fn=lambda: mp.exp(zeta(mpf("1.5")) / 2)),
        _L(id="EQ3.19a-k1", description="J_k/n^k limit, k=1",
           expression="exp(-zeta(2)/zeta(3))",
           f_key="jk_over_pow:1", form="A",
           target_fn=lambda: mp.exp(-zeta(2) / zeta(3))),
        _L(id="EQ3.21a-k1", description="J_2k ratio limit, k=1",
           expression="exp(-zeta(2) zeta(3)/zeta(6))",
           f_key="j2k_ratio:1", form="A",
           target_fn=lambda: mp.exp(-zeta(2) * zeta(3) / zeta(6))),
        _L(id="EQ3.23a", description="d(n^2) limit", expression="exp(-5 pi^2/12)",
           f_key="std:divisor_d_sq", form="A", sing=((1, 2), (2, 1), (3, 0)),
           target_fn=lambda: mp.exp(-5 * mp.pi**2 / 12)),
        _L(id="EQ3.25a", description="d(n)^2 limit", expression="exp(-5 pi^4/72)",
           f_key="d_squared", form="A", sing=((1, 3), (2, 0), (3, 0)),
           target_fn=lambda: mp.exp(-5 * mp.pi**4 / 72)),
        _L(id="EQ3.27-1-s-1", description="sigma_s limit, s=-1",
           expression="exp(-zeta(2) zeta(3))",
           f_key="std:sigma:-1", form="A",
           target_fn=lambda: mp.exp(-zeta(2) * zeta(3))),
        _L(id="EQ3.29-1", description="Liouville limit (sign-corrected target)",
           expression="exp(-pi^4/90)",
           f_key="issquare", form="A",
           target_fn=lambda: mp.exp(-mp.pi**4 / 90)),
        _L(id="EQ3.30-1", description="alternating Liouville limit",
           expression="exp(pi^2/12)",
           f_key="issquare", form="B", sign=1,
           sing=(("0.5", 0), (1, 0), ("1.5", 0), (2, 0)),
           target_fn=lambda: mp.exp(mp.pi**2 / 12)),
        _L(id="EQ3.31-1-v6", description="Ramanujan-sum limit, v=6",
           expression="exp(-sigma_{-1}(6)) = exp(-2)",
           f_key="divides:6", form="A", target_fn=lambda: mp.exp(mpf(-2))),
        _L(id="EQ3.32-1-v4", description="alternating Ramanujan-sum limit, v=4",
           expression="exp(d(4)/2) = exp(3/2)",
           f_key="divides:4", form="B", sign=1,
           target_fn=lambda: mp.exp(mpf("1.5"))),
        _L(id="EQ3.33-1", description="r_2 limit", expression="exp(2 pi^2 G/3)",
           f_key="std:r2", form="A", sign=1, sing=((1, 1), (2, 1), (3, 0)),
           target_fn=_t_3_33_1),
        _L(id="EQ3.43a-k1", description="mu_k limit, k=1", expression="exp(-1)",
           f_key="f_muk:1", form="A", target_fn=lambda: _t_3_43a(1)),
        _L(id="EQ3.43a-k2", description="mu_k limit, k=2",
           expression="exp(-1 - sum (1+i)^omega(n)/n^2)",
           f_key="f_muk:2", form="A", sing=((1, 1), (2, 1), (3, 0)),
           target_fn=lambda: _t_3_43a(2)),
        _L(id="EQ3.43a-k3", description="mu_k limit, k=3",
           expression="exp(-1 - sum (1+e^(i pi/3))^omega(n)/n^2)",
           f_key="f_muk:3", form="A", sing=((1, 1), (2, 1), (3, 0)),
           target_fn=lambda: _t_3_43a(3)),
        # stated divergence / vanishing verdicts
        _L(id="EQ3.6-lim", description="alternating |mu| form diverges",
           expression=DIVERGES, f_key="std:two_pow_omega", form="B", sign=1,
           verdict=DIVERGES),
        _L(id="EQ3.8-lim", description="alternating Lambda form diverges",
           expression=DIVERGES, f_key="log_n", form="B", sign=1, verdict=DIVERGES),
        _L(id="EQ3.10-lim", description="alternating mu log form vanishes",
           expression=TO_ZERO, f_key="std:mangoldt", form="B", sign=-1,
           verdict=TO_ZERO),
        _L(id="EQ3.12-lim", description="scaled phi product vanishes",
           expression=TO_ZERO, f_key="id", form="A", verdict=TO_ZERO),
        _L(id="EQ3.12b-lim", description="alternating phi form diverges",
           expression=DIVERGES, f_key="id", form="B", sign=1, verdict=DIVERGES),
        _L(id="EQ3.14-lim", description="alternating phi/n form diverges",
           expression=DIVERGES, f_key="phi_over_n", form="B", sign=1,
           verdict=DIVERGES),
        _L(id="EQ3.16-lim", description="alternating n/phi form diverges",
           expression=DIVERGES, f_key="n_over_phi", form="B", sign=1,
           verdict=DIVERGES),
        _L(id="EQ3.24-lim", description="alternating d(n^2) form diverges",
           expression=DIVERGES, f_key="std:divisor_d_sq", form="B", sign=1,
           verdict=DIVERGES),
        _L(id="EQ3.26-lim", description="alternating d(n)^2 form diverges",
           expression=DIVERGES, f_key="d_squared", form="B", sign=1,
           verdict=DIVERGES),
        _L(id="EQ3.34-lim", description="alternating r_2 form diverges",
           expression=DIVERGES, f_key="std:r2", form="B", sign=1, verdict=DIVERGES),
    ]
    return recs


def limit_targets():
    """All limit records, sorted by id."""
    if not _limit_cache:
        recs = sorted(_build_limits(), key=lambda r: r.id)
        _limit_cache.extend(recs)
        _limit_index.update({r.id: r for r in recs})
    return list(_limit_cache)


def limit_lookup(id: str) -> LimitTarget:
    limit_targets()
    try:
        return _limit_index[id]
    except KeyError:
        raise UnknownIdError(f"unknown limit id {id!r}") from None


# ---------------------------------------------------------------------------
# limit engine

_LIMIT_J = tuple(range(3, 11))
_ESCAPE_HI = mpf(1000)
_ESCAPE_LO = mpf("0.001")
_TREND_MIN_STEP = mpf("0.05")


def _sing_basis(sing):
    """Build fit functions x^a log^k(1/x) for each (a, max_k) entry."""
    funcs = []
    for a, mmax in sing:
        a = mpf(a)
        for k in range(mmax + 1):
            funcs.append(lambda x, a=a, k=k: x ** a * (-mp.log(x)) ** k)
    return funcs


def _limit_exponent(rec: LimitTarget, j: int, abs_tol):
    """The log of the limit statistic at q = 1 - 2^-j, with certified tail."""
    x = mpf(2) ** (-j)
    q = 1 - x
    pt = QPoint(q, 1)
    kern = KernelForm("minus" if rec.form == "A" else "plus", "over_n")
    if rec.form == "A":
        inner_tol = abs_tol / x
    else:
        inner_tol = abs_tol

    s = _with_table(rec.f_key, lambda f: lambert_sum(
        f, kern, pt, tol=inner_tol, max_terms=2 * DEFAULT_MAX_TERMS))
    scale = x if rec.form == "A" else mpf(1)
    return rec.sign * scale * s.value, scale * s.err_bound


def limit_check(id: str, limit_tol=mpf("1e-3")) -> LimitReport:
    """Extrapolate the q->1 limit (or confirm a divergence verdict)."""
    rec = limit_lookup(id)
    limit_tol = mpf(limit_tol)
    if rec.verdict:
        return _divergence_check(rec)

    abs_tol = mpf("1e-13")
    xs, ys, qs = [], [], []
    for j in _LIMIT_J:
        L, _ = _limit_exponent(rec, j, abs_tol)
        xs.append(mpf(2) ** (-j))
        ys.append(L)
        qs.append(1 - mpf(2) ** (-j))
    # extrapolate toward x = 0 (nodes must decrease toward the target)
    if rec.sing:
        Lstar, err_L = basis_extrapolate(xs, ys, _sing_basis(rec.sing))
    else:
        Lstar, err_L = richardson_extrapolate(xs, ys)
    estimate = mp.exp(Lstar)
    est_err = abs(estimate) * mp.expm1(err_L) if err_L < 50 else mp.inf
    target = rec.target_fn()
    rel = abs(estimate - target) / abs(target)
    if rel <= limit_tol:
        passed, mode = True, "extrapolation"
    elif abs(estimate - target) <= est_err:
        passed, mode = True, "bracket"
    else:
        passed, mode = False, "extrapolation"
    return LimitReport(
        id=rec.id, q_grid=qs, raw_values=[mp.exp(y) for y in ys],
        estimate=estimate, target_value=target, rel_err=rel,
        err_estimate=est_err, passed=passed, mode=mode,
    )


def _divergence_check(rec: LimitTarget) -> LimitReport:
    """Threshold escape, or a monotone-trend certificate for log-divergence."""
    qs, Ls = [], []
    escaped = False
    for j in _LIMIT_J:
        L, _ = _limit_exponent(rec, j, mpf("1e-6"))
        qs.append(1 - mpf(2) ** (-j))
        Ls.append(L)
        v = mp.exp(L)
        if rec.verdict == DIVERGES and v > _ESCAPE_HI:
            escaped = True
            break
        if rec.verdict == TO_ZERO and v < _ESCAPE_LO:
            escaped = True
            break
    mode = "escape"
    passed = escaped
    note = ""
    if not escaped:
        diffs = [Ls[i + 1] - Ls[i] for i in range(len(Ls) - 1)]
        want = 1 if rec.verdict == DIVERGES else -1
        monotone = all(want * d > 0 for d in diffs)
        sustained = (abs(diffs[-1]) >= _TREND_MIN_STEP
                     and abs(diffs[-1]) >= mpf("0.8") * abs(diffs[-2]))
        passed = monotone and sustained
        mode = "trend"
        note = ("threshold not reached on the scan grid; "
                "monotone-trend certificate applied")
    return LimitReport(
        id=rec.id, q_grid=qs, raw_values=[mp.exp(L) for L in Ls],
        estimate=mp.exp(Ls[-1]), target_value=None, rel_err=None,
        err_estimate=None, passed=passed, mode=mode, note=note,
    )


def limit_check_all(limit_tol=mpf("1e-3")):
    reports = []
    for rec in limit_targets():
        try:
            reports.append(limit_check(rec.id, limit_tol))
        except (ConvergenceError, DomainError) as exc:
            reports.append(LimitReport(
                id=rec.id, q_grid=[], raw_values=[], estimate=None,
                target_value=None, rel_err=None, err_estimate=None,
                passed=False, mode="error", note=f"{type(exc).__name__}: {exc}",
            ))
    reports.sort(key=lambda r: r.id)
    return reports


def hypothesis_check(id: str, N=2000):
    """Check the limit-theorem hypothesis on the tabulated range.

    Returns a dict recording whether f >= 0 on 1..N and the supremum of
    f(n) log^2(n+1)/n (finite supremum over the range supports the
    f(n) = O(n/log^2(n+1)) sufficient condition).
    """
    rec = limit_lookup(id)
    tab = _get_table(rec.f_key, N)
    nonneg = True
    sup = mpf(0)
    for n in range(1, N + 1):
        v = tab.values[n]
        if isinstance(v, Fraction):
            v = mpf(v.numerator) / v.denominator
        elif isinstance(v, int):
            v = mpf(v)
        if isinstance(v, mpc) or v < 0:
            nonneg = False
        ratio = abs(v) * mp.log(n + 1) ** 2 / n
        sup = max(sup, ratio)
    return {"id": id, "f_key": rec.f_key, "nonnegative": nonneg,
            "sup_ratio": sup, "range": N}
