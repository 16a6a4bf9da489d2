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

from collections import namedtuple
from fractions import Fraction

from mpmath import mp, mpf, mpc

from . import arith
from .arith import ArithTable, build_table
from .numerics import (
    ConvergenceError,
    DomainError,
    _max_terms,
    _positive,
    _tol,
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
    intro_product_log,
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
    "DEFAULT_LIMIT_TOL",
    "UnknownIdError",
]

DEFAULT_GRID_Q = ("0.1", "0.3", "0.5", "0.7")
DEFAULT_GRID_Z = ("1", "2", "0.5", "1+0.5j")
DEFAULT_LIMIT_TOL = mpf("1e-3")

_TABLE_START_N = 512
_TABLE_CAP_N = 1 << 18

DIVERGES = "DivergesToInfinity"
TO_ZERO = "ConvergesToZero"


class UnknownIdError(KeyError):
    """No catalog record with the requested id."""


# ---------------------------------------------------------------------------
# table cache (one cached table per key, sized on demand)

_table_cache: dict = {}


# a record key is a spec of arith's one table registry; the standard tables'
# keys carry a "std:" prefix
def _build_named(key: str, N: int) -> ArithTable:
    return build_table(key.removeprefix("std:"), N)


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
    """eval_fn(table) on the cached table of ``key``, sized by _adaptive.

    A cold key is first tried on a 1-entry table: it has the key's growth
    bound, so a sum that needs more raises TableTooShortError with N* before
    reading a value, and the one table built is the one _get_table sizes
    for N*.
    """
    def attempt(N):
        if N == 1 and (key, mp.prec) not in _table_cache:
            return eval_fn(_build_named(key, 1))
        return eval_fn(_get_table(key, N))

    return _adaptive(attempt, start=1)


# ---------------------------------------------------------------------------
# report types

class IdentityRecord(namedtuple(
        "IdentityRecord",
        "id description kind g_key f_key form weight f_weight rhs_sign "
        "closed_rhs value_space z_fixed exact_check",
        defaults=("", "", "A", "over_n", "", -1, None, False, None, None))):
    """One catalog entry pairing two independently evaluated sides.

    ``kind`` is "qz" or "exact".  A "qz" record compares the weighted product
    of ``g_key`` in ``form`` with ``rhs_sign`` times the Lambert series of
    ``f_key`` (kernel 1/(1-q^n) in form A, 1/(1+q^n) in form B); ``_pair``
    builds both forms of one (g, f) pair.  ``f_weight`` is the series-side
    weight when it differs from the product side.  ``closed_rhs(pt)`` gives a
    value used instead of ``f_key``.  ``value_space`` compares values instead
    of logs and ``z_fixed`` restricts the record to one z (intro records).
    ``exact_check()`` returns (max_diff, budget, detail).
    """

    __slots__ = ()


def _json_dict(report):
    """The report's fields in order through _dec, ``passed`` written as "pass"."""
    return {"pass" if k == "passed" else k: _dec(v) for k, v in zip(report._fields, report)}


class IdentityReport(namedtuple(
        "IdentityReport",
        "id q z lhs_value rhs_value abs_diff error_budget passed "
        "terms_used note", defaults=("",))):
    __slots__ = ()

    to_json_dict = _json_dict


class LimitReport(namedtuple(
        "LimitReport",
        "id q_grid raw_values estimate target_value rel_err err_estimate "
        "passed mode note", defaults=("",))):
    """``mode`` is "extrapolation", "escape", "trend" or "error"."""

    __slots__ = ()

    to_json_dict = _json_dict


def _dec(x):
    """The text rule of every value: a number as a decimal string at the working
    precision, an mpc as {"re", "im"}, a list by item, None, int or str as is."""
    if x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, list):
        return [_dec(v) for v in x]
    if isinstance(x, mpc):
        return {"re": mp.nstr(x.real, mp.dps), "im": mp.nstr(x.imag, mp.dps)}
    return mp.nstr(arith.as_mpf(x) if isinstance(x, Fraction) else mpf(x), mp.dps)


# ---------------------------------------------------------------------------
# record evaluation

def _series_kernel(form, weight):
    """The Lambert kernel of a product form: 1/(1-q^n) for A, 1/(1+q^n) for B."""
    return KernelForm("minus" if form == "A" else "plus", weight)


def _closed(value):
    """A closed-form side: exact up to the last few bits of the working precision."""
    return SeriesValue(value, mpf(2) ** (-mp.prec + 4) * (1 + abs(value)), 0)


def _record_sides(rec: IdentityRecord, pt: QPoint, tol, max_terms):
    """(lhs, rhs) SeriesValues oriented for comparison, each sized on its own table."""
    if rec.g_key in ("__intro3__", "__intro4__"):
        lhs = _with_table("std:totient", lambda tot: intro_product_log(
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
    kern = _series_kernel(rec.form, rec.f_weight or rec.weight)
    s = _with_table(rec.f_key, lambda f: lambert_sum(
        f, kern, pt, tol=tol, max_terms=max_terms))
    return lhs, SeriesValue(rec.rhs_sign * s.value, s.err_bound, s.terms_used)


def verify(id: str, q=None, z=None, tol=DEFAULT_TOL, max_terms=DEFAULT_MAX_TERMS):
    """Evaluate both sides of one identity and compare against the budget."""
    tol, max_terms = _tol(tol), _max_terms(max_terms)
    rec = lookup(id)
    if rec.kind == "exact":
        if q is not None or z is not None:
            raise DomainError(f"{rec.id} is an exact statement and takes no q or z")
        max_diff, budget, detail = rec.exact_check()
        return IdentityReport(
            id=rec.id, q=None, z=None, lhs_value=None, rhs_value=None,
            abs_diff=max_diff, error_budget=budget,
            passed=bool(max_diff <= budget), terms_used=0, note=detail,
        )
    if q is None:
        q = mpf(DEFAULT_GRID_Q[1])
    if z is None:
        z = rec.z_fixed if rec.z_fixed is not None else mpf(1)
    pt = QPoint(q, z)
    if rec.z_fixed is not None and pt.z != rec.z_fixed:
        raise DomainError(f"{rec.id} is only asserted at z={rec.z_fixed}")
    lhs, rhs = _record_sides(rec, pt, tol, max_terms)
    diff = abs(lhs.value - rhs.value)
    budget = lhs.err_bound + rhs.err_bound
    return IdentityReport(
        id=rec.id, q=pt.q, z=pt.z, lhs_value=lhs.value, rhs_value=rhs.value,
        abs_diff=diff, error_budget=budget, passed=bool(diff <= budget),
        terms_used=lhs.terms_used + rhs.terms_used,
    )


def verify_all(grid_q=DEFAULT_GRID_Q, grid_z=DEFAULT_GRID_Z,
               tol=DEFAULT_TOL, max_terms=DEFAULT_MAX_TERMS):
    """Verify every catalog record over the grid; failures are recorded."""
    tol, max_terms = _tol(tol), _max_terms(max_terms)
    reports = []
    qs = [mpf(q) for q in grid_q]
    zs = [z if z.imag else z.real for z in map(mp.mpmathify, grid_z)]
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
                        id=rec.id, q=q, z=z, lhs_value=None, rhs_value=None,
                        abs_diff=None, error_budget=None, passed=False,
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
    """The same gcd-sum identity at real order alpha = 0.5.

    Budget, with u = 2^-prec.  A rule value J_x(p^a) = p^(a x) - p^((a-1) x)
    rounds its two powers, each within 2u of itself (mpmath raises p, or
    sqrt(p) rounded 10 bits further, to an integer power of at most 9 and
    rounds once), and their difference, whose terms sum to at most
    (1 + 2^-x)/(1 - 2^-x) times it: it is off by 12.7u of itself at x = 0.5
    and 5.2u at x = 1.5.  An entry multiplies omega(n) < L = bit_length(n)
    of them, so it is off by 14 L u (7 L u at x = 1.5) of itself.  The gcd
    sum adds n positive terms d J_0.5(d), each off by (14 L + 1)u of itself,
    with n roundings of at most u of the sum, and the exact sum is J_1.5(n).
    So the difference is at most (21 L + n + 1) u J_1.5(n) to first order;
    1.01 covers the rest.
    """
    ja = build_table("jordan:0.5", N)
    ja1 = build_table("jordan:1.5", N)
    worst = budget = mpf(0)
    for n in range(1, N + 1):
        worst = max(worst, abs(ja1.values[n] - arith.gcd_sum_transform(ja, n)))
        budget = max(budget, (21 * n.bit_length() + n + 1) * ja1.values[n])
    return worst, mp.ldexp(mpf("1.01") * budget, -mp.prec), "alpha = 0.5, n<=120"


# ---------------------------------------------------------------------------
# catalog

_catalog_cache: list = []
_catalog_index: dict = {}


def _pair(a_id, b_id, desc, g_key, f_key, weight="over_n", f_weight="", sign=-1):
    """The two records of one (g, f) pair: form A with ``sign`` and the
    alternating form B, whose series side enters with the opposite sign."""
    common = dict(kind="qz", g_key=g_key, f_key=f_key, weight=weight, f_weight=f_weight)
    return [IdentityRecord(id=a_id, description=desc, form="A", rhs_sign=sign, **common),
            IdentityRecord(id=b_id, description=f"alternating form of {a_id}", form="B",
                           rhs_sign=-sign, **common)]


def _build_catalog():
    recs = []

    # warm-up Lambert series and products (asserted at z = 1)
    recs.append(IdentityRecord(
        id="INTRO-1", description="sum mu(n) q^n/(1-q^n) = q", kind="qz",
        f_key="std:mobius", weight="plain", value_space=True, z_fixed=mpf(1),
        closed_rhs=lambda pt: pt.q,
    ))
    recs.append(IdentityRecord(
        id="INTRO-2", description="sum phi(n) q^n/(1-q^n) = q/(1-q)^2", kind="qz",
        f_key="std:totient", weight="plain", value_space=True, z_fixed=mpf(1),
        closed_rhs=lambda pt: pt.q / (1 - pt.q) ** 2,
    ))
    recs.append(IdentityRecord(
        id="INTRO-3", description="prod (1-q^n)^(phi(n)/n) = exp(-q/(1-q))", kind="qz",
        g_key="__intro3__", z_fixed=mpf(1),
        closed_rhs=lambda pt: -pt.q / (1 - pt.q),
    ))
    recs.append(IdentityRecord(
        id="INTRO-4",
        description="prod over odd n ((1+q^n)/(1-q^n))^(phi(n)/n) = exp(2q/(1-q^2))",
        kind="qz", g_key="__intro4__", z_fixed=mpf(1),
        closed_rhs=lambda pt: 2 * pt.q / (1 - pt.q**2),
    ))

    # main theorem / corollary with a generic pair g = d, f = 1*d
    recs += _pair("THM-2.2", "THM-2.3", "product form over (q^{nz};q^n) with g=d vs f=1*d",
                  "std:divisor_d", "conv_one_d")
    recs += _pair("COR-2.7", "COR-2.8", "plain-weight product with h-transform of f=d",
                  "h_of_d", "std:divisor_d", weight="plain")
    recs += _pair("REM-2.9", "REM-2.10", "gcd-sum exponent (g=mu) vs f=1*mu",
                  "gcdsum_mu", "unit_e", weight="plain")
    recs += _pair("REM-2.13-a", "REM-2.14-a", "multiplicative kernel f(p)=1/p: g=mu/n vs phi/n",
                  "mu_over_n", "phi_over_n")
    recs += _pair("REM-2.13-b", "REM-2.14-b", "multiplicative kernel f(p)=p^2: g=mu n^2",
                  "mu_nsq", "prod1mp2")

    recs.append(IdentityRecord(
        id="EQ2.6", description="triple divisor-sum equality, exact integers",
        kind="exact", exact_check=_check_eq_triple,
    ))
    recs.append(IdentityRecord(
        id="EQ2.12", description="J_{a+1}(n) = gcd-sum of J_a, exact",
        kind="exact", exact_check=_check_jordan_gcd,
    ))
    recs.append(IdentityRecord(
        id="EQ2.12-real", description="the gcd-sum identity at real order a=0.5",
        kind="exact", exact_check=_check_jordan_gcd_real,
    ))

    # Mobius family
    recs.append(IdentityRecord(
        id="EQ3.1", description="g=mu product equals exp(-q^z/(1-q))", kind="qz",
        g_key="std:mobius",
        closed_rhs=lambda pt: -pt.qz() / (1 - pt.q),
    ))
    recs.append(IdentityRecord(
        id="EQ3.2", description="g=mu alternating form equals exp(q^z/(1+q))", kind="qz",
        g_key="std:mobius", form="B",
        closed_rhs=lambda pt: pt.qz() / (1 + pt.q),
    ))
    recs += _pair("EQ3.3", "EQ3.4", "g=2^omega mu vs f=(-1)^omega",
                  "two_pow_omega_mu", "std:neg_one_pow_omega")
    recs += _pair("EQ3.5", "EQ3.6", "g=|mu| vs f=2^omega", "std:mobius_abs", "std:two_pow_omega")

    # von Mangoldt family
    recs += _pair("EQ3.7", "EQ3.8", "g=Lambda vs f=log n", "std:mangoldt", "log_n")
    recs += _pair("EQ3.9", "EQ3.10", "g=mu log n vs f=Lambda (sign-flipped)",
                  "mu_log", "std:mangoldt", sign=1)

    # Euler totient family
    recs += _pair("EQ3.11", "EQ3.12", "g=phi vs f=n", "std:totient", "id")
    recs += _pair("EQ3.13", "EQ3.14", "g=mu/n vs f=phi/n", "mu_over_n", "phi_over_n")
    recs += _pair("EQ3.15", "EQ3.16", "g=mu^2/phi vs f=n/phi", "mu2_over_phi", "n_over_phi")

    # Jordan totient family, k in {1, 2, 3}
    for k in (1, 2, 3):
        recs += _pair(f"EQ3.17-k{k}", f"EQ3.18-k{k}", f"g=J_{k} vs f=n^{k}",
                      f"std:jordan:{k}", f"pow:{k}")
        recs += _pair(f"EQ3.19-k{k}", f"EQ3.20-k{k}", f"g=mu/n^{k} vs f=J_{k}/n^{k}",
                      f"mu_over_pow:{k}", f"jk_over_pow:{k}")
        recs += _pair(f"EQ3.21-k{k}", f"EQ3.22-k{k}", f"g=|mu|/n^{k} vs f=J_{2*k}/(n^{k} J_{k})",
                      f"absmu_over_pow:{k}", f"j2k_ratio:{k}")

    # divisor family
    recs += _pair("EQ3.23", "EQ3.24", "g=2^omega vs f=d(n^2)",
                  "std:two_pow_omega", "std:divisor_d_sq")
    recs += _pair("EQ3.25", "EQ3.26", "g=d(n^2) vs f=d(n)^2", "std:divisor_d_sq", "d_squared")
    for s, tagf in ((-1, "-1"), (0.5, "0.5")):
        recs += _pair(f"EQ3.27-s{tagf}", f"EQ3.28-s{tagf}", f"g=n^s vs f=sigma_s, s={s}",
                      f"pow:{tagf}", f"std:sigma:{tagf}")

    # Liouville family (the series side runs over square indices)
    recs += _pair("EQ3.29", "EQ3.30", "g=lambda vs f=[n is square]", "std:liouville", "issquare")

    # Ramanujan sums, v in {1, 4, 6, 12}
    for v in (1, 4, 6, 12):
        recs += _pair(f"EQ3.31-v{v}", f"EQ3.32-v{v}", f"g=c_n({v}) vs finite divisor sum",
                      f"std:ramanujan:{v}", f"divides:{v}")

    # sums of squares: residue-class products as signed-table evaluations
    recs += _pair("EQ3.33", "EQ3.34", "r_2 residue-class ratio: g=-4 chi_1 vs f=-r_2",
                  "neg4chi1", "neg_r2")
    recs += _pair("EQ3.35", "EQ3.36", "three-residue-class product vs f=r_4/8",
                  "not_div4", "r4_over8", weight="plain", f_weight="over_n")
    recs += _pair("EQ3.37", "EQ3.38", "odd-index product vs odd-divisor sum",
                  "odd_ind", "odd_sigma", weight="plain", f_weight="over_n")
    # the parity-split pair: both tables change sign between the two forms
    recs.append(IdentityRecord(
        id="EQ3.39", description="parity-split squared exponents vs signed cube sums",
        kind="qz", g_key="signed_nsq", f_key="neg_signed_cube", weight="plain",
        f_weight="over_n",
    ))
    recs.append(IdentityRecord(
        id="EQ3.40", description="alternating parity-split form", kind="qz",
        g_key="neg_signed_nsq", f_key="signed_cube", form="B", weight="plain",
        f_weight="over_n", rhs_sign=1,
    ))

    # core function
    recs += _pair("EQ3.41", "EQ3.42", "g=phi |mu| vs f=core gamma",
                  "std:phi_abs_mu", "std:core_gamma")

    # generalized Mobius mu_k, k in {1, 2, 3}
    for k in (1, 2, 3):
        recs += _pair(f"EQ3.43-k{k}", f"EQ3.44-k{k}", f"g=mu_{k} vs f=(1+e^(i pi/{k}))^omega",
                      f"std:mu_k:{k}", f"f_muk:{k}")

    return recs


def _registry(cache, index, build, what, *id):
    """A copy of a registry's records sorted by id, or given an ``id`` the
    record of that id; built on first use into ``cache`` and its id
    ``index``, both filled in place."""
    if not cache:
        cache.extend(sorted(build(), key=lambda r: r.id))
        index.update((r.id, r) for r in cache)
    if not id:
        return list(cache)
    try:
        return index[id[0]]
    except KeyError:
        raise UnknownIdError(f"unknown {what} id {id[0]!r}") from None


def catalog():
    """All identity records, sorted by id."""
    return _registry(_catalog_cache, _catalog_index, _build_catalog, "identity")


def lookup(id: str) -> IdentityRecord:
    return _registry(_catalog_cache, _catalog_index, _build_catalog, "identity", id)


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
    return prod


def _t_3_3a():
    return mp.exp(-_euler_product(lambda p: mpf(p * p - 2) / (p * p - 1)))


def _t_3_7a():
    A = glaisher()
    return (2 * mp.pi * mp.exp(euler_gamma()) / A**12) ** (mp.pi**2 / 6)


def _t_3_9a():
    A = glaisher()
    return A**12 / (2 * mp.pi * mp.exp(euler_gamma()))


def _t_3_15a():
    return mp.exp(-_euler_product(lambda p: 1 + mpf(p) / ((p - 1) * (p * p - 1))))


def _t_3_33_1():
    return mp.exp(mpf(2) / 3 * mp.pi**2 * catalan())


def _t_3_43a(k):
    if k == 1:
        return mp.exp(mpf(-1))
    w = 1 + mp.expjpi(mpf(1) / k)
    return mp.exp(-_euler_product(lambda p: 1 + w / mpf(p * p - 1)))


_limit_cache: list = []
_limit_index: dict = {}


def __getattr__(name):
    # LimitTarget is loaded on first use, so that only limit work imports
    # dataclasses (see _limit_target)
    if name == "LimitTarget":
        from ._limit_target import LimitTarget
        return LimitTarget
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _build_limits():
    from ._limit_target import LimitTarget as _L

    recs = [
        _L(id="EQ3.1a", description="scaled mu-product limit",
           f_key="unit_e", form="A", target_fn=lambda: mp.exp(mpf(-1))),
        _L(id="EQ3.2a", description="alternating mu-form limit",
           f_key="unit_e", form="B", sign=1, target_fn=lambda: mp.exp(mpf("0.5"))),
        _L(id="EQ3.3a", description="(-1)^omega limit",
           f_key="std:neg_one_pow_omega", form="A", target_fn=_t_3_3a),
        _L(id="EQ3.5a", description="2^omega limit",
           f_key="std:two_pow_omega", form="A",
           sing=((1, 2), (2, 1), (3, 0)),
           target_fn=lambda: mp.exp(mpf("-2.5"))),
        _L(id="EQ3.7a", description="log n limit",
           f_key="log_n", form="A", sing=((1, 2), (2, 1), (3, 0)),
           target_fn=_t_3_7a),
        _L(id="EQ3.9a", description="von Mangoldt limit (sign-flipped)",
           f_key="std:mangoldt", form="A", sign=1, target_fn=_t_3_9a),
        _L(id="EQ3.13-1", description="phi/n limit",
           f_key="phi_over_n", form="A",
           target_fn=lambda: mp.exp(-zeta(2) / zeta(3))),
        _L(id="EQ3.15a", description="n/phi limit",
           f_key="n_over_phi", form="A", sing=((1, 1), (2, 1), (3, 0)),
           target_fn=_t_3_15a),
        _L(id="EQ3.17a-k0.5", description="n^k limit, k=0.5",
           f_key="pow:0.5", form="A",
           sing=(("0.5", 0), (1, 0), ("1.5", 0), (2, 0), ("2.5", 0)),
           target_fn=lambda: mp.exp(-zeta(mpf("1.5")))),
        _L(id="EQ3.18a-k-0.5", description="alternating n^k limit, k=-0.5",
           f_key="pow:-0.5", form="B", sign=1,
           sing=(("0.5", 0), (1, 0), ("1.5", 0), (2, 0), ("2.5", 0)),
           target_fn=lambda: mp.exp(zeta(mpf("1.5")) / 2)),
        _L(id="EQ3.19a-k1", description="J_k/n^k limit, k=1",
           f_key="jk_over_pow:1", form="A",
           target_fn=lambda: mp.exp(-zeta(2) / zeta(3))),
        _L(id="EQ3.21a-k1", description="J_2k ratio limit, k=1",
           f_key="j2k_ratio:1", form="A",
           target_fn=lambda: mp.exp(-zeta(2) * zeta(3) / zeta(6))),
        _L(id="EQ3.23a", description="d(n^2) limit",
           f_key="std:divisor_d_sq", form="A", sing=((1, 2), (2, 1), (3, 0)),
           target_fn=lambda: mp.exp(-5 * mp.pi**2 / 12)),
        _L(id="EQ3.25a", description="d(n)^2 limit",
           f_key="d_squared", form="A", sing=((1, 3), (2, 0), (3, 0)),
           target_fn=lambda: mp.exp(-5 * mp.pi**4 / 72)),
        _L(id="EQ3.27-1-s-1", description="sigma_s limit, s=-1",
           f_key="std:sigma:-1", form="A",
           target_fn=lambda: mp.exp(-zeta(2) * zeta(3))),
        _L(id="EQ3.29-1", description="Liouville limit (sign-corrected target)",
           f_key="issquare", form="A",
           target_fn=lambda: mp.exp(-mp.pi**4 / 90)),
        _L(id="EQ3.30-1", description="alternating Liouville limit",
           f_key="issquare", form="B", sign=1,
           sing=(("0.5", 0), (1, 0), ("1.5", 0), (2, 0)),
           target_fn=lambda: mp.exp(mp.pi**2 / 12)),
        _L(id="EQ3.31-1-v6", description="Ramanujan-sum limit, v=6",
           f_key="divides:6", form="A", target_fn=lambda: mp.exp(mpf(-2))),
        _L(id="EQ3.32-1-v4", description="alternating Ramanujan-sum limit, v=4",
           f_key="divides:4", form="B", sign=1,
           target_fn=lambda: mp.exp(mpf("1.5"))),
        _L(id="EQ3.33-1", description="r_2 limit",
           f_key="std:r2", form="A", sign=1, sing=((1, 1), (2, 1), (3, 0)),
           target_fn=_t_3_33_1),
        _L(id="EQ3.43a-k1", description="mu_k limit, k=1",
           f_key="f_muk:1", form="A", target_fn=lambda: _t_3_43a(1)),
        _L(id="EQ3.43a-k2", description="mu_k limit, k=2",
           f_key="f_muk:2", form="A", sing=((1, 1), (2, 1), (3, 0)),
           target_fn=lambda: _t_3_43a(2)),
        _L(id="EQ3.43a-k3", description="mu_k limit, k=3",
           f_key="f_muk:3", form="A", sing=((1, 1), (2, 1), (3, 0)),
           target_fn=lambda: _t_3_43a(3)),
        # stated divergence / vanishing verdicts
        _L(id="EQ3.6-lim", description="alternating |mu| form diverges",
           f_key="std:two_pow_omega", form="B", sign=1, verdict=DIVERGES),
        _L(id="EQ3.8-lim", description="alternating Lambda form diverges",
           f_key="log_n", form="B", sign=1, verdict=DIVERGES),
        _L(id="EQ3.10-lim", description="alternating mu log form vanishes",
           f_key="std:mangoldt", form="B", sign=-1, verdict=TO_ZERO),
        _L(id="EQ3.12-lim", description="scaled phi product vanishes",
           f_key="id", form="A", verdict=TO_ZERO),
        _L(id="EQ3.12b-lim", description="alternating phi form diverges",
           f_key="id", form="B", sign=1, verdict=DIVERGES),
        _L(id="EQ3.14-lim", description="alternating phi/n form diverges",
           f_key="phi_over_n", form="B", sign=1, verdict=DIVERGES),
        _L(id="EQ3.16-lim", description="alternating n/phi form diverges",
           f_key="n_over_phi", form="B", sign=1, verdict=DIVERGES),
        _L(id="EQ3.24-lim", description="alternating d(n^2) form diverges",
           f_key="std:divisor_d_sq", form="B", sign=1, verdict=DIVERGES),
        _L(id="EQ3.26-lim", description="alternating d(n)^2 form diverges",
           f_key="d_squared", form="B", sign=1, verdict=DIVERGES),
        _L(id="EQ3.34-lim", description="alternating r_2 form diverges",
           f_key="std:r2", form="B", sign=1, verdict=DIVERGES),
    ]
    return recs


def limit_targets():
    """All limit records, sorted by id."""
    return _registry(_limit_cache, _limit_index, _build_limits, "limit")


def limit_lookup(id: str) -> LimitTarget:
    return _registry(_limit_cache, _limit_index, _build_limits, "limit", id)


# ---------------------------------------------------------------------------
# limit engine

_LIMIT_J = tuple(range(3, 11))
# the ladder x_j = 2^-j = 1 - q_j, exact at every precision
_LIMIT_X = tuple(mp.ldexp(1, -j) for j in _LIMIT_J)
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


def _limit_exponent(rec: LimitTarget, x, abs_tol):
    """The log of the limit statistic at q = 1 - x, to within abs_tol."""
    scale = x if rec.form == "A" else mpf(1)
    kern = _series_kernel(rec.form, "over_n")
    s = _with_table(rec.f_key, lambda f: lambert_sum(
        f, kern, QPoint(1 - x, 1), tol=abs_tol / scale, max_terms=2 * DEFAULT_MAX_TERMS))
    return rec.sign * scale * s.value


def limit_check(id: str, limit_tol=DEFAULT_LIMIT_TOL) -> LimitReport:
    """Extrapolate the q->1 limit (or confirm a divergence verdict).

    A convergent record passes iff rel_err <= limit_tol; its err_estimate,
    an estimate and not a bound, is reported but decides nothing."""
    rec = limit_lookup(id)
    limit_tol = _positive(limit_tol, "limit_tol")
    if rec.verdict:
        return _divergence_check(rec)

    # the point nearest 1 first: it fetches the longest table, which the
    # other points then slice instead of rebuilding it at each doubling of N*
    ys = [_limit_exponent(rec, x, mpf("1e-13")) for x in reversed(_LIMIT_X)][::-1]
    qs = [1 - x for x in _LIMIT_X]
    # extrapolate toward x = 0 (nodes must decrease toward the target)
    if rec.sing:
        Lstar, err_L = basis_extrapolate(_LIMIT_X, ys, _sing_basis(rec.sing))
    else:
        Lstar, err_L = richardson_extrapolate(_LIMIT_X, ys)
    estimate = mp.exp(Lstar)
    est_err = abs(estimate) * mp.expm1(err_L) if err_L < 50 else mp.inf
    target = rec.target_fn()
    rel = abs(estimate - target) / abs(target)
    return LimitReport(
        id=rec.id, q_grid=qs, raw_values=[mp.exp(y) for y in ys],
        estimate=estimate, target_value=target, rel_err=rel,
        err_estimate=est_err, passed=rel <= limit_tol, mode="extrapolation",
    )


def _divergence_check(rec: LimitTarget) -> LimitReport:
    """Threshold escape, or a monotone-trend certificate for log-divergence."""
    want = 1 if rec.verdict == DIVERGES else -1
    qs, Ls = [], []
    for x in _LIMIT_X:
        Ls.append(_limit_exponent(rec, x, mpf("1e-6")))
        qs.append(1 - x)
        v = mp.exp(Ls[-1])
        if (v > _ESCAPE_HI if want > 0 else v < _ESCAPE_LO):
            passed, mode, note = True, "escape", ""
            break
    else:
        diffs = [b - a for a, b in zip(Ls, Ls[1:])]
        sustained = (abs(diffs[-1]) >= _TREND_MIN_STEP
                     and abs(diffs[-1]) >= mpf("0.8") * abs(diffs[-2]))
        passed = all(want * d > 0 for d in diffs) and sustained
        mode, note = "trend", ("threshold not reached on the scan grid; "
                               "monotone-trend certificate applied")
    return LimitReport(
        id=rec.id, q_grid=qs, raw_values=[mp.exp(L) for L in Ls],
        estimate=mp.exp(Ls[-1]), target_value=None, rel_err=None,
        err_estimate=None, passed=passed, mode=mode, note=note,
    )


def limit_check_all(limit_tol=DEFAULT_LIMIT_TOL):
    limit_tol = _positive(limit_tol, "limit_tol")
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
        if isinstance(v, (int, Fraction)):
            v = arith.as_mpf(v)
        if isinstance(v, mpc) or v < 0:
            nonneg = False
        ratio = abs(v) * mp.log(n + 1) ** 2 / n
        sup = max(sup, ratio)
    return {"id": id, "f_key": rec.f_key, "nonnegative": nonneg,
            "sup_ratio": sup, "range": N}
