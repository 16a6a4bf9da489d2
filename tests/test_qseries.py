"""Certified q-series primitives against independent oracles."""

import dataclasses
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpf_kernels import (
    oracle_log_qpoch_inf,
    oracle_qpoch_inf_direct,
    oracle_weighted_product_log,
)
from mpmath import mp, mpf, mpc

from lambertq import qseries
from lambertq.arith import FunctionId, build_table, dirichlet_convolve
from lambertq.numerics import ConvergenceError, DomainError, precision, set_precision
from lambertq.qseries import (
    E_q,
    E_q_series,
    KernelForm,
    QPoint,
    SeriesValue,
    TableTooShortError,
    dedekind_eta,
    e_q,
    e_q_series,
    lambert_sum,
    log_qpoch_inf,
    q_binomial_check,
    q_gamma,
    qpoch_inf_direct,
    qpoch_n,
    theta_sum,
    triple_product,
    weierstrass_delta,
    weighted_product_log,
)

Q_GRID = [mpf("0.1"), mpf("0.3"), mpf("0.5"), mpf("0.7")]


@pytest.fixture(autouse=True)
def _fixed_precision():
    set_precision(128)
    yield
    set_precision(128)


def budget(*svs):
    return sum(sv.err_bound for sv in svs) + mpf(2) ** (-mp.prec + 24)


# ---------------------------------------------------------------------------
# domain types

def test_qpoint_validation():
    pt = QPoint("0.5", mpc(2, 0))
    assert isinstance(pt.z, mpf)  # real-axis z is demoted to mpf
    for bad_q in ("0", "1", "1.2", "-0.1"):
        with pytest.raises(DomainError):
            QPoint(bad_q, 1)
    with pytest.raises(DomainError):
        QPoint("0.5", mpc(-1, 2))


def test_kernel_form_validation():
    with pytest.raises(DomainError):
        KernelForm("times", "over_n")
    with pytest.raises(DomainError):
        KernelForm("minus", "sqrt")


def test_series_value_rejects_bad_bounds():
    with pytest.raises(ValueError):
        SeriesValue(mpf(1), mpf(-1), 3)
    with pytest.raises(ValueError):
        SeriesValue(mpf(1), mp.inf, 3)


# ---------------------------------------------------------------------------
# q-Pochhammer primitives

# a fixed sample: q near 0, near 1 and complex; z real, negative, complex,
# and |z| = 0.95 (0.57^2 + 0.76^2 = 0.95^2)
LOG_Q = Q_GRID + [mpf("0.9"), mpf("0.99"), mpc("0.3", "0.4")]
LOG_Z = [mpf("0.3"), mpf("-0.6"), mpc("0.2", "0.4"), mpf("0.95"), mpf("-0.95"),
         mpc("0.57", "0.76")]


@pytest.mark.parametrize("q", LOG_Q)
@pytest.mark.parametrize("z", LOG_Z)
def test_log_qpoch_against_mpmath(q, z):
    sv = log_qpoch_inf(z, q)
    ref = oracle_log_qpoch_inf(z, q)
    assert sv.terms_used == ref.terms_used
    assert abs(sv.value - ref.value) <= sv.err_bound + ref.err_bound
    oracle = mpmath.qp(z, q, maxterms=10**6)
    assert abs(mp.exp(sv.value) - oracle) <= abs(oracle) * mp.expm1(sv.err_bound) \
        + mpf(2) ** (-mp.prec + 24)


# each entry is an (a, q) pair: |a| >= 1 and |a| < 1, real and complex q,
# and (q;q)_inf = 7.4e-713 at q = 0.999, which only a running exponent holds
DIRECT_SAMPLE = [
    (mpf(2), mpf("0.4")), (mpf("-3.5"), mpf("0.4")), (mpc(1, 1), mpf("0.4")),
    (mpf(2), mpf("0.9")), (mpf("-0.95"), mpf("0.99")), (mpf(3), mpc("0.3", "0.4")),
    (mpc("0.57", "0.76"), mpc("0.3", "0.4")), (mpf("0.999"), mpf("0.999")),
]


@pytest.mark.parametrize("a", DIRECT_SAMPLE)
def test_qpoch_direct_against_mpmath(a):
    a, q = a
    sv = qpoch_inf_direct(a, q)
    ref = oracle_qpoch_inf_direct(a, q)
    assert sv.terms_used == ref.terms_used
    assert abs(sv.value - ref.value) <= sv.err_bound + ref.err_bound
    oracle = mpmath.qp(a, q, maxterms=10**6)
    assert abs(sv.value - oracle) <= sv.err_bound + mpf(2) ** (-mp.prec + 24)


def test_kernels_fail_at_once_beyond_the_term_cap():
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError, match=r"log_qpoch_inf needs J=.* cap of 1000000"):
        log_qpoch_inf(mpf("0.5"), 1 - mpf(2) ** -30)
    with pytest.raises(ConvergenceError, match=r"qpoch_inf_direct needs J=.* cap of 1000000"):
        qpoch_inf_direct(mpf("0.5"), mpf("0.99999"))
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("q", Q_GRID)
def test_functional_equation(q):
    # (z;q)_inf = (1 - z)(zq;q)_inf
    z = mpf("0.45")
    left = log_qpoch_inf(z, q)
    right = log_qpoch_inf(z * q, q)
    lhs = mp.exp(left.value)
    rhs = (1 - z) * mp.exp(right.value)
    assert abs(lhs - rhs) <= abs(lhs) * mp.expm1(budget(left, right))


def test_qpoch_n_matches_finite_product():
    q, z = mpf("0.6"), mpf("0.8")
    for n in range(0, 6):
        finite = mp.fprod(1 - z * q**j for j in range(n))
        sv = qpoch_n(z, q, n)
        assert abs(sv.value - finite) <= sv.err_bound + mpf("1e-30")


def test_qpoch_n_complex_index_recursion():
    # (z;q)_{w+1} = (z;q)_w * (1 - z q^w)
    q, z, w = mpf("0.5"), mpf("0.3"), mpc("0.7", "0.2")
    a = qpoch_n(z, q, w + 1)
    b = qpoch_n(z, q, w)
    qw = mp.exp(w * mp.log(q))
    assert abs(a.value - b.value * (1 - z * qw)) <= budget(a, b)


# ---------------------------------------------------------------------------
# Euler q-exponentials

@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("z", [mpf("0.5"), mpf("-0.3"), mpc("0.2", "0.4")])
def test_e_q_product_vs_series(q, z):
    prod, ser = e_q(z, q), e_q_series(z, q)
    assert abs(prod.value - ser.value) <= budget(prod, ser)


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("z", [mpf("0.5"), mpf(3), mpc(2, 1)])
def test_E_q_product_vs_series(q, z):
    prod, ser = E_q(z, q), E_q_series(z, q)
    assert abs(prod.value - ser.value) <= budget(prod, ser)


@pytest.mark.parametrize("q", Q_GRID)
def test_eq_Eq_reciprocal(q):
    # e_q(z) E_q(-z) = 1
    z = mpf("0.37")
    a, b = e_q(z, q), E_q(-z, q)
    assert abs(a.value * b.value - 1) <= 2 * budget(a, b)


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("a", [mpf("0.3"), mpf(2), mpc(1, 1)])
def test_q_binomial_theorem(q, a):
    lhs, rhs = q_binomial_check(a, mpf("0.4"), q)
    assert abs(lhs.value - rhs.value) <= budget(lhs, rhs)


@pytest.mark.parametrize("q", Q_GRID)
def test_q_gamma_normalization(q):
    one = q_gamma(1, q)
    two = q_gamma(2, q)
    assert abs(one.value - 1) <= budget(one)
    assert abs(two.value - 1) <= budget(two)


def test_q_gamma_functional_equation():
    q, w = mpf("0.3"), mpf("2.6")
    a = q_gamma(w + 1, q)
    b = q_gamma(w, q)
    factor = (1 - q**w) / (1 - q)
    assert abs(a.value - factor * b.value) <= (1 + factor) * budget(a, b)


# ---------------------------------------------------------------------------
# theta functions and modular forms

@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("z", [mpf(1), mpf("0.7"), mpf(2), mpc("0.6", "0.8")])
def test_jacobi_triple_product(q, z):
    lhs, rhs = triple_product(z, q)
    assert abs(lhs.value - rhs.value) <= budget(lhs, rhs)


def test_theta_vanishes_at_product_zero():
    # the factor (sqrt(q) z;q)_inf kills the product at z = q^(-1/2)
    q = mpf("0.4")
    sv = theta_sum(1 / mp.sqrt(q), q)
    assert abs(sv.value) <= 100 * sv.err_bound + mpf("1e-30")


def test_theta_domain():
    with pytest.raises(DomainError):
        theta_sum(0, mpf("0.5"))


def test_dedekind_eta_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    sv = dedekind_eta(mpc(0, 1))
    target = mp.gamma(mpf(1) / 4) / (2 * mp.pi ** mpf("0.75"))
    assert abs(sv.value - target) <= budget(sv)


def test_dedekind_eta_inversion():
    # eta(-1/tau) = sqrt(-i tau) eta(tau) at tau = 2i
    tau = mpc(0, 2)
    a = dedekind_eta(-1 / tau)
    b = dedekind_eta(tau)
    factor = mp.sqrt(-1j * tau)
    assert abs(a.value - factor * b.value) <= abs(factor) * budget(a, b)


@pytest.mark.parametrize("tau", [mpc(0, 1), mpc("0.3", "0.8")])
def test_delta_is_eta_to_the_24(tau):
    delta = weierstrass_delta(tau)
    eta = dedekind_eta(tau)
    target = (2 * mp.pi) ** 12 * eta.value ** 24
    rel = 24 * eta.err_bound / abs(eta.value)
    assert abs(delta.value - target) <= delta.err_bound + abs(target) * mp.expm1(rel)


# ---------------------------------------------------------------------------
# Lambert sums and weighted products

def table(spec, N=2048):
    return build_table(FunctionId.parse(spec), N)


def outer_tail(f, pt, N, product=True, form="A", weight="over_n"):
    """The certified outer tail after N terms of weighted_product_log
    (``product``) or lambert_sum over the table f."""
    C, beta = f.growth
    q = pt.q
    r = q ** (pt.z.real if isinstance(pt.z, mpc) else pt.z)
    pref = mpf(C) / (1 - q)
    if product:
        pref = (2 if form == "B" else 1) * pref / (1 - r)
    return pref * qseries._poly_geom_tail(mpf(beta) - (weight == "over_n"), r, N)


def assert_minimal(sv, tail, tol=qseries.DEFAULT_TOL):
    """sv.terms_used is the smallest N >= 1 with tail(N) <= tol."""
    N = sv.terms_used
    assert tail(N) <= tol
    assert N == 1 or tail(N - 1) > tol


@pytest.mark.parametrize("q", Q_GRID)
def test_mobius_lambert_collapses_to_q(q):
    # sum mu(n) q^n/(1-q^n) = q
    sv = lambert_sum(table("mobius"), KernelForm("minus", "plain"), QPoint(q, 1))
    assert abs(sv.value - q) <= sv.err_bound + mpf(2) ** (-mp.prec + 24)


@pytest.mark.parametrize("q", Q_GRID)
def test_unit_lambert_is_log_qpoch(q):
    # sum (1/n) q^n/(1-q^n) = -log (q;q)_inf
    sv = lambert_sum(table("one"), KernelForm("minus", "over_n"), QPoint(q, 1))
    lg = log_qpoch_inf(q, q)
    assert abs(sv.value + lg.value) <= budget(sv, lg)


@pytest.mark.parametrize("q", [mpf("0.3"), mpf("0.7")])
@pytest.mark.parametrize("z", [mpf(1), mpf("1.7"), mpc(1, "0.5")])
def test_product_series_pairing_form_a(q, z):
    # the central rearrangement: log prod (q^(nz);q^n)^(g(n)/n) equals
    # -sum (1*g)(n)/n q^(nz)/(1-q^n)
    g = table("totient")
    f = dirichlet_convolve(table("one"), g)
    pt = QPoint(q, z)
    left = weighted_product_log(g, pt, form="A", weight="over_n")
    right = lambert_sum(f, KernelForm("minus", "over_n"), pt)
    assert abs(left.value + right.value) <= budget(left, right)


@pytest.mark.parametrize("q", [mpf("0.3"), mpf("0.7")])
def test_product_series_pairing_form_b(q):
    g = table("mobius")
    f = dirichlet_convolve(table("one"), g)
    pt = QPoint(q, mpf("1.2"))
    left = weighted_product_log(g, pt, form="B", weight="over_n")
    right = lambert_sum(f, KernelForm("plus", "over_n"), pt)
    assert abs(left.value - right.value) <= budget(left, right)


def test_lambert_convergence_error_reports_side():
    with pytest.raises(ConvergenceError) as exc:
        lambert_sum(table("one"), KernelForm("minus", "over_n"),
                    QPoint("0.99", 1), max_terms=50)
    assert exc.value.side == "lambert"


def test_lambert_table_too_short():
    with pytest.raises(TableTooShortError):
        lambert_sum(table("one", N=8), KernelForm("minus", "over_n"),
                    QPoint("0.9", 1))


class _Unreadable:
    def __getitem__(self, n):
        raise AssertionError(f"a short table's value {n} was read")


@pytest.mark.parametrize("evaluate", [
    lambda f: lambert_sum(f, KernelForm("minus", "over_n"), QPoint("0.9", 1)),
    lambda f: weighted_product_log(f, QPoint("0.9", mpc(1, "0.5")), form="B"),
])
def test_short_table_is_rejected_before_any_value_is_read(evaluate):
    short = dataclasses.replace(table("mobius", N=8), values=_Unreadable())
    with pytest.raises(TableTooShortError) as exc:
        evaluate(short)
    assert evaluate(table("mobius", N=exc.value.needed)).terms_used == exc.value.needed


# ---------------------------------------------------------------------------
# certificate audit: the value lies within err_bound of a reference at twice
# the precision and tol 1e-6, and the term count is the smallest certified

_PROP_TABLES = {}


def _prop_table(spec):
    if spec not in _PROP_TABLES:
        _PROP_TABLES[spec] = table(spec, N=4096)
    return _PROP_TABLES[spec]


def _points(max_q):
    """(q, z) with q = k/100 <= max_q and 0.5 <= Re z <= 3, z real or complex."""
    q = st.integers(5, int(max_q * 100)).map(lambda k: mpf(k) / 100)
    re = st.integers(50, 300).map(lambda k: mpf(k) / 100)
    im = st.integers(-200, 200).filter(bool).map(lambda k: mpf(k) / 100)
    z = st.one_of(st.sampled_from([mpf(1), mpf(2), mpf("0.5"), mpf("1.5")]), re,
                  st.builds(mpc, re, im))
    return st.builds(QPoint, q, z)


_PROP_SETTINGS = settings(max_examples=12, derandomize=True, deadline=None, database=None)
_PROP_KEYS = st.sampled_from(["mobius", "totient", "divisor_d", "liouville", "sigma:0.5",
                              "r2"])
_PROP_TOLS = st.sampled_from([mpf("1e-8"), mpf("1e-15"), mpf("1e-25"), mpf("1e-30")])
_WEIGHTS = st.sampled_from(["over_n", "plain"])


@_PROP_SETTINGS
@given(pt=_points(0.85), key=_PROP_KEYS, tol=_PROP_TOLS,
       kernel=st.sampled_from(["minus", "plus"]), weight=_WEIGHTS)
def test_lambert_sum_certificate(pt, key, tol, kernel, weight):
    f, kern = _prop_table(key), KernelForm(kernel, weight)
    sv = lambert_sum(f, kern, pt, tol=tol)
    with precision(2 * mp.prec):
        ref = lambert_sum(f, kern, pt, tol=tol * mpf("1e-6"))
        assert abs(sv.value - ref.value) <= sv.err_bound
    assert_minimal(sv, lambda N: outer_tail(f, pt, N, product=False, weight=weight), tol)


@_PROP_SETTINGS
@given(pt=_points(0.6), key=_PROP_KEYS, tol=_PROP_TOLS, form=st.sampled_from(["A", "B"]),
       weight=_WEIGHTS)
def test_weighted_product_log_certificate(pt, key, tol, form, weight):
    g = _prop_table(key)
    sv = weighted_product_log(g, pt, form=form, weight=weight, tol=tol)
    with precision(2 * mp.prec):
        ref = weighted_product_log(g, pt, form=form, weight=weight, tol=tol * mpf("1e-6"))
        assert abs(sv.value - ref.value) <= sv.err_bound
    assert_minimal(sv, lambda N: outer_tail(g, pt, N, form=form, weight=weight), tol)


def test_tightening_tol_tightens_certificate():
    pt = QPoint("0.5", 1)
    loose = lambert_sum(table("divisor_d"), KernelForm("minus", "over_n"),
                        pt, tol=mpf("1e-8"))
    tight = lambert_sum(table("divisor_d"), KernelForm("minus", "over_n"),
                        pt, tol=mpf("1e-25"))
    assert tight.terms_used >= loose.terms_used
    assert tight.err_bound < loose.err_bound
    assert abs(tight.value - loose.value) <= loose.err_bound


# ---------------------------------------------------------------------------
# the cached log(1 - q^(k/b)) table of weighted_product_log

@pytest.mark.parametrize("g_key, form", [("totient", "A"), ("mobius", "B")])
@pytest.mark.parametrize("z", [mpf(1), mpf(2), mpf("0.5")])
def test_product_table_against_mpf_loop(monkeypatch, g_key, form, z):
    def unexpected(*args, **kwargs):
        raise AssertionError("rational real z must not call log_qpoch_inf")

    monkeypatch.setattr(qseries, "log_qpoch_inf", unexpected)
    g = table(g_key)
    pt = QPoint(mpf("0.7"), z)
    new = weighted_product_log(g, pt, form=form)
    ref = oracle_weighted_product_log(g, pt, form=form)
    assert new.terms_used <= ref.terms_used
    assert_minimal(new, lambda N: outer_tail(g, pt, N, form=form))
    assert abs(new.value - ref.value) <= new.err_bound + ref.err_bound


def test_product_table_value_does_not_depend_on_cache_state():
    g = table("totient")
    pt = QPoint(mpf("0.7"), mpf("0.5"))
    key = (pt.q, 2, mp.prec)
    qseries._log_tables.pop(key, None)
    cold = weighted_product_log(g, pt, form="B")
    used = len(qseries._log_tables[key][0])

    qseries._log_tables.pop(key, None)
    # other points with b = 2 fill the (0.7, 2) table first, further than needed
    weighted_product_log(table("mobius"), QPoint(mpf("0.7"), mpf("1.5")), form="A")
    weighted_product_log(table("divisor_d"), QPoint(mpf("0.7"), mpf("0.5")), form="B",
                         weight="plain")
    assert len(qseries._log_tables[key][0]) > used
    warm = weighted_product_log(g, pt, form="B")

    with precision(192):
        weighted_product_log(g, QPoint(mpf("0.7"), mpf("0.5")), form="B")
    again = weighted_product_log(g, pt, form="B")
    assert cold == warm == again


@pytest.mark.parametrize("z", [mpf(10) ** 9, mpf(2) ** 20, mpf(200)])
def test_product_at_large_real_z_skips_the_table(z):
    # q^z is far below the tolerance: a table from Q^1 up to Q^z would hold
    # z entries to read one, so the general path takes each inner product
    g = table("mobius")
    pt = QPoint(mpf("0.5"), z)
    t0 = time.perf_counter()
    for form in ("A", "B"):
        qseries._log_tables.pop((pt.q, 1, mp.prec), None)
        new = weighted_product_log(g, pt, form=form)
        ref = oracle_weighted_product_log(g, pt, form=form)
        assert new.terms_used <= ref.terms_used
        assert_minimal(new, lambda N: outer_tail(g, pt, N, form=form))
        assert abs(new.value - ref.value) <= new.err_bound + ref.err_bound
        assert (pt.q, 1, mp.prec) not in qseries._log_tables
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("z", [mpf("0.25"), mpf("0.75"), mpf(1) / 3])
def test_product_at_other_real_z_calls_log_qpoch_inf(monkeypatch, z):
    calls = []
    orig = qseries.log_qpoch_inf

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(qseries, "log_qpoch_inf", counting)
    g = table("totient")
    pt = QPoint(mpf("0.7"), z)
    new = weighted_product_log(g, pt, form="B")
    ref = oracle_weighted_product_log(g, pt, form="B")
    assert calls
    assert new.terms_used <= ref.terms_used
    assert_minimal(new, lambda N: outer_tail(g, pt, N, form="B"))
    assert abs(new.value - ref.value) <= new.err_bound + ref.err_bound


def test_product_table_interrupted_growth_is_dropped(monkeypatch):
    class Interrupted(Exception):
        pass

    g = table("totient")
    pt = QPoint(mpf("0.7"), mpf(1))
    key = (pt.q, 1, mp.prec)
    qseries._log_tables.pop(key, None)
    cold = weighted_product_log(g, pt, form="B")

    qseries._log_tables.pop(key, None)
    weighted_product_log(g, pt, form="A")  # a shorter table than form B needs
    orig, left = qseries.mpf_log, [3]

    def failing(*args):
        left[0] -= 1
        if left[0] < 0:
            raise Interrupted
        return orig(*args)

    monkeypatch.setattr(qseries, "mpf_log", failing)
    with pytest.raises(Interrupted):
        weighted_product_log(g, pt, form="B")
    assert key not in qseries._log_tables
    monkeypatch.setattr(qseries, "mpf_log", orig)
    assert weighted_product_log(g, pt, form="B") == cold


def test_log_table_cache_caps_total_entries(monkeypatch):
    monkeypatch.setattr(qseries, "_MAX_LOG_ENTRIES", 20000)
    monkeypatch.setattr(qseries, "_log_tables", {})
    keys = [(mpf(q), 1, mp.prec) for q in ("0.99", "0.995", "0.998")]

    def total():
        return sum(len(t[0]) for t in qseries._log_tables.values())

    for key, kmax in zip(keys, (6000, 8000, 10000)):
        L = qseries._log1m_table(key[0], 1, kmax)
        assert len(L) > kmax and qseries._log_tables[key][0] is L
        assert total() <= 20000
    # the 0.99 table, the oldest, made room for the 0.998 one
    assert list(qseries._log_tables) == keys[1:]
    # a table is never dropped while it grows, even past the cap alone
    L = qseries._log1m_table(keys[2][0], 1, 25000)
    assert list(qseries._log_tables) == keys[2:] and len(L) == total() == 25001
