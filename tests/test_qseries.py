"""Certified q-series primitives against independent oracles."""

import hashlib
import inspect
import math
import os
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpf_kernels import (
    oracle_lambert_sum,
    oracle_log_qpoch_inf,
    oracle_qpoch_inf_direct,
    oracle_weighted_product_log,
)
from mpmath import mp, mpf, mpc

from lambertq import identities, qseries
from lambertq.arith import ArithTable, FunctionId, build_table, dirichlet_convolve
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
    # a real z is checked in its real form, so the message shows no 0.0j
    with pytest.raises(DomainError, match=r"got -1\.0$"):
        QPoint(mpf("0.5"), -1)
    for bad_z in (mp.inf, mpc(1, mp.inf), mpc(mp.inf, 1), mp.nan):
        with pytest.raises(DomainError, match="finite"):
            QPoint("0.5", bad_z)
    for bad_q in (mp.inf, mp.nan):
        with pytest.raises(DomainError):
            QPoint(bad_q, 1)


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


# near q = 1 the product is far below 1 in modulus (1e-1104 at a = 2,
# q = 0.999), so only a bound relative to the value certifies anything
@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("a, q", [("0.5", "0.99"), ("0.5", "0.999"), ("2", "0.999"),
                                  ("-0.5", "0.99"), ("0.3+0.2j", "0.9"), ("-3.5", "0.4")])
def test_qpoch_direct_bound_is_relative(a, q, bits):
    with precision(bits):
        a, q = mp.mpmathify(a), mpf(q)
        sv = qpoch_inf_direct(a, q)
        with precision(2 * bits):
            ref = qpoch_inf_direct(a, q)
        assert abs(sv.value - ref.value) + ref.err_bound <= sv.err_bound
        assert sv.err_bound <= mp.ldexp(abs(sv.value), 28 - bits)


def test_primitives_through_the_direct_product_keep_the_counted_scale():
    # q^w with w < 0, and a z with |a z| > 1, leave the unit disc
    assert q_gamma(mpf("-0.5"), mpf("0.3")).err_bound < 1e-37
    assert q_binomial_check(2, mpf("0.6"), mpf("0.5"))[0].err_bound < 1e-37


def _in_window(v, lt):
    """logb = v lies within _first_term's rounding window of lt."""
    return abs(v - lt) <= 1e-9 * (abs(lt) + abs(v) + 1)


def _searched_terms(lw, lq, lt, holds, name):
    """J as _linear_terms found it by _first_term's search alone, from the
    root as its guess, with the same cap and message."""
    J = qseries._first_term(lambda j: lw + j * lq, lt, holds, (lt - lw) / lq if lq else math.inf)
    if J > qseries.DEFAULT_MAX_TERMS + 1:
        raise ConvergenceError(
            f"{name} needs J={J:.6g} terms, more than the cap of {qseries.DEFAULT_MAX_TERMS}")
    return J


def _linear_cases():
    """(lw, lq, lt) with roots (lt - lw)/lq on an integer J, within 1e-9 of
    it on either side, or inside (J - 1, J), for J from 1 to past the 10^6
    cap; plus roots below 1 and lq = 0."""
    rng = random.Random("closed-form J")
    cases = [(-0.5, 0.0, -0.25), (-0.5, 0.0, -1.0), (-1.0, -0.1, -0.5), (-2.0, -3.0, 1.0)]
    for i in range(4800):
        lq = -(10.0 ** rng.uniform(-7, 1))
        lw = -(10.0 ** rng.uniform(-4, 2))
        J = (1, 2, 3, rng.randrange(4, 1000), rng.randrange(1000, 10**6),
             10**6 + rng.randrange(-3, 4))[i % 6]
        off = (0.0, 1e-13, -1e-13, 3e-10, -3e-10, -0.5, -0.01, -0.99)[i // 6 % 8]
        cases.append((lw, lq, lw + (J + off) * lq))
    return cases


def test_closed_form_J_is_the_searched_J():
    shortcuts = windows = 0
    for lw, lq, lt in _linear_cases():
        calls = []

        def holds(j):  # the exact test, in rationals
            calls.append(j)
            return Fraction(lw) + j * Fraction(lq) <= Fraction(lt)

        try:
            want = _searched_terms(lw, lq, lt, holds, "kernel")
        except ConvergenceError as exc:
            want = str(exc)
        calls.clear()
        try:
            got = qseries._linear_terms(lw, lq, lt, holds, "kernel")
        except ConvergenceError as exc:
            got = str(exc)
        assert got == want, (lw, lq, lt)
        assert all(_in_window(lw + j * lq, lt) for j in calls), (lw, lq, lt, calls)
        windows += bool(calls)
        shortcuts += not calls
    # both paths ran: the root alone, and the search with the exact test
    assert shortcuts > 1000 and windows > 1000


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


def test_triple_product_bound_keeps_a_zero_factors_bound():
    # at z = q^(-1/2) the factor (sqrt(q) z;q)_inf is 0 +- e; the product's
    # bound must still hold e times the other two factors
    q = mpf("0.4")
    sq, z = mp.sqrt(q), 1 / mp.sqrt(q)
    parts = [qpoch_inf_direct(x, q) for x in (q, sq * z, sq / z)]
    assert parts[1].value == 0
    _, rhs = triple_product(z, q)
    for i, part in enumerate(parts):
        others = mp.fprod(abs(p.value) for j, p in enumerate(parts) if j != i)
        assert rhs.err_bound >= others * part.err_bound


# each case: a call of a primitive made of direct products with a counted
# product or quotient bound, and its reference from mpmath, both on the same
# inputs; the inputs are built at the working precision and the reference
# runs at twice it
def _qbin_ref(a, z, q):
    return mpmath.qp(a * z, q) / mpmath.qp(z, q)


def _triple_ref(z, q):
    sq = mp.sqrt(q)
    return mpmath.qp(q, q) * mpmath.qp(sq * z, q) * mpmath.qp(sq / z, q)


def _eta_ref(tau):
    q = mp.exp(2j * mp.pi * tau)
    return mp.exp(2j * mp.pi * tau / 24) * mpmath.qp(q, q)


def _reference_cases():
    q3, q4, q5, q6, q7, q9 = (mpf(x) for x in ("0.3", "0.4", "0.5", "0.6", "0.7", "0.9"))
    x3, x4, x5, x6, x8 = (mpf(x) for x in ("0.3", "0.4", "0.5", "0.6", "0.8"))
    zc, n, a = mpc("0.2", "0.4"), mpc("0.7", "0.2"), mpc(2, 1)
    w1, w2, w3, w4 = mpf("2.6"), mpc("0.5", "0.3"), mpf("-0.5"), mpc("-1.5", "0.5")
    t, zero_z, tau = mpc("0.6", "0.8"), 1 / mp.sqrt(q4), mpc("0.3", "0.8")
    return {
        "qpoch_n-real": (lambda: qpoch_n(x8, q6, 5), lambda: mpmath.qp(x8, q6, 5)),
        "qpoch_n-n-zero": (lambda: qpoch_n(x3, q5, 0), lambda: mpf(1)),
        "qpoch_n-q-0.9": (lambda: qpoch_n(x5, q9, 3), lambda: mpmath.qp(x5, q9, 3)),
        "qpoch_n-complex-z": (lambda: qpoch_n(zc, q5, 3), lambda: mpmath.qp(zc, q5, 3)),
        "qpoch_n-complex-n": (lambda: qpoch_n(x3, q5, n),
                              lambda: mpmath.qp(x3, q5) / mpmath.qp(x3 * q5**n, q5)),
        "e_q-real": (lambda: e_q(x5, q7), lambda: 1 / mpmath.qp(x5, q7)),
        "e_q-complex": (lambda: e_q(zc, q7), lambda: 1 / mpmath.qp(zc, q7)),
        "E_q-real": (lambda: E_q(x5, q3), lambda: mpmath.qp(-x5, q3)),
        "E_q-complex": (lambda: E_q(-zc, q7), lambda: mpmath.qp(zc, q7)),
        "E_q-outside-unit-disc": (lambda: E_q(a, q5), lambda: mpmath.qp(-a, q5)),
        "q_gamma-real": (lambda: q_gamma(w1, q3), lambda: mpmath.qgamma(w1, q3)),
        "q_gamma-complex": (lambda: q_gamma(w2, q7), lambda: mpmath.qgamma(w2, q7)),
        "q_gamma-re-w-negative": (lambda: q_gamma(w3, q3), lambda: mpmath.qgamma(w3, q3)),
        "q_gamma-re-w-negative-complex": (lambda: q_gamma(w4, q5),
                                          lambda: mpmath.qgamma(w4, q5)),
        "q_binomial-real": (lambda: q_binomial_check(x3, x4, q5)[0],
                            lambda: _qbin_ref(x3, x4, q5)),
        "q_binomial-complex": (lambda: q_binomial_check(mpc(1, 1), zc, q3)[0],
                               lambda: _qbin_ref(mpc(1, 1), zc, q3)),
        "q_binomial-az-outside-unit-disc": (lambda: q_binomial_check(2, x6, q5)[0],
                                            lambda: _qbin_ref(2, x6, q5)),
        "q_binomial-az-outside-complex": (lambda: q_binomial_check(a, zc, q7)[0],
                                          lambda: _qbin_ref(a, zc, q7)),
        "triple_product-complex": (lambda: triple_product(t, q7)[1], lambda: _triple_ref(t, q7)),
        "triple_product-real": (lambda: triple_product(2, q3)[1], lambda: _triple_ref(2, q3)),
        "triple_product-zero": (lambda: triple_product(zero_z, q4)[1],
                                lambda: _triple_ref(zero_z, q4)),
        # eta(i) = Gamma(1/4) / (2 pi^(3/4))
        "weierstrass_delta": (lambda: weierstrass_delta(mpc(0, 1)),
                              lambda: (2 * mp.pi) ** 12
                              * (mp.gamma(mpf(1) / 4) / (2 * mp.pi ** (mpf(3) / 4))) ** 24),
        "dedekind_eta-i": (lambda: dedekind_eta(mpc(0, 1)),
                           lambda: mp.gamma(mpf(1) / 4) / (2 * mp.pi ** (mpf(3) / 4))),
        "dedekind_eta-complex": (lambda: dedekind_eta(tau), lambda: _eta_ref(tau)),
    }


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("case", sorted(_reference_cases()))
def test_primitive_within_its_bound_of_twice_the_precision(case, bits):
    with precision(bits):
        call, ref = _reference_cases()[case]
        sv = call()
        with precision(2 * bits):
            exact = ref()
        assert abs(sv.value - exact) <= sv.err_bound


# near q = 1, where the cases above stop at q = 0.9, each primitive is one
# or two direct products of up to about 3.6e5 factors (q = 0.999 at 512
# bits); the q-binomial series side, unused here, stops at the first n
# whose term ratio bound rho_n is below 1
NEAR_ONE = {
    "e_q": (e_q, "0.5"),
    "E_q-inside-unit-disc": (E_q, "0.5"),
    "E_q-outside-unit-disc": (E_q, "2"),
    "qpoch_n": (lambda z, q: qpoch_n(z, q, mpf("40.5")), "0.5"),
    "q_gamma": (q_gamma, "-0.5"),
    "q_binomial": (lambda z, q: q_binomial_check(mpf("0.375"), z, q, tol=mpf("1e300"))[0], "0.4"),
}


@pytest.mark.parametrize("q", ["0.99", "0.999"])
@pytest.mark.parametrize("case", sorted(NEAR_ONE))
def test_primitive_bound_is_relative_near_one(case, q):
    # the inputs are 64-bit numbers, so one reference at 512 bits, twice the
    # highest precision checked, serves all three
    call, x = NEAR_ONE[case]
    with precision(64):
        x, q = mpf(x), mpf(q)
    with precision(512):
        ref = call(x, q)
    for bits in (64, 128, 256):
        with precision(bits):
            sv = call(x, q)
            assert abs(sv.value - ref.value) + ref.err_bound <= sv.err_bound, bits
            assert sv.err_bound <= mp.ldexp(abs(sv.value), 28 - bits), bits


# triple_product's right side near q = 1: sqrt(q) z and sqrt(q)/z enter its
# direct products with their rounding, so the bound stays relative
@pytest.mark.parametrize("q, z", [("0.99", "0.7"), ("0.99", "2"), ("0.99", "0.6+0.8j"),
                                  ("0.999", "0.7"), ("0.999", "2")])
def test_triple_product_bound_is_relative_near_one(q, z):
    with precision(64):
        q, z = mpf(q), mp.mpmathify(z)
    with precision(512):
        ref = triple_product(z, q)[1]
    for bits in (64, 128, 256):
        with precision(bits):
            sv = triple_product(z, q)[1]
            assert abs(sv.value - ref.value) + ref.err_bound <= sv.err_bound, bits
            assert sv.err_bound <= mp.ldexp(abs(sv.value), 64 - bits), bits


# each cross-check series against its product at 512 bits, on inputs
# parsed at 64 bits: near q = 1 and under cancellation the series' counted
# bound must still hold the difference
CROSS_CHECKS = {
    "e_q_series-0.9": (e_q_series, e_q, "-0.9", "0.9"),
    "e_q_series-0.99": (e_q_series, e_q, "-0.9", "0.99"),
    "E_q_series-0.9": (E_q_series, E_q, "-3", "0.9"),
    "E_q_series-0.99": (E_q_series, E_q, "-3", "0.99"),
    "E_q_series-complex": (E_q_series, E_q, "2+1j", "0.9"),
    "q_binomial-0.9": (lambda x, q: q_binomial_check(3, x, q)[1],
                       lambda x, q: q_binomial_check(3, x, q)[0], "-0.9", "0.9"),
    "q_binomial-0.99": (lambda x, q: q_binomial_check(3, x, q)[1],
                        lambda x, q: q_binomial_check(3, x, q)[0], "-0.9", "0.99"),
    "q_binomial-complex": (lambda x, q: q_binomial_check(mpc(1, 1), x, q)[1],
                           lambda x, q: q_binomial_check(mpc(1, 1), x, q)[0], "0.4", "0.9"),
    "theta_sum-0.99": (theta_sum, lambda x, q: triple_product(x, q)[1], "2", "0.99"),
    "theta_sum-complex": (theta_sum, lambda x, q: triple_product(x, q)[1], "0.6+0.8j", "0.9"),
    "theta_sum-0.999": (theta_sum, lambda x, q: triple_product(x, q)[1], "0.7", "0.999"),
}


@pytest.mark.parametrize("case", sorted(CROSS_CHECKS))
def test_cross_check_within_its_bound_of_the_product(case):
    call, ref, x, q = CROSS_CHECKS[case]
    with precision(64):
        x, q = mp.mpmathify(x), mpf(q)
    with precision(512):
        exact = ref(x, q)
    for bits in (64, 128, 256):
        with precision(bits):
            sv = call(x, q)
            assert abs(sv.value - exact.value) <= sv.err_bound + exact.err_bound, bits


def test_cross_checks_call_no_product(monkeypatch):
    # the series take their tails from the term ratio alone
    def forbidden(*args, **kwargs):
        raise AssertionError("a cross-check called a product or _roundoff")

    for name in ("_direct", "qpoch_inf_direct", "_roundoff"):
        monkeypatch.setattr(qseries, name, forbidden)
    e_q_series(mpf("-0.9"), mpf("0.9"))
    E_q_series(mpc(2, 1), mpf("0.9"))
    theta_sum(mpc("0.6", "0.8"), mpf("0.9"))
    qseries._ratio_series(mpf("0.4"), 3, mpf("0.9"), 0, 1, mpf("1e-30"), "q-binomial series")


def test_real_inner_products_skip_the_complex_core(monkeypatch):
    # real z and q take _log_qpoch_real alone; only complex ones reach _log_qpoch
    class Forbidden(Exception):
        pass

    def forbidden(*args, **kwargs):
        raise Forbidden

    monkeypatch.setattr(qseries, "_log_qpoch", forbidden)
    g = identities._build_named("std:mobius", 512)
    q = mpf("0.7")
    for form in "AB":
        weighted_product_log(g, QPoint(q, mpf("0.5")), form=form)
        with pytest.raises(Forbidden):
            weighted_product_log(g, QPoint(q, mpc(1, "0.5")), form=form)
    log_qpoch_inf(mpf("-0.6"), q)
    for z, base in ((mpc("0.2", "0.4"), q), (mpf("0.3"), mpc("0.3", "0.4"))):
        with pytest.raises(Forbidden):
            log_qpoch_inf(z, base)


@pytest.mark.parametrize("form", "AB")
def test_complex_inner_routine_keeps_the_real_contract(form):
    # _log_qpoch takes _log_qpoch_real's arguments with b, w and v as int
    # pairs; given real ones it returns the same J and Jv with im = 0, and
    # in form A the same log.  Form B's numerator and denominator it may log
    # apart, so there the two logs agree within their two round-off bounds
    params = inspect.signature(qseries._log_qpoch).parameters
    assert params == inspect.signature(qseries._log_qpoch_real).parameters
    F, tol = mp.prec + qseries._GUARD, mpf(2) ** -mp.prec
    for q in map(mpf, ("0.1", "0.3", "0.5", "0.7", "0.9", "0.99")):
        base = q if form == "A" else q * q
        b, lb = qseries._fx(base, F)[0], qseries._ln(base)
        for z in map(mpf, ("0.5", "1", "2", "3.5", "7")):
            xs = (q**z,) if form == "A" else (q ** (z + 1), q**z)

            def holds(k, j, xs=xs):
                return qseries._qpoch_tail(xs[k], base, j) <= tol

            seqs = [(qseries._fx(x, F)[0], qseries._ln(x),
                     -qseries._ln1m(base) - qseries._ln1m(x), 1.0) for x in xs]
            real = qseries._log_qpoch_real(b, lb, qseries._ln(tol), F, 1.0, holds, "test",
                                           *(a for seq in seqs for a in seq))
            pairs = qseries._log_qpoch((b, 0), lb, qseries._ln(tol), F, 1.0, holds, "test",
                                       *(a for x, *rest in seqs for a in ((x, 0), *rest)))
            assert len(real) == len(pairs) == 6
            assert pairs[1:4] == real[1:4] and real[1] == 0
            if form == "A":
                assert pairs[0] == real[0]
            else:
                assert abs(pairs[0] - real[0]) <= (pairs[4] + real[4]) * 2**qseries._GUARD


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_triple_product_sides_agree_near_one(bits):
    # the theta side's terms reach about 1e27 and cancel to about 1e-2115
    with precision(bits):
        lhs, rhs = triple_product(mpf("0.7"), mpf("0.999"))
        assert abs(lhs.value - rhs.value) <= lhs.err_bound + rhs.err_bound


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


def test_lambert_past_max_terms_is_a_convergence_error():
    with pytest.raises(ConvergenceError) as exc:
        lambert_sum(table("one"), KernelForm("minus", "over_n"),
                    QPoint("0.99", 1), max_terms=50)
    assert not isinstance(exc.value, TableTooShortError)


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
    t = table("mobius", N=8)
    short = ArithTable(t.fid, t.N, _Unreadable(), t.growth, t.exact)
    with pytest.raises(TableTooShortError) as exc:
        evaluate(short)
    assert evaluate(table("mobius", N=exc.value.needed)).terms_used == exc.value.needed


# ---------------------------------------------------------------------------
# Lambert plans: lambert_sum's set-up, kept per (q, z, precision, growth,
# kernel, tol)

def _bits(sv):
    v = sv.value
    return v._mpc_ if isinstance(v, mpc) else v._mpf_, sv.err_bound._mpf_, sv.terms_used


@pytest.fixture
def plans(monkeypatch):
    cache = {}
    monkeypatch.setattr(qseries, "_LAMBERT_PLANS", cache)
    return cache


# an mpf, an mpc and a Fraction table with one growth certificate, (2, 0.5)
_SHARED_GROWTH = ("log_n", "f_muk:2", "n_over_phi")


@pytest.mark.parametrize("key", _SHARED_GROWTH)
@pytest.mark.parametrize("z", [mpf(1), mpc(1, "0.5")])
@pytest.mark.parametrize("kernel", ["minus", "plus"])
def test_warm_plan_is_bit_identical_to_a_cold_one(plans, key, z, kernel):
    tables = {k: identities._build_named(k, 1024) for k in _SHARED_GROWTH}
    assert len({t.growth for t in tables.values()}) == 1
    kern, pt = KernelForm(kernel, "over_n"), QPoint("0.5", z)
    cold = lambert_sum(tables[key], kern, pt)
    plans.clear()
    for other in _SHARED_GROWTH:
        if other != key:
            lambert_sum(tables[other], kern, pt)
    assert len(plans) == 1
    assert _bits(lambert_sum(tables[key], kern, pt)) == _bits(cold)
    assert len(plans) == 1


def test_warm_plan_keeps_the_term_checks(plans):
    kern, pt = KernelForm("minus", "over_n"), QPoint("0.9", 1)
    with pytest.raises(TableTooShortError) as cold:
        lambert_sum(table("mobius", N=8), kern, pt)
    N = cold.value.needed
    with pytest.raises(TableTooShortError) as warm:
        lambert_sum(table("mobius", N=N - 1), kern, pt)
    assert warm.value.needed == N
    with pytest.raises(ConvergenceError) as exc:
        lambert_sum(table("mobius"), kern, pt, max_terms=N - 1)
    assert not isinstance(exc.value, TableTooShortError)
    assert lambert_sum(table("mobius", N=N), kern, pt).terms_used == N
    assert len(plans) == 1


def test_precision_and_tol_miss_the_plan(plans):
    f, kern, pt = table("mobius"), KernelForm("minus", "over_n"), QPoint("0.7", 1)
    lambert_sum(f, kern, pt)
    lambert_sum(f, kern, pt)
    assert len(plans) == 1
    loose = lambert_sum(f, kern, pt, tol=mpf("1e-10"))
    assert len(plans) == 2
    with precision(192):
        wide = lambert_sum(f, kern, pt)
        assert len(plans) == 3
        plans.clear()
        assert _bits(lambert_sum(f, kern, pt)) == _bits(wide)
    plans.clear()
    assert _bits(lambert_sum(f, kern, pt, tol=mpf("1e-10"))) == _bits(loose)


def test_plans_stay_within_their_cap(plans, monkeypatch):
    f, kern = table("mobius"), KernelForm("plus", "plain")
    pts = [QPoint(mpf(k) / 10, z) for k in range(1, 8) for z in (mpf(1), mpc(2, 1))]
    unbounded = [_bits(lambert_sum(f, kern, pt)) for pt in pts]
    assert len(plans) == len(pts)
    plans.clear()
    monkeypatch.setattr(qseries, "_PLAN_CAP", 4)
    for _ in range(2):
        assert [_bits(lambert_sum(f, kern, pt)) for pt in pts] == unbounded
        assert len(plans) == 4


# ---------------------------------------------------------------------------
# certificate audit: the value lies within err_bound of a reference at twice
# the precision and tol 1e-6, and the term count is the smallest certified

_PROP_TABLES = {}


def _prop_table(key):
    if key not in _PROP_TABLES:
        _PROP_TABLES[key] = identities._build_named(key, 4096)
    return _PROP_TABLES[key]


def _points(max_q):
    """(q, z) with q = k/100 <= max_q and 0.5 <= Re z <= 3, z real or complex."""
    q = st.integers(5, int(max_q * 100)).map(lambda k: mpf(k) / 100)
    re = st.integers(50, 300).map(lambda k: mpf(k) / 100)
    im = st.integers(-200, 200).filter(bool).map(lambda k: mpf(k) / 100)
    z = st.one_of(st.sampled_from([mpf(1), mpf(2), mpf("0.5"), mpf("1.5")]), re,
                  st.builds(mpc, re, im))
    return st.builds(QPoint, q, z)


_PROP_SETTINGS = settings(max_examples=12, derandomize=True, deadline=None, database=None)
# int, mpf (sigma:0.5), Fraction (phi_over_n) and mpc (mu_k:2) tables
_PROP_KEYS = st.sampled_from(["std:mobius", "std:totient", "std:divisor_d", "std:liouville",
                              "std:sigma:0.5", "std:r2", "phi_over_n", "std:mu_k:2"])
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
# the fixed-point lambert_sum against the mpf loop it replaced

# every q pairs with every table: int (mobius, r8), Fraction (phi_over_n),
# mpf (sigma:0.5) and mpc (mu_k:2); z, kernel, weight and precision rotate
_ORACLE_Q = [mpf("0.3"), mpf("0.9"), mpf("0.99"), mpf("0.999"), 1 - mpf(2) ** -10]
_ORACLE_KEYS = ["std:mobius", "std:r8", "phi_over_n", "std:sigma:0.5", "std:mu_k:2"]
_ORACLE_Z = [mpf(1), mpf(2), mpf("0.5"), mpc(1, "0.5")]
_ORACLE_SAMPLE = [
    (_ORACLE_Q[i // 5], _ORACLE_KEYS[i % 5], _ORACLE_Z[i % 4], ("minus", "plus")[i // 4 % 2],
     ("over_n", "plain")[i // 8 % 2], (64, 128, 256)[i % 3])
    for i in range(25)
]


@pytest.mark.parametrize("q, key, z, kernel, weight, bits", _ORACLE_SAMPLE,
                         ids=["-".join(str(x).replace(" ", "") for x in case)
                              for case in _ORACLE_SAMPLE])
def test_lambert_sum_against_mpf_loop(q, key, z, kernel, weight, bits):
    with precision(bits):
        pt, kern = QPoint(+q, z), KernelForm(kernel, weight)
        new, ref = identities._with_table(
            key, lambda f: (lambert_sum(f, kern, pt), oracle_lambert_sum(f, kern, pt)))
        assert new.terms_used == ref.terms_used
        assert type(new.value) is type(ref.value)
        assert abs(new.value - ref.value) <= new.err_bound + ref.err_bound
        assert new.err_bound <= mpf("1.01") * ref.err_bound


# ---------------------------------------------------------------------------
# weighted_product_log against the mpf loop: one fixed-point inner path for
# every z, real or complex

_PRODUCT_Z = [mpf(1), mpf(2), mpf("0.5"), mpf("0.25"), mpf("0.75"), mpf(1) / 3,
              mpc(1, "0.5"), mpc("0.57", "0.76")]


# int, Fraction, mpf and mpc exponent tables: each enters the fixed-point
# outer sum by its own branch, and each meets both forms and both weights
_PRODUCT_TABLES = [("std:totient", "A", "over_n"), ("std:mobius", "B", "over_n"),
                   ("phi_over_n", "A", "plain"), ("phi_over_n", "B", "over_n"),
                   ("std:sigma:0.5", "A", "over_n"), ("std:sigma:0.5", "B", "plain"),
                   ("std:mu_k:2", "A", "plain"), ("std:mu_k:2", "B", "over_n")]


@pytest.mark.parametrize("g_key, form, weight", _PRODUCT_TABLES,
                         ids=[key.removeprefix("std:") + "-" + form + "-plain" * (weight == "plain")
                              for key, form, weight in _PRODUCT_TABLES])
@pytest.mark.parametrize("z", _PRODUCT_Z)
def test_product_table_against_mpf_loop(g_key, form, weight, z):
    # each z meets both forms, and the precision rotates through 64/128/256
    bits = (64, 128, 256)[(_PRODUCT_Z.index(z) + _PRODUCT_TABLES.index((g_key, form, weight))) % 3]
    with precision(bits):
        g = identities._build_named(g_key, 2048)
        pt = QPoint(mpf("0.7"), z)
        new = weighted_product_log(g, pt, form=form, weight=weight)
        ref = oracle_weighted_product_log(g, pt, form=form, weight=weight)
        assert new.terms_used == ref.terms_used
        assert type(new.value) is type(ref.value)
        assert_minimal(new, lambda N: outer_tail(g, pt, N, form=form, weight=weight))
        assert abs(new.value - ref.value) <= new.err_bound + ref.err_bound


def test_product_near_one_against_twice_the_precision():
    pt = QPoint(mpf("0.99"), mpf("0.5"))
    sv = identities._with_table("std:mobius", lambda g: weighted_product_log(g, pt, form="B"))
    with precision(2 * mp.prec):
        ref = identities._with_table("std:mobius", lambda g: weighted_product_log(
            g, pt, form="B", tol=qseries.DEFAULT_TOL * mpf("1e-6")))
        assert abs(sv.value - ref.value) <= sv.err_bound


@pytest.mark.parametrize("z", [mpf(10) ** 9, mpf(2) ** 20, mpf(200)])
def test_product_at_large_real_z_skips_the_table(z):
    # q^z is far below the tolerance: every inner product stops at J = 1,
    # and no power of q is taken up to the exponent z
    g = table("mobius")
    pt = QPoint(mpf("0.5"), z)
    t0 = time.perf_counter()
    for form in ("A", "B"):
        new = weighted_product_log(g, pt, form=form)
        ref = oracle_weighted_product_log(g, pt, form=form)
        assert new.terms_used == ref.terms_used
        assert_minimal(new, lambda N: outer_tail(g, pt, N, form=form))
        assert abs(new.value - ref.value) <= new.err_bound + ref.err_bound
    assert time.perf_counter() - t0 < 2


# ---------------------------------------------------------------------------
# one log per inner product: the merged quotient, its series near 1 and the
# principal branch

def _real_series(t, F):
    """(-sum_k t^k/k at F bits, k) by the real loop on |t|, which _log1m runs
    unchanged for a pair with no imaginary part."""
    a, s, k = abs(t), 0, 1
    p = a
    while p:
        s += p // k if t < 0 and k & 1 else -(p // k)
        p = p * a >> F
        k += 1
    return s, k


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_log1m_pair_is_within_its_count(bits):
    F = bits + qseries._GUARD
    top = (1 << (F - 16)) - 1
    # from a few units of 2^-F up to the 2^-16 threshold, in all four quadrants
    sizes = [(3, 5), (1000, 1), (1, 7 << (F // 2)), (5 << (F - 40), 3 << (F - 38)),
             (top >> 7, top), (top, 1), (top, top)]
    for ar, ai in sizes:
        for tr, ti in ((ar, ai), (-ar, ai), (-ar, -ai), (ar, -ai)):
            re, im, units = qseries._log1m(tr, ti, F)
            with precision(2 * F + 64):
                ref = mp.log(1 - mpc(tr, ti) / mpf(2) ** F) * mpf(2) ** F
            assert abs(re - ref.real) + abs(im - ref.imag) < units
        for t in (ar, -ar):
            s, k = _real_series(t, F)
            assert qseries._log1m(t, 0, F) == (s, 0, 2 * k)
            with precision(2 * F + 64):
                assert abs(s - mp.log(1 - mpf(t) / mpf(2) ** F) * mpf(2) ** F) < 2 * k


# q = 0.9, z = 1+10i: q^z has modulus 0.9 and argument -1.05, so the first
# inner products have factors |q^(nz) q^(nj)| that sum to 9 and more
_SPLIT_Z = mpc(1, 10)


@pytest.mark.parametrize("z, q", [(mpc("0.57", "0.76"), mpf("0.99")),
                                  (mpf("0.9") ** _SPLIT_Z, mpf("0.9"))],
                         ids=["0.57+0.76j-0.99", "0.9^(1+10j)-0.9"])
def test_long_complex_products_are_logged_in_pieces(monkeypatch, z, q):
    calls, mpc_log = [], qseries.mpc_log
    monkeypatch.setattr(qseries, "mpc_log",
                        lambda x, prec, *args: calls.append(x) or mpc_log(x, prec, *args))
    sv = log_qpoch_inf(z, q)
    assert len(calls) > 1
    ref = oracle_log_qpoch_inf(z, q)
    assert sv.terms_used == ref.terms_used
    assert abs(sv.value - ref.value) <= sv.err_bound + ref.err_bound


@pytest.mark.parametrize("form", ["A", "B"])
def test_split_complex_product_against_mpf_loop(form):
    g = identities._build_named("std:mobius", 4096)
    pt = QPoint(mpf("0.9"), _SPLIT_Z)
    new = weighted_product_log(g, pt, form=form)
    ref = oracle_weighted_product_log(g, pt, form=form)
    assert new.terms_used == ref.terms_used
    assert abs(new.value - ref.value) <= new.err_bound + ref.err_bound


# ---------------------------------------------------------------------------
# bit-level pins of the four kernels

# sha256 over the mantissas of value and err_bound, and terms_used, of each
# kernel's SeriesValue at fixed points, the precision rotating through
# 64/128/256 bits; recorded before _linear_terms took J from the root and
# _log_qpoch took its real quotient of plain ints, which kept every bit
_KERNEL_DIGESTS = {
    "log_qpoch_inf": "cc8b110d838c5053cdcec18a9258b682cc3e6b31ed5a8b3e074d4494277ce114",
    "qpoch_inf_direct": "1c7cfb1f61f101c6d67dbcf04728ef05a69520c97c6adbf5c85c07bd72786646",
    "lambert_sum": "17b0008e62ffb7ea8971758fd917a5f5945a9fba9a87fc378c84a909fa961caa",
    "weighted_product_log": "71790e95eaef0eb637e2ee2e2811b3182ecd22c890e25b0dcda1c062e45bd2b9",
}
# int, Fraction, mpf and mpc tables
_PIN_TABLES = ["std:mobius", "phi_over_n", "std:sigma:0.5", "std:mu_k:2"]


def _pinned_calls(kernel):
    if kernel == "log_qpoch_inf":
        return [lambda q=q, z=z: log_qpoch_inf(z, q) for q in LOG_Q for z in LOG_Z]
    if kernel == "qpoch_inf_direct":
        return [lambda a=a, q=q: qpoch_inf_direct(a, q) for a, q in DIRECT_SAMPLE]
    calls = []
    for i, key in enumerate(_PIN_TABLES):
        f = identities._build_named(key, 2048)
        for q in (mpf("0.3"), mpf("0.7")):
            for z in _ORACLE_Z:
                pt = QPoint(q, z)
                # forms A and B; the sum's kernels minus and plus; both weights
                for j, form in enumerate("AB"):
                    weight = ("over_n", "plain")[(i + j) % 2]
                    if kernel == "lambert_sum":
                        kern = KernelForm(("minus", "plus")[j], weight)
                        calls.append(lambda f=f, kern=kern, pt=pt: lambert_sum(f, kern, pt))
                    else:
                        calls.append(lambda f=f, pt=pt, form=form, weight=weight:
                                     weighted_product_log(f, pt, form=form, weight=weight))
    return calls


@pytest.mark.parametrize("kernel", sorted(_KERNEL_DIGESTS))
def test_kernel_values_match_digest(kernel):
    h = hashlib.sha256()
    for i, call in enumerate(_pinned_calls(kernel)):
        with precision((64, 128, 256)[i % 3]):
            sv = call()
        v = sv.value
        h.update(repr((v._mpc_ if isinstance(v, mpc) else v._mpf_,
                       sv.err_bound._mpf_, sv.terms_used)).encode())
    assert h.hexdigest() == _KERNEL_DIGESTS[kernel]


# the same digest over weighted_product_log at real z, every _PIN_TABLES
# table, form and weight at each of 64/128/256 bits, q and z parsed at that
# precision; recorded while every inner product still went through _log_qpoch
_REAL_PRODUCT_DIGEST = "9d82441eeaab6f7c60e1b3568352792da8dbf9a780d47494b143b4f437f2358e"


def _product_digest(qs, zs):
    # weighted_product_log over every _PIN_TABLES table, q, z, form and
    # weight at each of 64/128/256 bits, with q and z parsed at that precision
    h = hashlib.sha256()
    for key in _PIN_TABLES:
        g = identities._build_named(key, 2048)
        for q in qs:
            for z in zs:
                for form in "AB":
                    for weight in ("over_n", "plain"):
                        for bits in (64, 128, 256):
                            with precision(bits):
                                sv = weighted_product_log(g, QPoint(mpf(q), mp.mpmathify(z)),
                                                          form=form, weight=weight)
                            v = sv.value
                            h.update(repr((v._mpc_ if isinstance(v, mpc) else v._mpf_,
                                           sv.err_bound._mpf_, sv.terms_used)).encode())
    return h.hexdigest()


def test_real_z_products_match_digest():
    assert _product_digest(("0.1", "0.5", "0.9"), ("1", "2", "0.5")) == _REAL_PRODUCT_DIGEST


# the same digest at complex z, recorded while _log_qpoch still took a list
# of signed sequences and grouped their pieces by a running budget; at
# q = 0.9 most of these products split into pieces
_COMPLEX_PRODUCT_DIGEST = "c59733c3355d651cd078b32c6a35e8e3d29020ea2d5e218f3967d1dfa12aef13"


def test_complex_z_products_match_digest():
    assert _product_digest(("0.5", "0.9"), ("1+0.5j", "0.5+2j", "1+10j")) == _COMPLEX_PRODUCT_DIGEST


def test_kernel_bench_runs_on_one_point():
    # tests/kernel_bench.py writes the per-kernel BENCH records; run its
    # loops on one point and one call so that the script cannot rot
    import kernel_bench

    (lam,) = kernel_bench.lambert_rows(points=[("0.3", mpf("0.3"))], runs=1)
    (prod,) = kernel_bench.product_rows(points=[("0.3", "1+0.5j", "B")], runs=1)
    assert lam["terms"] > 0 and len(lam["oracle_runs_s"]) == 1
    assert prod["form"] == "B" and prod["terms"] > 0 and len(prod["warm_runs_s"]) == 1
    assert min(prod["warm_s"], prod["oracle_s"], prod["ratio"]) > 0
    src = os.path.join(os.path.dirname(qseries.__file__), os.pardir)
    both = kernel_bench.compare_products(src, points=[("0.3", "2", "A")], runs=1, seconds=0,
                                         lambert_points=[("0.3", "1+0.5j")])
    (ab,) = both["weighted_product_log"]["points"]
    assert ab["terms"] > 0 and ab["parent_warm_runs_s"] and ab["warm_ratio"] > 0
    warm, miss = both["lambert_sum"]["points"]
    assert (warm["mode"], miss["mode"]) == ("warm", "miss") and warm["terms"] == miss["terms"] > 0
    assert min(warm["ratio"], miss["ratio"]) > 0 and len(miss["change_runs_s"]) == 1


# ---------------------------------------------------------------------------
# one input contract

def _sv_key(sv):
    v = sv.value
    return repr((v._mpc_ if isinstance(v, mpc) else v._mpf_, sv.err_bound._mpf_,
                 sv.terms_used)).encode()


# sha256, as in _KERNEL_DIGESTS, over the 13 public q-primitives at fixed valid
# inputs: each domain of q and both signs of a real q, real and complex
# arguments, a complex index n, Python and string inputs and an explicit tol.
# The mpmath inputs are made at 256 bits, so the calls at 64 and 128 bits pin
# how each primitive takes them in as well.  Recorded before the primitives
# shared one set of input checks, which kept every bit.
_PRIMITIVE_DIGEST = "b5cb55448e98ff87afbc3e2befbe6dfc96873c9649d090ed3a2dd2c4df819cfe"


def _primitive_calls():
    with precision(256):
        q3, q7, qm, qc = mpf("0.3"), mpf("0.7"), mpf("-0.45"), mpc("0.3", "0.4")
        x, xm, zc = mpf("0.35"), mpf("-0.6"), mpc("0.2", "0.45")
        big, bigc, n = mpf("2.5"), mpc("1.5", "-0.7"), mpc("2.5", "0.5")
        wc, tol, tau = mpc("0.5", "0.3"), mpf("1e-20"), mpc("0.3", "0.8")
    calls = []
    for q in (q3, qm, qc, 0.3, "0.7"):  # mpf or mpc with |q| < 1
        for z in (x, xm, zc, 0.35):
            calls += [(log_qpoch_inf, z, q), (e_q, z, q)]
        calls += [(qpoch_inf_direct, a, q) for a in (big, bigc, -3)]
        calls.append((log_qpoch_inf, x, q, tol))
    for q in (q3, qm, 0.3):  # real with |q| < 1
        calls += [(qpoch_n, x, q, 5), (qpoch_n, zc, q, n), (qpoch_n, xm, q, 2.5),
                  (E_q, x, q), (E_q, bigc, q), (E_q, -2, q),
                  (q_binomial_check, x, zc, q), (q_binomial_check, bigc, x, q),
                  (q_binomial_check, 2, xm, q, 1e-18)]
    for q in (q3, q7, "0.5"):  # 0 < q < 1
        calls += [(e_q_series, x, q), (e_q_series, zc, q, tol), (E_q_series, big, q),
                  (E_q_series, zc, q, 1e-15), (q_gamma, big, q), (q_gamma, wc, q),
                  (q_gamma, -0.5, q), (theta_sum, x, q), (theta_sum, zc, q, tol),
                  (triple_product, 2, q), (triple_product, zc, q)]
    calls += [(dedekind_eta, tau), (dedekind_eta, 1j), (weierstrass_delta, tau),
              (weierstrass_delta, 2j)]
    return calls


def test_primitive_values_match_digest():
    h = hashlib.sha256()
    calls = _primitive_calls()
    assert len({c[0] for c in calls}) == 13
    for i, (fn, *args) in enumerate(calls):
        with precision((64, 128, 256)[i % 3]):
            out = fn(*args)
        for sv in ((out,) if isinstance(out, SeriesValue) else out):
            h.update(_sv_key(sv))
    assert h.hexdigest() == _PRIMITIVE_DIGEST


@pytest.mark.parametrize("fn, args", [
    (log_qpoch_inf, (0.2 + 0.1j, 0.5)),
    (log_qpoch_inf, (0.3, 0.2 + 0.1j)),
    (qpoch_inf_direct, (1.5 - 0.7j, 0.5)),
    (qpoch_inf_direct, (0.3, 0.2 + 0.1j)),
    (qpoch_n, (0.2 + 0.1j, 0.5, 3)),
    (qpoch_n, (0.3, 0.5, 2.5 + 0.5j)),
    (e_q, (0.2 + 0.1j, 0.5)),
    (e_q, (0.3, 0.2 + 0.1j)),
    (e_q_series, (0.2 + 0.1j, 0.5)),
    (E_q, (1.5 - 0.7j, 0.5)),
    (E_q_series, (0.2 + 0.45j, 0.5)),
    (q_binomial_check, (1.5 - 0.7j, 0.2 + 0.1j, 0.5)),
    (q_gamma, (0.5 + 0.3j, 0.5)),
    (theta_sum, (0.2 + 0.45j, 0.5)),
    (triple_product, (0.2 + 0.45j, 0.5)),
    (dedekind_eta, (0.3 + 0.8j,)),
    (weierstrass_delta, (0.3 + 0.8j,)),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_python_complex_argument_is_the_equal_mpc(fn, args):
    as_mpc = [mpc(a) if isinstance(a, complex) else a for a in args]
    assert fn(*args) == fn(*as_mpc)


# one valid call of each public entry point, by keyword; each contract case
# puts one bad value in place of one argument
def _valid_calls():
    f, tot = build_table("mobius", 512), build_table("totient", 512)
    x, q, tau, tol = mpf("0.3"), mpf("0.5"), mpc(0, 1), qseries.DEFAULT_TOL
    pt = QPoint(q, 1)
    return {
        "log_qpoch_inf": (log_qpoch_inf, dict(z=x, q=q, tol=tol)),
        "qpoch_inf_direct": (qpoch_inf_direct, dict(a=x, q=q)),
        "qpoch_n": (qpoch_n, dict(z=x, q=q, n=3)),
        "e_q": (e_q, dict(z=x, q=q)),
        "e_q_series": (e_q_series, dict(z=x, q=q, tol=tol)),
        "E_q": (E_q, dict(z=x, q=q)),
        "E_q_series": (E_q_series, dict(z=x, q=q, tol=tol)),
        "q_binomial_check": (q_binomial_check, dict(a=x, z=x, q=q, tol=tol)),
        "q_gamma": (q_gamma, dict(w=x, q=q)),
        "theta_sum": (theta_sum, dict(z=x, q=q, tol=tol)),
        "triple_product": (triple_product, dict(z=x, q=q)),
        "dedekind_eta": (dedekind_eta, dict(tau=tau)),
        "weierstrass_delta": (weierstrass_delta, dict(tau=tau)),
        "lambert_sum": (lambert_sum, dict(f=f, kernel=KernelForm(), pt=pt, tol=tol,
                                          max_terms=10**6)),
        "weighted_product_log": (weighted_product_log, dict(g=f, pt=pt, tol=tol,
                                                            max_terms=10**6)),
        "intro_product_log": (qseries.intro_product_log,
                              dict(tot=tot, q=q, tol=tol, max_terms=10**6, odd_ratio=False)),
        "QPoint": (QPoint, dict(q=q, z=1)),
        "verify": (identities.verify, dict(id="EQ3.29", q=q, z=1, tol=tol, max_terms=10**6)),
        "verify_all": (identities.verify_all, dict(tol=tol, max_terms=10**6)),
    }


_COMPLEX_Q_OK = ("log_qpoch_inf", "qpoch_inf_direct", "e_q")


def _contract_cases():
    for name, (_, kw) in _valid_calls().items():
        for arg in kw:
            if arg == "tol":
                bad = [mpf(0), mpf(-1), mp.nan, mp.inf]
            elif arg == "max_terms":
                bad = [None, math.nan, 0, 2.5]
            elif arg == "tau":
                bad = [mpc(0, mp.inf), mpc(mp.nan, 1), mpc(-mp.inf, 1)]
            elif arg in ("z", "q", "a", "n", "w"):
                bad = [mp.nan, mp.inf, -mp.inf]
                if arg == "q" and name not in _COMPLEX_Q_OK:
                    bad += [mpc("0.3", "0.1"), 0.3 + 0.1j]
            else:
                continue
            for v in bad:
                yield pytest.param(name, arg, v, id=f"{name}-{arg}={v}")


@pytest.mark.parametrize("name, arg, bad", _contract_cases())
def test_bad_input_raises_domain_error_at_once(name, arg, bad):
    fn, kw = _valid_calls()[name]
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        fn(**dict(kw, **{arg: bad}))
    assert time.perf_counter() - t0 < 0.5
