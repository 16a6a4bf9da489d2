"""Oracle tests for constants, zeta-type sums, and extrapolation."""

import pytest
from mpmath import mp, mpf, mpc

from lambertq.numerics import (
    DomainError,
    _max_terms,
    basis_extrapolate,
    catalan,
    dirichlet_beta,
    euler_gamma,
    glaisher,
    precision,
    richardson_extrapolate,
    set_precision,
    zeta,
)


@pytest.fixture(autouse=True)
def _fixed_precision():
    set_precision(128)
    yield
    set_precision(128)


def em_zeta(s, M=60, K=12):
    """Independent Euler-Maclaurin zeta oracle, run at doubled precision.

    zeta(s) = sum_{n<=M} n^-s + M^(1-s)/(s-1) + M^-s/2
              + sum_k B_2k/(2k)! * (s)_{2k-1} * M^(-s-2k+1) + error,
    with |error| below the first omitted correction for real s > 1.
    """
    with precision(2 * mp.prec):
        s = mpf(s)
        total = mp.fsum(mpf(n) ** (-s) for n in range(1, M + 1))
        total += mpf(M) ** (1 - s) / (s - 1) - mpf(M) ** (-s) / 2
        rising = s  # (s)(s+1)...(s+2k-2), updated incrementally
        power = mpf(M) ** (-s - 1)
        for k in range(1, K + 1):
            total += mp.bernoulli(2 * k) / mp.factorial(2 * k) * rising * power
            rising *= (s + 2 * k - 1) * (s + 2 * k)
            power /= M * M
        return +total


@pytest.mark.parametrize("s", ["1.5", "2", "3", "4", "6", "8.5"])
def test_zeta_against_euler_maclaurin_oracle(s):
    assert abs(zeta(s) - em_zeta(s)) < mpf("1e-30")


@pytest.mark.parametrize("s", [1, 0.5, -2])
def test_zeta_domain(s):
    with pytest.raises(DomainError):
        zeta(s)


def test_zeta_two_squared_over_zeta_four():
    # classical evaluation: zeta(2)^2/zeta(4) = 5/2
    assert abs(zeta(2) ** 2 / zeta(4) - mpf(5) / 2) < mpf("1e-20")


def test_dirichlet_beta_values():
    assert abs(dirichlet_beta(1) - mp.pi / 4) < mpf("1e-30")
    assert abs(dirichlet_beta(2) - catalan()) < mpf("1e-30")
    # direct alternating partial sum brackets beta(3) = pi^3/32
    assert abs(dirichlet_beta(3) - mp.pi**3 / 32) < mpf("1e-30")


def test_beta_against_partial_sums():
    # alternating series: truncation error is below the first omitted term
    s = mpf("1.25")
    partial = mp.fsum(mpf(-1) ** n / mpf(2 * n + 1) ** s for n in range(20000))
    bound = mpf(2 * 20000 + 1) ** (-s)
    assert abs(dirichlet_beta(s) - partial) < bound


def test_catalan_against_builtin():
    assert abs(catalan() - mp.catalan) < mpf("1e-35")


def test_euler_gamma_against_harmonic_oracle():
    # gamma = H_n - log n - 1/(2n) + 1/(12n^2) - 1/(120n^4) + O(n^-6)
    n = 2000
    H = mp.fsum(mpf(1) / k for k in range(1, n + 1))
    est = H - mp.log(n) - mpf(1) / (2 * n) + mpf(1) / (12 * n**2) \
        - mpf(1) / (120 * n**4)
    assert abs(euler_gamma() - est) < mpf(n) ** (-6)


def test_glaisher_against_zeta_derivative_identity():
    # zeta'(2) = zeta(2) (gamma + log 2pi - 12 log A)
    import mpmath
    zp2 = mpmath.zeta(2, derivative=1)
    logA = (euler_gamma() + mp.log(2 * mp.pi) - zp2 / zeta(2)) / 12
    assert abs(glaisher() - mp.exp(logA)) < mpf("1e-30")


def test_precision_context_restores():
    before = mp.prec
    with precision(256):
        assert mp.prec == 256
    assert mp.prec == before
    with pytest.raises(DomainError):
        set_precision(20)


@pytest.mark.parametrize("bad", [64.5, True, "64"])
def test_precision_must_be_an_int(bad):
    with pytest.raises(DomainError, match="^precision must be >= 53 bits"):
        set_precision(bad)
    set_precision(64)
    assert mp.prec == 64


@pytest.mark.parametrize("bad", [True, 2.0, 0])
def test_max_terms_must_be_an_int_not_a_bool(bad):
    with pytest.raises(DomainError, match="^max_terms must be >= 1"):
        _max_terms(bad)
    assert _max_terms(7) == 7


# both extrapolators take their nodes through the same check; a basis of one
# term needs 3 nodes, as Neville does
_EXTRAPOLATORS = (richardson_extrapolate,
                  lambda xs, ys: basis_extrapolate(xs, ys, [lambda x: x]))


class TestRichardson:
    def test_polynomial_is_exact(self):
        xs = [mpf(2) ** (-j) for j in range(3, 9)]
        ys = [3 + 2 * x + 7 * x**2 for x in xs]
        lim, err = richardson_extrapolate(xs, ys)
        assert abs(lim - 3) < mpf("1e-30")

    def test_complex_values(self):
        xs = [mpf(2) ** (-j) for j in range(3, 9)]
        ys = [mpc(1, 2) + mpc(0, 1) * x for x in xs]
        lim, _ = richardson_extrapolate(xs, ys)
        assert abs(lim - mpc(1, 2)) < mpf("1e-30")

    def test_error_estimate_covers_smooth_function(self):
        xs = [mpf(2) ** (-j) for j in range(3, 11)]
        ys = [mp.exp(x) for x in xs]
        lim, err = richardson_extrapolate(xs, ys)
        assert abs(lim - 1) < 100 * err + mpf("1e-25")

    @pytest.mark.parametrize("xs", [
        [mpf("0.1"), mpf("0.2"), mpf("0.05")],       # not decreasing
        [mpf("0.1"), mpf("0.05")],                   # too few nodes
        [mpf("0.1"), mpf("0.05"), mpf(0)],           # hits the target
    ])
    def test_bad_grids_rejected(self, xs):
        for extrapolate in _EXTRAPOLATORS:
            with pytest.raises(ValueError):
                extrapolate(xs, [mpf(1)] * len(xs))


@pytest.mark.parametrize("extrapolate", _EXTRAPOLATORS, ids=["richardson", "basis"])
def test_unequal_lengths_rejected(extrapolate):
    xs = [mpf("0.1"), mpf("0.05"), mpf("0.025")]
    with pytest.raises(ValueError, match="equal length"):
        extrapolate(xs, [mpf(1)] * 4)


class TestBasisExtrapolate:
    def test_recovers_log_singular_limit(self):
        # y = 5 + 2 x log(1/x) - 3 x + x^2 defeats Neville but is exactly
        # representable in the declared basis
        xs = [mpf(2) ** (-j) for j in range(3, 11)]
        ys = [5 + 2 * x * (-mp.log(x)) - 3 * x + x**2 for x in xs]
        basis = [lambda x: x * (-mp.log(x)), lambda x: x, lambda x: x**2]
        lim, err = basis_extrapolate(xs, ys, basis)
        assert abs(lim - 5) < mpf("1e-25")
        assert err < mpf("1e-25")

    def test_half_power_basis(self):
        xs = [mpf(2) ** (-j) for j in range(3, 11)]
        ys = [mpf(1) + 4 * mp.sqrt(x) - x for x in xs]
        basis = [lambda x: mp.sqrt(x), lambda x: x]
        lim, _ = basis_extrapolate(xs, ys, basis)
        assert abs(lim - 1) < mpf("1e-25")

    def test_needs_enough_nodes(self):
        xs = [mpf(2) ** (-j) for j in range(3, 6)]
        with pytest.raises(ValueError):
            basis_extrapolate(xs, [mpf(0)] * 3,
                              [lambda x: x, lambda x: x**2, lambda x: x**3])
