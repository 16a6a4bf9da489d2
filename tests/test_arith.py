"""Oracle tests for sieves, Dirichlet algebra, and transforms."""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpc

from lambertq.arith import (
    ArithTable,
    DomainError,
    FunctionId,
    build_table,
    custom_table,
    dirichlet_convolve,
    divisors,
    factorize,
    gcd_sum_transform,
    h_transform,
    mobius_invert,
    primes,
    squarefree_kernel_sum,
)

N = 400


@pytest.fixture(scope="module")
def tables():
    names = ["one", "mobius", "mobius_abs", "totient", "liouville",
             "divisor_d", "divisor_d_sq", "sigma:1", "mangoldt",
             "two_pow_omega", "neg_one_pow_omega", "r2", "r4", "r8",
             "core_gamma", "chi1", "omega"]
    return {n: build_table(FunctionId.parse(n), N) for n in names}


# ---------------------------------------------------------------------------
# spec parsing

@pytest.mark.parametrize("spec,tag,params", [
    ("mobius", "mobius", ()),
    ("jordan:2", "jordan", (2,)),
    ("sigma:-1", "sigma", (-1,)),
    ("sigma:0.5", "sigma", (0.5,)),
    ("ramanujan:6", "ramanujan", (6,)),
])
def test_spec_grammar(spec, tag, params):
    fid = FunctionId.parse(spec)
    assert fid.tag == tag and tuple(fid.params) == params


# no tag takes two parameters: the grammar is name[:param]
@pytest.mark.parametrize("spec", ["bogus", "mobius:3", "jordan", "jordan:x",
                                  "ramanujan:0", "custom", "sigma:nan", "sigma:inf",
                                  "jordan:1e400", "jordan:-1", "jordan:1,2",
                                  "ramanujan:6,4", "mu_k:1,2"])
def test_spec_rejects(spec):
    with pytest.raises(DomainError):
        FunctionId.parse(spec)


def test_direct_construction_counts_the_parameters():
    with pytest.raises(DomainError, match="exactly one parameter"):
        FunctionId("jordan", (1, 2))


# ---------------------------------------------------------------------------
# definition oracles

def brute_mobius(n):
    fac = factorize(n)
    if any(a > 1 for _, a in fac):
        return 0
    return (-1) ** len(fac)


def brute_totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(n, k) == 1)


def test_factorize_and_divisors_of_360():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert divisors(360) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24, 30, 36,
                             40, 45, 60, 72, 90, 120, 180, 360]


def test_mobius_totient_oracles(tables):
    for n in range(1, 201):
        assert tables["mobius"][n] == brute_mobius(n)
        assert tables["totient"][n] == brute_totient(n)


def test_jordan_small_values():
    j2 = build_table(FunctionId.parse("jordan:2"), 5)
    assert [j2[n] for n in range(1, 6)] == [1, 3, 8, 12, 24]


def test_jordan_counts_coprime_pairs():
    # J_2(n) = #{(a,b) in [1,n]^2 : gcd(a,b,n) = 1}
    j2 = build_table(FunctionId.parse("jordan:2"), 30)
    for n in range(1, 31):
        count = sum(1 for a in range(1, n + 1) for b in range(1, n + 1)
                    if math.gcd(math.gcd(a, b), n) == 1)
        assert j2[n] == count


def test_real_jordan_matches_integer_jordan():
    jr = build_table(FunctionId.parse("jordan:2.0"), 50)
    ji = build_table(FunctionId.parse("jordan:2"), 50)
    for n in range(1, 51):
        assert abs(mpf(jr[n]) - ji[n]) < mpf("1e-30")


def test_mangoldt_oracle(tables):
    lam = tables["mangoldt"]
    for n in range(1, 201):
        fac = factorize(n)
        expect = mp.log(fac[0][0]) if len(fac) == 1 else mpf(0)
        assert abs(lam[n] - expect) < mpf("1e-30")


def test_divisor_functions(tables):
    for n in range(1, 201):
        ds = divisors(n)
        assert tables["divisor_d"][n] == len(ds)
        assert tables["sigma:1"][n] == sum(ds)
        assert tables["divisor_d_sq"][n] == len(divisors(n * n))


def test_sigma_negative_is_exact_rational():
    s = build_table(FunctionId.parse("sigma:-1"), 50)
    for n in range(1, 51):
        expect = Fraction(sum(divisors(n)), n)  # sigma_{-1} = sigma_1(n)/n
        assert s[n] == expect


def test_liouville_divisor_sum_detects_squares(tables):
    lam = tables["liouville"]
    for n in range(1, 201):
        total = sum(lam[d] for d in divisors(n))
        assert total == (1 if mp.isint(mp.sqrt(n)) else 0)


def test_core_gamma_oracle(tables):
    for n in range(1, 201):
        rad = 1
        for p, _ in factorize(n):
            rad *= p
        assert tables["core_gamma"][n] == rad


def test_omega_and_powers(tables):
    for n in range(2, 201):
        w = len(factorize(n))
        assert tables["omega"][n] == w
        assert tables["two_pow_omega"][n] == 2**w
        assert tables["neg_one_pow_omega"][n] == (-1) ** w


# ---------------------------------------------------------------------------
# lattice oracles for sums of squares

def lattice_counts(k, M):
    """r_k(n) for n <= M by iterated convolution of the exact r_1 series."""
    r1 = [0] * (M + 1)
    r1[0] = 1
    a = 1
    while a * a <= M:
        r1[a * a] = 2
        a += 1
    rk = r1[:]
    for _ in range(k - 1):
        out = [0] * (M + 1)
        for i in range(M + 1):
            if rk[i]:
                for j in range(M + 1 - i):
                    out[i + j] += rk[i] * r1[j]
        rk = out
    return rk


def test_r2_direct_enumeration(tables):
    for n in range(1, 81):
        count = sum(1 for a in range(-9, 10) for b in range(-9, 10)
                    if a * a + b * b == n)
        assert tables["r2"][n] == count


@pytest.mark.parametrize("k,name", [(2, "r2"), (4, "r4"), (8, "r8")])
def test_rk_lattice_oracle(tables, k, name):
    oracle = lattice_counts(k, 200)
    for n in range(1, 201):
        assert tables[name][n] == oracle[n]


def test_r2_chi_divisor_identity(tables):
    # r_2(n) = 4 sum_{d|n} chi_1(d)
    for n in range(1, 201):
        assert tables["r2"][n] == 4 * sum(tables["chi1"][d] for d in divisors(n))


# ---------------------------------------------------------------------------
# Dirichlet algebra

def test_mobius_is_inverse_of_one(tables):
    e = dirichlet_convolve(tables["mobius"], tables["one"])
    assert e[1] == 1 and all(e[n] == 0 for n in range(2, N + 1))


def test_totient_convolution_identity(tables):
    # 1 * phi = id
    s = dirichlet_convolve(tables["one"], tables["totient"])
    assert all(s[n] == n for n in range(1, N + 1))


def test_mobius_invert_round_trip(tables):
    f = dirichlet_convolve(tables["one"], tables["divisor_d"])
    g = mobius_invert(f)
    assert all(g[n] == tables["divisor_d"][n] for n in range(1, N + 1))


def test_convolution_requires_matching_size(tables):
    small = build_table(FunctionId.parse("one"), 10)
    with pytest.raises(DomainError):
        dirichlet_convolve(small, tables["one"])


def test_h_transform_defining_property(tables):
    # n h(n) = sum_{d|n} d f(d) mu(n/d), checked in exact rationals
    f = tables["divisor_d"]
    h = h_transform(f)
    mob = tables["mobius"]
    for n in range(1, 201):
        rhs = sum(d * f[d] * mob[n // d] for d in divisors(n))
        assert n * h[n] == rhs


def test_gcd_sum_transform_oracle(tables):
    # with g = J_alpha the gcd-sum gives J_{alpha+1}
    j1 = build_table(FunctionId.parse("jordan:1"), 100)
    j2 = build_table(FunctionId.parse("jordan:2"), 100)
    for n in range(1, 101):
        assert gcd_sum_transform(j1, n) == j2[n]


def test_squarefree_kernel_sum_pairs():
    for n in (1, 2, 12, 30, 180, 210):
        lhs, rhs = squarefree_kernel_sum(lambda p: Fraction(1, p), n)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Ramanujan sums and mu_k

@pytest.mark.parametrize("v", [1, 4, 6, 12])
def test_ramanujan_sum_exponential_oracle(v):
    # table index is the modulus: tab[n] = c_n(v) = sum over a coprime to n
    # of exp(2 pi i a v / n)
    tab = build_table(FunctionId.parse(f"ramanujan:{v}"), 60)
    for n in range(1, 61):
        s = mp.fsum((mp.expjpi(mpf(2 * a * v) / n) for a in range(1, n + 1)
                     if math.gcd(a, n) == 1), absolute=False)
        assert abs(tab[n] - s) < mpf("1e-25")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mu_k_divisor_sums(k):
    tab = build_table(FunctionId.parse(f"mu_k:{k}"), 120)
    root = mp.expjpi(mpf(1) / k)
    for n in range(1, 121):
        total = sum(mpc(tab[d]) for d in divisors(n))
        expect = (1 + root) ** len(factorize(n))
        assert abs(total - expect) < mpf("1e-25")


# ---------------------------------------------------------------------------
# growth certificates and table mechanics

def test_growth_certificates_hold(tables):
    for name, tab in tables.items():
        for n in range(1, N + 1):
            assert tab.growth_holds(n), f"{name} growth fails at n={n}"


def test_table_indexing(tables):
    with pytest.raises(IndexError):
        tables["one"][0]
    with pytest.raises(IndexError):
        tables["one"][N + 1]


def test_custom_table_round_trip():
    tab = custom_table("probe", [0, 5, -2, 7], (7, 0))
    assert tab.N == 3 and tab[2] == -2


def test_primes_sieve():
    ps = primes(50)
    assert ps[:6] == [2, 3, 5, 7, 11, 13] and ps[-1] == 47
