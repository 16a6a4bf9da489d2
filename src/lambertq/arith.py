"""Exact arithmetic-function tables and the Dirichlet-algebra transforms.

Tables are built by sieving up to N and are immutable afterwards.  Integer-
valued functions are tabulated with Python integers (arbitrary width, so the
exact range can never silently wrap); rational transforms use ``Fraction``;
real/complex-parameter functions store mpmath values at the working
precision.  Every table carries a crude but certified growth bound
``|f(n)| <= C * n**beta`` used by the series evaluators for tail estimates.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable

from mpmath import mp, mpf, mpc

from .numerics import DomainError

__all__ = [
    "FunctionId",
    "ArithTable",
    "build_table",
    "multiplicative",
    "divisor_sum",
    "dirichlet_convolve",
    "mobius_invert",
    "h_transform",
    "gcd_sum_transform",
    "squarefree_kernel_sum",
    "primes",
    "factorize",
    "divisors",
]

# ---------------------------------------------------------------------------
# sieve plumbing

_spf_cache: dict = {"N": 0, "spf": None}


def smallest_prime_factors(N: int) -> list:
    """Smallest-prime-factor array spf[0..N] (spf[n] = n for n prime)."""
    if _spf_cache["N"] >= N:
        return _spf_cache["spf"]
    spf = list(range(N + 1))
    for i in range(2, math.isqrt(N) + 1):
        if spf[i] == i:
            for j in range(i * i, N + 1, i):
                if spf[j] == j:
                    spf[j] = i
    _spf_cache["N"] = N
    _spf_cache["spf"] = spf
    return spf


def primes(N: int) -> list:
    """All primes <= N, read off the smallest-prime-factor sieve."""
    spf = smallest_prime_factors(N)
    return [n for n in range(2, N + 1) if spf[n] == n]


def factorize(n: int) -> list:
    """Prime factorization [(p, a), ...] via the SPF sieve."""
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    spf = smallest_prime_factors(n)
    out = []
    while n > 1:
        p = spf[n]
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        out.append((p, a))
    return out


def divisors(n: int) -> list:
    """All divisors of n, ascending."""
    divs = [1]
    for p, a in factorize(n):
        divs = [d * p**k for d in divs for k in range(a + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# function identifiers

_PARAM_TAGS = {"jordan": float, "sigma": float, "ramanujan": int, "mu_k": int}


class FunctionId(namedtuple("FunctionId", "tag params")):
    """Tag plus parameters selecting one arithmetic function."""

    __slots__ = ()

    def __new__(cls, tag, params=()):
        if tag not in _BUILDERS and tag != "custom":
            raise DomainError(f"unknown function tag {tag!r}")
        if tag in _PARAM_TAGS:
            if len(params) != 1:
                raise DomainError(f"{tag} takes exactly one parameter")
            p = params[0]
            if _PARAM_TAGS[tag] is int and (int(p) != p or p < 1):
                raise DomainError(f"{tag} parameter must be a positive integer, got {p}")
            if tag == "jordan" and p < 0:
                raise DomainError(f"jordan exponent must be >= 0, got {p}")
        elif tag != "custom" and params:
            raise DomainError(f"{tag} takes no parameters")
        return super().__new__(cls, tag, params)

    @classmethod
    def parse(cls, spec: str) -> "FunctionId":
        """Parse the CLI grammar ``name[:param]``."""
        name, _, tok = spec.partition(":")
        name = name.strip()
        if name not in _BUILDERS:
            raise DomainError(f"unknown function spec {spec!r}")
        if not tok:
            return cls(name)
        conv = _PARAM_TAGS.get(name)
        if conv is None:
            raise DomainError(f"{name} takes no parameters")
        try:
            val = conv(tok)
        except ValueError:
            raise DomainError(f"bad parameter {tok!r} in {spec!r}") from None
        if conv is float:
            if not math.isfinite(val):
                raise DomainError(f"non-finite parameter {tok!r} in {spec!r}")
            if val == int(val):
                val = int(val)
        return cls(name, (val,))

    def __str__(self):
        return ":".join((self.tag, *map(str, self.params)))


class ArithTable:
    """Values of one arithmetic function on 1..N with a certified growth bound.

    ``values[n]`` indexes directly by n (slot 0 is unused).  ``growth`` is a
    pair (C, beta) with |f(n)| <= C * n**beta for all n >= 1, deliberately
    crude: tail-bound correctness outranks tightness.
    """

    __slots__ = ("fid", "N", "values", "growth", "exact")

    def __init__(self, fid: FunctionId, N: int, values: list, growth: tuple, exact: bool):
        self.fid, self.N, self.values, self.growth, self.exact = fid, N, values, growth, exact

    def _astuple(self):
        return self.fid, self.N, self.values, self.growth, self.exact

    def __eq__(self, other):
        if type(other) is not ArithTable:
            return NotImplemented
        return self._astuple() == other._astuple()

    __hash__ = None  # mutable, so unhashable

    def __repr__(self):
        return "ArithTable(fid=%r, N=%r, values=%r, growth=%r, exact=%r)" % self._astuple()

    def __getitem__(self, n: int):
        if not 1 <= n <= self.N:
            raise IndexError(f"n={n} outside table range 1..{self.N}")
        return self.values[n]

    def growth_holds(self, n: int) -> bool:
        C, beta = self.growth
        v = self.values[n]
        if isinstance(v, Fraction):  # mpf does not compare with Fraction
            v = as_mpf(v)
        return abs(v) <= C * mpf(n) ** beta + mpf(2) ** (-mp.prec + 8)


def as_mpf(v) -> mpf:
    """An int or Fraction as one rounding of its numerator over its denominator."""
    return mpf(v.numerator) / v.denominator


def _table(fid, values: list, growth: tuple) -> ArithTable:
    """The table of values[1:], exact unless its entry 1 is an mpf or mpc."""
    return ArithTable(fid, len(values) - 1, values, growth, not isinstance(values[1], (mpf, mpc)))


def power_type(s):
    """(P, x) with P(n) ** x = n^s in the number type s picks: int for an
    integer s >= 0, Fraction for a negative integer, mpf else.  An int
    n < 2^53 converts exactly, so n ** x has the bits of P(n) ** x."""
    if s != int(s):
        return mpf, mpf(s)
    return (int if s >= 0 else Fraction), int(s)


# ---------------------------------------------------------------------------
# table construction

def multiplicative(N: int, rule: Callable, one=1) -> list:
    """Values of the multiplicative function with f(1) = ``one`` on 0..N.

    One pass over the SPF sieve sets f(n) = f(n / p^a) * rule(p, a), where p
    is the smallest prime factor of n and p^a exactly divides n.  ``rule``
    runs once per prime power.
    """
    spf = smallest_prime_factors(max(N, 4))
    vals = [0] * (N + 1)
    vals[1] = one
    memo = {}
    for n in range(2, N + 1):
        p = spf[n]
        m, a = n // p, 1
        while m % p == 0:
            m //= p
            a += 1
        pk = n // m
        r = memo.get(pk)
        if r is None:
            r = memo[pk] = rule(p, a)
        vals[n] = vals[m] * r
    return vals


def divisor_sum(N: int, t: Callable, u=None, zero=0) -> list:
    """s[n] = sum over d|n of t(d) * u[n/d] on 0..N, with u = 1 when None.

    Terms are added in increasing d, so inexact sums are reproducible.
    """
    out = [zero] * (N + 1)
    for d in range(1, N + 1):
        td = t(d)
        if not td:
            continue
        if u is None:
            for m in range(d, N + 1, d):
                out[m] += td
        else:
            for m in range(1, N // d + 1):
                out[d * m] += td * u[m]
    return out


def _mult(rule, growth):
    return lambda N: (multiplicative(N, rule), growth)


def _chi1(n):
    return (0, 1, 0, -1)[n % 4]


def _omega(N):
    # omega(n) = omega(n/p) + [p does not divide n/p], p = spf(n)
    spf = smallest_prime_factors(max(N, 4))
    vals = [0] * (N + 1)
    for n in range(2, N + 1):
        m = n // spf[n]
        vals[n] = vals[m] + (m % spf[n] != 0)
    return vals


def _jordan(N, alpha):
    # J_alpha(p^a) = p^(a alpha) - p^((a-1) alpha), in ints or mpf (alpha >= 0)
    P, x = power_type(alpha)
    vals = multiplicative(N, lambda p, a: p ** (x * a) - p ** (x * (a - 1)), P(1))
    return vals, (1, alpha)


def _sigma(N, s):
    # sigma_s(p^a) = sum of p^(j s), j = 0..a; an integer s < 0 sums in ints,
    # then sigma_{-k}(n) = sigma_k(n) / n^k
    P, x = power_type(abs(s) if s == int(s) else s)
    vals = multiplicative(N, lambda p, a: sum(p ** (x * j) for j in range(a + 1)), P(1))
    if s < 0 and P is int:
        vals = [0] + [Fraction(vals[n], n**x) for n in range(1, N + 1)]
    return vals, (2, max(float(s), 0.0) + 1)


def _mangoldt(N):
    vals = [mpf(0)] * (N + 1)
    for p in primes(N):
        lp, pk = mp.log(p), p
        while pk <= N:
            vals[pk] = lp
            pk *= p
    return vals, (1, 1)


def _ramanujan(N, v):
    # c_n(v) = sum over d | gcd(n, v) of d mu(n/d)
    v = int(v)
    mob = _mu_k(N, 1)[0]
    return divisor_sum(N, lambda d: d if v % d == 0 else 0, mob), (sum(divisors(v)), 0)


def _r8(N):
    # (-1)^n r8(n) = 16 * sum_{d|n} (-1)^d d^3 (the divisor form of the
    # classical eight-square formula)
    s = divisor_sum(N, lambda d: (-1) ** d * d**3)
    return [16 * (-1) ** n * s[n] for n in range(N + 1)], (32, 3)  # r8(n) <= 16 zeta(3) n^3


def _mu_k(N, k):
    # mu_k(n) = e^(i pi/k)^omega(n) on squarefree n, else 0; mu_1 is the
    # Mobius function, in exact ints.  One pass: n = p m with p = spf(n) is
    # squarefree iff m is and p does not divide m; ex[n] = omega(n) there and
    # -1 elsewhere.
    root, zero = (-1, 0) if k == 1 else (mp.expjpi(mpf(1) / int(k)), mpc(0))
    spf = smallest_prime_factors(max(N, 4))
    ex = [-1, 0] + [0] * (N - 1)
    for n in range(2, N + 1):
        m = n // spf[n]
        ex[n] = ex[m] + 1 if ex[m] >= 0 and m % spf[n] else -1
    pw = [root**j for j in range(max(ex) + 1)] + [zero]  # pw[-1] = zero
    return [pw[j] for j in ex], (1, 0)


# tag -> builder(N, *params) returning (values, growth)
_BUILDERS = {
    "one": lambda N: ([1] * (N + 1), (1, 0)),
    "mobius": lambda N: _mu_k(N, 1),
    "mobius_abs": _mult(lambda p, a: int(a == 1), (1, 0)),
    "totient": _mult(lambda p, a: p ** (a - 1) * (p - 1), (1, 1)),
    "jordan": _jordan,
    "mangoldt": _mangoldt,
    "sigma": _sigma,
    "divisor_d": _mult(lambda p, a: a + 1, (4, 1)),
    "divisor_d_sq": _mult(lambda p, a: 2 * a + 1, (4, 1)),
    "liouville": _mult(lambda p, a: (-1) ** a, (1, 0)),
    "omega": lambda N: (_omega(N), (2, 0.5)),  # omega(n) <= log2(n) <= 2 sqrt(n)
    "two_pow_omega": _mult(lambda p, a: 2, (4, 1)),
    "neg_one_pow_omega": _mult(lambda p, a: -1, (1, 0)),
    "ramanujan": _ramanujan,
    # r2(n) = 4 sum_{d|n} chi_1(d) <= 4 d(n) <= 8 sqrt(n)
    "r2": lambda N: ([4 * s for s in divisor_sum(N, _chi1)], (8, 0.5)),
    # r4(n) = 8 sum_{d|n, 4 does not divide d} d <= 8 n d(n) <= 16 n^1.5, with slack
    "r4": lambda N: ([8 * s for s in divisor_sum(N, lambda d: d if d % 4 else 0)],
                     (48, 1.5)),
    "r8": _r8,
    "chi1": lambda N: ([_chi1(n) for n in range(N + 1)], (1, 0)),
    "core_gamma": _mult(lambda p, a: p, (1, 1)),
    "mu_k": _mu_k,
    "phi_abs_mu": _mult(lambda p, a: p - 1 if a == 1 else 0, (1, 1)),
}


def build_table(fid: FunctionId, N: int) -> ArithTable:
    """Sieve the function ``fid`` on 1..N."""
    if isinstance(fid, str):
        fid = FunctionId.parse(fid)
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if fid.tag == "custom":
        raise DomainError("custom tables are built directly, not sieved")
    return _table(fid, *_BUILDERS[fid.tag](N, *fid.params))


def custom_table(label: str, values: list, growth: tuple) -> ArithTable:
    """Wrap precomputed values (index 1..N; values[0] ignored) as a table."""
    return _table(FunctionId("custom", (label,)), values, growth)


# ---------------------------------------------------------------------------
# Dirichlet algebra

def dirichlet_convolve(a: ArithTable, b: ArithTable) -> ArithTable:
    """(a*b)(n) = sum over d|n of a(d) b(n/d), O(N log N)."""
    if a.N != b.N:
        raise DomainError("tables must share the same N")
    zero = 0 if a.exact and b.exact else mpf(0)
    out = divisor_sum(a.N, a.values.__getitem__, b.values, zero)
    Ca, ba = a.growth
    Cb, bb = b.growth
    growth = (2 * Ca * Cb, max(ba, bb) + 0.5)  # d(n) <= 2 sqrt(n) absorbs the divisor count
    return _table(FunctionId("custom", (f"({a.fid}*{b.fid})",)), out, growth)


def mobius_invert(f: ArithTable) -> ArithTable:
    """Return g with f = 1*g (exact Mobius inversion)."""
    mob = build_table(FunctionId("mobius"), f.N)
    res = dirichlet_convolve(mob, f)
    res.fid = FunctionId("custom", (f"mobius_invert({f.fid})",))
    return res


def h_transform(f: ArithTable) -> ArithTable:
    """h(n) = sum_{d|n} (mu(d)/d) f(n/d), exact rationals when f is exact.

    Equivalently n h(n) = sum_{d|n} d f(d) mu(n/d).
    """
    N = f.N
    mob = build_table(FunctionId("mobius"), N).values
    div = Fraction if f.exact else mp.fdiv  # m/d exactly, or in one rounding
    out = divisor_sum(N, lambda d: mob[d] and div(mob[d], d), f.values, div(0, 1))
    Cf, bf = f.growth
    # |h(n)| <= sum_{d|n} |f(n/d)| <= Cf n^bf d(n) <= 2 Cf n^(bf+1/2)
    growth = (2 * Cf, bf + 0.5)
    return _table(FunctionId("custom", (f"h_transform({f.fid})",)), out, growth)


def gcd_sum_transform(g: ArithTable, n: int):
    """Literal sum over k = 1..n of gcd(n,k) * g(gcd(n,k))."""
    if n > g.N:
        raise DomainError(f"n={n} exceeds table size {g.N}")
    total = 0
    for k in range(1, n + 1):
        d = math.gcd(n, k)
        total = total + d * g.values[d]
    return total


def squarefree_kernel_sum(fp: Callable, n: int):
    """Both sides of prod_{p|n}(1 - f(p)) = sum_{d|n} mu(d) f(d).

    ``fp`` gives the multiplicative function's values on primes; the divisor
    sum extends it multiplicatively over squarefree d.  Returns the pair
    (product, divisor_sum).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    ps = [p for p, _ in factorize(n)]
    prod = 1
    for p in ps:
        prod = prod * (1 - fp(p))
    total = 1  # d = 1 term
    for mask in range(1, 1 << len(ps)):
        fd = 1
        bits = 0
        for i, p in enumerate(ps):
            if mask >> i & 1:
                fd = fd * fp(p)
                bits += 1
        total = total + (-1) ** bits * fd
    return prod, total
