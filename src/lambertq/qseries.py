"""q-Pochhammer symbols, Euler q-exponentials, theta/eta primitives, and the
two workhorse evaluators (Lambert-type sums and weighted log-products).

Every evaluator returns a :class:`SeriesValue` carrying a rigorous absolute
bound on the discarded tail.  Products are handled in log space and
exponentiated once at the boundary, which keeps exponents like (2n-1)^2 from
underflowing.  Tail estimates use the crude inequality
1/(1 -+ q^n) <= 1/(1-q): certified correctness over tightness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from mpmath import mp, mpf, mpc
from mpmath.libmp import (
    fzero, from_man_exp, mpc_add, mpc_log, mpf_log, mpf_pos, round_nearest, round_up,
    to_fixed, to_float,
)

from .arith import ArithTable
from .numerics import ConvergenceError, DomainError

__all__ = [
    "QPoint",
    "SeriesValue",
    "KernelForm",
    "TableTooShortError",
    "log_qpoch_inf",
    "qpoch_inf_direct",
    "qpoch_n",
    "e_q",
    "E_q",
    "q_binomial_check",
    "q_gamma",
    "theta_sum",
    "triple_product",
    "dedekind_eta",
    "weierstrass_delta",
    "lambert_sum",
    "weighted_product_log",
]

DEFAULT_TOL = mpf("1e-25")
DEFAULT_MAX_TERMS = 10**6
_HALF = mpf("0.5")


class TableTooShortError(ConvergenceError):
    """The certified truncation point ``needed`` exceeds the tabulated range."""

    def __init__(self, message, side=None, needed=None):
        super().__init__(message, side)
        self.needed = needed


@dataclass(frozen=True)
class QPoint:
    """Evaluation point: base q in (0,1) and finite exponent shift z with Re z > 0."""

    q: object
    z: object

    def __post_init__(self):
        q = mpf(self.q)
        if not 0 < q < 1:
            raise DomainError(f"q must lie in (0,1), got {self.q}")
        z = mpc(self.z)
        if not mp.isfinite(z):
            raise DomainError(f"z must be finite, got {self.z}")
        if not z.real > 0:
            raise DomainError(f"Re(z) must be positive, got {self.z}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "z", z if z.imag != 0 else mpf(z.real))


@dataclass(frozen=True)
class KernelForm:
    """Lambert-sum kernel 1/(1-q^n) or 1/(1+q^n), with f(n)/n or plain f(n)."""

    kernel: str = "minus"
    weight: str = "over_n"

    def __post_init__(self):
        if self.kernel not in ("minus", "plus"):
            raise DomainError(f"kernel must be 'minus' or 'plus', got {self.kernel!r}")
        if self.weight not in ("over_n", "plain"):
            raise DomainError(f"weight must be 'over_n' or 'plain', got {self.weight!r}")


@dataclass(frozen=True)
class SeriesValue:
    """A computed value, a certified absolute error bound, and the term count."""

    value: object
    err_bound: object
    terms_used: int

    def __post_init__(self):
        if self.err_bound < 0 or not mp.isfinite(self.err_bound):
            raise ValueError("err_bound must be finite and nonnegative")


def _roundoff_units(nterms, absscale):
    # generous cover for accumulated rounding, in units of 2^-mp.prec;
    # truncation always dominates
    return 16 * (nterms + 2) * (1 + absscale)


def _roundoff(nterms, scale):
    return mp.ldexp(_roundoff_units(nterms, abs(scale)), -mp.prec)


def _poly_geom_tail(p, r, N):
    """Certified bound for sum_{n>N} n^p r^n with 0 < r < 1.

    Splits r^n = u^n * u^n with u = sqrt(r); the polynomial factor is
    absorbed into max_{x>=N+1} x^p u^x, leaving a plain geometric tail.
    """
    u = mp.sqrt(r)
    lu = -mp.log(u)
    if p <= 0:
        M = mpf(N + 1) ** p * u ** (N + 1)
    else:
        xstar = p / lu
        if xstar <= N + 1:
            M = mpf(N + 1) ** p * u ** (N + 1)
        else:
            M = mpf(xstar) ** p * u**xstar
    return M * u ** (N + 1) / (1 - u)


def _to_mp(x):
    if isinstance(x, (mpf, mpc)):
        return x
    if isinstance(x, int):
        return mpf(x)
    # Fraction
    return mpf(x.numerator) / mpf(x.denominator)


# ---------------------------------------------------------------------------
# fixed-point product kernels
#
# The q-Pochhammer products run on Python ints at F = mp.prec + _GUARD
# fractional bits, mpmath's own idiom for its elementary functions.  Every
# truncating operation is off by less than one unit of 2^-F, so the
# round-off is counted and added to the certified bound next to _roundoff.

_GUARD = 32
_LN2 = math.log(2)
# a complex product is sent through log before the summed |z q^j| of its
# factors passes this, so each partial product keeps its principal argument
_ARG_FLUSH = 1.2


def _ln(x):
    """Natural log of a positive mpf as a float, accurate near 1."""
    if x > _HALF:
        return math.log1p(-float(1 - x))
    if not x:
        return -math.inf
    man, exp = x.man_exp
    return math.log(man) + exp * _LN2


def _ln1m(x):
    """log(1 - x) of an mpf 0 <= x < 1 as a float."""
    return math.log1p(-float(x)) if x < _HALF else _ln(1 - x)


_SOLVE_LIMIT = 1 << 128


def _first_term(logb, lt, holds, guess=1.0):
    """Smallest n >= 1 with logb(n) <= lt, or math.inf past _SOLVE_LIMIT.

    logb is a float log-bound, nonincreasing in n; ``holds(n)`` is the same
    test in working-precision mpf and decides where logb(n) lies within its
    rounding window of lt.  The search gallops from ``guess``, then bisects.
    """
    def ok(n):
        v = logb(n)
        if abs(v - lt) > 1e-9 * (abs(lt) + abs(v) + 1):
            return v < lt
        return holds(n)

    hi = math.ceil(min(guess, _SOLVE_LIMIT)) if guess > 1 else 1
    lo, step = hi - 1, 1
    while not ok(hi):
        if hi >= _SOLVE_LIMIT:
            return math.inf
        lo, hi, step = hi, hi + step, 2 * step
    while lo and ok(lo):
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def _linear_terms(lw, lq, lt, holds, name):
    """Smallest J >= 1 with lw + J lq <= lt (lq <= 0), up to the term cap."""
    J = _first_term(lambda j: lw + j * lq, lt, holds, (lt - lw) / lq if lq else math.inf)
    if J > DEFAULT_MAX_TERMS + 1:
        raise ConvergenceError(
            f"{name} needs J={J:.6g} terms, more than the cap of {DEFAULT_MAX_TERMS}")
    return J


def _qpoch_tail(aw, ab, J):
    """|w| |b|^J / ((1-|b|)(1-|w|)), which bounds the tail
    |sum_{j>=J} log(1 - w b^j)| for |w|, |b| < 1."""
    return aw * ab**J * (1 / ((1 - ab) * (1 - aw)))


def _qpoch_terms(lw, lb, lpref, tol, exact):
    """Term count of log_qpoch_inf for sum_j log(1 - w b^j), and its tail.

    J is the first J >= 1 with _qpoch_tail(|w|, |b|, J) <= tol.  lw, lb and
    lpref are the natural logs of |w|, |b| and 1/((1-|b|)(1-|w|)) as
    floats, and ``exact()`` gives (|w|, |b|) as mpf for the test near an
    integer root.  Returns J and the log of the tail bound at J, as a float.
    """
    J = _linear_terms(lw, lb, _ln(tol) - lpref,
                      lambda j: _qpoch_tail(*exact(), j) <= tol, "log_qpoch_inf")
    return J, lw + J * lb + lpref


def _fx(x, F):
    """An mpf or mpc as an (re, im) pair of ints at F fractional bits."""
    if isinstance(x, mpc):
        re, im = x._mpc_
        return to_fixed(re, F), to_fixed(im, F)
    return to_fixed(x._mpf_, F), 0


def _round(x):
    """A raw mpf value rounded to the working precision."""
    return mpf_pos(x, mp.prec, round_nearest)


def _from_fx(re, im, e, cplx):
    """The value (re + i im) 2^e at working precision, as mpf or mpc."""
    if cplx:
        return mp.make_mpc((_round(from_man_exp(re, e)), _round(from_man_exp(im, e))))
    return mp.make_mpf(_round(from_man_exp(re, e)))


def _fx_product(z, q, J, F, flush):
    """prod_{j<J} (1 - z q^j) for int pairs z, q at F fractional bits.

    The running product is a mantissa of F + 1 bits with a binary exponent,
    so it neither underflows nor overflows.  A complex product is split into
    pieces before the summed |z q^j| of a piece passes ``flush``.  Returns
    (pieces, smin): each piece is (re, im, e), the value (re + i im) 2^e,
    and every factor has |1 - z q^j| >= 2^(smin - 2 - F).
    """
    one, F1 = 1 << F, F + 1
    wr, wi = z
    qr, qi = q
    pr, pi, es, smin = one, 0, 0, F1
    if not (wi or qi):
        for _ in range(J):
            t = pr * (one - wr)
            s = t.bit_length() - F1
            pr = t >> s if s >= 0 else t << -s
            es += s
            if s < smin:
                smin = s
            wr = wr * qr >> F
        return [(pr, 0, es - F * (J + 1))], smin
    pieces = []
    aw = math.hypot(wr / one, wi / one)
    aq = math.hypot(qr / one, qi / one)
    budget, j0 = 0.0, 0
    for j in range(J):
        fr = one - wr
        tr, ti = pr * fr + pi * wi, pi * fr - pr * wi
        s = (abs(tr) | abs(ti)).bit_length() - F1
        if s >= 0:
            pr, pi = tr >> s, ti >> s
        else:
            pr, pi = tr << -s, ti << -s
        es += s
        if s < smin:
            smin = s
        wr, wi = (wr * qr - wi * qi) >> F, (wr * qi + wi * qr) >> F
        budget += aw
        aw *= aq
        if budget > flush:
            pieces.append((pr, pi, es - F * (j - j0 + 2)))
            pr, pi, es, budget, j0 = one, 0, 0, 0.0, j + 1
    pieces.append((pr, pi, es - F * (J - j0 + 1)))
    return pieces, smin


def _factor_error(J, absq, absw, smin, F):
    """Round-off of a J-factor product loop, in units of 2^-F.

    Each computed w_j = z q^j is off by at most ew = 4 (1/(1-|q|) +
    J max(1, |z|) + 1) units: one truncation per multiply, the inputs'
    truncation, and their growth through |q|^i.  So factor j is off by a
    relative dmax = ew 2^(2 - smin) at most, and each renormalisation by 2
    units.  Returns (J (dmax 2^F + 2), ew), with None in place of the first
    when dmax >= 1/2, where a factor is within round-off of 0.
    """
    ew = 4 * (1 / float(1 - absq) + J * max(1.0, float(absw)) + 1)
    if math.log2(ew) + 3 >= smin:
        return None, ew
    d = 2 + F - smin  # beyond float range only above 1000 bits of precision
    return J * ((math.ldexp if d < 1000 else mp.ldexp)(ew, d) + 2), ew


# ---------------------------------------------------------------------------
# q-Pochhammer primitives

def log_qpoch_inf(z, q, tol=None) -> SeriesValue:
    """log (z;q)_inf = sum_{j>=0} log(1 - z q^j), for |z| < 1, |q| < 1.

    z and q may be complex.  The certified tail bound is
    |z| |q|^J / ((1-|q|)(1-|z|)), and the term count J is the first at which
    it is <= tol, found before the fixed-point product loop runs.  A complex
    product goes through log before its argument can wrap, so the principal
    branch is preserved.
    """
    q = q if isinstance(q, (mpf, mpc)) else mpf(q)
    z = z if isinstance(z, (mpf, mpc)) else mpf(z)
    absq = abs(q)
    absz = abs(z)
    if not absq < 1:
        raise DomainError(f"|q| must be < 1, got {absq}")
    if not absz < 1:
        raise DomainError(f"log_qpoch_inf requires |z| < 1, got |z|={absz}")
    if z == 0:
        return SeriesValue(mpf(0), mpf(0), 0)
    tol = mpf(2) ** (-mp.prec) if tol is None else mpf(tol)

    J, _ = _qpoch_terms(_ln(absz), _ln(absq), -_ln1m(absq) - _ln1m(absz), tol,
                        lambda: (absz, absq))
    F = mp.prec + _GUARD
    pieces, smin = _fx_product(_fx(z, F), _fx(q, F), J, F, _ARG_FLUSH)
    units, _ = _factor_error(J, absq, absz, smin, F)
    if units is None:
        raise ConvergenceError("log_qpoch_inf: a factor 1 - z q^j is within round-off of 0")
    # the factors' round-off moves the log by at most 2 units; each log and
    # each addition at F bits by at most 4 |log| more
    units *= 2
    cplx = isinstance(z, mpc) or isinstance(q, mpc)
    if cplx:
        acc = (fzero, fzero)
        for pr, pi, e in pieces:
            lg = mpc_log((from_man_exp(pr, e), from_man_exp(pi, e)), F)
            acc = mpc_add(acc, lg, F)
            units += 4 * (abs(to_float(lg[0])) + abs(to_float(lg[1])))
        value = mp.make_mpc((_round(acc[0]), _round(acc[1])))
    else:
        pr, _, e = pieces[0]
        acc = mpf_log(from_man_exp(pr, e), F)
        units += 4 * abs(to_float(acc))
        value = mp.make_mpf(_round(acc))
    tail = _qpoch_tail(absz, absq, J)
    return SeriesValue(value, tail + mp.ldexp(units, -F) + _roundoff(J, value), J)


def qpoch_inf_direct(a, q, rel_tol=None) -> SeriesValue:
    """(a;q)_inf by direct factor multiplication; works for any a.

    Used where |a| >= 1 rules out the log-series path (e.g. the q^(1/2)/z
    factor of the triple product) and by the eta/theta evaluators, with
    complex q.  The certified bound is relative and is converted to an
    absolute one on the returned value.
    """
    q = q if isinstance(q, (mpf, mpc)) else mpf(q)
    a = a if isinstance(a, (mpf, mpc)) else mpf(a)
    absq = abs(q)
    if not absq < 1:
        raise DomainError(f"|q| must be < 1, got {absq}")
    rel_tol = mpf(2) ** (-mp.prec + 2) if rel_tol is None else mpf(rel_tol)
    absa = abs(a)

    # once |a q^n| <= 1/2: |log prod_tail| <= sum 2|a q^j| <= 2|a q^n|/(1-|q|)
    def holds(n):
        absw = absa * absq**n
        return absw <= _HALF and 2 * absw / (1 - absq) <= rel_tol

    n = _linear_terms(_ln(absa), _ln(absq),
                      min(-_LN2, _ln(rel_tol) + _ln1m(absq) - _LN2), holds,
                      "qpoch_inf_direct")
    logtail = 2 * absa * absq**n / (1 - absq)
    F = mp.prec + _GUARD
    pieces, smin = _fx_product(_fx(a, F), _fx(q, F), n, F, math.inf)
    pr, pi, e = pieces[0]
    prod = _from_fx(pr, pi, e, isinstance(a, mpc) or isinstance(q, mpc))
    units, ew = _factor_error(n, absq, absa, smin, F)
    if units is None:
        # a factor within round-off of 0: every factor is at most 1 + |a q^j|
        fx_err = mp.exp(absa / (1 - absq)) * mp.expm1(mp.ldexp(2 * n * (ew + 2), -F))
    else:
        fx_err = abs(prod) * mp.expm1(mp.ldexp(2 * units, -F))
    err = abs(prod) * mp.expm1(logtail) + fx_err + _roundoff(n, prod)
    return SeriesValue(prod, err, n)


def _exp_with_err(logval, logerr):
    val = mp.exp(logval)
    return val, abs(val) * mp.expm1(logerr) + _roundoff(1, val)


def qpoch_n(z, q, n) -> SeriesValue:
    """(z;q)_n = (z;q)_inf / (z q^n;q)_inf; the index n may be any complex."""
    q = mpf(q)
    z = z if isinstance(z, (mpf, mpc)) else mpf(z)
    n = n if isinstance(n, (mpf, mpc)) else mpf(n)
    qn = mp.exp(n * mp.log(q)) if not (isinstance(n, mpf) or n.imag == 0) else q**n
    top = log_qpoch_inf(z, q)
    bot = log_qpoch_inf(z * qn, q)
    logval = top.value - bot.value
    val, err = _exp_with_err(logval, top.err_bound + bot.err_bound)
    return SeriesValue(val, err, top.terms_used + bot.terms_used)


def e_q(z, q) -> SeriesValue:
    """Euler q-exponential e_q(z) = 1/(z;q)_inf, |z| < 1 (product form)."""
    lg = log_qpoch_inf(z, q)
    val, err = _exp_with_err(-lg.value, lg.err_bound)
    return SeriesValue(val, err, lg.terms_used)


def e_q_series(z, q, tol=None) -> SeriesValue:
    """Series form sum z^n/(q;q)_n; independent cross-check of e_q."""
    q = mpf(q)
    z = z if isinstance(z, (mpf, mpc)) else mpf(z)
    if not 0 < q < 1:
        raise DomainError("e_q series needs 0 < q < 1")
    if not abs(z) < 1:
        raise DomainError("e_q series needs |z| < 1")
    if tol is None:
        tol = mpf(2) ** (-mp.prec + 2)
    qq_inf = qpoch_inf_direct(q, q)
    floor = abs(qq_inf.value) - qq_inf.err_bound  # (q;q)_n >= (q;q)_inf > 0
    acc = mpf(0) * z
    zn = 1
    poch = mpf(1)
    n = 0
    while True:
        acc = acc + zn / poch
        zn = zn * z
        poch = poch * (1 - q ** (n + 1))
        n += 1
        tail = abs(zn) / ((1 - abs(z)) * floor)
        if tail <= tol:
            break
        if n > DEFAULT_MAX_TERMS:
            raise ConvergenceError("e_q series did not reach tolerance")
    return SeriesValue(acc, tail + _roundoff(n, acc), n)


def E_q(z, q) -> SeriesValue:
    """Euler q-exponential E_q(z) = (-z;q)_inf, entire in z."""
    q = mpf(q)
    z = z if isinstance(z, (mpf, mpc)) else mpf(z)
    if abs(z) < 1:
        lg = log_qpoch_inf(-z, q)
        val, err = _exp_with_err(lg.value, lg.err_bound)
        return SeriesValue(val, err, lg.terms_used)
    return qpoch_inf_direct(-z, q)


def E_q_series(z, q, tol=None) -> SeriesValue:
    """Series form sum q^(n(n-1)/2) z^n/(q;q)_n; cross-check of E_q."""
    q = mpf(q)
    z = z if isinstance(z, (mpf, mpc)) else mpf(z)
    if not 0 < q < 1:
        raise DomainError("E_q series needs 0 < q < 1")
    if tol is None:
        tol = mpf(2) ** (-mp.prec + 2)
    qq_inf = qpoch_inf_direct(q, q)
    floor = abs(qq_inf.value) - qq_inf.err_bound
    acc = mpf(0) * z
    term_num = mpc(1) if isinstance(z, mpc) else mpf(1)  # q^binom(n,2) z^n
    poch = mpf(1)
    n = 0
    while True:
        acc = acc + term_num / poch
        term_num = term_num * z * q**n
        poch = poch * (1 - q ** (n + 1))
        n += 1
        ratio = abs(z) * q**n  # |term_{n+1}|/|term_n| decreases in n
        if ratio < _HALF:
            tail = 2 * abs(term_num) / floor
            if tail <= tol:
                break
        if n > DEFAULT_MAX_TERMS:
            raise ConvergenceError("E_q series did not reach tolerance")
    return SeriesValue(acc, tail + _roundoff(n, acc), n)


def q_binomial_check(a, z, q, tol=None):
    """Both sides of (az;q)_inf/(z;q)_inf = sum (a;q)_n/(q;q)_n z^n, |z| < 1.

    Returns (lhs, rhs) as SeriesValues computed by independent routes.
    """
    q = mpf(q)
    a = a if isinstance(a, (mpf, mpc)) else mpf(a)
    z = z if isinstance(z, (mpf, mpc)) else mpf(z)
    if not abs(z) < 1:
        raise DomainError("q-binomial series needs |z| < 1")
    if tol is None:
        tol = mpf(2) ** (-mp.prec + 4)
    if abs(a * z) < 1:
        top = log_qpoch_inf(a * z, q)
        lv, le = _exp_with_err(top.value, top.err_bound)
        top = SeriesValue(lv, le, top.terms_used)
    else:
        top = qpoch_inf_direct(a * z, q)
    bot_log = log_qpoch_inf(z, q)
    bot, bot_err = _exp_with_err(bot_log.value, bot_log.err_bound)
    lhs_val = top.value / bot
    lhs_err = (top.err_bound + abs(lhs_val) * bot_err) / (abs(bot) - bot_err)
    lhs = SeriesValue(lhs_val, lhs_err, top.terms_used + bot_log.terms_used)

    qq_inf = qpoch_inf_direct(q, q)
    floor = abs(qq_inf.value) - qq_inf.err_bound
    # |(a;q)_n| <= prod (1+|a|q^j) <= (-|a|;q)_inf
    cap = qpoch_inf_direct(-abs(a), q)
    M = (abs(cap.value) + cap.err_bound) / floor
    acc = mpf(0) * z * a
    poch_a = mpc(1) if isinstance(a, mpc) or isinstance(z, mpc) else mpf(1)
    poch_q = mpf(1)
    zn = 1
    n = 0
    while True:
        acc = acc + poch_a / poch_q * zn
        poch_a = poch_a * (1 - a * q**n)
        poch_q = poch_q * (1 - q ** (n + 1))
        zn = zn * z
        n += 1
        tail = M * abs(zn) / (1 - abs(z))
        if tail <= tol:
            break
        if n > DEFAULT_MAX_TERMS:
            raise ConvergenceError("q-binomial series did not reach tolerance")
    rhs = SeriesValue(acc, tail + _roundoff(n, acc), n)
    return lhs, rhs


def q_gamma(w, q) -> SeriesValue:
    """Gamma_q(w) = (q;q)_inf / (q^w;q)_inf * (1-q)^(1-w)."""
    q = mpf(q)
    if not 0 < q < 1:
        raise DomainError("q_gamma needs 0 < q < 1")
    w = w if isinstance(w, (mpf, mpc)) else mpf(w)
    qw = mp.exp(w * mp.log(q))
    top = log_qpoch_inf(q, q)
    if abs(qw) < 1:
        bot = log_qpoch_inf(qw, q)
    else:
        direct = qpoch_inf_direct(qw, q)
        if abs(direct.value) <= direct.err_bound:
            raise DomainError(f"q_gamma pole at w={w}")
        bot = SeriesValue(
            mp.log(direct.value),
            direct.err_bound / (abs(direct.value) - direct.err_bound),
            direct.terms_used,
        )
    logval = top.value - bot.value + (1 - w) * mp.log(1 - q)
    val, err = _exp_with_err(logval, top.err_bound + bot.err_bound)
    return SeriesValue(val, err, top.terms_used + bot.terms_used)


# ---------------------------------------------------------------------------
# theta / eta

def theta_sum(z, q, tol=None) -> SeriesValue:
    """sum over all integers n of q^(n^2/2) (-z)^n, |q| < 1, z != 0."""
    q = mpf(q)
    z = z if isinstance(z, (mpf, mpc)) else mpf(z)
    if z == 0:
        raise DomainError("theta_sum needs z != 0")
    if not 0 < q < 1:
        raise DomainError("theta_sum needs 0 < q < 1")
    if tol is None:
        tol = mpf(2) ** (-mp.prec + 2)
    sq = mp.sqrt(q)
    Z = max(abs(z), 1 / abs(z))
    acc = mpc(1) if isinstance(z, mpc) else mpf(1)  # n = 0 term
    n = 0
    while True:
        n += 1
        qn2 = q ** (mpf(n) ** 2 / 2)
        acc = acc + qn2 * ((-z) ** n + (-z) ** (-n))
        # term ratio for |m| > n: q^(m+1/2) Z; once < 1/2 the tail telescopes
        ratio = sq * q**n * Z
        bound_term = q ** (mpf(n + 1) ** 2 / 2) * Z ** (n + 1)
        if ratio < _HALF:
            tail = 4 * bound_term
            if tail <= tol:
                break
        if n > 10000:
            raise ConvergenceError("theta_sum did not reach tolerance")
    return SeriesValue(acc, tail + _roundoff(2 * n + 1, acc), 2 * n + 1)


def triple_product(z, q):
    """LHS and RHS of the Jacobi triple product identity.

    LHS: the bilateral theta sum; RHS: (q;q)_inf (sqrt(q) z;q)_inf
    (sqrt(q)/z;q)_inf, with factors of modulus >= 1 evaluated by direct
    factor products.
    """
    q = mpf(q)
    z = z if isinstance(z, (mpf, mpc)) else mpf(z)
    lhs = theta_sum(z, q)
    sq = mp.sqrt(q)
    parts = [qpoch_inf_direct(q, q), qpoch_inf_direct(sq * z, q), qpoch_inf_direct(sq / z, q)]
    val = parts[0].value * parts[1].value * parts[2].value
    # relative errors add (first order), with a crude second-order cushion
    rel = mpf(0)
    for p in parts:
        if abs(p.value) > 0:
            rel += p.err_bound / abs(p.value)
        else:
            rel += p.err_bound
    err = abs(val) * rel * 2 + _roundoff(3, val)
    rhs = SeriesValue(val, err, sum(p.terms_used for p in parts))
    return lhs, rhs


def dedekind_eta(tau) -> SeriesValue:
    """eta(tau) = q^(1/24) (q;q)_inf with q = exp(2 pi i tau), Im tau > 0."""
    tau = mpc(tau)
    if not tau.imag > 0:
        raise DomainError("dedekind_eta needs Im(tau) > 0")
    q = mp.exp(2j * mp.pi * tau)
    pref = mp.exp(2j * mp.pi * tau / 24)
    poch = qpoch_inf_direct(q, q)
    val = pref * poch.value
    return SeriesValue(val, abs(pref) * poch.err_bound + _roundoff(1, val), poch.terms_used)


def weierstrass_delta(tau) -> SeriesValue:
    """Modular discriminant Delta(tau) = (2 pi)^12 q (q;q)_inf^24."""
    tau = mpc(tau)
    if not tau.imag > 0:
        raise DomainError("weierstrass_delta needs Im(tau) > 0")
    q = mp.exp(2j * mp.pi * tau)
    poch = qpoch_inf_direct(q, q)
    if abs(poch.value) <= poch.err_bound:
        raise ConvergenceError("(q;q)_inf indistinguishable from 0")
    logval = 12 * mp.log(2 * mp.pi) + 2j * mp.pi * tau + 24 * mp.log(poch.value)
    logerr = 24 * poch.err_bound / (abs(poch.value) - poch.err_bound)
    val, err = _exp_with_err(logval, logerr)
    return SeriesValue(val, err, poch.terms_used)


# ---------------------------------------------------------------------------
# the two workhorse evaluators

def _growth(f: ArithTable):
    C, beta = f.growth
    return mpf(C), mpf(beta)


def _truncation(f, pref, p, r, tol, max_terms, name, side):
    """N*, the smallest N >= 1 with pref * _poly_geom_tail(p, r, N) <= tol (inf
    if r rounds to 1), checked against max_terms and the table f's length."""
    lr, N = _ln(r), math.inf
    if lr < 0:
        lu, pf, lt = -lr / 2, float(p), _ln(tol)
        base = _ln(pref) - math.log(-math.expm1(-lu))

        def logb(n):  # log of pref * _poly_geom_tail(p, r, n), as a float
            x = n + 1
            if pf <= lu * x:
                return base + pf * math.log(x) - 2 * lu * x
            return base + pf * (math.log(pf / lu) - 1) - lu * x

        N = _first_term(logb, lt, lambda n: pref * _poly_geom_tail(p, r, n) <= tol,
                        (base - lt) / -lr - 1)
    if N > max_terms:
        raise ConvergenceError(
            f"{name} needs N*={N:.6g} terms, more than max_terms={max_terms}", side=side)
    if N > f.N:
        raise TableTooShortError(
            f"{name} needs N*={N:.6g} tabulated values, more than {f.N}", side=side, needed=N)
    return N


def lambert_sum(
    f: ArithTable,
    kernel: KernelForm,
    pt: QPoint,
    tol=DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesValue:
    """sum_n f(n)/n^w * q^(nz) / (1 -+ q^n) with a certified tail <= tol.

    The truncation point N is certified from the table's growth bound
    (C, beta): tail <= C/(1-q) * sum_{n>N} n^(beta-w) r^n with r = q^Re(z).
    N is the smallest such N, found before any table value is read.

    The N terms are summed on Python ints at F = prec + G fractional bits,
    G = 32 + 2 ceil(log2 1/(1-q)).  q^n and x_n = q^(nz) advance by one
    multiply and shift each; every table value enters exactly, as
    (cr + i ci) 2^e / den, and each term is one floor division.  Round-off,
    in units u = 2^-F:

    * A power a^n built as p_n = trunc(p_{n-1} a~), with |a~ - a| <= d u,
      one truncation of at most t units and |a~| <= a' < 1, is off by
      E_n <= a' E_{n-1} + d a^(n-1) + t, so E_n <= d n a'^(n-1) + t/(1-a')
      <= (d + t)/(1 - a'), as n a'^(n-1) <= sum_{k<n} a'^k.  For q^n, d = t
      = 1: Eq = 2/(1 - q - u).  For q^(nz), q^z is worked out 16 bits above
      F, so it is off by less than 2 units per component and t = 1 per
      component: d + t <= 3 sqrt(2) < 5 and a' <= r + 3u, so
      Ex = 5/(1 - r - 3u) covers real and complex z.
    * With D = 1 -+ q^n >= Dmin (1 - q for minus, 1 for plus), D~ its
      computed value and M = |f(n)|/n^w <= C n^p, p = beta - w, the value
      divided is off by M |x/D - x~/D~| <= M (Ex/D~ + r^n Eq/(D D~)) units,
      and the floor division by less than one unit per component.

    Summed over n <= N, with sum n^p r^n <= sum n^p <= N max(1, N^p), the
    round-off is at most k N + C N max(1, N^p) (Ex + Eq/Dmin)/D~min units,
    k = 1 for a real and 2 for a complex sum; a factor 1.01 covers the
    rounding of this bound and table values a rounding above C n^beta.  The
    sum is exact; its final rounding to the working precision lies inside
    the unchanged _roundoff cover.
    """
    q, z = pt.q, pt.z
    tol = mpf(tol)
    C, beta = _growth(f)
    complex_z = isinstance(z, mpc)
    if C == 0:
        return SeriesValue(mpc(0) if complex_z else mpf(0), mpf(0), 0)
    w = 1 if kernel.weight == "over_n" else 0
    p = beta - w
    r = q ** (z.real if complex_z else z)
    pref = C / (1 - q)
    N = _truncation(f, pref, p, r, tol, max_terms, "lambert_sum", "lambert")

    # the minus kernel carries the error of q^n into the term by 1/(1-q^n)^2
    F = mp.prec + 32 + 2 * math.ceil(-math.log2(float(1 - q)))
    with mp.workprec(F + 16):
        qz = mp.exp(z * mp.log(q)) if complex_z else q**z
    one, Q = 1 << F, to_fixed(q._mpf_, F)
    br, bi = _fx(qz, F)
    minus = kernel.kernel == "minus"
    ar = ai = xi = 0
    sn, xr = -one if minus else one, one  # sn = -+q^n: 1 -+ q^n is one + sn
    cplx = complex_z
    for n, c in enumerate(islice(f.values, 1, N + 1), 1):
        sn = sn * Q >> F
        if bi:
            xr, xi = (xr * br - xi * bi) >> F, (xr * bi + xi * br) >> F
        else:
            xr = xr * br >> F
        if not c:
            continue
        div = (one + sn) * n if w else one + sn
        if type(c) is int:
            ar += (c * xr << F) // div
            if xi:
                ai += (c * xi << F) // div
            continue
        cr, ci, e, den = _fixed_coeff(c)
        cplx = cplx or isinstance(c, mpc)
        sh, div = F + e, div * den
        nr, ni = cr * xr - ci * xi, cr * xi + ci * xr
        if sh < 0:
            div <<= -sh
            sh = 0
        ar += (nr << sh) // div
        if ni:
            ai += (ni << sh) // div
    acc = _from_fx(ar, ai, -F, cplx)

    u = mp.ldexp(1, -F)
    dmin = 1 - q if minus else mpf(1)
    eq = 2 / (1 - q - u)
    dhat = dmin - eq * u
    ex = 5 / (1 - r - 3 * u)
    units = (2 if cplx else 1) * N + C * N * max(1, mpf(N) ** p) * (ex + eq / dmin) / dhat
    tail = pref * _poly_geom_tail(p, r, N)
    return SeriesValue(acc, tail + mpf("1.01") * units * u + _roundoff(N, acc), N)


def _fixed_coeff(c):
    """A Fraction, mpf or mpc table value c as exact ints (cr, ci, e, den)
    with c = (cr + i ci) 2^e / den."""
    if isinstance(c, mpf):
        sgn, man, e, _ = c._mpf_
        return -man if sgn else man, 0, e, 1
    if isinstance(c, mpc):
        (s1, m1, e1, _), (s2, m2, e2, _) = c._mpc_
        e = min(e1 if m1 else e2, e2 if m2 else e1)
        return ((-m1 if s1 else m1) << (e1 - e) if m1 else 0,
                (-m2 if s2 else m2) << (e2 - e) if m2 else 0, e, 1)
    return c.numerator, 0, 0, c.denominator


def weighted_product_log(
    g: ArithTable,
    pt: QPoint,
    form: str = "A",
    weight: str = "over_n",
    tol=DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesValue:
    """Log of the weighted q-Pochhammer product over n with exponents g(n)/n^w.

    Form A: sum_n g(n)/n^w * log (q^(nz); q^n)_inf.
    Form B: sum_n g(n)/n^w * [log (q^(n(z+1)); q^(2n))_inf
                              - log (q^(nz); q^(2n))_inf].
    The outer tail uses |log (q^(nz);q^n)_inf| <= r^n / ((1-q)(1-r)), and N
    is sized as in lambert_sum.  Each inner log-Pochhammer stops where
    log_qpoch_inf would.  At real z = a/b with b <= 2 it is a strided sum
    over the cached table of log(1 - q^(k/b)), unless a is so large that
    most of the table would go unread; otherwise it calls log_qpoch_inf.
    """
    if form not in ("A", "B"):
        raise DomainError(f"form must be 'A' or 'B', got {form!r}")
    if weight not in ("over_n", "plain"):
        raise DomainError(f"weight must be 'over_n' or 'plain', got {weight!r}")
    q, z = pt.q, pt.z
    tol = mpf(tol)
    C, beta = _growth(g)
    complex_z = isinstance(z, mpc)
    if C == 0:
        return SeriesValue(mpc(0) if complex_z else mpf(0), mpf(0), 0)
    w = 1 if weight == "over_n" else 0
    p = beta - w
    r = q ** (z.real if complex_z else z)
    # r rounds to 1 once Re z is below about 2^-prec; no N certifies then
    pref = (2 if form == "B" else 1) * C / ((1 - q) * (1 - r)) if r < 1 else mp.inf
    N = _truncation(g, pref, p, r, tol, max_terms, "weighted_product_log", "product")

    inner_tol = mpf(2) ** (-mp.prec)
    ab = None if complex_z else _small_fraction(z)
    inner = _table_inner(q, ab, form, inner_tol) if ab else None
    if inner is None:
        inner = _pochhammer_inner(q, z, form, inner_tol)
    acc = mpc(0) if complex_z else mpf(0)
    err_acc = mpf(0)
    inner_terms = 0
    for n in range(1, N + 1):
        gv = g.values[n]
        if gv:
            c = _to_mp(gv)
            if w:
                c = c / n
            val, ierr, terms = inner(n)
            inner_terms += terms
            acc = acc + c * val
            err_acc += abs(c) * ierr
    tail = pref * _poly_geom_tail(p, r, N)
    return SeriesValue(acc, tail + err_acc + _roundoff(N + inner_terms, acc), N)


# weighted_product_log at real z = a/b with b <= _MAX_DENOM reads its inner
# products from a table of log(1 - q^(k/b)), cached per (q, b, precision).
# A table holds about b prec ln 2/(1 - q) entries, so the cache caps their
# total: before a table grows past it, the oldest other tables are dropped.
# b = 1 and 2 are the denominators whose timings were measured against the
# log_qpoch_inf path; the table's cost per entry read grows with b.
_MAX_DENOM = 2
_MAX_LOG_ENTRIES = 1 << 20
_log_tables = {}


def _small_fraction(z):
    """(a, b) with z = a/b exactly and b <= _MAX_DENOM, else None."""
    man, exp = z.man_exp
    if exp >= 0:
        return man << exp, 1
    if 1 << -exp <= _MAX_DENOM:
        return man, 1 << -exp
    return None


def _pochhammer_inner(q, z, form, inner_tol):
    """n -> (value, bound, terms) of the inner log-Pochhammer of
    weighted_product_log, through log_qpoch_inf."""
    logq = mp.log(q)
    complex_z = isinstance(z, mpc)
    qz = mp.exp(z * logq) if complex_z else q**z
    if form == "A":
        qz1, base_step = None, q
    else:
        qz1 = mp.exp((z + 1) * logq) if complex_z else q ** (z + 1)
        base_step = q * q
    # q^(nz), q^(n(z+1)) and the base at n = k, advanced one n at a time
    k, an, b1n, base_n = 0, qz * 0 + 1, qz * 0 + 1, mpf(1)

    def inner(n):
        nonlocal k, an, b1n, base_n
        while k < n:
            k += 1
            an = an * qz
            base_n = base_n * base_step
            if qz1 is not None:
                b1n = b1n * qz1
        i2 = log_qpoch_inf(an, base_n, tol=inner_tol)
        if qz1 is None:
            return i2.value, i2.err_bound, i2.terms_used
        i1 = log_qpoch_inf(b1n, base_n, tol=inner_tol)
        return (i1.value - i2.value, i1.err_bound + i2.err_bound,
                i1.terms_used + i2.terms_used)

    return inner


def _table_inner(q, ab, form, inner_tol):
    """As _pochhammer_inner, at real z = a/b: each inner log-Pochhammer is a
    strided sum over the cached table L[k] = log(1 - Q^k), Q = q^(1/b).

    Its term count J and its tail bound are the ones log_qpoch_inf finds for
    the same arguments, and each table entry is within 3 units of 2^-F.
    Returns None where the products at n = 1 would read less than a quarter
    of the table they need, as they do once q^z is near the tolerance.
    """
    a, b = ab
    prec = mp.prec
    F = prec + _GUARD
    lnQ = _ln(q) / b
    step = b if form == "A" else 2 * b
    firsts = (a,) if form == "A" else (a, a + b)
    entry_units = 2.0 ** (2 - _GUARD)  # 3 units of 2^-F, in units of 2^-prec

    def terms(start, stride):
        lw, lb = start * lnQ, stride * lnQ
        lpref = -math.log(-math.expm1(lw)) - math.log(-math.expm1(lb)) if lb else math.inf
        return _qpoch_terms(lw, lb, lpref, inner_tol,
                            lambda: (q ** (mpf(start) / b), q ** (mpf(stride) / b)))

    def strided(start, stride):
        # log (Q^start; Q^stride)_inf = sum_j L[start + j stride]
        J, ltail = terms(start, stride)
        L = _log1m_table(q, b, start + stride * (J - 1))
        val = sum(L[start:start + stride * J:stride])
        # in units of 2^-prec: the tail, _roundoff as log_qpoch_inf counts
        # it, and 3 units of 2^-F per entry
        absval = to_float(from_man_exp(abs(val), -F), rnd=round_up)
        err = math.exp(ltail + prec * _LN2) + _roundoff_units(J, absval) + J * entry_units
        return val, err, J

    def inner(n):
        v, e, j = strided(n * a, n * step)
        if form == "B":
            v1, e1, j1 = strided(n * (a + b), n * step)
            v, e, j = v1 - v, e1 + e, j1 + j
        # 1e-9 covers the float rounding of e
        return _from_fx(v, 0, -F, False), mp.ldexp(e * (1 + 1e-9), -prec), j

    try:
        Js = [terms(s, step)[0] for s in firsts]
    except ConvergenceError:
        return None  # log_qpoch_inf raises the same error, if n = 1 is used
    if max(s + step * (J - 1) for s, J in zip(firsts, Js)) > 4 * sum(Js):
        return None
    return inner


def _log1m_table(q, b, kmax):
    """L with L[k] = log(1 - q^(k/b)) at F = mp.prec + _GUARD fractional bits,
    for 1 <= k <= kmax at least (L[0] = 0 is unused).

    Tables are cached per (q, b, mp.prec) and grown on demand, one entry at a
    time, so an entry does not depend on the order of the calls.  Powers of
    Q = q^(1/b) carry FH = F + H bits with 2^-H 6/(1-Q)^3 <= 1, so each entry
    is within 3 units of 2^-F: the power's error through the log, the log's
    own, and its truncation.
    """
    F = mp.prec + _GUARD
    key = (q, b, mp.prec)
    tab = _log_tables.get(key)
    if tab is None:
        FH = F + 3 + 3 * math.ceil(-math.log2(-math.expm1(_ln(q) / b)))
        with mp.workprec(FH + 8):
            Q = q if b == 1 else mp.root(q, b)
        tab = _log_tables[key] = [[0], 1 << FH, to_fixed(Q._mpf_, FH), FH]
    L, x, Qh, FH = tab
    if len(L) <= kmax:
        others = [k for k in _log_tables if k != key]
        while others and (kmax + 1 - len(L) + sum(len(t[0]) for t in _log_tables.values())
                          > _MAX_LOG_ENTRIES):
            del _log_tables[others.pop(0)]
    one = 1 << FH
    try:
        while len(L) <= kmax:
            x = x * Qh >> FH
            L.append(to_fixed(mpf_log(from_man_exp(one - x, -FH), FH), F))
    except BaseException:
        # L may have outrun the power stored with it; never keep that pair
        del _log_tables[key]
        raise
    tab[1] = x
    return L
