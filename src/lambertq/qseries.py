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
from collections import namedtuple
from itertools import islice

from mpmath import mp, mpf, mpc
from mpmath.libmp import (
    from_man_exp, mpc_log, mpf_log, round_nearest, to_fixed, to_float,
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


class QPoint(namedtuple("QPoint", "q z")):
    """Evaluation point: base q in (0,1) and finite exponent shift z with Re z > 0."""

    __slots__ = ()

    def __new__(cls, q, z):
        qv = mpf(q)
        if not 0 < qv < 1:
            raise DomainError(f"q must lie in (0,1), got {q}")
        zv = mpc(z)
        if not mp.isfinite(zv):
            raise DomainError(f"z must be finite, got {z}")
        if not zv.real > 0:
            raise DomainError(f"Re(z) must be positive, got {z}")
        return super().__new__(cls, qv, zv if zv.imag != 0 else mpf(zv.real))


class KernelForm(namedtuple("KernelForm", "kernel weight")):
    """Lambert-sum kernel 1/(1-q^n) or 1/(1+q^n), with f(n)/n or plain f(n)."""

    __slots__ = ()

    def __new__(cls, kernel="minus", weight="over_n"):
        if kernel not in ("minus", "plus"):
            raise DomainError(f"kernel must be 'minus' or 'plus', got {kernel!r}")
        if weight not in ("over_n", "plain"):
            raise DomainError(f"weight must be 'over_n' or 'plain', got {weight!r}")
        return super().__new__(cls, kernel, weight)


class SeriesValue(namedtuple("SeriesValue", "value err_bound terms_used")):
    """A computed value, a certified absolute error bound, and the term count."""

    __slots__ = ()

    def __new__(cls, value, err_bound, terms_used):
        if err_bound < 0 or not mp.isfinite(err_bound):
            raise ValueError("err_bound must be finite and nonnegative")
        return super().__new__(cls, value, err_bound, terms_used)


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


def _fx(x, F):
    """An mpf or mpc as an (re, im) pair of ints at F fractional bits."""
    if isinstance(x, mpc):
        re, im = x._mpc_
        return to_fixed(re, F), to_fixed(im, F)
    return to_fixed(x._mpf_, F), 0


def _from_fx(re, im, e, cplx):
    """The value (re + i im) 2^e rounded to the working precision, as mpf or mpc."""
    prec = mp.prec
    if cplx:
        return mp.make_mpc((from_man_exp(re, e, prec, round_nearest),
                            from_man_exp(im, e, prec, round_nearest)))
    return mp.make_mpf(from_man_exp(re, e, prec, round_nearest))


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


def _factor_error(J, lq, absw, smin, F, ew0=1.0, eq0=1.0):
    """Round-off of a J-factor product loop, in units of 2^-F.

    lq is log |q| as a float.  The inputs w and q are off by at most ew0 and
    eq0 units.  Each computed w_j = w q^j is then off by at most ew =
    4 (ew0 + J max(1, |w|) eq0 + 1/(1-|q|)) units: the input errors, carried
    through |q|^i, and one truncation per multiply.  So factor j is off by a
    relative dmax = ew 2^(2 - smin) at most, and each renormalisation by 2
    units.  Returns (J (dmax 2^F + 2), ew), with None in place of the first
    when dmax >= 1/2, where a factor is within round-off of 0.
    """
    ew = 4 * (ew0 + J * max(1.0, float(absw)) * eq0 - 1 / math.expm1(lq))
    if math.log2(ew) + 3 >= smin:
        return None, ew
    d = 2 + F - smin  # beyond float range only above 1000 bits of precision
    return J * ((math.ldexp if d < 1000 else mp.ldexp)(ew, d) + 2), ew


def _log1m(t, F):
    """log(1 - t) at F fractional bits for an int t with |t| < 2^(F-16), by
    the series -sum_k t^k/k, whose terms fall by 2^-16 or more each.

    Returns (value, k) with the value off by less than 2k units of 2^-F:
    each power and each division truncates by less than one unit, and the
    terms dropped after the last power that is still nonzero sum to less
    than one unit.
    """
    a, s, k = abs(t), 0, 1
    p = a
    while p:
        s += p // k if t < 0 and k & 1 else -(p // k)
        p = p * a >> F
        k += 1
    return s, k


def _log_qpoch(seqs, b, lb, lt, F, eb=1.0):
    """sum_k s_k sum_{j<J_k} log(1 - w_k b^j), the log of a product of
    q-Pochhammer symbols (w_k; b)_inf^(s_k) with s_k = +-1.

    ``seqs`` holds (s_k, w_k, lw_k, lpref_k, holds_k, ew_k).  w_k and b are
    int pairs at F = prec + _GUARD fractional bits, |w_k|, |b| < 1, off by
    at most ew_k and eb units of 2^-F.  lw_k, lpref_k, lb and lt are the
    natural logs of |w_k|, 1/((1-|b|)(1-|w_k|)), |b| and tol as floats, and
    ``holds_k(J)`` is the test _qpoch_tail(|w_k|, |b|, J) <= tol in mpf.
    J_k is the first J >= 1 that passes it, so the discarded tail is at most
    exp(lw_k + J_k lb + lpref_k).  Returns (re, im, Js, units, absval): the
    sum as an int pair at F bits, the J_k, a float bound on its round-off in
    units of 2^-prec, and its modulus as a float, for the _roundoff cover of
    a caller that rounds it to the working precision.  Real
    products take one log of their quotient, by _log1m within 2^-16 of 1; a
    complex product goes through log before its argument can wrap, so the
    principal branch is preserved.
    """
    cplx = b[1] or any(w[1] for _, w, _, _, _, _ in seqs)
    Js, units, num, den, ne, logs = [], 0.0, 1, 1, 0, []
    for s, w, lw, lpref, holds, ew in seqs:
        J = _linear_terms(lw, lb, lt - lpref, holds, "log_qpoch_inf")
        pieces, smin = _fx_product(w, b, J, F, _ARG_FLUSH)
        fe, _ = _factor_error(J, lb, math.exp(lw), smin, F, ew, eb)
        if fe is None:
            raise ConvergenceError("log_qpoch_inf: a factor 1 - z q^j is within round-off of 0")
        # the factors' round-off moves the log by at most 2 units
        Js.append(J)
        units += 2 * fe
        if cplx:
            logs += [(s, pr, pi, e) for pr, pi, e in pieces]
        elif s > 0:
            num, ne = num * pieces[0][0], ne + pieces[0][2]
        else:
            den, ne = den * pieces[0][0], ne - pieces[0][2]
    # each log moves the sum by at most 4 |log| units and its truncation to F
    # bits by 1 per component; the quotient is good to 1 part in 2^(F+1)
    re = im = 0
    if cplx:
        fr = fi = 0.0
        for s, pr, pi, e in logs:
            lr, li = mpc_log((from_man_exp(pr, e), from_man_exp(pi, e)), F)
            re, im = re + s * to_fixed(lr, F), im + s * to_fixed(li, F)
            fr, fi = fr + s * to_float(lr), fi + s * to_float(li)
            units += 4 * (abs(to_float(lr)) + abs(to_float(li))) + 2
        absval = math.hypot(fr, fi)
    else:
        if den > 1:
            sh = den.bit_length() + F + 1
            num, ne = (num << sh) // den, ne - sh
        d = -ne - F
        t = (1 << F) - (num >> d if d >= 0 else num << -d)  # 1 - x, within 1 unit
        if abs(t) >> (F - 16):
            lg = mpf_log(from_man_exp(num, ne), F)
            re = to_fixed(lg, F)
            absval = abs(to_float(lg))
            units += 4 * absval + 2
        else:
            re, k = _log1m(t, F)
            absval = abs(re) / (1 << F)
            units += 2 * k + 4
    return re, im, Js, units / (1 << _GUARD), absval


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

    F = mp.prec + _GUARD
    seq = (1, _fx(z, F), _ln(absz), -_ln1m(absq) - _ln1m(absz),
           lambda j: _qpoch_tail(absz, absq, j) <= tol, 1.0)
    re, im, (J,), units, absval = _log_qpoch([seq], _fx(q, F), _ln(absq), _ln(tol), F)
    value = _from_fx(re, im, -F, isinstance(z, mpc) or isinstance(q, mpc))
    units += _roundoff_units(J, absval)
    # 1e-9 covers the float rounding of units
    err = _qpoch_tail(absz, absq, J) + mp.ldexp(units * (1 + 1e-9), -mp.prec)
    return SeriesValue(value, err, J)


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
    units, ew = _factor_error(n, _ln(absq), absa, smin, F)
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
        cplx = cplx or isinstance(c, mpc)
        dr, di = _fixed_term(c, xr, xi, F, div)
        ar, ai = ar + dr, ai + di
    acc = _from_fx(ar, ai, -F, cplx)

    u = mp.ldexp(1, -F)
    dmin = 1 - q if minus else mpf(1)
    eq = 2 / (1 - q - u)
    dhat = dmin - eq * u
    ex = 5 / (1 - r - 3 * u)
    units = (2 if cplx else 1) * N + C * N * max(1, mpf(N) ** p) * (ex + eq / dmin) / dhat
    tail = pref * _poly_geom_tail(p, r, N)
    return SeriesValue(acc, tail + mpf("1.01") * units * u + _roundoff(N, acc), N)


def _fixed_term(c, xr, xi, sh, div):
    """floor(c (xr + i xi) 2^sh / div) per component for ints xr, xi, sh and
    div > 0.  A Fraction, mpf or mpc table value c enters exactly, as
    (cr + i ci) 2^e / den, so only the two floors round."""
    if isinstance(c, mpf):
        sgn, cr, e, _ = c._mpf_
        cr, ci, den = -cr if sgn else cr, 0, 1
    elif isinstance(c, mpc):
        (s1, m1, e1, _), (s2, m2, e2, _) = c._mpc_
        e, den = min(e1 if m1 else e2, e2 if m2 else e1), 1
        cr = (-m1 if s1 else m1) << (e1 - e) if m1 else 0
        ci = (-m2 if s2 else m2) << (e2 - e) if m2 else 0
    else:
        cr, ci, e, den = c.numerator, 0, 0, c.denominator
    sh, div = sh + e, div * den
    if sh < 0:
        div <<= -sh
        sh = 0
    return ((cr * xr - ci * xi) << sh) // div, ((cr * xi + ci * xr) << sh) // div


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
    is sized as in lambert_sum.  Each inner log-Pochhammer is _log_qpoch on
    w_n = q^(nz) (and q^(n(z+1)) in form B) and b_n = q^n (q^(2n) in form B),
    which advance as int pairs at F = prec + _GUARD bits by one multiply and
    shift per n; it stops where log_qpoch_inf would.  Each base is worked out
    16 bits above F, so by the power lemma of lambert_sum a power of a base of
    modulus a is off by at most 5/(1 - a - 3u) units u = 2^-F.

    The outer sum is an int pair at the same F bits.  Each inner value v_n
    enters it as c_n v_n with c_n = g(n)/n^w exact, as in lambert_sum: an int
    g(n) times v_n, floor-divided by n if w = 1; a Fraction, mpf or mpc as
    (cr + i ci) 2^e / den, one floor division by den n^w per component.  Each
    floor is off by less than one unit per component and a product by an int
    is exact, so the sum is off from sum_n c_n v_n by less than 2N units, or
    2N 2^-_GUARD units of 2^-prec, counted in the bound; it is rounded to the
    working precision once, inside the unchanged _roundoff cover.
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

    prec, F = mp.prec, mp.prec + _GUARD
    inner_tol, lt, u3 = mp.ldexp(1, -prec), -prec * _LN2, math.ldexp(3, -F)
    with mp.workprec(F + 16):
        qz = mp.exp(z * mp.log(q)) if complex_z else q**z
        ws, base = ((qz,), q) if form == "A" else ((qz * q, qz), q * q)
    # per power sequence: sign, base q^z or q^(z+1) as an int pair, its
    # modulus as mpf and its log, and the round-off of its powers
    seqs = []
    for sign, x, a in zip((1, -1), ws, (r,) if form == "A" else (r * q, r)):
        la = _ln(a)
        seqs.append((sign, _fx(x, F), a, la, 5 / (-math.expm1(la) - u3)))
    B, lb1 = to_fixed(base._mpf_, F), _ln(base)
    eb = 5 / (-math.expm1(lb1) - u3)
    bn, xs = 1 << F, [(1 << F, 0)] * len(seqs)
    ar = ai = inner_terms = 0
    cplx = complex_z
    # sum of |g(n)/n^w| times the inner bounds, and the outer floors, in units of 2^-prec
    err_units = 2 * N / (1 << _GUARD)
    for n in range(1, N + 1):
        bn = bn * B >> F
        xs = [((xr * wr - xi * wi) >> F, (xr * wi + xi * wr) >> F)
              for (xr, xi), (_, (wr, wi), _, _, _) in zip(xs, seqs)]
        gv = g.values[n]
        if not gv:
            continue
        lb = n * lb1
        lpb = -math.log(-math.expm1(lb))
        prods = [(s, x, n * la, lpb - math.log(-math.expm1(n * la)),
                  lambda j, a=a: _qpoch_tail(a**n, base**n, j) <= inner_tol, ew)
                 for x, (s, _, a, la, ew) in zip(xs, seqs)]
        vr, vi, Js, err, _ = _log_qpoch(prods, (bn, 0), lb, lt, F, eb)
        for (_, _, lw, lpref, _, _), J in zip(prods, Js):
            err += math.exp(lw + J * lb + lpref + prec * _LN2)
        inner_terms += sum(Js)
        if type(gv) is int:
            ar += gv * vr // n if w else gv * vr
            ai += gv * vi // n if w else gv * vi
        else:
            cplx = cplx or isinstance(gv, mpc)
            dr, di = _fixed_term(gv, vr, vi, 0, n if w else 1)
            ar, ai = ar + dr, ai + di
        err_units += abs(complex(gv)) / n**w * err
    # 1e-9 covers the float rounding of each term of err_units, and tail
    # terms that underflow to 0, as each err holds at least the 6 units of
    # 2^-F that _log_qpoch counts for one factor and one log; N 2^-50 covers
    # the rounding of their sum.  The inner values stay at F bits, so no
    # rounding cover is added per n: the one _roundoff below covers acc
    err_acc = mp.ldexp(err_units * (1 + 1e-9 + N * 2.0**-50), -prec)
    acc = _from_fx(ar, ai, -F, cplx)
    tail = pref * _poly_geom_tail(p, r, N)
    return SeriesValue(acc, tail + err_acc + _roundoff(N + inner_terms, acc), N)
