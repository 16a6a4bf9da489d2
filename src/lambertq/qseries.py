"""q-Pochhammer symbols, Euler q-exponentials, theta/eta primitives, and the
two workhorse evaluators (Lambert-type sums and weighted log-products).

Every evaluator returns a :class:`SeriesValue` carrying a rigorous absolute
bound on the discarded tail.  Products are handled in log space or with a
running binary exponent, which keeps exponents like (2n-1)^2 from
underflowing.  Tail estimates use the crude inequality
1/(1 -+ q^n) <= 1/(1-q): certified correctness over tightness.

Round-off.  The kernels log_qpoch_inf, lambert_sum and weighted_product_log
count their fixed-point round-off and lean on the unproven _roundoff cover
only to round to the working precision; qpoch_inf_direct and
intro_product_log, the kernel of the catalog's two introductory products,
count that rounding too.  qpoch_n, e_q, E_q, q_gamma, q_binomial_check's
left side, triple_product's right side, dedekind_eta and weierstrass_delta
are direct products (_direct, which carries the error of a computed
argument such as z q^n or sqrt(q) z through every factor) combined by
_product and _quotient, which count each rounding, taking mpmath's log, exp
and pi to be within two units in the last place.  The cross-checks e_q_series,
E_q_series, theta_sum and q_binomial_check's right side are one ratio series,
_ratio_series, whose tail comes from the term ratio alone, so they call none
of the products they check, and whose bound counts the round-off of every
term and every addition.
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
from .numerics import ConvergenceError, DomainError, _max_terms, _tol

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
# covers the rounding of a bound worked out in mpf from positive terms, such
# as lambert_sum's round-off count (see its docstring) and _product's bound
_MARGIN = mpf("1.01")


class TableTooShortError(ConvergenceError):
    """The certified truncation point ``needed`` exceeds the tabulated range."""

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed


# ---------------------------------------------------------------------------
# the input contract: every public entry point takes its base q through
# _base, its other numbers through _arg, and its tol and max_terms through
# numerics._tol and numerics._max_terms

# the three domains of a base q
_UNIT = "0 < q < 1"  # the series, q_gamma, theta_sum, triple_product, QPoint
_REAL = "-1 < q < 1"  # qpoch_n, E_q, q_binomial_check
_DISC = "|q| < 1"  # an mpf or mpc: log_qpoch_inf, _direct, e_q


def _arg(x, name, disc=False):
    """x as it is if an mpf or mpc, a Python complex through mpc, else
    through mpf; finite, and with ``disc`` of modulus below 1."""
    if not isinstance(x, (mpf, mpc)):
        x = mpc(x) if isinstance(x, complex) else mpf(x)
    if disc:
        if not abs(x) < 1:
            raise DomainError(f"|{name}| must be < 1, got {name}={x}")
    elif not mp.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


def _base(q, domain):
    """q in ``domain``: _DISC takes it as _arg does, a real domain through
    mpf, which rounds it to the working precision."""
    if domain is _DISC:
        return _arg(q, "q", disc=True)
    if isinstance(q, (mpc, complex)):
        raise DomainError(f"q must be real, got {q}")
    q = mpf(q)
    if not (0 if domain is _UNIT else -1) < q < 1:
        raise DomainError(f"q must satisfy {domain}, got {q}")
    return q


class QPoint(namedtuple("QPoint", "q z")):
    """Evaluation point: base q in (0,1) and finite exponent shift z with Re z > 0."""

    __slots__ = ()

    def __new__(cls, q, z):
        q, z = _base(q, _UNIT), _arg(mpc(z), "z")
        z = z if z.imag else z.real  # a real z is checked and kept as an mpf
        if not z.real > 0:
            raise DomainError(f"Re(z) must be positive, got {z}")
        return super().__new__(cls, q, z)


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
    uN = u ** (N + 1)
    xstar = p / -mp.log(u) if p > 0 else 0
    M = mpf(xstar) ** p * u**xstar if xstar > N + 1 else mpf(N + 1) ** p * uN
    return M * uN / (1 - u)


# ---------------------------------------------------------------------------
# fixed-point product kernels
#
# The q-Pochhammer products run on Python ints at F = mp.prec + _GUARD
# fractional bits, mpmath's own idiom for its elementary functions.  Every
# truncating operation is off by less than one unit of 2^-F, so the
# round-off is counted and added to the certified bound next to _roundoff.

_GUARD = 32
_LN2 = math.log(2)
# cap on the summed |w b^j| of the complex factors that take one log, in one
# _fx_product piece or in _log_qpoch's shared quotient of two, so that the
# log keeps its principal argument
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


def _linear_terms(lw, lq, lt, holds, name, *key):
    """Smallest J >= 1 with lw + J lq <= lt (lq <= 0), up to the term cap.

    _first_term's search starts at the root J = max(1, ceil((lt - lw)/lq)),
    so J is its answer where the float test passes J and fails J - 1 outside
    its rounding window; only else does it run, with ``holds(*key, J)``.
    """
    g = (lt - lw) / lq if lq else math.inf
    J = (math.ceil(g) if g > 1 else 1) if g < _SOLVE_LIMIT else 0
    v, u = lw + J * lq, lw + (J - 1) * lq
    if not (J and lt - v > 1e-9 * (abs(lt) + abs(v) + 1)
            and (J == 1 or u - lt > 1e-9 * (abs(lt) + abs(u) + 1))):
        J = _first_term(lambda j: lw + j * lq, lt, lambda j: holds(*key, j), g)
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


def _fx_real(wr, qr, J, F):
    """_fx_product's loop for real ints w, q: (p, e, smin), the product p 2^e."""
    one, F1 = 1 << F, F + 1
    pr, es, smin = one, 0, F1
    for _ in range(J):
        t = pr * (one - wr)
        s = t.bit_length() - F1
        pr = t >> s if s >= 0 else t << -s
        es += s
        if s < smin:
            smin = s
        wr = wr * qr >> F
    return pr, es - F * (J + 1), smin


def _fx_product(z, q, J, F, flush):
    """prod_{j<J} (1 - z q^j) for int pairs z, q at F fractional bits.

    The running product is a mantissa of F + 1 bits with a binary exponent,
    so it neither underflows nor overflows.  A complex product is split into
    pieces, each closed by the factor that takes its summed |z q^j| past
    ``flush``, so that _log_qpoch can log each piece on its principal
    branch; a real one is one piece.  Returns (pieces, smin): each piece is
    (re, im, e), the value (re + i im) 2^e, and every factor has
    |1 - z q^j| >= 2^(smin - 2 - F).
    """
    wr, wi = z
    qr, qi = q
    if not (wi or qi):
        pr, e, smin = _fx_real(wr, qr, J, F)
        return [(pr, 0, e)], smin
    one, F1 = 1 << F, F + 1
    pr, pi, es, smin = one, 0, 0, F1
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
        if qi:
            wr, wi = (wr * qr - wi * qi) >> F, (wr * qi + wi * qr) >> F
        else:  # a real base: the same bits from two multiplies
            wr, wi = wr * qr >> F, wi * qr >> F
        budget += aw
        aw *= aq
        if budget > flush:
            pieces.append((pr, pi, es - F * (j - j0 + 2)))
            pr, pi, es, budget, j0 = one, 0, 0, 0.0, j + 1
    pieces.append((pr, pi, es - F * (J - j0 + 1)))
    return pieces, smin


def _factor_error(J, lq, absw, smin, F, ew0, eq0):
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


def _zero_factor(name):
    return ConvergenceError(f"{name}: a factor 1 - z q^j is within round-off of 0")


def _log1m(tr, ti, F):
    """log(1 - t) at F fractional bits for an int pair t = tr + i ti with
    |tr|, |ti| < 2^(F-16), by the series -sum_k t^k/k, as (re, im, units):
    off by less than ``units`` units of 2^-F in |re| + |im|.  With K one more
    than the terms summed, units = 2K for a real t (ti = 0), which runs on
    |t|: each power and division truncates by under one unit, and the terms
    dropped after the last nonzero power, falling by 2^-16 each, sum to under
    one.  A complex t truncates its powers and quotients toward zero per
    component, by under 2 units in |re| + |im|, so the powers reach 0.  As
    |tr| + |ti| < 2^(F-15), power k is off by e_k < 2.0001 (e_1 = 0,
    e_(k+1) <= 2^-15 e_k + 2), term k >= 2 by under e_k/k + 2 < 3.0001 (term 1
    is exact), and the exact powers from the first computed as 0 on add
    under 2.0001 (1 + 2^-14)/K < 1.0001 over k >= K >= 2.  So units = 3K.
    """
    if not ti:
        a, s, k = abs(tr), 0, 1
        p = a
        while p:
            s += p // k if tr < 0 and k & 1 else -(p // k)
            p = p * a >> F
            k += 1
        return s, 0, 2 * k
    sr = si = 0
    pr, pi, k = tr, ti, 1
    while pr or pi:
        sr -= pr // k if pr >= 0 else -(-pr // k)
        si -= pi // k if pi >= 0 else -(-pi // k)
        xr, xi = pr * tr - pi * ti, pr * ti + pi * tr
        pr = xr >> F if xr >= 0 else -(-xr >> F)
        pi = xi >> F if xi >= 0 else -(-xi >> F)
        k += 1
    return sr, si, 3 * k


def _log_quot(num, den, ne, F):
    """log(num/den 2^ne) for ints num, den > 0, as (re, units, float value): the
    one log of _log_qpoch_real, whose docstring counts its units of 2^-F.
    den = 1 skips the shift and division, which would leave num 2^ne as is."""
    one = 1 << F
    if den != 1:
        sh = den.bit_length() + F + 1
        num, ne = (num << sh) // den, ne - sh
    d = -ne - F
    t = one - (num >> d if d >= 0 else num << -d)
    if abs(t) >> (F - 16):
        lr = mpf_log(from_man_exp(num, ne), F)
        v = to_float(lr)
        return to_fixed(lr, F), 4 * abs(v) + 2, v
    lr, _, lu = _log1m(t, 0, F)
    return lr, lu + 4, lr / one


def _log_qpoch_real(b, lb, lt, F, eb, holds, name, w, lw, lpref, ew,
                    v=None, lv=0.0, lprefv=0.0, ev=0.0):
    """log (w; b)_inf - log (v; b)_inf, or log (w; b)_inf if v is None, for
    real ints w, v and b at F = prec + _GUARD fractional bits; _log_qpoch
    takes the complex case with the same arguments and return.

    |w|, |v|, |b| < 1, off by at most ew, ev and eb units of 2^-F.  lw, lv,
    lb and lt are the natural logs of |w|, |v|, |b| and tol as floats, lpref
    and lprefv those of 1/((1-|b|)(1-|w|)) and 1/((1-|b|)(1-|v|)).
    ``holds(k, J)`` is the test _qpoch_tail(|x|, |b|, J) <= tol in mpf for
    x = w (k = 0) or v (k = 1), which _linear_terms calls only near its
    threshold.  J (Jv for v) is the first J >= 1 that passes it, so the
    discarded tail is at most exp(lw + J lb + lpref).  ``name`` is the
    caller's, for errors.  Returns (re, im, J, Jv, units, absval): the log as
    an int pair at F bits (im = 0 here), the two J (Jv = 0 without v), a float
    bound on its round-off in units of 2^-prec, and its modulus as a float,
    for the _roundoff cover of a caller that rounds it to the working
    precision.

    Each product runs through _fx_real, and the two multiply, exactly, into
    one quotient num/den 2^ne of plain ints, which takes one log (_log_quot):
    num 2^sh // den, by _log1m within 2^-16 of 1, else by mpf_log.

    Round-off, in units of 2^-F: 2 per unit of factor error that
    _factor_error counts.  The quotient's floor is off by under one unit of
    a value of at least 2^(F+1), which moves the log by 1/2 unit (none if
    den = 1).  Near 1, t = 1 - x at F bits is off by that and a floor, under
    2 units, which move log(1 - t) by under 3: 4 are counted on top of
    _log1m's.  Away from 1, the log is off by at most 4 |log| units and its
    truncation to F bits by 1: 4 |log| + 2 is counted.
    """
    J = _linear_terms(lw, lb, lt - lpref, holds, name, 0)
    num, ne, smin = _fx_real(w, b, J, F)
    fe, _ = _factor_error(J, lb, 1.0, smin, F, ew, eb)  # |w| < 1
    if fe is None:
        raise _zero_factor(name)
    units, den, Jv = 2 * fe, 1, 0
    if v is not None:
        Jv = _linear_terms(lv, lb, lt - lprefv, holds, name, 1)
        den, e, smin = _fx_real(v, b, Jv, F)
        fe, _ = _factor_error(Jv, lb, 1.0, smin, F, ev, eb)
        if fe is None:
            raise _zero_factor(name)
        units += 2 * fe
        ne -= e
    lr, lu, val = _log_quot(num, den, ne, F)
    return lr, 0, J, Jv, (units + lu) / (1 << _GUARD), abs(val)


def _log_qpoch(b, lb, lt, F, eb, holds, name, w, lw, lpref, ew,
               v=None, lv=0.0, lprefv=0.0, ev=0.0):
    """_log_qpoch_real's log where b, w or v has an imaginary part: the same
    arguments and return, with b, w and v as int pairs (re, im).

    Each product runs through _fx_product, which closes a piece wherever its
    summed |w b^j| passes _ARG_FLUSH.  The pieces multiply, exactly, into
    quotients (nr + i ni)/(dr + i di) 2^ne, divided out as n conj(d) 2^sh //
    |d|^2 per component, and each quotient takes one log: by _log1m within
    2^-16 of 1, else by mpc_log.  w's and v's products share one quotient
    only if each is one piece and
    min(|w|/(1-|b|), _ARG_FLUSH) + min(|v|/(1-|b|), _ARG_FLUSH) <= _ARG_FLUSH;
    else every piece takes its own log, w's first.

    Each log keeps the principal branch, as |arg(1 - x)| <= arcsin |x| <=
    (pi/2)|x| for |x| < 1.  A shared quotient's factors, and those of a
    product kept in one piece, sum to at most _ARG_FLUSH, so |arg| <= 0.6 pi.
    Each piece of a split product but the last ends on the factor that takes
    its sum past _ARG_FLUSH, no larger than the earlier ones, so it has one or
    two factors (|arg| < pi) or a last one of at most 0.6 (|arg| <= 0.9 pi).
    The margin to pi covers float rounding and the round-off of the w b^j.

    Round-off, in units of 2^-F in |re| + |im|: 2 per unit of factor error
    that _factor_error counts.  The quotient's floors are off by under one
    unit per component of a value of modulus at least sqrt(2) 2^F, which
    moves the log by 1 unit.  Near 1, t = 1 - x at F bits is off by that and
    a floor per component, under 2.5 units of modulus, which move log(1 - t)
    by under 3.5: 4 are counted on top of _log1m's.  Away from 1, the log is
    off by at most 4 |log| units and its truncation to F bits by 1 per
    component: 4 (|re| + |im|) + 4 is counted.
    """
    J = _linear_terms(lw, lb, lt - lpref, holds, name, 0)
    pw, smin = _fx_product(w, b, J, F, _ARG_FLUSH)
    fe, _ = _factor_error(J, lb, 1.0, smin, F, ew, eb)  # |w| < 1
    if fe is None:
        raise _zero_factor(name)
    units, pv, Jv = 2 * fe, [], 0
    if v is not None:
        Jv = _linear_terms(lv, lb, lt - lprefv, holds, name, 1)
        pv, smin = _fx_product(v, b, Jv, F, _ARG_FLUSH)
        fe, _ = _factor_error(Jv, lb, 1.0, smin, F, ev, eb)
        if fe is None:
            raise _zero_factor(name)
        units += 2 * fe
    sb = -math.expm1(lb)
    if len(pw) == len(pv) == 1 and (min(math.exp(lw) / sb, _ARG_FLUSH)
                                    + min(math.exp(lv) / sb, _ARG_FLUSH) <= _ARG_FLUSH):
        quots = [(pw[0], pv[0])]
    else:
        quots = [(p, (1, 0, 0)) for p in pw] + [((1, 0, 0), p) for p in pv]
    one, re, im, fr, fi = 1 << F, 0, 0, 0.0, 0.0
    for (nr, ni, ne), (dr, di, e) in quots:
        ne -= e
        if dr != 1 or di:
            sh = (abs(dr) | abs(di)).bit_length() + F + 1
            if di:
                nr, ni, dr = nr * dr + ni * di, ni * dr - nr * di, dr * dr + di * di
            nr, ni, ne = (nr << sh) // dr, (ni << sh) // dr, ne - sh
        d = -ne - F
        tr, ti = one - (nr >> d if d >= 0 else nr << -d), -(ni >> d if d >= 0 else ni << -d)
        if (abs(tr) | abs(ti)) >> (F - 16):
            lr, li = mpc_log((from_man_exp(nr, ne), from_man_exp(ni, ne)), F)
            vr, vi = to_float(lr), to_float(li)
            lr, li, lu = to_fixed(lr, F), to_fixed(li, F), 4 * (abs(vr) + abs(vi)) + 4
        else:
            lr, li, lu = _log1m(tr, ti, F)
            vr, vi, lu = lr / one, li / one, lu + 4
        re, im, fr, fi, units = re + lr, im + li, fr + vr, fi + vi, units + lu
    return re, im, J, Jv, units / (1 << _GUARD), math.hypot(fr, fi)


# ---------------------------------------------------------------------------
# q-Pochhammer primitives

def log_qpoch_inf(z, q, tol=None) -> SeriesValue:
    """log (z;q)_inf = sum_{j>=0} log(1 - z q^j), for |z| < 1, |q| < 1.

    z and q may be complex.  The certified tail bound is
    |z| |q|^J / ((1-|q|)(1-|z|)), and the term count J is the first at which
    it is <= tol, found before the fixed-point product loop runs.  z and q
    at F = prec + _GUARD bits make one call of the inner routine they select:
    _log_qpoch_real if both are real, else _log_qpoch, which logs a long
    product in pieces before its argument can wrap, so the principal branch
    is preserved.  Its rounding to the working precision is inside _roundoff.
    """
    q, z, tol = _base(q, _DISC), _arg(z, "z", disc=True), _tol(tol)
    absq, absz = abs(q), abs(z)
    if not z:
        return SeriesValue(mpf(0), mpf(0), 0)
    F = mp.prec + _GUARD
    w, b = _fx(z, F), _fx(q, F)
    inner = _log_qpoch
    if not (w[1] or b[1]):
        inner, w, b = _log_qpoch_real, w[0], b[0]
    lw, lb, lt = _ln(absz), _ln(absq), _ln(tol)
    lpref = -_ln1m(absq) - _ln1m(absz)

    def holds(k, j):
        return _qpoch_tail(absz, absq, j) <= tol

    re, im, J, _, units, absval = inner(
        b, lb, lt, F, 1.0, holds, "log_qpoch_inf", w, lw, lpref, 1.0)
    units += _roundoff_units(J, absval)
    # 1e-9 covers the float rounding of units
    err = _qpoch_tail(absz, absq, J) + mp.ldexp(units * (1 + 1e-9), -mp.prec)
    return SeriesValue(_from_fx(re, im, -F, isinstance(q, mpc) or isinstance(z, mpc)), err, J)


def _qpow(z, q, n):
    """(z q^n, e): z q^n at 16 bits above F = prec + _GUARD and its error in
    units of 2^-F.  With u = 2^-(F+16), log q and e^y are within 2u and each
    product within u, so y = n log q is off by 3u|y| and z q^n by (3|y| + 3)u
    of it, to first order: e = |z q^n| (3|y| + 4) 2^-16."""
    with mp.workprec(mp.prec + _GUARD + 16):
        y = n * mp.log(q)
        x = z * mp.exp(y)
    return x, float(abs(x)) * (3 * float(abs(y)) + 4) * 2.0**-16


def _product(parts):
    """The product of SeriesValues v_i +- e_i, off by prod (|v_i| + e_i) -
    prod |v_i|, summed as D_k = D_(k-1) (|v_k| + e_k) + |v_1 ... v_(k-1)| e_k
    so that nothing cancels, and by 2^-prec |value| per rounded product.
    _MARGIN covers the rounding of the bound."""
    val, absval, d = 1, 1, 0
    for v, e, _ in parts:
        d, absval, val = d * (abs(v) + e) + absval * e, absval * abs(v), val * v
    err = d + mp.ldexp((len(parts) - 1) * abs(val), -mp.prec)
    return SeriesValue(val, _MARGIN * err, sum(p.terms_used for p in parts))


def _quotient(num, den, pole):
    """num/den for SeriesValues a +- e_a over b +- e_b, off by (e_a + |a/b|
    e_b)/(|b| - e_b) and by 2^-prec |a/b| for its rounding; raises ``pole``
    if |b| <= e_b.  _MARGIN covers the rounding of the bound."""
    if abs(den.value) <= den.err_bound:
        raise pole
    val = num.value / den.value
    err = (num.err_bound + abs(val) * den.err_bound) / (abs(den.value) - den.err_bound)
    return SeriesValue(val, _MARGIN * (err + mp.ldexp(abs(val), -mp.prec)),
                       num.terms_used + den.terms_used)


def qpoch_inf_direct(a, q) -> SeriesValue:
    """(a;q)_inf by direct factor multiplication; works for any a.

    The one route of the q-product primitives, through its core _direct,
    and of triple_product; a and q may be complex.  The certified bound is
    relative and is converted to an absolute one on the returned value.  The
    value is the fixed-point product P rounded once to nearest, off by at
    most 2^-prec |P| (each component by 2^-prec of itself); 2^(1-prec)
    |value| covers that and the rounding of the bound.
    """
    return _direct(a, q, "qpoch_inf_direct", tail=2)


def _direct(a, q, name, ew0=1.0, eq0=1.0, tail=0):
    """qpoch_inf_direct(a, q) for an a and a q off by at most ew0 and eq0
    units of 2^-F, F = prec + _GUARD (1.0 if exact, as _fx truncates), which
    _factor_error carries through every factor, and a tail whose bound on
    the log is at most 2^(tail - prec).  ``name`` is the caller's, for errors."""
    q, a = _base(q, _DISC), _arg(a, "z")
    rel_tol = mpf(2) ** (-mp.prec + tail)
    absq, absa = abs(q), abs(a)

    # once |a q^n| <= 1/2: |log prod_tail| <= sum 2|a q^j| <= 2|a q^n|/(1-|q|)
    def holds(n):
        absw = absa * absq**n
        return absw <= _HALF and 2 * absw / (1 - absq) <= rel_tol

    n = _linear_terms(_ln(absa), _ln(absq),
                      min(-_LN2, _ln(rel_tol) + _ln1m(absq) - _LN2), holds, name)
    logtail = 2 * absa * absq**n / (1 - absq)
    F = mp.prec + _GUARD
    pieces, smin = _fx_product(_fx(a, F), _fx(q, F), n, F, math.inf)
    pr, pi, e = pieces[0]
    prod = _from_fx(pr, pi, e, isinstance(a, mpc) or isinstance(q, mpc))
    units, ew = _factor_error(n, _ln(absq), absa, smin, F, ew0, eq0)
    if units is None:
        # a factor within round-off of 0: every factor is at most 1 + |a q^j|
        fx_err = mp.exp(absa / (1 - absq)) * mp.expm1(mp.ldexp(2 * n * (ew + 2), -F))
    else:
        fx_err = abs(prod) * mp.expm1(mp.ldexp(2 * units, -F))
    err = abs(prod) * (mp.expm1(logtail) + mp.ldexp(1, 1 - mp.prec)) + fx_err
    return SeriesValue(prod, err, n)


def qpoch_n(z, q, n) -> SeriesValue:
    """(z;q)_n = (z;q)_inf / (z q^n;q)_inf, |z|, |z q^n| < 1, for any complex
    index n; z q^n enters with the error _qpow works out."""
    q, z = _base(q, _REAL), _arg(z, "z", disc=True)
    zqn, ew = _qpow(z, q, _arg(n, "n"))
    _arg(zqn, "z q^n", disc=True)
    return _quotient(_direct(z, q, "qpoch_n"), _direct(zqn, q, "qpoch_n", 2 + ew),
                     _zero_factor("qpoch_n"))


def e_q(z, q) -> SeriesValue:
    """Euler q-exponential e_q(z) = 1/(z;q)_inf, |z| < 1 (product form)."""
    q, z = _base(q, _DISC), _arg(z, "z", disc=True)
    return _quotient(SeriesValue(mpf(1), mpf(0), 0), _direct(z, q, "e_q"),
                     _zero_factor("e_q"))


def _ratio_series(w, a, q, beta, eps, tol, name, rw=0) -> SeriesValue:
    """sum_{n>=0} t_n with t_0 = 1 and t_(n+1) = t_n m_n, m_n = w q^(beta n)
    (1 - a q^n)/(1 - eps q^(n+1)), beta and eps 0 or 1, q a real number of at
    most prec bits with |q| < 1, and w off by at most rw u |w|, u = 2^-F at
    F = prec + _GUARD bits: the one shape of the cross-checks' series (Gasper
    and Rahman, ch. 1).  ``name`` is the caller's, for errors.

    Tail: rho_n = |w| |q|^(beta n) (1 + |a| |q|^n)/(1 - eps |q|^(n+1)) bounds
    |m_k| for every k >= n and does not grow with n, so once rho_n < 1 the
    terms after t_n sum to at most |t_n| rho_n/(1 - rho_n).  The loop stops
    at the first n where that is at most tol; no product is worked out.

    Round-off, at F bits.  A real operation, and each component of a complex
    sum or of a complex times or over a real, rounds once, within u of its
    computed result; mpmath rounds each component of a complex product once
    after exact partial products, and of a complex quotient once after two
    values rounded 10 bits further.  2u is counted for every complex
    multiply and divide.  P = q^n, one multiply per n, is off by n u |P|.
    So, to first order in computed values, c = w P^beta is off by rc u |c|
    with rc = rw + beta (n + 2); D = 1 - eps q P by rD u D with rD = 1 + (n +
    1) |q P|/D (D = 1 and rD = 0 if eps = 0); x = a P and A = 1 - x by u (|A|
    + (n + 2) |x|) (A = 1 if a = 0); N = c A by u |c| (|A| (3 + rc) + (n + 2)
    |x|); and m = N/D by Em = u K |c|/D with K = |A| (5 + rc + rD) + (n + 2)
    |x|.  Then t' = t m is off by at most e' = e |m| + (|t| + e) Em + 2u |t'|
    <= s (|A| (e + 2u |t|) + u K (|t| + e)), as |m| <= s |A| with s = |w|
    |P|^beta/(1 - eps |q P|) >= |c|/D, and each addition to the sum by u of
    its result.  Those counts bound the sum's round-off, and its rounding to
    prec bits adds 2^-prec |value|.  Each count leaves out terms of higher
    order, which multiply it by relative errors of at most (n + 2) u/(1 -
    |q|) <= 2^-12, as n <= DEFAULT_MAX_TERMS < 2^20 and 1 - |q| >= 2^-prec,
    or by rw u; _MARGIN on K and on the bound covers them, the float rounding
    of K and |A| and the rounding of the bound.  In s, 1 - |q P| - (n + 2) u
    is at most 1 - |q|^(n+1), so rho_n = s (1 + |a| |P|) is then off by the
    roundings and the errors of P and |w|, under (2n + 12 + rw) u <= 2^-60 of
    itself with F >= 85: the factor 1 + 2^-40 covers them.
    """
    prec = mp.prec
    with mp.workprec(prec + _GUARD):
        u = mp.ldexp(1, -mp.prec)
        absw, absa, uk, u2 = abs(w), abs(a), _MARGIN * u, 2 * u
        rb = 1 + mp.ldexp(1, -40)
        t = acc = P = mpf(1)
        e = eacc = sacc = mpf(0)
        for n in range(DEFAULT_MAX_TERMS + 1):
            P1, at, absp = P * q, abs(t), abs(P)
            s = absw * absp if beta else absw
            if eps:
                s /= 1 - abs(P1) - (n + 2) * u
            rho = rb * s * (1 + absa * absp)
            if rho < 1:
                tail = (at + e) * rho / (1 - rho)
                if tail <= tol:
                    break
            m = c = w * P if beta else w
            K, fa = 5 + rw + beta * (n + 2), 1.0
            if a:
                x = a * P
                A = 1 - x
                m = c * A
                fa = float(abs(A))
                K = fa * K + (n + 2) * float(abs(x))
            if eps:
                D = 1 - P1
                m /= D
                K += fa * (1 + (n + 1) * float(abs(P1) / D))
            t = t * m
            e = s * (fa * (e + u2 * at) + uk * K * (at + e))
            P = P1
            acc += t
            eacc += e
            sacc += abs(acc)
        else:
            raise ConvergenceError(f"{name} did not reach tolerance")
    value = +acc
    err = eacc + u * sacc + tail + mp.ldexp(abs(value), -prec)
    return SeriesValue(value, _MARGIN * err, n + 1)


def e_q_series(z, q, tol=None) -> SeriesValue:
    """Series form sum z^n/(q;q)_n, |z| < 1, each term z/(1 - q^(n+1)) times
    the one before (_ratio_series); independent cross-check of e_q."""
    q, z, tol = _base(q, _UNIT), _arg(z, "z", disc=True), _tol(tol, 2)
    return _ratio_series(z, 0, q, 0, 1, tol, "e_q series")


def E_q(z, q) -> SeriesValue:
    """Euler q-exponential E_q(z) = (-z;q)_inf, entire in z (direct product)."""
    return _direct(-_arg(z, "z"), _base(q, _REAL), "E_q")


def E_q_series(z, q, tol=None) -> SeriesValue:
    """Series form sum q^(n(n-1)/2) z^n/(q;q)_n, each term z q^n/(1 - q^(n+1))
    times the one before (_ratio_series); cross-check of E_q."""
    q, z, tol = _base(q, _UNIT), _arg(z, "z"), _tol(tol, 2)
    return _ratio_series(z, 0, q, 1, 1, tol, "E_q series")


def q_binomial_check(a, z, q, tol=None):
    """Both sides of (az;q)_inf/(z;q)_inf = sum (a;q)_n/(q;q)_n z^n, |z| < 1.

    Returns (lhs, rhs) as SeriesValues computed by independent routes.  The
    left side, with az exact, is the quotient of two direct products; on the
    right, each term is z (1 - a q^n)/(1 - q^(n+1)) times the one before
    (_ratio_series).
    """
    q, a, z, tol = _base(q, _REAL), _arg(a, "a"), _arg(z, "z", disc=True), _tol(tol, 4)
    name = "q_binomial_check"
    lhs = _quotient(_direct(mp.fmul(a, z, exact=True), q, name),
                    _direct(z, q, name), _zero_factor(name))

    rhs = _ratio_series(z, a, q, 0, 1, tol, "q-binomial series")
    return lhs, rhs


def q_gamma(w, q) -> SeriesValue:
    """Gamma_q(w) = (q;q)_inf / (q^w;q)_inf * (1-q)^(1-w).

    (q;q)_inf times p = (1-q)^(1-w) over the direct product of q^w (_qpow).
    p = e^c, c = (1-w) log(1-q), is worked out 16 bits above F = prec +
    _GUARD, where 1-q, 1-w and the product round by u = 2^-(F+16) and the
    log by 2u: c is off by |1-w| (4|log(1-q)| + 2) u, and e^c within 2u, so
    p is off by (|1-w| (4|log(1-q)| + 2) + 3) u of it, to first order.
    """
    q, w = _base(q, _UNIT), _arg(w, "w")
    qw, ew = _qpow(1, q, w)
    F = mp.prec + _GUARD
    with mp.workprec(F + 16):
        lq1 = mp.log(1 - q)
        p = mp.exp((1 - w) * lq1)
    ep = mp.ldexp(abs(p) * (float(abs(1 - w)) * (4 * float(abs(lq1)) + 2) + 3), -F - 16)
    top = _product([_direct(q, q, "q_gamma"), SeriesValue(p, ep, 0)])
    return _quotient(top, _direct(qw, q, "q_gamma", 2 + ew),
                     DomainError(f"q_gamma pole at w={w}"))


# ---------------------------------------------------------------------------
# theta / eta

def theta_sum(z, q, tol=None) -> SeriesValue:
    """sum over all integers n of q^(n^2/2) (-z)^n, 0 < q < 1, z != 0.

    The sum is S(-sqrt(q) z) + S(-sqrt(q)/z) - 1, where S(w) = sum_{n>=0}
    q^(n(n-1)/2) w^n is _ratio_series with ratio w q^n and a tail of at most
    tol/2.  sqrt(q), at prec + _GUARD bits, rounds by u = 2^-(prec + _GUARD)
    and each w by 2u more (a complex multiply or divide), so w is off by 3u
    |w| to first order; 4u |w| is counted.  The two sums and -1 add by two
    roundings, of 2^-prec of their results.
    """
    q, z, tol = _base(q, _UNIT), _arg(z, "z"), _tol(tol, 2)
    if z == 0:
        raise DomainError("theta_sum needs z != 0")
    with mp.workprec(mp.prec + _GUARD):
        sq = mp.sqrt(q)
        ws = -sq * z, -sq / z
    s1, s2 = (_ratio_series(w, 0, q, 1, 0, tol / 2, "theta_sum", 4) for w in ws)
    s = s1.value + s2.value
    value = s - 1
    err = s1.err_bound + s2.err_bound + mp.ldexp(abs(s) + abs(value), -mp.prec)
    return SeriesValue(value, _MARGIN * err, s1.terms_used + s2.terms_used - 1)


def triple_product(z, q):
    """LHS and RHS of the Jacobi triple product identity.

    LHS: the bilateral theta sum; RHS: (q;q)_inf (sqrt(q) z;q)_inf
    (sqrt(q)/z;q)_inf, three direct products multiplied by _product.  Each
    x = sqrt(q) z, sqrt(q)/z rounds twice, to under 3 2^-prec |x|: 1 + 3 |x|
    2^_GUARD units of 2^-F in _direct with _fx's truncation.  As x stays at
    the working precision, z = q^(-1/2) still gives a zero factor.
    """
    q, z = _base(q, _UNIT), _arg(z, "z")
    sq = mp.sqrt(q)
    return theta_sum(z, q), _product([qpoch_inf_direct(q, q)] + [
        _direct(x, q, "triple_product", 1 + 3 * float(abs(x)) * 2.0**_GUARD)
        for x in (sq * z, sq / z)])


def dedekind_eta(tau) -> SeriesValue:
    """eta(tau) = q^(1/24) (q;q)_inf with q = exp(2 pi i tau), Im tau > 0.

    q and q^(1/24) are worked out 16 bits above F = prec + _GUARD, where pi
    and each product round by u = 2^-(F+16): y = 2 pi i tau is off by 3u|y|
    and y/24 by 4u|y/24|, so with each exp within 2u, both are off by (3|y| +
    4)u of themselves, to first order.  q enters the direct product off by
    that and 2 units of 2^-F, as argument and as base.
    """
    tau = _arg(mpc(tau), "tau")
    if not tau.imag > 0:
        raise DomainError(f"Im(tau) must be > 0, got tau={tau}")
    with mp.workprec(mp.prec + _GUARD + 16):
        y = 2j * mp.pi * tau
        q, pref = mp.exp(y), mp.exp(y / 24)
    e = (3 * float(abs(y)) + 4) * 2.0**-16  # in units of 2^-F
    eq = 2 + float(abs(q)) * e
    return _product([_direct(q, q, "dedekind_eta", eq, eq),
                     SeriesValue(pref, mp.ldexp(abs(pref) * e, -mp.prec - _GUARD), 0)])


def weierstrass_delta(tau) -> SeriesValue:
    """Modular discriminant Delta(tau) = (2 pi)^12 eta(tau)^24.

    The product of c = (2 pi)^12 and 24 factors eta +- e by _product, whose
    bound holds (|eta| + e)^24 - |eta|^24.  pi rounds by 2^-prec relative,
    which the power takes to under 12.01 2^-prec, and the power rounds by 4
    ulps, so c is off by under 17 2^-prec |c|.
    """
    eta = dedekind_eta(tau)
    c = (2 * mp.pi) ** 12
    val, err, _ = _product([SeriesValue(c, mp.ldexp(17 * c, -mp.prec), 0)] + [eta] * 24)
    return SeriesValue(val, err, eta.terms_used)


# ---------------------------------------------------------------------------
# the two workhorse evaluators

def _truncation(pref, p, r, tol):
    """N*, the smallest N >= 1 with pref * _poly_geom_tail(p, r, N) <= tol (inf
    if r rounds to 1)."""
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
    return N


def _check_terms(N, f, max_terms, name):
    """Raise unless N* = N is within max_terms and the table f's length."""
    if N > max_terms:
        raise ConvergenceError(f"{name} needs N*={N:.6g} terms, more than max_terms={max_terms}")
    if N > f.N:
        raise TableTooShortError(
            f"{name} needs N*={N:.6g} tabulated values, more than {f.N}", needed=N)


# Lambert plans: what lambert_sum works out without reading a table value,
# keyed by (q, z, mp.prec, growth, kernel, tol) as exact tuples; past
# _PLAN_CAP entries the oldest is dropped
_PLAN_CAP = 1024
_LAMBERT_PLANS = {}
_LambertPlan = namedtuple("_LambertPlan", "N F Q br bi bounds")


def _lambert_plan(growth, kernel, q, z, tol):
    """lambert_sum's plan at (q, z, tol) for a table of growth (C, beta), C > 0,
    at the working precision: N*, F, Q = q and (br, bi) = q^z at F bits, and
    the bound tail + _MARGIN units u of a real sum (bounds[0]) and of a
    complex one (bounds[1]), to which a call adds the _roundoff cover of its
    value.  Only N is set where N* = inf."""
    C, beta = map(mpf, growth)
    complex_z = isinstance(z, mpc)
    w = 1 if kernel.weight == "over_n" else 0
    p = beta - w
    r = q ** (z.real if complex_z else z)
    pref = C / (1 - q)
    N = _truncation(pref, p, r, tol)
    if N == math.inf:
        return _LambertPlan(N, None, None, None, None, None)
    # the minus kernel carries the error of q^n into the term by 1/(1-q^n)^2
    F = mp.prec + 32 + 2 * math.ceil(-math.log2(float(1 - q)))
    with mp.workprec(F + 16):
        qz = mp.exp(z * mp.log(q)) if complex_z else q**z
    br, bi = _fx(qz, F)
    u = mp.ldexp(1, -F)
    dmin = 1 - q if kernel.kernel == "minus" else mpf(1)
    eq = 2 / (1 - q - u)
    dhat = dmin - eq * u
    ex = 5 / (1 - r - 3 * u)
    units = C * N * max(1, mpf(N) ** p) * (ex + eq / dmin) / dhat
    tail = pref * _poly_geom_tail(p, r, N)
    return _LambertPlan(N, F, to_fixed(q._mpf_, F), br, bi,
                        tuple(tail + _MARGIN * (k * N + units) * u for k in (1, 2)))


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

    What reads no table value is the point's Lambert plan (_lambert_plan):
    N*, F, q and q^z at F bits, and tail + 1.01 units u for k = 1 and for
    k = 2, as an mpc table value makes a real-z sum complex mid-loop.  Plans
    are kept in _LAMBERT_PLANS, keyed by the exact (q, z, mp.prec, f.growth,
    kernel, tol), up to _PLAN_CAP of them, the oldest dropped first.  A call
    takes or makes its plan, checks N* against max_terms and the table's
    length (_check_terms), runs the loop and adds _roundoff(N, value), so a
    warm call returns the bits of a cold one.
    """
    q, z = pt.q, pt.z
    tol, max_terms = _tol(tol), _max_terms(max_terms)
    complex_z = isinstance(z, mpc)
    growth = f.growth
    if growth[0] == 0:
        return SeriesValue(mpc(0) if complex_z else mpf(0), mpf(0), 0)
    key = (q._mpf_, z._mpc_ if complex_z else z._mpf_, mp.prec, growth, kernel, tol._mpf_)
    plan = _LAMBERT_PLANS.get(key)
    if plan is None:
        plan = _lambert_plan(growth, kernel, q, z, tol)
        if len(_LAMBERT_PLANS) >= _PLAN_CAP:
            del _LAMBERT_PLANS[next(iter(_LAMBERT_PLANS))]
        _LAMBERT_PLANS[key] = plan
    N, F, Q, br, bi, bounds = plan
    _check_terms(N, f, max_terms, "lambert_sum")

    w = 1 if kernel.weight == "over_n" else 0
    one = 1 << F
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
    return SeriesValue(acc, bounds[cplx] + _roundoff(N, acc), N)


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
    is sized as in lambert_sum.  The inner log-Pochhammers of each n run on
    w_n = q^(nz) (and q^(n(z+1)) in form B) and b_n = q^n (q^(2n) in form B),
    which advance at F = prec + _GUARD bits by one multiply and shift per n,
    as plain ints at real z and as int pairs at complex z; they stop where
    log_qpoch_inf would.  One call per n takes the log of the form's
    quotient, with one return shape: _log_qpoch_real where no w_n has an
    imaginary part at F bits, as at every n of a real z, else _log_qpoch on
    int pairs.  Each base is worked out 16 bits above F, so by the power
    lemma of lambert_sum a power of a base of modulus a is off by at most
    5/(1 - a - 3u) units u = 2^-F.

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
    tol, max_terms = _tol(tol), _max_terms(max_terms)
    C, beta = map(mpf, g.growth)
    complex_z = isinstance(z, mpc)
    if C == 0:
        return SeriesValue(mpc(0) if complex_z else mpf(0), mpf(0), 0)
    w = 1 if weight == "over_n" else 0
    p = beta - w
    r = q ** (z.real if complex_z else z)
    # r rounds to 1 once Re z is below about 2^-prec; no N certifies then
    pref = (2 if form == "B" else 1) * C / ((1 - q) * (1 - r)) if r < 1 else mp.inf
    N = _truncation(pref, p, r, tol)
    _check_terms(N, g, max_terms, "weighted_product_log")

    prec, F = mp.prec, mp.prec + _GUARD
    inner_tol, lt, u3, lprec = mp.ldexp(1, -prec), -prec * _LN2, math.ldexp(3, -F), prec * _LN2
    with mp.workprec(F + 16):
        qz = mp.exp(z * mp.log(q)) if complex_z else q**z
        ws, base = ((qz,), q) if form == "A" else ((qz * q, qz), q * q)
    mods = (r,) if form == "A" else (r * q, r)
    # the numerator's power sequence q^(nz) (q^(n(z+1)) in form B) and form
    # B's denominator's q^(nz): base as an int pair, the log of its modulus,
    # and the round-off of its powers
    seqs = [(_fx(x, F), la, 5 / (-math.expm1(la) - u3)) for x, la in zip(ws, map(_ln, mods))]
    ((w1r, w1i), la1, ew1), ((w2r, w2i), la2, ew2) = seqs[0], seqs[-1]
    B, lb1 = to_fixed(base._mpf_, F), _ln(base)
    eb = 5 / (-math.expm1(lb1) - u3)

    def holds(k, J):  # the inner tail test of sequence k, at the loop's current n
        return _qpoch_tail(mods[k] ** n, base ** n, J) <= inner_tol

    two = form == "B"
    bn = x1r = x2r = 1 << F
    x1i = x2i = ar = ai = inner_terms = 0
    cplx = complex_z
    name = "weighted_product_log"
    # sum of |g(n)/n^w| times the inner bounds, and the outer floors, in units of 2^-prec
    err_units = 2 * N / (1 << _GUARD)
    for n in range(1, N + 1):
        bn = bn * B >> F
        if complex_z:
            x1r, x1i = (x1r * w1r - x1i * w1i) >> F, (x1r * w1i + x1i * w1r) >> F
            if two:
                x2r, x2i = (x2r * w2r - x2i * w2i) >> F, (x2r * w2i + x2i * w2r) >> F
        else:
            x1r = x1r * w1r >> F
            if two:
                x2r = x2r * w2r >> F
        gv = g.values[n]
        if not gv:
            continue
        # logs of |w_n|, |b_n| and the inner tails' 1/((1-|b_n|)(1-|w_n|))
        lb, lw1, lw2 = n * lb1, n * la1, n * la2
        lpb = -math.log(-math.expm1(lb))
        lp1 = lpb - math.log(-math.expm1(lw1))
        lp2 = lpb - math.log(-math.expm1(lw2)) if two else lp1
        if x1i or x2i:
            vr, vi, J1, J2, err, _ = _log_qpoch(
                (bn, 0), lb, lt, F, eb, holds, name, (x1r, x1i), lw1, lp1, ew1,
                (x2r, x2i) if two else None, lw2, lp2, ew2)
        else:
            vr, vi, J1, J2, err, _ = _log_qpoch_real(
                bn, lb, lt, F, eb, holds, name, x1r, lw1, lp1, ew1,
                x2r if two else None, lw2, lp2, ew2)
        err += math.exp(lw1 + J1 * lb + lp1 + lprec)
        if two:
            err += math.exp(lw2 + J2 * lb + lp2 + lprec)
        inner_terms += J1 + J2
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


def intro_product_log(tot, q, tol, max_terms, odd_ratio: bool):
    """sum_n phi(n)/n log(1 - q^n), or over odd n phi(n)/n log((1 + q^n)/(1 -
    q^n)), on ints at F = prec + _GUARD bits: the intro products' factors.

    |log(1 -+ x)| <= x/(1-x) and phi(n)/n <= 1: the tail after N terms is at
    most 2 q^(N+1)/(1-q)^2 = pref * _poly_geom_tail(0, q, N).  q^n, one
    multiply and shift per n, is off by Eq = 2/(1 - q - u) units u = 2^-F
    (lambert_sum's power lemma), which moves the log by k Eq/(1 - q - Eq u),
    k = 1 (2 for the quotient).  The one log (_log_quot) is within its count,
    phi(n) v_n // n is one floor, and the final rounding is 2^-prec of the sum.
    """
    q, tol, max_terms = _base(q, _UNIT), _tol(tol), _max_terms(max_terms)
    pref = 2 * (1 - mp.sqrt(q)) / (1 - q) ** 2
    N = _truncation(pref, 0, q, tol)
    _check_terms(N, tot, max_terms, "intro product")
    F = mp.prec + _GUARD
    one, Q, qn, acc, units = 1 << F, to_fixed(q._mpf_, F), 1 << F, 0, 0.0
    d, u = float(1 - q), math.ldexp(1, -F)
    ein = (4 if odd_ratio else 2) / (d * (d - u) - 2 * u)
    for n in range(1, N + 1):
        qn = qn * Q >> F
        if n & 1 or not odd_ratio:
            lr, lu, _ = _log_quot(*((one + qn, one - qn, 0) if odd_ratio else (one - qn, 1, -F)), F)
            acc += tot.values[n] * lr // n
            units += lu + ein + 1
    value = _from_fx(acc, 0, -F, False)
    # 1e-9 covers the float rounding of units
    err = mp.ldexp(units * (1 + 1e-9), -F) + mp.ldexp(abs(value), -mp.prec)
    return SeriesValue(value, pref * _poly_geom_tail(0, q, N) + err, N)
