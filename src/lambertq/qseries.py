"""q-Pochhammer symbols, Euler q-exponentials, theta/eta primitives, and the
two workhorse evaluators (Lambert-type sums and weighted log-products).

Every evaluator returns a :class:`SeriesValue` carrying a rigorous absolute
bound on the discarded tail.  Products are handled in log space and
exponentiated once at the boundary, which keeps exponents like (2n-1)^2 from
underflowing.  Tail estimates use the crude inequality
1/(1 -+ q^n) <= 1/(1-q): certified correctness over tightness.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf, mpc

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


class TableTooShortError(ConvergenceError):
    """The certified truncation point exceeds the tabulated range."""


@dataclass(frozen=True)
class QPoint:
    """Evaluation point: base q in (0,1) and exponent shift z with Re z > 0."""

    q: object
    z: object

    def __post_init__(self):
        q = mpf(self.q)
        if not 0 < q < 1:
            raise DomainError(f"q must lie in (0,1), got {self.q}")
        z = mpc(self.z)
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


def _roundoff(nterms, scale):
    # generous cover for accumulated rounding; truncation always dominates
    return mpf(2) ** (-mp.prec + 4) * (nterms + 2) * (1 + abs(scale))


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
# q-Pochhammer primitives

def log_qpoch_inf(z, q, tol=None) -> SeriesValue:
    """log (z;q)_inf = sum_{j>=0} log(1 - z q^j), for |z| < 1, |q| < 1.

    q may be complex (used by the eta/theta evaluators); the certified tail
    bound is |z| |q|^(J+1) / ((1-|q|)(1-|z|)).  Factors are accumulated as a
    running product and flushed through log before the product's argument can
    wrap, so the principal branch is preserved.
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
    if tol is None:
        tol = mpf(2) ** (-mp.prec)

    pref = 1 / ((1 - absq) * (1 - absz))
    acc = mpf(0)
    prod = mpf(1) if (isinstance(z, mpf) and isinstance(q, mpf)) else mpc(1)
    argbudget = mpf(0)
    w = z
    absw = absz
    j = 0
    while True:
        prod = prod * (1 - w)
        argbudget += absw
        if argbudget > mpf("1.2"):
            acc = acc + mp.log(prod)
            prod = prod * 0 + 1
            argbudget = mpf(0)
        w = w * q
        absw = absw * absq
        j += 1
        tail = absw * pref
        if tail <= tol:
            break
        if j > DEFAULT_MAX_TERMS:
            raise ConvergenceError("log_qpoch_inf did not reach tolerance")
    acc = acc + mp.log(prod)
    return SeriesValue(acc, tail + _roundoff(j, acc), j)


def qpoch_inf_direct(a, q, rel_tol=None) -> SeriesValue:
    """(a;q)_inf by direct factor multiplication; works for any a.

    Used where |a| >= 1 rules out the log-series path (e.g. the q^(1/2)/z
    factor of the triple product).  The certified bound is relative and is
    converted to an absolute one on the returned value.
    """
    q = q if isinstance(q, (mpf, mpc)) else mpf(q)
    a = a if isinstance(a, (mpf, mpc)) else mpf(a)
    absq = abs(q)
    if not absq < 1:
        raise DomainError(f"|q| must be < 1, got {absq}")
    if rel_tol is None:
        rel_tol = mpf(2) ** (-mp.prec + 2)
    prod = mpf(1) if (isinstance(a, mpf) and isinstance(q, mpf)) else mpc(1)
    w = a
    absw = abs(a)
    n = 0
    while True:
        prod = prod * (1 - w)
        w = w * q
        absw = absw * absq
        n += 1
        # once |w| <= 1/2: |log prod_tail| <= sum 2|w| <= 2|w|/(1-|q|)
        if absw <= mpf("0.5"):
            logtail = 2 * absw / (1 - absq)
            if logtail <= rel_tol:
                break
        if n > DEFAULT_MAX_TERMS:
            raise ConvergenceError("qpoch_inf_direct did not reach tolerance")
    err = abs(prod) * mp.expm1(logtail) + _roundoff(n, prod)
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
        if ratio < mpf("0.5"):
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
        if ratio < mpf("0.5"):
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
    """
    q, z = pt.q, pt.z
    tol = mpf(tol)
    C, beta = _growth(f)
    w = 1 if kernel.weight == "over_n" else 0
    p = beta - w
    rez = z.real if isinstance(z, mpc) else z
    r = q**rez
    pref = C / (1 - q)
    sign = -1 if kernel.kernel == "plus" else 1

    qz = q**z if not isinstance(z, mpc) else mp.exp(z * mp.log(q))
    acc = mpf(0) if not isinstance(z, mpc) else mpc(0)
    qn = mpf(1)
    qzn = qz * 0 + 1
    n = 0
    check_at = 1
    if C == 0:
        return SeriesValue(acc, mpf(0), 0)
    while True:
        if n >= max_terms:
            raise ConvergenceError(
                f"lambert_sum needs more than max_terms={max_terms} terms", side="lambert"
            )
        if n >= f.N:
            raise TableTooShortError(
                f"lambert_sum needs more than {f.N} tabulated values", side="lambert"
            )
        n += 1
        qn = qn * q
        qzn = qzn * qz
        fv = f.values[n]
        if fv:
            term = _to_mp(fv) * qzn / (1 - sign * qn)
            if w:
                term = term / n
            acc = acc + term
        # the closed-form tail bound is monotone in n, so checking it on a
        # geometric schedule loses at most a constant factor in terms_used
        if n >= check_at:
            tail = pref * _poly_geom_tail(p, r, n)
            if tail <= tol:
                break
            check_at = n + max(8, n // 8)
    return SeriesValue(acc, tail + _roundoff(n, acc), n)


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
    The outer tail uses |log (q^(nz);q^n)_inf| <= r^n / ((1-q)(1-r)).
    """
    if form not in ("A", "B"):
        raise DomainError(f"form must be 'A' or 'B', got {form!r}")
    if weight not in ("over_n", "plain"):
        raise DomainError(f"weight must be 'over_n' or 'plain', got {weight!r}")
    q, z = pt.q, pt.z
    tol = mpf(tol)
    C, beta = _growth(g)
    w = 1 if weight == "over_n" else 0
    p = beta - w
    rez = z.real if isinstance(z, mpc) else z
    r = q**rez
    pref = C / ((1 - q) * (1 - r))
    if form == "B":
        pref = 2 * pref

    complex_z = isinstance(z, mpc)
    logq = mp.log(q)
    if form == "A":
        qz = mp.exp(z * logq) if complex_z else q**z
        base_step = q
    else:
        qz = mp.exp(z * logq) if complex_z else q**z
        qz1 = mp.exp((z + 1) * logq) if complex_z else q ** (z + 1)
        base_step = q * q
        b1n = qz1 * 0 + 1
    acc = mpc(0) if complex_z else mpf(0)
    err_acc = mpf(0)
    inner_tol = mpf(2) ** (-mp.prec)
    an = qz * 0 + 1
    base_n = mpf(1)
    n = 0
    check_at = 1
    inner_terms = 0
    if C == 0:
        return SeriesValue(acc, mpf(0), 0)
    while True:
        if n >= max_terms:
            raise ConvergenceError(
                f"weighted_product_log needs more than max_terms={max_terms} terms",
                side="product",
            )
        if n >= g.N:
            raise TableTooShortError(
                f"weighted_product_log needs more than {g.N} tabulated values",
                side="product",
            )
        n += 1
        an = an * qz
        base_n = base_n * base_step
        if form == "B":
            b1n = b1n * qz1
        gv = g.values[n]
        if gv:
            c = _to_mp(gv)
            if w:
                c = c / n
            if form == "A":
                inner = log_qpoch_inf(an, base_n, tol=inner_tol)
                val = inner.value
                ierr = inner.err_bound
                inner_terms += inner.terms_used
            else:
                i1 = log_qpoch_inf(b1n, base_n, tol=inner_tol)
                i2 = log_qpoch_inf(an, base_n, tol=inner_tol)
                val = i1.value - i2.value
                ierr = i1.err_bound + i2.err_bound
                inner_terms += i1.terms_used + i2.terms_used
            acc = acc + c * val
            err_acc += abs(c) * ierr
        if n >= check_at:
            tail = pref * _poly_geom_tail(p, r, n)
            if tail <= tol:
                break
            check_at = n + max(4, n // 16)
    return SeriesValue(acc, tail + err_acc + _roundoff(n + inner_terms, acc), n)
