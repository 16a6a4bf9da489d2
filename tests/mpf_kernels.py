"""Reference oracles: the q-Pochhammer kernels as plain mpf loops.

These are term-by-term mpf versions of ``log_qpoch_inf``,
``qpoch_inf_direct``, ``weighted_product_log`` and ``lambert_sum``.  They
stop on the same tail inequalities as the library's fixed-point kernels, so
the tests can require equal term counts and agreement within the sum of both
certified bounds.
"""

from mpmath import mp, mpc, mpf

from lambertq.arith import ArithTable
from lambertq.numerics import ConvergenceError, DomainError
from lambertq.qseries import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    KernelForm,
    QPoint,
    SeriesValue,
    _check_terms,
    _poly_geom_tail,
    _roundoff,
    _truncation,
)


def _to_mp(x):
    """An int, Fraction, mpf or mpc table value as mpf or mpc."""
    if isinstance(x, (mpf, mpc)):
        return x
    if isinstance(x, int):
        return mpf(x)
    return mpf(x.numerator) / mpf(x.denominator)


def oracle_log_qpoch_inf(z, q, tol=None) -> SeriesValue:
    """log (z;q)_inf, one mpf factor per term; the tail bound is checked
    after each factor.  The running product goes through log before its
    argument can wrap."""
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


def oracle_qpoch_inf_direct(a, q, rel_tol=None) -> SeriesValue:
    """(a;q)_inf, one mpf factor per term, for any a."""
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


def oracle_weighted_product_log(
    g: ArithTable,
    pt: QPoint,
    form: str = "A",
    weight: str = "over_n",
    tol=DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesValue:
    """weighted_product_log with the same N* from _truncation, each inner
    log-Pochhammer by oracle_log_qpoch_inf and the outer sum in mpf."""
    if form not in ("A", "B"):
        raise DomainError(f"form must be 'A' or 'B', got {form!r}")
    if weight not in ("over_n", "plain"):
        raise DomainError(f"weight must be 'over_n' or 'plain', got {weight!r}")
    q, z = pt.q, pt.z
    tol = mpf(tol)
    C, beta = map(mpf, g.growth)
    complex_z = isinstance(z, mpc)
    if C == 0:
        return SeriesValue(mpc(0) if complex_z else mpf(0), mpf(0), 0)
    w = 1 if weight == "over_n" else 0
    p = beta - w
    r = q ** (z.real if complex_z else z)
    pref = (2 if form == "B" else 1) * C / ((1 - q) * (1 - r))
    N = _truncation(pref, p, r, tol)
    _check_terms(N, g, max_terms, "weighted_product_log")

    logq = mp.log(q)
    qz = mp.exp(z * logq) if complex_z else q**z
    qz1 = mp.exp((z + 1) * logq) if complex_z else q ** (z + 1)
    base_step = q if form == "A" else q * q
    acc = mpc(0) if complex_z else mpf(0)
    err_acc = mpf(0)
    inner_tol = mpf(2) ** (-mp.prec)
    an, b1n, base_n = qz * 0 + 1, qz * 0 + 1, mpf(1)
    inner_terms = 0
    for n in range(1, N + 1):
        an = an * qz
        b1n = b1n * qz1
        base_n = base_n * base_step
        gv = g.values[n]
        if gv:
            c = _to_mp(gv)
            if w:
                c = c / n
            if form == "A":
                inner = oracle_log_qpoch_inf(an, base_n, tol=inner_tol)
                val = inner.value
                ierr = inner.err_bound
                inner_terms += inner.terms_used
            else:
                i1 = oracle_log_qpoch_inf(b1n, base_n, tol=inner_tol)
                i2 = oracle_log_qpoch_inf(an, base_n, tol=inner_tol)
                val = i1.value - i2.value
                ierr = i1.err_bound + i2.err_bound
                inner_terms += i1.terms_used + i2.terms_used
            acc = acc + c * val
            err_acc += abs(c) * ierr
    tail = pref * _poly_geom_tail(p, r, N)
    return SeriesValue(acc, tail + err_acc + _roundoff(N + inner_terms, acc), N)


def oracle_lambert_sum(
    f: ArithTable,
    kernel: KernelForm,
    pt: QPoint,
    tol=DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesValue:
    """lambert_sum with one mpf operation per step: the same N* from
    _truncation, then an mpf loop and the _roundoff cover alone."""
    q, z = pt.q, pt.z
    tol = mpf(tol)
    C, beta = map(mpf, f.growth)
    complex_z = isinstance(z, mpc)
    if C == 0:
        return SeriesValue(mpc(0) if complex_z else mpf(0), mpf(0), 0)
    w = 1 if kernel.weight == "over_n" else 0
    p = beta - w
    r = q ** (z.real if complex_z else z)
    pref = C / (1 - q)
    N = _truncation(pref, p, r, tol)
    _check_terms(N, f, max_terms, "lambert_sum")

    sign = -1 if kernel.kernel == "plus" else 1
    qz = mp.exp(z * mp.log(q)) if complex_z else q**z
    acc = mpc(0) if complex_z else mpf(0)
    qn = mpf(1)
    qzn = qz * 0 + 1
    for n in range(1, N + 1):
        qn = qn * q
        qzn = qzn * qz
        fv = f.values[n]
        if fv:
            term = _to_mp(fv) * qzn / (1 - sign * qn)
            if w:
                term = term / n
            acc = acc + term
    tail = pref * _poly_geom_tail(p, r, N)
    return SeriesValue(acc, tail + _roundoff(N, acc), N)
