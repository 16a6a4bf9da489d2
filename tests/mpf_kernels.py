"""Reference oracles: the q-Pochhammer kernels as plain mpf loops.

These are term-by-term mpf versions of ``log_qpoch_inf``,
``qpoch_inf_direct`` and ``weighted_product_log``.  They stop on the same
tail inequalities as the library's fixed-point kernels, so the tests can
require equal term counts and agreement within the sum of both certified
bounds.
"""

from mpmath import mp, mpc, mpf

from lambertq.arith import ArithTable
from lambertq.numerics import ConvergenceError, DomainError
from lambertq.qseries import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    QPoint,
    SeriesValue,
    TableTooShortError,
    _growth,
    _poly_geom_tail,
    _roundoff,
    _to_mp,
)


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
    """weighted_product_log with each inner log-Pochhammer by
    oracle_log_qpoch_inf and the outer sum in mpf."""
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
        if n >= check_at:
            tail = pref * _poly_geom_tail(p, r, n)
            if tail <= tol:
                break
            check_at = n + max(4, n // 16)
    return SeriesValue(acc, tail + err_acc + _roundoff(n + inner_terms, acc), n)
