"""Configurable-precision arithmetic, classical constants, and extrapolation.

Everything here operates at the current working precision of the shared
mpmath context.  Values are plain ``mpf``/``mpc`` objects; all functions are
pure, so values can be shared freely between threads.
"""

from __future__ import annotations

from contextlib import contextmanager

import mpmath
from mpmath import mp, mpf, mpc

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "DomainError",
    "ConvergenceError",
    "set_precision",
    "precision",
    "zeta",
    "dirichlet_beta",
    "euler_gamma",
    "glaisher",
    "catalan",
    "richardson_extrapolate",
    "basis_extrapolate",
]

DEFAULT_PRECISION_BITS = 128


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A certified tolerance could not be reached within the term budget."""


def _int_at_least(x, k, name, unit=""):
    """x, an int (not a bool) >= k: the rule of the term cap and the precision."""
    if type(x) is not int or x < k:
        raise DomainError(f"{name} must be >= {k}{unit} and an integer, got {x!r}")
    return x


def set_precision(bits: int) -> None:
    """Set the working binary precision (significand bits, >= 53)."""
    mp.prec = _int_at_least(bits, 53, "precision", " bits")


def _positive(x, name):
    """x as an mpf at the working precision; it must be positive and finite.
    The one rule of every tolerance: tol and the limit checks' limit_tol."""
    x = mpf(x)
    if not 0 < x < mp.inf:
        raise DomainError(f"{name} must be positive and finite, got {x}")
    return x


def _tol(tol, shift=0):
    """A tolerance through _positive, 2^(shift - prec) for None: the tol of
    qseries' evaluators, of verify and verify_all, and of the CLI's --tol."""
    return mp.ldexp(1, shift - mp.prec) if tol is None else _positive(tol, "tol")


def _max_terms(m):
    """m, an int >= 1: every term cap (max_terms, --max-terms)."""
    return _int_at_least(m, 1, "max_terms")


@contextmanager
def precision(bits: int):
    """Context manager that temporarily switches the working precision."""
    old = mp.prec
    set_precision(bits)
    try:
        yield
    finally:
        mp.prec = old


set_precision(DEFAULT_PRECISION_BITS)


def zeta(s) -> mpf:
    """Riemann zeta on the real axis, s > 1 only.

    The series tail never enters any error budget here: callers rely on the
    value being correct to within a few ulp at the working precision.
    """
    s = mpf(s)
    if not s > 1:
        raise DomainError(f"zeta requires s > 1, got {s}")
    return mpf(mpmath.zeta(s))


def dirichlet_beta(s) -> mpf:
    """Dirichlet beta function sum((-1)^n/(2n+1)^s), s > 0."""
    s = mpf(s)
    if not s > 0:
        raise DomainError(f"dirichlet_beta requires s > 0, got {s}")
    return mpmath.dirichlet(s, [0, 1, 0, -1])


def euler_gamma() -> mpf:
    """Euler-Mascheroni constant at the working precision."""
    return +mp.euler


def glaisher() -> mpf:
    """Glaisher-Kinkelin constant A at the working precision."""
    return +mp.glaisher


def catalan() -> mpf:
    """Catalan constant G = beta(2) at the working precision."""
    return +mp.catalan


def _nodes(xs, ys, least):
    """xs as mpf and ys as mpf or mpc, at least ``least`` of each, with xs
    strictly decreasing and positive: the nodes of both extrapolators, whose
    target is x = 0."""
    xs = [mpf(x) for x in xs]
    ys = [y if isinstance(y, mpc) else mpf(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < least:
        raise ValueError(f"need at least {least} nodes, got {len(xs)}")
    if not all(b < a for a, b in zip(xs, xs[1:])):
        raise ValueError("xs must be strictly decreasing")
    if xs[-1] <= 0:
        raise ValueError("xs must stay positive (extrapolation target is 0)")
    return xs, ys


def richardson_extrapolate(xs, ys):
    """Polynomial (Neville) extrapolation of y(x) to x = 0.

    ``xs`` must be strictly decreasing toward 0 with at least 3 nodes.
    Returns ``(limit, err_estimate)`` where the error estimate is the
    magnitude of the last tableau correction.  ``ys`` may be complex.
    """
    xs, ys = _nodes(xs, ys, 3)
    m = len(xs)

    # tab[i] holds the Neville value of degree j interpolant ending at node i
    tab = list(ys)
    prev_diag = tab[-1]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            denom = xs[i] - xs[i - j]
            tab[i] = ((0 - xs[i - j]) * tab[i] - (0 - xs[i]) * tab[i - 1]) / denom
        if j == m - 1:
            correction = abs(tab[-1] - prev_diag)
        prev_diag = tab[-1]
    return tab[-1], mpf(correction)


def basis_extrapolate(xs, ys, basis):
    """Extrapolate y(x) to x = 0 by fitting y = c0 + sum c_i * phi_i(x).

    ``basis`` is a sequence of callables phi_i with phi_i(x) -> 0 as x -> 0+;
    this handles expansions with non-polynomial terms (x^a, x log^k x) that
    defeat pure Neville extrapolation.  The model is solved exactly on the
    ``len(basis)+1`` smallest nodes; the error estimate is the shift in c0
    when the fit window slides one node toward larger x.  ``ys`` may be
    complex.  Returns ``(limit, err_estimate)``.
    """
    m = len(basis) + 1
    xs, ys = _nodes(xs, ys, m + 1)

    def solve(idx):
        A = mp.matrix(m, m)
        b = mp.matrix(m, 1)
        for r, i in enumerate(idx):
            A[r, 0] = 1
            for c, phi in enumerate(basis):
                A[r, c + 1] = phi(xs[i])
            b[r] = ys[i]
        return mp.lu_solve(A, b)[0]

    n = len(xs)
    c_small = solve(range(n - m, n))
    c_shift = solve(range(n - m - 1, n - 1))
    return c_small, abs(c_small - c_shift)
