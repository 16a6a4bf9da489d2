"""Configurable-precision arithmetic, classical constants, and extrapolation.

Everything here operates at the current working precision of the shared
mpmath context.  Values are plain ``mpf``/``mpc`` objects; all functions are
pure, so values can be shared freely between threads.
"""

from __future__ import annotations

import os
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

_ENV_BITS = "LAMBERTQ_PRECISION_BITS"
_HALF = mpf("0.5")


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A certified tolerance could not be reached within the term budget."""

    def __init__(self, message, side=None):
        super().__init__(message)
        self.side = side


def _initial_bits() -> int:
    raw = os.environ.get(_ENV_BITS)
    if raw is None:
        return DEFAULT_PRECISION_BITS
    bits = int(raw)
    if bits < 53:
        raise DomainError(f"{_ENV_BITS} must be >= 53, got {bits}")
    return bits


def set_precision(bits: int) -> None:
    """Set the working binary precision (significand bits, >= 53)."""
    if bits < 53:
        raise DomainError(f"precision must be >= 53 bits, got {bits}")
    mp.prec = bits


@contextmanager
def precision(bits: int):
    """Context manager that temporarily switches the working precision."""
    if bits < 53:
        raise DomainError(f"precision must be >= 53 bits, got {bits}")
    old = mp.prec
    mp.prec = bits
    try:
        yield
    finally:
        mp.prec = old


set_precision(_initial_bits())


def zeta(s) -> mpf:
    """Riemann zeta on the real axis, s > 1 only.

    The series tail never enters any error budget here: callers rely on the
    value being correct to within a few ulp at the working precision.
    """
    s = mpf(s)
    if not s > 1:
        raise DomainError(f"zeta requires s > 1, got {s}")
    return mpf(mpmath.zeta(s))


def _alternating_sum(term, n: int) -> mpf:
    # Chebyshev-accelerated alternating summation: error decays like
    # (3+sqrt(8))^(-n), so n ~ 1.31 * decimal_digits suffices.
    d = (3 + 2 * mp.sqrt(2)) ** n
    d = (d + 1 / d) / 2
    b = mpf(-1)
    c = -d
    s = mpf(0)
    for k in range(n):
        c = b - c
        s += c * term(k)
        b *= mpf((k + n) * (k - n)) / ((k + _HALF) * (k + 1))
    return s / d


def dirichlet_beta(s) -> mpf:
    """Dirichlet beta function sum((-1)^n/(2n+1)^s), s > 0."""
    s = mpf(s)
    if not s > 0:
        raise DomainError(f"dirichlet_beta requires s > 0, got {s}")
    n = int(1.31 * mp.dps) + 10
    return _alternating_sum(lambda k: mpf(1) / mpf(2 * k + 1) ** s, n)


def euler_gamma() -> mpf:
    """Euler-Mascheroni constant at the working precision."""
    return +mp.euler


def glaisher() -> mpf:
    """Glaisher-Kinkelin constant A, via log A = 1/12 - zeta'(-1)."""
    zp = mpmath.zeta(-1, derivative=1)
    return mp.exp(mpf(1) / 12 - zp)


def catalan() -> mpf:
    """Catalan constant G = beta(2), via an accelerated alternating series."""
    n = int(1.31 * mp.dps) + 10
    return _alternating_sum(lambda k: mpf(1) / mpf(2 * k + 1) ** 2, n)


def richardson_extrapolate(xs, ys):
    """Polynomial (Neville) extrapolation of y(x) to x = 0.

    ``xs`` must be strictly decreasing toward 0 with at least 3 nodes.
    Returns ``(limit, err_estimate)`` where the error estimate is the
    magnitude of the last tableau correction.  ``ys`` may be complex.
    """
    xs = [mpf(x) for x in xs]
    ys = [y if isinstance(y, mpc) else mpf(y) for y in ys]
    m = len(xs)
    if m != len(ys):
        raise ValueError("xs and ys must have equal length")
    if m < 3:
        raise ValueError("need at least 3 nodes")
    for a, b in zip(xs, xs[1:]):
        if not b < a:
            raise ValueError("xs must be strictly decreasing")
    if xs[-1] <= 0:
        raise ValueError("xs must stay positive (extrapolation target is 0)")

    # tab[i] holds the Neville value of degree j interpolant ending at node i
    tab = list(ys)
    prev_diag = tab[-1]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            denom = xs[i] - xs[i - j]
            if denom == 0:
                raise ValueError("duplicate xs")
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
    xs = [mpf(x) for x in xs]
    ys = [y if isinstance(y, mpc) else mpf(y) for y in ys]
    m = len(basis) + 1
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < m + 1:
        raise ValueError(f"need at least {m + 1} nodes for {m - 1} basis terms")
    for a, b in zip(xs, xs[1:]):
        if not b < a:
            raise ValueError("xs must be strictly decreasing")
    if xs[-1] <= 0:
        raise ValueError("xs must stay positive (extrapolation target is 0)")

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
