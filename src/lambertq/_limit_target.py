"""The q->1 limit record, a frozen dataclass loaded on first use.

Every other record of the library is a plain class, so that a cold CLI
process never imports ``dataclasses`` (and with it ``inspect``, ``ast``,
``dis`` and ``tokenize``).  This one stays a dataclass because
``benchmarks/spans.py`` copies limit records with ``dataclasses.replace``.
It lives apart so that only ``limit_targets()`` and ``limit_lookup()``, and
the ``limit`` commands through them, pay for that import.  Once tracing
moves into the library (ROADMAP item 1), the benchmark stops copying the
records and ``LimitTarget`` can become a plain class like the others.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LimitTarget:
    id: str
    description: str
    f_key: str = ""
    form: str = "A"
    sign: int = -1
    verdict: str = ""  # "", DivergesToInfinity, ConvergesToZero
    target_fn: object = None  # callable() -> mpf/mpc
    # singular terms x^a log^k(1/x), k = 0..m, known to appear in the scaled
    # exponent as x -> 0 (from the pole structure of sum f(n) n^-s); an empty
    # tuple selects plain polynomial Richardson extrapolation
    sing: tuple = ()
