"""Correctness checks on the output of one CLI op.

Each check returns None when the output is right, else a one-line reason.
Values are compared at the CLI's default 128-bit working precision.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

from lambertq import arith

PREC = 128
SIEVE_CHECKED = 64  # leading sieve rows compared against an in-process table

_COMPLEX = re.compile(r"^(.*[0-9.])([+-][^+-]*(?:e[+-]\d+)?)j$")
_qp_cache = {}


def parse_number(text):
    """A CLI decimal string, real or ``re+imj``, as mpf/mpc."""
    text = text.strip()
    if text.endswith("j"):
        m = _COMPLEX.match(text)
        if not m:
            raise ValueError(f"bad complex {text!r}")
        return mpc(mpf(m.group(1)), mpf(m.group(2)))
    return mpf(text)


def _slack(ref):
    """Precision slack relative to ``ref``: 2^-104 |ref|."""
    return mpf(2) ** (-PREC + 24) * abs(ref)


def _qp_reference(a_text, q_text):
    key = (a_text, q_text)
    if key not in _qp_cache:
        a = complex(a_text)
        a = mpc(a) if a.imag else mpf(a.real)
        _qp_cache[key] = mpmath.qp(a, mpf(q_text), maxterms=10**7)
    return _qp_cache[key]


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_eval(argv, out):
    rec = json.loads(out)
    err = mpf(rec["err_bound"])
    if not (mp.isfinite(err) and err >= 0):
        return f"err_bound {rec['err_bound']} is not finite and nonnegative"
    value = parse_number(rec["value"])
    if not mp.isfinite(abs(value)):
        return "value is not finite"
    what = argv[1]
    if what == "qpoch":
        ref = _qp_reference(_arg(argv, "--z"), _arg(argv, "--q"))
        if abs(value - ref) > err + _slack(ref):
            return f"qpoch differs from mpmath.qp by {mp.nstr(abs(value - ref), 5)}"
    if what == "product":
        prod = parse_number(rec["product"])
        if abs(prod - mp.exp(value)) > _slack(prod):
            return "product is not exp(log value)"
    return None


def _check_verify(argv, out):
    reports = json.loads(out)
    if len(reports) != 1 or reports[0]["id"] != argv[1]:
        return "verify output does not hold exactly the requested report"
    if reports[0]["pass"] is not True:
        return "verify report says FAIL"
    return None


def _check_limit(argv, out):
    reports = json.loads(out)
    if len(reports) != 1 or reports[0]["id"] != argv[1]:
        return "limit output does not hold exactly the requested report"
    if reports[0]["pass"] is not True:
        return "limit report says FAIL"
    return None


def _as_mp(v):
    if isinstance(v, Fraction):
        return mpf(v.numerator) / v.denominator
    return mpc(v) if isinstance(v, (complex, mpc)) else mpf(v)


def _check_sieve(argv, out):
    spec, N = argv[1], int(argv[2])
    lines = out.splitlines()
    if lines[:1] != ["n,value"] or len(lines) != N + 1:
        return f"sieve output has {len(lines)} lines, expected header + {N}"
    ref = arith.build_table(spec, SIEVE_CHECKED)
    for n, line in enumerate(lines[1:], start=1):
        idx, _, val = line.partition(",")
        if int(idx) != n:
            return f"sieve row {n} is labelled {idx}"
        if n <= SIEVE_CHECKED:
            want = _as_mp(ref.values[n])
            if abs(parse_number(val) - want) > _slack(max(1, abs(want))):
                return f"sieve value at n={n} is {val}, expected {mp.nstr(want, 20)}"
    return None


def check_cli_output(argv, out):
    with mp.workprec(PREC):
        try:
            return {"eval": _check_eval, "verify": _check_verify,
                    "limit": _check_limit, "sieve": _check_sieve}[argv[0]](argv, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
