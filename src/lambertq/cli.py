"""Command-line surface: sieve tables, evaluate series, verify, limit-check.

Exit codes: 0 success / all checks passed; 1 some check failed; 2 argument or
spec parse error (including unknown catalog ids); 3 arithmetic overflow;
4 domain error; 5 convergence failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from fractions import Fraction

from mpmath import mp, mpf, mpc

from . import identities
from .arith import FunctionId, as_mpf, build_table
from .numerics import ConvergenceError, DomainError, _max_terms, _tol, set_precision
from .qseries import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    KernelForm,
    QPoint,
    dedekind_eta,
    lambert_sum,
    qpoch_inf_direct,
    weighted_product_log,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_OVERFLOW = 3
EXIT_DOMAIN = 4
EXIT_CONVERGENCE = 5

# the default of --precision where that option is absent
PRECISION_ENV = "LAMBERTQ_PRECISION_BITS"

# largest N of `sieve`: its smallest-prime-factor array alone holds N + 1 ints
SIEVE_MAX_N = 1 << 20


def _scalar_str(v) -> str:
    """Flat decimal-string form (text and exact integers verbatim)."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    if isinstance(v, Fraction):
        return mp.nstr(as_mpf(v), mp.dps)
    if isinstance(v, mpc):
        re, im = mp.nstr(v.real, mp.dps), mp.nstr(v.imag, mp.dps)
        return f"{re}{'+' if not im.startswith('-') else ''}{im}j"
    return mp.nstr(mpf(v), mp.dps)


class ParseError(ValueError):
    """A command-line value that does not parse."""


def _parse_number(text: str, real=True):
    """A real number as a decimal at the working precision, or else a complex
    one through Python's complex (1+0.5j)."""
    try:
        if real:
            return mpf(text)
        v = complex(text.replace(" ", ""))
    except ValueError:
        raise ParseError(f"parse error: cannot parse number {text!r}") from None
    return mpc(v) if v.imag else mpf(v.real)


def _parse_bits(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"parse error: {PRECISION_ENV} must be an integer, "
                         f"got {text!r}") from None


def _parse_spec(text: str) -> FunctionId:
    try:
        return FunctionId.parse(text)
    except DomainError as exc:
        raise ParseError(f"parse error: {exc}") from None


def _add_global_opts(parser, suppress: bool):
    # the same options are accepted before or after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber top-level values
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--precision", type=int, default=d(None),
                        metavar="BITS",
                        help=f"working precision in bits (default: {PRECISION_ENV}, "
                             "else 128)")
    parser.add_argument("--tol", default=d(None), metavar="TOL",
                        help="certified truncation tolerance (default 1e-25)")
    parser.add_argument("--max-terms", type=int, default=d(DEFAULT_MAX_TERMS))
    parser.add_argument("--format", choices=("json", "csv", "human"),
                        default=d("human"))


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False throughout: a prefix such as --f or --form must not
    # reach --format on a parser that has no option of that name
    top = argparse.ArgumentParser(
        prog="lambertq", allow_abbrev=False,
        description="Lambert series / q-exponential product evaluation and "
                    "identity verification with certified error bounds.",
    )
    _add_global_opts(top, suppress=False)
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    _add_global_opts(common, suppress=True)
    each = dict(parents=[common], allow_abbrev=False)  # of every subcommand
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", **each, help="tabulate an arithmetic function as CSV")
    p.add_argument("spec", help="function spec, grammar name[:param]")
    p.add_argument("N", type=int)
    p.add_argument("--out", default="-", help="output path (default stdout)")

    # each eval target takes only its own options
    p = sub.add_parser("eval", **each, help="evaluate a series or product")
    what = p.add_subparsers(dest="what", required=True)
    lam = what.add_parser("lambert", **each, help="Lambert series of f")
    lam.add_argument("--f", dest="spec", default="one", help="arithmetic function f")
    lam.add_argument("--kernel", choices=("minus", "plus"), default="minus")
    prod = what.add_parser("product", **each,
                           help="log of the weighted q-Pochhammer product of g")
    prod.add_argument("--g", dest="spec", default="one",
                      help="arithmetic function g of the exponents")
    prod.add_argument("--form", choices=("A", "B"), default="A")
    qp = what.add_parser("qpoch", **each, help="(z;q)_inf by direct product")
    for t in (lam, prod):
        t.add_argument("--weight", choices=("over_n", "plain"), default="over_n")
    for t in (lam, prod, qp):
        t.add_argument("--q", default="0.5")
        t.add_argument("--z", default="1")
    eta = what.add_parser("eta", **each, help="Dedekind eta")
    eta.add_argument("--tau", default="1j", help="upper-half-plane point")

    p = sub.add_parser("verify", **each, help="verify one identity or 'all'")
    p.add_argument("id")
    p.add_argument("--q", default=None)
    p.add_argument("--z", default=None)

    p = sub.add_parser("limit", **each, help="limit-check one record or 'all'")
    p.add_argument("id")
    p.add_argument("--limit-tol", default=identities.DEFAULT_LIMIT_TOL)
    return top


# ---------------------------------------------------------------------------
# output helpers

def _emit(text: str, out_path: str = "-"):
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _csv(cols, rows) -> str:
    """RFC 4180 CSV: a header of ``cols``, then one line per row."""
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(rows)
    return buf.getvalue()


def _series_value_out(fields: dict, fmt: str) -> str:
    flat = {k: _scalar_str(v) for k, v in fields.items()}
    if fmt == "json":
        return json.dumps(flat, indent=2) + "\n"
    if fmt == "csv":
        return _csv(flat, [flat.values()])
    return "".join(f"{k} = {v}\n" for k, v in flat.items())


# report fields in column order; the "passed" field is headed "pass"
_LIMIT_COLS = ("id", "estimate", "target_value", "rel_err", "err_estimate",
               "passed", "mode", "note")


def _reports_out(reports, cols, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    head = ["pass" if c == "passed" else c for c in cols]
    rows = [[_scalar_str(getattr(r, c)) for c in cols] for r in reports]
    if fmt == "csv":
        return _csv(head, rows)
    lines = []
    for r, row in zip(reports, rows):
        detail = " ".join(f"{c}={v}" for c, v in zip(head[1:], row[1:]) if v)
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.id}: {detail}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# commands

def cmd_sieve(args) -> int:
    fid = _parse_spec(args.spec)
    if not 1 <= args.N <= SIEVE_MAX_N:
        print(f"lambertq: domain error: N must be in [1, {SIEVE_MAX_N}]", file=sys.stderr)
        return EXIT_DOMAIN
    vals = build_table(fid, args.N).values[1:]
    if not all(type(v) is int for v in vals):  # exact ints print verbatim
        vals = map(_scalar_str, vals)
    _emit("n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(vals, 1)), args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.what == "qpoch":
        sv = qpoch_inf_direct(_parse_number(args.z, real=False), _parse_number(args.q))
    elif args.what == "eta":
        sv = dedekind_eta(_parse_number(args.tau, real=False))
    else:
        pt = QPoint(_parse_number(args.q), _parse_number(args.z, real=False))
        _parse_spec(args.spec)
        if args.what == "lambert":
            kern = KernelForm(args.kernel, args.weight)
            sv = identities._with_table(f"std:{args.spec}", lambda f: lambert_sum(
                f, kern, pt, tol=args.tol, max_terms=args.max_terms))
        else:
            sv = identities._with_table(f"std:{args.spec}", lambda g: weighted_product_log(
                g, pt, form=args.form, weight=args.weight,
                tol=args.tol, max_terms=args.max_terms))
    fields = sv._asdict()
    if args.what == "product":  # the log of the weighted product, then the product
        fields["product"] = mp.exp(sv.value)
    _emit(_series_value_out(fields, args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.id == "all":
        if args.q is not None or args.z is not None:
            raise ParseError("parse error: verify all runs the default grid; "
                             "--q and --z apply to one record only")
        reports = identities.verify_all(tol=args.tol, max_terms=args.max_terms)
    else:
        q = _parse_number(args.q) if args.q is not None else None
        z = _parse_number(args.z, real=False) if args.z is not None else None
        reports = [identities.verify(args.id, q, z, tol=args.tol,
                                     max_terms=args.max_terms)]
    _emit(_reports_out(reports, identities.IdentityReport._fields, args.format))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_limit(args) -> int:
    tol = _parse_number(args.limit_tol)
    if args.id == "all":
        reports = identities.limit_check_all(tol)
    else:
        reports = [identities.limit_check(args.id, tol)]
    _emit(_reports_out(reports, _LIMIT_COLS, args.format))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _join_negative_values(argv):
    """argv with each token that starts with "-" and a digit or "." (no option
    does) joined to the option before it: argparse reads --z -1e-3 as two
    options, and --z=-1e-3 as one option and its value."""
    out = []
    for tok in argv:
        if out and re.match(r"-[\d.]", tok) and re.fullmatch(r"--(?!help$)[\w-]+", out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        precision = args.precision
        if precision is None:
            env = os.environ.get(PRECISION_ENV)
            precision = mp.prec if env is None else _parse_bits(env)
        args.tol = _tol(_parse_number(args.tol)) if args.tol is not None else DEFAULT_TOL
        _max_terms(args.max_terms)
        set_precision(precision)
        handler = {"sieve": cmd_sieve, "eval": cmd_eval,
                   "verify": cmd_verify, "limit": cmd_limit}[args.command]
        return handler(args)
    except (ParseError, identities.UnknownIdError) as exc:
        print(f"lambertq: {exc.args[0]}", file=sys.stderr)
        return EXIT_PARSE
    except OverflowError as exc:
        print(f"lambertq: overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except DomainError as exc:
        print(f"lambertq: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"lambertq: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


def run(argv=None) -> int:
    """Process entry of the ``lambertq`` script and ``python -m lambertq.cli``.

    Returns main(argv) and then freezes the garbage collector, so that the
    collections run at interpreter shutdown skip the ~18k objects mpmath and
    lambertq leave tracked (about a tenth of a quick call).  main itself
    has no process-wide effect: it is the in-process API.
    """
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
