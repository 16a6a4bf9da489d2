"""Command-line surface: sieve tables, evaluate series, verify, limit-check.

Exit codes: 0 success / all checks passed; 1 some check failed; 2 argument or
spec parse error (including unknown catalog ids); 3 arithmetic overflow;
4 domain error; 5 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from mpmath import mp, mpf, mpc

from . import identities
from .arith import FunctionId, build_table
from .numerics import ConvergenceError, DomainError, set_precision
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

# largest N of `sieve`: its smallest-prime-factor array alone holds N + 1 ints
SIEVE_MAX_N = 1 << 20


def _scalar_str(v) -> str:
    """Flat decimal-string form (exact integers verbatim)."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return mp.nstr(mpf(v.numerator) / v.denominator, mp.dps)
    if isinstance(v, (complex, mpc)):
        v = mpc(v)
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
                        help="working precision in bits (default: env or 128)")
    parser.add_argument("--tol", default=d(None), metavar="TOL",
                        help="certified truncation tolerance (default 1e-25)")
    parser.add_argument("--max-terms", type=int, default=d(DEFAULT_MAX_TERMS))
    parser.add_argument("--format", choices=("json", "csv", "human"),
                        default=d("human"))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lambertq",
        description="Lambert series / q-exponential product evaluation and "
                    "identity verification with certified error bounds.",
    )
    _add_global_opts(top, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_opts(common, suppress=True)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", parents=[common],
                       help="tabulate an arithmetic function as CSV")
    p.add_argument("spec", help="function spec, grammar name[:param[,param]]")
    p.add_argument("N", type=int)
    p.add_argument("--out", default="-", help="output path (default stdout)")

    p = sub.add_parser("eval", parents=[common], help="evaluate a series or product")
    p.add_argument("what", choices=("lambert", "product", "qpoch", "eta"))
    p.add_argument("--f", dest="fspec", default="one",
                   help="arithmetic function for the series side")
    p.add_argument("--g", dest="gspec", default="one",
                   help="arithmetic function for the product exponents")
    p.add_argument("--weight", choices=("over_n", "plain"), default="over_n")
    p.add_argument("--kernel", choices=("minus", "plus"), default="minus")
    p.add_argument("--form", choices=("A", "B"), default="A")
    p.add_argument("--q", default="0.5")
    p.add_argument("--z", default="1")
    p.add_argument("--tau", default="1j", help="upper-half-plane point (eta)")

    p = sub.add_parser("verify", parents=[common], help="verify one identity or 'all'")
    p.add_argument("id")
    p.add_argument("--q", default=None)
    p.add_argument("--z", default=None)

    p = sub.add_parser("limit", parents=[common], help="limit-check one record or 'all'")
    p.add_argument("id")
    p.add_argument("--limit-tol", default="1e-3")
    return top


# ---------------------------------------------------------------------------
# output helpers

def _emit(text: str, out_path: str = "-"):
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _series_value_out(sv, fmt: str, extra=()):
    rows = [("value", _scalar_str(sv.value)),
            ("err_bound", _scalar_str(sv.err_bound)),
            ("terms_used", str(sv.terms_used))]
    rows.extend(extra)
    if fmt == "json":
        return json.dumps(dict(rows), indent=2) + "\n"
    if fmt == "csv":
        head = ",".join(k for k, _ in rows)
        body = ",".join(f'"{v}"' if "," in v else v for _, v in rows)
        return f"{head}\n{body}\n"
    return "".join(f"{k} = {v}\n" for k, v in rows)


_VERIFY_COLS = ("id", "q", "z", "lhs_value", "rhs_value", "abs_diff",
                "error_budget", "pass", "terms_used", "note")
_LIMIT_COLS = ("id", "estimate", "target_value", "rel_err", "err_estimate",
               "pass", "mode", "note")


def _report_rows(reports, cols):
    rows = []
    for r in reports:
        d = r.to_json_dict()
        flat = {}
        for c in cols:
            v = d[c]
            if isinstance(v, dict):  # complex: {"re","im"}
                im = v["im"]
                v = f"{v['re']}{'+' if not im.startswith('-') else ''}{im}j"
            elif isinstance(v, bool):
                v = "true" if v else "false"
            elif v is None:
                v = ""
            flat[c] = str(v)
        rows.append(flat)
    return rows


def _reports_out(reports, cols, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    rows = _report_rows(reports, cols)
    if fmt == "csv":
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(
                f'"{row[c]}"' if ("," in row[c] or '"' in row[c]) else row[c]
                for c in cols))
        return "\n".join(lines) + "\n"
    lines = []
    for row in rows:
        status = "PASS" if row["pass"] == "true" else "FAIL"
        detail = " ".join(f"{c}={row[c]}" for c in cols[1:] if row[c] != "")
        lines.append(f"[{status}] {row['id']}: {detail}")
    return "\n".join(lines) + "\n"


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
    fmt = args.format
    if args.what == "qpoch":
        sv = qpoch_inf_direct(_parse_number(args.z, real=False), _parse_number(args.q))
        _emit(_series_value_out(sv, fmt))
        return EXIT_OK
    if args.what == "eta":
        sv = dedekind_eta(_parse_number(args.tau, real=False))
        _emit(_series_value_out(sv, fmt))
        return EXIT_OK
    pt = QPoint(_parse_number(args.q), _parse_number(args.z, real=False))
    spec = args.fspec if args.what == "lambert" else args.gspec
    _parse_spec(spec)
    if args.what == "lambert":
        kern = KernelForm(args.kernel, args.weight)
        sv = identities._with_table(f"std:{spec}", lambda f: lambert_sum(
            f, kern, pt, tol=args.tol, max_terms=args.max_terms))
        _emit(_series_value_out(sv, fmt))
        return EXIT_OK
    # product: reports the log of the weighted product plus its exponential
    sv = identities._with_table(f"std:{spec}", lambda g: weighted_product_log(
        g, pt, form=args.form, weight=args.weight,
        tol=args.tol, max_terms=args.max_terms))
    prod = mp.exp(sv.value)
    _emit(_series_value_out(sv, fmt,
                            extra=(("product", _scalar_str(prod)),)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.id == "all":
        reports = identities.verify_all(tol=args.tol, max_terms=args.max_terms)
    else:
        q = _parse_number(args.q) if args.q is not None else None
        z = _parse_number(args.z, real=False) if args.z is not None else None
        reports = [identities.verify(args.id, q, z, tol=args.tol,
                                     max_terms=args.max_terms)]
    _emit(_reports_out(reports, _VERIFY_COLS, args.format))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_limit(args) -> int:
    tol = _parse_number(args.limit_tol)
    if args.id == "all":
        reports = identities.limit_check_all(tol)
    else:
        reports = [identities.limit_check(args.id, tol)]
    _emit(_reports_out(reports, _LIMIT_COLS, args.format))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        precision = args.precision if args.precision is not None else mp.prec
        args.tol = _parse_number(args.tol) if args.tol is not None else DEFAULT_TOL
        if precision < 53:
            raise DomainError("precision_bits must be >= 53")
        if args.max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        if not args.tol > 0:
            raise DomainError("tol must be positive")
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


if __name__ == "__main__":
    sys.exit(main())
