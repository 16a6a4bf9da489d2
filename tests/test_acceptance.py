"""Acceptance suite: seven criteria, one pass/fail line each."""

import hashlib
import math
import time

import pytest
from mpmath import mp, mpf, mpc

from lambertq import cli
from lambertq import identities as idmod
from lambertq.arith import FunctionId, build_table, primes
from lambertq.cli import main as cli_main
from lambertq.numerics import euler_gamma, glaisher, set_precision, zeta
from lambertq.qseries import (
    E_q,
    E_q_series,
    dedekind_eta,
    e_q,
    e_q_series,
    q_binomial_check,
    q_gamma,
    triple_product,
    weierstrass_delta,
)


@pytest.fixture(autouse=True)
def _fixed_precision():
    set_precision(128)
    yield
    set_precision(128)


def criterion(capsys, num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    # suspend capture so exactly one line per criterion is always visible
    # in the run log
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {status} - {desc}{tail}", flush=True)
    assert ok, f"criterion {num} failed {tail}"


def test_criterion_1_exact_algebra(capsys):
    t0 = time.time()
    reports = [idmod.verify(i) for i in ("EQ2.6", "EQ2.12", "EQ2.12-real")]
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports) and elapsed < 5
    criterion(capsys, 1, "exact-algebra suite (gcd-sum and Jordan identities, n<=200)",
              ok, f"{elapsed:.2f}s")


def test_criterion_2_rk_oracle(capsys):
    t0 = time.time()
    M = 200
    # exact lattice enumeration: iterated convolution of the r_1 sequence
    r1 = [0] * (M + 1)
    r1[0] = 1
    a = 1
    while a * a <= M:
        r1[a * a] = 2
        a += 1
    rk = r1[:]
    ok = True
    order = 1
    for k, name in ((2, "r2"), (4, "r4"), (8, "r8")):
        while order < k:
            nxt = [0] * (M + 1)
            for i in range(M + 1):
                if rk[i]:
                    for j in range(M + 1 - i):
                        nxt[i + j] += rk[i] * r1[j]
            rk = nxt
            order += 1
        tab = build_table(FunctionId.parse(name), M)
        ok = ok and all(tab[n] == rk[n] for n in range(1, M + 1))
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    criterion(capsys, 2, "r_2/r_4/r_8 divisor identities vs lattice enumeration",
              ok, f"{elapsed:.2f}s")


def test_criterion_3_identity_verification(capsys):
    t0 = time.time()
    reports = idmod.verify_all()
    elapsed = time.time() - t0
    bad = [r.id for r in reports if not r.passed]
    ok = len(reports) >= 40 and not bad and elapsed < 120
    criterion(capsys, 3, "full identity catalog on the default (q,z) grid", ok,
              f"{len(reports)} reports, {len(bad)} failures, {elapsed:.1f}s")


def test_criterion_4_classical_sums(capsys):
    ok = abs(zeta(2) ** 2 / zeta(4) - mpf(5) / 2) < mpf("1e-20")
    detail = []

    # certified premise: d(m) <= 9 m^(1/4) (per-prime-power maxima multiply
    # to < 9; primes >= 17 contribute factors <= 1), so d(n^2) <= d(n)^2
    # <= 81 sqrt(n) and both tails are below 162/sqrt(N)
    N = 200000
    d = build_table(FunctionId.parse("divisor_d"), N)
    dsq = build_table(FunctionId.parse("divisor_d_sq"), N)
    ok = ok and all(d[n] <= 9 * n**0.25 for n in range(1, N + 1))
    tail = mpf(162) / mp.sqrt(N)
    s_dsq = mpf(math.fsum(dsq[n] / float(n) ** 2 for n in range(1, N + 1)))
    s_dd = mpf(math.fsum(d[n] ** 2 / float(n) ** 2 for n in range(1, N + 1)))
    ok = ok and abs(s_dsq - 5 * mp.pi**2 / 12) <= tail
    ok = ok and abs(s_dd - 5 * mp.pi**4 / 72) <= tail
    detail.append(f"d-sum gaps {float(abs(s_dsq - 5*mp.pi**2/12)):.1e}/"
                  f"{float(abs(s_dd - 5*mp.pi**4/72)):.1e} <= tail {float(tail):.2f}")

    # sum Lambda(n)/n^2 over n <= 10^6 plus the integral tail estimate 1/N
    # (prime powers carry Lambda = log p; double rounding is far below 1e-6)
    NL = 10**6
    total = 0.0
    for p in primes(NL):
        lp = math.log(p)
        pk = p
        while pk <= NL:
            total += lp / (pk * pk)
            pk *= p
    target = mp.log(glaisher() ** 12 / (2 * mp.pi)) - euler_gamma()
    gap = abs(mpf(total) + mpf(1) / NL - target)
    ok = ok and gap < mpf("1e-6")
    detail.append(f"Lambda-sum gap {float(gap):.1e}")
    criterion(capsys, 4, "classical Dirichlet-sum evaluations", ok, "; ".join(detail))


# sha256 of `verify all --format json` and `limit all --format json` at 128
# bits; an intended output change updates them and says why in CHANGES.md
_VERIFY_ALL_SHA256 = "f1a552b1af95aea3d2748f62cf47ee3c7112fbd49ece6441127e9c48093bf64b"
_LIMIT_ALL_SHA256 = "8f38a8772b7ae6b7b2a9ba02f07b97050e9ab7711a5a7905ac68fc1191bdf3e2"


def test_criterion_5_limit_suite(capsys):
    t0 = time.time()
    reports = idmod.limit_check_all()
    elapsed = time.time() - t0
    out = cli._reports_out(reports, cli._LIMIT_COLS, "json")
    digest = hashlib.sha256(out.encode()).hexdigest()
    bad = [(r.id, r.mode, str(r.rel_err)) for r in reports if not r.passed]
    named = {"EQ3.1a", "EQ3.2a", "EQ3.5a", "EQ3.7a", "EQ3.9a", "EQ3.13-1",
             "EQ3.17a-k0.5", "EQ3.19a-k1", "EQ3.21a-k1", "EQ3.23a",
             "EQ3.25a", "EQ3.27-1-s-1", "EQ3.29-1", "EQ3.30-1",
             "EQ3.31-1-v6", "EQ3.32-1-v4", "EQ3.33-1"}
    ok = (named <= {r.id for r in reports} and not bad and elapsed < 600
          and digest == _LIMIT_ALL_SHA256)
    criterion(capsys, 5, "q->1 limit suite (extrapolated targets and divergence "
                 "verdicts)", ok,
              f"{len(reports)} records, failures {bad}, {elapsed:.1f}s, sha256 {digest[:12]}")


def test_criterion_6_qseries_primitives(capsys):
    t0 = time.time()
    ok = True
    for q in (mpf("0.1"), mpf("0.3"), mpf("0.5"), mpf("0.7")):
        lhs, rhs = q_binomial_check(mpf("0.3"), mpf("0.4"), q)
        ok = ok and abs(lhs.value - rhs.value) <= lhs.err_bound + rhs.err_bound
        tl, tr = triple_product(mpc("0.6", "0.8"), q)
        ok = ok and abs(tl.value - tr.value) <= tl.err_bound + tr.err_bound
        for w in (1, 2):
            g = q_gamma(w, q)
            ok = ok and abs(g.value - 1) <= g.err_bound
        a, b = e_q(mpf("0.5"), q), e_q_series(mpf("0.5"), q)
        ok = ok and abs(a.value - b.value) <= a.err_bound + b.err_bound
        a, b = E_q(mpf(2), q), E_q_series(mpf(2), q)
        ok = ok and abs(a.value - b.value) <= a.err_bound + b.err_bound
    delta = weierstrass_delta(mpc(0, 1))
    eta = dedekind_eta(mpc(0, 1))
    target = (2 * mp.pi) ** 12 * eta.value ** 24
    rel = 24 * eta.err_bound / abs(eta.value)
    ok = ok and abs(delta.value - target) <= delta.err_bound \
        + abs(target) * mp.expm1(rel)
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    criterion(capsys, 6, "q-series primitive suite (q-binomial, triple product, "
                 "Gamma_q, e_q/E_q, eta/Delta)", ok, f"{elapsed:.2f}s")


def test_criterion_7_determinism(capsys):
    outs = []
    for _ in range(2):
        code = cli_main(["verify", "all", "--format", "json"])
        captured = capsys.readouterr()
        outs.append(captured.out.encode())
        assert code == 0
    digest = hashlib.sha256(outs[0]).hexdigest()
    ok = outs[0] == outs[1] and len(outs[0]) > 0 and digest == _VERIFY_ALL_SHA256
    criterion(capsys, 7, "byte-identical repeated `verify all --format json` runs",
              ok, f"{len(outs[0])} bytes, sha256 {digest[:12]}")
