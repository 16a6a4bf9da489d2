"""Seeded op streams for the three workloads.

Every workload is a closed loop: one client, the next op issued only after
the previous one returned.  A stream yields rounds of fixed composition
(strata), and the seed picks the concrete inputs inside each stratum.  A
timed run issues whole rounds and stops where the ops' summed latency comes
closest to the run length.  Fixed composition keeps the cost mix of a run
the same from seed to seed, which keeps run-to-run spread small; the seed
still decides every input the library receives.
"""

from __future__ import annotations

import random
from itertools import count

# the library's default grid, identities.DEFAULT_GRID_Q and DEFAULT_GRID_Z
GRID_Q = ("0.1", "0.3", "0.5", "0.7")
GRID_Z = ("1", "2", "0.5", "1+0.5j")

# limit-near1 strata, grouped by the cost and the table memory of each
# record's limit_check at the commit that introduced this benchmark, measured
# one record per fresh process on a 2-core x86 host.  A round takes one
# record per slot of LIMIT_ROUND, so every round carries the same cost mix
# (25-35 s there: a 30 s run is one whole round) and the same table
# footprint (one +30 MB and one +16-19 MB record; the rest add under 7 MB).
# The "mid" slot is the round's median op: four slots cost less and four
# more, so op_p50_s reads one of two records of like cost.
LIMIT_STRATA = {
    # under 1 s, tables under +3 MB; most divergence verdicts escape at once
    "light": ("EQ3.12b-lim", "EQ3.24-lim", "EQ3.26-lim", "EQ3.34-lim",
              "EQ3.6-lim", "EQ3.8-lim", "EQ3.29-1", "EQ3.1a", "EQ3.31-1-v6",
              "EQ3.2a", "EQ3.43a-k1", "EQ3.10-lim"),
    # 1-3 s, under +3 MB
    "medium": ("EQ3.12-lim", "EQ3.33-1", "EQ3.3a", "EQ3.30-1", "EQ3.32-1-v4"),
    # 1.5-4 s, +6-7 MB (Fraction-valued tables)
    "fraction": ("EQ3.13-1", "EQ3.14-lim", "EQ3.16-lim", "EQ3.19a-k1", "EQ3.9a"),
    # 5-7.5 s, under +4 MB; inside a round, where tables built by earlier
    # records are reused, these two take 2.6-3.6 s ...
    "mid": ("EQ3.25a", "EQ3.5a"),
    # ... and these three 3-7 s
    "heavy": ("EQ3.23a", "EQ3.43a-k2", "EQ3.43a-k3"),
    # 5.5-7 s, +16-19 MB
    "large": ("EQ3.21a-k1", "EQ3.15a", "EQ3.27-1-s-1"),
    # 5.5-6.7 s, +30 MB (mpf-valued tables up to 65536 entries)
    "big": ("EQ3.17a-k0.5", "EQ3.18a-k-0.5", "EQ3.7a"),
}
LIMIT_ROUND = ("light", "light", "medium", "fraction", "mid", "big", "large",
               "heavy", "heavy")

# cli-near1 inputs.  A round is built of cost bands so that op_p50_s and
# op_tail_s (p75) fall about a quarter and three quarters of the way through
# one band of ops of like cost, never on the edge between two bands, where
# the seed's picks would move them.  That band is of q = 0.99 ops, whose own
# evaluation is most of their time.  Rounds are short, so that a run holds
# several and its quantiles do not hang on one round's picks.  Times are
# those of one op on a 2-core x86 host at the commit that introduced this
# benchmark.
# Quick band, 0.15-0.30 s, mostly cold start (interpreter start and import):
# Lambert sums and q-Pochhammers at q = 0.9 and sieves up to 2^13.
CLI_LAMBERT_F = ("mobius", "liouville", "one", "mobius_abs", "chi1",
                 "neg_one_pow_omega", "totient", "divisor_d", "sigma:1",
                 "mangoldt", "jordan:2")
CLI_Z = ("1", "2", "1+0.5j")
CLI_QPOCH_Z = ("0.5", "-0.5", "2", "0.25", "0.3+0.2j")
CLI_SIEVE_SPECS = ("mobius", "totient", "divisor_d", "sigma:1", "jordan:2",
                   "r4", "ramanujan:6", "liouville", "mangoldt", "r2")
# Lower band, 0.35-0.5 s: a 2^16 sieve of a spec that stays cheap at that
# size, and a sieve of a non-integer sigma/jordan at 2^11.
CLI_SIEVE_SPECS_LARGE = ("mobius", "totient", "divisor_d", "liouville",
                         "ramanujan:6", "r4")
CLI_SIEVE_SPECS_FRACTIONAL = ("sigma:0.5", "jordan:0.5", "sigma:-0.5")
# Near-1 inputs: Lambert sums with weight 1/n of growth-exponent-0 functions
# at z = 1 and q-Pochhammers at real z away from 0.  At q = 0.99, the middle
# band where p50 and p75 fall, they take 0.42-0.66 s; at q = 0.999, in the
# heavy band, 2.8-3.3 s, far inside the per-op deadline; chi1 (2.2 s) and
# neg_one_pow_omega or the plain weight (up to 4.9 s) would widen that band.
CLI_LAMBERT_F_NEAR1 = ("mobius", "liouville", "one", "mobius_abs")
CLI_QPOCH_Z_NEAR1 = ("0.5", "-0.5", "2")
# Heavy band, above 0.95 s, well clear of the middle band: weighted
# products of form B at z = 0.5 (0.96-1.37 s), identity checks at z = 0.5 of
# the records whose check takes 0.8 s or more in a fresh process after the
# imports, the two limit records below (1.06-1.19 s) and the q = 0.999 ops.
# The verify-grid workload covers the rest of the catalog.
CLI_PRODUCT_G = ("totient", "one", "liouville", "divisor_d")
CLI_VERIFY_IDS = ("COR-2.7", "COR-2.8", "EQ3.12", "EQ3.17-k1", "EQ3.17-k2",
                  "EQ3.17-k3", "EQ3.18-k1", "EQ3.18-k2", "EQ3.18-k3",
                  "EQ3.20-k2", "EQ3.22-k3", "EQ3.23", "EQ3.24", "EQ3.25",
                  "EQ3.26", "EQ3.27-s-1", "EQ3.27-s0.5", "EQ3.28-s-1",
                  "EQ3.28-s0.5", "EQ3.29", "EQ3.30", "EQ3.32-v4", "EQ3.32-v6",
                  "EQ3.36", "EQ3.39", "EQ3.40", "REM-2.10", "REM-2.9",
                  "THM-2.3")
# q->1 records whose limit_check extrapolates and evaluates an Euler-product
# target, so `limit <id>` reaches the numerics layer
CLI_LIMIT_IDS = ("EQ3.30-1", "EQ3.32-1-v4")


def _verify_points(identities):
    """(record, q, z) points of the catalog over the default grid, by cell."""
    cells = {}
    for q in GRID_Q:
        for z in GRID_Z:
            zv = complex(z)
            recs = [r.id for r in identities.catalog()
                    if r.kind != "exact"
                    and (r.z_fixed is None or complex(r.z_fixed) == zv)]
            cells[(q, z)] = recs
    return cells


def verify_grid(seed, identities):
    """Rounds of ("verify", id, q, z) ops, one point from each grid cell.

    Each cell's records are drawn without replacement in a seeded order, so a
    run covers most of the catalog's grid points and every grid q and z
    appears in every round of 16 ops.
    """
    rng = random.Random(f"verify-grid:{seed}")
    cells = _verify_points(identities)
    order = sorted(cells)
    rng.shuffle(order)
    decks = {c: [] for c in order}
    while True:
        ops = []
        for cell in order:
            if not decks[cell]:
                decks[cell] = list(cells[cell])
                rng.shuffle(decks[cell])
            ops.append(("verify", decks[cell].pop(), cell[0], cell[1]))
        yield ops


def limit_near1(seed, identities):
    """Rounds of ("limit", id) ops, one record per slot of LIMIT_ROUND.

    Every limit record sits in exactly one stratum.
    """
    rng = random.Random(f"limit-near1:{seed}")
    known = sorted(r.id for r in identities.limit_targets())
    if sorted(i for ids in LIMIT_STRATA.values() for i in ids) != known:
        raise ValueError("LIMIT_STRATA does not hold each limit record once")
    while True:
        picked = []
        for stratum in LIMIT_ROUND:
            picked.append(rng.choice([i for i in LIMIT_STRATA[stratum]
                                      if i not in picked]))
        yield [("limit", i) for i in picked]


def _cli_lambert(rng, q, z):
    if q == "0.9":
        f, weight = rng.choice(CLI_LAMBERT_F), rng.choice(("over_n", "plain"))
    else:
        f, weight = rng.choice(CLI_LAMBERT_F_NEAR1), "over_n"
    return ["eval", "lambert", "--f", f, "--weight", weight,
            "--kernel", rng.choice(("minus", "plus")), "--q", q, "--z", z]


def _cli_qpoch(q, z):
    return ["eval", "qpoch", "--z", z, "--q", q]


def _cli_product(rng):
    return ["eval", "product", "--g", rng.choice(CLI_PRODUCT_G), "--form", "B",
            "--weight", rng.choice(("over_n", "plain")),
            "--q", "0.9", "--z", "0.5"]


def _cli_verify(rng):
    return ["verify", rng.choice(CLI_VERIFY_IDS), "--q", "0.9", "--z", "0.5"]


def _cli_sieve(rng, specs, log2n):
    return ["sieve", rng.choice(specs), str(1 << rng.choice(log2n))]


def _cli_limit(rng):
    return ["limit", rng.choice(CLI_LIMIT_IDS)]


def cli_near1(seed, identities):
    """Rounds of CLI_ROUND_OPS ("cli", argv) ops, each a cold CLI invocation.

    A round of 25 holds seven quick ops (a Lambert sum at q = 0.9 at each z
    of CLI_Z, two q-Pochhammers at q = 0.9, two sieves of 2^10 to 2^13); two
    lower ops (a 2^16 sieve, which sets the round's peak memory, and a
    non-integer sigma or jordan sieve); 12 middle ops at q = 0.99 (six
    Lambert sums and six q-Pochhammers), whose 4th and 10th are the round's
    median and p75; and four heavy ops (a weighted product and an identity
    check at q = 0.9 and z = 0.5, a limit check, and a Lambert sum in even
    rounds or a q-Pochhammer in odd ones at q = 0.999), each slower than any
    middle op.  The seed picks every function, record, spec, size and z
    inside its band.
    """
    rng = random.Random(f"cli-near1:{seed}")
    known = {r.id for r in identities.catalog()}
    if not known.issuperset(CLI_VERIFY_IDS):
        raise ValueError("CLI_VERIFY_IDS names a record the catalog lacks")
    for n in count():
        quick = [_cli_lambert(rng, "0.9", z) for z in CLI_Z]
        quick += [_cli_qpoch("0.9", rng.choice(CLI_QPOCH_Z)) for _ in range(2)]
        quick += [_cli_sieve(rng, CLI_SIEVE_SPECS, range(10, 14)) for _ in range(2)]
        lower = [_cli_sieve(rng, CLI_SIEVE_SPECS_LARGE, (16,)),
                 _cli_sieve(rng, CLI_SIEVE_SPECS_FRACTIONAL, (11,))]
        middle = [_cli_lambert(rng, "0.99", "1") for _ in range(6)]
        middle += [_cli_qpoch("0.99", rng.choice(CLI_QPOCH_Z_NEAR1))
                   for _ in range(6)]
        near1 = (_cli_lambert(rng, "0.999", "1") if n % 2 == 0
                 else _cli_qpoch("0.999", rng.choice(CLI_QPOCH_Z_NEAR1)))
        heavy = [_cli_product(rng), _cli_verify(rng), _cli_limit(rng), near1]
        yield [("cli", argv) for argv in quick + lower + middle + heavy]


CLI_ROUND_OPS = 25

# op_tail_s percentile per workload, fixed so that runs with more or fewer
# ops report the same percentile.  At the commit that introduced this
# benchmark a 40 s run holds about 1400 verify-grid ops and 50-75 cli-near1
# ops: p95 leaves some 70 ops beyond it (p99 would leave about 14 and flip
# with the op count) and p75 leaves 12-18.  A 30 s limit-near1 run holds
# nine ops, which leave no percentile with ten beyond it, so it reports the
# median.
TAIL_PERCENTILE = {"verify-grid": 95, "limit-near1": 50, "cli-near1": 75}

STREAMS = {"verify-grid": verify_grid, "limit-near1": limit_near1,
           "cli-near1": cli_near1}

# ops in one traced run, whole rounds: a fixed count, so that per-layer counts
# repeat exactly for a given seed
TRACE_OPS = {"verify-grid": 8 * len(GRID_Q) * len(GRID_Z),
             "limit-near1": len(LIMIT_ROUND), "cli-near1": 2 * CLI_ROUND_OPS}


def mix_properties(workload, ops, identities):
    """Shares of the input properties each workload's claims depend on."""
    n = len(ops)
    if n == 0:
        return {}

    def shares(keys):
        out = {}
        for k in keys:
            out[k] = out.get(k, 0) + 1
        return {k: round(v / n, 4) for k, v in sorted(out.items())}

    if workload == "verify-grid":
        return {"q": shares(op[2] for op in ops),
                "z": shares(op[3] for op in ops),
                "z_kind": shares("complex" if "j" in op[3] else "rational_real"
                                 for op in ops)}
    if workload == "limit-near1":
        verdict = {r.id: r.verdict for r in identities.limit_targets()}
        return {"kind": shares("divergence" if verdict[op[1]] else "convergent"
                               for op in ops)}
    return {"type": shares(" ".join(op[1][:2]) if op[1][0] == "eval"
                           else op[1][0] for op in ops),
            "q": shares(_cli_q(op[1]) for op in ops)}


def _cli_q(argv):
    return argv[argv.index("--q") + 1] if "--q" in argv else "none"
