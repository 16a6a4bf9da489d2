"""The library names that the benchmark's traced run wraps.

``benchmarks/spans.py`` replaces these module attributes at run time with
wrappers that record spans and counts, and it relies on their call
signatures and on the table cache's key.  A rename or a changed signature
would break ``benchmarks/run.py --trace 1`` without failing any other test.
"""

import dataclasses
import inspect

import pytest
from mpmath import mp

from lambertq import arith, cli, identities, qseries
from lambertq.numerics import ConvergenceError, set_precision


@pytest.fixture(autouse=True)
def _fixed_precision():
    set_precision(128)
    yield
    set_precision(128)


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_wrapped_names_exist():
    wrapped = {
        identities: ("lambert_sum", "weighted_product_log", "_build_named",
                     "_get_table", "_adaptive", "richardson_extrapolate",
                     "basis_extrapolate", "verify", "limit_check", "limit_targets"),
        qseries: ("log_qpoch_inf",),
        cli: ("lambert_sum", "weighted_product_log", "qpoch_inf_direct",
              "build_table", "main"),
    }
    for mod, names in wrapped.items():
        for name in names:
            assert callable(getattr(mod, name, None)), f"{mod.__name__}.{name}"
    assert isinstance(identities._table_cache, dict)
    assert isinstance(identities._limit_cache, list)
    assert isinstance(identities._limit_index, dict)
    assert issubclass(qseries.TableTooShortError, Exception)


def test_wrapped_signatures():
    assert _params(arith.build_table) == ["fid", "N"]
    assert cli.build_table is arith.build_table
    assert _params(identities._build_named) == ["key", "N"]
    assert _params(identities._get_table) == ["key", "N"]
    assert _params(identities._adaptive)[:3] == ["eval_fn", "start", "cap"]
    assert _params(identities.richardson_extrapolate) == ["xs", "ys"]
    assert _params(identities.basis_extrapolate) == ["xs", "ys", "basis"]


def test_table_hooks_behave_as_the_wrappers_expect():
    assert identities._build_named("std:mobius", 16).N == 16
    assert cli.build_table("mobius", 4).N == 4
    # one table per (key, precision), rebuilt at the next power of two
    identities._table_cache.pop(("std:mobius", mp.prec), None)
    short = identities._get_table("std:mobius", 16)
    assert identities._table_cache[("std:mobius", mp.prec)] is short
    assert short.N == 512
    long = identities._get_table("std:mobius", 600)
    assert identities._table_cache[("std:mobius", mp.prec)] is long
    assert long.N == 1024 and identities._get_table("std:mobius", 16) is long

    seen = []

    def eval_fn(N):
        seen.append(N)
        if len(seen) == 1:
            raise qseries.TableTooShortError("short", needed=40)
        return N

    assert identities._adaptive(eval_fn, start=8, cap=64) == 40
    assert seen == [8, 40]

    def past_cap(N):
        seen.append(N)
        raise qseries.TableTooShortError("short", needed=65)

    seen.clear()
    with pytest.raises(ConvergenceError, match=r"needs N\*=65 > table cap 64"):
        identities._adaptive(past_cap, start=8, cap=64)
    assert seen == [8]

    rec = next(r for r in identities.limit_targets() if r.target_fn is not None)
    assert dataclasses.replace(rec, target_fn=rec.target_fn) == rec


def test_limit_registry_reads_the_cache_rewritten_in_place():
    # spans.py swaps the records by rewriting _limit_cache and _limit_index
    cache, index = identities._limit_cache, identities._limit_index
    originals = identities.limit_targets()
    swapped = [dataclasses.replace(r, description="swapped") for r in originals]

    def put(recs):
        cache[:] = recs
        index.clear()
        index.update({r.id: r for r in recs})

    put(swapped)
    try:
        assert identities.limit_targets() == swapped
        assert identities.limit_lookup(swapped[0].id) is swapped[0]
    finally:
        put(originals)
    assert identities._limit_cache is cache and identities._limit_index is index
    assert identities.limit_targets() == originals

