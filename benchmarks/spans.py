"""In-memory spans and counters around lambertq's layer entry points.

The benchmark never edits the library.  In a traced run it replaces the
module attributes that callers look up at call time (for example
``identities.lambert_sum``, which ``identities`` resolves as a global on
every call) with wrappers that record a span and a few counts, then call the
original.  Spans stay in memory and are reduced when the run ends.

A span's self time is its duration minus the time covered by its direct
child spans.  Calls are single-threaded and nested, so children never
overlap and the covered time is the sum of their durations.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict

# prefix of the stderr line on which a traced CLI process reports its totals
TRACE_MARK = "BENCHTRACE "


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self.undo = []  # callables that restore what patch() replaced

    def call(self, layer, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``layer``."""
        parent = self._stack[-1] if self._stack else -1
        span = [layer, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def patch(self, module, attr, layer, body=None, on_result=None):
        """Replace ``module.attr`` by a spanned call.

        ``body(orig)`` optionally returns the function to run in place of the
        original; ``on_result(res)`` records counts from a successful call.
        """
        orig = getattr(module, attr)
        fn = body(orig) if body else orig

        def wrapper(*args, **kwargs):
            res = self.call(layer, fn, *args, **kwargs)
            if on_result is not None:
                on_result(res)
            return res

        setattr(module, attr, wrapper)
        self.undo.append(lambda: setattr(module, attr, orig))

    def restore(self):
        while self.undo:
            self.undo.pop()()

    def layer_totals(self):
        """{layer: {"calls", "s", "self_s"}} over all spans."""
        covered = defaultdict(float)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (layer, t0, t1, _) in enumerate(self.spans):
            agg = out[layer]
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - covered[i]
        return dict(out)


def install(tracer, identities, qseries, cli=None):
    """Wrap every layer entry point the workloads reach.

    Pass the ``lambertq.cli`` module as ``cli`` in a traced CLI process; the
    CLI binds the kernels under its own names.
    """
    counts = tracer.counts

    def add(name, field):
        def rec(res):
            counts[name] += getattr(res, field)
        return rec

    kernels = ("lambert_sum", "weighted_product_log", "qpoch_inf_direct")
    for mod in (identities, cli) if cli else (identities,):
        for name in kernels:
            if hasattr(mod, name):
                layer = "qseries." + name
                tracer.patch(mod, name, layer, on_result=add(layer + ".terms", "terms_used"))
    tracer.patch(qseries, "log_qpoch_inf", "qseries.log_qpoch_inf",
                 on_result=add("qseries.log_qpoch_inf.terms", "terms_used"))
    tracer.patch(identities, "_build_named", "arith.build",
                 on_result=add("arith.entries_built", "N"))

    def get_table(orig):
        def run(key, N):
            hit = (key, N, qseries.mp.prec) in identities._table_cache
            counts["identities.cache_hits" if hit else "identities.cache_misses"] += 1
            return orig(key, N)
        return run

    tracer.patch(identities, "_get_table", "identities.get_table", body=get_table)

    too_short = qseries.TableTooShortError

    def adaptive(orig):
        def run(eval_fn, *args, **kwargs):
            def attempt(N):
                counts["identities.adaptive_attempts"] += 1
                try:
                    res = eval_fn(N)
                except too_short:
                    counts["identities.wasted_terms"] += N
                    raise
                counts["identities.adaptive_useful"] += 1
                return res
            return orig(attempt, *args, **kwargs)
        return run

    tracer.patch(identities, "_adaptive", "identities.adaptive", body=adaptive)
    for name in ("richardson_extrapolate", "basis_extrapolate"):
        tracer.patch(identities, name, "numerics.extrapolate")
    for name in ("verify", "limit_check"):
        tracer.patch(identities, name, "identities.op")

    # limit records are frozen dataclasses held in the module's cache; swap in
    # copies whose target_fn runs inside a span
    originals = identities.limit_targets()

    def spanned(rec):
        fn = rec.target_fn
        if fn is None:
            return rec
        return dataclasses.replace(
            rec, target_fn=lambda: tracer.call("identities.target", fn))

    def set_records(recs):
        identities._limit_cache[:] = recs
        identities._limit_index.clear()
        identities._limit_index.update({r.id: r for r in recs})

    set_records([spanned(r) for r in originals])
    tracer.undo.append(lambda: set_records(originals))

    if cli is not None:
        tracer.patch(cli, "build_table", "arith.build",
                     on_result=add("arith.entries_built", "N"))
        tracer.patch(cli, "main", "cli.main")


def summary(tracer, identities):
    """Layer totals, counts and the table cache's final size for one process."""
    tabs = list(identities._table_cache.values())
    return {"totals": tracer.layer_totals(), "counts": dict(tracer.counts),
            "cache": {"identities.cache_tables": len(tabs),
                      "identities.cache_entries": sum(t.N for t in tabs)}}
