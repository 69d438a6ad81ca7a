"""Spans around the program's layers, recorded from outside the program.

``Tracer.installed()`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent) and restores
the originals on exit.  The package imports with ``from .matrix import
inverse`` and the like, so each function is replaced under every name that
any ``algebragen`` module bound it to.  Spans stay in memory; ``summary``
derives per-layer totals, self times and counts from them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("algebra", "matrix", "resolvent", "wordspan", "modp", "primes", "instances", "cli")

# Layers whose time the per-layer metrics report, as "<module>.<function>".
TIMED = (
    "matrix.inverse", "matrix.rank_info", "matrix.in_range", "matrix.range_basis",
    "matrix.null_space", "matrix.subspace_intersect", "matrix.kron", "matrix.realign",
    "resolvent.span_matrix", "resolvent.sum_kron", "resolvent.scale_bound",
    "wordspan.word_span", "wordspan.express",
    "modp.dimension_mod_p", "modp.compute_B", "modp.sample_prime",
    "primes.is_prime", "instances.load_instance", "cli.main",
)
FACTORIZATIONS = ("matrix.inverse", "matrix.rank_info", "matrix.range_basis", "matrix.null_space")

COUNTS = (
    "matrix.factorizations", "resolvent.flagged", "resolvent.rank_short",
    "wordspan.words_tried", "wordspan.words_kept", "wordspan.kept_ratio",
    "modp.primes_tried", "modp.singular_skips",
    "primes.is_prime.calls", "primes.candidates_per_prime",
)


def metric_names() -> list[str]:
    """Every metric ``summary`` returns."""
    names = [f"{t}.{suffix}" for t in TIMED for suffix in ("s", "self_s")]
    return names + list(COUNTS)


def span_gap(report):
    """sigma_r / sigma_(r+1) at the rank cut, or None where there is none."""
    sv, r = report.singular_values, report.rank
    if not sv or not 0 < r < len(sv) or sv[r] == 0:
        return None
    return sv[r - 1] / sv[r]


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.op = None  # the workload op running now, for expected ranks
        self.reports = []  # (op label, SpanMatrixReport diagnostics)
        self.plans = []  # (op label, PrimePlan)
        self.words_kept = 0
        self.restored = None  # set when the wrappers come off
        self._patches = []

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn):
        observe = {
            "resolvent.span_matrix": self._on_report,
            "modp.certified_dimension": self._on_plan,
            "wordspan.word_span": self._on_words,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _on_report(self, args, report):
        op = self.op
        want = op.ranks.get(id(args[0]), op.rank) if op is not None else None
        self.reports.append({
            "op": op.label if op is not None else None,
            "rank": report.rank,
            "expected": want,
            "tol": report.tol,
            "ill_conditioned": report.ill_conditioned,
            "gap": span_gap(report),
        })

    def _on_words(self, args, word_basis):
        self.words_kept += word_basis.dim

    def _on_plan(self, args, result):
        self.plans.append((self.op.label if self.op is not None else None, result[1]))

    # -- patching ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of LAYERS; restore them on exit."""
        modules = [importlib.import_module(f"algebragen.{m}") for m in LAYERS]
        holders = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "algebragen" or name.startswith("algebragen."))]
        try:
            for short, mod in zip(LAYERS, modules):
                for name, fn in list(vars(mod).items()):
                    if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                        continue
                    wrapper = self._wrap(f"{short}.{name}", fn)
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is fn:
                                setattr(holder, attr, wrapper)
                                self._patches.append((holder, attr, fn))
            yield self
        finally:
            for holder, attr, fn in reversed(self._patches):
                setattr(holder, attr, fn)
            self.restored = all(getattr(h, a) is fn for h, a, fn in self._patches)
            self._patches.clear()

    # -- summary ----------------------------------------------------------

    def per_root(self) -> list[dict]:
        """Time per span name under each top-level span, in order."""
        out = []
        for name, start, end, parent in self.spans:
            if parent < 0:
                out.append({})
            out[-1][name] = out[-1].get(name, 0.0) + end - start
        return out

    def summary(self) -> dict:
        """Per-layer totals, self times and counts over the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        under = [frozenset()] * len(spans)  # names of the ancestors of each span
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                under[i] = under[parent] | {spans[parent][0]}
        total, self_time, calls = {}, {}, {}
        for i, (name, start, end, _) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for name in TIMED:
            out[f"{name}.s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = self_time.get(name, 0.0)

        def count(name, ancestor):
            return sum(1 for i, s in enumerate(spans) if s[0] == name and ancestor in under[i])

        algebra_calls = sum(1 for i, s in enumerate(spans)
                            if s[0].startswith("algebra.") and not any(a.startswith("algebra.") for a in under[i]))
        factorizations = sum(1 for i, s in enumerate(spans)
                             if s[0] in FACTORIZATIONS and any(a.startswith("algebra.") for a in under[i]))
        out["matrix.factorizations"] = factorizations / algebra_calls if algebra_calls else 0.0
        out["resolvent.flagged"] = sum(1 for r in self.reports if r["ill_conditioned"])
        out["resolvent.rank_short"] = sum(1 for r in self.reports
                                          if r["expected"] is not None and r["rank"] < r["expected"])
        tried = count("matrix.vec", "wordspan.word_span")
        kept = self.words_kept
        out["wordspan.words_tried"] = tried
        out["wordspan.words_kept"] = kept
        out["wordspan.kept_ratio"] = kept / tried if tried else 0.0
        outcomes = [o for _, plan in self.plans for o in plan.outcomes]
        out["modp.primes_tried"] = len(outcomes)
        out["modp.singular_skips"] = sum(1 for o in outcomes if o.singular)
        out["primes.is_prime.calls"] = calls.get("primes.is_prime", 0)
        samples = calls.get("modp.sample_prime", 0)
        out["primes.candidates_per_prime"] = (
            count("primes.is_prime", "modp.sample_prime") / samples if samples else 0.0)
        return out
