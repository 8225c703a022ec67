"""Per-layer call tracer, installed from outside the library.

``Tracer.installed()`` wraps psicalc's public functions and methods for
the duration of a ``with`` block.  A module-level function is replaced in
every psicalc module that imported it by name, so internal calls are seen
too; methods are replaced on their class.  Everything is restored on exit.

Layer-level calls become spans ``(id, parent id, request, name, start,
end)`` kept in memory; scalar-level calls (``PolyQ``, ``RatFuncQ``,
``poly_gcd``) only feed counters, because there are millions of them.  A
traced frame's self time is its duration minus that of the traced frames
it called directly, so the self times of one request add up to its traced
total.  Size counters (kernel term multiplications, table cells, useful
gcds, context-cache hits) are computed from each call's inputs and
outputs; the time that takes is charged to no frame.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager

perf = time.perf_counter
TRACE_MARK = "PSICALC_BENCH_TRACE "


def _table_cells(tracer, fn, args, kwargs, ctx):
    # binomials C(n, k) for k <= n plus kernel values F(n, k) for k < n
    bound = getattr(ctx, "bound", None)
    if bound is not None:
        tracer.extra["psi_context.table_cells"] += (bound + 1) ** 2


def _context_hit(tracer, fn, args, kwargs, ctx):
    info = getattr(fn, "cache_info", None)
    if info is None:
        return
    hits = info().hits
    if hits > tracer.cache_hits_seen:
        tracer.extra["psi_context.get_context.hits"] += 1
    tracer.cache_hits_seen = hits


def _useful_gcd(tracer, fn, args, kwargs, g):
    if g.degree > 0:
        tracer.extra["coefficients.poly_gcd.useful"] += 1


def _term_mults(tracer, fn, args, kwargs, out):
    # schoolbook work of one weighted product: every (n, k) term with both
    # coefficients nonzero costs two multiplications plus one per pair
    f, g = args[0], args[1]
    pairs = args[2] if len(args) > 2 else kwargs.get("pairs", ())
    m = out.order
    a, b = f.coeffs, g.coeffs
    nz_b = [k for k in range(m + 1) if b[k]]
    terms = sum(bisect_right(nz_b, m - k) for k in range(m + 1) if a[k])
    tracer.extra["series.chain.term_mults"] += terms * (2 + len(pairs))


_REPORTS = (
    "product_rule_asterisk",
    "product_rule_star",
    "product_rule_ordinary",
    "product_rule_chain",
    "product_rule_boxplus",
    "general_leibniz_report",
    "quotient_rule_report",
    "quotient_q_display_reports",
    "reciprocal_rule_report",
)

# (module, attribute, metric name, recorded as a span, size counter)
TARGETS = (
    ("psicalc.coefficients", "PolyQ.__mul__", "coefficients.PolyQ.mul", False, None),
    ("psicalc.coefficients", "PolyQ.__rmul__", "coefficients.PolyQ.mul", False, None),
    ("psicalc.coefficients", "PolyQ.__divmod__", "coefficients.PolyQ.divmod", False, None),
    ("psicalc.coefficients", "RatFuncQ.__init__", "coefficients.RatFuncQ.init", False, None),
    ("psicalc.coefficients", "poly_gcd", "coefficients.poly_gcd", False, _useful_gcd),
    ("psicalc.psi_context", "PsiContext.from_spec", "psi_context.from_spec", True, _table_cells),
    ("psicalc.psi_context", "get_context", "psi_context.get_context", True, _context_hit),
    ("psicalc.series", "WardSeries.chain", "series.chain", True, _term_mults),
    ("psicalc.series", "WardSeries.__add__", "series.add", True, None),
    ("psicalc.series", "WardSeries.__sub__", "series.add", True, None),
    ("psicalc.series", "WardSeries.divide", "series.divide", True, None),
    ("psicalc.series", "WardSeries.derivative", "series.derivative", True, None),
    ("psicalc.operator_algebra", "binomial_operator",
     "operator_algebra.binomial_operator", True, None),
    ("psicalc.operator_algebra", "OperatorSum.apply", "operator_algebra.OperatorSum.apply",
     True, None),
    ("psicalc.operator_algebra", "ProductChain.apply", "operator_algebra.ProductChain.apply",
     True, None),
    ("psicalc.calculus", "general_leibniz", "calculus.general_leibniz", True, None),
    *(("psicalc.calculus", name, "calculus.reports", True, None) for name in _REPORTS),
    ("psicalc.verify", "run_suites", "verify.run_suites", True, None),
    ("psicalc.verify", "random_series", "verify.random_series", True, None),
    ("psicalc.cli", "main", "cli.main", True, None),
)


class Tracer:
    """Counters and spans of one phase of a benchmark run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)
        self.spans: list = []
        self.request = -1
        self.missing: list[str] = []
        self.cache_hits_seen = 0
        self._stack: list = []

    def _wrap(self, name, fn, span, note):
        calls, self_s, spans, stack = self.calls, self.self_s, self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent is not None else -1
            sid = parent_id
            if span:
                sid = len(spans)
                spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[0]
                if span:
                    spans[sid] = (sid, parent_id, self.request, name, t0, t1)
                if parent is not None:
                    parent[0] += t1 - t0
            if note is not None:
                t2 = perf()
                note(self, fn, args, kwargs, out)
                if parent is not None:
                    parent[0] += perf() - t2
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target whose module is loaded; restore them on exit."""
        undo = []
        try:
            for module_name, attr, name, span, note in TARGETS:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    undo.extend(self._patch_method(module, owner_name, member, name, span, note))
                else:
                    undo.extend(self._patch_function(module, member, name, span, note))
            yield self
        finally:
            for owner, member, original in reversed(undo):
                setattr(owner, member, original)

    def _patch_method(self, module, owner_name, member, name, span, note):
        owner = getattr(module, owner_name, None)
        original = getattr(owner, "__dict__", {}).get(member)
        if original is None:
            self.missing.append(f"{module.__name__}.{owner_name}.{member}")
            return []
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, span, note))
        else:
            wrapped = self._wrap(name, original, span, note)
        setattr(owner, member, wrapped)
        return [(owner, member, original)]

    def _patch_function(self, module, member, name, span, note):
        original = getattr(module, member, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{member}")
            return []
        if note is _context_hit and hasattr(original, "cache_info"):
            self.cache_hits_seen = original.cache_info().hits
        wrapped = self._wrap(name, original, span, note)
        undo = []
        for m in list(sys.modules.values()):
            mod_name = getattr(m, "__name__", "")
            if mod_name != "psicalc" and not mod_name.startswith("psicalc."):
                continue
            if getattr(m, member, None) is original:
                setattr(m, member, wrapped)
                undo.append((m, member, original))
        return undo

    # -- transport between processes -------------------------------------

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
            "spans": self.spans,
            "missing": self.missing,
        }

    def merge(self, data: dict, request: int) -> None:
        """Add a child process's counters; its spans join this tracer's."""
        for key, value in data["calls"].items():
            self.calls[key] += value
        for key, value in data["self_s"].items():
            self.self_s[key] += value
        for key, value in data["extra"].items():
            self.extra[key] += value
        offset = len(self.spans)
        for sid, parent, _, name, t0, t1 in data["spans"]:
            self.spans.append(
                (sid + offset, parent + offset if parent >= 0 else -1, request, name, t0, t1)
            )
        for item in data["missing"]:
            if item not in self.missing:
                self.missing.append(item)
