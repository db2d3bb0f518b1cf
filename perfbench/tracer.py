"""Outside-in layer trace for the qwk benchmark.

``install`` rebinds each measured public function of qwk where its caller
looks it up (for example ``qwk.qkdv.bracket``, which ``nested_bracket``
calls, and ``qwk.correlators.nested_bracket``, which ``correlator_tau0``
calls), so the package itself is untouched.  A wrapped call records a span
``[name, start, end, parent, key]``; spans stay in memory until the run ends
and are then written as JSON lines.  Self time is a span's duration minus
the time its child spans cover.  Work done by the trace itself (counting
monomials, recording prefixes) runs inside spans named ``trace``, so it is
charged to no layer.  The benchmark worker wraps each key in a ``key`` span;
the self time of the ``key`` spans plus the pass time outside any ``key``
span is the unwrapped remainder, so that layer self times, the remainder and
the trace's own bookkeeping add up to the pass ``wall_s`` only when every
span sits inside its parent.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

TRACE = "trace"
KEY = "key"
LAYERS = ("qkdv.hamiltonian_density", "qkdv.bracket", "qkdv.nested_bracket",
          "symbols.eval_string_point", "special.ehrhart_convolution",
          "special.power_of_sum", "correlators.correlator",
          "hurwitz.hurwitz_correlator", "hurwitz.one_part_number",
          "hurwitz.factorization_count", "algebra.multipoly_mul")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.key: Optional[int] = None        # canonical index of the key being run
        self.spans: List[list] = []           # [name, start, end, parent, key]
        self.counts: Counter = Counter()      # call counts and layer statistics
        self.distinct: Dict[str, set] = defaultdict(set)
        self.prefix: Optional[list] = None    # [d_list, g, brackets done] in nested_bracket
        self._stack: List[int] = []

    def span(self, name: str, fn: Callable, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span; ``before(args)``/``after(args, result)`` gather statistics."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                book = [TRACE, clock(), 0.0, stack[-1] if stack else -1, self.key]
                spans.append(book)
                before(args)
                book[2] = clock()
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.key]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                book = [TRACE, clock(), 0.0, stack[-1] if stack else -1, self.key]
                spans.append(book)
                after(args, result)
                book[2] = clock()
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` with a bare call counter, for calls too many to span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # statistics hooks

    def _density_done(self, args, result):
        self.counts["qkdv.hamiltonian_density.monomials"] += sum(
            len(t.coeff.terms) for t in result.terms)

    def _nested_start(self, args):
        d_list, g = tuple(args[0]), args[1]
        # calls are already one per (d_list, g), memoized in qwk; distinct d_list
        # over calls is the share left if one evaluation served every g
        self.distinct["qkdv.nested_bracket"].add(d_list)
        self.prefix = [d_list, g, 0]

    def _bracket_done(self, args, result):
        d_list, g, done = self.prefix
        self.prefix[2] = done + 1
        # the i-th bracket of nested_bracket(d_list, g) extends d_list[:i+1] by
        # one insertion, under the grade budget g
        self.distinct["qkdv.bracket"].add((d_list[:done + 2], g))
        out = nonreal = 0
        for t in result.terms:
            coeffs = t.coeff.terms.values()
            out += len(coeffs)
            nonreal += sum(1 for c in coeffs if c.im)
        self.counts["qkdv.bracket.monomials_out"] += out
        self.counts["algebra.nonreal"] += nonreal

    def _string_point_done(self, args, result):
        total = multilinear = 0
        for t in args[0].terms:
            variables = t.coeff.variables
            total += len(t.coeff.terms)
            slots = {f"a{i}" for i in range(1, t.m + 1)}
            if slots <= set(variables):
                target = tuple(1 if v in slots else 0 for v in variables)
                multilinear += target in t.coeff.terms
        self.counts["symbols.eval_string_point.monomials"] += total
        self.counts["symbols.eval_string_point.multilinear"] += multilinear

    # ------------------------------------------------------------------

    def install(self, caller_globals: dict) -> None:
        """Rebind the measured functions in qwk and in the benchmark worker's globals."""
        from qwk import algebra, correlators, qkdv

        qkdv.hamiltonian_density = self.span(
            "qkdv.hamiltonian_density", qkdv.hamiltonian_density, after=self._density_done)
        qkdv.bracket = self.span("qkdv.bracket", qkdv.bracket, after=self._bracket_done)
        correlators.nested_bracket = self.span(
            "qkdv.nested_bracket", correlators.nested_bracket, before=self._nested_start)
        qkdv.eval_string_point = self.span(
            "symbols.eval_string_point", qkdv.eval_string_point, after=self._string_point_done)
        qkdv.ehrhart_convolution = self.span(
            "special.ehrhart_convolution", qkdv.ehrhart_convolution)
        qkdv.power_of_sum = self.span("special.power_of_sum", qkdv.power_of_sum)
        correlators.correlator_tau0 = self.count(
            "correlators.correlator_tau0.calls", correlators.correlator_tau0)
        for name, layer in (("correlator", "correlators.correlator"),
                            ("hurwitz_correlator", "hurwitz.hurwitz_correlator"),
                            ("one_part_number", "hurwitz.one_part_number"),
                            ("factorization_count", "hurwitz.factorization_count")):
            caller_globals[name] = self.span(layer, caller_globals[name])
        mul = self.span("algebra.multipoly_mul", algebra.MultiPoly.__mul__)
        algebra.MultiPoly.__mul__ = algebra.MultiPoly.__rmul__ = mul
        gmul = self.count("algebra.gaussrat_mul.calls", algebra.GaussRat.__mul__)
        algebra.GaussRat.__mul__ = algebra.GaussRat.__rmul__ = gmul

    def summary(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics: calls and self time per span name, plus the statistics."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        in_keys = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            if name == KEY:
                in_keys += end - start
        out: Dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)

        def frac(num, den):
            return num / den if den else 0.0

        c = self.counts
        out["qkdv.nested_bracket.distinct_frac"] = frac(
            len(self.distinct["qkdv.nested_bracket"]), calls["qkdv.nested_bracket"])
        out["qkdv.bracket.distinct_prefix_frac"] = frac(
            len(self.distinct["qkdv.bracket"]), calls["qkdv.bracket"])
        out["symbols.eval_string_point.multilinear_frac"] = frac(
            c["symbols.eval_string_point.multilinear"], c["symbols.eval_string_point.monomials"])
        out["algebra.nonreal_frac"] = frac(c["algebra.nonreal"], c["qkdv.bracket.monomials_out"])
        out["unwrapped.self_s"] = self_s[KEY] + (wall_s - in_keys)
        out["trace.bookkeeping_s"] = self_s[TRACE]
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, key) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "span": i, "parent": parent,
                                     "key": key, "name": name, "start": start,
                                     "end": end}) + "\n")
