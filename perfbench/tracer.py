"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces each traced function at the name its caller
looks up (a module attribute or a class attribute) with a wrapper that
records a span: name, start, end, parent span and op id. Spans stay in
memory; ``layer_metrics`` derives every per-layer figure from them, with
self time computed as a span's duration minus the durations of its direct
children. ``TSeries`` multiplication is counted, not spanned: it runs
hundreds of thousands of times per pass.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from equigen import expansion, groebner, lifting, polycore, series

# (owner, attribute, span name). A function imported into several modules is
# wrapped at each of them, since each caller looks it up in its own module.
SPANS = [
    (groebner, "buchberger", "groebner.buchberger"),
    (groebner, "normal_form", "groebner.normal_form"),
    (groebner, "big_f", "expansion.gen"),
    (groebner, "jac_bar", "expansion.gen"),
    (groebner, "f_coeff", "expansion.gen"),
    (groebner, "theta_cap", "expansion.gen"),
    (expansion, "big_f", "expansion.gen"),
    (expansion, "f_bar", "expansion.gen"),
    (expansion, "jac_bar", "expansion.gen"),
    (polycore, "det_bareiss", "polycore.det"),
    (polycore.MPoly, "evaluate", "polycore.evaluate"),
    (series, "reparam_solve", "series.reparam_solve"),
    (series, "substitution_check", "series.substitution"),
    (series, "order_bound_audit", "series.audit"),
    (series, "pm_identity_check", "series.pm"),
    (series, "sigma_coeff", "expansion.sigma"),
    (lifting, "residual", "lifting.residual"),
    (lifting, "lift_point_step", "lifting.step"),
    (lifting, "dual_kernel_basis", "lifting.kernel"),
]

COUNTED = [
    (series.TSeries, "__mul__", "series.tseries_mul_calls"),
    (series.TSeries, "__rmul__", "series.tseries_mul_calls"),
]

# Per-layer metric names with their units, in report order.
LAYER_UNITS = {
    "groebner.buchberger_self_s": "s",
    "groebner.normal_form_s": "s",
    "groebner.normal_form_calls": "count",
    "groebner.pairs": "count",
    "groebner.useful_ratio": "ratio",
    "groebner.max_basis": "count",
    "groebner.max_coeff_bits": "bits",
    "polycore.det_s": "s",
    "expansion.gen_s": "s",
    "expansion.gen_self_s": "s",
    "expansion.terms": "count",
    "lifting.residual_s": "s",
    "lifting.residual_calls": "count",
    "lifting.step_s": "s",
    "lifting.audit_residual_s": "s",
    "lifting.kernel_s": "s",
    "series.pm_s": "s",
    "series.reparam_solve_s": "s",
    "series.substitution_s": "s",
    "series.audit_s": "s",
    "series.pm_inconclusive": "count",
    "expansion.sigma_s": "s",
    "polycore.evaluate_s": "s",
    "polycore.evaluate_calls": "count",
    "series.tseries_mul_calls": "count",
    "trace.overhead_s": "s",
}


def _coeff_bits(p) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in p.terms.values()), default=0)


class Tracer:
    """Span recorder. Spans are tuples (name, start, end, parent, op); the
    parent is an index into ``spans`` or -1, and ``op`` is the op id set by
    ``begin_op``."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, on_call=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _hooks(self, span_name: str):
        counts, maxima = self.counts, self.maxima
        if span_name == "groebner.buchberger":
            def on_result(res):
                counts["groebner.pairs"] += res.pairs_processed
            return None, on_result
        if span_name == "groebner.normal_form":
            def on_call(args):
                maxima["groebner.max_basis"] = max(maxima["groebner.max_basis"], len(args[1]))

            def on_result(rem):
                if rem.terms:
                    counts["groebner.nonzero_remainders"] += 1
                    bits = _coeff_bits(rem)
                    if bits > maxima["groebner.max_coeff_bits"]:
                        maxima["groebner.max_coeff_bits"] = bits
            return on_call, on_result
        if span_name == "expansion.gen":
            def on_result(p):
                counts["expansion.terms"] += len(p.terms)
            return None, on_result
        if span_name == "series.pm":
            def on_result(verdict):
                if verdict is series.TriState.INCONCLUSIVE:
                    counts["series.pm_inconclusive"] += 1
            return None, on_result
        return None, None

    def install(self) -> None:
        for owner, attr, name in SPANS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, *self._hooks(name)))
        for owner, attr, name in COUNTED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._count(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures per traced pass (maxima and ratios as seen)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)      # time inside any span of the name
        self_time = defaultdict(float)
        calls = Counter()
        audit_residual = 0.0
        for idx, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self_time[name] += dur - child[idx]
            calls[name] += 1
            if not self._has_ancestor(idx, name):
                total[name] += dur
            if name == "lifting.residual" and (parent < 0 or spans[parent][0] != "lifting.step"):
                audit_residual += dur

        c = self.counts
        nf_calls = calls["groebner.normal_form"]
        per_pass = {
            "groebner.buchberger_self_s": self_time["groebner.buchberger"],
            "groebner.normal_form_s": total["groebner.normal_form"],
            "groebner.normal_form_calls": nf_calls,
            "groebner.pairs": c["groebner.pairs"],
            "polycore.det_s": total["polycore.det"],
            "expansion.gen_s": total["expansion.gen"],
            "expansion.gen_self_s": self_time["expansion.gen"],
            "expansion.terms": c["expansion.terms"],
            "lifting.residual_s": total["lifting.residual"],
            "lifting.residual_calls": calls["lifting.residual"],
            "lifting.step_s": total["lifting.step"],
            "lifting.audit_residual_s": audit_residual,
            "lifting.kernel_s": total["lifting.kernel"],
            "series.pm_s": total["series.pm"],
            "series.reparam_solve_s": total["series.reparam_solve"],
            "series.substitution_s": total["series.substitution"],
            "series.audit_s": total["series.audit"],
            "series.pm_inconclusive": c["series.pm_inconclusive"],
            "expansion.sigma_s": total["expansion.sigma"],
            "polycore.evaluate_s": total["polycore.evaluate"],
            "polycore.evaluate_calls": calls["polycore.evaluate"],
            "series.tseries_mul_calls": c["series.tseries_mul_calls"],
        }
        out = {k: v / passes for k, v in per_pass.items()}
        out["groebner.useful_ratio"] = (c["groebner.nonzero_remainders"] / nf_calls
                                        if nf_calls else 0.0)
        out["groebner.max_basis"] = self.maxima["groebner.max_basis"]
        out["groebner.max_coeff_bits"] = self.maxima["groebner.max_coeff_bits"]
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """One JSON line per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")
