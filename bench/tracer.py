"""Layer spans recorded from outside qverify.

``Tracer.install`` replaces every public function of each qverify module
with a timing wrapper, in every qverify module namespace that holds it:
the modules bind each other's names at import (``from .qcore import
qfrac``), so replacing only the defining module would miss inner calls.
The registered evaluators (``IdentityCase.lhs`` / ``rhs``) are wrapped in
place, as ``check`` reaches them through the case object.

Spans are folded into totals as they close (a sweep makes millions), and
the totals are reset per sweep cell and attached to the cell's result, so
cells run by pool workers bring their spans back with their reports.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("qcore", "series", "multisum", "integrals", "identities", "cli")

# scalar helpers that run millions of times per sweep; a span on each
# would cost more than the work it measures
HOT_HELPERS = frozenset({"ipow", "q_power_index", "terminating_order"})

CELL_KEY = "_trace"


class Tracer:
    """Span totals and work counters for the sweep cell in progress."""

    def __init__(self):
        self._stack = []  # open spans: [start, time covered by child spans]
        self._reset_cell()

    def _reset_cell(self):
        self.spans = {}  # "layer.function" -> [calls, total_s, self_s]
        self.counts = {"factors": 0, "terms": 0, "panels": 0, "nodes": 0}
        self.attempts = []  # [sample_s, check_s, verdict or None]

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, key) -> float:
        dur = time.perf_counter() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]
        return dur

    def wrap(self, key, fn, on_exit=None):
        """fn with a span named ``key``.

        on_exit(result, duration) runs when the span closes; result is None
        when fn raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = None
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = self._exit(frame, key)
                if on_exit is not None:
                    on_exit(result, dur)

        return traced

    # -- counters ------------------------------------------------------------

    def _count_factors(self, result, dur):
        if result is not None:
            self.counts["factors"] += result.terms_used

    def _count_terms(self, result, dur):
        if result is not None:
            parts = result if isinstance(result, tuple) else (result,)
            self.counts["terms"] += sum(p.terms_used for p in parts)

    def _count_panels(self, result, dur):
        if result is not None:
            self.counts["panels"] += result.panels_used
            self.counts["nodes"] += result.panels_used + 1

    def _sample_done(self, result, dur):
        # a draw that raised (sampling exhausted) is an attempt without a verdict
        self.attempts.append([dur, 0.0, None])

    def _check_done(self, report, dur):
        self.attempts[-1][1] = dur
        self.attempts[-1][2] = None if report is None else report.verdict

    def _cell(self, fn):
        """run_sweep_cell timed whole, with the cell's spans attached to its result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._reset_cell()
            frame = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                wall = self._exit(frame, "cli.run_sweep_cell")
            out[CELL_KEY] = {
                "wall": wall,
                "spans": self.spans,
                "counts": self.counts,
                "attempts": self.attempts,
            }
            return out

        return traced

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer; qverify must be imported."""
        import qverify.identities as identities

        special = {
            "qcore.qpoch_inf": self._count_factors,
            "series.eval_phi": self._count_terms,
            "series.eval_psi": self._count_terms,
            "series.eval_bilateral_split": self._count_terms,
            "series.eval_kshifted_sum": self._count_terms,
            "integrals.integrate_aw": self._count_panels,
            "identities.sample": self._sample_done,
            "identities.check": self._check_done,
        }
        namespaces = [m for n, m in sys.modules.items() if n == "qverify" or n.startswith("qverify.")]
        for layer in LAYERS:
            module = sys.modules[f"qverify.{layer}"]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or name in HOT_HELPERS or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                key = f"{layer}.{name}"
                if key == "cli.run_sweep_cell":
                    wrapped = self._cell(fn)
                else:
                    wrapped = self.wrap(key, fn, special.get(key))
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, attr, wrapped)
        for case in identities.registry():
            # frozen dataclass: the benchmark's process owns this registry copy
            object.__setattr__(case, "lhs", self.wrap("identities.lhs", case.lhs))
            object.__setattr__(case, "rhs", self.wrap("identities.rhs", case.rhs))


def merge_cells(cells) -> dict:
    """Sum the per-cell payloads of one sweep into layer and identity totals."""
    layer_self = dict.fromkeys(LAYERS, 0.0)
    spans = {}
    counts = {}
    per_id = {}
    attempts = useful = 0
    wasted_s = wall = 0.0
    for case_id, payload in cells:
        wall += payload["wall"]
        tot = per_id.setdefault(case_id, [0.0, 0])
        tot[0] += payload["wall"]
        tot[1] += 1
        for key, (calls, total, own) in payload["spans"].items():
            layer_self[key.split(".", 1)[0]] += own
            rec = spans.setdefault(key, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        for key, n in payload["counts"].items():
            counts[key] = counts.get(key, 0) + n
        for sample_s, check_s, verdict in payload["attempts"]:
            attempts += 1
            if verdict in ("pass", "fail"):
                useful += 1
            else:
                wasted_s += sample_s + check_s
    return {
        "cell_wall_s": wall,
        "layer_self_s": layer_self,
        "spans": spans,
        "counts": counts,
        "per_id": per_id,
        "attempts": attempts,
        "useful_attempts": useful,
        "wasted_s": wasted_s,
    }
