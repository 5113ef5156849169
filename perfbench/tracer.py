"""Span tracer that wraps spcdm's public functions from outside the program.

Tracer.install() rebinds each wrapped function in every loaded spcdm
module that holds it (and each wrapped method on its class), so calls
the solver makes internally go through the wrappers too; uninstall()
puts the originals back.  Each call records a span (name, start, end,
parent) in memory; nothing numeric passes through the tracer, so a
traced run produces the same objective trace as an untraced one.

A layer's self time is its spans' durations minus the part covered by
their child spans.  A function the program no longer has, or no longer
calls, reads 0 calls and 0 s.  Single-threaded use only: the parent of a
span is whatever span is open on the one call stack.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, span name): module-level functions
FUNCTIONS = (
    ("spcdm.problem", "load_svmlight", "problem.load_svmlight"),
    ("spcdm.smoothing", "prepare_problem", "smoothing.prepare_problem"),
    ("spcdm.smoothing", "make_loss", "smoothing.make_loss"),
    ("spcdm.smoothing", "loss_constants", "smoothing.loss_constants"),
    ("spcdm.eso", "dual_weights", "eso.dual_weights"),
    ("spcdm.eso", "primal_weights", "eso.primal_weights"),
    ("spcdm.sampling", "draw", "sampling.draw"),
    ("spcdm.solver", "prox_step", "solver.prox_step"),
    ("spcdm.solver", "run", "solver.run"),
)

# (module, class, attribute, span name): methods and classmethods
METHODS = (
    ("spcdm.problem", "ProblemData", "from_coo", "problem.from_coo"),
    ("spcdm.smoothing", "SmoothState", "partial_gradient", "smoothing.partial_gradient"),
    ("spcdm.smoothing", "SmoothState", "apply_update", "smoothing.apply_update"),
    ("spcdm.smoothing", "SmoothState", "recompute", "smoothing.recompute"),
    ("spcdm.smoothing", "SmoothState", "value", "smoothing.value"),
)

# the accumulator band of SmoothState.needs_recompute
LSE_ACC_LO, LSE_ACC_HI = 1e-6, 1e6


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start ns, end ns, parent index)
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._restore: list = []

    def _wrap(self, name: str, fn, pre=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if pre is not None:
                pre(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)

        return traced

    def _on_apply_update(self, state, i, h):
        if h != 0.0:
            ptr = state.loss.pd.col_ptr
            self.counts["nonzero_steps"] += 1
            self.counts["nnz_touched"] += int(ptr[i + 1] - ptr[i])

    def _on_recompute(self, state):
        if state.staleness >= state.loss.pd.n:
            reason = "staleness"
        elif state.loss.kind != "l1" and not LSE_ACC_LO <= state.lse_acc <= LSE_ACC_HI:
            reason = "accumulator"
        else:
            reason = "trace"
        self.counts["recompute_" + reason] += 1

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "spcdm" or k.startswith("spcdm.")]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))
        pre = {"apply_update": self._on_apply_update, "recompute": self._on_recompute}
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                continue
            if isinstance(orig, classmethod):
                wrapped = classmethod(self._wrap(name, orig.__func__))
            else:
                wrapped = self._wrap(name, orig, pre.get(attr))
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _span_array(self) -> np.ndarray:
        return np.array(self.spans, dtype=np.int64).reshape(-1, 4)

    def self_times(self, within: str | None = None) -> tuple[dict, dict]:
        """(self seconds, calls) per span name.  With ``within``, only the
        spans inside the first span of that name (that span included)."""
        s = self._span_array()
        nid, t0, t1, parent = s.T
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(s))
        own = dur - child
        keep = np.ones(len(s), dtype=bool)
        if within is not None:
            root = np.flatnonzero(nid == self.names.index(within)) if within in self.names else []
            if len(root) == 0:
                return {}, {}
            r = int(root[0])
            keep = (t0 >= t0[r]) & (t1 <= t1[r])
        secs = np.bincount(nid[keep], weights=own[keep], minlength=len(self.names)) / 1e9
        calls = np.bincount(nid[keep], minlength=len(self.names))
        return (
            {n: float(secs[k]) for k, n in enumerate(self.names)},
            {n: int(calls[k]) for k, n in enumerate(self.names)},
        )

    def solve_shares(self) -> dict:
        """Each layer's share of the self time inside the solver.run span."""
        secs, _ = self.self_times(within="solver.run")
        total = sum(secs.values())
        return {n: v / total for n, v in secs.items() if total > 0}

    def layer_metrics(self, report) -> dict:
        """The benchmark's per-layer metrics for one traced repeat."""
        secs, calls = self.self_times()
        g = lambda n: secs.get(n, 0.0)  # noqa: E731
        c = lambda n: calls.get(n, 0)  # noqa: E731
        applied = c("smoothing.apply_update")
        return {
            "problem.load_svmlight_s": g("problem.load_svmlight"),
            "problem.from_coo_s": g("problem.from_coo"),
            "smoothing.prepare_problem_s": g("smoothing.prepare_problem"),
            "smoothing.make_loss_s": g("smoothing.make_loss"),
            "smoothing.loss_constants_s": g("smoothing.loss_constants"),
            "eso.weights_s": g("eso.dual_weights") + g("eso.primal_weights"),
            "eso.beta_prime": float(report.config["beta_prime"]),
            "sampling.draw_s": g("sampling.draw"),
            "sampling.draw_calls": c("sampling.draw"),
            "smoothing.partial_gradient_s": g("smoothing.partial_gradient"),
            "smoothing.partial_gradient_calls": c("smoothing.partial_gradient"),
            "solver.prox_step_s": g("solver.prox_step"),
            "solver.prox_step_calls": c("solver.prox_step"),
            "smoothing.apply_update_s": g("smoothing.apply_update"),
            "smoothing.apply_update_calls": applied,
            "smoothing.nonzero_steps": self.counts["nonzero_steps"],
            "smoothing.useful_step_ratio": (
                self.counts["nonzero_steps"] / applied if applied else 0.0
            ),
            "smoothing.nnz_touched": self.counts["nnz_touched"],
            "smoothing.recompute_s": g("smoothing.recompute"),
            "smoothing.recompute_calls": c("smoothing.recompute"),
            "smoothing.recompute_trace": self.counts["recompute_trace"],
            "smoothing.recompute_staleness": self.counts["recompute_staleness"],
            "smoothing.recompute_accumulator": self.counts["recompute_accumulator"],
            "smoothing.value_s": g("smoothing.value"),
            "solver.run_self_s": g("solver.run"),
        }

    def save(self, path) -> None:
        """Write the spans: names, and rows of (name id, start ns, end ns, parent)."""
        np.savez(path, names=np.array(self.names), spans=self._span_array())
