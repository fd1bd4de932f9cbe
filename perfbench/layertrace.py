"""Per-layer counts and busy time for a traced benchmark run.

The layers are sgslab's modules.  `Tracer.install` wraps their public
functions from outside: every module attribute that is bound to a wrapped
function is replaced, so names imported with `from .x import f` are covered
too, and `FunctionDescriptor.__call__` is replaced on the class.  sgslab's
source is not modified.  A layer's time is inclusive; where a layer calls
itself (media inside media, `run_experiment` inside a sweep) only the
outermost call adds time.  Self time is a call's duration minus the time of
the wrapped calls made directly inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []          # (layer, start, end, parent layer) of coarse layers
        self._stack = []         # [time of wrapped children, layer] per open call
        self._depth = {}         # open calls per group
        self._patches = []
        self._potentials = set()
        self._distinct = 0

    # -- bookkeeping -----------------------------------------------------------

    def begin_round(self):
        """Distinct spectrum_min potentials are counted per round."""
        self._distinct += len(self._potentials)
        self._potentials = set()

    def distinct_potentials(self) -> int:
        return self._distinct + len(self._potentials)

    def _wrap(self, layer, fn, group=None, span=False, after=None):
        depth = self._depth.setdefault(group or layer, [0])
        stack, spans = self._stack, self.spans
        calls, busy, self_time = self.calls, self.busy, self.self_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            depth[0] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                depth[0] -= 1
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                calls[layer] += 1
                if not depth[0]:
                    busy[layer] += dt
                self_time[layer] += dt - frame[0]
                if span:
                    spans.append((layer, t0, t1, stack[-1][1] if stack else None))
                if after is not None:
                    after(args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, modules, original, wrapper):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    # -- installation ------------------------------------------------------------

    def install(self):
        import sgslab
        from sgslab import bloch, criteria, experiment, media, oracle, variational

        modules = [sgslab, bloch, criteria, experiment, media, oracle, variational]

        counts = self.counts

        def points(args, result):
            counts["media.eval.points"] += np.size(args[1])

        def potential(args, result):
            self._potentials.add(args[0])

        def iterations(args, result):
            if result is not None:
                counts["variational.solve.iterations"] += result.iterations

        def output(args, result):
            counts["experiment.output_bytes"] += sum(Path(p).stat().st_size for p in result)

        cls = media.FunctionDescriptor
        call = cls.__dict__["__call__"]
        self._patches.append((cls, "__call__", call))
        cls.__call__ = self._wrap("media.eval", call, group="media", after=points)
        self._replace(modules, media.eval_medium,
                      self._wrap("media.eval", media.eval_medium, group="media"))

        plan = [
            (bloch, "monodromy", "bloch.monodromy", {}),
            (bloch, "spectrum_min", "bloch.spectrum_min", {"span": True, "after": potential}),
            (bloch, "bloch_modes", "bloch.bloch_modes", {"span": True}),
            (variational, "solve_ground_state", "variational.solve",
             {"span": True, "after": iterations}),
            (variational, "J_eval", "variational.J_eval", {}),
            (variational, "grad_J", "variational.grad_J", {}),
            (variational, "nehari_project", "variational.nehari_project", {}),
            (variational, "minimize", "variational.lbfgsb", {"span": True}),
            (oracle, "ansatz_upper_bound", "oracle.ansatz_upper_bound", {"span": True}),
            (experiment, "parse_config", "experiment.parse_config", {"span": True}),
            (experiment, "run_experiment", "experiment.run_experiment", {"span": True}),
            (experiment, "emit_report", "experiment.emit_report",
             {"span": True, "after": output}),
        ]
        for mod, name, layer, kw in plan:
            fn = getattr(mod, name)
            self._replace(modules, fn, self._wrap(layer, fn, **kw))
        for name in ("energy_verdict", "nonexistence_check", "shifted_state_criterion",
                     "asymptotic_expansion", "bloch_integral_criterion", "boundary_condition",
                     "scaled_interface_check", "large_jump_beta0", "dislocation_report"):
            fn = getattr(criteria, name)
            self._replace(modules, fn, self._wrap("criteria", fn, span=True))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- results -------------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, per round of the workload."""
        c, b = self.calls, self.busy
        sm_calls = c["bloch.spectrum_min"]
        iters = self.counts["variational.solve.iterations"]
        per = {
            "media.eval.calls": (c["media.eval"], "count"),
            "media.eval.points": (self.counts["media.eval.points"], "count"),
            "media.eval.s": (b["media.eval"], "s"),
            "bloch.monodromy.calls": (c["bloch.monodromy"], "count"),
            "bloch.monodromy.s": (b["bloch.monodromy"], "s"),
            "bloch.spectrum_min.calls": (sm_calls, "count"),
            "bloch.spectrum_min.s": (b["bloch.spectrum_min"], "s"),
            "bloch.bloch_modes.calls": (c["bloch.bloch_modes"], "count"),
            "bloch.bloch_modes.s": (b["bloch.bloch_modes"], "s"),
            "variational.solve.calls": (c["variational.solve"], "count"),
            "variational.solve.s": (b["variational.solve"], "s"),
            "variational.solve.self_s": (self.self_time["variational.solve"], "s"),
            "variational.solve.iterations": (iters, "count"),
            "variational.J_eval.calls": (c["variational.J_eval"], "count"),
            "variational.grad_J.calls": (c["variational.grad_J"], "count"),
            "variational.nehari_project.calls": (c["variational.nehari_project"], "count"),
            "variational.lbfgsb.calls": (c["variational.lbfgsb"], "count"),
            "variational.lbfgsb.s": (b["variational.lbfgsb"], "s"),
            "criteria.calls": (c["criteria"], "count"),
            "criteria.s": (b["criteria"], "s"),
            "oracle.ansatz_upper_bound.calls": (c["oracle.ansatz_upper_bound"], "count"),
            "oracle.ansatz_upper_bound.s": (b["oracle.ansatz_upper_bound"], "s"),
            "experiment.parse_config.s": (b["experiment.parse_config"], "s"),
            "experiment.run_experiment.s": (b["experiment.run_experiment"], "s"),
            "experiment.emit_report.s": (b["experiment.emit_report"], "s"),
            "experiment.output_bytes": (self.counts["experiment.output_bytes"], "bytes"),
        }
        out = {name: {"value": value / rounds, "unit": unit} for name, (value, unit) in per.items()}
        # ratios are not divided by the round count
        out["bloch.spectrum_min.distinct_ratio"] = {
            "value": self.distinct_potentials() / sm_calls if sm_calls else 0.0,
            "unit": "ratio",
        }
        out["variational.s_per_iteration"] = {
            "value": b["variational.solve"] / iters if iters else 0.0,
            "unit": "s",
        }
        return out
