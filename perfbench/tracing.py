"""Per-layer spans wrapped around mkvcontrol from outside the package.

``instrument`` replaces each traced function by a timing wrapper
wherever the function object is bound: as a module global (internal
calls in ``dmap`` and ``enkf`` go through those), in every copy made
by ``from .x import name`` in another module, as a class attribute for
methods, and as an instance attribute for a problem's model maps.  On
exit every binding is put back.

Spans are aggregated per name as they close: call count, total time
and self time (total minus the time covered by child spans).  Keeping
every span would cost memory in proportion to the roughly one million
calls of one traced solve.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "mkvcontrol"

# span name -> (module, attribute path) of every function it covers
SPANS = {
    "stats.moments": [("stats", "moments")],
    "stats.cov_solve": [("stats", "EmpiricalMoments.solve"),
                        ("stats", "EmpiricalMoments.inv")],
    "stats.cross_cov": [("stats", "cross_cov")],
    "stats.map_moments": [("stats", "map_moments")],
    "enkf.forward_drift": [("enkf", "forward_drift")],
    "enkf.reverse_drift": [("enkf", "reverse_drift")],
    "enkf.g_bar_kf": [("enkf", "g_bar_kf")],
    "enkf.g_tilde_kf": [("enkf", "g_tilde_kf")],
    "enkf.terminal_update": [("enkf", "terminal_update")],
    "enkf.gain_from_moments": [("enkf", "gain_from_moments")],
    "dmap.build_operator": [("dmap", "build_operator")],
    "dmap.build_kernel": [("dmap", "build_kernel")],
    "dmap.sinkhorn": [("dmap", "sinkhorn")],
    "dmap.membership_weights": [("dmap", "membership_weights")],
    "solver.forward_sweep": [("solver", "forward_sweep")],
    "solver.reverse_sweep": [("solver", "reverse_sweep_enkf"),
                             ("solver", "reverse_sweep_splitstep")],
    "solver.simulate_controlled": [("solver", "simulate_controlled")],
    "solver.estimate_cost": [("solver", "estimate_cost")],
    "problem.apply_control": [("problem", "apply_control")],
    "problem.cost_terms": [("problem", "running_cost"),
                           ("problem", "terminal_cost"),
                           ("problem", "control_cost")],
    "problem.sigma_sq": [("problem", "ControlProblem.sigma_sq")],
    "problem.weight_solve": [("problem", "ControlProblem.solve_s"),
                             ("problem", "ControlProblem.solve_v"),
                             ("problem", "ControlProblem.solve_r")],
    "horizon.stationary_solve": [("horizon", "stationary_solve")],
    "horizon.g_tilde_kf_discounted": [("horizon", "g_tilde_kf_discounted")],
}

# ControlProblem instance attributes holding the scenario's model maps
MAP_ATTRS = ("drift", "gain", "noise", "running_map", "terminal_map",
             "div_sigma")
MAP_SPAN = "scenarios.map"

# Per-layer metric -> (unit, workload it is largest on, end-to-end metric
# it should move there).  A workload of None means the metric describes
# the tracing itself.
LAYER_METRICS = {
    "stats.moments.calls": ("count", "lq_enkf", "solve_s"),
    "stats.moments.self_s": ("s", "lq_enkf", "solve_s"),
    "stats.cov_solve.calls": ("count", "lq_enkf", "solve_s"),
    "stats.cov_solve.self_s": ("s", "lq_enkf", "solve_s"),
    "stats.cross_cov.self_s": ("s", "lq_enkf", "solve_s"),
    "stats.map_moments.self_s": ("s", "lq_enkf", "solve_s"),
    "enkf.forward_drift.calls": ("count", "lq_enkf", "solve_s"),
    "enkf.forward_drift.self_s": ("s", "lq_enkf", "solve_s"),
    "enkf.reverse_drift.calls": ("count", "lq_enkf", "solve_s"),
    "enkf.reverse_drift.self_s": ("s", "lq_enkf", "solve_s"),
    "enkf.g_bar_kf.self_s": ("s", "lq_enkf", "solve_s"),
    "enkf.g_tilde_kf.self_s": ("s", "lq_enkf", "solve_s"),
    "enkf.terminal_update.self_s": ("s", "lq_enkf", "solve_s"),
    "enkf.gain_from_moments.calls": ("count", "pendulum_policy", "solve_s"),
    "enkf.gain_from_moments.self_s": ("s", "pendulum_policy", "solve_s"),
    "dmap.build_operator.calls": ("count", "langevin_dmap", "solve_s"),
    "dmap.build_operator.self_s": ("s", "langevin_dmap", "solve_s"),
    "dmap.build_kernel.calls": ("count", "langevin_dmap", "solve_s"),
    "dmap.build_kernel.self_s": ("s", "langevin_dmap", "solve_s"),
    "dmap.sinkhorn.calls": ("count", "langevin_dmap", "solve_s"),
    "dmap.sinkhorn.self_s": ("s", "langevin_dmap", "solve_s"),
    "dmap.sinkhorn.iters": ("count", "langevin_dmap", "solve_s"),
    "dmap.membership_weights.calls": ("count", "langevin_dmap", "solve_s"),
    "dmap.membership_weights.self_s": ("s", "langevin_dmap", "solve_s"),
    "dmap.kernel_entries": ("count", "langevin_dmap", "solve_s"),
    "solver.forward_sweep.self_s": ("s", "lq_enkf", "solve_s"),
    "solver.forward_sweep.total_s": ("s", "lq_enkf", "solve_s"),
    "solver.reverse_sweep.self_s": ("s", "lq_enkf", "solve_s"),
    "solver.reverse_sweep.total_s": ("s", "lq_enkf", "solve_s"),
    "solver.simulate_controlled.self_s": ("s", "pendulum_policy",
                                          "policy_eval_s"),
    "solver.estimate_cost.self_s": ("s", "pendulum_policy", "policy_eval_s"),
    "problem.apply_control.calls": ("count", "pendulum_policy",
                                    "policy_eval_s"),
    "problem.apply_control.self_s": ("s", "pendulum_policy", "policy_eval_s"),
    "problem.cost_terms.calls": ("count", "pendulum_policy", "policy_eval_s"),
    "problem.cost_terms.self_s": ("s", "pendulum_policy", "policy_eval_s"),
    "problem.sigma_sq.calls": ("count", "lq_enkf", "solve_s"),
    "problem.sigma_sq.self_s": ("s", "lq_enkf", "solve_s"),
    "problem.weight_solve.calls": ("count", "pendulum_policy",
                                   "policy_eval_s"),
    "problem.weight_solve.self_s": ("s", "pendulum_policy", "policy_eval_s"),
    "scenarios.map_calls": ("count", "lq_enkf", "solve_s"),
    "scenarios.map_s": ("s", "lq_enkf", "solve_s"),
    "horizon.stationary_solve.self_s": ("s", "lq_stationary", "solve_s"),
    "horizon.g_tilde_kf_discounted.self_s": ("s", "lq_stationary", "solve_s"),
    "horizon.forward_steps": ("count", "lq_stationary", "solve_s"),
    "horizon.reverse_steps": ("count", "lq_stationary", "solve_s"),
    "trace.overhead_frac": ("ratio", None, None),
}


class Tracer:
    """Aggregating span timer.

    ``total_s`` is meaningful only for spans that never nest inside a
    span of the same name; ``self_s`` is exact under any nesting.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self._child_s = []   # per open span: time covered by its children

    def wrap(self, name, fn, count=None):
        """Return ``fn`` timed as span ``name``.  ``count(counters, *args,
        **kwargs)`` may add work counts before the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self.counters, *args, **kwargs)
            self._child_s.append(0.0)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - child

        return traced

    def layer_metrics(self, forward_steps=0, reverse_steps=0,
                      overhead_frac=0.0):
        """Every metric of ``LAYER_METRICS`` from the spans recorded."""
        values = {}
        for span in SPANS:
            values[f"{span}.calls"] = self.calls[span]
            values[f"{span}.self_s"] = self.self_s[span]
            values[f"{span}.total_s"] = self.total_s[span]
        values.update(self.counters)
        values["scenarios.map_calls"] = self.calls[MAP_SPAN]
        values["scenarios.map_s"] = self.self_s[MAP_SPAN]
        values["horizon.forward_steps"] = forward_steps
        values["horizon.reverse_steps"] = reverse_steps
        values["trace.overhead_frac"] = overhead_frac
        return {name: values.get(name, 0) for name in LAYER_METRICS}


def _counting_sinkhorn(original, counters):
    """Sinkhorn that always keeps its residual history, to count scaling
    updates; callers still get the result shape they asked for."""
    signature = inspect.signature(original)

    @functools.wraps(original)
    def sinkhorn(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        wanted = bound.arguments.get("return_history", False)
        bound.arguments["return_history"] = True
        v, history = original(*bound.args, **bound.kwargs)
        counters["dmap.sinkhorn.iters"] += len(history) - 1
        return (v, history) if wanted else v

    return sinkhorn


def _count_kernel(counters, anchors, *args, **kwargs):
    m = np.atleast_2d(np.asarray(anchors)).shape[1]
    counters["dmap.kernel_entries"] += m * m


def _count_query(counters, op, *args, **kwargs):
    counters["dmap.kernel_entries"] += op.size


COUNTS = {"dmap.build_kernel": _count_kernel,
          "dmap.membership_weights": _count_query}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def instrument(tracer, problems=()):
    """Install span wrappers for the duration of the ``with`` block."""
    undo = []   # (owner, attribute, original), restored in reverse order
    modules = _package_modules()
    try:
        for span, targets in SPANS.items():
            for module_name, path in targets:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                cls_name, _, attr = path.rpartition(".")
                if cls_name:
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, tracer.wrap(span, original))
                    continue
                original = getattr(module, attr)
                inner = original
                if span == "dmap.sinkhorn":
                    inner = _counting_sinkhorn(original, tracer.counters)
                wrapper = tracer.wrap(span, inner, COUNTS.get(span))
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, name, original))
                            setattr(mod, name, wrapper)
        for p in problems:
            for attr in MAP_ATTRS:
                original = p.__dict__[attr]
                undo.append((p, attr, original))
                setattr(p, attr, tracer.wrap(MAP_SPAN, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
