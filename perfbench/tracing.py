"""Per-layer tracing installed from outside the package.

`Tracer.install()` wraps the public functions of each plapext module that
the per-layer metrics name.  Modules import functions by name, so each
function object is replaced in every plapext module namespace that holds
it; methods are replaced on their class.  A wrapper records a span (name,
start, end, parent span, case) and adds its duration, minus the time of
the spans nested in it, to the layer's self time.  Some wrappers also
count work: array elements passed to `phi_inverse_array`, integrand points
evaluated by `integrate` (by wrapping the integrand it is given),
function evaluations made by `brentq`, and Newton iterations returned by
`solve_dirichlet`.  `uninstall()` restores every replaced attribute.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (home module, attribute or Class.method); the metric name is
# "<module>.<attribute>"
LAYERS = [
    ("operator_core", "phi_inverse_array"),
    ("operator_core", "phi_eval"),
    ("operator_core", "phi_prime"),
    ("quadrature", "integrate"),
    ("quadrature", "tail_panel_sums"),
    ("annulus_solver", "solve_dirichlet"),
    ("annulus_solver", "discrete_energy"),
    ("annulus_solver", "energy_gradient"),
    ("annulus_solver", "spsolve"),
    ("annulus_solver", "solve_banded"),
    ("annulus_solver", "exhaust_exterior"),
    ("radial_solver", "solve_exterior_radial"),
    ("radial_solver", "exterior_limit"),
    ("radial_solver", "solve_radial_bvp"),
    ("radial_solver", "RadialSolution.value"),
    ("radial_solver", "brentq"),
    ("barriers", "Barrier.eval"),
    ("barriers", "Barrier.eval_many"),
    ("rearrangement", "rearrange"),
    ("rearrangement", "talenti_bound"),
    ("rearrangement", "full_talenti_profile"),
    ("rearrangement", "RearrangementData.cumulative"),
    ("source_terms", "harnack_K"),
    ("source_terms", "exterior_norm"),
    ("asymptotics", "sphere_stats"),
    ("asymptotics", "envelope_check"),
    ("asymptotics", "harnack_sphere_check"),
    ("asymptotics", "decay_fit"),
    ("cli", "load_config"),
    ("cli", "write_csv"),
    ("cli", "write_manifest"),
]


class Tracer:
    def __init__(self, span_limit=100_000):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []            # (id, parent id, case, name, start, end)
        self.spans_dropped = 0
        self.span_limit = span_limit
        self.case = None
        self._stack = []           # open spans: [id, start, child seconds]
        self._next_id = 0
        self._patches = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                if len(self.spans) < self.span_limit:
                    self.spans.append((span_id, parent, self.case, name,
                                       frame[1], end))
                else:
                    self.spans_dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # -- installation --------------------------------------------------------

    def _hooks(self, name):
        def count_calls_of_first_arg(key):
            # plapext passes the integrand (integrate) and the function
            # (brentq) positionally; each call of it adds its point count
            def before(args, kwargs):
                fn = args[0]

                def counted(x, *rest):
                    self.counts[key] += np.size(x)
                    return fn(x, *rest)
                return (counted,) + args[1:], kwargs
            return before

        if name == "operator_core.phi_inverse_array":
            def after(args, kwargs, result):       # called as (spec, s, ...)
                self.counts["phi_inverse_elements"] += np.size(args[1])
            return None, after
        if name == "annulus_solver.solve_dirichlet":
            def after(args, kwargs, result):
                self.counts["newton_iterations"] += result[1].iterations
            return None, after
        if name == "quadrature.integrate":
            return count_calls_of_first_arg("integrand_points"), None
        if name == "radial_solver.brentq":
            return count_calls_of_first_arg("brentq_evals"), None
        return None, None

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "plapext" or key.startswith("plapext.")]
        for home, attr in LAYERS:
            name = f"{home}.{attr}"
            mod = sys.modules[f"plapext.{home}"]
            before, after = self._hooks(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(name, getattr(cls, meth),
                                                 before, after))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        return self

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, cases):
        """Per-layer metrics, each the run total divided by the number of
        cases.  Whole rounds repeat the same work, so a count divided this
        way is the same float for any number of rounds."""
        out = {}
        for home, attr in LAYERS:
            name = f"{home}.{attr}"
            out[f"{name}.calls"] = self.calls[name] / cases
            out[f"{name}.self_s"] = self.self_s[name] / cases
        out["operator_core.phi_inverse_array.elements"] = \
            self.counts["phi_inverse_elements"] / cases
        out["quadrature.integrate.integrand_points"] = \
            self.counts["integrand_points"] / cases
        out["radial_solver.brentq.evals"] = self.counts["brentq_evals"] / cases
        iterations = self.counts["newton_iterations"]
        out["annulus_solver.solve_dirichlet.iterations"] = iterations / cases
        out["annulus_solver.energy_evals_per_iteration"] = (
            self.calls["annulus_solver.discrete_energy"] / iterations
            if iterations else 0.0)
        return out

    def dump(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "span_fields": ["id", "parent", "case", "name", "start",
                                "end"],
                "spans": self.spans, "spans_dropped": self.spans_dropped}
