"""Per-layer tracing for the sectionscope benchmark, from outside the program.

The tracer rebinds names that the calling modules imported (for example
``cli.return_map`` or ``flows.solve_ivp``) to timing wrappers, and restores
every binding on exit.  No file under ``src/`` is edited.

Layer-boundary calls become spans (name, layer, operation id, parent span,
start, end).  Hot leaf functions -- the rotating right-hand side and the
Moser field, plus the chart maps -- are too frequent for one span per call:
each is aggregated as a call count and a total time on its enclosing span.
A span's self time is its duration minus the time of its direct child
spans and leaves.

A wrap target that no longer exists is skipped, and every metric that
needs it is reported as absent instead of failing the run.
"""

import importlib
import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name, layer, kind).  ``kind`` is 'span' or
# 'leaf'; a 'solve' span also times the right-hand side scipy calls and
# reads nfev and accepted steps from the OdeResult.
TARGETS = [
    ("cli", "return_map", "sections.return_map", "sections", "span"),
    ("cli", "leaf_label_physical", "sections.leaf_label", "sections", "span"),
    ("cli", "sample_page_states", "cr3bp.sample", "cr3bp", "span"),
    ("cli", "vertical_seed", "orbits.seed", "orbits", "span"),
    ("cli", "find_periodic_point", "orbits.newton", "orbits", "span"),
    ("cli", "floquet_multipliers", "orbits.floquet", "orbits", "span"),
    ("cli", "reciprocal_pair_residual", "orbits.reciprocal", "orbits",
     "span"),
    ("orbits", "return_map_iter", "sections.return_map_iter", "sections",
     "span"),
    ("orbits", "page_frame", "sections.page_frame", "sections", "span"),
    ("orbits", "page_embed", "sections.page_embed", "sections", "span"),
    ("sections", "return_map", "sections.return_map", "sections", "span"),
    ("sections", "integrate", "flows.integrate", "flows", "span"),
    ("orbits", "integrate", "flows.integrate", "flows", "span"),
    ("flows", "solve_ivp", "flows.solve_ivp", "flows", "solve"),
    ("flows", "Trajectory.min_over", "flows.read", "flows", "span"),
    ("flows", "Trajectory.state", "flows.read", "flows", "span"),
    ("flows", "Trajectory.energy_drift", "flows.read", "flows", "span"),
    ("flows", "vector_field_ode", "cr3bp.rhs", "cr3bp", "leaf"),
    ("regularize", "MoserChart.field", "regularize.field", "regularize",
     "leaf"),
    ("regularize", "MoserChart.to_physical", "regularize.chart_map",
     "regularize", "leaf"),
    ("regularize", "MoserChart.from_physical", "regularize.chart_map",
     "regularize", "leaf"),
]

# name: (unit, better, spans it needs, what it should move)
PER_LAYER = {
    "cr3bp.rhs_calls": ("count/op", "lower", ["flows.solve_ivp", "cr3bp.rhs"],
                        "ops_per_s on scan; no change on lunar"),
    "cr3bp.rhs_us": ("us/call", "lower", ["cr3bp.rhs"],
                     "ops_per_s on scan; no change on lunar"),
    "regularize.field_calls": ("count/op", "lower", ["regularize.field"],
                               "ops_per_s on lunar"),
    "regularize.field_us": ("us/call", "lower", ["regularize.field"],
                            "ops_per_s on lunar"),
    "regularize.chart_map_s": ("s/op", "lower", ["regularize.chart_map"],
                               "ops_per_s on lunar"),
    "flows.flights": ("count/op", "lower", ["flows.integrate"],
                      "context for every workload"),
    "flows.solver_calls": ("count/op", "lower", ["flows.solve_ivp"],
                           "context for every workload"),
    "flows.steps_rot": ("count/op", "lower", ["flows.solve_ivp"],
                        "context for every workload"),
    "flows.steps_moser": ("count/op", "lower", ["flows.solve_ivp"],
                          "context for every workload"),
    "flows.chart_switches": ("count/op", "lower", ["flows.integrate"],
                             "context for every workload"),
    "flows.moser_op_frac": ("frac", "lower", ["flows.solve_ivp"],
                            "context for every workload"),
    "flows.nfev_per_step": ("ratio", "lower", ["flows.solve_ivp"],
                            "ops_per_s on scan and lunar"),
    "flows.solver_self_s": ("s/op", "lower", ["flows.solve_ivp"],
                            "ops_per_s on scan"),
    "flows.read_s": ("s/op", "lower", ["flows.read"], "ops_per_s on lunar"),
    "sections.return_map_s": ("s/op", "lower", ["sections.return_map"],
                              "ops_per_s on scan; op_s_p50 on shoot"),
    "sections.self_s": ("s/op", "lower",
                        ["sections.return_map", "flows.integrate"],
                        "ops_per_s on scan; op_s_p50 on shoot"),
    "sections.page_embed_calls": ("count/op", "lower",
                                  ["sections.page_embed"],
                                  "ops_per_s on scan; op_s_p50 on shoot"),
    "orbits.newton_iters": ("count/op", "lower", ["orbits.newton"],
                            "op_s_p50 on shoot"),
    "orbits.return_maps_per_orbit": ("count/op", "lower",
                                     ["orbits.newton", "sections.return_map"],
                                     "op_s_p50 on shoot"),
    "orbits.floquet_flights": ("count/op", "lower",
                               ["orbits.floquet", "flows.integrate"],
                               "op_s_p50 on shoot"),
    "orbits.newton_s": ("s/op", "lower", ["orbits.newton"],
                        "op_s_p50 on shoot"),
    "orbits.floquet_s": ("s/op", "lower", ["orbits.floquet"],
                         "op_s_p50 on shoot"),
    "cli.self_s": ("s/op", "lower", [], "ops_per_s on scan"),
    "proc.cpu_s": ("s/op", "lower", [], "diagnostic; moves nothing"),
    "trace.overhead_frac": ("frac", "lower", [], "diagnostic; moves nothing"),
}

# Metrics that are counts: they must repeat exactly between traced passes.
COUNT_METRICS = [name for name, (unit, *_rest) in PER_LAYER.items()
                 if unit.startswith("count") or name in
                 ("flows.moser_op_frac", "flows.nfev_per_step")]


class Span:
    __slots__ = ("name", "layer", "op", "parent", "t0", "t1", "child",
                 "leaves", "info")

    def __init__(self, name, layer, op, parent):
        self.name = name
        self.layer = layer
        self.op = op
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.child = 0.0
        self.leaves = {}
        self.info = {}

    @property
    def duration(self):
        return self.t1 - self.t0


def _resolve(module, path):
    """(owner, attribute, original) for 'name' or 'Class.name', or None."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    if isinstance(owner, type):
        original = vars(owner).get(attr)
    else:
        original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Installs the wrappers in ``with`` scope and collects spans."""

    def __init__(self, op_boundary=None):
        self.op_boundary = op_boundary   # (module, attribute) or None
        self.spans = []
        self.stack = [Span("root", "root", 0, None)]
        self.op = 0
        self.missing = set()
        self.present = set()
        self._saved = []

    # --- installing and restoring the rebinding ---

    def __enter__(self):
        for mod_name, path, name, layer, kind in TARGETS:
            module = importlib.import_module(f"sectionscope.{mod_name}")
            found = _resolve(module, path)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr, original = found
            boundary = self.op_boundary == (mod_name, path)
            if kind == "leaf":
                wrapper = self._leaf(name, original)
            else:
                wrapper = self._span(name, layer, original, kind, boundary)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            self.present.add(name)
        # a name counts as present only if every binding of it was found
        self.present -= self.missing
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def reset(self):
        # in place: the leaf wrappers hold a reference to this list
        self.spans = []
        self.stack[:] = [Span("root", "root", 0, None)]
        self.op = 0

    # --- wrappers ---

    def call_op(self, name, layer, fn, *args):
        """Run fn(*args) as a root span.

        The root span starts an operation unless ``op_boundary`` names an
        inner call that does: on 'scan' and 'lunar' a CLI call holds many
        operations, one per cli.return_map call.
        """
        boundary = self.op_boundary is None
        return self._span(name, layer, fn, "span", boundary)(*args)

    def _span(self, name, layer, fn, kind, boundary):
        tracer = self

        def wrapper(*args, **kwargs):
            if boundary:
                tracer.op += 1
            parent = tracer.stack[-1]
            span = Span(name, layer, tracer.op, parent)
            tracer.spans.append(span)
            tracer.stack.append(span)
            if kind == "solve":
                args = (tracer._timed_rhs(args[0], span),) + args[1:]
                y0 = args[2] if len(args) > 2 else kwargs["y0"]
                span.info["dim"] = len(y0)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                tracer.stack.pop()
                parent.child += span.t1 - span.t0
            if kind == "solve":
                span.info["nfev"] = int(result.nfev)
                span.info["steps"] = len(result.t) - 1
            elif name == "flows.integrate":
                span.info["switches"] = result.chart_switches
            elif name == "orbits.newton":
                span.info["iters"] = len(result.newton_history)
            return result

        return wrapper

    def _timed_rhs(self, fun, span):
        span.info["fun_s"] = 0.0

        def rhs(t, y):
            t0 = perf_counter()
            try:
                return fun(t, y)
            finally:
                span.info["fun_s"] += perf_counter() - t0

        return rhs

    def _leaf(self, name, fn):
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                top = stack[-1]
                top.child += dt
                agg = top.leaves.get(name)
                if agg is None:
                    top.leaves[name] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt

        return wrapper


def _under(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def pass_metrics(tracer, ops):
    """Per-operation metrics of one traced pass over ``ops`` operations.

    Returns (metrics, self_check_failures).  Metrics whose wrap targets are
    missing are left out.
    """
    n = defaultdict(int)
    t = defaultdict(float)
    leaf_n = defaultdict(int)
    leaf_t = defaultdict(float)
    self_t = defaultdict(float)
    nfev = {"rot": 0, "moser": 0}
    steps = {"rot": 0, "moser": 0}
    rhs_in_solver = {"rot": 0, "moser": 0}
    solver_self = 0.0
    moser_ops = set()
    switches = newton_iters = maps_in_newton = floquet_flights = 0
    for sp in tracer.spans:
        n[sp.name] += 1
        t[sp.name] += sp.duration
        self_t[sp.layer] += sp.duration - sp.child
        for leaf, (cnt, secs) in sp.leaves.items():
            leaf_n[leaf] += cnt
            leaf_t[leaf] += secs
        if sp.name == "flows.solve_ivp":
            chart = "rot" if sp.info["dim"] == 6 else "moser"
            nfev[chart] += sp.info["nfev"]
            steps[chart] += sp.info["steps"]
            leaf = "cr3bp.rhs" if chart == "rot" else "regularize.field"
            rhs_in_solver[chart] += sp.leaves.get(leaf, (0, 0.0))[0]
            solver_self += sp.duration - sp.info["fun_s"]
            if chart == "moser":
                moser_ops.add(sp.op)
        elif sp.name == "flows.integrate":
            switches += sp.info.get("switches", 0)
            if _under(sp, "orbits.floquet"):
                floquet_flights += 1
        elif sp.name == "orbits.newton":
            newton_iters += sp.info.get("iters", 0)
        elif sp.name == "sections.return_map" and _under(sp, "orbits.newton"):
            maps_in_newton += 1

    def per_call_us(name):
        return 1e6 * leaf_t[name] / leaf_n[name] if leaf_n[name] else 0.0

    all_steps = steps["rot"] + steps["moser"]
    values = {
        "cr3bp.rhs_calls": leaf_n["cr3bp.rhs"] / ops,
        "cr3bp.rhs_us": per_call_us("cr3bp.rhs"),
        "regularize.field_calls": leaf_n["regularize.field"] / ops,
        "regularize.field_us": per_call_us("regularize.field"),
        "regularize.chart_map_s": leaf_t["regularize.chart_map"] / ops,
        "flows.flights": n["flows.integrate"] / ops,
        "flows.solver_calls": n["flows.solve_ivp"] / ops,
        "flows.steps_rot": steps["rot"] / ops,
        "flows.steps_moser": steps["moser"] / ops,
        "flows.chart_switches": switches / ops,
        "flows.moser_op_frac": len(moser_ops) / ops,
        "flows.nfev_per_step": ((nfev["rot"] + nfev["moser"]) / all_steps
                                if all_steps else 0.0),
        "flows.solver_self_s": solver_self / ops,
        "flows.read_s": t["flows.read"] / ops,
        "sections.return_map_s": t["sections.return_map"] / ops,
        "sections.self_s": self_t["sections"] / ops,
        "sections.page_embed_calls": n["sections.page_embed"] / ops,
        "orbits.newton_iters": newton_iters / ops,
        "orbits.return_maps_per_orbit": maps_in_newton / ops,
        "orbits.floquet_flights": floquet_flights / ops,
        "orbits.newton_s": t["orbits.newton"] / ops,
        "orbits.floquet_s": t["orbits.floquet"] / ops,
        "cli.self_s": self_t["cli"] / ops,
    }
    metrics = {}
    for name, value in values.items():
        needs = PER_LAYER[name][2]
        if all(s in tracer.present for s in needs):
            metrics[name] = value
    failures = []
    if {"flows.solve_ivp", "cr3bp.rhs"} <= tracer.present:
        if leaf_n["cr3bp.rhs"] != nfev["rot"] or \
                rhs_in_solver["rot"] != nfev["rot"]:
            failures.append(
                f"rotating RHS calls {leaf_n['cr3bp.rhs']} != "
                f"sum nfev {nfev['rot']}")
    if {"flows.solve_ivp", "regularize.field"} <= tracer.present:
        if leaf_n["regularize.field"] != nfev["moser"] or \
                rhs_in_solver["moser"] != nfev["moser"]:
            failures.append(
                f"Moser field calls {leaf_n['regularize.field']} != "
                f"sum nfev {nfev['moser']}")
    return metrics, failures


def combine_passes(passes):
    """Counts from the first pass (they must agree), times as medians."""
    first = passes[0]
    out = {}
    failures = []
    for name in first:
        vals = [p[name] for p in passes if name in p]
        if name in COUNT_METRICS:
            if any(v != vals[0] for v in vals):
                failures.append(f"{name} differs between traced passes: "
                                f"{vals}")
            out[name] = vals[0]
        else:
            out[name] = statistics.median(vals)
    return out, failures
