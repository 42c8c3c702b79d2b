"""Span tracing of rootmaps' layers, attached from outside the package.

Every hook replaces a public name at a layer boundary with a wrapper that
records one span: name, start, end, parent span and task id.  Spans stay in
memory until the run ends; self times and work counts are derived from them
afterwards.  A hooked name that no longer exists leaves its layer unmeasured
instead of failing the run.
"""

import dataclasses
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Patched in this order, so a later hook on
# the same attribute wraps an earlier one.
HOOKS = (
    ("rootmaps.coefficients", "solve_coefficients", "coefficients.solve"),
    ("rootmaps.cli", "parse_map_spec", "cli.parse"),
    ("rootmaps.cli", "render_capture_csv", "cli.render"),
    ("rootmaps.cli", "_render_report_text", "cli.render"),
    ("rootmaps.cli", "run_capture", "capture.run"),
    ("rootmaps.capture", "make_grid", "capture.grid"),
    ("rootmaps.capture", "cluster_points", "capture.cluster"),
    ("rootmaps.capture", "vector_map_step", "mapsnd.step"),
    ("rootmaps.capture", "jacobian_is_singular", "mapsnd.singular_check"),
    ("rootmaps.mapsnd", "lu_solve", "mapsnd.solve"),
)
SETUP_TASK = -1


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = SETUP_TASK
        self.unmeasured = []
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.task)

        return traced

    def patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.unmeasured.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(original))

    def install(self):
        for module_name, attr, name in HOOKS:
            self.patch(module_name, attr, lambda fn, name=name: self.wrap(name, fn))
        # cli.main builds its parser and parses argv on every call.
        self.patch("rootmaps.cli", "build_parser", self._traced_parser)
        self.patch("rootmaps.cli", "vector_problem", self._traced_vector_problem)

    def _traced_parser(self, build):
        def build_parser():
            parser = build()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        return self.wrap("cli.parse", build_parser)

    def _traced_vector_problem(self, load):
        load = self.wrap("problems.load", load)

        def vector_problem(*args, **kwargs):
            return self.trace_problem(load(*args, **kwargs), "problems.f", "problems.jac", "jacobian")

        return vector_problem

    def trace_problem(self, problem, f_name, deriv_name, deriv_field):
        """A copy of the problem whose f and derivative callables are traced.

        A tuple-valued field, such as ScalarProblem.derivatives, has each
        member wrapped.
        """
        try:
            derivs = getattr(problem, deriv_field)
            if isinstance(derivs, tuple):
                derivs = tuple(self.wrap(deriv_name, fn) for fn in derivs)
            else:
                derivs = self.wrap(deriv_name, derivs)
            return dataclasses.replace(problem, f=self.wrap(f_name, problem.f), **{deriv_field: derivs})
        except (AttributeError, TypeError):
            name = f"{type(problem).__name__}.f/{deriv_field}"
            if name not in self.unmeasured:
                self.unmeasured.append(name)
            return problem

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,task\n")
            for name, start, end, parent, task in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{task}\n")


@dataclasses.dataclass
class SpanTotals:
    """Per span name: call count, inclusive time and self time."""

    calls: Counter
    inclusive: defaultdict
    self_time: defaultdict


def totals(spans, passes_only=False):
    """Sum spans by name; passes_only drops the spans recorded during set-up.

    Parents are recorded before their children, so one pass over the spans
    charges each child's duration to its parent.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, task in spans:
        if parent >= 0:
            child_time[parent] += end - start
    result = SpanTotals(Counter(), defaultdict(float), defaultdict(float))
    for index, (name, start, end, parent, task) in enumerate(spans):
        if passes_only and task == SETUP_TASK:
            continue
        result.calls[name] += 1
        result.inclusive[name] += end - start
        result.self_time[name] += end - start - child_time[index]
    return result


def counts_per_scan(spans):
    """Span counts grouped by their enclosing capture.run span, in call order."""
    scan_of = [-1] * len(spans)
    per_scan = {}
    for index, (name, start, end, parent, task) in enumerate(spans):
        if name == "capture.run":
            scan_of[index] = index
            per_scan[index] = Counter()
        elif parent >= 0:
            scan_of[index] = scan_of[parent]
            if scan_of[index] >= 0:
                per_scan[scan_of[index]][name] += 1
    return [per_scan[index] for index in sorted(per_scan)]
