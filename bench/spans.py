"""An in-memory span tracer that wraps einlocus entry points from outside.

``Tracer.installed()`` rebinds the public functions, ``ChartGeometry`` and
``LocusGeometry`` properties and ``Jet`` methods listed in ``HOOKS`` to
timing wrappers, and restores the originals on exit; untraced runs never
call it, so they execute the package untouched.

Every wrapped call becomes a span (name, start, end, parent, verdict id).
The hot ``Jet`` kernels are only counted and timed, not kept one by one,
so that memory stays bounded.  A span's self time is its duration minus
the durations of the spans it called directly.  A call to a span of the
same name as the running one (recursion, or a property reading a sibling
property of its group) folds into the running span.

A hook whose target does not exist in the package is skipped and listed in
``Tracer.missing``.  A span none of whose hooks exists is listed by
``Tracer.dead_spans()``: its metrics would read zero, and the benchmark
refuses to report them.

Spans named in ``INCLUSIVE`` also get a total time: the duration of their
outermost calls, child spans included.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, module, class or None, attribute, kind)
# kind "function" rebinds the name in every einlocus module that imported it.
HOOKS = (
    ("jets.mul", "jets", "Jet", "__mul__", "method"),
    ("jets.mul", "jets", "Jet", "__rmul__", "method"),
    ("jets.deriv", "jets", "Jet", "deriv", "method"),
    ("jets.compose", "jets", "Jet", "compose_analytic", "method"),
    ("jets.restrict", "jets", "Jet", "restrict", "method"),
    ("jets.fd_lift", "jets", None, "lift_callable_to_jet", "function"),
    ("exprs.evaluate", "exprs", None, "evaluate", "function"),
    ("coords.wirtinger_jet", "coords", None, "wirtinger_jet", "function"),
    ("metrics.psi_jet", "metrics", "ChartGeometry", "psi_jet", "property"),
    ("metrics.g", "metrics", "ChartGeometry", "g_jets", "property"),
    ("metrics.g", "metrics", "ChartGeometry", "g", "property"),
    ("metrics.g", "metrics", "ChartGeometry", "g_inv", "property"),
    ("metrics.g", "metrics", "ChartGeometry", "G", "property"),
    ("metrics.g", "metrics", "ChartGeometry", "G_inv", "property"),
    ("metrics.g", "metrics", "ChartGeometry", "kahler_form", "property"),
    ("metrics.dg_ddg", "metrics", "ChartGeometry", "dg", "property"),
    ("metrics.dg_ddg", "metrics", "ChartGeometry", "ddg", "property"),
    ("metrics.ricci", "metrics", "ChartGeometry", "log_det_g_jet", "property"),
    ("metrics.ricci", "metrics", "ChartGeometry", "ricci", "property"),
    ("metrics.ricci", "metrics", "ChartGeometry", "ricci_real", "method"),
    ("metrics.curvature", "metrics", "ChartGeometry", "curvature", "property"),
    ("metrics.christoffel", "metrics", "ChartGeometry", "G_jets", "property"),
    ("metrics.christoffel", "metrics", "ChartGeometry", "dG", "property"),
    ("metrics.christoffel", "metrics", "ChartGeometry", "christoffel", "property"),
    ("metrics.riemann_covector", "metrics", "ChartGeometry", "riemann_covector", "method"),
    ("metrics.einstein_residual", "metrics", None, "einstein_residual", "function"),
    ("antiholo.apply", "antiholo", "AntiholoMap", "apply", "method"),
    ("antiholo.jacobian_real", "antiholo", "AntiholoMap", "jacobian_real", "method"),
    ("antiholo.antiholomorphy_residual", "antiholo", None, "antiholomorphy_residual", "function"),
    ("antiholo.involution_residual", "antiholo", None, "involution_residual", "function"),
    ("antiholo.isometry_residual", "antiholo", None, "isometry_residual", "function"),
    ("antiholo.anti_isometry_residual", "antiholo", None, "anti_isometry_residual", "function"),
    ("antiholo.potential_invariance_residual", "antiholo", None, "potential_invariance_residual", "function"),
    ("antiholo.fixed_locus_residual", "antiholo", None, "fixed_locus_residual", "function"),
    ("antiholo.locus_param", "antiholo", "FixedLocusParam", "point", "method"),
    ("antiholo.locus_param", "antiholo", "FixedLocusParam", "component_jets", "method"),
    ("antiholo.locus_param", "antiholo", "FixedLocusParam", "jacobian", "method"),
    ("sampling.sample_chart_points", "sampling", None, "sample_chart_points", "function"),
    ("sampling.sample_parameters", "sampling", None, "sample_parameters", "function"),
    ("locus.locus_point", "locus", None, "locus_point", "function"),
    ("locus.combined_potential", "locus", "LocusGeometry", "_combined_potential_jet", "method"),
    ("locus.metric_jets_on_locus", "locus", "LocusGeometry", "metric_jets_on_locus", "property"),
    ("locus.frame_field_jets", "locus", "LocusGeometry", "frame_field_jets", "property"),
    ("locus.sff", "locus", "LocusGeometry", "ambient_derivative", "method"),
    ("locus.sff", "locus", "LocusGeometry", "second_fundamental_form", "method"),
    ("locus.sff", "locus", "LocusGeometry", "sff_max_norm", "property"),
    ("locus.totally_real", "locus", None, "totally_real_residual", "function"),
    ("locus.lagrangian", "locus", None, "lagrangian_residual", "function"),
    ("locus.restricted_ricci", "locus", None, "restricted_ricci", "function"),
    ("criterion.map_normal_projector", "criterion", None, "map_normal_projector", "function"),
    ("criterion.trace_operator", "criterion", None, "trace_operator_at", "function"),
    ("criterion.spectral_test", "criterion", None, "spectral_test", "function"),
)

# Kernels called too often to keep every span; they are counted and timed.
AGGREGATE_ONLY = frozenset({"jets.mul", "jets.deriv", "jets.compose", "jets.restrict"})

# Spans whose inclusive time is kept as well as their self time.  The Ricci
# group's log-det does its work in Jet multiplies and compositions, which
# are spans of their own, so its self time leaves that work out.
INCLUSIVE = frozenset({"metrics.ricci"})

# The first call that ``verdict`` makes itself into each of these opens the
# verdict stage it is mapped to; a stage lasts until the next one opens.
STAGE_OPENERS = {
    "sampling.sample_chart_points": 1,
    "antiholo.antiholomorphy_residual": 2,
    "metrics.einstein_residual": 3,
    "sampling.sample_parameters": 4,
    "criterion.map_normal_projector": 5,
    "criterion.trace_operator": 5,
}
STAGES = (1, 2, 3, 4, 5)

ROOT = "verify.verdict"

# Bytes one multiply-table entry touches: three int64 indices, two complex128
# operands gathered and one complex128 scatter-add.
MUL_BYTES_PER_ENTRY = 3 * 8 + 3 * 16


class Tracer:
    """Spans and counts of one traced pass over a workload."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, verdict id]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.extra = Counter()  # counts measured inside spans
        self.stage_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.missing = []
        self._installed = set()
        self._stack = []  # frames: [name, start, child seconds, span index]
        self._verdict = -1
        self._stage_marks = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name, start):
        stack = self._stack
        if name in AGGREGATE_ONLY:
            index = -1
        else:
            index = len(self.spans)
            parent = stack[-1][3] if stack else -1
            self.spans.append([name, start, None, parent, self._verdict])
            if len(stack) == 1 and stack[0][0] == ROOT:
                stage = STAGE_OPENERS.get(name)
                if stage and (not self._stage_marks or stage > self._stage_marks[-1][0]):
                    self._stage_marks.append((stage, start))
        frame = [name, start, 0.0, index]
        stack.append(frame)
        return frame

    def _exit(self, frame, end):
        stack = self._stack
        stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if name in INCLUSIVE and all(f[0] != name for f in stack):
            self.total_s[name] += duration
        if stack:
            stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end

    def _wrap(self, name, fn, before=None, after=None):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = self._enter(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, clock())
            if after is not None:
                after(result)
            return result

        return traced

    def verdict(self, verdict_id, run):
        """Run ``run()`` as the root span of one verdict; returns its result
        and the per-verdict counts and self times."""
        calls0, self0 = Counter(self.calls), dict(self.self_s)
        self._verdict = verdict_id
        self._stage_marks = []
        frame = self._enter(ROOT, time.perf_counter())
        try:
            result = run()
        finally:
            end = time.perf_counter()
            self._exit(frame, end)
            marks = self._stage_marks + [(None, end)]
            for (stage, t0), (_, t1) in zip(marks, marks[1:]):
                self.stage_s[stage] += t1 - t0
        calls = {k: v - calls0.get(k, 0) for k, v in self.calls.items() if v != calls0.get(k, 0)}
        selfs = {k: v - self0.get(k, 0.0) for k, v in self.self_s.items()}
        return result, {"calls": calls, "self_s": {k: v for k, v in selfs.items() if v}}

    def dead_spans(self):
        """Span names none of whose hooks could be installed."""
        return sorted({hook[0] for hook in HOOKS} - self._installed)

    # -- per-hook extras -------------------------------------------------------

    def _count_table(self, args, kwargs):
        a, b = args[0], args[1]
        if type(b) is type(a):
            entries = len(getattr(a.space, "_mul_ia", ()))
            self.extra["jets.mul.table_ops"] += entries
            self.extra["jets.mul.bytes_computed"] += entries * MUL_BYTES_PER_ENTRY
        return args, kwargs

    def _count_evals(self, args, kwargs):
        extra = self.extra
        if args:
            func, args = args[0], args[1:]
        else:
            func = kwargs.pop("func")

        def counted(x):
            extra["jets.fd_lift.func_evals"] += 1
            return func(x)

        return (counted,) + tuple(args), kwargs

    def _count_admitted(self, result):
        stats = result[1]
        admitted = getattr(stats, "admitted", 0)
        self.extra["sampling.admitted"] += admitted
        self.extra["sampling.tried"] += (
            admitted
            + getattr(stats, "rejected_domain", 0)
            + getattr(stats, "rejected_degenerate", 0)
        )

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, package):
        """Rebind every hook in ``package`` (the imported einlocus) for the
        duration of the block."""
        undo = []
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == package.__name__ or k.startswith(package.__name__ + "."))
        ]  # fmt: skip
        extras = {
            "__mul__": (self._count_table, None),
            "__rmul__": (self._count_table, None),
            "lift_callable_to_jet": (self._count_evals, None),
            "sample_chart_points": (None, self._count_admitted),
        }
        try:
            for name, module, owner, attr, kind in HOOKS:
                mod = getattr(package, module, None)
                before, after = extras.get(attr, (None, None))
                if owner is None:
                    fn = getattr(mod, attr, None)
                    if not callable(fn):
                        self.missing.append(f"{module}.{attr}")
                        continue
                    wrapped = self._wrap(name, fn, before, after)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, key, wrapped)
                                undo.append((m, key, fn))
                    self._installed.add(name)
                    continue
                cls = getattr(mod, owner, None)
                original = vars(cls).get(attr) if cls is not None else None
                if kind == "property" and isinstance(original, property):
                    replacement = property(
                        self._wrap(name, original.fget), original.fset, original.fdel, original.__doc__
                    )
                elif kind == "method" and callable(original):
                    replacement = self._wrap(name, original, before, after)
                else:
                    self.missing.append(f"{module}.{owner}.{attr}")
                    continue
                setattr(cls, attr, replacement)
                undo.append((cls, attr, original))
                self._installed.add(name)
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)
