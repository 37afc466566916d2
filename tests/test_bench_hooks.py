"""The benchmark's span hooks name functions, methods and properties of the
package.  A refactor that deletes or renames a hooked name leaves its span
without a hook: traced benchmark runs then refuse to report, while untraced
runs and every other test stay green.  This guards the hook table here."""

import math
import pathlib
import types

import numpy as np

import einlocus
from einlocus import jets

SPANS_SOURCE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# Hooks on ChartGeometry members that the package no longer has; the table
# still lists them, and every span they belong to keeps another live hook.
STALE_HOOKS = {
    "metrics.ChartGeometry.g_jets",
    "metrics.ChartGeometry.log_det_g_jet",
    "metrics.ChartGeometry.G_jets",
}


def load_spans():
    """The tracer module, executed from its source without writing bytecode
    next to it."""
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS_SOURCE)
    exec(compile(SPANS_SOURCE.read_text(), str(SPANS_SOURCE), "exec"), module.__dict__)
    return module


def test_every_bench_span_has_a_live_hook():
    tracer = load_spans().Tracer()
    with tracer.installed(einlocus):
        pass
    assert tracer.dead_spans() == []
    assert set(tracer.missing) <= STALE_HOOKS, sorted(set(tracer.missing) - STALE_HOOKS)



def test_bench_jet_contract():
    # the microbenchmark multiplies jets built as Jet(space, coeffs, order),
    # which must stay dense, and the table counter reads the length of
    # space._mul_ia, which must stay the whole multiplication table
    space = jets.jet_space(4)
    coeffs = np.arange(space.size, dtype=np.complex128)
    assert jets.Jet(space, coeffs, space.capacity).degree == space.capacity
    per_degree = [math.comb(d + space.nvars - 1, d) for d in range(space.capacity + 1)]
    full = sum(
        per_degree[d1] * per_degree[d2]
        for d1 in range(space.capacity + 1)
        for d2 in range(space.capacity + 1 - d1)
    )
    assert len(getattr(space, "_mul_ia", ())) == full
