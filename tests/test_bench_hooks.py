"""The benchmark's span hooks name functions, methods and properties of the
package.  A refactor that deletes or renames a hooked name leaves its span
without a hook: traced benchmark runs then refuse to report, while untraced
runs and every other test stay green.  This guards the hook table here."""

import pathlib
import types

import einlocus

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

