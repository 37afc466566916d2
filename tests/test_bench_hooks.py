"""The benchmark's span hooks name functions, methods and properties of the
package.  A refactor that deletes or renames a hooked name leaves its span
without a hook: traced benchmark runs then refuse to report, while untraced
runs and every other test stay green.  This guards the hook table here."""

import inspect
import math
import pathlib
import types

import numpy as np

import einlocus
from einlocus import ManifoldBundle, PotentialChart, SamplingConfig, builtin_cpn, jets, verdict

from conftest import report_digests

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


def test_stage_five_enters_the_restricted_ricci_hook(monkeypatch):
    # stage 5 reads its restricted Ricci matrix through locus.restricted_ricci,
    # once per verdict on the stack of every admitted locus point, and never
    # the per-vector pairing; the trace operator, the spectral test and the
    # normal projector are likewise entered once, the projector with every
    # admitted locus point, each once
    tracer = load_spans().Tracer()
    seen = []
    with tracer.installed(einlocus), monkeypatch.context() as patch:
        traced = einlocus.verify.map_normal_projector

        def recording(mapping, points):
            seen.extend(points if isinstance(points, list) else [points])
            return traced(mapping, points)

        patch.setattr(einlocus.verify, "map_normal_projector", recording)
        report, per_verdict = tracer.verdict(
            0, lambda: verdict(builtin_cpn(2), SamplingConfig(6, 6, seed=0))
        )
    calls = per_verdict["calls"]
    assert report.exit_code == 0
    assert report.data["counts"]["locus_admitted"] == 6
    assert calls["locus.restricted_ricci"] == 1
    assert calls["criterion.trace_operator"] == calls["criterion.spectral_test"] == 1
    assert calls["criterion.map_normal_projector"] == 1
    locus_points = [tuple(complex(x) for x in pt["t"]) for pt in report.data["spectral"]["per_point"]]
    assert [p.holo for p in seen] == locus_points
    assert "metrics.riemann_covector" not in calls


# Spans of the ``Jet`` arithmetic, the tree walk and the real-variable
# Wirtinger derivative: a verdict runs planned programs and read-offs only.
UNENTERED_BY_VERDICTS = {
    "jets.mul",
    "jets.deriv",
    "jets.compose",
    "jets.restrict",
    "exprs.evaluate",
    "coords.wirtinger_jet",
}


def test_a_traced_verdict_times_all_five_stages():
    # the tracer opens stage 5 at the verdict's first call into the normal
    # projector or the trace operator; a stage 5 that skipped both would
    # fold its time into stage 4
    tracer = load_spans().Tracer()
    with tracer.installed(einlocus):
        report, per_verdict = tracer.verdict(
            0, lambda: verdict(builtin_cpn(2), SamplingConfig(6, 6, seed=0))
        )
    assert report.exit_code == 0
    assert sorted(tracer.stage_s) == [1, 2, 3, 4, 5]
    assert all(tracer.stage_s[stage] > 0.0 for stage in range(1, 6)), dict(tracer.stage_s)
    assert not UNENTERED_BY_VERDICTS & set(per_verdict["calls"])
    # nor does a verdict on a callable potential, whose lift is by finite
    # differences and one conversion to (z, zbar)
    with tracer.installed(einlocus):
        report, per_verdict = tracer.verdict(
            1, lambda: verdict(report_digests().blackbox_cpn2(), SamplingConfig(6, 6, seed=0))
        )
    assert report.exit_code == 0
    assert per_verdict["calls"]["jets.fd_lift"] > 0
    assert not UNENTERED_BY_VERDICTS & set(per_verdict["calls"])


def test_the_potential_lift_has_its_own_span():
    # g, dg and ddg read the lift through the hooked psi_jet, so its time
    # is the metrics.psi_jet span's and not metrics.g's; reading the lift
    # there leaves the number of metric reads as it was.  No verdict stage
    # reads kahler_form since the report dropped the anti-isometry check
    # (20 reads in stage 2) and the lagrangian check (10 in stage 4).
    # Stage 5 reads g, G and G_inv once per locus point to stack them, and
    # the stack's g_inv (twice), G and G_inv once per verdict: 34 reads
    # where the per-point stage made 4 per point, 40
    tracer = load_spans().Tracer()
    with tracer.installed(einlocus):
        report, per_verdict = tracer.verdict(
            0, lambda: verdict(builtin_cpn(2), SamplingConfig(10, 10, seed=0))
        )
    calls = per_verdict["calls"]
    assert report.exit_code == 0
    assert calls["metrics.psi_jet"] > 0
    assert calls["metrics.g"] == 164


def test_stage_two_reads_the_map_through_the_isometry_residual_alone():
    # the anti-isometry and potential-invariance residuals restate the
    # isometry gate, so a verdict calls neither; both stay library functions
    tracer = load_spans().Tracer()
    with tracer.installed(einlocus):
        report, per_verdict = tracer.verdict(
            0, lambda: verdict(builtin_cpn(2), SamplingConfig(6, 6, seed=0))
        )
    calls = per_verdict["calls"]
    assert report.exit_code == 0
    assert calls["antiholo.isometry_residual"] == report.data["counts"]["ambient_admitted"] == 6
    assert "antiholo.anti_isometry_residual" not in calls
    assert "antiholo.potential_invariance_residual" not in calls


def test_traced_admission_count_is_the_reports():
    # the tracer counts admitted points from result[1] of sample_chart_points,
    # so that function must keep returning (geometries, stats)
    tracer = load_spans().Tracer()
    with tracer.installed(einlocus):
        report, _ = tracer.verdict(0, lambda: verdict(builtin_cpn(2), SamplingConfig(6, 6, seed=0)))
    assert tracer.extra["sampling.admitted"] == report.data["counts"]["ambient_admitted"] == 6


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


def test_verdicts_build_jet_spaces_only_through_the_cache(monkeypatch):
    # bench/run.py finds the jet spaces a workload needs by wrapping
    # JetSpace.__init__(space, nvars, capacity), builds them through jet_space
    # in its set-up, and refuses (exit 2) a timed pass that misses that cache.
    # So every space a verdict uses must come from jet_space, with that
    # signature, and a repeated verdict must build none.
    params = list(inspect.signature(jets.JetSpace.__init__).parameters.values())
    assert [p.name for p in params] == ["self", "nvars", "capacity"]
    assert params[2].default == jets.DEFAULT_ORDER
    built = []
    init = jets.JetSpace.__init__

    def recording(space, nvars, capacity=jets.DEFAULT_ORDER):
        built.append((nvars, capacity))
        init(space, nvars, capacity)

    monkeypatch.setattr(jets.JetSpace, "__init__", recording)
    cpn2 = builtin_cpn(2)
    black_box = ManifoldBundle(
        chart=PotentialChart(2, lambda xy: float(np.log1p(xy @ xy)), cpn2.chart.box, label="bb"),
        mapping=cpn2.mapping,
        locus=cpn2.locus,
        label="black-box-cpn-2",
    )
    for bundle in (builtin_cpn(3), black_box):
        reports = []
        for _ in range(2):
            misses, count = jets.jet_space.cache_info().misses, len(built)
            reports.append(verdict(bundle, SamplingConfig(4, 4, seed=0)).to_json())
            assert len(built) - count == jets.jet_space.cache_info().misses - misses
        assert len(built) == count, built[count:]
        assert reports[0] == reports[1]

