"""The full verification pipeline: hypotheses, residuals, verdict, report.

Order of evaluation mirrors the logical dependency of the Einstein
criterion: chart sanity, anti-holomorphy and isometry of the map, the
ambient Einstein residual, the locus checks (fixed, rank, totally real,
vanishing second fundamental form), then the trace operator with its
spectral test, cross-validated against the restricted-Ricci route.

Exit codes: 0 the locus metric is Einstein at all sampled points, 2 it is
not, 3 a hypothesis gate failed, 4 the run was numerically degenerate,
1 usage or I/O errors (CLI only).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .antiholo import (
    antiholomorphy_residual,
    fixed_locus_residual,
    involution_residual,
    isometry_residual,
)
from .bundles import ManifoldBundle
from .criterion import _frobenius, map_normal_projector, spectral_test, trace_operator_at
from .errors import (
    ChartDomainError,
    DegenerateMetricError,
    NonAnalyticFieldError,
    RankDeficiencyError,
)
from .locus import LocusGeometry, locus_point, restricted_ricci, stage_four_runs, totally_real_residual
from .metrics import METRIC_ORDER, at_once, einstein_residual
from .sampling import DEFAULT_MARGIN, SamplingConfig, sample_chart_points, sample_parameters

EXIT_EINSTEIN = 0
EXIT_USAGE = 1
EXIT_NOT_EINSTEIN = 2
EXIT_HYPOTHESES_FAILED = 3
EXIT_DEGENERATE = 4

REPORT_SCHEMA_VERSION = 4

_STATUS_BY_EXIT = {
    EXIT_EINSTEIN: "einstein",
    EXIT_NOT_EINSTEIN: "not-einstein",
    EXIT_HYPOTHESES_FAILED: "hypotheses-failed",
    EXIT_DEGENERATE: "degenerate",
}


@dataclass(frozen=True)
class Tolerances:
    """All pass/fail thresholds; every field can be overridden per run."""

    tol_sym: float = 1e-6
    tol_eig: float = 1e-5
    tol_const: float = 1e-5
    gate_antiholo: float = 1e-10
    gate_involution: float = 1e-10
    gate_isometry: float = 1e-8
    gate_ambient_einstein: float = 1e-6
    gate_locus_fixed: float = 1e-10
    gate_totally_real: float = 1e-7
    gate_geodesic: float = 1e-6
    report_cross_route: float = 1e-8

    def with_overrides(self, pairs):
        known = {f.name for f in fields(self)}
        updates = {}
        for name, value in pairs:
            if name not in known:
                raise KeyError(f"unknown tolerance {name!r}")
            value = float(value)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance {name} must be finite and non-negative, got {value}")
            updates[name] = value
        return replace(self, **updates) if updates else self


def _stat(values):
    if not values:
        return {"count": 0, "min": None, "median": None, "max": None}
    arr = np.asarray(values, dtype=float)
    return {
        "count": int(arr.size),
        "min": float(arr.min()),
        "median": float(np.median(arr)),
        "max": float(arr.max()),
    }


@dataclass
class VerificationReport:
    data: dict = field(default_factory=dict)

    @property
    def exit_code(self):
        return self.data["verdict"]["exit_code"]

    @property
    def einstein(self):
        return self.data["verdict"]["einstein"]

    def to_json(self):
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"

    def to_text(self):
        d = self.data
        lines = []
        m = d["manifold"]
        lines.append(f"manifold {m['label']} (n={m['dimension']}, c1 declared {m['c1_declared']})")
        if m["assumed_hypotheses"]:
            lines.append("assumed: " + ", ".join(m["assumed_hypotheses"]))
        c = d["config"]
        lines.append(
            f"samples ambient={c['ambient_samples']} locus={c['locus_samples']} "
            f"seed={c['seed']} margin={c['margin']} ({d['differentiation']})"
        )
        lines.append("-" * 64)
        lines.append("hypotheses:")
        for name, h in d["hypotheses"].items():
            flag = "pass" if h["passed"] else "FAIL"
            worst = "n/a" if h["worst"] is None else f"{h['worst']:.3e}"
            lines.append(f"  [{flag}] {name:<24} worst {worst}  (tol {h['tolerance']:.1e})")
        lines.append("checks (min / median / max):")
        for name, s in d["checks"].items():
            if s["count"] == 0:
                lines.append(f"  {name:<24} no data")
            else:
                lines.append(
                    f"  {name:<24} {s['min']:.3e} / {s['median']:.3e} / {s['max']:.3e}"
                    f"  [{s['count']}]"
                )
        k = d["constants"]
        if k["lambda_est"] is not None:
            lines.append(
                f"constants: lambda={k['lambda_est']:.9g} kappa={_fmt(k['kappa_est'])} "
                f"C={_fmt(k['C_est'])} lambda-(kappa+C)={_fmt(k['lambda_minus_kappa_minus_C'])}"
            )
        eigs = [e for pt in d["spectral"]["per_point"] for e in pt["eigenvalues"]]
        if eigs:
            lines.append(
                f"trace operator eigenvalues across points: [{min(eigs):.9g}, {max(eigs):.9g}]"
            )
        for w in d["warnings"]:
            lines.append(f"warning: {w}")
        v = d["verdict"]
        lines.append("-" * 64)
        lines.append(
            f"verdict: {v['status']} (exit {v['exit_code']}); "
            f"spectral={v['einstein_by_spectrum']} restricted-ricci={v['einstein_by_restricted_ricci']} "
            f"agree={v['routes_agree']}"
        )
        return "\n".join(lines) + "\n"


def _fmt(x):
    return "n/a" if x is None else f"{x:.9g}"


def _hypothesis(report, name, worst, tol):
    report["hypotheses"][name] = {"passed": bool(worst <= tol), "worst": worst, "tolerance": tol}


def _check(report, name, values, tol=None, hypothesis=None):
    """Record the statistics of a check and, given a tolerance, the
    hypothesis (``hypothesis``, else ``name``) that its worst value, the
    statistics' max (nan if any value is), meets it."""
    stat = report["checks"][name] = _stat(values)
    if tol is not None:
        _hypothesis(report, hypothesis or name, stat["max"], tol)


def _stopped(report):
    """The exit code of a run stopped before stage 5: every hypothesis recorded
    by then is a gate, so 3 if one failed (the more informative verdict), else 4."""
    passed = all(h["passed"] for h in report["hypotheses"].values())
    return EXIT_DEGENERATE if passed else EXIT_HYPOTHESES_FAILED


def _verdict(exit_code, by_spectrum=None, by_restricted=None, agree=None):
    return {
        "einstein": exit_code == EXIT_EINSTEIN,
        "einstein_by_spectrum": by_spectrum,
        "einstein_by_restricted_ricci": by_restricted,
        "routes_agree": agree,
        "status": _STATUS_BY_EXIT[exit_code],
        "exit_code": exit_code,
    }


def verdict(bundle: ManifoldBundle, config: SamplingConfig = SamplingConfig()) -> VerificationReport:
    """Run every check of the pipeline and aggregate a report.

    Never raises on numerical trouble: a potential that is not real-valued
    fails the ``real_potential`` hypothesis (exit 3); a floating-point
    overflow, division by zero or invalid value, or a failed linear-algebra
    routine, ends the run as degenerate (exit 4) with a warning.
    """
    tol = Tolerances().with_overrides(
        tuple(bundle.tolerance_overrides) + tuple(config.tolerance_overrides)
    )
    chart = bundle.chart
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generator": {"name": "einlocus", "version": __version__},
        "manifold": {
            "label": bundle.label,
            "dimension": chart.dimension,
            "c1_declared": bundle.c1_sign,
            "assumed_hypotheses": list(bundle.assumed_hypotheses),
        },
        "config": {
            "ambient_samples": config.ambient_samples,
            "locus_samples": config.locus_samples,
            "seed": config.seed,
            "margin": DEFAULT_MARGIN,
            "tolerances": {f.name: getattr(tol, f.name) for f in fields(tol)},
        },
        "differentiation": "exact-jets" if chart.is_exact else "finite-difference-low-precision",
        "verified_domain": {
            "ambient_box": [list(s) for s in chart.box],
            "locus_box": [list(s) for s in bundle.locus.box] if bundle.locus else None,
            "margin": DEFAULT_MARGIN,
        },
        "counts": {},
        "hypotheses": {},
        "checks": {},
        "constants": {
            "lambda_est": None,
            "kappa_est": None,
            "C_est": None,
            "lambda_minus_kappa_minus_C": None,
            "C_spread": None,
            "kappa_spread": None,
        },
        "spectral": {"per_point": []},
        "warnings": [],
        "verdict": {},
    }

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            outcome = _stages(bundle, config, tol, report)
    except NonAnalyticFieldError as err:
        _hypothesis(report, "real_potential", 1.0, 0.0)
        report["warnings"].append(f"potential is not real-valued: {err}")
        outcome = None
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        report["warnings"].append(f"numerical failure ({type(err).__name__}): {err}")
        outcome = _verdict(EXIT_DEGENERATE)
    report["verdict"] = outcome or _verdict(_stopped(report))
    return VerificationReport(report)


def _stages(bundle, config, tol, report):
    """The five stages of ``verdict``, filling ``report`` in place; stage 5
    returns the verdict, an earlier stop None.  Each point's geometry is built
    once here and handed to the stages that read it, so none outlives the verdict."""
    chart = bundle.chart
    counts = report["counts"]
    warnings = report["warnings"]

    # -- stage 1: chart sanity over ambient samples ------------------------------
    ambient, astats = sample_chart_points(chart, config.ambient_samples, seed=config.seed)
    counts["ambient_requested"] = astats.requested
    counts["ambient_admitted"] = astats.admitted
    counts["ambient_rejected_domain"] = astats.rejected_domain
    counts["ambient_rejected_degenerate"] = astats.rejected_degenerate
    if len(ambient) < 2:
        warnings.append("fewer than 2 admissible ambient points")
        return None

    _check(report, "metric_hermitian", [geom.hermitian_defect for geom in ambient])

    if bundle.mapping is None:
        _hypothesis(report, "map_present", 1.0, 0.0)
        return None
    mapping = bundle.mapping

    # -- stage 2: map residuals, one Jacobian and one image per ambient point ----------
    # one run each (the loop redoes a raising one) for the Jacobians, the images and
    # their lifts: to METRIC_ORDER, since only an image's metric is read
    points = [geom.point for geom in ambient]
    jacobians = at_once(lambda: mapping.jacobian_real(points))
    images = at_once(lambda: [mapping.apply(p) for p in points])
    image_lifts = chart.lifts(images, METRIC_ORDER) if images else [None] * len(points)
    anti_res, iso_res = [], []
    escapes = 0
    for i, (geom, p) in enumerate(zip(ambient, points)):
        D = mapping.jacobian_real(p) if jacobians is None else jacobians[i]
        anti_res.append(antiholomorphy_residual(mapping, p, D))
        try:
            image = images[i] if images else mapping.apply(p)
            image = chart.geometry(image, METRIC_ORDER, image_lifts[i])
            iso_res.append(isometry_residual(D, geom, image))
        except (ChartDomainError, DegenerateMetricError, ZeroDivisionError):
            escapes += 1
    _check(report, "antiholomorphy", anti_res, tol.gate_antiholo)

    if mapping.declared_involution:
        inv_res = [involution_residual(mapping, geom.point) for geom in ambient]
        _check(report, "involution", inv_res, tol.gate_involution)

    counts["map_escapes"] = escapes
    _check(report, "isometry", iso_res, tol.gate_isometry if iso_res else None)
    if not iso_res:
        warnings.append("map image escaped the chart at every sample")
        return None
    if escapes > len(ambient) / 2:
        warnings.append("map image escaped the chart at more than half the samples")
        return None

    # -- stage 3: ambient Einstein residual -----------------------------------------
    lam, ke_res = einstein_residual(ambient)
    report["constants"]["lambda_est"] = lam
    _check(report, "ambient_einstein", [ke_res], tol.gate_ambient_einstein)
    measured_sign = "zero" if abs(lam) < 1e-6 else ("positive" if lam > 0 else "negative")
    if measured_sign != bundle.c1_sign:
        warnings.append(
            f"declared c1 sign {bundle.c1_sign!r} does not match measured lambda {lam:.3g}"
        )

    # -- stage 4: locus checks --------------------------------------------------------
    if bundle.locus is None:
        _hypothesis(report, "locus_present", 1.0, 0.0)
        return None
    locus = bundle.locus
    if locus.n_params != chart.dimension:
        # the trace operator needs N = J E to span the normal space
        _hypothesis(report, "locus_rank", 1.0, 0.5)
        warnings.append(
            f"locus has m = {locus.n_params} parameters but the chart has n = "
            f"{chart.dimension}; the criterion needs a half-dimensional locus, m = n"
        )
        return None

    params = sample_parameters(locus, config.locus_samples, seed=config.seed)
    made = stage_four_runs(chart, locus, params)
    lpoints = []
    counts["locus_requested"] = len(params)
    rejected, rank_deficient = 0, 0
    fixed_res, rank_margin = [], []
    for t, one in zip(params, made):
        try:
            lg = LocusGeometry(chart, locus, t, **one)  # evaluates the parametrization, once
            lg.geom.g
        except (ChartDomainError, DegenerateMetricError, ZeroDivisionError):
            rejected += 1
            continue
        fixed_res.append(fixed_locus_residual(mapping, lg.point))
        try:
            lpoints.append(locus_point(lg))
        except RankDeficiencyError:
            rank_deficient += 1
        rank_margin.append(lg.rank_margin)
    counts["locus_admitted"] = len(lpoints)
    counts["locus_rejected"] = rejected
    counts["locus_rank_deficient"] = rank_deficient
    _check(report, "locus_fixed", fixed_res)
    _check(report, "locus_rank_margin", rank_margin)
    if not lpoints or rejected + rank_deficient > len(params) / 2:
        warnings.append("locus sampling was mostly unusable")
        return None

    fixed_worst = report["checks"]["locus_fixed"]["max"]
    _hypothesis(report, "locus_fixed", fixed_worst, tol.gate_locus_fixed)
    _hypothesis(report, "locus_rank", 1.0 if rank_deficient else 0.0, 0.5)
    treal = [totally_real_residual(lp) for lp in lpoints]
    _check(report, "totally_real", treal, tol.gate_totally_real)
    h_res = [lp.sff_max_norm for lp in lpoints]
    _check(report, "second_fundamental_form", h_res, tol.gate_geodesic, "totally_geodesic")
    if _stopped(report) == EXIT_HYPOTHESES_FAILED:
        return None

    # -- stage 5: trace operator and spectral test, on all locus points at once -----
    projectors = at_once(lambda: map_normal_projector(mapping, [lp.point for lp in lpoints]))
    if projectors is None:
        projectors = np.array([map_normal_projector(mapping, lp.point) for lp in lpoints])
    stack = LocusGeometry.stacked(lpoints)
    op = trace_operator_at(stack, projectors)
    sv = spectral_test(op.matrix, tol.tol_sym, tol.tol_eig)
    cross_route = op.route_agreement.tolist()
    c_values = sv.C_est.tolist()
    for lp, eigs, sym_res, spread, c, einstein in zip(
        lpoints, sv.eigenvalues.tolist(), sv.symmetric_residual.tolist(),
        sv.eigenvalue_spread.tolist(), c_values, sv.einstein.tolist(),
    ):  # fmt: skip
        report["spectral"]["per_point"].append(
            {
                "t": [float(x) for x in lp.t],
                "eigenvalues": eigs,
                "symmetric_residual": sym_res,
                "eigenvalue_spread": spread,
                "C_est": c,
                "einstein": einstein,
            }
        )
    # restricted-Ricci route (the biconditional cross-check); the gates
    # above established total geodesy
    R_res, nloc = restricted_ricci(stack), stack.m
    kappa = np.trace(R_res, axis1=1, axis2=2) / nloc
    off = R_res - kappa[:, None, None] * np.eye(nloc)
    kappa_values = kappa.tolist()
    restricted_spread = (_frobenius(off) / np.fmax(1.0, np.abs(kappa))).tolist()

    # reported, not gated: stage 5 stops nothing
    _check(report, "trace_route_agreement", cross_route, tol.report_cross_route)
    _check(report, "restricted_einstein_spread", restricted_spread)

    C_est = float(np.median(c_values))
    kappa_est = float(np.median(kappa_values))
    C_spread = float(np.ptp(sv.C_est) / max(1.0, abs(C_est)))
    kappa_spread = float(np.ptp(kappa) / max(1.0, abs(kappa_est)))
    report["constants"].update(
        {
            "C_est": C_est,
            "kappa_est": kappa_est,
            "C_spread": C_spread,
            "kappa_spread": kappa_spread,
            "lambda_minus_kappa_minus_C": float(lam - kappa_est - C_est),
        }
    )
    if tol.tol_const / 2.0 <= C_spread < tol.tol_const:
        warnings.append("eigenvalue constant C is near the constancy threshold")

    einstein_by_spectrum = bool(sv.einstein.all() and C_spread < tol.tol_const)
    split_gap = abs(lam - kappa_est - C_est)
    if einstein_by_spectrum and split_gap > tol.tol_const:
        warnings.append(
            f"constant splitting lambda = kappa + C violated by {split_gap:.3g}"
        )
    einstein_by_restricted = bool(
        all(s < tol.tol_eig for s in restricted_spread) and kappa_spread < tol.tol_const
    )
    agree = einstein_by_spectrum == einstein_by_restricted
    if not agree:
        warnings.append("spectral and restricted-Ricci routes disagree")

    code = EXIT_EINSTEIN if einstein_by_spectrum else EXIT_NOT_EINSTEIN
    return _verdict(code, einstein_by_spectrum, einstein_by_restricted, agree)
