"""The full verification pipeline: hypotheses, residuals, verdict, report.

Order of evaluation mirrors the logical dependency of the Einstein
criterion: chart sanity, anti-holomorphy and isometry of the map, the
ambient Einstein residual, the locus checks (fixed, rank, totally real,
vanishing second fundamental form, Lagrangian), then the trace operator
with its spectral test, cross-validated against the restricted-Ricci route.

Exit codes: 0 the locus metric is Einstein at all sampled points, 2 it is
not, 3 a hypothesis gate failed, 4 the run was numerically degenerate,
1 usage or I/O errors (CLI only).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .antiholo import (
    admitted_image,
    anti_isometry_residual,
    antiholomorphy_residual,
    fixed_locus_residual,
    involution_residual,
    isometry_residual,
    potential_invariance_residual,
)
from .bundles import ManifoldBundle
from .criterion import (
    DEFAULT_TOL_CONST,
    DEFAULT_TOL_EIG,
    DEFAULT_TOL_SYM,
    map_normal_projector,
    spectral_test,
    trace_operator_at,
)
from .errors import (
    ChartDomainError,
    DegenerateMetricError,
    NonAnalyticFieldError,
    RankDeficiencyError,
)
from .locus import lagrangian_residual, locus_geometry, locus_point, totally_real_residual
from .metrics import einstein_residual
from .sampling import SamplingConfig, sample_chart_points, sample_parameters

EXIT_EINSTEIN = 0
EXIT_USAGE = 1
EXIT_NOT_EINSTEIN = 2
EXIT_HYPOTHESES_FAILED = 3
EXIT_DEGENERATE = 4

REPORT_SCHEMA_VERSION = 1

_STATUS_BY_EXIT = {
    EXIT_EINSTEIN: "einstein",
    EXIT_NOT_EINSTEIN: "not-einstein",
    EXIT_HYPOTHESES_FAILED: "hypotheses-failed",
    EXIT_DEGENERATE: "degenerate",
}


@dataclass(frozen=True)
class Tolerances:
    """All pass/fail thresholds; every field can be overridden per run."""

    tol_sym: float = DEFAULT_TOL_SYM
    tol_eig: float = DEFAULT_TOL_EIG
    tol_const: float = DEFAULT_TOL_CONST
    gate_antiholo: float = 1e-10
    gate_involution: float = 1e-10
    gate_isometry: float = 1e-8
    gate_ambient_einstein: float = 1e-6
    gate_locus_fixed: float = 1e-10
    gate_totally_real: float = 1e-7
    gate_geodesic: float = 1e-6
    report_lagrangian: float = 1e-7
    report_anti_isometry: float = 1e-8
    report_cross_route: float = 1e-8

    def with_overrides(self, pairs):
        known = {f.name for f in fields(self)}
        updates = {}
        for name, value in pairs:
            if name not in known:
                raise KeyError(f"unknown tolerance {name!r}")
            updates[name] = float(value)
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


def _hypothesis(results, name, worst, tol, skip_gate=False):
    passed = True if worst is None else bool(worst <= tol)
    results[name] = {"passed": passed, "worst": worst, "tolerance": tol}
    return passed or skip_gate


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
            "margin": config.margin,
            "tolerances": {f.name: getattr(tol, f.name) for f in fields(tol)},
        },
        "differentiation": "exact-jets" if chart.is_exact else "finite-difference-low-precision",
        "verified_domain": {
            "ambient_box": [list(s) for s in chart.box],
            "locus_box": [list(s) for s in bundle.locus.box] if bundle.locus else None,
            "margin": config.margin,
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

    def finish(exit_code, einstein=False, by_spectrum=None, by_restricted=None, agree=None):
        report["verdict"] = {
            "einstein": bool(einstein),
            "einstein_by_spectrum": by_spectrum,
            "einstein_by_restricted_ricci": by_restricted,
            "routes_agree": agree,
            "status": _STATUS_BY_EXIT[exit_code],
            "exit_code": exit_code,
        }
        return VerificationReport(report)

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _stages(bundle, config, tol, report, finish)
    except NonAnalyticFieldError as err:
        _hypothesis(report["hypotheses"], "real_potential", 1.0, 0.0)
        report["warnings"].append(f"potential is not real-valued: {err}")
        return finish(EXIT_HYPOTHESES_FAILED)
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        report["warnings"].append(f"numerical failure ({type(err).__name__}): {err}")
        return finish(EXIT_DEGENERATE)


def _stages(bundle, config, tol, report, finish):
    """The five stages of ``verdict``, filling ``report`` in place."""
    chart = bundle.chart
    counts = report["counts"]
    hyp = report["hypotheses"]
    checks = report["checks"]
    warnings = report["warnings"]

    # -- stage 1: chart sanity over ambient samples ------------------------------
    ambient, astats = sample_chart_points(
        chart, config.ambient_samples, seed=config.seed, margin=config.margin
    )
    counts["ambient_requested"] = astats.requested
    counts["ambient_admitted"] = astats.admitted
    counts["ambient_rejected_domain"] = astats.rejected_domain
    counts["ambient_rejected_degenerate"] = astats.rejected_degenerate
    if len(ambient) < 2:
        warnings.append("fewer than 2 admissible ambient points")
        return finish(EXIT_DEGENERATE)

    checks["metric_hermitian"] = _stat([chart.geometry(p).hermitian_defect for p in ambient])

    if bundle.mapping is None:
        _hypothesis(hyp, "map_present", 1.0, 0.0)
        return finish(EXIT_HYPOTHESES_FAILED)
    mapping = bundle.mapping

    # -- stage 2: map residuals, one Jacobian and one image per ambient point ----------
    anti_res, iso_res, antiiso_res, poti_res = [], [], [], []
    escapes = 0
    for p in ambient:
        D = mapping.jacobian_real(p)
        anti_res.append(antiholomorphy_residual(mapping, p, D))
        try:
            image = admitted_image(mapping, chart, p)
            iso = isometry_residual(mapping, chart, p, D, image=image)
            antiiso = anti_isometry_residual(mapping, chart, p, D, image=image)
        except (ChartDomainError, DegenerateMetricError, ZeroDivisionError):
            escapes += 1
            continue
        iso_res.append(iso)
        antiiso_res.append(antiiso)
        poti_res.append(potential_invariance_residual(mapping, chart, p, image=image))
    checks["antiholomorphy"] = _stat(anti_res)
    gates_ok = _hypothesis(hyp, "antiholomorphy", max(anti_res), tol.gate_antiholo)

    if mapping.declared_involution:
        inv_res = [involution_residual(mapping, p) for p in ambient]
        checks["involution"] = _stat(inv_res)
        gates_ok &= _hypothesis(hyp, "involution", max(inv_res), tol.gate_involution)

    counts["map_escapes"] = escapes
    checks["isometry"] = _stat(iso_res)
    checks["anti_isometry"] = _stat(antiiso_res)
    checks["potential_invariance"] = _stat(poti_res)
    if not iso_res:
        warnings.append("map image escaped the chart at every sample")
        return finish(EXIT_HYPOTHESES_FAILED if not gates_ok else EXIT_DEGENERATE)
    gates_ok &= _hypothesis(hyp, "isometry", max(iso_res), tol.gate_isometry)
    _hypothesis(hyp, "anti_isometry", max(antiiso_res), tol.report_anti_isometry, skip_gate=True)
    if escapes > len(ambient) / 2:
        warnings.append("map image escaped the chart at more than half the samples")
        return finish(EXIT_HYPOTHESES_FAILED if not gates_ok else EXIT_DEGENERATE)

    # -- stage 3: ambient Einstein residual -----------------------------------------
    lam, ke_res = einstein_residual(chart, ambient)
    report["constants"]["lambda_est"] = lam
    checks["ambient_einstein"] = _stat([ke_res])
    gates_ok &= _hypothesis(hyp, "ambient_einstein", ke_res, tol.gate_ambient_einstein)
    measured_sign = "zero" if abs(lam) < 1e-6 else ("positive" if lam > 0 else "negative")
    if measured_sign != bundle.c1_sign:
        warnings.append(
            f"declared c1 sign {bundle.c1_sign!r} does not match measured lambda {lam:.3g}"
        )

    # -- stage 4: locus checks --------------------------------------------------------
    if bundle.locus is None:
        _hypothesis(hyp, "locus_present", 1.0, 0.0)
        return finish(EXIT_HYPOTHESES_FAILED)
    locus = bundle.locus

    params = sample_parameters(locus, config.locus_samples, seed=config.seed, margin=config.margin)
    lpoints = []
    counts["locus_requested"] = len(params)
    rejected, rank_deficient = 0, 0
    fixed_res, rank_sv = [], []
    for t in params:
        try:
            lg = locus_geometry(chart, locus, t)  # evaluates the parametrization, once
            lg.geom.g
        except (ChartDomainError, DegenerateMetricError, ZeroDivisionError):
            rejected += 1
            continue
        fixed_res.append(fixed_locus_residual(mapping, lg.point))
        sv = np.linalg.svd(lg.jacobian, compute_uv=False)
        rank_sv.append(float(sv[-1]))
        try:
            lpoints.append(locus_point(chart, locus, t))
        except RankDeficiencyError:
            rank_deficient += 1
    counts["locus_admitted"] = len(lpoints)
    counts["locus_rejected"] = rejected
    counts["locus_rank_deficient"] = rank_deficient
    checks["locus_fixed"] = _stat(fixed_res)
    checks["locus_rank_smallest_sv"] = _stat(rank_sv)
    if not lpoints or rejected + rank_deficient > len(params) / 2:
        # an already established gate failure is the more informative verdict
        warnings.append("locus sampling was mostly unusable")
        return finish(EXIT_HYPOTHESES_FAILED if not gates_ok else EXIT_DEGENERATE)

    gates_ok &= _hypothesis(hyp, "locus_fixed", max(fixed_res), tol.gate_locus_fixed)
    gates_ok &= _hypothesis(
        hyp, "locus_rank", 0.0 if min(rank_sv) > 1e-8 else 1.0, 0.5
    )

    treal = [totally_real_residual(lp) for lp in lpoints]
    checks["totally_real"] = _stat(treal)
    gates_ok &= _hypothesis(hyp, "totally_real", max(treal), tol.gate_totally_real)

    h_res = [lp.sff_max_norm for lp in lpoints]
    checks["second_fundamental_form"] = _stat(h_res)
    gates_ok &= _hypothesis(hyp, "totally_geodesic", max(h_res), tol.gate_geodesic)

    lag = [lagrangian_residual(lp) for lp in lpoints]
    checks["lagrangian"] = _stat(lag)
    _hypothesis(hyp, "lagrangian", max(lag), tol.report_lagrangian, skip_gate=True)

    if not gates_ok:
        return finish(EXIT_HYPOTHESES_FAILED)

    # -- stage 5: trace operator and spectral test ---------------------------------------
    point_verdicts = []
    cross_route = []
    c_values = []
    kappa_values = []
    restricted_spread = []
    for lp in lpoints:
        projector = map_normal_projector(mapping, lp.point)
        op = trace_operator_at(lp, projector=projector)
        cross_route.append(op.route_agreement)
        sv = spectral_test(op.matrix, tol_sym=tol.tol_sym, tol_eig=tol.tol_eig)
        point_verdicts.append(sv)
        c_values.append(sv.C_est)
        report["spectral"]["per_point"].append(
            {
                "t": [float(x) for x in lp.t],
                "eigenvalues": list(sv.eigenvalues),
                "symmetric_residual": sv.symmetric_residual,
                "eigenvalue_spread": sv.eigenvalue_spread,
                "C_est": sv.C_est,
                "einstein": sv.einstein,
            }
        )
        # restricted-Ricci route (the biconditional cross-check), Ric minus the
        # mixed trace -cross^T; the gates above established total geodesy
        E, nloc = lp.frame.tangent, lp.frame.n
        R_res = E @ lp.geom.Ric @ E.T + op.cross_matrix.T
        kappa_pt = float(np.trace(R_res) / nloc)
        kappa_values.append(kappa_pt)
        restricted_spread.append(
            float(np.linalg.norm(R_res - kappa_pt * np.eye(nloc)) / max(1.0, abs(kappa_pt)))
        )

    checks["trace_route_agreement"] = _stat(cross_route)
    _hypothesis(hyp, "trace_route_agreement", max(cross_route), tol.report_cross_route, skip_gate=True)
    checks["restricted_einstein_spread"] = _stat(restricted_spread)

    C_est = float(np.median(c_values))
    kappa_est = float(np.median(kappa_values))
    C_spread = float((max(c_values) - min(c_values)) / max(1.0, abs(C_est)))
    kappa_spread = float((max(kappa_values) - min(kappa_values)) / max(1.0, abs(kappa_est)))
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

    einstein_by_spectrum = bool(
        all(v.einstein for v in point_verdicts) and C_spread < tol.tol_const
    )
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
    return finish(
        code,
        einstein=einstein_by_spectrum,
        by_spectrum=einstein_by_spectrum,
        by_restricted=einstein_by_restricted,
        agree=agree,
    )


def run_verify(bundle: ManifoldBundle, config: SamplingConfig = SamplingConfig()):
    """Convenience wrapper returning (report, exit_code)."""
    report = verdict(bundle, config)
    return report, report.exit_code
