"""Command-line driver: verify a manifold bundle, list built-ins, explain checks.

Exit codes follow the verification contract: 0 Einstein, 2 not Einstein,
3 hypotheses failed, 4 numerical degeneracy, 1 usage or I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bundles import list_builtins, make_builtin
from .errors import EinlocusError, SpecFormatError
from .locus import RANK_TOL
from .metrics import HERMITIAN_TOL
from .sampling import SamplingConfig
from .specfile import load_spec
from .verify import EXIT_USAGE, Tolerances, verdict

CHECK_EXPLANATIONS = {
    "metric_hermitian": (
        "max |c(alpha, beta) - conj c(beta, alpha)| / (1 + max |c|) of the potential's "
        "jet in (z, zbar) at each ambient sample, before its real part is taken; 0 "
        "for a black-box potential",
        "a real potential has a Hermitian jet, so the defect is roundoff; a value "
        f"well above it, yet under the real_potential gate's {HERMITIAN_TOL:g}, flags a small "
        "imaginary part that the metric drops; reported, not gated",
    ),
    "real_potential": (
        "indicator: 1 when the potential's jet in (z, zbar) is not Hermitian: some "
        f"|c(alpha, beta) - conj c(beta, alpha)| above {HERMITIAN_TOL:g} (1 + its largest |c|)",
        "a Kahler potential is real-valued; a complex one defines no Hermitian "
        "metric, so the run stops at the first such point",
    ),
    "map_present": (
        "indicator: 1 when the bundle declares no map",
        "the criterion is about the fixed locus of an anti-holomorphic map; "
        "without a map the run stops after the chart checks",
    ),
    "antiholomorphy": (
        "operator norm of Df J + J Df",
        "a map is anti-holomorphic exactly when its differential anti-commutes "
        "with the complex structure; the residual is zero for such maps",
    ),
    "involution": (
        "|f(f(p)) - p|",
        "declared involutions must return every sampled point",
    ),
    "isometry": (
        "||Df^T G(f(p)) Df - G(p)|| / ||G(p)||",
        "the map must preserve the Riemannian metric; for an anti-holomorphic "
        "map this follows from pulling the Kahler form back to its negative",
    ),
    "anti_isometry": (
        "||Df^T W(f(p)) Df + W(p)|| / ||W(p)||",
        "pullback of the Kahler form equals minus the form; implies isometry",
    ),
    "potential_invariance": (
        "|psi(f(p)) - psi(p)|",
        "an invariant chart potential forces the pullback form to be the "
        "negated original, hence the map to be an isometry",
    ),
    "ambient_einstein": (
        "max_p ||Ric - lambda g||_F / ||g||_F with lambda the median Ric/g ratio",
        "the ambient metric must satisfy Ric = lambda g before the locus "
        "criterion means anything",
    ),
    "locus_fixed": (
        "|f(param(t)) - param(t)|",
        "the declared parametrization must actually land on the fixed locus",
    ),
    "locus_rank": (
        f"indicator: 1 when the smallest singular value of d(param)/dt drops below "
        f"{RANK_TOL:g}, or when the locus has m != n parameters (no locus sampled)",
        "the locus must be a half-dimensional submanifold; rank defects "
        "invalidate the frame construction (the singular values themselves "
        "appear under checks), and with m != n the frame's J-image cannot "
        "span the normal space",
    ),
    "locus_rank_smallest_sv": (
        "smallest singular value of d(param)/dt at each locus sample",
        "the values behind the locus_rank indicator; near zero the "
        "parametrization loses rank and the frame is undefined",
    ),
    "locus_present": (
        "indicator: 1 when the bundle declares no locus parametrization",
        "the trace operator is evaluated on a parametrized fixed locus; "
        "without one the run stops after the ambient checks",
    ),
    "totally_real": (
        "max_ab |G(e_a, J e_b)| plus frame rank defect",
        "the tangent space of the locus must meet its J-image orthogonally "
        "and jointly span the ambient tangent space",
    ),
    "totally_geodesic": (
        "max_ab ||normal part of nabla_{e_a} e_b||_G",
        "the second fundamental form must vanish so ambient and induced "
        "curvature agree along the locus",
    ),
    "second_fundamental_form": (
        "max_ab ||normal part of nabla_{e_a} e_b||_G at each locus sample",
        "the per-point values whose maximum is gated as totally_geodesic",
    ),
    "lagrangian": (
        "max_ab |w(e_a, e_b)|",
        "the Kahler form restricts to zero on the fixed locus of an "
        "isometric anti-holomorphic map; reported, not gated",
    ),
    "trace_route_agreement": (
        "entrywise gap between the two trace-operator evaluations",
        "the projected-curvature route and the scalar curvature-sum route "
        "compute the same operator; disagreement flags an assembly bug",
    ),
    "restricted_einstein_spread": (
        "||R - kappa Id||_F / max(1, |kappa|) with R = Ric - sum_a Rm(J e_a, ., ., J e_a) "
        "on the frame and kappa = tr R / n",
        "the restricted-Ricci route's own Einstein test of the induced metric; "
        "its verdict must agree with the spectral route",
    ),
    "eigenvalue_spread": (
        "(max - min eigenvalue) / max(1, |mean|) of the symmetrized operator",
        "the trace operator must be -C times the identity: symmetric, with a "
        "single eigenvalue, and C constant across sampled points",
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser():
    parser = _Parser(prog="einlocus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the verification pipeline on a manifold")
    v.add_argument("--manifold", required=True, help="builtin name or path to a spec JSON file")
    v.add_argument("--n", type=int, default=2, help="complex dimension for built-ins")
    v.add_argument("--samples", type=int, default=50, help="sample count (ambient and locus)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol-eig", type=float, default=None, help="eigenvalue spread tolerance")
    v.add_argument("--tol-sym", type=float, default=None, help="symmetry defect tolerance")
    v.add_argument("--tol-const", type=float, default=None, help="constancy tolerance for C")
    v.add_argument("--report", choices=("text", "json"), default="text")
    v.add_argument("--out", default=None, help="write the report to this path")

    sub.add_parser("list-builtins", help="list built-in manifolds")

    e = sub.add_parser("explain", help="explain what a check measures")
    e.add_argument("check", nargs="?", default=None)
    return parser


def _resolve_bundle(args):
    spec = args.manifold
    if os.path.sep in spec or spec.endswith(".json") or os.path.exists(spec):
        return load_spec(spec)
    return make_builtin(spec, args.n)


def _cmd_verify(args):
    overrides = []
    if args.tol_eig is not None:
        overrides.append(("tol_eig", args.tol_eig))
    if args.tol_sym is not None:
        overrides.append(("tol_sym", args.tol_sym))
    if args.tol_const is not None:
        overrides.append(("tol_const", args.tol_const))
    try:
        bundle = _resolve_bundle(args)
        config = SamplingConfig(
            ambient_samples=args.samples,
            locus_samples=args.samples,
            seed=args.seed,
            tolerance_overrides=tuple(overrides),
        )
        Tolerances().with_overrides(overrides)  # a NaN or negative flag is a usage error
    except (SpecFormatError, KeyError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = verdict(bundle, config)
    except EinlocusError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    rendered = report.to_json() if args.report == "json" else report.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as err:
            print(f"error: cannot write report: {err}", file=sys.stderr)
            return EXIT_USAGE
        status = report.data["verdict"]["status"]
        print(f"{bundle.label}: {status} (exit {report.exit_code}); report written to {args.out}")
    else:
        sys.stdout.write(rendered)
    return report.exit_code


def _cmd_list_builtins(_args):
    for item in list_builtins():
        lo, hi = item["n_range"]
        print(f"{item['name']:<12} n in [{lo}, {hi}]  {item['description']}")
    return 0


def _cmd_explain(args):
    if args.check is None:
        for name, (formula, meaning) in CHECK_EXPLANATIONS.items():
            print(f"{name:<26} {formula}")
        print("\nuse `einlocus explain <check>` for details")
        return 0
    if args.check not in CHECK_EXPLANATIONS:
        print(f"error: unknown check {args.check!r}", file=sys.stderr)
        return EXIT_USAGE
    formula, meaning = CHECK_EXPLANATIONS[args.check]
    print(f"{args.check}\n  measures: {formula}\n  why: {meaning}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "list-builtins":
        return _cmd_list_builtins(args)
    if args.command == "explain":
        return _cmd_explain(args)
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
