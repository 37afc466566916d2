"""CLI: exit codes, report output, determinism."""

import json
import warnings

import pytest

from einlocus import (
    AntiholoMap,
    ManifoldBundle,
    PotentialChart,
    SamplingConfig,
    builtin_cpn,
    make_builtin,
    save_spec,
    verdict,
)
from einlocus.bundles import DEFAULT_SUITE
from einlocus.cli import CHECK_EXPLANATIONS, main
from einlocus.specfile import bundle_to_dict


def _cpn1_spec_with_potential(tmp_path, potential, name):
    data = bundle_to_dict(builtin_cpn(1))
    data["potential"] = potential
    data["name"] = name
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(data))
    return spec


def test_verify_builtin_einstein(capsys):
    code = main(["verify", "--manifold", "cpn", "--n", "1", "--samples", "8", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: einstein" in out


def test_verify_json_report_deterministic(tmp_path, capsys):
    args = [
        "verify", "--manifold", "flat-torus", "--n", "1",
        "--samples", "8", "--seed", "5", "--report", "json",
    ]
    code1 = main(args + ["--out", str(tmp_path / "a.json")])
    code2 = main(args + ["--out", str(tmp_path / "b.json")])
    capsys.readouterr()
    assert code1 == code2 == 0
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    assert a == b
    data = json.loads(a)
    assert data["verdict"]["status"] == "einstein"
    assert data["schema_version"] == 4


def test_verify_spec_file(tmp_path, capsys):
    spec = tmp_path / "cpn1.json"
    save_spec(builtin_cpn(1), spec)
    code = main(["verify", "--manifold", str(spec), "--samples", "8", "--seed", "1"])
    capsys.readouterr()
    assert code == 0


def test_exit_code_hypotheses_failed(tmp_path, capsys):
    data = bundle_to_dict(builtin_cpn(1))
    data["map"]["components"] = [["*", 2, ["conj", "w1"]]]
    data["map"]["involution"] = False
    data["name"] = "nonisometric"
    spec = tmp_path / "bad_map.json"
    spec.write_text(json.dumps(data))
    code = main(["verify", "--manifold", str(spec), "--samples", "10", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 3
    assert "hypotheses-failed" in out
    assert "[FAIL] isometry" in out


def test_exit_code_not_einstein(tmp_path, capsys):
    data = {
        "schema_version": 1,
        "name": "product",
        "dimension": 3,
        "potential": ["+",
            ["*", 2, ["log", ["+", 1, ["abs2", "w1"]]]],
            ["*", 3, ["log", ["+", 1, ["abs2", "w2"], ["abs2", "w3"]]]]],
        "domain": {"box": [[-1.0, 1.0]] * 6},
        "map": {"components": [["conj", "w1"], ["conj", "w2"], ["conj", "w3"]],
                "involution": True},
        "locus": {"components": ["t1", "t2", "t3"], "box": [[-1.0, 1.0]] * 3},
        "c1_sign": "positive",
    }
    spec = tmp_path / "product.json"
    spec.write_text(json.dumps(data))
    code = main(["verify", "--manifold", str(spec), "--samples", "8", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 2
    assert "not-einstein" in out


def test_exit_code_degenerate(tmp_path, capsys):
    # a domain predicate that rejects everything leaves nothing to verify
    data = bundle_to_dict(builtin_cpn(1))
    data["domain"]["predicate"] = ["-", 0, 1]
    data["name"] = "empty-domain"
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps(data))
    code = main(["verify", "--manifold", str(spec), "--samples", "6", "--seed", "1"])
    capsys.readouterr()
    assert code == 4


def test_complex_potential_fails_a_named_hypothesis(tmp_path, capsys):
    # I |w|^2 is not real-valued: a failed hypothesis, not a usage error
    spec = _cpn1_spec_with_potential(tmp_path, ["*", "I", ["abs2", "w1"]], "imaginary")
    code = main(["verify", "--manifold", str(spec), "--samples", "8", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "[FAIL] real_potential" in out
    assert "hypotheses-failed" in out


def test_overflowing_potential_is_degenerate(tmp_path, capsys):
    # exp(1000 |w|^2) overflows at default samples: a degenerate run with a
    # named warning, neither a traceback nor a flood of numpy warnings
    spec = _cpn1_spec_with_potential(
        tmp_path, ["exp", ["*", 1000, ["abs2", "w1"]]], "overflowing"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--manifold", str(spec)])
    out = capsys.readouterr().out
    assert code == 4
    assert "warning: numerical failure (FloatingPointError)" in out


def test_exit_code_usage_errors(tmp_path, capsys):
    assert main(["verify"]) == 1  # missing --manifold
    capsys.readouterr()
    assert main(["verify", "--manifold", "no-such-builtin"]) == 1
    capsys.readouterr()
    assert main(["verify", "--manifold", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["verify", "--manifold", str(bad)]) == 1
    capsys.readouterr()


def test_unknown_tolerance_in_spec_is_a_usage_error(tmp_path, capsys):
    data = bundle_to_dict(builtin_cpn(1))
    data["tolerances"] = {"no_such": 1.0}
    spec = tmp_path / "unknown-tolerance.json"
    spec.write_text(json.dumps(data))
    assert main(["verify", "--manifold", str(spec), "--samples", "4"]) == 1
    err = capsys.readouterr().err
    assert "no_such" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
def test_negative_samples_or_seed_is_a_usage_error(flag, capsys):
    assert main(["verify", "--manifold", "cpn", "--n", "1", flag, "-1"]) == 1
    err = capsys.readouterr().err
    message = {"--samples": "must be at least 2", "--seed": "must be non-negative"}[flag]
    assert message in err and "Traceback" not in err


def test_seed_past_the_halton_index_range_is_a_usage_error(capsys):
    # the Halton index would overflow int64: a usage error, not a degenerate
    # manifold (exit 4), and no report is printed
    seed = "9200000000000000000"
    assert main(["verify", "--manifold", "cpn", "--n", "1", "--samples", "3", "--seed", seed]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"seed {seed} is too large" in err and "Traceback" not in err


@pytest.mark.parametrize("samples", ["0", "1"])
def test_too_few_samples_is_a_usage_error(samples, capsys):
    # no sample is rejected here, so this is not a degenerate manifold (exit 4)
    assert main(["verify", "--manifold", "cpn", "--n", "1", "--samples", samples]) == 1
    err = capsys.readouterr().err
    assert "ambient_samples must be at least 2" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value", [("--tol-eig", "nan"), ("--tol-sym", "-1e-3"), ("--tol-const", "inf")]
)
def test_non_finite_or_negative_tolerance_flag_is_a_usage_error(flag, value, capsys):
    assert main(["verify", "--manifold", "cpn", "--n", "1", "--samples", "4", f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert "finite and non-negative" in err and "Traceback" not in err


def _cpn2_spec(tmp_path, edit):
    data = bundle_to_dict(builtin_cpn(2))
    edit(data)
    spec = tmp_path / "edited.json"
    spec.write_text(json.dumps(data))
    return str(spec)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["locus"].update(components=[0, 0], box=[]),
        lambda d: d.update(tolerances={"tol_eig": float("nan")}),
        lambda d: d.update(tolerances={"gate_isometry": -1.0}),
        lambda d: d["domain"]["box"].__setitem__(0, [float("-inf"), 1.0]),
        lambda d: d["locus"]["box"].__setitem__(1, [-0.5, float("inf")]),
    ],
    ids=["empty-locus-box", "nan-tolerance", "negative-tolerance", "infinite-box", "infinite-locus-box"],
)
def test_malformed_spec_numbers_are_usage_errors(tmp_path, edit, capsys):
    # Python's json writes and reads NaN and Infinity, so such a spec parses
    assert main(["verify", "--manifold", _cpn2_spec(tmp_path, edit), "--samples", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_locus_of_the_wrong_dimension_fails_locus_rank(tmp_path, capsys):
    # a curve in CP^2 is not half-dimensional: N = J E cannot span the normal space
    spec = _cpn2_spec(tmp_path, lambda d: d["locus"].update(components=["t1", 0], box=[[-1, 1]]))
    assert main(["verify", "--manifold", spec, "--samples", "4"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] locus_rank" in out and "m = 1" in out and "n = 2" in out


def test_explain_locus_rank_names_the_wrong_dimension(capsys):
    assert main(["explain", "locus_rank"]) == 0
    assert "m != n parameters" in capsys.readouterr().out


def test_list_builtins(capsys):
    assert main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    for name in ("cpn", "quadric", "flat-torus", "toric-fs", "toric-flat"):
        assert name in out


def test_explain(capsys):
    assert main(["explain"]) == 0
    out = capsys.readouterr().out
    assert "totally_geodesic" in out
    assert main(["explain", "isometry"]) == 0
    out = capsys.readouterr().out
    assert "measures" in out
    assert main(["explain", "bogus"]) == 1


def test_explain_quotes_the_cuts_it_names(capsys):
    from einlocus.locus import RANK_TOL
    from einlocus.metrics import HERMITIAN_TOL

    for check, cut in [
        ("metric_hermitian", HERMITIAN_TOL), ("real_potential", HERMITIAN_TOL), ("locus_rank", RANK_TOL),
    ]:
        assert main(["explain", check]) == 0
        assert f"{cut:g}" in capsys.readouterr().out, check


def _failure_shapes():
    """Bundles that end away from the Einstein verdict: a not-Einstein
    product, failed ambient-Einstein and isometry gates, a missing map or
    locus, and the two numerical stops."""
    cpn2 = builtin_cpn(2)
    flat = PotentialChart(
        2,
        ("+", ("abs2", "w1"), ("abs2", "w2"), ("*", 0.1, ("pow", ("abs2", "w1"), 2))),
        ((-0.8, 0.8),) * 4,
        label="perturbed-flat",
    )
    product = PotentialChart(
        3,
        (
            "+",
            ("*", 2, ("log", ("+", 1, ("abs2", "w1")))),
            ("*", 3, ("log", ("+", 1, ("abs2", "w2"), ("abs2", "w3")))),
        ),
        ((-1.0, 1.0),) * 6,
        label="product",
    )
    contracted = AntiholoMap((("*", 0.5, ("conj", "w1")), ("*", 0.5, ("conj", "w2"))))
    cpn1 = builtin_cpn(1)
    shapes = [
        ManifoldBundle(product, builtin_cpn(3).mapping, builtin_cpn(3).locus, label="product"),
        ManifoldBundle(flat, cpn2.mapping, cpn2.locus, c1_sign="zero", label="perturbed"),
        ManifoldBundle(cpn2.chart, contracted, cpn2.locus, label="contracted"),
        ManifoldBundle(cpn2.chart, None, cpn2.locus, label="no-map"),
        ManifoldBundle(cpn2.chart, cpn2.mapping, None, label="no-locus"),
    ]
    for psi in (("*", "I", ("abs2", "w1")), ("exp", ("*", 1000, ("abs2", "w1")))):
        chart = PotentialChart(1, psi, cpn1.chart.box, label="numeric")
        shapes.append(ManifoldBundle(chart, cpn1.mapping, cpn1.locus, label="numeric"))
    return shapes


def test_explain_covers_every_report_key():
    bundles = [make_builtin(name, n) for name, n in DEFAULT_SUITE] + _failure_shapes()
    emitted, per_point, codes = set(), set(), set()
    for bundle in bundles:
        data = verdict(bundle, SamplingConfig(8, 6, seed=1)).data
        emitted |= set(data["checks"]) | set(data["hypotheses"])
        per_point |= {key for point in data["spectral"]["per_point"] for key in point}
        codes.add(data["verdict"]["exit_code"])
    assert codes == {0, 2, 3, 4}
    assert {"map_present", "locus_present", "real_potential"} <= emitted
    assert sorted(emitted - set(CHECK_EXPLANATIONS)) == []
    # and every entry names a key some report emits, indicator hypotheses
    # included; eigenvalue_spread explains a field of spectral.per_point
    assert sorted(set(CHECK_EXPLANATIONS) - emitted) == ["eigenvalue_spread"]
    assert "eigenvalue_spread" in per_point


def test_tolerance_flags(capsys):
    code = main([
        "verify", "--manifold", "cpn", "--n", "1", "--samples", "6",
        "--seed", "1", "--tol-eig", "1e-3", "--tol-sym", "1e-3", "--tol-const", "1e-3",
        "--report", "json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["config"]["tolerances"]["tol_eig"] == 1e-3
    assert data["config"]["tolerances"]["tol_sym"] == 1e-3
    assert data["config"]["tolerances"]["tol_const"] == 1e-3
