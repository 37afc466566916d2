"""Spec file format: round trips, validation errors, gating."""

import json

import pytest

from einlocus import (
    SpecFormatError,
    UnknownPrimitiveError,
    builtin_cpn,
    builtin_quadric,
    load_spec,
    save_spec,
    verdict,
)
from einlocus.sampling import SamplingConfig
from einlocus.specfile import SCHEMA_VERSION, bundle_from_dict, bundle_to_dict
from einlocus.verify import EXIT_HYPOTHESES_FAILED, Tolerances


def test_round_trip_identical_report(tmp_path):
    bundle = builtin_cpn(2)
    path = tmp_path / "cpn2.json"
    save_spec(bundle, path)
    loaded = load_spec(path)
    config = SamplingConfig(10, 8, seed=21)
    original = verdict(bundle, config)
    reloaded = verdict(loaded, config)
    assert original.to_json() == reloaded.to_json()


def test_round_trip_quadric(tmp_path):
    bundle = builtin_quadric(2)
    path = tmp_path / "q.json"
    save_spec(bundle, path)
    loaded = load_spec(path)
    assert loaded.chart.domain == bundle.chart.domain
    assert loaded.locus.box == bundle.locus.box
    assert loaded.c1_sign == "positive"


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1,\n  "dimension": }')
    with pytest.raises(SpecFormatError) as err:
        load_spec(path)
    assert err.value.line == 2


def test_unknown_primitive_rejected():
    data = bundle_to_dict(builtin_cpn(1))
    data["potential"] = ["sin", "w1"]
    with pytest.raises(UnknownPrimitiveError):
        bundle_from_dict(data)


def test_unknown_identifier_rejected():
    data = bundle_to_dict(builtin_cpn(1))
    data["potential"] = ["abs2", "w7"]
    with pytest.raises(UnknownPrimitiveError):
        bundle_from_dict(data)


def test_schema_version_mismatch():
    data = bundle_to_dict(builtin_cpn(1))
    data["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(SpecFormatError, match="schema-version mismatch"):
        bundle_from_dict(data)


def test_missing_required_keys():
    with pytest.raises(SpecFormatError, match="dimension"):
        bundle_from_dict({"schema_version": 1, "potential": ["abs2", "w1"]})
    with pytest.raises(SpecFormatError, match="box"):
        bundle_from_dict(
            {"schema_version": 1, "dimension": 1, "potential": ["abs2", "w1"], "domain": {}}
        )


def test_missing_locus_yields_hypothesis_failure():
    data = bundle_to_dict(builtin_cpn(1))
    data["locus"] = None
    bundle = bundle_from_dict(data)
    report = verdict(bundle, SamplingConfig(6, 5, seed=1))
    code = report.exit_code
    assert code == EXIT_HYPOTHESES_FAILED
    assert not report.data["hypotheses"]["locus_present"]["passed"]


def test_missing_map_yields_hypothesis_failure():
    data = bundle_to_dict(builtin_cpn(1))
    data["map"] = None
    bundle = bundle_from_dict(data)
    report = verdict(bundle, SamplingConfig(6, 5, seed=1))
    code = report.exit_code
    assert code == EXIT_HYPOTHESES_FAILED
    assert not report.data["hypotheses"]["map_present"]["passed"]


def test_tolerance_overrides_flow_into_report(tmp_path):
    data = bundle_to_dict(builtin_cpn(1))
    data["tolerances"] = {"tol_eig": 1e-3}
    bundle = bundle_from_dict(data)
    report = verdict(bundle, SamplingConfig(6, 5, seed=2))
    assert report.data["config"]["tolerances"]["tol_eig"] == 1e-3
    # an unknown name is a spec error; through the API it stays a KeyError.
    # A tolerance the report no longer has (report schemas 2 and 3) is
    # unknown too, so an old spec that sets it fails loudly instead of being
    # ignored
    for name in ("no_such", "report_anti_isometry", "report_lagrangian"):
        data["tolerances"] = {name: 1.0}
        with pytest.raises(SpecFormatError, match=name):
            bundle_from_dict(data)
        with pytest.raises(KeyError):
            verdict(bundle, SamplingConfig(6, 5, seed=2, tolerance_overrides=((name, 1.0),)))


def test_spec_file_is_sorted_json(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(builtin_cpn(1), path)
    text = path.read_text()
    assert json.loads(text)["schema_version"] == SCHEMA_VERSION
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_tolerance_overrides_must_be_finite_and_non_negative():
    data = bundle_to_dict(builtin_cpn(2))
    for value in (float("nan"), float("inf"), -1e-3, True, "1e-3"):
        data["tolerances"] = {"tol_eig": value}
        with pytest.raises(SpecFormatError, match="tol_eig"):
            bundle_from_dict(data)
    data["tolerances"] = {"tol_eig": 0}
    assert bundle_from_dict(data).tolerance_overrides == (("tol_eig", 0),)
    for value in (float("nan"), float("-inf"), -1.0):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Tolerances().with_overrides([("tol_eig", value)])


def test_box_bounds_must_be_finite():
    for block, index in (("domain", 0), ("locus", 1)):
        for bound in (float("-inf"), float("nan"), 10**400):
            data = bundle_to_dict(builtin_cpn(2))
            data[block]["box"][index] = [bound, 1.0]
            with pytest.raises(SpecFormatError, match="finite bounds"):
                bundle_from_dict(data)


def test_locus_box_must_list_a_pair():
    data = bundle_to_dict(builtin_cpn(2))
    data["locus"] = {"components": [0, 0], "box": []}
    with pytest.raises(SpecFormatError, match="at least one"):
        bundle_from_dict(data)

