"""The helper scripts run end to end."""

import hashlib
import json
import subprocess
import sys

from einlocus import SamplingConfig, make_builtin, verdict
from einlocus.bundles import DEFAULT_SUITE

from conftest import SCRIPTS, report_digests


def test_run_builtins_writes_one_report_per_suite_bundle(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_builtins.py"), "--samples", "4", "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.glob("*.json"))) == len(DEFAULT_SUITE) == 10
    for name, n in DEFAULT_SUITE:
        bundle = make_builtin(name, n)
        written = (tmp_path / f"{bundle.label}.json").read_text()
        assert written == verdict(bundle, SamplingConfig(4, 4)).to_json(), bundle.label


def test_report_digests_prints_each_reports_sha256():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "report_digests.py"), "--samples", "4", "--seeds", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    bundles = report_digests().bundles()
    assert len(lines) == len(bundles) == 19
    exits = []
    for line, bundle in zip(lines, bundles):
        report = verdict(bundle, SamplingConfig(4, 4, seed=0))
        digests = [hashlib.sha256(r.encode()).hexdigest() for r in (report.to_json(), report.to_text())]
        assert line.split() == [bundle.label, "0", *digests]
        exits.append(report.exit_code)
    # the digests cover the suite and its three larger built-ins (exit 0),
    # the product (exit 2), two gate failures (exit 3), a callable potential,
    # a complex plane as locus (exit 3) and an overflowing lift (exit 4)
    assert exits == [0] * 13 + [2, 3, 3, 0, 3, 4]
    assert not bundles[-3].chart.is_exact


def test_report_digests_values_lists_each_reports_numbers():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "report_digests.py"), "--samples", "4", "--seeds", "0", "--values"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    listed = {}
    for line in done.stdout.splitlines():
        label, seed, key, value = line.split()
        listed.setdefault((label, int(seed)), []).append((key, value))
    bundles = report_digests().bundles()
    assert [label for label, _ in listed] == [bundle.label for bundle in bundles]
    # each line is an int or float leaf of the JSON report, at its key
    # path, with list entries by index; booleans, strings and nulls are not
    data = json.loads(verdict(bundles[0], SamplingConfig(4, 4, seed=0)).to_json())
    rows = listed[(bundles[0].label, 0)]
    for key, value in rows:
        leaf = data
        for part in key.split("."):
            leaf = leaf[int(part)] if isinstance(leaf, list) else leaf[part]
        assert type(leaf) in (int, float) and value == repr(leaf), key
    keys = [key for key, _ in rows]
    assert len(keys) == len(set(keys))
    assert {"constants.lambda_est", "spectral.per_point.0.eigenvalues.0", "verdict.exit_code"} <= set(keys)
    assert "verdict.einstein" not in keys
