"""The helper scripts run end to end."""

import hashlib
import pathlib
import subprocess
import sys

from einlocus import SamplingConfig, make_builtin, verdict
from einlocus.bundles import DEFAULT_SUITE

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


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
    cases = DEFAULT_SUITE + (("cpn", 6), ("quadric", 4), ("toric-fs", 4))
    assert len(lines) == len(cases) == 13
    for line, (name, n) in zip(lines, cases):
        bundle = make_builtin(name, n)
        report = verdict(bundle, SamplingConfig(4, 4, seed=0))
        digests = [hashlib.sha256(r.encode()).hexdigest() for r in (report.to_json(), report.to_text())]
        assert line.split() == [bundle.label, "0", *digests]
