"""The helper scripts run end to end."""

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
