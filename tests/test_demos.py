"""Every demo script runs to completion against the package in src/, under
-W error: any warning fails a demo, as pytest's filterwarnings makes the
warnings it lists fail a test."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script):
    result = run_python("-W", "error", str(script))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
