"""Every demo script runs to completion against the package in src/."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script):
    result = run_python(str(script))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
