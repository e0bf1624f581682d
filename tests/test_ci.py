"""The CI workflow runs the ROADMAP's Tier-1 command on Python 3.11."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_the_roadmap_tier1_command():
    yaml = pytest.importorskip("yaml")
    flow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    steps = flow["jobs"]["tier1"]["steps"]
    tier1 = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(),
                      re.M)[1]
    assert [step.get("run") for step in steps][-2:] == ['pip install -e ".[test]"', tier1]
    setup = next(step for step in steps if step.get("uses", "").startswith("actions/setup-python"))
    assert setup["with"]["python-version"] == "3.11"
