"""The CI workflow parses, and checks the frozen values that the tests check."""

import re
from pathlib import Path

import pytest

from test_gcd_sum import FROZEN_S

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def _n(text):
    """An N as the workflow writes it: digits, or 10**k."""
    base, _, exponent = text.partition("**")
    return int(base) ** int(exponent) if exponent else int(base)


def test_workflow_is_valid_yaml():
    # PyYAML is not in the test extra
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = workflow["jobs"]["tests"]["steps"]
    assert all("uses" in step or "run" in step for step in steps)


def test_workflow_values_match_the_frozen_table():
    text = WORKFLOW.read_text(encoding="utf-8")
    greps = [(int(n), int(v)) for n, v in re.findall(r'grep -Fx "S\((\d+)\) = (\d+)"', text)]
    calls = [(_n(n), int(v)) for n, v in re.findall(r"s_exact\(([\d*]+)\) != (\d+)", text)]
    assert greps and calls
    for n, value in greps + calls:
        assert FROZEN_S.get(n) == value, n
    assert {n for n, _ in greps} == set(FROZEN_S)
