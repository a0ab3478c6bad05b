"""Acceptance gate: the twelve validation criteria.

Each test runs one numbered check from ``vdwpair.validate`` at its stated
tolerance and prints a single ``[PASS]``/``[FAIL]`` line to the live
terminal (bypassing pytest's capture) so the gate is auditable from the
test log.
"""

import pytest

from vdwpair.validate import CHECKS, ORACLE_CHECKS


def _ids():
    return [f"criterion_{i + 1:02d}" for i in range(len(CHECKS))]


@pytest.mark.parametrize("check", CHECKS, ids=_ids())
def test_acceptance_criterion(check, capsys):
    result = check()
    with capsys.disabled():
        print()
        print(result.line())
        if result.details:
            print(f"    {result.details}")
    assert result.passed, result.line()


def test_gate_has_twelve_criteria():
    assert len(CHECKS) == 12


def test_force_oracle_check(capsys):
    """Check 13, which ``vdwpair validate`` runs after the twelve criteria."""
    (check,) = ORACLE_CHECKS
    result = check()
    with capsys.disabled():
        print()
        print(result.line())
        print(f"    {result.details}")
    assert result.number == 13
    assert result.passed, result.line()
