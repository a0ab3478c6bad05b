"""Acceptance gate: the twelve validation criteria and the two oracle
checks that ``vdwpair validate`` runs after them.

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


def _run_oracle_check(check, number, capsys):
    result = check()
    with capsys.disabled():
        print()
        print(result.line())
        print(f"    {result.details}")
    assert result.number == number
    assert result.passed, result.line()


def test_force_oracle_check(capsys):
    """Check 13, which ``vdwpair validate`` runs after the twelve criteria."""
    force, _ = ORACLE_CHECKS
    _run_oracle_check(force, 13, capsys)


def test_retarded_limit_check(capsys):
    """Check 14, the retarded limit of finite media, which ``vdwpair
    validate`` runs last."""
    _, retarded = ORACLE_CHECKS
    _run_oracle_check(retarded, 14, capsys)
