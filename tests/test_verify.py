import pytest

from embedlab.verify import ALL_CHECKS, format_report, run_all, run_check


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_check_passes(check):
    result = run_check(check, seed=0)
    assert result.passed, f"{result.name}: {result.detail}"


def test_report_deterministic():
    a = format_report(run_all(seed=0))
    b = format_report(run_all(seed=0))
    assert a == b
    assert a.endswith("checks passed\n")
