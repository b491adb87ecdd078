"""Section 4 benchmark: operations execute at most three times.

Paper's case analysis: 2 executions for ops issued outside the
synchronization windows, 3 for ops issued between tEndFlush and
tBeginUpdate — never more.
"""

from repro.evalkit.experiments import reexec


def test_reexecution_bound(report):
    result = reexec.run(duration=900.0, users=6, seed=3)
    report(reexec.format_report(result))

    assert result.total_ops > 500
    assert result.max_executions <= 3
    assert set(result.histogram) <= {2, 3}
    # Both cases of the paper's analysis occur in a busy session.
    assert result.histogram.get(2, 0) > 0
    assert result.histogram.get(3, 0) > 0
    assert result.fraction_twice > 0.5
