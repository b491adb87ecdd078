"""Section 7 benchmark: failure and automatic recovery over one hour.

Paper: three failures in the hour — one machine restart and two
stalled synchronizations — all recovered automatically, without other
users noticing.
"""

from repro.evalkit.experiments import recovery


def test_recovery_hour(report):
    result = recovery.run(duration=3600.0, users=8, seed=13)
    report(recovery.format_report(result))

    assert result.failures_injected == 3
    assert result.resend_recoveries == 1  # "once by resending"
    assert result.removal_recoveries == 2  # "twice by removing ... restart"
    assert result.restarts == 2
    assert result.machines_active_at_end == 8
    assert result.users_unaware
    assert result.converged
