"""Figure 5 benchmark: sync-time distribution, 8 users, one hour.

Paper: most synchronizations within 0.5 s; exactly 2 outliers above
12 s, both fault recoveries.
"""

from repro.evalkit.experiments import fig5


def test_fig5_distribution(report):
    result = fig5.run(users=8, duration=3600.0, seed=42)
    report(fig5.format_report(result))

    # Shape assertions (the paper's claims).
    assert result.fraction_within_half_second > 0.95
    assert len(result.outliers) == 2
    assert all(value > 12.0 for value in result.outliers)
    assert result.restarts == 2
    assert result.median < 0.5
    # Plenty of synchronizations in an hour at ~1 Hz.
    assert len(result.durations) > 2000
