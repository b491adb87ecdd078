"""Figure 6 benchmark: average sync time vs number of users.

Paper: linear growth with user count; user activity barely matters;
extrapolated 100-user sync time within 3 seconds.
"""

from repro.evalkit.experiments import fig6
from repro.evalkit.stats import linear_fit


def test_fig6_scaling(report):
    result = fig6.run(user_counts=list(range(2, 9)), duration=300.0)
    report(fig6.format_report(result))

    # Monotone growth, roughly linear.
    assert result.active_means == sorted(result.active_means)
    slope, _intercept = linear_fit(
        [float(c) for c in result.user_counts], result.active_means
    )
    assert 0.01 < slope < 0.06  # tens of ms per user
    residuals = [
        abs(result.slope * users + result.intercept - mean)
        for users, mean in zip(result.user_counts, result.active_means)
    ]
    assert max(residuals) < 0.25 * max(result.active_means)

    # Activity on/off makes little difference (network-delay dominated).
    assert result.max_activity_gap < 0.2 * max(result.active_means)

    # The 100-user extrapolation lands inside the paper's band.
    assert result.extrapolated_100_users < 3.0
