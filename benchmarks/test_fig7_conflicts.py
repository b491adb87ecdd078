"""Figure 7 benchmark: conflicts vs number of users.

Paper: adding one user per 100 synchronizations from 2 to 8, conflicts
(issue-succeeded, commit-failed) stay rare throughout.
"""

from repro.evalkit.experiments import fig7


def test_fig7_conflicts(report):
    result = fig7.run(start_users=2, max_users=8, rounds_per_window=100)
    report(fig7.format_report(result))

    assert result.user_counts == list(range(2, 9))
    # Conflicts are rare: a handful per 100-sync window, and a small
    # fraction of all issued operations.
    assert all(count <= 10 for count in result.conflicts_per_window)
    assert result.total_conflicts / result.total_issued < 0.10
    # And they trend upward with contention: the later (more-user)
    # windows see at least as many conflicts as the earliest window.
    first_half = sum(result.conflicts_per_window[:3])
    second_half = sum(result.conflicts_per_window[-3:])
    assert second_half >= first_half
