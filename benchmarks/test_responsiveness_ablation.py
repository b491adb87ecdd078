"""Motivation benchmark: GUESSTIMATE vs the consistency extremes.

The paper's positioning (sections 1/8): one-copy serializability is
consistent but slow to issue; unsynchronized replication is instant but
inconsistent; GUESSTIMATE issues instantly *and* agrees, surfacing
conflicts through completions.
"""

from repro.evalkit.experiments import responsiveness


def test_responsiveness_ablation(report):
    result = responsiveness.run(users=5, n_ops=300, seed=17)
    report(responsiveness.format_report(result))

    guesstimate = result.row("guesstimate")
    serializable = result.row("one-copy serializable")
    unsynchronized = result.row("unsynchronized replicas")
    lww = result.row("last-writer-wins")

    # Issue latency: guesstimate ~0, serializable pays the network.
    assert guesstimate.mean_issue_latency < 0.001
    assert serializable.mean_issue_latency > 10 * max(
        guesstimate.mean_issue_latency, 0.0005
    )

    # Agreement: guesstimate and serializable agree; unsynchronized
    # replicas drift apart.
    assert guesstimate.agreement
    assert serializable.agreement
    assert not unsynchronized.agreement

    # LWW converges but only by discarding updates wholesale.
    assert lww.agreement
    assert lww.anomaly_count > 0
