"""The one place the benchmark reads the program's own counters.

``SystemMetrics``, ``NodeMetrics``, ``SyncRecord``, ``TransportStats``
and ``StorageStats`` are internal to the program and a later change may
rename or delete any of them.  Every read goes through :func:`probe`,
so a counter the program no longer exposes comes back as ``None`` —
reported as *absent*, never as zero — and never aborts a run.
"""

from __future__ import annotations

#: What a missing module, attribute, key or index looks like from outside.
_ABSENT = (ImportError, AttributeError, KeyError, IndexError, TypeError)


def probe(read):
    """``read()`` or ``None`` when the program no longer exposes it."""
    try:
        return read()
    except _ABSENT:
        return None


def _sum(items, read):
    """Sum ``read(item)`` over ``items``; absent if any read is."""
    total = 0
    for item in items:
        value = probe(lambda item=item: read(item))
        if value is None:
            return None
        total += value
    return total


def read_counters(cluster) -> dict:
    """Cumulative counters of a running cluster, absent ones as None."""
    nodes = probe(lambda: list(cluster.metrics.node_metrics.values())) or []
    transports = probe(lambda: list(cluster.transports.values())) or []
    records = probe(lambda: cluster.metrics.sync_records)
    return {
        "rounds": probe(lambda: len(records)),
        "round_resends": _sum(records or [], lambda r: r.resends),
        "round_removals": _sum(records or [], lambda r: r.removals),
        "ops_issued": _sum(nodes, lambda m: m.ops_issued),
        "ops_rejected_at_issue": _sum(nodes, lambda m: m.ops_rejected_at_issue),
        "ops_committed_ok": _sum(nodes, lambda m: m.ops_committed_ok),
        "ops_committed_failed": _sum(nodes, lambda m: m.ops_committed_failed),
        "conflicts": _sum(nodes, lambda m: m.conflicts),
        "op_batches_sent": _sum(nodes, lambda m: m.op_batches_sent),
        "decode_cache_hits": _sum(nodes, lambda m: m.decode_cache_hits),
        "decode_cache_misses": _sum(nodes, lambda m: m.decode_cache_misses),
        "refresh_rounds": _sum(nodes, lambda m: m.refresh_rounds),
        "refresh_objects_copied": _sum(nodes, lambda m: m.refresh_objects_copied),
        "wal_records": _sum(nodes, lambda m: m.storage.records_appended),
        "wal_bytes": _sum(nodes, lambda m: m.storage.bytes_appended),
        "fsyncs": _sum(nodes, lambda m: m.storage.fsyncs),
        "frames_sent": _sum(transports, lambda t: t.stats.frames_sent),
        "send_failures": _sum(transports, lambda t: t.stats.send_failures),
        "reconnects": _sum(transports, lambda t: t.stats.reconnects),
    }


def read_executions(cluster) -> dict:
    """How often each operation ran (issue, replay, commit): the paper
    bounds it by three.  Walks every op ever issued, so it is read once,
    after the measured window."""
    counts = probe(
        lambda: [
            count
            for metrics in cluster.metrics.node_metrics.values()
            for count in metrics.executions.values()
        ]
    )
    if not counts:
        return {"executions_mean": None, "executions_max": None}
    return {
        "executions_mean": sum(counts) / len(counts),
        "executions_max": max(counts),
    }


def read_rounds(cluster, since: int) -> list | None:
    """``[duration_s, ops_committed]`` of every round recorded from
    index ``since`` on, or None when the round ledger is gone."""
    return probe(
        lambda: [
            [record.duration, record.ops_committed]
            for record in cluster.metrics.sync_records[since:]
        ]
    )


def commit_position(node) -> int | None:
    """Global length of the completed sequence this node holds."""
    return probe(lambda: node.completed_offset + node.model.completed_count)
