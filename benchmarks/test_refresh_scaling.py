"""Benchmark: delta guess-refresh copies O(touched), not O(total).

Runs the refreshbench experiment at a modest scale and asserts the
acceptance shape: with many live objects and rounds that touch 1-2 of
them, the versioned-store delta refresh moves at least 10x fewer
objects than a full copy of the committed store would have over the
same refreshes (``refresh_objects_live`` ÷ ``refresh_objects_copied``)
— with every paper invariant intact.  The full-size sweep (2000
objects) is ``python -m repro.cli refresh``, which writes
``BENCH_refresh.json``; the wall-time cost of the two store primitives
is the ``core.refresh_full_us`` / ``core.refresh_delta_us`` rungs of
``bench/ladder.py``.
"""

from repro.evalkit.experiments import refreshbench


def test_delta_refresh_copy_reduction(report):
    result = refreshbench.run(objects=400, machines=3, duration=10.0)
    report(refreshbench.format_report(result))

    assert result.invariants_ok
    assert result.refresh_rounds > 0

    # A full copy moves the whole store on every refresh...
    assert result.refresh_objects_live == 400 * result.refresh_rounds
    # ...the delta refresh moves >= 10x fewer objects.
    assert result.copy_reduction() >= 10.0

    # Both caches must actually fire on this workload.
    assert result.decode_cache_hits > 0
    assert result.snapshot_cache_hits > 0
