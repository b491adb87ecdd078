"""Unit tests of the benchmark's own parts (no cluster is started).

Run with ``python -m pytest bench/tests -q``; the tier-1 ``testpaths``
do not include this directory.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import reference, stats, tracing, workloads  # noqa: E402
from bench.adapter import probe  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_a_byte_identical_script(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.render_script(workloads.build_script(workload, 7, 5.0))
    second = workloads.render_script(workloads.build_script(workload, 7, 5.0))
    assert first == second and first
    if workload.loop == "open":
        other = workloads.render_script(workloads.build_script(workload, 8, 5.0))
        assert other != first


def test_wide_replays_the_interactive_script():
    interactive = workloads.build_script(workloads.WORKLOADS["interactive"], 3, 5.0)
    wide = workloads.build_script(workloads.WORKLOADS["wide"], 3, 5.0)
    assert workloads.render_script(interactive) == workloads.render_script(wide)


def test_open_loop_script_offers_the_stated_rate():
    script = workloads.build_script(workloads.WORKLOADS["interactive"], 1, 20.0)
    assert 0.9 * 20 * workloads.OPEN_RATE < len(script) < 1.1 * 20 * workloads.OPEN_RATE
    dues = [entry["due"] for entry in script]
    assert dues == sorted(dues)
    assert {entry["gw"] for entry in script} == {0, 1}


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.supported_tail(99) is None  # not even p90
    assert stats.supported_tail(100) == 90.0
    assert stats.supported_tail(199) == 90.0
    assert stats.supported_tail(200) == 95.0
    assert stats.supported_tail(999) == 95.0
    assert stats.supported_tail(1000) == 99.0
    assert stats.supported_tail(10_000) == 99.9
    values = list(range(300))
    assert stats.tail_percentile(values, 99.0)[0] == 95.0  # p99 asked, p95 given
    assert stats.tail_percentile(values, 95.0)[0] == 95.0
    assert stats.tail_percentile(values[:50], 95.0) == (50.0, stats.percentile(values[:50], 50))


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5], 99) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_calm_takes_the_second_best_of_eight():
    slices = [5.0, 9.0, 4.0, 30.0, 6.0, 4.5, 7.0, 8.0]
    assert stats.calm(slices) == 4.5
    assert stats.calm(slices, better="higher") == 9.0
    assert stats.calm([3.0]) == 3.0 and stats.calm([3.0, 2.0, 9.0, 4.0]) == 2.0


def test_steady_percentile_ignores_a_burst_and_keeps_ten_beyond():
    import random

    rng = random.Random(4)
    calm = [rng.uniform(10.0, 50.0) for _ in range(1600)]
    burst = list(calm)
    for index in range(300, 450):  # a few seconds of interference
        burst[index] += 100.0
    assert stats.percentile(burst, 95) > 100.0
    assert stats.steady_percentile(burst, 95) < 1.05 * stats.steady_percentile(calm, 95)
    assert stats.steady_percentile(calm, 95) == pytest.approx(stats.percentile(calm, 95), rel=0.05)
    assert stats.steady_percentile(calm, 95) <= stats.percentile(calm, 95)
    # 399 samples: one chunk of 200 would leave the other short, so pooled
    assert stats.steady_percentile(calm[:399], 95) == stats.percentile(calm[:399], 95)
    assert stats.steady_percentile(calm[:400], 95) != stats.percentile(calm[:400], 95)


def test_quartile_spread_matches_the_drivers_rule():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    row = stats.quartile_spread(values)
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4)
    assert row["spread"] == pytest.approx((q3 - q1) / median)


def test_reference_slices_rescale_a_slow_second():
    """Two seconds of the same work, the second on a machine half as
    fast: raw CPU doubles, CPU at reference speed does not."""
    unit_s = reference.NOMINAL_UNIT_MS / 1e3
    series, cpu, units_cpu = [(10.0, 0.0, 0.0, 0)], 0.0, 0.0
    for tick in range(1, 201):
        slow = 2.0 if tick > 100 else 1.0
        units_cpu += unit_s * slow
        cpu += (unit_s + 0.004) * slow  # the unit, then 4 ms of the program
        series.append((10.0 + tick / 100, cpu, units_cpu, tick))
    slices = reference.Slices(series, 10.0, 12.5)
    assert (slices.starts, slices.ends) == ([10.0, 11.0], [11.0, 12.0])
    assert slices.scale == pytest.approx([1.0, 0.5])
    assert slices.program_cpu_s == pytest.approx([0.4, 0.8])
    assert slices.scale_at(9.0) == slices.scale_at(10.5) == slices.scale[0]
    assert slices.scale_at(11.0) == slices.scale_at(99.0) == slices.scale[1]
    assert len(reference.Slices(series, 10.0, 11.5)) == 1  # whole seconds only
    assert not reference.Slices([], 0.0, 1.0)


def _committed_stream():
    return [("bump", ["gw0", 1], True)] * 5 + [
        ("check_in", ["user1"], True),
        ("check_in", ["user1"], False),  # lost the race: not an arrival
        ("check_out", ["user2"], False),
    ]


def _presence_state():
    return {"counters": {"gw0": 5}, "present": {"user1": 1}, "arrivals": 1, "sightings": {}}


def test_oracle_accepts_the_state_its_stream_produces():
    oracle = workloads.Oracle("presence")
    for method, args, ok in _committed_stream():
        oracle.record(method, args, ok)
    oracle.check("m01", _presence_state())
    assert oracle.errors == []


def test_oracle_rejects_a_planted_lost_ticket():
    """One committed bump goes missing from the node's state."""
    oracle = workloads.Oracle("presence")
    for method, args, ok in _committed_stream():
        oracle.record(method, args, ok)
    state = _presence_state()
    state["counters"]["gw0"] -= 1
    oracle.check("m01", state)
    assert any("counters" in error for error in oracle.errors)


def test_doc_oracle_counts_lines():
    oracle = workloads.Oracle("doc")
    for method, ok in [("insert_at", True), ("insert_at", False), ("delete_at", True),
                       ("insert_at", True), ("replace_at", True)]:
        oracle.record(method, [0, "a", "t"], ok)
    oracle.check("m01", {"lines": [["a", "t"]] * (workloads.DOC_LINES + 1)})
    assert oracle.errors == []
    oracle.check("m03", {"lines": [["a", "t"]] * workloads.DOC_LINES})
    assert len(oracle.errors) == 1 and "m03" in oracle.errors[0]


def test_probe_reports_absent_not_zero():
    @dataclasses.dataclass
    class Stats:
        frames_sent: int = 0

    assert probe(lambda: Stats().frames_sent) == 0
    assert probe(lambda: Stats().frames_gone) is None
    assert probe(lambda: {}["gone"]) is None


def test_span_recorder_self_time_and_unresolved_names():
    class Layered:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    recorder = tracing.SpanRecorder()
    Layered.outer = recorder.wrap(Layered.outer, "runtime.outer", "runtime")
    Layered.inner = recorder.wrap(Layered.inner, "core.inner", "core")
    assert Layered().outer() == 2
    summary = recorder.summary()
    outer, inner = summary["by_name"]["runtime.outer"], summary["by_name"]["core.inner"]
    assert (outer["calls"], inner["calls"]) == (1, 2)
    assert outer["self_s"] == pytest.approx(outer["busy_s"] - inner["busy_s"])
    assert summary["by_layer"]["core"]["busy_s"] == pytest.approx(inner["busy_s"])
    parents = [span[3] for span in recorder.spans]
    assert parents == [-1, 0, 0]

    recorder.install([("core", "repro.core.no_such_module.Thing.method"),
                      ("core", "repro.core.store.ObjectStore.no_such_method")])
    assert recorder.unresolved == [
        "repro.core.no_such_module.Thing.method",
        "repro.core.store.ObjectStore.no_such_method",
    ]
