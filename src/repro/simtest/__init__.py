"""Deterministic simulation testing (`simfuzz`).

A FoundationDB-style fuzzer over the deterministic event loop: from a
single integer seed it derives a whole scenario — cluster size, sync
round shape, workload mix, and a fault/churn plan — runs it with the
paper's invariants checked at every quiescent point, records a compact
JSONL trace of every scheduler decision and mesh delivery so any
failing seed replays bit-identically, and shrinks failing scenarios to
a minimal reproducer.

Entry points:

* :func:`repro.simtest.fuzz.run_seeds` — fuzz a seed range;
* :func:`repro.simtest.fuzz.replay` — re-run a seed twice and compare
  traces byte for byte;
* :func:`repro.simtest.shrink.shrink` — minimize a failing scenario;
* :func:`repro.simtest.fuzz.selftest` — inject a known protocol
  mutation and assert the fuzzer catches, replays and shrinks it;
* the ``simfuzz`` console script (:mod:`repro.simtest.cli`).
"""

from repro.simtest.codec import TraceRecord, decode_trace_line, encode_trace_line
from repro.simtest.fuzz import FuzzReport, replay, run_seeds, selftest
from repro.simtest.runner import RunResult, run_scenario
from repro.simtest.scenario import ScenarioSpec, build_faults, generate_scenario
from repro.simtest.shrink import ShrinkResult, shrink
from repro.simtest.trace import SimTrace, SimTraceRecorder

__all__ = [
    "FuzzReport",
    "RunResult",
    "ScenarioSpec",
    "ShrinkResult",
    "SimTrace",
    "SimTraceRecorder",
    "TraceRecord",
    "build_faults",
    "decode_trace_line",
    "encode_trace_line",
    "generate_scenario",
    "replay",
    "run_scenario",
    "run_seeds",
    "selftest",
    "shrink",
]
