"""glint — AST-based static analysis for GUESSTIMATE operation code.

The runtime enforces the paper's restrictions dynamically (contract
checking, the refresh oracle, simfuzz agreement probes); this package
front-runs the same hazards statically, before any run:

=======  ==========================================================
GL001    operations and specs must be deterministic
GL002    in-place mutations must be visible to dirty-tracking
GL003    completions issue operations, never mutate shared state
GL004    spec predicates fit the calling convention and are pure
GL005    no global random state, no unseeded ``random.Random()``
GL006    declared @modifies frames equal inferred write footprints
GL007    @commutative markers certify against the interference matrix
GL008    spec predicates read only state inside the frame
=======  ==========================================================

GL006–GL008 ride on the interprocedural effect engine
(:mod:`repro.analysis.effects`).  Its per-operation footprints and
op × op interference matrix are values computed from source on demand
(``effect_engine(context).interference_matrix(...)``); the simfuzz
footprint and commute probes check them against real executions.

Entry points: the ``glint`` console script, ``python -m repro.cli
lint``, or :func:`analyze_paths` from code.  See ``docs/ANALYSIS.md``.
"""

from repro.analysis.effects import EffectEngine, Footprint, effect_engine, pair_verdict
from repro.analysis.engine import analyze_modules, analyze_paths
from repro.analysis.loader import AnalysisUsageError, load_module, load_paths
from repro.analysis.report import (
    REPORT_SCHEMA_VERSION,
    Baseline,
    Finding,
    Report,
)
from repro.analysis.rules.base import ALL_RULES, Rule, rule_by_id, rules_for

__all__ = [
    "ALL_RULES",
    "AnalysisUsageError",
    "Baseline",
    "EffectEngine",
    "Finding",
    "Footprint",
    "REPORT_SCHEMA_VERSION",
    "Report",
    "Rule",
    "analyze_modules",
    "analyze_paths",
    "effect_engine",
    "load_module",
    "load_paths",
    "pair_verdict",
    "rule_by_id",
    "rules_for",
]
