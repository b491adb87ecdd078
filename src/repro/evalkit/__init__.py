"""Evaluation kit: the experiments behind every figure in the paper.

One module per experiment (see DESIGN.md's per-experiment index):

=========  =====================================  ==========================
Paper      Experiment                             Module
=========  =====================================  ==========================
Figure 5   Sync-time distribution, 8 users, 1 h   ``experiments.fig5``
Figure 6   Sync time vs #users, active/idle       ``experiments.fig6``
Figure 7   Conflicts vs #users                    ``experiments.fig7``
§7 text    Failure & automatic recovery           ``experiments.recovery``
§4 text    At-most-three executions               ``experiments.reexec``
§1/§8      Responsiveness ablation vs baselines   ``experiments.responsiveness``
§6 text    Spec# assertion classification         ``experiments.specreport``
§6 text    Application sizes (500-700 LoC)        ``experiments.appsizes``
§7/§9      Sequential slope vs concurrent rounds  ``experiments.scaling``
(beyond)   Replay length vs WAL length            ``experiments.durability``
(beyond)   Per-workload conflict profile          ``experiments.zoo``
=========  =====================================  ==========================

Each experiment module exposes ``run(...) -> Result`` returning a
dataclass with the measured series, plus ``format_report(result)``
printing the same rows the paper's figure shows;
``experiments.EXPERIMENTS`` is the one table of the sizes they run at.
Everything here runs on the seeded virtual clock or counts exactly —
wall time is measured by ``bench/`` only (``docs/PROFILING.md``).  The
tests in ``benchmarks/`` call these runners at the paper's full size.
"""

from repro.evalkit.stats import (
    Histogram,
    linear_fit,
    mean_excluding,
    percentile,
)

__all__ = ["Histogram", "linear_fit", "mean_excluding", "percentile"]
