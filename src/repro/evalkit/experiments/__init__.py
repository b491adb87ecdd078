"""Experiment modules, one per figure / in-text claim, and the one
table of the sizes they run at.  See :mod:`repro.evalkit` for the index."""

from repro.evalkit.experiments import (
    appsizes,
    durability,
    fig5,
    fig6,
    fig7,
    recovery,
    reexec,
    responsiveness,
    scaling,
    specreport,
    zoo,
)

#: name -> (module, ``--quick`` kwargs, full-size kwargs, description):
#: the one place experiment sizes are written down; ``repro.cli`` and
#: ``reporting.generate_report`` both go through :func:`run_experiment`.
EXPERIMENTS = {
    "fig5": (
        fig5,
        {"duration": 600.0},
        {"duration": 3600.0},
        "Figure 5: distribution of synchronization times (8 users, 1 h)",
    ),
    "fig6": (
        fig6,
        {"duration": 120.0},
        {"duration": 300.0},
        "Figure 6: average sync time vs number of users",
    ),
    "fig7": (
        fig7,
        {"rounds_per_window": 50},
        {"rounds_per_window": 100},
        "Figure 7: conflicts vs number of users",
    ),
    "recovery": (
        recovery,
        {"duration": 900.0},
        {"duration": 3600.0},
        "Section 7: failure and automatic recovery",
    ),
    "reexec": (
        reexec,
        {"duration": 300.0},
        {"duration": 900.0},
        "Section 4: operations execute at most three times",
    ),
    "responsiveness": (
        responsiveness,
        {"n_ops": 150},
        {"n_ops": 300},
        "Sections 1/8: ablation vs one-copy serializability and replicas",
    ),
    "specreport": (
        specreport,
        {"budget": 200},
        {"budget": 600},
        "Section 6: Spec#-style assertion classification",
    ),
    "appsizes": (appsizes, {}, {}, "Section 6: application lines of code"),
    "scaling": (
        scaling,
        {"user_counts": [2, 4, 8], "duration": 30.0},
        {"user_counts": [2, 4, 8, 16, 32], "duration": 60.0},
        "Sections 7/9: serial scaling wall vs the parallel-flush extension",
    ),
    "durability": (
        durability,
        {"wal_lengths": [4, 16]},
        {"wal_lengths": [8, 32, 128]},
        "Storage subsystem: crash-recovery cost vs WAL length and snapshots",
    ),
    "zoo": (
        zoo,
        {"seeds_per_workload": 1, "duration": 20.0},
        {"seeds_per_workload": 3, "duration": 45.0},
        "Workload zoo: per-workload conflict/override/completion "
        "profile under the full probe set (BENCH_workloads.json)",
    ),
}


def run_experiment(name: str, quick: bool, **overrides):
    """Run ``name`` at its quick or full size.

    Returns ``(result, formatted report)``; ``overrides`` are extra
    keyword arguments for the module's ``run``.
    """
    module, quick_kwargs, full_kwargs, _ = EXPERIMENTS[name]
    result = module.run(**(quick_kwargs if quick else full_kwargs), **overrides)
    return result, module.format_report(result)
