"""Command-line entry point: regenerate any paper figure from a shell.

Installed as ``guesstimate-bench``::

    guesstimate-bench fig5            # Figure 5, full hour
    guesstimate-bench fig6 --quick    # Figure 6, shortened run
    guesstimate-bench all --quick     # everything, shortened

``--quick`` trims durations so the full suite finishes in well under a
minute; the full runs match the paper's hour-long session.

The companion ``simfuzz`` entry point (:mod:`repro.simtest.cli`) drives
the deterministic simulation fuzzer — randomized fault scenarios with
seed replay and trace shrinking; see ``docs/TESTING.md``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.evalkit.experiments import EXPERIMENTS, run_experiment, zoo


def main(argv: list[str] | None = None) -> int:
    args_in = list(sys.argv[1:]) if argv is None else list(argv)
    if args_in[:1] == ["lint"]:
        # ``python -m repro.cli lint ...`` == the ``glint`` entry point.
        from repro.analysis.cli import main as glint_main

        return glint_main(args_in[1:])
    if args_in[:1] == ["serve"]:
        # ``python -m repro.cli serve`` runs one node daemon over the
        # socket transport; see docs/DEPLOY.md.
        from repro.transport.daemon import serve_main

        return serve_main(args_in[1:])

    parser = argparse.ArgumentParser(
        prog="guesstimate-bench",
        description="Regenerate the GUESSTIMATE paper's evaluation figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", "report"],
        help="which experiment to run ('all' runs every one; 'report' "
        "writes a Markdown bundle plus CSV series)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shortened durations (seconds instead of a simulated hour)",
    )
    parser.add_argument(
        "--output",
        default="RESULTS.md",
        help="output path for the 'report' command (default RESULTS.md)",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        help="run the durability experiment against real files under "
        "this directory (default: the zero-IO in-memory medium)",
    )
    parser.add_argument(
        "--fsync",
        default="interval",
        choices=["always", "interval", "never"],
        help="fsync policy for the durability experiment's write-ahead "
        "log (default: interval)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "report":
        from pathlib import Path

        from repro.evalkit.reporting import generate_report

        bundle = generate_report(quick=args.quick)
        output = Path(args.output)
        output.write_text(bundle.to_markdown())
        print(f"wrote {output}")
        for name, csv_text in bundle.csv_series.items():
            csv_path = output.with_name(f"{name}.csv")
            csv_path.write_text(csv_text)
            print(f"wrote {csv_path}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        *_, description = EXPERIMENTS[name]
        print(f"== {name}: {description}")
        started = time.time()
        # The durability knobs reparameterize that one experiment.
        overrides = (
            {"data_dir": args.data_dir, "fsync_policy": args.fsync}
            if name == "durability"
            else {}
        )
        result, report = run_experiment(name, args.quick, **overrides)
        print(report)
        if name == "zoo":
            print(f"\n  wrote {zoo.write_bench_json(result)}")
            if not result.clean:
                # The zoo doubles as a convergence gate: CI runs this
                # command directly, so probe violations fail the process.
                raise SystemExit("zoo: probe violations")
        print(f"   [{time.time() - started:.1f}s wall]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
