"""``simfuzz`` — the simulation fuzzer's command line.

Subcommands::

    simfuzz run --seeds 100 [--start N] [--max-time S] [--trace-dir DIR]
                [--mutation NAME] [--transport sim|loopback] [--workload NAME]
    simfuzz replay <seed> [--mutation NAME] [--workload NAME]
    simfuzz shrink <seed> [--mutation NAME] [--workload NAME]
    simfuzz selftest [--mutation NAME] [--max-seeds N] [--workload NAME]

``--workload`` pins every generated scenario to one workload (any of
:data:`repro.simtest.scenario.WORKLOADS`); without it each seed draws
its own workload from the full zoo.

Exit status 0 means the invariants held (or the self-test passed);
1 means violations were found (or the self-test failed) — so CI can
gate directly on the process status.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.simtest import fuzz
from repro.simtest.mutations import MUTATIONS
from repro.simtest.scenario import WORKLOADS, generate_scenario
from repro.simtest.shrink import shrink


def _add_workload_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--workload",
        choices=WORKLOADS,
        default=None,
        help="pin scenarios to one workload (default: draw per seed)",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    def progress(outcome) -> None:
        status = "FAIL" if outcome.violations else "ok"
        print(
            f"seed {outcome.seed:>5}  {status:<4} "
            f"committed={outcome.committed_total:<5} "
            f"actions={outcome.actions:<5} vtime={outcome.virtual_end:8.2f}"
        )
        for violation in outcome.violations:
            print(f"    {violation}")

    report = fuzz.run_seeds(
        args.seeds,
        start=args.start,
        max_time=args.max_time,
        mutation=args.mutation,
        trace_dir=args.trace_dir,
        progress=progress,
        workload=args.workload,
        transport=args.transport,
    )
    print(
        f"\n{report.seeds_run} seed(s) run, {len(report.failures)} failing"
        + (" (stopped early: wall-clock budget)" if report.stopped_early else "")
    )
    if report.failures:
        print("failing seeds:", ", ".join(str(f.seed) for f in report.failures))
        if args.trace_dir:
            print(f"artifacts written under {args.trace_dir}/")
    return 0 if report.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    report = fuzz.replay(args.seed, mutation=args.mutation, workload=args.workload)
    print(f"seed {report.seed}: trace digest {report.digest}")
    if report.identical:
        print("replay is bit-identical")
    else:
        print(f"REPLAY DIVERGED at trace record {report.first_divergence}")
    for violation in report.violations:
        print(f"  violation: {violation}")
    return 0 if report.identical and not report.violations else 1


def _cmd_shrink(args: argparse.Namespace) -> int:
    spec = generate_scenario(args.seed, workload=args.workload)
    try:
        result = shrink(spec, mutation=args.mutation, max_runs=args.max_runs)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    print(
        f"shrunk seed {args.seed} in {result.runs} runs: "
        f"{result.original.n_machines} -> {result.minimized.n_machines} machines, "
        f"{result.original.fault_count()} -> {result.minimized.fault_count()} faults, "
        f"{result.original.duration:.0f}s -> {result.minimized.duration:.0f}s"
    )
    print("minimized scenario:")
    print(json.dumps(result.minimized.to_dict(), indent=2, sort_keys=True))
    print("violations still reproduced:")
    for violation in result.violations:
        print(f"  {violation}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    print(f"self-test: fuzzing with injected mutation {args.mutation!r} ...")
    report = fuzz.selftest(
        mutation=args.mutation, max_seeds=args.max_seeds, workload=args.workload
    )
    if report.caught_seed is None:
        print(f"FAIL: no violation found in {args.max_seeds} seeds")
        return 1
    print(f"caught by seed {report.caught_seed}:")
    for violation in report.violations[:5]:
        print(f"  {violation}")
    print(f"replay bit-identical: {report.replay_identical}")
    assert report.shrink is not None
    print(
        f"shrunk to {report.shrink.minimized.n_machines} machines / "
        f"{report.shrink.minimized.fault_count()} faults in {report.shrink.runs} runs"
    )
    print("self-test " + ("PASSED" if report.ok else "FAILED"))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simfuzz", description="deterministic simulation fuzzer"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="fuzz a range of seeds")
    run.add_argument("--seeds", type=int, default=25, help="number of seeds")
    run.add_argument("--start", type=int, default=0, help="first seed")
    run.add_argument(
        "--max-time", type=float, default=None, help="wall-clock budget (s)"
    )
    run.add_argument(
        "--trace-dir", default=None, help="write failing-seed artifacts here"
    )
    run.add_argument("--mutation", choices=sorted(MUTATIONS), default=None)
    run.add_argument(
        "--transport",
        choices=("sim", "loopback"),
        default="sim",
        help="sim: deterministic event loop; loopback: real TCP on 127.0.0.1",
    )
    _add_workload_flag(run)
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("replay", help="run one seed twice, compare traces")
    rep.add_argument("seed", type=int)
    rep.add_argument("--mutation", choices=sorted(MUTATIONS), default=None)
    _add_workload_flag(rep)
    rep.set_defaults(func=_cmd_replay)

    shr = sub.add_parser("shrink", help="minimize a failing seed")
    shr.add_argument("seed", type=int)
    shr.add_argument("--mutation", choices=sorted(MUTATIONS), default=None)
    shr.add_argument("--max-runs", type=int, default=150)
    _add_workload_flag(shr)
    shr.set_defaults(func=_cmd_shrink)

    selft = sub.add_parser("selftest", help="verify the fuzzer catches bugs")
    selft.add_argument("--mutation", choices=sorted(MUTATIONS), default="commit_order")
    selft.add_argument("--max-seeds", type=int, default=20)
    _add_workload_flag(selft)
    selft.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
