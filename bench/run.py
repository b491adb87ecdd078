"""The benchmark's one command.

    python bench/run.py [--workload W] [--seed S] [--seconds N]
                        [--trace [0|1]] [--repeat K] [--quick]

Without ``--workload`` every workload runs, followed by the per-layer
ladder.  The gated numbers (``--trace 0``, the default) are always
measured with tracing off; ``--trace`` makes the separate traced run,
which writes ``bench/out/trace-<workload>.jsonl`` and prints the
per-layer self-time table.  ``--repeat K`` is the calibration: K runs of
the same code on K seeds, with each end-to-end metric's spread held
against its bound in ``BENCHMARK.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  Exit code 1
means the program's outputs were wrong, 2 that the run was invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

#: What the final JSON carries for a per-layer metric the program does
#: not expose (any more) or that does not apply to the workload.  Never
#: zero: zero is a measurement.
ABSENT = -1.0

QUICK_SECONDS = 3


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _print_metrics(title: str, values: dict, specs: list[dict]) -> None:
    print(f"\n{title}")
    for spec in specs:
        value = values.get(spec["name"])
        shown = "absent" if value is None else f"{value:.4f}"
        print(f"  {spec['name']:<34} {shown:>14} {spec['unit']}")


def _payload(values: dict, specs: list[dict], absent=None) -> dict:
    metrics = {}
    for spec in specs:
        value = values.get(spec["name"])
        if value is None:
            if absent is None:
                raise KeyError(spec["name"])
            value = absent
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics


def _report_run(name: str, result: dict) -> None:
    print(
        f"\n[{name}] attempted_ops={result['attempted']} failed_ops={result['failed']} "
        f"rejected_at_issue={result['rejected']} samples={result['samples']}"
    )
    for failure in result["failures"][:20]:
        print(f"  FAILED: {failure}")
    for reason in result["invalid"]:
        print(f"  INVALID: {reason}")


def _gated(workload, args, seed: int) -> dict:
    """One gated measurement (tracing off), analysed."""
    from bench import measure

    return measure.analyse(measure.run_workload(
        workload, seed, args.seconds,
        setups=1 if args.quick else measure.SETUPS,
        crash_cycles=min(1, workload.crash_cycles) if args.quick else None,
    ))


def gated_run(workload, args, manifest) -> dict:
    """The gated measurement of one workload, reported."""
    result = _gated(workload, args, args.seed)
    _report_run(workload.name, result)
    _print_metrics("end to end", result["end_to_end"], manifest["end_to_end"])
    window = [s for s in manifest["per_layer"] if s["name"] in result["layers"]]
    _print_metrics("per layer, from the same window", result["layers"], window)
    return result


def traced_run(workload, args, manifest) -> dict:
    """Per-layer numbers: an untraced half for the counters and the
    CPU baseline, a traced half for the spans, then the ladder."""
    from bench import ladder, measure, tracing

    half = max(2.0, args.seconds / 2.0)
    cycles = min(1, workload.crash_cycles) if args.quick else None
    plain = measure.analyse(measure.run_workload(
        workload, args.seed, half, setups=1, crash_cycles=cycles))
    _report_run(f"{workload.name}, untraced half", plain)
    traced_raw = measure.run_workload(
        workload, args.seed, half, trace=True, setups=1, crash_cycles=0)
    traced = measure.analyse(traced_raw)
    _report_run(f"{workload.name}, traced half", traced)

    verdict = traced_raw["verdict"]
    trace_path = verdict["trace"]["path"]
    with open(trace_path, "a", encoding="utf-8") as handle:
        for ticket, name, start, end in traced["spans"]:
            handle.write(json.dumps({
                "proc": "generator", "ticket": ticket, "name": name,
                "start": start, "end": end, "parent": -1}) + "\n")
    print(f"\nspans: {verdict['trace']['spans']} from the child, "
          f"{len(traced['spans'])} from the generator -> {os.path.relpath(trace_path, ROOT)}")

    layers = dict(plain["layers"])
    layers.update(ladder.run_ladder(args.seed))
    committed = traced["committed_in_window"] or 1
    summary = verdict.get("span_summary", {"by_name": {}, "by_layer": {}})
    print("\nper committed operation, inside the traced window:")
    print(f"  {'span':<50} {'calls':>8} {'busy us':>10} {'self us':>10}")
    for name, row in summary["by_name"].items():
        print(f"  {name:<50} {row['calls'] / committed:>8.2f} "
              f"{row['busy_s'] * 1e6 / committed:>10.1f} {row['self_s'] * 1e6 / committed:>10.1f}")
    for layer in tracing.LAYERS:
        row = summary["by_layer"].get(layer)
        if row is not None:
            print(f"  layer {layer:<44} {'':>8} "
                  f"{row['busy_s'] * 1e6 / committed:>10.1f} {row['self_s'] * 1e6 / committed:>10.1f}")
            layers[f"trace.{layer}.self_us_per_op"] = row["self_s"] * 1e6 / committed
    unresolved = traced_raw["unresolved_names"]
    layers["trace.unresolved"] = len(unresolved)
    for name in unresolved:
        print(f"  trace.unresolved: {name}")
    if plain["cpu_ms_per_op"] and traced["cpu_ms_per_op"]:
        layers["trace.overhead_pct"] = (
            (traced["cpu_ms_per_op"] / plain["cpu_ms_per_op"] - 1.0) * 100.0
        )
    _print_metrics("per layer", layers, manifest["per_layer"])
    return {
        "layers": layers,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "invalid": plain["invalid"] + traced["invalid"],
    }


def calibrate(workload, args, manifest) -> dict:
    """K runs of the same code: is every metric's spread inside its bound?"""
    from bench.stats import quartile_spread

    runs = []
    for k in range(args.repeat):
        result = _gated(workload, args, args.seed + k)
        _report_run(f"{workload.name}, run {k + 1}/{args.repeat}", result)
        runs.append(result)
    usable = [r["end_to_end"] for r in runs if r["end_to_end"]]
    print(f"\n[{workload.name}] calibration over {len(usable)} runs")
    print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
    table = {}
    for spec in manifest["end_to_end"]:
        row = quartile_spread([r[spec["name"]] for r in usable])
        row["bound"] = spec["bound"]
        # setup_s is exempt from the spread rule, its median is not
        row["over"] = row["spread"] > spec["bound"] and spec["name"] != "setup_s"
        table[spec["name"]] = row
        print(f"  {spec['name']:<18} {row['median']:>12.4f} {row['q1']:>12.4f} "
              f"{row['q3']:>12.4f} {row['spread']:>7.1%} {spec['bound']:>6.0%}"
              f"{'  SPREAD EXCEEDS BOUND' if row['over'] else ''}")
    return {
        "table": table,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "invalid": [reason for r in runs for reason in r["invalid"]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s window, one set-up, one crash cycle")
    args = parser.parse_args(argv)

    manifest = load_manifest()
    import repro.apps  # noqa: F401 - fails here when there is no program to measure

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"INVALID RUN: repro imported from {repro.__file__}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2
    from bench import ladder, workloads
    from bench.loadgen import BenchError

    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else manifest["run_seconds"]
    if args.workload is None:
        selected = list(workloads.WORKLOADS.values())
    elif args.workload in workloads.WORKLOADS:
        selected = [workloads.WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    outcomes = {}
    try:
        for workload in selected:
            if args.repeat:
                outcomes[workload.name] = calibrate(workload, args, manifest)
            elif args.trace:
                outcomes[workload.name] = traced_run(workload, args, manifest)
            else:
                outcomes[workload.name] = gated_run(workload, args, manifest)
        if args.workload is None and not args.trace and not args.repeat:
            rungs = ladder.run_ladder(args.seed)
            specs = [s for s in manifest["per_layer"] if s["name"] in rungs]
            _print_metrics("per layer, the ladder (workload-independent)", rungs, specs)
    except BenchError as exc:
        print(f"INVALID RUN: {exc}", file=sys.stderr)
        return 2

    invalid = [reason for outcome in outcomes.values() for reason in outcome["invalid"]]
    if invalid:
        print(f"INVALID RUN: {'; '.join(invalid)}", file=sys.stderr)
        return 2
    attempted = sum(outcome["attempted"] for outcome in outcomes.values())
    failed = sum(outcome["failed"] for outcome in outcomes.values())

    def metrics_of(outcome: dict) -> dict:
        if args.repeat:
            return outcome["table"]
        if args.trace:
            return _payload(outcome["layers"], manifest["per_layer"], absent=ABSENT)
        return _payload(outcome["end_to_end"], manifest["end_to_end"])

    if len(selected) == 1:
        metrics = metrics_of(outcomes[selected[0].name])
    else:
        metrics = {name: metrics_of(outcome) for name, outcome in outcomes.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
