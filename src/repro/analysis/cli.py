"""``glint`` — the command-line front end of :mod:`repro.analysis`.

Exit codes follow the usual linter convention:

* ``0`` — clean (no findings after pragma/baseline suppression);
* ``1`` — findings reported;
* ``2`` — usage error: bad paths, unparsable source, unknown rule ids,
  corrupt baseline.

One fast-path mode rides on the same loader: ``--changed [REF]`` lints
only the ``*.py`` files changed since ``REF`` (default ``HEAD``) plus
untracked ones, intersected with any given paths.  The pre-push loop:
seconds instead of a full tree walk.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from repro.analysis.engine import analyze_modules
from repro.analysis.loader import AnalysisUsageError, load_paths
from repro.analysis.report import Baseline
from repro.analysis.rules.base import ALL_RULES

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glint",
        description=(
            "AST-based static analysis for GUESSTIMATE operation code "
            "(determinism, dirty-tracking, completion safety, spec "
            "conformance, seed plumbing, effect inference)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (directories recurse over *.py)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        help="write the report to this file as well as stdout",
    )
    parser.add_argument(
        "--baseline",
        help="baseline file of accepted findings to suppress",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write current findings to PATH as the new baseline and exit 0",
    )
    parser.add_argument(
        "--root",
        help="anchor for repo-relative display paths (default: cwd)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        metavar="REF",
        help=(
            "lint only *.py files changed since REF (default HEAD) plus "
            "untracked ones, intersected with any given paths"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _git_lines(repo_args: list[str]) -> list[str]:
    completed = subprocess.run(
        ["git", *repo_args],
        capture_output=True,
        text=True,
        check=True,
    )
    return [line for line in completed.stdout.splitlines() if line.strip()]


def changed_python_files(ref: str) -> list[Path]:
    """Absolute paths of ``*.py`` files changed since ``ref`` + untracked."""
    try:
        toplevel = Path(_git_lines(["rev-parse", "--show-toplevel"])[0])
    except (subprocess.CalledProcessError, FileNotFoundError, IndexError) as exc:
        raise AnalysisUsageError(f"--changed needs a git checkout: {exc}") from exc
    try:
        _git_lines(["rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}"])
    except subprocess.CalledProcessError as exc:
        # The nargs='?' flag eats a following path: --changed src/ puts
        # 'src/' here.  Say so instead of dumping git's stderr.
        raise AnalysisUsageError(
            f"--changed: {ref!r} is not a git revision "
            f"(paths go before the flag: glint <paths> --changed [REF])"
        ) from exc
    try:
        changed = _git_lines(["diff", "--name-only", ref, "--", "*.py"])
        untracked = _git_lines(
            ["ls-files", "--others", "--exclude-standard", "--", "*.py"]
        )
    except subprocess.CalledProcessError as exc:
        raise AnalysisUsageError(f"--changed failed: {exc}") from exc
    files = []
    for name in dict.fromkeys(changed + untracked):  # ordered de-dup
        path = toplevel / name
        if path.suffix == ".py" and path.is_file():
            files.append(path)
    return files


def _restrict_to(files: list[Path], scopes: list[str]) -> list[Path]:
    """Keep files that equal, or live under, one of the given paths."""
    if not scopes:
        return files
    anchors = [Path(scope).resolve() for scope in scopes]
    kept = []
    for path in files:
        resolved = path.resolve()
        for anchor in anchors:
            if resolved == anchor or anchor in resolved.parents:
                kept.append(path)
                break
    return kept


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.title}")
            print(f"       {rule.rationale}")
        return EXIT_CLEAN

    if not args.paths and args.changed is None:
        parser.print_usage(sys.stderr)
        print("glint: error: no paths given", file=sys.stderr)
        return EXIT_USAGE

    rule_ids = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]

    try:
        baseline = Baseline.load(args.baseline) if args.baseline else None
        if args.changed is not None:
            targets = _restrict_to(changed_python_files(args.changed), args.paths)
            if not targets:
                print(f"glint: no python files changed since {args.changed}")
                return EXIT_CLEAN
        else:
            targets = args.paths
        modules = load_paths(targets, root=args.root)
        report = analyze_modules(modules, rule_ids=rule_ids, baseline=baseline)
        if args.write_baseline:
            Baseline().write(args.write_baseline, report)
            print(
                f"wrote {len(report.findings)} finding(s) to "
                f"{args.write_baseline}"
            )
            return EXIT_CLEAN
    except AnalysisUsageError as exc:
        print(f"glint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"glint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rendered = report.to_json() if args.format == "json" else report.format_text()
    print(rendered)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    return EXIT_FINDINGS if report.findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
