"""Benchmark-suite configuration.

Each figure benchmark runs its experiment once at the paper's full
size — the interesting output is the paper-style report it prints,
plus shape assertions that fail if the reproduction drifts.
"""

import sys

import pytest


@pytest.fixture
def report(capsys):
    """Print a report so it survives pytest's capture (shown with -s
    or in the captured-output section)."""

    def emit(text: str) -> None:
        with capsys.disabled():
            sys.stdout.write("\n" + text + "\n")

    return emit
