"""Section 6 benchmark: Spec#-style assertion classification.

Paper (Sudoku): 323 assertions — 271 statically verified, 52 runtime
checks, none refuted.  The shape to reproduce: a large majority
discharged statically, the remainder guarded at runtime, zero refuted.
"""

from repro.evalkit.experiments import specreport


def test_spec_report(report):
    result = specreport.run(budget=600)
    report(specreport.format_report(result))

    assert len(result.reports) == 7  # all six apps + shared accounts
    assert result.refuted == 0
    assert result.total > 100
    # Majority statically verified (paper: 271/323 = 84%).
    assert result.verified / result.total > 0.6
    # And a real runtime-check remainder exists (paper: 52/323 = 16%).
    assert result.runtime_checks > 0
    # Sudoku's huge state space keeps its assertions dynamic, exactly
    # the class of assertions Spec# turned into runtime checks.
    sudoku = result.report_for("SudokuBoard")
    assert sudoku.runtime_checks == sudoku.total
