"""Section 6 benchmark: application sizes.

Paper: "All applications are written with about 500-700 lines of
code."  Python lands lower in absolute terms; the reproduced shape is
that every application is small relative to the runtime beneath it.
"""

from repro.evalkit.experiments import appsizes


def test_app_sizes(report):
    result = appsizes.run()
    report(appsizes.format_report(result))

    assert len(result.rows) == 7
    for name, loc, sloc in result.rows:
        assert 50 < loc < 700, f"{name} is out of the expected band"
    total_app_sloc = sum(sloc for _n, _l, sloc in result.rows)
    assert total_app_sloc < result.runtime_sloc
