"""Section-9 extension benchmark: parallelizing AddUpdatesToMesh.

The paper: "To scale it further we would have to parallelize the first
stage ... so that the time taken depends only on the number of
operations and the network delay but not on the number of users."

This benchmark measures sync time for the serial (paper) protocol and
the parallel extension across user counts, confirming the serial
protocol's linear slope disappears.
"""

from repro.evalkit.experiments import scaling


def test_parallel_flush_scaling(report):
    result = scaling.run(user_counts=[2, 4, 8, 16, 32], duration=60.0)
    report(scaling.format_report(result))

    # Serial grows linearly; parallel is an order of magnitude flatter.
    assert result.serial_means == sorted(result.serial_means)
    assert result.serial_slope > 0.02
    assert result.parallel_slope < 0.1 * result.serial_slope
    # And parallel wins outright at scale.
    assert result.parallel_means[-1] < 0.5 * result.serial_means[-1]
