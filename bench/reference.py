"""The reference unit: how fast is this machine, right now?

The sandbox this benchmark runs in changes speed by a factor of up to
two within seconds (a busy loop of fixed work read 0.66 to 1.44 ms per
pass inside half a minute), so a CPU cost measured in seconds says as
much about the neighbours as about the program.  What does repeat is
the *ratio* of two kinds of work interleaved on the same vCPU: while
each of two fixed loops spread 10 to 17 % from second to second, their
quotient spread 1 to 4 %.

The child therefore runs one small fixed unit of interpreter work — a
JSON round trip, a deep copy, a socket hand-over: the kinds of work the
program does — on its own event loop every ``GAP_S`` seconds, between
the program's callbacks, and keeps the cumulative series.  The
generator cuts the window into slices of about a second and rescales
what is pure machine speed — the program's CPU, and the time a ``POST``
takes — by ``NOMINAL_UNIT_MS`` over the unit's cost in the same slice:
milliseconds *at reference speed*.  The unit is about an eighth of a
millisecond every 13 ms, 1 % of one core, and its own CPU is subtracted
from the child's before anything is reported.
"""

from __future__ import annotations

import bisect
import copy
import json
import socket
import time

#: Seconds between two units; not a divisor of any ``sync_interval``.
GAP_S = 0.013
#: What one unit costs on the machine the numbers are scaled to, in
#: milliseconds of CPU (the sandbox's own cost in a quiet phase, so the
#: scaled numbers read like its milliseconds).
NOMINAL_UNIT_MS = 0.125
#: Seconds of the window one slice covers, at least.
SLICE_S = 1.0

_DOCUMENT = {f"key{i}": [i, str(i), {"field": i, "text": "x" * 20}] for i in range(12)}
_LINES = {"lines": [["author", "y" * 80] for _ in range(16)], "limit": 400}


class Reference:
    """Runs the unit on ``loop`` until stopped; ``series`` holds, per
    unit, ``(perf_counter, process CPU, CPU spent in units, units)``."""

    def __init__(self, loop):
        self.loop = loop
        self.series: list[tuple] = []
        self.unit_cpu_s = 0.0
        self.units = 0
        self._near, self._far = socket.socketpair()
        self._handle = None

    def unit(self) -> int:
        decoded = json.loads(json.dumps(_DOCUMENT, sort_keys=True))
        copied = copy.deepcopy(_LINES)
        self._near.send(b"z" * 256)
        return len(decoded) + len(copied["lines"]) + len(self._far.recv(1024))

    def start(self) -> None:
        self._handle = self.loop.call_later(GAP_S, self._tick)

    def _tick(self) -> None:
        before = time.process_time()
        self.unit()
        after = time.process_time()
        self.unit_cpu_s += after - before
        self.units += 1
        self.series.append((time.perf_counter(), after, self.unit_cpu_s, self.units))
        self._handle = self.loop.call_later(GAP_S, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._near.close()
        self._far.close()


class Slices:
    """The window ``[start, end)`` of a series, cut at units at least
    ``SLICE_S`` apart.  Per slice: where it starts, the CPU the program
    itself used in it (the child's minus the units'), and ``scale``, the
    factor that turns its milliseconds into reference milliseconds."""

    def __init__(self, series, start: float, end: float):
        inside = [point for point in series if start <= point[0] < end]
        cuts = inside[:1]
        for point in inside:
            if point[0] - cuts[-1][0] >= SLICE_S:
                cuts.append(point)
        self.starts = [cut[0] for cut in cuts[:-1]]
        self.ends = [cut[0] for cut in cuts[1:]]
        self.program_cpu_s = []
        self.scale = []
        for (_, cpu0, unit0, n0), (_, cpu1, unit1, n1) in zip(cuts, cuts[1:]):
            self.program_cpu_s.append((cpu1 - cpu0) - (unit1 - unit0))
            self.scale.append(NOMINAL_UNIT_MS / ((unit1 - unit0) * 1e3 / (n1 - n0)))

    def __len__(self) -> int:
        return len(self.starts)

    def scale_at(self, moment: float) -> float:
        """The scale of the slice holding ``moment`` (the nearest one
        for a moment before the first cut or after the last)."""
        index = bisect.bisect_right(self.starts, moment) - 1
        return self.scale[min(max(index, 0), len(self.scale) - 1)]
