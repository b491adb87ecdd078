"""Spans recorded from outside the program, and their analysis.

The traced run wraps each layer's entry points by substituting the
attribute with a timing wrapper.  Targets are named in one table
(:data:`TRACE_POINTS`) and resolved by dotted name at install time; a
name the program no longer has is listed under ``trace.unresolved``
instead of failing the run.  Spans stay in memory — ``(name, start,
end, parent)`` with times on ``time.perf_counter`` — and are written
out when the run ends.  The program runs on one thread, so one stack
gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

#: ``(layer, "module.Class.attribute")`` — the layer entry points the
#: traced run wraps.  Layers are the packages under ``src/repro``.
TRACE_POINTS = (
    ("core", "repro.core.guesstimate.Guesstimate.invoke"),
    ("runtime", "repro.runtime.synchronizer.Synchronizer.handle_signal"),
    ("runtime", "repro.runtime.synchronizer.Synchronizer.handle_op"),
    ("runtime", "repro.runtime.synchronizer.MasterControl.handle_signal"),
    ("transport", "repro.transport.netmesh.NetworkMesh.broadcast"),
    ("transport", "repro.transport.netmesh.NetworkMesh.send"),
    ("transport", "repro.transport.framing.FrameDecoder.feed"),
    ("storage", "repro.storage.store.DurableStore.append_commit"),
    ("core", "repro.core.store.ObjectStore.refresh_delta_from"),
)

LAYERS = ("core", "runtime", "transport", "storage")


def resolve(dotted: str):
    """``(owner, attribute name, current value)`` for a dotted name."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for part in parts[split:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(dotted)


def substitute(dotted: str, make_wrapper) -> bool:
    """Replace the attribute named ``dotted`` by ``make_wrapper(old)``;
    False when the program has no such name any more."""
    try:
        owner, attribute, original = resolve(dotted)
    except (ImportError, AttributeError):
        return False
    setattr(owner, attribute, make_wrapper(original))
    return True


class SpanRecorder:
    """In-memory span log for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        #: one ``(name index, start, end, parent span index)`` per span
        self.spans: list[tuple | None] = []
        self.unresolved: list[str] = []
        self._stack: list[int] = []

    def install(self, points=TRACE_POINTS) -> None:
        for layer, dotted in points:
            name = dotted.split(".", 1)[1]  # drop the leading "repro."
            if not substitute(dotted, lambda fn, name=name, layer=layer: self.wrap(fn, name, layer)):
                self.unresolved.append(dotted)

    def wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def mark(self) -> int:
        """Index of the next span: spans from here on belong to what
        follows (used to cut the measured window out of the log)."""
        return len(self.spans)

    def summary(self, since: int = 0, until: int | None = None) -> dict:
        """Busy and self seconds per span name and per layer.

        A span's self time is its duration minus what its direct
        children cover.  A layer's busy time counts each of its spans
        that has no ancestor in the same layer, so nested calls within
        a layer are not counted twice.
        """
        spans = self.spans[since:until]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span is None:
                continue
            parent = span[3] - since
            if 0 <= parent < len(spans):
                child_time[parent] += span[2] - span[1]
        by_name = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names
        }
        by_layer = {layer: {"busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for offset, span in enumerate(spans):
            if span is None:
                continue
            name_id, start, end, parent = span
            duration = end - start
            own = duration - child_time[offset]
            row = by_name[self.names[name_id]]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += own
            layer = self.layers[name_id]
            by_layer[layer]["self_s"] += own
            if not self._has_layer_ancestor(parent, layer, since):
                by_layer[layer]["busy_s"] += duration
        return {"by_name": by_name, "by_layer": by_layer}

    def _has_layer_ancestor(self, parent: int, layer: str, since: int) -> bool:
        while parent >= since:
            span = self.spans[parent]
            if span is None:
                return False
            if self.layers[span[0]] == layer:
                return True
            parent = span[3]
        return False

    def write(self, handle, process: str) -> int:
        """Append every finished span to ``handle`` as JSON lines."""
        written = 0
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name_id, start, end, parent = span
            handle.write(
                json.dumps(
                    {
                        "proc": process,
                        "id": index,
                        "name": self.names[name_id],
                        "layer": self.layers[name_id],
                        "start": start,
                        "end": end,
                        "parent": parent,
                    }
                )
                + "\n"
            )
            written += 1
        return written
