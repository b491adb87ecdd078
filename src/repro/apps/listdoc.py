"""Collaborative list/text editor (workload-zoo application).

A shared document is an ordered list of lines; every edit addresses a
*position*.  Unlike the message board (append-mostly, naturally
conflict-free), positional inserts and deletes race hard: two users
editing near the same index produce exactly the interleaving anomalies
the operational-transformation literature catalogs, which makes this
the highest-value workload for the committed-prefix linearization
probe — the committed edit stream must replay, position by position,
against an independent sequential oracle
(:func:`repro.simtest.probes.list_oracle_probe`).

Semantics are deliberately minimal so the oracle can mirror them
exactly: no transformation, no merging — an edit whose index fell out
of range by commit time simply fails (and the issuing client sees the
conflict through its completion).
"""

from __future__ import annotations

from repro.core.guesstimate import Guesstimate, IssueTicket
from repro.core.serialization import shared_type
from repro.core.shared_object import GSharedObject
from repro.spec import ensures, invariant, modifies


@invariant(
    lambda self: all(
        isinstance(line, list)
        and len(line) == 2
        and isinstance(line[0], str)
        and isinstance(line[1], str)
        for line in self.lines
    ),
    "every line is an [author, text] pair of strings",
)
@invariant(
    lambda self: len(self.lines) <= self.line_limit,
    "the document never exceeds its line limit",
)
@shared_type
class SharedDoc(GSharedObject):
    """Shared state: an ordered list of [author, text] lines."""

    def __init__(self):
        self.lines: list[list[str]] = []
        self.line_limit: int = 400  # keeps fuzzed state bounded

    def copy_from(self, src: "SharedDoc") -> None:
        self.lines = [line[:] for line in src.lines]
        self.line_limit = src.line_limit

    # -- shared operations -----------------------------------------------------

    @ensures(
        lambda old, self, result, index, author, text: (not result)
        or len(self.lines) == len(old["lines"]) + 1,
        "on success the document grew by one line",
    )
    @modifies("lines")
    def insert_at(self, index: int, author: str, text: str) -> bool:
        """Insert a line at ``index`` (0..len); fails out of range."""
        if not self._valid_line(author, text):
            return False
        if not isinstance(index, int) or isinstance(index, bool):
            return False
        if not 0 <= index <= len(self.lines):
            return False
        if len(self.lines) >= self.line_limit:
            return False
        self.lines.insert(index, [author, text])
        return True

    @ensures(
        lambda old, self, result, index, author: (not result)
        or len(self.lines) == len(old["lines"]) - 1,
        "on success the document shrank by one line",
    )
    @modifies("lines")
    def delete_at(self, index: int, author: str) -> bool:
        """Delete the line at ``index``; any collaborator may delete."""
        if not isinstance(author, str) or not author:
            return False
        if not isinstance(index, int) or isinstance(index, bool):
            return False
        if not 0 <= index < len(self.lines):
            return False
        del self.lines[index]
        return True

    @ensures(
        lambda old, self, result, index, author, text: (not result)
        or len(self.lines) == len(old["lines"]),
        "replace never changes the line count",
    )
    @modifies("lines")
    def replace_at(self, index: int, author: str, text: str) -> bool:
        """Overwrite the line at ``index`` with our own."""
        if not self._valid_line(author, text):
            return False
        if not isinstance(index, int) or isinstance(index, bool):
            return False
        if not 0 <= index < len(self.lines):
            return False
        self.lines[index] = [author, text]
        return True

    @ensures(
        lambda old, self, result, author, text: (not result)
        or self.lines[-1] == [author, text],
        "on success the last line is ours",
    )
    @modifies("lines")
    def append_line(self, author: str, text: str) -> bool:
        """Append at the end (the conflict-free fast path)."""
        if not self._valid_line(author, text):
            return False
        if len(self.lines) >= self.line_limit:
            return False
        self.lines.append([author, text])
        return True

    def _valid_line(self, author, text) -> bool:
        return (
            isinstance(author, str)
            and bool(author)
            and isinstance(text, str)
        )

    # -- queries ---------------------------------------------------------------

    def line_count(self) -> int:
        return len(self.lines)

    def line_at(self, index: int) -> list[str] | None:
        if 0 <= index < len(self.lines):
            return list(self.lines[index])
        return None


class DocClient:
    """One collaborator's machine-local view of a shared document."""

    def __init__(self, api: Guesstimate, doc: SharedDoc, user: str):
        self.api = api
        self.doc = doc
        self.user = user
        self.applied: int = 0
        self.conflicted: int = 0

    def _completion(self, ok: bool) -> None:
        if ok:
            self.applied += 1
        else:
            self.conflicted += 1

    def insert(self, index: int, text: str) -> IssueTicket:
        return self.api.invoke(
            self.doc, "insert_at", index, self.user, text,
            completion=self._completion,
        )

    def delete(self, index: int) -> IssueTicket:
        return self.api.invoke(
            self.doc, "delete_at", index, self.user,
            completion=self._completion,
        )

    def replace(self, index: int, text: str) -> IssueTicket:
        return self.api.invoke(
            self.doc, "replace_at", index, self.user, text,
            completion=self._completion,
        )

    def append(self, text: str) -> IssueTicket:
        return self.api.invoke(
            self.doc, "append_line", self.user, text,
            completion=self._completion,
        )

    def read_lines(self) -> list[tuple[str, str]]:
        with self.api.reading(self.doc) as doc:
            return [tuple(line) for line in doc.lines]
