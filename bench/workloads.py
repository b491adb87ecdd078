"""The four workloads: seeded request scripts and their oracles.

A script is generated up front from the seed; the program under test
sees only the HTTP requests.  Each workload exists to put a different
layer on the blocking path (see ``README.md`` for the interaction
table); the ``why`` strings here are the ones ``BENCHMARK.json`` carries.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

#: Offered rate of the open-loop workloads, operations per second.
OPEN_RATE = 100.0
#: ... and of the durable document: an edit there costs 6 to 10 ms of
#: CPU across the cluster (contracts deep-copy the 400 lines), so at 100
#: ops/s the one event loop is 60 % busy or more and the run measures
#: its queue, which does not repeat from run to run on a shared
#: machine; 25 ops/s keeps the loop under a third busy.
DOC_RATE = 25.0
#: Uncommitted tickets the closed-loop session keeps in flight.  Small
#: enough that the window, not the one blocking session, is what limits
#: the loop: the session fills 64 tickets faster than a round commits
#: them, so a round carries the whole window and its duration is linear
#: in the program's costs.  With 256 the session never filled the window,
#: ops per round fed back into round duration (T = gap / (1 - c·X)), and
#: latency swung between 55 and 120 ms with the speed of the machine.
IN_FLIGHT = 64
#: Users in the check-in/check-out pool (small, so they collide).
USER_POOL = 8
#: Preloaded document: 400 lines of 80 bytes, about 32 KB of state.
DOC_LINES = 400
DOC_LINE_BYTES = 80
#: Positional edits stay below this index so they are in range however
#: the line count drifts during a run.
DOC_INDEX_LIMIT = 300
#: Node the durable workload kills and brings back.
VICTIM = "m03"
#: Every workload drives the same two client-facing nodes.
GATEWAY_NODES = ("m01", "m02")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nodes: int
    loop: str  # "open" (scheduled, timed from due time) or "closed"
    app: str  # "presence" or "doc"
    config: dict = field(default_factory=dict)
    rate: float = OPEN_RATE  # open loop only
    crash_cycles: int = 0


#: ``sync_interval=0.02`` everywhere: round time, not the idle gap, is
#: then at least half of what a commit waits for.
_BASE = {"sync_interval": 0.02}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "interactive",
            "3 nodes, open loop 100 ops/s, few ops per round: fixed per-round "
            "cost, transport hops and the gateway dominate; storage idle",
            nodes=3, loop="open", app="presence", config=dict(_BASE),
        ),
        Workload(
            "wide",
            "same script at 9 nodes: per-participant cost (sequential turns, "
            "signal fan-out, frames ~ N^2) does the work; the Fig 6 axis",
            nodes=9, loop="open", app="presence", config=dict(_BASE),
        ),
        Workload(
            "saturate",
            "3 nodes, closed loop with 64 tickets in flight: every round "
            "carries the whole window, so decode, execute, replay and the POST "
            "path dominate and per-round cost is amortised away",
            nodes=3, loop="closed", app="presence", config=dict(_BASE),
        ),
        Workload(
            "durable-doc",
            "3 nodes, open loop 25 ops/s on a 32 KB document with fsync on "
            "every commit, then crash/rejoin cycles: the only workload with "
            "storage and large-object encoding on the commit path",
            nodes=3, loop="open", app="doc",
            config=dict(
                _BASE,
                durability="disk",
                fsync_policy="always",
                stall_timeout=0.5,
                snapshot_interval=200,
            ),
            rate=DOC_RATE,
            crash_cycles=5,
        ),
    )
}


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------


def counter_name(gateway: int) -> str:
    """The counter only gateway ``gateway`` bumps, so the other
    gateway's delta stream shows when its bumps became visible."""
    return f"gw{gateway}"


def doc_token(kind: str, gateway: int, index: int) -> str:
    """Eight characters that identify one document edit in a delta."""
    return f"{kind}{gateway}{index:06d}"


def _doc_text(rng: random.Random, token: str) -> str:
    filler = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz ", k=DOC_LINE_BYTES - len(token)))
    return token + filler


def initial_doc_state(seed: int) -> dict:
    rng = random.Random(f"doc-preload:{seed}")
    lines = [["seed", _doc_text(rng, doc_token("p", 0, i))] for i in range(DOC_LINES)]
    # The shipped limit is the preload size; lift it so inserts succeed.
    return {"lines": lines, "line_limit": 100 * DOC_LINES}


def _presence_op(rng: random.Random, gateway: int, bump_only: bool) -> tuple[str, list]:
    if bump_only or rng.random() < 0.9:
        return "bump", [counter_name(gateway), 1]
    user = f"user{rng.randrange(USER_POOL)}"
    return ("check_in" if rng.random() < 0.5 else "check_out"), [user]


def _doc_op(rng: random.Random, gateway: int, index: int) -> tuple[str, list]:
    roll = rng.random()
    position = rng.randrange(DOC_INDEX_LIMIT)
    author = f"author{gateway}"
    if roll < 0.70:
        return "replace_at", [position, author, _doc_text(rng, doc_token("r", gateway, index))]
    if roll < 0.85:
        return "insert_at", [position, author, _doc_text(rng, doc_token("i", gateway, index))]
    return "delete_at", [position, author]


def build_script(workload: Workload, seed: int, duration: float) -> list[dict]:
    """The request script: one entry per operation.

    Open loop: ``workload.rate`` operations in every second of
    ``duration``, each due at a seeded random instant of its own
    1/rate slot — independent users, but the same offered load from
    every seed, and no fixed phase against the round timer.  Closed
    loop: a short cycle the session repeats (``due`` is None).  Entries
    alternate between the two gateways.  The generator depends on the
    application and the loop kind only, so ``interactive`` and ``wide``
    get the same script from the same seed.
    """
    rng = random.Random(f"{workload.app}:{workload.loop}:{seed}")
    script: list[dict] = []
    if workload.loop == "closed":
        for index in range(2):
            method, args = _presence_op(rng, index % 2, bump_only=True)
            script.append({"i": index, "due": None, "gw": index % 2,
                           "method": method, "args": args})
        return script
    for index in range(int(duration * workload.rate)):
        due = (index + rng.random()) / workload.rate
        gateway = index % 2
        if workload.app == "presence":
            method, args = _presence_op(rng, gateway, bump_only=False)
        else:
            method, args = _doc_op(rng, gateway, index)
        script.append({"i": index, "due": round(due, 6), "gw": gateway,
                       "method": method, "args": args})
    return script


def render_script(script: list[dict]) -> bytes:
    """Canonical bytes of a script (what "same seed, same inputs" means)."""
    return "".join(
        json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
        for entry in script
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class Oracle:
    """Replays the committed ticket stream, independently of the program.

    Fed one ``(method, args, commit_result)`` per resolved ticket, in
    any order: every check below is order-free (sums and net counts),
    because the generator cannot see the global commit order.
    """

    def __init__(self, app: str):
        self.app = app
        self.counters: dict[str, int] = {}
        self.check_ins: dict[str, int] = {}
        self.check_outs: dict[str, int] = {}
        self.inserts = 0
        self.deletes = 0
        self.errors: list[str] = []

    def record(self, method: str, args: list, committed_ok: bool) -> None:
        if not committed_ok:
            return
        if method == "bump":
            self.counters[args[0]] = self.counters.get(args[0], 0) + args[1]
        elif method == "check_in":
            self.check_ins[args[0]] = self.check_ins.get(args[0], 0) + 1
        elif method == "check_out":
            self.check_outs[args[0]] = self.check_outs.get(args[0], 0) + 1
        elif method == "insert_at":
            self.inserts += 1
        elif method == "delete_at":
            self.deletes += 1

    def check(self, where: str, state: dict) -> None:
        """Hold one node's final committed state against the replay."""
        if self.app == "presence":
            counters = {k: v for k, v in state.get("counters", {}).items() if v}
            expected = {k: v for k, v in self.counters.items() if v}
            if counters != expected:
                self.errors.append(f"{where}: counters {counters} != oracle {expected}")
            present = set()
            for user in set(self.check_ins) | set(self.check_outs):
                net = self.check_ins.get(user, 0) - self.check_outs.get(user, 0)
                if net not in (0, 1):
                    self.errors.append(f"{where}: {user} net check-ins {net}")
                if net == 1:
                    present.add(user)
            if set(state.get("present", {})) != present:
                self.errors.append(
                    f"{where}: roster {sorted(state.get('present', {}))} != "
                    f"oracle {sorted(present)}"
                )
            if state.get("arrivals") != sum(self.check_ins.values()):
                self.errors.append(
                    f"{where}: arrivals {state.get('arrivals')} != "
                    f"oracle {sum(self.check_ins.values())}"
                )
        else:
            expected_lines = DOC_LINES + self.inserts - self.deletes
            actual = len(state.get("lines", ()))
            if actual != expected_lines:
                self.errors.append(
                    f"{where}: {actual} lines != oracle {expected_lines} "
                    f"({DOC_LINES} + {self.inserts} inserts - {self.deletes} deletes)"
                )
