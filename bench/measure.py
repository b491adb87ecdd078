"""One run of one workload: set-up, warm-up, measured window, drain,
correctness gate — and the metrics computed from what was recorded.
"""

from __future__ import annotations

import bisect
import os
import shutil
import statistics
import tempfile
import threading
import time

from bench import loadgen, workloads
from bench.adapter import probe
from bench.loadgen import BenchError
from bench.reference import NOMINAL_UNIT_MS, Slices
from bench.stats import MAX_CHUNKS, calm, percentile, steady_percentile, tail_percentile

OUT_DIR = os.path.join(loadgen.BENCH_DIR, "out")

#: Seconds of load before the measured window (caches fill, the first
#: rounds and lazy imports are behind us).  Scaled down with the window
#: when the window is short.
WARMUP_S = 2.0
#: Set-ups per gated run; ``setup_s`` is read off their calm quartile
#: (the second fastest of seven), like every other timing here.
SETUPS = 7
#: The window is cut into this many slices; throughput is read off the
#: calm quartile of the slices, as the latencies are off their chunks
#: (``stats.calm``).
SLICES = MAX_CHUNKS
#: Seconds after the last request for every ticket to resolve.
DRAIN_S = 15.0
#: A run whose generator was itself this late in sending a tenth of the
#: requests it was free to send did not offer the load it claims: it is
#: invalid, not slow.  (The p99 is reported; the gate is on the p90
#: because the gated metrics are medians and a p95 that is not timed
#: from the due time — one late request in a hundred cannot move them,
#: and on a shared machine it happens.)
MAX_LATE_MS = 5.0
#: Nothing may take longer than this; the child is killed when it does.
HARD_TIMEOUT_S = 170.0


def _object_type(app: str) -> str:
    return "PresenceCounters" if app == "presence" else "SharedDoc"


def child_spec(workload, data_dir: str | None, **extra) -> dict:
    config = dict(workload.config)
    if config.get("durability") == "disk":
        config["data_dir"] = data_dir
    return dict(
        nodes=workload.nodes,
        config=config,
        gateways=list(workloads.GATEWAY_NODES[: min(2, workload.nodes)]),
        **extra,
    )


def set_up(spec: dict, app: str, seed: int, track=None):
    """Launch a child and bring it to the state a run starts from.

    Returns ``(child, object id, seconds)``; the clock runs from the
    launch until every participant shows in ``GET /cluster``, both
    gateways answer ``/healthz``, and the shared object is created and
    joined on every client-facing node.
    """
    child = loadgen.ChildProcess(spec, track)
    try:
        deadline = child.launched_at + 30.0
        for port in child.ports:
            while True:
                _, info = loadgen.call(port, "GET", "/cluster")
                _, health = loadgen.call(port, "GET", "/healthz")
                if len(info.get("participants", ())) == spec["nodes"] and health.get("ok"):
                    break
                if time.perf_counter() > deadline:
                    raise BenchError(f"cluster never formed: {info}")
                time.sleep(0.01)
        body = {"type": _object_type(app)}
        if app == "doc":
            body["state"] = workloads.initial_doc_state(seed)
        while True:  # refused while a flush or update window is open
            status, created = loadgen.call(child.ports[0], "POST", "/instances", body)
            if status == 200:
                break
            if time.perf_counter() > deadline:
                raise BenchError(f"POST /instances failed: {created}")
            time.sleep(0.002)
        unique_id = created["id"]
        for port in child.ports[1:]:
            while True:  # 404 until the creation commits on that node
                status, _ = loadgen.call(port, "POST", f"/instances/{unique_id}/join", {})
                if status == 200:
                    break
                if time.perf_counter() > deadline:
                    raise BenchError(f"{unique_id} never became visible on :{port}")
                time.sleep(0.005)
        return child, unique_id, time.perf_counter() - child.launched_at
    except BaseException:
        child.kill()
        raise


def time_recover_ms(directory: str):
    """``DurableStore.recover()`` on the log a run wrote, median of five."""
    from repro.storage.store import DurableStore

    samples = []
    for _ in range(5):
        store = DurableStore(directory)
        start = time.perf_counter()
        recovered = store.recover()
        samples.append(time.perf_counter() - start)
        store.close()
        if recovered is None:
            return None
    return statistics.median(samples) * 1e3


class Watchdog:
    """Kills the child when a run overstays, so a wedged cluster cannot
    hang the pipeline; the blocked reads in the run then fail."""

    def __init__(self, seconds: float):
        self.children: list = []
        self.fired = False
        self._timer = threading.Timer(seconds, self._fire)
        self._timer.daemon = True
        self._timer.start()

    def _fire(self) -> None:
        self.fired = True
        for child in self.children:
            child.kill()

    def cancel(self) -> None:
        self._timer.cancel()


def run_workload(workload, seed: int, seconds: float, *, trace: bool = False,
                 setups: int = SETUPS, crash_cycles: int | None = None) -> dict:
    """Run ``workload`` once and return everything recorded about it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"run-{workload.name}-", dir=OUT_DIR)
    watchdog = Watchdog(HARD_TIMEOUT_S)
    try:
        return _run(workload, seed, seconds, trace, setups, crash_cycles,
                    scratch, watchdog)
    except (BenchError, OSError, ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        if watchdog.fired:
            reason = f"hard timeout of {HARD_TIMEOUT_S:.0f} s, child killed"
        raise BenchError(f"{workload.name}: {reason}") from exc
    finally:
        watchdog.cancel()
        for child in watchdog.children:
            child.kill()
        shutil.rmtree(scratch, ignore_errors=True)


def _run(workload, seed, seconds, trace, setups, crash_cycles, scratch, watchdog):
    warmup = min(WARMUP_S, seconds / 4.0)
    cycles = workload.crash_cycles if crash_cycles is None else crash_cycles
    script = workloads.build_script(
        workload, seed, warmup + seconds + 6.0 * cycles + 5.0
    )

    extra = {}
    if trace:
        extra = {"trace": True,
                 "trace_path": os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl")}
    setup_times = []
    for attempt in range(setups):
        spec = child_spec(workload, os.path.join(scratch, f"data-{attempt}"), **extra)
        child, unique_id, took = set_up(
            spec, workload.app, seed, track=watchdog.children.append
        )
        setup_times.append(took)
        if attempt < setups - 1:
            child.kill()

    requests = [
        loadgen.render_request(
            "POST", "/operations",
            {"object": unique_id, "method": entry["method"], "args": entry["args"]},
        )
        for entry in script
    ]
    reader = loadgen.Reader(child.ports, workload.app)
    reader.start()
    issuer = loadgen.Issuer(
        script, requests, child.ports, reader,
        workloads.IN_FLIGHT if workload.loop == "closed" else None,
    )
    issuer.start()

    time.sleep(warmup)
    marks = [child.command("counters")]
    cpu_before = time.process_time()
    for index in range(1, SLICES + 1):
        time.sleep(max(0.0, marks[0]["at"] + seconds * index / SLICES - time.perf_counter()))
        marks.append(child.command("counters"))
    gen_cpu = time.process_time() - cpu_before
    before, after = marks[0], marks[-1]
    rounds = child.command("rounds", since=before["counters"]["rounds"] or 0)["rounds"]

    crashes = []
    for _ in range(cycles):
        halted = child.command("halt", node=workloads.VICTIM)
        rejoined = child.command("rejoin", node=workloads.VICTIM) if halted["ok"] else {}
        crashes.append({"halt": halted, "rejoin": rejoined})
        time.sleep(0.2)

    issuer.stop()
    rejected_late = _drain(issuer, reader, child.ports)
    reader.stop()  # before the child closes the streams from its side
    verdict = child.command(
        "finish", windows=[before["span_mark"], after["span_mark"]]
    )
    exit_code = child.close()
    if exit_code != 0:
        raise BenchError(f"child exited with code {exit_code}")
    if reader.error is not None:
        raise BenchError(f"invalid run: {reader.error}")
    recover_ms = None
    if spec["config"].get("data_dir"):
        log_dir = os.path.join(spec["config"]["data_dir"], workloads.GATEWAY_NODES[0])
        recover_ms = probe(lambda: time_recover_ms(log_dir))

    return {
        "workload": workload, "seed": seed, "script": script,
        "records": issuer.records, "reader": reader,
        "rejected_late": rejected_late,
        "marks": marks, "rounds": rounds,
        "gen_cpu_s": gen_cpu, "setup_times": setup_times,
        "crashes": crashes, "verdict": verdict, "recover_ms": recover_ms,
        "unresolved_names": child.ready.get("unresolved", []),
    }


def _drain(issuer, reader, ports) -> set:
    """Wait for every answered ticket to resolve.

    A ticket answered ``pending`` (its issue was deferred past a flush
    or update window) that is then rejected gets no WebSocket event, so
    those are asked after over ``GET /tickets``.  Returns the
    ``(gateway, ticket)`` pairs found rejected that way.
    """
    rejected: set = set()
    deadline = time.perf_counter() + DRAIN_S
    while True:
        open_tickets = [
            (record[1], record[5]) for record in issuer.records
            if record[5] is not None
            and record[5] not in reader.tickets[record[1]]
            and (record[1], record[5]) not in rejected
        ]
        if not open_tickets or time.perf_counter() > deadline or reader.error:
            return rejected
        for gateway, ticket in open_tickets[:50]:
            status, info = loadgen.call(ports[gateway], "GET", f"/tickets/{ticket}")
            if status == 200 and info.get("status") == "rejected":
                rejected.add((gateway, ticket))
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# From records to metrics
# ---------------------------------------------------------------------------


def analyse(run: dict) -> dict:
    """Metrics, failures and validity of one recorded run."""
    workload = run["workload"]
    reader = run["reader"]
    script = run["script"]
    marks = run["marks"]
    w0, w1 = marks[0]["at"], marks[-1]["at"]
    open_loop = workload.loop == "open"
    by_index = {entry["i"]: entry for entry in script}

    # Machine speed, second by second (``bench/reference.py``): what is
    # pure compute — the program's CPU, the time a POST takes — is
    # reported in milliseconds at reference speed.
    speed = Slices(run["verdict"].get("reference", ()), w0, w1)

    oracle = workloads.Oracle(workload.app)
    failures: list[str] = []
    issue_raw_ms = []
    issue_ms, commit_ms, remote_ms, late_ms, behind_ms, lag_ms = [], [], [], [], [], []
    spans: list[tuple] = []  # (ticket, name, start, end) of measured operations
    free_at = 0.0  # when the session's previous request was answered
    bumps_seen = [0, 0]  # per gateway: committed bumps so far, in issue order
    rejected = 0

    for index, gateway, due, sent, answered, ticket, status in run["records"]:
        entry = by_index[index] if open_loop else script[index]
        origin = due if open_loop else sent
        measured = w0 <= origin < w1
        label = f"gw{gateway}/{ticket}"
        if measured and open_loop:
            # Behind: how late the request left.  Late: the part of that
            # the generator owes — the session was free and the request
            # due, yet it was not sent.  The rest is the program holding
            # the one blocking session, which issue_ms (timed from the
            # due time) already charges to the program.
            behind_ms.append((sent - due) * 1e3)
            late_ms.append((sent - max(due, free_at)) * 1e3)
        free_at = answered
        if ticket is None:
            failures.append(f"op {index}: {status}")
            continue
        if measured and speed:
            issue_raw_ms.append((answered - origin) * 1e3)
            issue_ms.append(issue_raw_ms[-1] * speed.scale_at(answered))
        event = reader.tickets[gateway].get(ticket)
        if event is None:
            if status == "rejected" or (gateway, ticket) in run["rejected_late"]:
                rejected += 1
            else:
                failures.append(f"ticket {label} never resolved")
            continue
        seen_at, final, committed_ok = event
        if final == "rejected":
            rejected += 1
            continue
        oracle.record(entry["method"], entry["args"], bool(committed_ok))
        if measured:
            commit_ms.append((seen_at - answered) * 1e3)
            spans.append((label, "gateway.post", sent, answered))
            spans.append((label, "commit.wait", answered, seen_at))
        if not committed_ok:
            continue
        # When did the other gateway's stream first show this effect?
        shown = None
        if entry["method"] == "bump":
            bumps_seen[gateway] += 1
            history = reader.counter_seen[1 - gateway].get(entry["args"][0], ())
            at = bisect.bisect_left(history, (bumps_seen[gateway], 0.0))
            if at < len(history):
                shown = history[at][1]
        elif entry["method"] in ("replace_at", "insert_at"):
            shown = reader.token_seen[1 - gateway].get(entry["args"][2][:8])
        if measured and shown is not None:
            spans.append((label, "delta.remote", origin, shown))
            remote_ms.append((shown - origin) * 1e3)
            lag_ms.append((shown - seen_at) * 1e3)

    verdict = run["verdict"]
    failures.extend(f"cluster: {error}" for error in verdict.get("errors", ()))
    for machine_id in workloads.GATEWAY_NODES + (workloads.VICTIM,):
        for unique_id, state in verdict.get("states", {}).get(machine_id, {}).items():
            oracle.check(f"{machine_id}/{unique_id}", state)
    failures.extend(oracle.errors)
    for number, crash in enumerate(run["crashes"]):
        if not crash["halt"].get("ok"):
            failures.append(f"crash {number}: {crash['halt'].get('error')}")
        elif not crash["rejoin"].get("ok"):
            failures.append(f"crash {number}: {crash['rejoin'].get('error')}")
        elif not crash["rejoin"].get("equal"):
            failures.append(f"crash {number}: victim differs from the master after rejoin")

    commit_times = sorted(
        seen_at for tickets in reader.tickets for seen_at, final, _ in tickets.values()
        if final == "committed" and w0 <= seen_at < w1
    )

    def commits_between(start: float, end: float) -> int:
        return bisect.bisect_left(commit_times, end) - bisect.bisect_left(commit_times, start)

    slice_rates = [
        commits_between(start["at"], end["at"]) / (end["at"] - start["at"])
        for start, end in zip(marks, marks[1:])
    ]
    # CPU the program used, each slice's share turned into reference
    # time, over the operations committed while the slices ran.
    cpu_ms_per_op = cpu_raw_ms_per_op = None
    if speed and commits_between(speed.starts[0], speed.ends[-1]):
        commits = commits_between(speed.starts[0], speed.ends[-1])
        cpu_raw_ms_per_op = sum(speed.program_cpu_s) * 1e3 / commits
        cpu_ms_per_op = sum(
            cpu * scale for cpu, scale in zip(speed.program_cpu_s, speed.scale)
        ) * 1e3 / commits

    invalid = []
    if not speed:
        invalid.append("the child's reference series does not cover the window")
    elif not (issue_ms and commit_ms and remote_ms and cpu_ms_per_op):
        invalid.append("no samples inside the measured window")
    late_p90 = percentile(late_ms, 90.0) if late_ms else 0.0
    if late_p90 > MAX_LATE_MS:
        invalid.append(f"generator ran late: p90 {late_p90:.2f} ms > {MAX_LATE_MS} ms")

    end_to_end = {}
    if not invalid:
        end_to_end = {
            "setup_s": calm(run["setup_times"]),
            "issue_ms_p50": steady_percentile(issue_ms, 50.0),
            "commit_ms_p50": steady_percentile(commit_ms, 50.0),
            "commit_ms_p95": steady_percentile(
                commit_ms, tail_percentile(commit_ms, 95.0)[0]),
            "remote_ms_p50": steady_percentile(remote_ms, 50.0),
            "committed_ops_s": calm(slice_rates, better="higher"),
            "cpu_ms_per_op": cpu_ms_per_op,
            "rss_mb": verdict.get("rss_kb", 0) / 1024.0,
        }
    layers = _window_layers(run, len(commit_times))
    layers.update({
        "gateway.delta_lag_ms": percentile(lag_ms, 50) if lag_ms else None,
        "gateway.issue_ms_p99": tail_percentile(issue_ms, 99.0)[1] if issue_ms else None,
        "gateway.issue_raw_ms_p50": percentile(issue_raw_ms, 50) if issue_raw_ms else None,
        "runtime.cpu_raw_ms_per_op": cpu_raw_ms_per_op,
        "gen.reference_unit_ms": (
            NOMINAL_UNIT_MS / statistics.median(speed.scale) if speed else None),
        "gen.late_ms_p99": tail_percentile(late_ms, 99.0)[1] if late_ms else 0.0,
        "gen.behind_ms_p99": tail_percentile(behind_ms, 99.0)[1] if behind_ms else 0.0,
    })
    return {
        "end_to_end": end_to_end,
        "layers": layers,
        "attempted": len(run["records"]),
        "failed": len(failures),
        "failures": failures,
        "rejected": rejected,
        "invalid": invalid,
        "spans": spans,
        "cpu_ms_per_op": cpu_ms_per_op,
        "committed_in_window": len(commit_times),
        "samples": {"issue": len(issue_ms), "commit": len(commit_ms),
                    "remote": len(remote_ms)},
    }


def _window_layers(run: dict, committed_seen: int) -> dict:
    """Per-layer numbers of the measured window, from the program's
    counters at its two ends (absent counters make absent metrics)."""
    before, after = run["marks"][0], run["marks"][-1]
    w0, w1 = before["at"], after["at"]
    verdict = run["verdict"]

    def moved(key):
        a, b = before["counters"].get(key), after["counters"].get(key)
        return None if a is None or b is None else b - a

    def per(top, bottom):
        return None if top is None or not bottom else top / bottom

    rounds = run["rounds"]
    n_rounds = None if rounds is None else len(rounds)
    round_ms = None
    if rounds:  # rounds that carried operations, unless none did
        round_ms = [r[0] * 1e3 for r in rounds if r[1] > 0] or [r[0] * 1e3 for r in rounds]
    ok, failed = moved("ops_committed_ok"), moved("ops_committed_failed")
    committed = None if ok is None or failed is None else ok + failed
    hits, misses = moved("decode_cache_hits"), moved("decode_cache_misses")
    delta_bytes = sum(
        size for deltas in run["reader"].deltas for at, size in deltas if w0 <= at < w1
    )

    def crash_median(part, key):
        values = [
            crash[part][key] for crash in run["crashes"]
            if crash["rejoin"].get("ok") and crash[part].get(key) is not None
        ]
        return statistics.median(values) if values else None

    return {
        "gateway.delta_bytes_per_op": per(delta_bytes, committed_seen),
        "runtime.round_ms_p50": percentile(round_ms, 50) if round_ms else None,
        "runtime.round_ms_p95": tail_percentile(round_ms, 95.0)[1] if round_ms else None,
        "runtime.ops_per_round": per(None if rounds is None else sum(r[1] for r in rounds), n_rounds),
        "runtime.rounds_per_s": per(n_rounds, w1 - w0),
        "runtime.executions_per_op_mean": verdict.get("executions_mean"),
        "runtime.executions_per_op_max": verdict.get("executions_max"),
        "runtime.decode_cache_hit_rate": per(
            hits, None if hits is None or misses is None else hits + misses),
        "runtime.refresh_copies_per_round": per(
            moved("refresh_objects_copied"), moved("refresh_rounds")),
        "runtime.conflict_share": per(moved("conflicts"), committed),
        "runtime.resends": moved("round_resends"),
        "runtime.removals": moved("round_removals"),
        "runtime.outage_ms": crash_median("halt", "outage_ms"),
        "runtime.rejoin_ms": crash_median("rejoin", "rejoin_ms"),
        "transport.frames_per_round": per(moved("frames_sent"), n_rounds),
        "transport.frames_per_op": per(moved("frames_sent"), committed),
        "transport.send_failures": moved("send_failures"),
        "transport.reconnects": moved("reconnects"),
        "storage.wal_bytes_per_op": per(moved("wal_bytes"), committed),
        "storage.fsyncs_per_round": per(moved("fsyncs"), n_rounds),
        "storage.recover_ms": run["recover_ms"],
        "gen.cpu_share": run["gen_cpu_s"] / (w1 - w0),
    }
