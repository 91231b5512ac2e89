"""The ``wire-mixed`` workload: a server process and a load generator.

The server (``server.py``) runs in its own process, so the generator's
interpreter lock is not the program's.  The generator runs two closed
loops, one thread and one ``PMVClient`` connection each (two = the
machine's cores): 70% template queries over the 12 cells of a small
``r ⋈ s`` equality template (answers of tens of rows) and 30% DML on
client-owned ids — inserts, and ``delete_eq`` of ids the same client
inserted, at most 16 outstanding per client so the data stays the same
size over a run.  This is the only workload that exercises framing,
gate admission, idempotent DML, WAL appends, delta-join maintenance,
S/X contention between readers and writers, and teardown.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import threading
import time

import ledger
from common import (
    END,
    NAME,
    PARENT,
    REQUEST,
    START,
    ChildProcess,
    OracleError,
    SpanRecorder,
    attributed_time,
    check_rows,
    descendants,
    duration_by_name,
    percentile,
    self_time_by_name,
)
from server import CLIENT_ID_BASE, F_VALUES, G_VALUES, JOIN_VALUES, bind, make_template
from tracing import READ_REQUEST, LayerTracer

CLIENTS = 2
QUERY_SHARE = 0.7
MAX_OWNED = 16
# Per client, before the timed window.  The server's peak memory is
# read when the warm-up ends: its in-memory WAL and idempotency table
# keep every write, so a reading after a fixed number of ops measures
# memory per op, where one after a fixed-time window would grow with
# throughput.
WARMUP_OPS = 1000
SETUPS_BEFORE, SETUPS_AFTER = 1, 1  # set-ups timed at both ends of a run
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")


class ServerProcess(ChildProcess):
    """The server child process and its control pipe."""

    def __init__(self, seed: int, cpus: list[int]) -> None:
        super().__init__([SERVER, "--seed", str(seed)])
        if len(cpus) >= 2:
            # The server on one core, the generator on another, so the
            # two processes never preempt each other; the server's
            # interpreter runs one thread at a time, so one core is
            # what it computes on.
            os.sched_setaffinity(self.proc.pid, {cpus[0]})
            os.sched_setaffinity(0, {cpus[1]})
        try:
            ready = self.read(READY_TIMEOUT)
        except BaseException:
            self.kill()
            raise
        self.host, self.port = ready["host"], ready["port"]

    def stop(self) -> tuple[float, dict | None, bool]:
        """Stop the server and wait for the process to exit, at most
        ``STOP_TIMEOUT`` seconds before it is killed.  Returns (seconds,
        the server's stop report or None, whether it was killed)."""
        started = time.perf_counter()
        report = None
        killed = False
        try:
            self.proc.stdin.write(b'{"cmd": "stop"}\n')
            self.proc.stdin.close()
            report = self.read(STOP_TIMEOUT)
            self.proc.wait(timeout=max(0.1, STOP_TIMEOUT - (time.perf_counter() - started)))
        except (TimeoutError, subprocess.TimeoutExpired, RuntimeError, OSError):
            killed = True
        seconds = time.perf_counter() - started
        self.kill()
        return seconds, report, killed


class ClientState:
    """One closed-loop client: its connection, its RNG and its ledger of
    what the server acknowledged."""

    def __init__(self, index: int, seed: int, host: str, port: int) -> None:
        from repro.net import PMVClient
        from repro.net.client import RetryPolicy

        self.index = index
        self.client_id = f"bench-{index}"
        self.client = PMVClient(
            host, port, self.client_id, pool_size=1, retry=RetryPolicy(attempts=5, base_delay=0.01)
        )
        self.rng = random.Random(seed * 1009 + index)
        self.next_id = CLIENT_ID_BASE + index * 1_000_000
        self.owned: list[int] = []
        self.acked_inserts: set[int] = set()
        self.acked_deletes: set[int] = set()
        self.in_doubt: set[int] = set()


class PhaseLog:
    def __init__(self) -> None:
        self.reads: list[float] = []
        self.writes: list[float] = []
        self.failed = 0
        self.shed = 0
        self.elapsed = 0.0

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)


def _client_loop(state: ClientState, template, stop_at: float, max_ops: int | None, log: PhaseLog, mutex, rec, tracer) -> None:
    from repro.errors import NetError, OverloadError

    if tracer is not None:
        tracer.thread_client.client = state.client_id
    clock = time.perf_counter
    rng = state.rng
    client = state.client
    reads: list[float] = []
    writes: list[float] = []
    failed = shed = 0
    done = 0
    while (max_ops is None and clock() < stop_at) or (max_ops is not None and done < max_ops):
        done += 1
        roll = rng.random()
        row_id = None
        if roll < QUERY_SHARE:
            kind, sink, op = "op.read", reads, "query"
            query = bind(template, rng.randrange(F_VALUES), rng.randrange(G_VALUES))
            call, args = client.query, (query,)
        elif len(state.owned) < 2 or (len(state.owned) < MAX_OWNED and rng.random() < 0.5):
            kind, sink, op = "op.write", writes, "insert"
            row_id = state.next_id
            state.next_id += 1
            values = [row_id, rng.randrange(JOIN_VALUES), rng.randrange(F_VALUES), f"w{row_id}"]
            call, args = client.insert, ("r", values)
        else:
            kind, sink, op = "op.write", writes, "delete"
            row_id = state.owned.pop(rng.randrange(len(state.owned)))
            call, args = client.delete_eq, ("r", "id", row_id)
        span = rec.open(kind) if rec is not None else -1
        t0 = clock()
        try:
            call(*args)
        except (OverloadError, NetError) as exc:
            sink.append(float("inf"))
            failed += 1
            shed += isinstance(exc, OverloadError)
            if row_id is not None:
                state.in_doubt.add(row_id)
            continue
        finally:
            if span >= 0:
                rec.close(span)
        sink.append(clock() - t0)
        if op == "insert":
            state.acked_inserts.add(row_id)
            state.owned.append(row_id)
        elif op == "delete":
            state.acked_deletes.add(row_id)
    with mutex:
        log.reads.extend(reads)
        log.writes.extend(writes)
        log.failed += failed
        log.shed += shed


def run_phase(states, template, seconds: float = 0.0, max_ops: int | None = None, rec=None, tracer=None) -> PhaseLog:
    """All clients in closed loops for ``seconds`` (or ``max_ops`` each)."""
    log = PhaseLog()
    mutex = threading.Lock()
    started = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(state, template, started + seconds, max_ops, log, mutex, rec, tracer),
            name=f"pmvbench-client-{state.index}",
        )
        for state in states
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
    log.elapsed = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load generator thread is wedged")
    return log


def setup(seed: int, cpus: list[int]) -> tuple[ServerProcess, list[ClientState]]:
    server = ServerProcess(seed, cpus)
    states: list[ClientState] = []
    try:
        for i in range(CLIENTS):
            states.append(ClientState(i, seed, server.host, server.port))
            states[-1].client.ping()  # connect and say hello before the first timed op
    except BaseException:
        teardown(server, states)
        raise
    return server, states


def teardown(server: ServerProcess, states: list[ClientState]) -> tuple[float, dict | None, bool]:
    started = time.perf_counter()
    for state in states:
        state.client.close()
    _stop_s, report, killed = server.stop()
    return time.perf_counter() - started, report, killed


def timed_setups(seed: int, cpus: list[int], count: int, setups: list[float], teardowns: list[float]) -> None:
    """``count`` throwaway set-ups, each torn down at once, timed."""
    for _ in range(count):
        started = time.perf_counter()
        server, states = setup(seed, cpus)
        setups.append(time.perf_counter() - started)
        teardowns.append(teardown(server, states)[0])


def verify(server: ServerProcess, states: list[ClientState], template) -> int:
    """The oracle, with writes quiesced: the server's PMV consistency
    check, every template cell over the wire against plain execution on
    the server, and the client ledgers against the rows present."""
    cells = [(f, g) for f in range(F_VALUES) for g in range(G_VALUES)]
    answers = []
    for f, g in cells:
        answer = states[0].client.query(bind(template, f, g))
        if not answer.complete:
            raise OracleError(f"cell {(f, g)}: answer marked incomplete without a deadline")
        answers.append(answer.rows)
    truth = server.command(cmd="truth", cells=cells)
    if truth["inconsistent"]:
        raise OracleError(f"PMV inconsistent with the database: {truth['inconsistent']}")
    for cell, answer, plain in zip(cells, answers, truth["cells"]):
        check_rows(answer, plain, f"cell {cell}")
    present = {int(row_id): count for row_id, count in truth["owned"].items()}
    known: set[int] = set()
    for state in states:
        known |= state.acked_inserts | state.in_doubt
        for row_id in state.acked_inserts:
            count = present.get(row_id, 0)
            if row_id in state.acked_deletes:
                if count:
                    raise OracleError(f"acked delete of id {row_id} is present {count} time(s)")
            elif row_id in state.in_doubt:
                if count > 1:
                    raise OracleError(f"id {row_id} applied {count} times")
            elif count != 1:
                raise OracleError(f"acked insert of id {row_id} is present {count} time(s)")
    phantoms = sorted(set(present) - known)
    if phantoms:
        raise OracleError(f"rows never inserted by a client are present: {phantoms[:5]}")
    return len(cells)


def untraced_run(name: str, seed: int, seconds: float) -> dict:
    template = make_template()
    cpus = sorted(os.sched_getaffinity(0))
    setups: list[float] = []
    teardowns: list[float] = []
    timed_setups(seed, cpus, SETUPS_BEFORE, setups, teardowns)
    started = time.perf_counter()
    server, states = setup(seed, cpus)
    setups.append(time.perf_counter() - started)
    try:
        run_phase(states, template, max_ops=WARMUP_OPS)
        rss = server.command(cmd="rss")["peak_rss_mb"]
        log = run_phase(states, template, seconds)
        checked = verify(server, states, template)
    except BaseException:
        teardown(server, states)
        raise
    seconds_down, report, killed = teardown(server, states)
    teardowns.append(seconds_down)
    if killed or report is None:
        raise RuntimeError("the server did not stop within the bound and was killed")
    timed_setups(seed, cpus, SETUPS_AFTER, setups, teardowns)
    return {
        "attempted": log.ops,
        "failed": log.failed,
        "checked": checked,
        "metrics": {
            "setup_s": statistics.median(setups),
            "teardown_s": statistics.median(teardowns),
            "ops_per_s": (log.ops - log.failed) / log.elapsed,
            # The client API returns one frame per query, the complete
            # answer, so over the wire the first answer is the last.
            "first_mean_us": _mean_completed(log.reads) * 1e6,
            "first_p90_us": percentile(log.reads, 0.90) * 1e6,
            "read_mean_us": _mean_completed(log.reads) * 1e6,
            "read_p90_us": percentile(log.reads, 0.90) * 1e6,
            "write_mean_us": _mean_completed(log.writes) * 1e6,
            "write_p90_us": percentile(log.writes, 0.90) * 1e6,
            "peak_rss_mb": rss,
        },
    }


def _mean_completed(latencies: list[float]) -> float:
    """Mean over completed ops; a failed op (``inf``) is counted in
    ``failed`` and lies beyond every percentile instead."""
    return statistics.fmean(t for t in latencies if t != float("inf"))


def traced_run(name: str, seed: int, seconds: float) -> dict:
    """Per-layer ledger: a traced window (client and server spans), then
    an untraced window of half the length for the tracing overhead."""
    template = make_template()
    server, states = setup(seed, sorted(os.sched_getaffinity(0)))
    rec = SpanRecorder()
    tracer = LayerTracer(rec, "client")
    metrics = ledger.empty()
    try:
        run_phase(states, template, max_ops=WARMUP_OPS)
        server.command(cmd="trace", on=True)
        tracer.install()
        for state in states:
            # Reconnect, so the traced server sees each connection's
            # hello and can key its request spans by client id.
            state.client.close()
        before = server.command(cmd="counters")
        retries = sum(state.client.retries for state in states)
        reconnects = sum(state.client.reconnects for state in states) + CLIENTS
        try:
            traced = run_phase(states, template, seconds, rec=rec, tracer=tracer)
        finally:
            tracer.uninstall()
            server.command(cmd="trace", on=False)
        after = server.command(cmd="counters")
        metrics["net.client_retries"] = sum(state.client.retries for state in states) - retries
        metrics["net.reconnects"] = sum(state.client.reconnects for state in states) - reconnects
        dump = server.command(cmd="spans")
        with open(dump["path"], encoding="utf-8") as handle:
            server_trace = json.load(handle)
        coverage = wire_layers(metrics, rec, tracer, server_trace, traced)
        counter_metrics(metrics, before, after, traced)
        plain_before = server.command(cmd="counters")
        plain = run_phase(states, template, seconds / 2)
        plain_after = server.command(cmd="counters")
        checked = verify(server, states, template)
    except BaseException:
        teardown(server, states)
        raise
    _seconds, report, killed = teardown(server, states)
    delta = ledger.counter_delta(
        {k: v for k, v in plain_after.items() if not isinstance(v, list)},
        {k: v for k, v in plain_before.items() if not isinstance(v, list)},
    )
    metrics["core.overhead_frac"] = delta["overhead"] / delta["execution"] if delta["execution"] else 0.0
    if report is not None:
        metrics["net.server_stop_s"] = report["stop_s"]
        metrics["net.threads_leaked"] = len(report["threads_alive"])
    metrics["net.server_killed"] = float(killed)
    traced_op = _mean_completed(traced.reads + traced.writes)
    plain_op = _mean_completed(plain.reads + plain.writes)
    metrics["trace.op_us"] = traced_op * 1e6
    metrics["trace.untraced_op_us"] = plain_op * 1e6
    metrics["trace.overhead_frac"] = traced_op / plain_op - 1.0
    metrics["trace.blocking_coverage_frac"] = coverage
    return {
        "attempted": traced.ops + plain.ops,
        "failed": traced.failed + plain.failed,
        "checked": checked,
        "metrics": metrics,
    }


def counter_metrics(metrics: dict, before: dict, after: dict, log: PhaseLog) -> None:
    """Server counters over the traced window, per read or per write."""
    scalar = {k: v for k, v in after.items() if not isinstance(v, list)}
    delta = ledger.counter_delta(scalar, {k: before[k] for k in scalar})
    reads = max(1, len(log.reads))
    writes = max(1, len(log.writes))
    ledger.apply_counts(metrics, delta, reads)
    answers = [a - b for a, b in zip(after["answers"], before["answers"])]
    parts, bcp_hits, partial, total, o1_hits, queries = answers
    metrics["core.bcp_hit_frac"] = bcp_hits / parts if parts else 0.0
    metrics["core.partial_frac"] = partial / total if total else 0.0
    metrics["core.o1_memo_hit_frac"] = o1_hits / queries if queries else 0.0
    metrics["core.lock_bypass_frac"] = delta["bypassed_lock"] / queries if queries else 0.0
    metrics["core.maint_tuples_removed"] = delta["maint_removed"] / writes
    metrics["engine.lock_waits"] = delta["lock_waits"] / max(1, log.ops)
    metrics["net.answer_bytes"] = delta["answer_bytes"] / reads
    metrics["engine.wal_bytes_per_write"] = delta["wal_bytes"] / writes
    metrics["qos.shed_frac"] = log.shed / max(1, log.ops)


def wire_layers(metrics: dict, rec: SpanRecorder, tracer: LayerTracer, server_trace: dict, log: PhaseLog) -> float:
    """Join the generator's spans with the server's, request by request
    (both clocks are the machine's monotonic clock), and fill the
    per-op layer metrics: the wire's own pieces here, the read and write
    paths through the ledger as in process.  Returns the share of the
    generator's op time that the blocking-path spans account for."""
    spans = rec.spans
    sspans = server_trace["spans"]
    roots = {i for i, s in enumerate(spans) if s[NAME] in ("op.read", "op.write") and s[END] is not None}
    ops = max(1, len(roots))
    writes = max(1, len(log.writes))
    op_time = sum(spans[i][END] - spans[i][START] for i in roots)

    # The server's request trees of the generator's op requests.
    server_roots = {}
    for i, s in enumerate(sspans):
        if s[PARENT] < 0 and s[NAME].startswith("request.") and s[END] is not None and s[REQUEST] is not None:
            server_roots[tuple(s[REQUEST])] = i
    decode_in = {}
    for s in spans:
        if s[NAME] == "client.decode" and s[PARENT] >= 0:
            decode_in[s[PARENT]] = s[END] - s[START]
    transit_in = transit_out = 0.0
    matched: set[int] = set()
    for key, (recv_start, recv_end, recv_span) in tracer.received.items():
        key = tuple(key)
        index = server_roots.get(key)
        sent = tracer.sent.get(key)
        parent = spans[recv_span][PARENT]
        if index is None or sent is None or parent not in roots:
            continue
        matched.add(index)
        server = sspans[index]
        transit_in += server[START] - sent
        transit_out += recv_end - decode_in.get(recv_span, 0.0) - server[END]
    client_own = self_time_by_name(spans, roots)
    server_own = self_time_by_name(sspans, matched)
    front = duration_by_name(sspans, {"net.front"}, list(matched) + descendants(sspans, matched))
    per_op = 1e6 / ops
    metrics["net.rtt_self_us"] = (op_time - front.get("net.front", 0.0)) * per_op
    metrics["net.transit_in_us"] = transit_in * per_op
    metrics["net.transit_out_us"] = transit_out * per_op
    metrics["net.encode_us"] = (client_own.get("client.encode", 0.0) + server_own.get("net.encode", 0.0)) * per_op
    metrics["net.decode_us"] = (client_own.get("client.decode", 0.0) + server_own.get("net.decode", 0.0)) * per_op
    metrics["qos.admit_wait_us"] = server_own.get("qos.admit", 0.0) * per_op
    metrics["qos.gate_self_us"] = server_own.get("qos.gate", 0.0) * per_op
    reads = {i for i in matched if sspans[i][NAME] == READ_REQUEST}
    ledger.read_layers(metrics, sspans, reads, server_trace["read_leaves"], max(1, len(reads)))
    ledger.write_layers(metrics, sspans, writes, 0)

    # Blocking path: the generator's own spans, the transits, and the
    # server's request trees (self times and leaf calls).
    attributed = attributed_time(spans, roots, {"op.read", "op.write", "client.recv"})
    attributed += transit_in + transit_out + attributed_time(sspans, matched, set())
    return attributed / op_time if op_time else 0.0
