"""The in-process workloads: ``hot-read`` and ``cold-read``.

One caller runs template T1 queries through ``PMVExecutor.execute`` in
a closed loop over the TPC-R-like data (downscale 1000: 150 customers,
1,500 orders, 6,000 lineitems; a 32-page buffer pool, smaller than the
data).  Per query it times the first partial answer (the ``on_partial``
hook) and the complete answer (``execute`` returns).  The window is
cut into time slices; after each slice the oracle checks the slice's
answers and a fixed chunk of DML statements (lineitem inserts and
deletes) times the write path with the PMV attached, so maintenance
runs against the view the reads built.  Set-up and teardown are timed
in a child interpreter, the set-up worker, once before the window and
once after each slice.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from array import array

import ledger
from common import (
    END,
    NAME,
    START,
    ChildProcess,
    SpanRecorder,
    attributed_time,
    check_answer,
    digest,
    peak_rss_mb,
    percentile,
    use_source_tree,
)
from tracing import LayerTracer

DOWNSCALE = 1000
BUFFER_POOL_PAGES = 32
WARMUP_QUERIES = 200
COUNT_PREFIX = 1000  # traced runs count engine work over exactly these queries
WRITE_ROUNDS = 40  # per slice; two inserts and one delete each
SLICES = 10
SETUP_TIMEOUT = 60.0

WORKLOADS = {
    # The paper's intended regime: a skewed stream whose hot set fits
    # the PMV, so the first partial answer arrives long before O3 ends.
    "hot-read": dict(dates=20, suppliers=8, alpha=3.0, tuples_per_entry=64, max_entries=20_000),
    # The PMV mostly misses: 3,600 basic condition parts, a 40-entry
    # view and a flat stream, so partial answers are nearly empty and
    # O1 misses, refresh and CLOCK churn dominate the PMV's cost.
    "cold-read": dict(dates=120, suppliers=30, alpha=0.5, tuples_per_entry=3, max_entries=40),
}
VALUES_PER_SLOT = (2, 2)


class Session:
    """One set-up: database, PMV, executor and the seeded query stream."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.bench.figures import build_experiment_database
        from repro.core.manager import PMVManager
        from repro.workload.templates import make_t1

        cfg = WORKLOADS[name]
        self.env = build_experiment_database(
            downscale=DOWNSCALE,
            seed=seed,
            buffer_pool_pages=BUFFER_POOL_PAGES,
            distinct_order_dates=cfg["dates"],
            suppliers=cfg["suppliers"],
        )
        self.database = self.env.database
        self.template = make_t1()
        self.manager = PMVManager(self.database)
        self.view = self.manager.create_view(
            self.template,
            tuples_per_entry=cfg["tuples_per_entry"],
            max_entries=cfg["max_entries"],
            policy="clock",
        )
        self.executor = self.manager.executor(self.template.name)
        self.alpha = cfg["alpha"]
        self.stream = self.stream_for(seed)
        self.write_rng = random.Random(seed)
        self.writes = 0

    def stream_for(self, seed: int):
        """The seeded query stream; the same seed replays the same queries."""
        from repro.workload.queries import ZipfianQueryStream

        return ZipfianQueryStream(
            self.template,
            [self.env.dates, self.env.suppliers],
            alpha=self.alpha,
            values_per_slot=list(VALUES_PER_SLOT),
            seed=seed,
        )

    def close(self) -> None:
        self.manager.drop_view(self.template.name)


class SetupWorker(ChildProcess):
    """A child interpreter that builds and tears down one throwaway
    session per request.  Timing set-ups there keeps them apart from the
    measured session: its heap does not slow their collections, and
    their data does not add to its peak memory.  The worker builds one
    untimed session first, so every timed one finds its code warm."""

    def __init__(self, name: str, seed: int) -> None:
        super().__init__([os.path.abspath(__file__), "--setup-worker", name, str(seed)])
        self._ready = False

    def time_one(self) -> tuple[float, float]:
        """(set-up seconds, teardown seconds) of one fresh session."""
        if not self._ready:
            self.read(SETUP_TIMEOUT)
            self._ready = True
        reply = self.command(timeout=SETUP_TIMEOUT, cmd="setup")
        return reply["setup_s"], reply["teardown_s"]

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        with contextlib.suppress(subprocess.TimeoutExpired):
            self.proc.wait(timeout=SETUP_TIMEOUT)
        self.kill()


def serve_setups(name: str, seed: int) -> None:
    """The worker's loop: one set-up and teardown per input line."""
    teardown(Session(name, seed))
    print(json.dumps({"ready": True}), flush=True)
    for _line in sys.stdin:
        started = time.perf_counter()
        session = Session(name, seed)
        setup_s = time.perf_counter() - started
        print(json.dumps({"setup_s": setup_s, "teardown_s": teardown(session)}), flush=True)


def teardown(session: Session) -> float:
    """Detach the PMV and drop the session's references to what it
    built; objects outside reference cycles are freed on the spot."""
    started = time.perf_counter()
    session.close()
    session.__dict__.clear()
    return time.perf_counter() - started


class ReadLog:
    """Per-query timings and answer digests of one read window."""

    def __init__(self) -> None:
        # Compact arrays and per-slice digests keep the benchmark's own
        # memory flat, so peak RSS does not grow with throughput.
        self.reads = array("d")
        self.firsts = array("d")
        self.answers: list[tuple] = []  # (partial digest, remaining digest)
        self.parts = self.bcp_hits = self.partial = self.total = self.o1_hits = 0
        self.elapsed = 0.0


def read_window(session: Session, seconds: float, min_queries: int = 0, execute=None, at_prefix=None) -> ReadLog:
    """Closed loop for ``seconds`` and at least ``min_queries``;
    ``at_prefix`` is called once after exactly ``COUNT_PREFIX`` queries."""
    log = ReadLog()
    execute = execute or session.executor.execute
    next_query = session.stream.next_query
    clock = time.perf_counter
    reads, firsts, answers = log.reads, log.firsts, log.answers
    first = [0.0]

    def on_partial(rows) -> None:
        first[0] = clock()

    started = clock()
    stop = started + seconds
    n = 0
    while True:
        query = next_query()
        t0 = clock()
        result = execute(query, on_partial=on_partial)
        t1 = clock()
        reads.append(t1 - t0)
        firsts.append(first[0] - t0)
        answers.append(
            (
                digest([row.values for row in result.partial_rows]),
                digest([row.values for row in result.remaining_rows]),
            )
        )
        m = result.metrics
        log.parts += m.condition_parts
        log.bcp_hits += m.bcp_hits
        log.partial += m.partial_tuples
        log.total += m.partial_tuples + m.remaining_tuples
        log.o1_hits += bool(m.o1_cache_hit)
        n += 1
        if n == COUNT_PREFIX and at_prefix is not None:
            at_prefix(log)
        if t1 >= stop and n >= min_queries:
            break
    log.elapsed = clock() - started
    return log


def write_chunk(session: Session) -> list[float]:
    """``WRITE_ROUNDS`` rounds of two lineitem inserts and the delete of
    the first: two thirds of the statements are inserts, so the median
    lies inside one statement kind rather than between two."""
    database = session.database
    rng = session.write_rng
    orders = session.env.dataset.row_counts["orders"]
    suppliers = session.env.suppliers
    clock = time.perf_counter
    latencies: list[float] = []
    for _ in range(WRITE_ROUNDS):
        session.writes += 1
        first = (rng.randint(1, orders), rng.choice(suppliers), 1000 + session.writes, 1.0, 1.0, "bench")
        second = (rng.randint(1, orders), rng.choice(suppliers), 1000 + session.writes, 2.0, 2.0, "bench")
        t0 = clock()
        row_id = database.insert("lineitem", first)
        t1 = clock()
        database.insert("lineitem", second)
        t2 = clock()
        database.delete("lineitem", row_id)
        t3 = clock()
        latencies += (t1 - t0, t2 - t1, t3 - t2)
    return latencies


class Oracle:
    """Checks answers against plain execution, outside the timed slices.

    It replays the seeded query stream in step with the workload, so it
    knows each answer's query without the timed loop keeping it, and it
    forgets its plain answers whenever the data changes."""

    def __init__(self, session: Session, name: str, seed: int) -> None:
        self.session = session
        self.name = name
        self.stream = session.stream_for(seed)
        self.plain: dict[str, tuple[int, int]] = {}
        self.checked = 0

    def skip(self, queries: int) -> None:
        for _ in range(queries):
            self.stream.next_query()

    def check(self, log: ReadLog) -> None:
        run = self.session.database.run
        for partial, remaining in log.answers:
            query = self.stream.next_query()
            key = str(query)
            expected = self.plain.get(key)
            if expected is None:
                expected = self.plain[key] = digest([row.values for row in run(query)])
            check_answer(partial, remaining, expected, f"{self.name} answer {self.checked}: {key}")
            self.checked += 1
        log.answers.clear()

    def data_changed(self) -> None:
        self.plain.clear()


class Window:
    """``SLICES`` read slices, each followed by the check of its answers
    and a timed write chunk, so reads and writes both sample the whole
    window.  Percentiles are taken over all operations of the window."""

    def __init__(self) -> None:
        self.slices: list[ReadLog] = []
        self.chunks: list[list[float]] = []

    @property
    def reads(self) -> int:
        return sum(len(log.reads) for log in self.slices)

    @property
    def writes(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    def mean_read(self) -> float:
        return statistics.fmean(r for log in self.slices for r in log.reads)

    def metrics(self) -> dict:
        reads = [r for log in self.slices for r in log.reads]
        firsts = [f for log in self.slices for f in log.firsts]
        writes = [w for chunk in self.chunks for w in chunk]
        return {
            "ops_per_s": len(reads) / sum(log.elapsed for log in self.slices),
            "first_mean_us": statistics.fmean(firsts) * 1e6,
            "first_p90_us": percentile(firsts, 0.90) * 1e6,
            "read_mean_us": statistics.fmean(reads) * 1e6,
            "read_p90_us": percentile(reads, 0.90) * 1e6,
            "write_mean_us": statistics.fmean(writes) * 1e6,
            "write_p90_us": percentile(writes, 0.90) * 1e6,
        }


def run_window(session: Session, oracle: Oracle, seconds: float, execute=None, at_prefix=None,
               read_tracer=None, write_tracer=None, after_slice=None) -> Window:
    """Run one measured window.  The first slice runs at least
    ``COUNT_PREFIX`` queries, so ``at_prefix`` sees no write;
    ``after_slice`` is called between slices, outside their timing."""
    window = Window()
    for index in range(SLICES):
        with _installed(read_tracer, session):
            log = read_window(
                session, seconds / SLICES, COUNT_PREFIX if index == 0 else 0,
                execute, at_prefix if index == 0 else None,
            )
        window.slices.append(log)
        oracle.check(log)
        with _installed(write_tracer, session):
            window.chunks.append(write_chunk(session))
        oracle.data_changed()
        if after_slice is not None:
            after_slice()
    return window


@contextlib.contextmanager
def _installed(tracer, session: Session):
    """The block runs with ``tracer``'s wrappers installed (if any)."""
    if tracer is None:
        yield
        return
    tracer.install([session.manager])
    try:
        yield
    finally:
        tracer.uninstall()


def untraced_run(name: str, seed: int, seconds: float) -> dict:
    """The timed window, with a set-up timed in the worker before it and
    after each slice, so set-up times sample the whole run as the
    operation latencies do."""
    worker = SetupWorker(name, seed)
    try:
        session = Session(name, seed)
        oracle = Oracle(session, name, seed)
        read_window(session, 0, WARMUP_QUERIES)
        oracle.skip(WARMUP_QUERIES)
        setups = [worker.time_one()]
        window = run_window(session, oracle, seconds, after_slice=lambda: setups.append(worker.time_one()))
        session.manager.verify_consistency()
        rss = peak_rss_mb()
        teardown(session)
    finally:
        worker.close()
    metrics = window.metrics()
    metrics["setup_s"] = statistics.median(up for up, _down in setups)
    metrics["teardown_s"] = statistics.median(down for _up, down in setups)
    metrics["peak_rss_mb"] = rss
    return {
        "attempted": window.reads + window.writes,
        "failed": 0,
        "checked": oracle.checked,
        "metrics": metrics,
    }


def traced_run(name: str, seed: int, seconds: float) -> dict:
    """Per-layer ledger: a traced window (reads and writes traced into
    separate recorders), then an untraced window of half the length on
    the same set-up for the tracing overhead.  The engine counts are
    taken over the first ``COUNT_PREFIX`` queries after the warm-up, a
    fixed stretch of a seeded stream, so they repeat exactly."""
    session = Session(name, seed)
    database, view = session.database, session.view
    oracle = Oracle(session, name, seed)
    read_window(session, 0, WARMUP_QUERIES)
    oracle.skip(WARMUP_QUERIES)
    rec, write_rec = SpanRecorder(), SpanRecorder()
    read_tracer, write_tracer = LayerTracer(rec, "server"), LayerTracer(write_rec, "server")
    metrics = ledger.empty()
    before = ledger.engine_counters(database, view)

    def at_prefix(log: ReadLog) -> None:
        fetches = rec.leaf_totals().get("engine.fetch", (0.0, 0))[1]
        delta = ledger.counter_delta(ledger.engine_counters(database, view, fetches), before)
        ledger.apply_counts(metrics, delta, COUNT_PREFIX)
        metrics["core.bcp_hit_frac"] = log.bcp_hits / log.parts
        metrics["core.partial_frac"] = log.partial / log.total if log.total else 0.0
        metrics["core.o1_memo_hit_frac"] = log.o1_hits / COUNT_PREFIX
        metrics["core.lock_bypass_frac"] = delta["bypassed_lock"] / COUNT_PREFIX

    executor = session.executor

    def traced_execute(query, on_partial):
        span = rec.open("op.read")
        try:
            return executor.execute(query, on_partial=on_partial)
        finally:
            rec.close(span)

    removed = view.metrics.maintenance_tuples_removed
    traced = run_window(session, oracle, seconds, traced_execute, at_prefix, read_tracer, write_tracer)
    roots = {i for i, span in enumerate(rec.spans) if span[NAME] == "op.read"}
    ledger.read_layers(metrics, rec.spans, roots, rec.leaf_totals({"op.read"}), traced.reads)
    op_time = sum(rec.spans[i][END] - rec.spans[i][START] for i in roots)
    coverage = attributed_time(rec.spans, roots, {"op.read"}) / op_time
    ledger.write_layers(metrics, write_rec.spans, traced.writes, write_tracer.wal_bytes)
    metrics["core.maint_tuples_removed"] = (view.metrics.maintenance_tuples_removed - removed) / traced.writes

    counters = ledger.engine_counters(database, view)
    plain = run_window(session, oracle, seconds / 2)
    delta = ledger.counter_delta(ledger.engine_counters(database, view), counters)
    metrics["core.overhead_frac"] = delta["overhead"] / delta["execution"]
    metrics["engine.lock_waits"] = delta["lock_waits"] / plain.reads
    session.manager.verify_consistency()
    traced_op, untraced_op = traced.mean_read(), plain.mean_read()
    metrics["trace.op_us"] = traced_op * 1e6
    metrics["trace.untraced_op_us"] = untraced_op * 1e6
    metrics["trace.overhead_frac"] = traced_op / untraced_op - 1.0
    metrics["trace.blocking_coverage_frac"] = coverage
    teardown(session)
    return {
        "attempted": traced.reads + traced.writes + plain.reads + plain.writes,
        "failed": 0,
        "checked": oracle.checked,
        "metrics": metrics,
    }


if __name__ == "__main__":
    # ``inproc.py --setup-worker <workload> <seed>``: the set-up worker.
    use_source_tree()
    serve_setups(sys.argv[2], int(sys.argv[3]))
