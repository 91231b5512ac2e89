"""The per-layer ledger: metric names, engine counters, and the
arithmetic that turns recorded spans into per-operation layer times.

Every traced run reports every metric in :data:`PER_LAYER`.  A layer
that is not on a workload's path (the wire on an in-process workload)
reports 0.
"""

from __future__ import annotations

from common import END, NAME, PARENT, START, descendants, duration_by_name, self_time_by_name

PER_LAYER: list[tuple[str, str]] = [
    ("net.rtt_self_us", "us"),
    ("net.transit_in_us", "us"),
    ("net.transit_out_us", "us"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.answer_bytes", "bytes"),
    ("net.client_retries", "count"),
    ("net.reconnects", "count"),
    ("net.server_stop_s", "s"),
    ("net.threads_leaked", "count"),
    ("net.server_killed", "count"),
    ("qos.admit_wait_us", "us"),
    ("qos.gate_self_us", "us"),
    ("qos.shed_frac", "ratio"),
    ("core.o1_us", "us"),
    ("core.o1_memo_hit_frac", "ratio"),
    ("core.o2_us", "us"),
    ("core.bcp_hit_frac", "ratio"),
    ("core.partial_frac", "ratio"),
    ("core.execute_self_us", "us"),
    ("core.settle_us", "us"),
    ("core.overhead_frac", "ratio"),
    ("core.maint_us", "us"),
    ("core.maint_tuples_removed", "count"),
    ("core.lock_bypass_frac", "ratio"),
    ("engine.plan_us", "us"),
    ("engine.o3_us", "us"),
    ("engine.probe_us", "us"),
    ("engine.fetch_us", "us"),
    ("engine.index_probes", "count"),
    ("engine.heap_fetch_calls", "count"),
    ("engine.page_reads", "count"),
    ("engine.bp_misses", "count"),
    ("engine.bp_hit_frac", "ratio"),
    ("engine.bp_evictions", "count"),
    ("engine.write_us", "us"),
    ("engine.wal_append_us", "us"),
    ("engine.wal_bytes_per_write", "bytes"),
    ("engine.lock_waits", "count"),
    ("trace.op_us", "us"),
    ("trace.untraced_op_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.blocking_coverage_frac", "ratio"),
]
UNITS = dict(PER_LAYER)


def empty() -> dict[str, float]:
    return {name: 0.0 for name, _unit in PER_LAYER}


def engine_counters(database, view, fetch_calls: int = 0) -> dict[str, float]:
    """Exact work counters of the engine and the PMV, read from the
    program's own counters (index probes, simulated page reads, buffer
    pool requests, lock waits, view metrics)."""
    probes = 0
    for relation in database.catalog.relations():
        for index in database.catalog.indexes_on(relation.name):
            probes += getattr(index, "probes", 0)
    pool = database.buffer_pool.stats
    vm = view.metrics
    return {
        "probes": probes,
        "fetch_calls": fetch_calls,
        "page_reads": database.io_snapshot().reads,
        "bp_hits": pool.hits,
        "bp_misses": pool.misses,
        "bp_evictions": pool.evictions,
        "lock_waits": database.lock_manager.stats()["waits"],
        "maint_removed": vm.maintenance_tuples_removed,
        "bypassed_lock": vm.pmv_bypassed_lock,
        "overhead": vm.overhead_seconds,
        "execution": vm.execution_seconds,
    }


def counter_delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def apply_counts(metrics: dict, delta: dict, queries: int) -> None:
    """Per-query engine work over a window of ``queries`` reads."""
    metrics["engine.index_probes"] = delta["probes"] / queries
    metrics["engine.heap_fetch_calls"] = delta["fetch_calls"] / queries
    metrics["engine.page_reads"] = delta["page_reads"] / queries
    metrics["engine.bp_misses"] = delta["bp_misses"] / queries
    metrics["engine.bp_evictions"] = delta["bp_evictions"] / queries
    requests = delta["bp_hits"] + delta["bp_misses"]
    metrics["engine.bp_hit_frac"] = delta["bp_hits"] / requests if requests else 0.0


def read_layers(metrics: dict, spans: list, roots: set[int], leaves: dict, reads: int) -> None:
    """Per-read times of the read path, over the request trees under
    ``roots``.  O1, planning and O3 are the durations of their calls; O2,
    the executor's own time and settle are self times; probes and heap
    fetches are the leaf-call totals ``leaves`` of the read trees."""
    tree = list(roots) + descendants(spans, roots)
    own = self_time_by_name(spans, roots)
    dur = duration_by_name(spans, {"core.o1", "engine.plan", "engine.o3"}, tree)
    per_read = 1e6 / reads
    metrics["core.o1_us"] = dur.get("core.o1", 0.0) * per_read
    metrics["core.o2_us"] = own.get("core.o2", 0.0) * per_read
    metrics["core.execute_self_us"] = own.get("core.execute", 0.0) * per_read
    metrics["core.settle_us"] = own.get("core.settle", 0.0) * per_read
    metrics["engine.plan_us"] = dur.get("engine.plan", 0.0) * per_read
    metrics["engine.o3_us"] = dur.get("engine.o3", 0.0) * per_read
    metrics["engine.probe_us"] = leaves.get("engine.probe", (0.0, 0))[0] * per_read
    metrics["engine.fetch_us"] = leaves.get("engine.fetch", (0.0, 0))[0] * per_read


def write_layers(metrics: dict, spans: list, writes: int, wal_bytes: int) -> None:
    """Per-write times of the write path (top-level ``engine.write``
    spans, maintenance and WAL appends inside them)."""
    top = [
        s for s in spans
        if s[NAME] == "engine.write" and s[END] is not None
        and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != "engine.write")
    ]
    dur = duration_by_name(spans, {"core.maint", "engine.wal"})
    per_write = 1e6 / writes
    metrics["engine.write_us"] = sum(s[END] - s[START] for s in top) * per_write
    metrics["core.maint_us"] = dur.get("core.maint", 0.0) * per_write
    metrics["engine.wal_append_us"] = dur.get("engine.wal", 0.0) * per_write
    metrics["engine.wal_bytes_per_write"] = wal_bytes / writes
