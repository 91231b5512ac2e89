"""The ``wire-mixed`` server process.

Builds a single-node serving stack — ``ServingGate`` →
``ClusterFrontEnd`` → ``NetServer`` over a database with an in-memory
WAL and an eagerly maintained PMV — and serves it on a local port.  The
load generator (``wire.py``) starts it as ``python3 pmvbench/server.py
--seed N`` and drives it over stdin/stdout with one JSON object per
line:

``{"cmd": "trace", "on": true|false}``  install/remove the span wrappers
``{"cmd": "counters"}``                 engine, PMV and tracer counters
``{"cmd": "rss"}``                      peak resident memory so far
``{"cmd": "truth", "cells": [[f, g], ...]}``
    with writes quiesced: the PMV consistency check, plain execution of
    each template cell, and the multiplicity of every client-owned row
``{"cmd": "spans"}``                    write the recorded spans to a file
``{"cmd": "stop"}``                     stop the server, report, exit

End of input stops the server too, so a dead generator never leaves a
server behind.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OUT_DIR, SpanRecorder, peak_rss_mb, use_source_tree  # noqa: E402
from tracing import READ_REQUEST, LayerTracer  # noqa: E402

R_ROWS = 48
S_ROWS = 24
F_VALUES = 4  # r.f domain: the template's first slot
G_VALUES = 3  # s.g domain: the template's second slot
JOIN_VALUES = 6
CLIENT_ID_BASE = 100_000


def make_template():
    from repro.engine import JoinEquality, QueryTemplate, SelectionSlot, SlotForm

    return QueryTemplate(
        name="tq",
        relations=("r", "s"),
        select_list=("r.a", "s.e"),
        joins=(JoinEquality("r", "c", "s", "d"),),
        slots=(
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot("s", "s.g", SlotForm.EQUALITY),
        ),
    )


def bind(template, f: int, g: int):
    from repro.engine import EqualityDisjunction

    return template.bind([EqualityDisjunction("r.f", [f]), EqualityDisjunction("s.g", [g])])


def build(seed: int):
    """The serving stack over seeded data; returns (server, manager)."""
    from repro.core.manager import PMVManager
    from repro.engine import INTEGER, TEXT, Column, Database
    from repro.engine.wal import WriteAheadLog
    from repro.net import ClusterFrontEnd, NetServer
    from repro.qos.gate import ServingGate

    rng = random.Random(seed)
    database = Database(wal=WriteAheadLog())
    database.create_relation(
        "r",
        [
            Column("id", INTEGER, nullable=False),
            Column("c", INTEGER, nullable=False),
            Column("f", INTEGER, nullable=False),
            Column("a", TEXT),
        ],
    )
    database.create_relation(
        "s",
        [Column("d", INTEGER, nullable=False), Column("g", INTEGER, nullable=False), Column("e", TEXT)],
    )
    for name, relation, column in (("r_f", "r", "f"), ("r_c", "r", "c"), ("s_d", "s", "d"), ("s_g", "s", "g")):
        database.create_index(name, relation, [column])
    # A fixed join shape (every template cell answers 16 rows); the seed
    # draws the payload values and, in the generator, the op stream.
    for i in range(R_ROWS):
        database.insert("r", (i, i % JOIN_VALUES, i % F_VALUES, f"a{rng.randrange(10**6)}"))
    for j in range(S_ROWS):
        database.insert("s", (j % JOIN_VALUES, j % G_VALUES, f"e{rng.randrange(10**6)}"))
    template = make_template()
    manager = PMVManager(database)
    manager.create_view(template, tuples_per_entry=3, max_entries=8, aux_index_columns=("r.a", "s.e"))
    front_end = ClusterFrontEnd(ServingGate(manager))
    return NetServer(front_end), manager


class Control:
    """The stdin/stdout command loop of the server process."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server, self.manager = build(seed)
        self.database = self.manager.database
        self.template = self.manager.view("tq").template
        self.rec = SpanRecorder()
        self.tracer = LayerTracer(self.rec, "server")

    def reply(self, message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    def serve(self) -> None:
        host, port = self.server.start()
        self.reply({"ready": True, "host": host, "port": port})
        for line in sys.stdin:
            command = json.loads(line)
            cmd = command["cmd"]
            if cmd == "stop":
                break
            self.reply(getattr(self, f"cmd_{cmd}")(command))
        self.stop()

    def cmd_trace(self, command: dict) -> dict:
        if command["on"]:
            self.tracer.install([self.manager])
        else:
            self.tracer.uninstall()
        return {"ok": True}

    def cmd_counters(self, command: dict) -> dict:
        import ledger

        counters = ledger.engine_counters(
            self.database,
            self.manager.view("tq"),
            self.rec.leaf_totals().get("engine.fetch", (0.0, 0))[1],
        )
        counters["answers"] = list(self.tracer.answers)
        counters["answer_bytes"] = self.tracer.answer_bytes
        counters["wal_bytes"] = self.tracer.wal_bytes
        return counters

    def cmd_rss(self, command: dict) -> dict:
        return {"peak_rss_mb": peak_rss_mb()}

    def cmd_truth(self, command: dict) -> dict:
        from repro.faults.check import InvariantViolation

        try:
            self.manager.verify_consistency()
            inconsistent = None
        except InvariantViolation as exc:
            inconsistent = str(exc) or type(exc).__name__
        names = self.template.select_list
        cells = [
            [list(row.project(names).values) for row in self.database.run(bind(self.template, f, g))]
            for f, g in command["cells"]
        ]
        owned: dict[int, int] = {}
        for row in self.database.catalog.relation("r").scan_rows():
            if row["id"] >= CLIENT_ID_BASE:
                owned[row["id"]] = owned.get(row["id"], 0) + 1
        return {"inconsistent": inconsistent, "cells": cells, "owned": owned}

    def cmd_spans(self, command: dict) -> dict:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"wire-mixed-seed{self.seed}-server-spans.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.rec.spans, "read_leaves": self.rec.leaf_totals({READ_REQUEST})}, handle)
        return {"path": path}

    def stop(self) -> None:
        started = time.perf_counter()
        self.server.stop()
        stop_s = time.perf_counter() - started
        alive = [t.name for t in threading.enumerate() if t is not threading.main_thread() and t.is_alive()]
        self.reply({"stopped": True, "stop_s": stop_s, "threads_alive": alive})


def main() -> int:
    parser = argparse.ArgumentParser(prog="pmvbench/server.py")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    use_source_tree()
    Control(args.seed).serve()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
