"""Span wrappers around the public functions of each layer.

:class:`LayerTracer` replaces class and module attributes of
``repro.net``, ``repro.qos``, ``repro.core`` and ``repro.engine`` with
wrappers that record spans into a :class:`~common.SpanRecorder`, and
puts every original back on :meth:`LayerTracer.uninstall`.  Nothing in
``src/`` changes; a traced run and an untraced run execute the same
program code.

Span names, by layer:

- ``request.<op>`` (server, the root span of one request, named by
  its operation: ``request.query``, ``request.insert``, ...; request
  parsed → response frame ready), ``net.decode`` (request parse and ``decode_query``),
  ``net.front`` (``ClusterFrontEnd.execute_query``/``apply_write``),
  ``net.encode`` (``encode_result``/``encode_frame``);
  on the client ``client.encode``, ``client.send``, ``client.recv``
  (waiting for the response) and ``client.decode``;
- ``qos.gate`` (``ServingGate.execute``/``admit_write``), ``qos.admit``
  (``AdmissionController.admit``);
- ``core.manager`` (``PMVManager.execute``), ``core.execute``
  (``PMVExecutor.execute``), ``core.o2`` (execute entry → the
  ``on_partial`` hook), ``core.o1`` (the executor's
  ``DecompositionCache.decompose_grouped``), ``core.settle`` (O3's batch
  iterator exhausted → execute returns), ``core.maint`` (the
  maintainer's ``prepare_change``/``handle_change``);
- ``engine.plan`` (``Database.plan``), ``engine.o3`` (each step of
  ``Plan.execute_column_batches``), ``engine.write``
  (``Database.insert``/``delete``/``delete_where``), ``engine.wal``
  (``WriteAheadLog.append``); the leaves ``engine.probe`` (index
  probes) and ``engine.fetch`` (``HeapRelation.fetch_payloads``).
"""

from __future__ import annotations

import functools
import threading

from common import END, NAME, START, SpanRecorder

# The server's root span of a query request.
READ_REQUEST = "request.query"


class _TracedBatches:
    """Iterator wrapper: one ``engine.o3`` span per step, and the
    ``core.settle`` span opened when the stream is exhausted inside a
    ``core.execute`` span."""

    __slots__ = ("_inner", "_rec")

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._rec = recorder

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        span = rec.open("engine.o3")
        try:
            return next(self._inner)
        except StopIteration:
            rec.close(span)
            top = rec.current()
            if top >= 0 and rec.spans[top][NAME] == "core.execute":
                rec.open("core.settle")
            raise
        finally:
            if rec.spans[span][END] is None:
                rec.close(span)


class LayerTracer:
    """Installs and removes the span wrappers.

    ``role`` is ``"server"`` for the process that serves queries (all
    layers) or ``"client"`` for the wire load generator (protocol
    functions only).  ``client_id`` of a client thread is taken from
    :attr:`thread_client`, which the generator sets per thread, so the
    generator can match each of its requests to the server's span of
    the same request.
    """

    def __init__(self, recorder: SpanRecorder, role: str = "server") -> None:
        self.rec = recorder
        self.role = role
        self._saved: list[tuple[object, str, object]] = []
        self._listeners: list[tuple] = []
        self.thread_client = threading.local()
        # Wire-request boundary times, keyed by (client id, message id).
        self.sent: dict[tuple, float] = {}
        self.received: dict[tuple, tuple[float, float]] = {}
        self.answer_bytes = 0
        self.wal_bytes = 0
        # Σ over traced PMVExecutor.execute answers: condition parts,
        # bcp hits, partial tuples, all tuples, O1 memo hits, answers.
        self.answers = [0, 0, 0, 0, 0, 0]
        # The server's connection threads update the tallies above.
        self._tally = threading.Lock()
        self._session = threading.local()

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def _span(self, owner, name: str, span_name: str) -> None:
        rec = self.rec

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = rec.open(span_name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close(span)

            return traced

        self._patch(owner, name, wrap)

    def _leaf(self, owner, name: str, leaf_name: str) -> None:
        rec = self.rec
        clock = rec.clock

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.leaf(leaf_name, clock() - start)

            return traced

        self._patch(owner, name, wrap)

    def install(self, managers=()) -> None:
        from repro.net import protocol

        if self.role == "server":
            self._install_program(managers)
            self._install_server_protocol(protocol)
        else:
            self._install_client_protocol(protocol)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        for database, kind, original, traced in self._listeners:
            getattr(database, f"remove_{kind}_listener")(traced)
            getattr(database, f"add_{kind}_listener")(original)
        self._listeners.clear()

    # -- the program's layers --------------------------------------------------

    def _install_program(self, managers) -> None:
        from repro.core.decompose import DecompositionCache
        from repro.core.executor import PMVExecutor
        from repro.core.manager import PMVManager
        from repro.engine.database import Database
        from repro.engine.heap import HeapRelation
        from repro.engine.index import HashIndex, OrderedIndex
        from repro.engine.planner import Plan
        from repro.engine.wal import WriteAheadLog
        from repro.net.cluster import ClusterFrontEnd
        from repro.qos.admission import AdmissionController
        from repro.qos.gate import ServingGate

        rec = self.rec
        tracer = self

        def wrap_execute(fn):
            @functools.wraps(fn)
            def traced(self, query, txn=None, distinct=False, on_partial=None, on_o3=None, deadline=None):
                span = rec.open("core.execute")
                o2 = rec.open("core.o2")

                def partial_hook(rows):
                    if rec.spans[o2][END] is None:
                        rec.close(o2)
                    if on_partial is not None:
                        on_partial(rows)

                try:
                    result = fn(self, query, txn, distinct, partial_hook, on_o3, deadline)
                finally:
                    rec.close(span)
                m = result.metrics
                with tracer._tally:
                    tally = tracer.answers
                    tally[0] += m.condition_parts
                    tally[1] += m.bcp_hits
                    tally[2] += m.partial_tuples
                    tally[3] += m.partial_tuples + m.remaining_tuples
                    tally[4] += bool(m.o1_cache_hit)
                    tally[5] += 1
                return result

            return traced

        self._patch(PMVExecutor, "execute", wrap_execute)
        self._span(DecompositionCache, "decompose_grouped", "core.o1")
        self._span(PMVManager, "execute", "core.manager")
        self._span(Database, "plan", "engine.plan")

        def wrap_batches(fn):
            @functools.wraps(fn)
            def traced(self):
                return _TracedBatches(fn(self), rec)

            return traced

        self._patch(Plan, "execute_column_batches", wrap_batches)
        for cls in (HashIndex, OrderedIndex):
            for method in ("probe", "probe_many", "probe_range"):
                if method in cls.__dict__:
                    self._leaf(cls, method, "engine.probe")

        self._leaf(HeapRelation, "fetch_payloads", "engine.fetch")
        for method in ("insert", "delete", "delete_where"):
            self._span(Database, method, "engine.write")

        def wrap_append(fn):
            @functools.wraps(fn)
            def traced(self, kind, payload):
                span = rec.open("engine.wal")
                try:
                    record = fn(self, kind, payload)
                finally:
                    rec.close(span)
                size = len(record.to_json()) + 1
                with tracer._tally:
                    tracer.wal_bytes += size
                return record

            return traced

        self._patch(WriteAheadLog, "append", wrap_append)
        self._span(AdmissionController, "admit", "qos.admit")
        self._span(ServingGate, "execute", "qos.gate")
        self._span(ServingGate, "admit_write", "qos.gate")
        self._span(ClusterFrontEnd, "execute_query", "net.front")
        self._span(ClusterFrontEnd, "apply_write", "net.front")
        for manager in managers:
            for managed in manager.managed():
                self._trace_maintainer(manager.database, managed.maintainer)

    def _trace_maintainer(self, database, maintainer) -> None:
        """Maintainers listen through bound methods captured at attach
        time, so they are re-registered through the database's public
        listener API rather than patched on the class."""
        rec = self.rec
        for kind, original in (("prepare", maintainer.prepare_change), ("change", maintainer.handle_change)):

            def traced(change, txn, _fn=original):
                span = rec.open("core.maint")
                try:
                    return _fn(change, txn)
                finally:
                    rec.close(span)

            getattr(database, f"remove_{kind}_listener")(original)
            getattr(database, f"add_{kind}_listener")(traced)
            self._listeners.append((database, kind, original, traced))

    # -- the wire --------------------------------------------------------------

    def _install_server_protocol(self, protocol) -> None:
        rec = self.rec
        tracer = self
        session = self._session
        real_json = protocol.json

        class ServerJson:
            """``protocol.json`` seen by the server: a parsed request
            opens its ``request.<op>`` span, whose first child is the
            parse itself."""

            dumps = staticmethod(real_json.dumps)
            JSONDecodeError = real_json.JSONDecodeError

            @staticmethod
            def loads(text):
                start = rec.clock()
                message = real_json.loads(text)
                if isinstance(message, dict) and "op" in message:
                    if message["op"] == "hello":
                        session.client = message.get("client_id")
                    stale = getattr(session, "root", -1)
                    if stale >= 0:
                        # The previous request was never answered (its
                        # connection dropped): end its span here.
                        rec.close(stale, end=start)
                    key = (getattr(session, "client", None), message.get("id"))
                    root = rec.open(f"request.{message['op']}", request=key, start=start)
                    session.root = root
                    rec.add("net.decode", start, rec.clock(), root, key)
                return message

        self._patch(protocol, "json", lambda _orig: ServerJson)
        self._span(protocol, "decode_query", "net.decode")
        self._span(protocol, "encode_result", "net.encode")

        def wrap_encode_frame(fn):
            @functools.wraps(fn)
            def traced(message):
                span = rec.open("net.encode")
                try:
                    frame = fn(message)
                finally:
                    rec.close(span)
                session.encoded = rec.spans[span][END]
                if "rows" in message:
                    with tracer._tally:
                        tracer.answer_bytes += len(frame)
                return frame

            return traced

        self._patch(protocol, "encode_frame", wrap_encode_frame)

        def wrap_send(fn):
            @functools.wraps(fn)
            def traced(sock, message):
                try:
                    return fn(sock, message)
                finally:
                    # The request ends when its response frame is ready:
                    # from there on the bytes are in transit, and the
                    # time this thread waits to run again after sending
                    # delays no one waiting for this response.
                    root = getattr(session, "root", -1)
                    session.root = -1
                    if root >= 0:
                        rec.close(root, end=session.encoded)

            return traced

        self._patch(protocol, "send_frame", wrap_send)

    def _install_client_protocol(self, protocol) -> None:
        rec = self.rec
        tracer = self
        local = self.thread_client
        real_json = protocol.json

        class ClientJson:
            """``protocol.json`` seen by the client: response parsing is
            the client's decode step."""

            dumps = staticmethod(real_json.dumps)
            JSONDecodeError = real_json.JSONDecodeError

            @staticmethod
            def loads(text):
                span = rec.open("client.decode")
                try:
                    return real_json.loads(text)
                finally:
                    rec.close(span)

        self._patch(protocol, "json", lambda _orig: ClientJson)
        self._span(protocol, "encode_query", "client.encode")
        self._span(protocol, "encode_frame", "client.encode")

        def wrap_send(fn):
            @functools.wraps(fn)
            def traced(sock, message):
                span = rec.open("client.send")
                try:
                    return fn(sock, message)
                finally:
                    rec.close(span)
                    tracer.sent[(getattr(local, "client", None), message.get("id"))] = rec.spans[span][END]

            return traced

        self._patch(protocol, "send_frame", wrap_send)

        def wrap_recv(fn):
            @functools.wraps(fn)
            def traced(sock):
                span = rec.open("client.recv")
                try:
                    response = fn(sock)
                finally:
                    rec.close(span)
                if response is not None:
                    key = (getattr(local, "client", None), response.get("id"))
                    tracer.received[key] = (rec.spans[span][START], rec.spans[span][END], span)
                return response

            return traced

        self._patch(protocol, "recv_frame", wrap_recv)

