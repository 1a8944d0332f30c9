"""Span recording for the traced benchmark run.

The traced run wraps the public entry points of each layer from outside —
module globals the callers look up, methods of the store class in use, and
attributes of the live instances — so no ``src/`` file knows it is traced.
A wrapper records one span per call: its name (``layer.operation``), its
wall time, and its *self* time, which is the span's duration minus the part
of it that child spans cover.  Totals are kept per span name in constant
memory; the first :data:`KEEP_EVENTS` spans are also kept as events and
written out as a Chrome trace at exit.

One stack is shared by every thread.  That is correct here because the
workloads send one request at a time over one connection: while the main
thread waits inside a transport span, the service thread's spans (codec,
server, database) open and close on top of it, so they take the in-flight
transport span as their parent.
"""

from __future__ import annotations

import json
import threading
import types
from pathlib import Path
from time import perf_counter

from repro.datastructures.vectorized import NumpyPrefixStore
from repro.hashing.digests import FullHash
from repro.safebrowsing import client as client_module
from repro.safebrowsing import httptransport, netservice
from repro.safebrowsing.httptransport import HttpTransport

#: Spans kept as events for the Chrome trace; totals cover every span.
KEEP_EVENTS = 200_000


class SpanRecorder:
    """Wraps callables so that each call records a span while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        #: name -> [calls, total seconds, self seconds, size]
        self.totals: dict[str, list] = {}
        #: Summed duration of spans that had no parent.
        self.top_level_s = 0.0
        #: [name, start, end, thread id, parent event index]
        self.events: list[list] = []
        self._stack: list[list] = []
        self._undo: list = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, size=None):
        """``fn`` with a span per call; ``size(args, result)`` adds work units."""
        stack = self._stack
        events = self.events
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, 0])

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            event = -1
            if len(events) < KEEP_EVENTS:
                event = len(events)
                events.append([name, 0.0, 0.0, threading.get_ident(),
                               stack[-1][2] if stack else -1])
            # [start, seconds covered by children, event index]
            frame = [0.0, 0.0, event]
            stack.append(frame)
            frame[0] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_level_s += duration
                if event >= 0:
                    events[event][1] = start
                    events[event][2] = end
            if size is not None:
                totals[3] += size(args, result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, size=None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper until :meth:`restore`.

        ``owner`` is a module (a global its callers look up), a class (a
        method or classmethod of every instance) or an instance (one
        object's bound method).
        """
        if isinstance(owner, types.ModuleType):
            original = getattr(owner, attribute)
            setattr(owner, attribute, self.wrap(name, original, size))
            self._undo.append(lambda: setattr(owner, attribute, original))
        elif isinstance(owner, type):
            entry = owner.__dict__[attribute]
            if isinstance(entry, classmethod):
                replacement = staticmethod(
                    self.wrap(name, getattr(owner, attribute), size))
            else:
                replacement = self.wrap(name, entry, size)
            setattr(owner, attribute, replacement)
            self._undo.append(lambda: setattr(owner, attribute, entry))
        else:
            if attribute in vars(owner):
                raise ValueError(f"{attribute} is already patched on {owner!r}")
            setattr(owner, attribute,
                    self.wrap(name, getattr(owner, attribute), size))
            self._undo.append(lambda: delattr(owner, attribute))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0,))[0]

    def self_s(self, *names: str) -> float:
        return sum(self.totals[name][2] for name in names if name in self.totals)

    def total_s(self, *names: str) -> float:
        return sum(self.totals[name][1] for name in names if name in self.totals)

    def size(self, *names: str) -> int:
        return sum(self.totals[name][3] for name in names if name in self.totals)

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds summed per layer (the part of a name before the dot)."""
        layers: dict[str, float] = {}
        for name, (_, _, own, _) in self.totals.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def write_chrome_trace(self, path: Path) -> None:
        """Write the kept events as Chrome trace-event JSON (``chrome://tracing``)."""
        recorded = [event for event in self.events if event[2] > 0.0]
        origin = min((event[1] for event in recorded), default=0.0)
        threads: dict[int, int] = {}
        trace = [{
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "pid": 1, "tid": threads.setdefault(thread, len(threads) + 1),
        } for name, start, end, thread, _ in recorded]
        path.write_text(json.dumps({"traceEvents": trace,
                                    "displayTimeUnit": "ms"}),
                        encoding="utf-8")


# -- the layers of this repository ---------------------------------------------


def _first_len(args, result) -> int:
    return len(args[0])


def _second_len(args, result) -> int:
    return len(args[1])


def _result_len(args, result) -> int:
    return len(result)


def _one(args, result) -> int:
    return 1


def _result(args, result) -> int:
    return result


def instrument(recorder: SpanRecorder, system) -> None:
    """Wrap the public entry points of every layer ``system`` uses.

    Span names are ``layer.operation``; the layer is the repository module
    the operation belongs to.  A transport's requests count as ``netservice``
    when they cross the HTTP service and as ``transport`` when they are
    dispatched in process.
    """
    patch = recorder.patch
    patch(client_module, "canonicalize", "urls.canonicalize")
    patch(client_module, "decompositions", "urls.decompositions")
    patch(client_module, "digests_of", "hashing.digests_of", _result_len)
    patch(FullHash, "of", "hashing.FullHash.of", _one)
    for client in system.clients:
        if client.config.store_backend != "numpy":
            raise ValueError("the benchmark traces the numpy store backend")
    patch(NumpyPrefixStore, "contains_many", "datastructures.contains_many",
          _second_len)
    patch(NumpyPrefixStore, "update", "datastructures.update", _second_len)
    for module in (httptransport, netservice):
        patch(module, "encode_message", "wireformat.encode", _result_len)
        patch(module, "decode_message", "wireformat.decode", _first_len)
    for client in system.clients:
        patch(client, "check_urls", "client.check_urls")
        patch(client, "update", "client.update")
    for transport in system.transports:
        layer = "netservice" if isinstance(transport, HttpTransport) else "transport"
        patch(transport, "send_full_hash", f"{layer}.send_full_hash")
        patch(transport, "send_update", f"{layer}.send_update")
    server = system.server
    patch(server, "handle_full_hash", "server.handle_full_hash")
    patch(server, "handle_update", "server.handle_update")
    for database in server.database:
        patch(database, "full_hashes_matching_many", "database.match")
        patch(database, "chunks_after", "database.chunks_after")
    patch(server.database.storage, "flush", "storage.flush", _result)
    if system.pipeline is not None:
        patch(system.pipeline, "step", "ingest.step")


def counters(system) -> dict[str, int]:
    """The public counters of every layer, for deltas over a timed loop."""
    clients = [client.stats for client in system.clients]
    transports = [transport.stats for transport in system.transports]
    server = system.server.stats
    return {
        "urls_checked": sum(stats.urls_checked for stats in clients),
        "local_hits": sum(stats.local_hits for stats in clients),
        "cache_hits": sum(stats.cache_hits for stats in clients),
        "malicious_verdicts": sum(stats.malicious_verdicts for stats in clients),
        "update_polls": sum(stats.update_requests for stats in clients),
        "requests": sum(stats.requests_sent for stats in transports),
        "retries": sum(stats.retries for stats in transports),
        "connections_opened": sum(stats.connections_opened for stats in transports),
        "bytes_sent": sum(stats.bytes_sent for stats in transports),
        "bytes_received": sum(stats.bytes_received for stats in transports),
        "gethash_requests": server.full_hash_requests,
        "downloads_requests": server.update_requests,
        "response_cache_hits": server.response_cache_hits,
        "response_cache_misses": server.response_cache_misses,
        "log_entries_evicted": server.log_entries_evicted,
        "chunks_served": server.chunks_served,
        "mutations": system.pipeline.applied if system.pipeline is not None else 0,
    }


def sqlite_mb(system, scratch: Path) -> float:
    """Size of the server's committed SQLite state (0 without SQLite)."""
    storage = system.server.database.storage
    if storage.kind != "sqlite":
        return 0.0
    path = scratch / "storage-size.sqlite"
    try:
        return storage.backup_to(path).stat().st_size / 1e6
    finally:
        path.unlink(missing_ok=True)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, delta: dict[str, int], *,
                  busy_s: float, idle_s: float, late_p99_ms: float,
                  overhead: float, sqlite_mb: float) -> dict[str, float]:
    """Per-layer metrics of one traced loop, keyed as in ``BENCHMARK.json``."""
    r = recorder
    urls_self = r.self_s("urls.canonicalize", "urls.decompositions")
    hashing = ("hashing.digests_of", "hashing.FullHash.of")
    transport = ("transport.send_full_hash", "transport.send_update")
    http = ("netservice.send_full_hash", "netservice.send_update")
    server = ("server.handle_full_hash", "server.handle_update")
    codec_self = r.self_s("wireformat.encode", "wireformat.decode")
    codec_bytes = r.size("wireformat.encode", "wireformat.decode")
    http_requests = r.calls(http[0]) + r.calls(http[1])
    flushed = r.size("storage.flush")
    busy = busy_s - idle_s
    return {
        "urls.calls": r.calls("urls.canonicalize"),
        "urls.self_s": urls_self,
        "urls.us_per_url": _per(urls_self, r.calls("urls.canonicalize"), 1e6),
        "hashing.expressions": r.size(*hashing),
        "hashing.self_s": r.self_s(*hashing),
        "hashing.us_per_expression": _per(r.self_s(*hashing), r.size(*hashing), 1e6),
        "datastructures.probed_prefixes": r.size("datastructures.contains_many"),
        "datastructures.probe_self_s": r.self_s("datastructures.contains_many"),
        "datastructures.applied_prefixes": r.size("datastructures.update"),
        "datastructures.apply_self_s": r.self_s("datastructures.update"),
        "datastructures.apply_us_per_prefix": _per(
            r.self_s("datastructures.update"), r.size("datastructures.update"), 1e6),
        "client.self_s": r.self_s("client.check_urls", "client.update"),
        "client.plan_miss_ratio": _per(r.calls("urls.canonicalize"),
                                       delta["urls_checked"]),
        "client.local_hit_ratio": _per(delta["local_hits"], delta["urls_checked"]),
        "client.fullhash_cache_hit_ratio": _per(delta["cache_hits"],
                                                delta["local_hits"]),
        "client.confirm_ratio": _per(delta["malicious_verdicts"], delta["local_hits"]),
        "client.update_polls": delta["update_polls"],
        "client.update_self_s": r.self_s("client.update"),
        "transport.requests": delta["requests"],
        "transport.self_s": r.self_s(*transport),
        "transport.retries": delta["retries"],
        "transport.connections_opened": delta["connections_opened"],
        "transport.bytes_sent": delta["bytes_sent"],
        "transport.bytes_received": delta["bytes_received"],
        "wireformat.encode_self_s": r.self_s("wireformat.encode"),
        "wireformat.decode_self_s": r.self_s("wireformat.decode"),
        "wireformat.bytes": codec_bytes,
        "wireformat.ns_per_byte": _per(codec_self, codec_bytes, 1e9),
        "netservice.self_s": r.self_s(*http),
        "netservice.us_per_request": _per(r.self_s(*http), http_requests, 1e6),
        "server.gethash_requests": delta["gethash_requests"],
        "server.downloads_requests": delta["downloads_requests"],
        "server.self_s": r.self_s(*server),
        "server.us_per_gethash": _per(r.total_s(server[0]), r.calls(server[0]), 1e6),
        "server.response_cache_hit_ratio": _per(
            delta["response_cache_hits"],
            delta["response_cache_hits"] + delta["response_cache_misses"]),
        "server.log_entries_evicted": delta["log_entries_evicted"],
        "database.match_calls": r.calls("database.match"),
        "database.match_self_s": r.self_s("database.match"),
        "database.chunks_after_self_s": r.self_s("database.chunks_after"),
        "database.chunks_served": delta["chunks_served"],
        "storage.flushes": r.calls("storage.flush"),
        "storage.ops_flushed": flushed,
        "storage.flush_self_s": r.self_s("storage.flush"),
        "storage.us_per_op": _per(r.self_s("storage.flush"), flushed, 1e6),
        "storage.sqlite_mb": sqlite_mb,
        "ingest.steps": r.calls("ingest.step"),
        "ingest.mutations": delta["mutations"],
        "ingest.self_s": r.self_s("ingest.step"),
        "loadgen.self_s": busy - r.top_level_s,
        "loadgen.idle_s": idle_s,
        "loadgen.span_coverage": _per(r.top_level_s, busy),
        "loadgen.late_p99_ms": late_p99_ms,
        "loadgen.tracing_overhead": overhead,
    }


def budget(recorder: SpanRecorder, busy_s: float, idle_s: float
           ) -> list[tuple[str, float, float]]:
    """``(layer, self seconds, share of the loop wall)``, largest first.

    The rows add up to the loop wall: every span's self time belongs to
    one layer, and what no top-level span covers is the load generator's.
    """
    layers = recorder.layer_self_s()
    layers["loadgen"] = busy_s - idle_s - recorder.top_level_s
    if idle_s:
        layers["idle"] = idle_s
    return sorted(((layer, seconds, _per(seconds, busy_s))
                   for layer, seconds in layers.items()),
                  key=lambda row: -row[1])
