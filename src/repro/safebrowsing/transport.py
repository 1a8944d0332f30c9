"""The client↔server boundary (transport layer).

Everything a client sends to the provider crosses a :class:`Transport`.  The
abstraction exists so the same client, fleet simulator and CLI can run over

* :class:`InProcessTransport` — direct dispatch into the server's endpoint
  handlers, zero latency, never fails.  This preserves the exact behaviour
  (request counts, cache hit rates, traffic signatures) of calling the
  server's methods directly, and is the default everywhere.
* :class:`SimulatedNetworkTransport` — a seeded model of a real network:
  each delivery advances the shared :class:`~repro.clock.ManualClock` by a
  deterministic latency sample and may raise
  :class:`~repro.exceptions.TransportError` with a configured probability.
  Latency moving the logical clock is what makes network realism observable:
  update schedules drift, full-hash caches expire mid-burst, and the
  provider's request log shows the skew a real fleet would produce.

Both local transports wrap a :class:`ServerCore`.  The remote one exists
now too: :class:`~repro.safebrowsing.httptransport.HttpTransport` speaks
the :mod:`~repro.safebrowsing.wireformat` frames over real sockets to a
:class:`~repro.safebrowsing.netservice.NetService` (registered here as
kind ``"http"``, imported lazily to keep this module free of socket
concerns).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from time import perf_counter

from repro.clock import Clock, ManualClock
from repro.exceptions import TransportError
from repro.observability.metrics import (
    LATENCY_BOUNDS,
    MetricsRegistry,
    exported,
    registry_or_null,
)
from repro.safebrowsing.protocol import (
    FullHashRequest,
    FullHashResponse,
    UpdateRequest,
    UpdateResponse,
    serve_full_hash,
    serve_update,
)
from repro.safebrowsing.server import ServerCore

#: Transport kinds selectable by name (fleet config and CLI).
TRANSPORT_KINDS = ("http", "in-process", "simulated")

#: The kinds that deliver by direct call, needing no address and no socket.
#: Callers that sweep the registry hermetically (tier-1 tests, ingestion)
#: iterate these; ``http`` is exercised by the ``network``-marked tier.
LOCAL_TRANSPORT_KINDS = ("in-process", "simulated")


#: The labeled family two :class:`TransportStats` fields export into.
_REQUESTS = ("transport_requests_total", "Requests delivered to the provider")


@dataclass
class TransportStats:
    """Counters a transport keeps about the traffic it carried.

    The socket-level fields (``retries`` onward) stay zero for the local
    transports; the HTTP transport fills them in.
    """

    requests_sent: int = 0
    update_requests: int = exported(*_REQUESTS, endpoint="downloads")
    full_hash_requests: int = exported(*_REQUESTS, endpoint="gethash")
    failures_injected: int = exported("transport_failures_total",
                                      "Injected delivery failures")
    simulated_latency_seconds: float = 0.0
    retries: int = 0
    connections_opened: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def as_dict(self) -> dict:
        """Snapshot of every counter, keyed by field name (the one field
        list shared by reports, the CLI and the metrics exporter)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Transport(ABC):
    """One client's channel to the provider.

    :meth:`send_update` / :meth:`send_full_hash` count and time every
    request; each kind implements only its delivery.  ``metrics``
    (optional) exports :attr:`stats` and records a per-delivery wall-latency
    histogram and — for the simulated kind — the sampled logical latency.
    The default null registry skips the wall-clock reads.
    """

    def __init__(self, server: ServerCore | None, *,
                 metrics: MetricsRegistry | None = None) -> None:
        self._server = server
        self.stats = TransportStats()
        metrics = registry_or_null(metrics)
        self._metrics_enabled = metrics.enabled
        metrics.register_stats(self.stats)
        self._m_delivery_wall = metrics.histogram(
            "transport_delivery_wall_seconds",
            "Wall-clock time of one delivery (dispatch included)",
            bounds=LATENCY_BOUNDS)
        self._m_simulated_latency = metrics.histogram(
            "transport_simulated_latency_seconds",
            "Sampled logical network latency per delivery",
            bounds=LATENCY_BOUNDS)

    @property
    def server(self) -> ServerCore | None:
        """The server core behind this transport, if it has a local one.

        Exposed for *configuration* (poll interval, served lists) and for
        experiment assertions — request traffic must go through
        :meth:`send_update` / :meth:`send_full_hash`.  ``None`` for a
        genuinely remote transport (an HTTP transport pointed at another
        process); the co-hosted HTTP transport the fleet builds keeps the
        reference so clients configure themselves exactly as in-process
        ones do.
        """
        return self._server

    def send_update(self, request: UpdateRequest) -> UpdateResponse:
        """Deliver an update request to the ``downloads`` endpoint."""
        self.stats.update_requests += 1
        return self._send(self._deliver_update, request)

    def send_full_hash(self, request: FullHashRequest) -> FullHashResponse:
        """Deliver a full-hash request to the ``gethash`` endpoint."""
        self.stats.full_hash_requests += 1
        return self._send(self._deliver_full_hash, request)

    def _send(self, deliver, request):
        self.stats.requests_sent += 1
        if not self._metrics_enabled:
            return deliver(request)
        start = perf_counter()
        try:
            return deliver(request)
        finally:
            self._m_delivery_wall.observe(perf_counter() - start)

    @abstractmethod
    def _deliver_update(self, request: UpdateRequest) -> UpdateResponse:
        """This kind's delivery of one update request."""

    @abstractmethod
    def _deliver_full_hash(self, request: FullHashRequest) -> FullHashResponse:
        """This kind's delivery of one full-hash request."""


class InProcessTransport(Transport):
    """Direct dispatch into the server's endpoint handlers (the reference).

    A SafeBrowsingServer facade may override handle_update/handle_full_hash
    (tests inject outages that way); dispatching through the facade when it
    exists keeps a transport-wrapped server byte-for-byte equivalent to
    calling it directly.  A bare ServerCore goes straight to the endpoint
    handlers.
    """

    def _deliver_update(self, request: UpdateRequest) -> UpdateResponse:
        handler = getattr(self._server, "handle_update", None)
        if handler is not None:
            return handler(request)
        return serve_update(self._server, request)

    def _deliver_full_hash(self, request: FullHashRequest) -> FullHashResponse:
        handler = getattr(self._server, "handle_full_hash", None)
        if handler is not None:
            return handler(request)
        return serve_full_hash(self._server, request)


class SimulatedNetworkTransport(InProcessTransport):
    """A seeded latency/failure model over a local server core.

    Parameters
    ----------
    latency_seconds:
        Base one-way-trip latency added to every delivery.
    jitter_seconds:
        Uniform extra latency in ``[0, jitter_seconds)``, drawn from the
        seeded RNG (deterministic per transport instance).
    failure_rate:
        Probability in ``[0, 1)`` that a delivery raises
        :class:`TransportError` instead of reaching the server.  Failures
        are decided *after* the latency elapses, like a timeout.
    seed:
        Seeds the RNG; fleet runs derive one seed per client so failure
        patterns are reproducible yet uncorrelated across the fleet.
    clock:
        The clock latency advances; defaults to the server's.  Only a
        :class:`ManualClock` can be advanced — other clocks just record the
        sampled latency in :attr:`TransportStats.simulated_latency_seconds`.
    """

    def __init__(self, server: ServerCore, *,
                 latency_seconds: float = 0.05,
                 jitter_seconds: float = 0.0,
                 failure_rate: float = 0.0,
                 seed: int | str = 0,
                 clock: Clock | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        super().__init__(server, metrics=metrics)
        if latency_seconds < 0 or jitter_seconds < 0:
            raise TransportError("latency and jitter must be non-negative")
        if not (0.0 <= failure_rate < 1.0):
            raise TransportError("failure_rate must be in [0, 1)")
        self.latency_seconds = latency_seconds
        self.jitter_seconds = jitter_seconds
        self.failure_rate = failure_rate
        self._rng = random.Random(seed)
        self._clock = clock if clock is not None else server.clock

    def _elapse(self, endpoint: str) -> None:
        """Elapse one delivery's latency, then maybe inject a failure."""
        latency = self.latency_seconds
        if self.jitter_seconds:
            latency += self._rng.random() * self.jitter_seconds
        if latency > 0 and isinstance(self._clock, ManualClock):
            self._clock.advance(latency)
        self.stats.simulated_latency_seconds += latency
        self._m_simulated_latency.observe(latency)
        if self.failure_rate and self._rng.random() < self.failure_rate:
            self.stats.failures_injected += 1
            raise TransportError(
                f"injected network failure on the {endpoint} endpoint"
            )

    def _deliver_update(self, request: UpdateRequest) -> UpdateResponse:
        self._elapse("downloads")
        return super()._deliver_update(request)

    def _deliver_full_hash(self, request: FullHashRequest) -> FullHashResponse:
        self._elapse("gethash")
        return super()._deliver_full_hash(request)


def build_transport(kind: str, server: ServerCore | None, *,
                    latency_seconds: float = 0.05,
                    jitter_seconds: float = 0.0,
                    failure_rate: float = 0.0,
                    seed: int | str = 0,
                    clock: Clock | None = None,
                    metrics: MetricsRegistry | None = None,
                    address: tuple[str, int] | None = None,
                    timeout_seconds: float = 5.0,
                    retries: int = 2) -> Transport:
    """Construct a transport by kind name.

    The parameters each kind does not understand are ignored, so callers
    can thread one configuration through every kind.  ``"http"`` requires
    ``address`` (the :class:`~repro.safebrowsing.netservice.NetService`
    endpoint); ``server`` is then the optional co-hosted core reference.
    """
    if kind == "in-process":
        return InProcessTransport(server, metrics=metrics)
    if kind == "simulated":
        return SimulatedNetworkTransport(
            server, latency_seconds=latency_seconds,
            jitter_seconds=jitter_seconds, failure_rate=failure_rate,
            seed=seed, clock=clock, metrics=metrics,
        )
    if kind == "http":
        # Imported lazily so the local transports never touch socket code.
        from repro.safebrowsing.httptransport import HttpTransport

        if address is None:
            raise TransportError(
                "the http transport needs an address=(host, port)")
        return HttpTransport(address, server=server,
                             timeout_seconds=timeout_seconds,
                             retries=retries, metrics=metrics)
    raise TransportError(
        f"unknown transport kind {kind!r}; expected one of {TRANSPORT_KINDS}"
    )
