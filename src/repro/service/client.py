"""Subscriber SDK for the live coordinator — and the service's two clients.

A :class:`ServiceClient` subscribes to query-result notifications,
maintains the latest value per query, and records per-notification
latency samples (server send time → client receive time, plus the
end-to-end refresh → notify path when the triggering refresh was
timestamped).  It works over any :class:`MessageStream` — TCP or the
in-process loopback.

It is also the receiving end of every NOTIFY stream *inside* the
service: the cluster router's shard trunks and a broker's upstream are
subclasses that fill its hooks (DESIGN.md §9.3), so the handshake, the
read loop, the snapshot waiters and resubscribe-on-loss exist once, here.
:class:`SourceLink` is its twin on the source plane, filled in by a
``SourceAgent`` and by the router's per-(shard, source) links.
"""

from __future__ import annotations

import asyncio
import time as _time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.service import protocol
from repro.service.protocol import MessageType, ProtocolError
from repro.service.transports import MessageStream, TransportClosed, open_tcp_stream


class ServiceClient:
    """Track live query values pushed by a node that serves subscribers.

    :meth:`subscribe` → the node's SNAPSHOT seeds the tables → each
    NOTIFY/SNAPSHOT is applied by :meth:`_on_notify` /
    :meth:`_on_snapshot` → the node hangs up, refuses or the link breaks:
    pending requests fail with the reason and :meth:`_on_lost` fires →
    :meth:`reopen` subscribes again on a fresh stream.  A subclass
    overrides those three hooks to admit, count or forward what arrives.
    """

    #: True for a client that *forwards* each NOTIFY to subscribers of
    #: the process it runs in (a router trunk, a broker upstream): its
    #: listener yields after each one.  A deep trunk queue can hold a
    #: whole storm and ``receive()`` on a non-empty in-process queue never
    #: suspends, so without the yield the drain stuffs every subscriber
    #: queue before the writer tasks get a turn and "evicts" clients that
    #: were never slow.
    relays = False

    def __init__(self, stream: MessageStream,
                 clock: Callable[[], float] = _time.time,
                 close_timeout: float = 1.0):
        self.stream = stream
        self.clock = clock
        #: how long :meth:`close` waits for the listener task to drain
        #: before cancelling it outright.
        self.close_timeout = float(close_timeout)
        #: latest value per subscribed query (snapshot + notifies).
        self.values: Dict[str, float] = {}
        #: queries the coordinator currently serves with honestly widened
        #: bounds (query name → widened QAB), per the lease machinery; an
        #: empty map means every subscribed query is fully guaranteed.
        self.degraded: Dict[str, float] = {}
        self.notifies_received = 0
        self.updates_received = 0
        #: end-to-end latency samples in seconds (refresh sent → notify
        #: received); only populated when sources timestamp refreshes.
        self.latencies: List[float] = []
        self.stats_seen: Dict[str, Any] = {}
        self._listener: Optional[asyncio.Task] = None
        self._reopening: Optional[asyncio.Task] = None
        #: pending SNAPSHOT requests, oldest first: a node answers in order.
        self._snapshot_waiters: "List[asyncio.Future]" = []
        #: what :meth:`subscribe` was last called with, for :meth:`reopen`.
        self._subscription: Tuple[object, object, bool] = ("*", None, False)
        #: the node has answered the current subscription.
        self._seeded = False
        self._closed = False

    @classmethod
    async def connect_tcp(cls, host: str, port: int) -> "ServiceClient":
        return cls(await open_tcp_stream(host, port))

    @property
    def connected(self) -> bool:
        """Subscribed (or subscribing) on a link not yet lost or closed."""
        return self._listener is not None and not self._listener.done()

    async def subscribe(self, queries: object = "*",
                        definitions: object = None,
                        trunk: bool = False) -> Dict[str, float]:
        """Send QUERY_SUB, start listening, return the initial snapshot.

        ``definitions`` optionally registers new queries on the server
        (PolynomialQuery objects or wire dicts) — they are implicitly
        part of the subscription; ``trunk`` is
        :func:`protocol.query_sub`'s.  A refusal raises
        :class:`ProtocolError` with the node's reason."""
        self._subscription = (queries, definitions, trunk)
        self._seeded = False
        waiter = await self._request(
            protocol.query_sub(queries, definitions, trunk=trunk))
        self._listener = asyncio.ensure_future(self._listen())
        return await waiter

    async def request_snapshot(self) -> Dict[str, float]:
        """Ask for (and wait for) a fresh authoritative snapshot."""
        return await (await self._request(protocol.snapshot()))

    async def _request(self, message: Dict[str, Any]) -> "asyncio.Future":
        """Send what the node answers with one SNAPSHOT; the future of it."""
        waiter: asyncio.Future = asyncio.get_event_loop().create_future()
        self._snapshot_waiters.append(waiter)
        try:
            await self.stream.send(message)
        except ProtocolError:
            self._snapshot_waiters.remove(waiter)
            raise
        return waiter

    def _answer_snapshot(self, answer: object) -> None:
        """Settle the oldest pending request with its answer, or with the
        exception that stands in for one; an unsolicited SNAPSHOT finds
        none pending."""
        if self._snapshot_waiters:
            waiter = self._snapshot_waiters.pop(0)
            if waiter.done():          # its caller timed out or was cancelled
                pass
            elif isinstance(answer, Exception):
                waiter.set_exception(answer)
            else:
                waiter.set_result(answer)

    async def _listen(self) -> None:
        stream = self.stream
        reason = "connection closed before snapshot"
        try:
            while True:
                message = await stream.receive()
                if message is None:
                    break
                kind = protocol.validate_message(message)
                if kind is MessageType.NOTIFY:
                    self._on_notify(message)
                    if self.relays:
                        await asyncio.sleep(0)
                elif kind is MessageType.SNAPSHOT:
                    self._on_snapshot(message)
                    self._seeded = True
                elif kind is MessageType.ERROR:
                    reason = message["reason"]
                    break
        except ProtocolError:
            pass         # corrupt framing, an invalid message, a broken pipe
        finally:
            stream.close()
            while self._snapshot_waiters:
                self._answer_snapshot(ProtocolError(reason))
        # Not reached by a cancelled listener.  A subscription the node
        # never answered is not *lost*: a peer that turns every QUERY_SUB
        # down would otherwise be re-dialled as fast as it can refuse.
        if self._seeded and not self._closed:
            self._on_lost()

    def _apply_degraded(self, message: Dict[str, Any]) -> None:
        # The field, when present, is the *complete* current map — an
        # empty dict is the all-clear, so replace rather than merge.
        degraded = message.get("degraded")
        if degraded is not None:
            self.degraded = {name: float(bound)
                             for name, bound in degraded.items()}

    def _on_notify(self, message: Dict[str, Any]) -> None:
        """Hook: a valid NOTIFY arrived."""
        self.notifies_received += 1
        for update in message["updates"]:
            self.values[update["query"]] = float(update["value"])
            self.updates_received += 1
        self._apply_degraded(message)
        origin = message.get("refresh_sent_at")
        if origin is not None:
            self.latencies.append(max(0.0, self.clock() - float(origin)))

    def _on_snapshot(self, message: Dict[str, Any]) -> None:
        """Hook: a valid SNAPSHOT arrived — the subscription's own
        (``_seeded`` is still false), a reply, or unsolicited.  An
        override calls :meth:`_answer_snapshot` too."""
        values = message.get("values") or {}
        self.values.update({name: float(v) for name, v in values.items()})
        self.stats_seen = message.get("stats") or {}
        self._apply_degraded(message)
        self._answer_snapshot(dict(values))

    def _on_lost(self) -> None:
        """Hook: the listener ended — EOF, ERROR, a broken link — on a
        subscription the node had answered, and not by :meth:`close`.
        Fired once per loss; an override may :meth:`reopen`."""

    def reopen(self, stream: MessageStream) -> "asyncio.Task":
        """After a loss: subscribe again, as before, on a fresh stream.

        ``values`` and ``degraded`` are kept — a stale value beats none —
        and the fresh initial SNAPSHOT re-seeds them.  Returns the task
        doing it (:meth:`close` cancels it), true once the node answered;
        one that refuses or hangs up instead is not dialled again."""
        self.stream = stream
        self._reopening = asyncio.ensure_future(self._resubscribe())
        return self._reopening

    async def _resubscribe(self) -> bool:
        try:
            await self.subscribe(*self._subscription)
        except ProtocolError:
            return False
        return True

    async def close(self) -> None:
        self._closed = True            # before the hang-up: not a loss
        if self._reopening is not None:
            self._reopening.cancel()
        self.stream.close()
        if self.connected:
            try:
                await asyncio.wait_for(self._listener,
                                       timeout=self.close_timeout)
            except asyncio.TimeoutError:
                # wait_for cancelled the listener — as it does when our
                # caller is cancelled, and *that* is not ours to swallow.
                pass


class SourceLink:
    """The source end of a coordinator connection: :meth:`connect`
    registers and consumes the node's reply → each DAB_UPDATE is applied
    (:meth:`_on_dab_update`), acked if it carries a ``msg_id`` — so an ack
    means the bounds are in force — and followed up
    (:meth:`_after_dab_update`) → EOF, ERROR or an invalid message: the
    stream is closed and :meth:`_on_lost` fires."""

    def __init__(self, source_id: int, items: Iterable[str]):
        self.source_id = int(source_id)
        self.items: List[str] = sorted(items)
        self._stream: Optional[MessageStream] = None
        self._listener: Optional[asyncio.Task] = None

    async def connect(self, stream: MessageStream,
                      register_timeout: float = 5.0) -> None:
        """Register on ``stream``, dropping any previous connection.

        The reply (a ``DAB_UPDATE`` with current bounds, epochs and the
        node's accepted-seq high-water marks) is consumed *before* this
        returns: a tick racing ahead of it would forward unfiltered values
        and — after a process restart — number its refreshes below the
        node's dedup guard.  With no usable reply in ``register_timeout``
        seconds the link goes on fail-safe (:meth:`_on_failsafe`); the
        listener applies a late one.
        """
        await self.close()
        self._stream = stream
        await stream.send(protocol.register_source(self.source_id, self.items))
        try:
            reply = await asyncio.wait_for(stream.receive(), register_timeout)
            kind = reply is not None and protocol.validate_message(reply)
        except (asyncio.TimeoutError, ProtocolError):
            # Timed out, the connection died, the reply is corrupt or invalid.
            kind = None
            self._on_failsafe(register_timeout)
        if kind is MessageType.ERROR:
            # A bad source, or one flipped bit in our REGISTER frame: the node
            # hangs up — a closed transport, which callers' retries re-dial.
            await self.close()
            raise TransportClosed(
                f"registration rejected: {reply.get('reason')}")
        if kind is MessageType.DAB_UPDATE:
            await self._handle_dab_update(reply, stream)
        self._listener = asyncio.ensure_future(self._listen(stream))

    async def _handle_dab_update(self, message: Dict[str, Any],
                                 stream: MessageStream) -> None:
        applied = self._on_dab_update(message)
        msg_id = message.get("msg_id")
        if msg_id is not None:
            await stream.send(protocol.dab_ack(self.source_id, int(msg_id)))
        await self._after_dab_update(message, applied, stream)

    async def _listen(self, stream: MessageStream) -> None:
        try:
            while True:
                message = await stream.receive()
                if message is None:
                    break
                kind = protocol.validate_message(message)
                if kind is MessageType.DAB_UPDATE:
                    await self._handle_dab_update(message, stream)
                elif kind is MessageType.ERROR:
                    break
        except ProtocolError:
            pass         # corrupt framing, an invalid message, a broken pipe
        # Not reached by a cancelled listener.  With the whole stream closed
        # the next send raises TransportClosed, not into a dead connection.
        stream.close()
        self._on_lost()

    def _on_failsafe(self, register_timeout: float) -> None:
        """Hook: :meth:`connect` got no usable registration reply."""

    def _on_dab_update(self, message: Dict[str, Any]) -> Any:
        """Hook: apply a valid DAB_UPDATE; the result is ``applied`` below."""

    async def _after_dab_update(self, message: Dict[str, Any], applied: Any,
                                stream: MessageStream) -> None:
        """Hook: what follows the ack — probe answers, forwarding."""

    def _on_lost(self) -> None:
        """Hook: the listener ended, and not by :meth:`close`; fired once."""

    async def close(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None and not listener.done():
            listener.cancel()
            await asyncio.wait([listener])
        if self._stream is not None:
            self._stream.close()
            self._stream = None


def latency_percentiles(samples: Sequence[float],
                        percentiles: Sequence[float] = (50.0, 95.0, 99.0),
                        ) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., ...}`` (empty input → empty dict)."""
    if not samples:
        return {}
    ordered = sorted(samples)
    out: Dict[str, float] = {}
    for p in percentiles:
        rank = min(len(ordered) - 1,
                   max(0, int(round(p / 100.0 * (len(ordered) - 1)))))
        out[f"p{p:g}"] = ordered[rank]
    return out
