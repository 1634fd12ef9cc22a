"""The wire-facing half of every node that accepts protocol peers.

The coordinator server, the cluster router and each NOTIFY broker are
all :class:`FrontEnd`\\ s.  *What* a node publishes and *when* is its own
business; how peers are accepted, policed, fed and let go is written
here once (DESIGN.md §9.3), in three parts: the **peer loop** (accept,
``receive → validate → dispatch → protocol-error reply → teardown`` over
the node's handler table, the maintenance task, the drain on shutdown),
the **subscriber plane** (a bounded NOTIFY queue and writer task per
subscriber, the one fan-out loop, slow-consumer eviction, the graceful
drop) and **reliable DAB delivery** (``msg_id``-tagged DAB_UPDATEs resent
with backoff until acked, superseded by a re-registration, or given up
on).
"""

from __future__ import annotations

import asyncio
from typing import (Any, Awaitable, Callable, Container, Dict, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from repro.service import protocol
from repro.service.protocol import MessageType, ProtocolError
from repro.service.resilience import RetryPolicy
from repro.service.transports import MessageStream, TransportClosed

#: NOTIFY batches a subscriber may have outstanding before it is evicted.
DEFAULT_NOTIFY_QUEUE_LIMIT = 64

#: Queue-limit floor granted to ``QUERY_SUB trunk=True`` subscriptions —
#: infrastructure consumers (a cluster router's shard trunk, a fan-out
#: broker's upstream) whose eviction would sever every client behind
#: them.  Deep enough to absorb a full replay storm's NOTIFY burst.
TRUNK_QUEUE_LIMIT = 4096


class _Subscriber:
    """One QUERY_SUB connection and its bounded outbound queue."""

    def __init__(self, sub_id: int, stream: MessageStream,
                 queries: Optional[Set[str]], limit: int):
        self.sub_id = sub_id
        self.stream = stream
        #: ``None`` subscribes to every query.
        self.queries = queries
        self.queue: "asyncio.Queue[Optional[Dict[str, Any]]]" = (
            asyncio.Queue(maxsize=limit))
        self.writer_task: Optional[asyncio.Task] = None
        self.evicted = False
        #: Dynamic queries this subscriber holds a refcount on; released
        #: (and the query removed on the last reference) when it drops.
        self.registered: Set[str] = set()

    def wants(self, query_name: str) -> bool:
        return self.queries is None or query_name in self.queries


class Peer:
    """One accepted connection and what it has become so far."""

    def __init__(self, stream: MessageStream):
        self.stream = stream
        #: set when the peer registers as a source (:meth:`_attach_source`)
        self.source_id: Optional[int] = None
        #: set when the peer subscribes (:meth:`_add_subscriber`)
        self.sub: Optional[_Subscriber] = None


Handler = Callable[[Peer, Dict[str, Any]], Awaitable[None]]


class FrontEnd:
    """The connection loop, subscriber plane and DAB sender of one node.

    A subclass passes ``handlers`` — what it does with each message kind
    it accepts; any other kind is a protocol error — and its ``stats``
    counters, and may override the hooks :meth:`_subscriber_gone`,
    :meth:`_dab_retried`, :meth:`_dab_gave_up`,
    :meth:`maintenance_interval` and :meth:`check_leases`.  Everything
    runs on one event loop, so no state here needs a lock.
    """

    def __init__(self, handlers: Mapping[MessageType, Handler],
                 stats: Dict[str, Any], clock: Callable[[], float],
                 notify_queue_limit: int, writer_join_timeout: float,
                 dab_retry_policy: Optional[RetryPolicy] = None):
        self.handlers = dict(handlers)
        self.stats = stats
        self.clock = clock
        self.notify_queue_limit = int(notify_queue_limit)
        #: How long a graceful subscriber drop waits for its writer task
        #: to flush before cancelling it (seconds).
        self.writer_join_timeout = float(writer_join_timeout)
        self._subscribers: Dict[int, _Subscriber] = {}
        self._sub_counter = 0
        #: ``None`` disables reliable DAB delivery; with a policy, every
        #: changed-bound DAB_UPDATE carries a ``msg_id`` and is retried
        #: with backoff until acked or given up on.
        self.dab_retry_policy = dab_retry_policy
        #: source_id -> its (sole) live stream; replaced on re-register.
        self._source_streams: Dict[int, MessageStream] = {}
        self._outstanding_dabs: Dict[int, Dict[str, Any]] = {}
        self._dab_msg_counter = 0
        #: True once shutdown began.  A closed node refuses new peers —
        #: this is what makes a supervisor-``crash()``ed shard behave like
        #: a dead process instead of a still-answering zombie behind the
        #: router's stale plumbing.
        self.closed = False
        #: ``(host, port)`` once :meth:`serve_tcp` binds; ``None`` for
        #: loopback-only embeddings.
        self.listen_address: Optional[Tuple[str, int]] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._handler_tasks: Set[asyncio.Task] = set()
        self._maintenance_task: Optional[asyncio.Task] = None

    # -- the peer loop --------------------------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> Tuple[str, int]:
        """Start accepting TCP connections; returns the bound address."""
        async def _accept(reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
            peer = writer.get_extra_info("peername")
            stream = MessageStream(reader, writer, name=str(peer))
            await self.handle_connection(stream)

        self._tcp_server = await asyncio.start_server(_accept, host, port)
        sockname = self._tcp_server.sockets[0].getsockname()
        self.listen_address = (sockname[0], sockname[1])
        # Lease checks and DAB retries run on a background task from
        # here on; loopback embeddings (tests, the chaos soak) call
        # check_leases()/check_retries() themselves instead, so their
        # event order stays deterministic.
        interval = self.maintenance_interval()
        if interval is not None and self._maintenance_task is None:
            self._maintenance_task = asyncio.ensure_future(
                self._maintenance_loop(interval))
        return sockname[0], sockname[1]

    def adopt_connection(self, server_end: MessageStream) -> None:
        """Serve an externally-built stream (a chaos-wrapped loopback
        end, the far end of a ``connect_loopback()`` link) on this node."""
        if self.closed:
            # A dead process cannot accept sockets; a closed in-process
            # node must not either, or its peers would be talking to a
            # zombie whose handler task nothing will ever cancel.
            server_end.close()
            return
        task = asyncio.ensure_future(self.handle_connection(server_end))
        self._handler_tasks.add(task)
        task.add_done_callback(self._handler_tasks.discard)

    async def handle_connection(self, stream: MessageStream) -> None:
        """Serve one peer until EOF or a protocol violation."""
        peer = Peer(stream)
        try:
            while True:
                message = await stream.receive()
                if message is None:
                    break
                try:
                    kind = protocol.validate_message(message)
                except ProtocolError as err:
                    await self._protocol_error(stream, str(err))
                    break
                handler = self.handlers.get(kind)
                if handler is None:
                    # e.g. NOTIFY/DAB_UPDATE/ERROR: node-to-peer only.
                    await self._protocol_error(
                        stream, f"unexpected {kind.value} from a client")
                    break
                try:
                    await handler(peer, message)
                except (ValueError, TypeError, KeyError,
                        ProtocolError) as err:
                    # validate_message shape-checks every known field, but
                    # a handler tripping over a hostile payload (or a
                    # refused QUERY_SUB definition) must still answer
                    # with a protocol error, not kill the task.
                    await self._protocol_error(
                        stream, f"malformed {kind.value} message: {err}")
                    break
        except ProtocolError:
            await self._protocol_error(stream, "corrupt framing")
        finally:
            stream.close()
            if (peer.source_id is not None
                    and self._source_streams.get(peer.source_id) is stream):
                del self._source_streams[peer.source_id]
            if peer.sub is not None:
                await self._drop_subscriber(peer.sub)

    async def _protocol_error(self, stream: MessageStream,
                              reason: str) -> None:
        """Count the violation and tell the peer why it is being hung up
        on (the caller then leaves the loop)."""
        self.stats["protocol_errors"] += 1
        await self._safe_send(stream, protocol.error(reason))

    @staticmethod
    async def _safe_send(stream: MessageStream,
                         message: Dict[str, Any]) -> bool:
        try:
            await stream.send(message)
            return True
        except (TransportClosed, ProtocolError):
            return False

    def maintenance_interval(self) -> Optional[float]:
        """Seconds between maintenance sweeps; ``None`` (the default):
        this node has nothing to maintain."""
        return None

    async def check_leases(self) -> None:
        """The node's staleness-lease sweep (none by default)."""

    async def _maintenance_loop(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            await self.check_leases()
            await self.check_retries()

    async def _shutdown(self) -> None:
        """Refuse new peers, stop maintenance and the listener, flush and
        drop every subscriber, hang up on sources, cancel the handlers."""
        self.closed = True
        if self._maintenance_task is not None:
            self._maintenance_task.cancel()
            await asyncio.gather(self._maintenance_task,
                                 return_exceptions=True)
            self._maintenance_task = None
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        for sub in list(self._subscribers.values()):
            await self._drop_subscriber(sub)
        for stream in list(self._source_streams.values()):
            stream.close()
        self._source_streams.clear()
        tasks = list(self._handler_tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    # -- the subscriber plane -------------------------------------------------------

    def _add_subscriber(self, peer: Peer, message: Mapping[str, Any],
                        known: Optional[Container[str]] = None) -> _Subscriber:
        """``peer`` sent this QUERY_SUB: subscribe it to everything
        (``"*"``) or to the queries it lists that the node serves
        (``known``; ``None``: take the peer's word), on a trunk's deep
        queue if it says it is one, and start its writer."""
        wanted = message["queries"]
        queries = None if wanted == "*" else {
            name for name in wanted if known is None or name in known}
        self._sub_counter += 1
        limit = (max(self.notify_queue_limit, TRUNK_QUEUE_LIMIT)
                 if message.get("trunk") else self.notify_queue_limit)
        sub = _Subscriber(self._sub_counter, peer.stream, queries, limit)
        self._subscribers[sub.sub_id] = peer.sub = sub
        self.stats["subscribers"] = len(self._subscribers)
        sub.writer_task = asyncio.ensure_future(self._subscriber_writer(sub))
        return sub

    async def _subscriber_writer(self, sub: _Subscriber) -> None:
        """Drain one subscriber's queue onto its stream.

        A peer that hung up, or a message its stream cannot encode (a
        non-finite or non-JSON value: our bug, counted as a protocol
        error), drops *this* subscriber; the others keep flowing."""
        try:
            while True:
                message = await sub.queue.get()
                if message is None:
                    return
                await sub.stream.send(message)
                self.stats["notifies_sent"] += 1
        except ProtocolError as err:
            if not isinstance(err, TransportClosed):
                self.stats["protocol_errors"] += 1
            self._forget_subscriber(sub)
            sub.stream.close()

    def _publish(self, updates: Sequence[Mapping[str, Any]],
                 degraded: Optional[Mapping[str, float]] = None,
                 piggyback: bool = False, **stamps: Any) -> None:
        """One NOTIFY per interested subscriber, through its bounded
        queue; a full queue evicts the slow consumer.

        Each subscriber gets the ``updates`` (``{"query", "value"}``
        dicts, shared between the frames — sent messages are read-only)
        and the ``degraded`` entries it ``wants``.  One that wants none
        of the updates is skipped, unless ``degraded`` is an announcement
        every subscriber must see (``{}`` = all clear);
        ``piggyback=True`` says it only rides along with value updates.
        ``stamps`` are the other :func:`protocol.notify` fields, the same
        on every frame."""
        for sub in list(self._subscribers.values()):
            wanted = [update for update in updates
                      if sub.wants(update["query"])]
            if not wanted and (degraded is None or piggyback):
                continue
            message = protocol.notify(
                wanted, degraded=None if degraded is None else
                {name: bound for name, bound in degraded.items()
                 if sub.wants(name)}, **stamps)
            try:
                sub.queue.put_nowait(message)
            except asyncio.QueueFull:
                self._evict_slow_consumer(sub)

    def _subscriber_gone(self, sub: _Subscriber) -> None:
        """Hook: ``sub`` left the table — evicted, dropped or its writer
        failed, possibly one after the other, so an override must be
        idempotent."""

    def _forget_subscriber(self, sub: _Subscriber) -> None:
        self._subscribers.pop(sub.sub_id, None)
        self.stats["subscribers"] = len(self._subscribers)
        self._subscriber_gone(sub)

    def _evict_slow_consumer(self, sub: _Subscriber) -> None:
        if sub.evicted:
            return
        sub.evicted = True
        self.stats["slow_consumer_evictions"] += 1
        self._forget_subscriber(sub)
        if sub.writer_task is not None:
            sub.writer_task.cancel()
        sub.stream.close()

    async def _drop_subscriber(self, sub: _Subscriber) -> None:
        self._forget_subscriber(sub)
        if sub.writer_task is not None and not sub.writer_task.done():
            try:
                sub.queue.put_nowait(None)     # graceful: flush, then stop
            except asyncio.QueueFull:
                # Exactly-full queue (eviction only fires on overflow):
                # no room for the sentinel, so drop the backlog instead.
                sub.writer_task.cancel()
            try:
                await asyncio.wait_for(sub.writer_task,
                                       timeout=self.writer_join_timeout)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                sub.writer_task.cancel()
        sub.stream.close()

    # -- reliable DAB delivery ------------------------------------------------------

    def _attach_source(self, peer: Peer, source_id: int) -> None:
        """``peer`` (re-)registered as ``source_id``: displace the
        source's previous stream and forget the updates still being
        retried to it — the node's registration reply re-programs every
        current bound, superseding them."""
        previous = self._source_streams.get(source_id)
        if previous is not None and previous is not peer.stream:
            previous.close()
        self._source_streams[source_id] = peer.stream
        peer.source_id = source_id
        self.stats["sources_registered"] += 1
        for msg_id in [m for m, entry in self._outstanding_dabs.items()
                       if entry["source_id"] == source_id]:
            del self._outstanding_dabs[msg_id]

    async def _send_to_source(self, source_id: int,
                              message: Dict[str, Any]) -> bool:
        """Best effort; ``False`` when the source is not connected."""
        stream = self._source_streams.get(source_id)
        return stream is not None and await self._safe_send(stream, message)

    async def _send_dab_update(self, source_id: int,
                               bounds: Dict[str, float],
                               epochs: Dict[str, int],
                               attempt: int = 0,
                               msg_id: Optional[int] = None) -> None:
        """Ship one changed-bound DAB_UPDATE, reliably when configured.

        With a retry policy, the message carries a ``msg_id`` and sits in
        the outstanding table until the source's DAB_ACK lands —
        :meth:`check_retries` resends it with backoff otherwise.  A
        dropped *narrowing* update is the one loss the seq/lease
        machinery cannot see (the source keeps filtering against a
        stale, wider bound), so delivery has to be acknowledged.

        To a disconnected source nothing is sent: its bounds are
        re-programmed wholesale when it re-registers, and the outstanding
        entry keeps nagging until then.
        """
        policy = self.dab_retry_policy
        if policy is not None:
            if msg_id is None:
                self._dab_msg_counter += 1
                msg_id = self._dab_msg_counter
            self._outstanding_dabs[msg_id] = {
                "source_id": source_id, "bounds": bounds, "epochs": epochs,
                "attempt": attempt, "due": self.clock() + policy.delay(attempt),
            }
        if await self._send_to_source(source_id, protocol.dab_update(
                source_id, bounds, epochs, msg_id=msg_id)):
            self.stats["dab_updates_sent"] += 1

    async def _on_dab_ack(self, peer: Peer, message: Dict[str, Any]) -> None:
        self._outstanding_dabs.pop(int(message["msg_id"]), None)
        self.stats["dab_acks_received"] += 1

    def _dab_retried(self) -> None:
        """Hook: an unacked DAB_UPDATE was resent."""

    def _dab_gave_up(self, items: List[str]) -> None:
        """Hook: delivery of these items' bounds was given up on — the
        node can no longer claim their source enforces them."""

    async def check_retries(self) -> None:
        """Resend overdue unacked DAB_UPDATEs; hand the items of one that
        exhausted its attempts to :meth:`_dab_gave_up`."""
        policy = self.dab_retry_policy
        if policy is None or not self._outstanding_dabs:
            return
        now = self.clock()
        for msg_id in list(self._outstanding_dabs):
            entry = self._outstanding_dabs.get(msg_id)
            if entry is None or entry["due"] > now:
                continue
            del self._outstanding_dabs[msg_id]
            attempt = entry["attempt"] + 1
            if attempt >= policy.max_attempts:
                self._dab_gave_up(list(entry["bounds"]))
                continue
            self._dab_retried()
            await self._send_dab_update(entry["source_id"], entry["bounds"],
                                        entry["epochs"], attempt=attempt,
                                        msg_id=msg_id)
