"""The wire-facing half of every node that accepts protocol peers.

The coordinator server, the cluster router and each NOTIFY broker are
all :class:`FrontEnd`\\ s.  *What* a node publishes and *when* is its own
business; how peers are accepted, policed, fed and let go is written
here once (DESIGN.md §9.3), in three parts: the **peer loop** (accept,
``receive_many → validate → dispatch → protocol-error reply → teardown``
over the node's handler table — each run of REFRESHes one read delivered
is dispatched to the REFRESH handler together — the maintenance task, the
drain on shutdown), the **subscriber plane** (the one fan-out loop, which
builds and encodes each distinct NOTIFY once and writes it straight onto
every subscriber stream with room; a bounded queue and writer task per
subscriber for the rest, slow-consumer eviction, the graceful drop) and
**reliable DAB delivery** (``msg_id``-tagged DAB_UPDATEs resent with
backoff until acked, superseded by a re-registration, or given up on).
"""

from __future__ import annotations

import asyncio
from itertools import compress
from typing import (Any, Awaitable, Callable, Container, Dict, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from repro.service import protocol
from repro.service.protocol import MessageType, ProtocolError
from repro.service.resilience import RetryPolicy
from repro.service.source_plane import DabRetryTable
from repro.service.transports import MessageStream, TransportClosed

#: NOTIFY batches a subscriber may have outstanding before it is evicted.
DEFAULT_NOTIFY_QUEUE_LIMIT = 64

#: How long a graceful subscriber drop waits for its writer task to flush
#: before cancelling it (seconds).
WRITER_JOIN_TIMEOUT = 1.0

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


#: What a node does with one message — or, for ``REFRESH``, with a batch:
#: the list of consecutive REFRESH frames one read delivered.
Handler = Callable[[Peer, Any], Awaitable[None]]


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
                 notify_queue_limit: int,
                 dab_retry_policy: Optional[RetryPolicy] = None):
        self.handlers = dict(handlers)
        self.stats = stats
        self.clock = clock
        self.notify_queue_limit = int(notify_queue_limit)
        self._subscribers: Dict[int, _Subscriber] = {}
        self._sub_counter = 0
        #: ``None`` without a retry policy (no reliable DAB delivery); with
        #: one, every changed-bound DAB_UPDATE carries a ``msg_id`` and is
        #: retried on the policy's schedule until acked or given up on.
        self.dab_retries = (DabRetryTable(dab_retry_policy)
                            if dab_retry_policy is not None else None)
        #: source_id -> its (sole) live stream; replaced on re-register.
        self._source_streams: Dict[int, MessageStream] = {}
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
                messages = await stream.receive_many()
                if not messages or not await self._dispatch(peer, messages):
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

    async def _dispatch(self, peer: Peer,
                        messages: List[Dict[str, Any]]) -> bool:
        """Validate and handle what one read delivered, in order: each
        run of consecutive REFRESHes goes to the REFRESH handler as one
        list, every other message is handled alone.  ``False`` once
        the peer has been told why it is being hung up on — after the
        batch in front of the offending message was handled."""
        batch: List[Dict[str, Any]] = []
        for message in messages:
            try:
                kind: Optional[MessageType] = protocol.validate_message(message)
            except ProtocolError as err:
                kind, invalid = None, str(err)
            if kind is MessageType.REFRESH:
                batch.append(message)
                continue
            if batch and not await self._handle(peer, MessageType.REFRESH,
                                                batch):
                return False
            batch = []
            if kind is None:
                await self._protocol_error(peer.stream, invalid)
                return False
            if not await self._handle(peer, kind, message):
                return False
        return not batch or await self._handle(peer, MessageType.REFRESH,
                                               batch)

    async def _handle(self, peer: Peer, kind: MessageType,
                      payload: Any) -> bool:
        """Run ``kind``'s handler on ``payload``; ``False`` (the peer told
        why) when the node takes no such message or the handler refused
        it."""
        handler = self.handlers.get(kind)
        if handler is None:
            # e.g. NOTIFY/DAB_UPDATE/ERROR: node-to-peer only.
            await self._protocol_error(
                peer.stream, f"unexpected {kind.value} from a client")
            return False
        try:
            await handler(peer, payload)
        except (ValueError, TypeError, KeyError, ProtocolError) as err:
            # validate_message shape-checks every known field, but a
            # handler tripping over a hostile payload (or a refused
            # QUERY_SUB definition) must still answer with a protocol
            # error, not kill the task.
            await self._protocol_error(
                peer.stream, f"malformed {kind.value} message: {err}")
            return False
        return True

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
        """Drain one subscriber's queue onto its stream — the NOTIFYs
        :meth:`_deliver` could not write at once.

        A peer that hung up, or a message its stream cannot encode (a
        non-finite or non-JSON value: our bug, counted as a protocol
        error), drops *this* subscriber; the others keep flowing."""
        try:
            while True:
                message = await sub.queue.get()
                if message is None:
                    return
                sub.stream.send_nowait(message)
                await sub.stream.drain()
                self.stats["notifies_sent"] += 1
        except ProtocolError as err:
            if not isinstance(err, TransportClosed):
                self.stats["protocol_errors"] += 1
            self._forget_subscriber(sub)
            sub.stream.close()

    def _publish(self, updates: Sequence[Mapping[str, Any]],
                 degraded: Optional[Mapping[str, float]] = None,
                 piggyback: bool = False, **stamps: Any) -> None:
        """One NOTIFY per interested subscriber.

        Each subscriber gets the ``updates`` (``{"query", "value"}``
        dicts) and the ``degraded`` entries it ``wants``.  One that wants
        none of the updates is skipped, unless ``degraded`` is an
        announcement every subscriber must see (``{}`` = all clear);
        ``piggyback=True`` says it only rides along with value updates.
        ``stamps`` are the other :func:`protocol.notify` fields, the same
        on every frame.  Subscribers that want the same entries share one
        NOTIFY — sent messages are read-only — built once and, for byte
        streams, encoded once; :meth:`_deliver` hands it to each."""
        names = [update["query"] for update in updates]
        everything = tuple(range(len(names)))
        built: Dict[Tuple[Any, ...], List[Any]] = {}
        for sub in list(self._subscribers.values()):
            wants = sub.wants
            picked = everything if sub.queries is None else tuple(compress(
                everything, map(sub.queries.__contains__, names)))
            if not picked and (degraded is None or piggyback):
                continue
            shown = None if degraded is None else tuple(
                name for name in degraded if wants(name))
            # [message, its frame once a byte stream asked for one]
            one = built.get((picked, shown))
            if one is None:
                one = built[picked, shown] = [protocol.notify(
                    [updates[index] for index in picked],
                    degraded=None if shown is None else
                    {name: degraded[name] for name in shown}, **stamps), None]
            if not sub.stream.encodes:
                self._deliver(sub, one[0])
                continue
            if one[1] is None:
                try:
                    one[1] = protocol.encode_frame(one[0])
                except ProtocolError:
                    # Unencodable: each stream refuses the message itself
                    # and its writer drops the subscriber.
                    one[1] = one[0]
            self._deliver(sub, one[1])

    def _deliver(self, sub: _Subscriber, payload: Any) -> None:
        """Hand ``sub`` one NOTIFY (a message, or its encoded frame).

        With nothing queued ahead of it, a live writer and room on the
        stream it is written now; otherwise it joins the bounded queue
        the writer task drains — a full queue evicts the slow consumer.
        Either way the subscriber sees its frames in publish order."""
        if (sub.queue.empty() and not sub.writer_task.done()
                and sub.stream.has_room()):
            try:
                sub.stream.send_nowait(payload)
            except ProtocolError:
                pass                    # the writer's send fails and drops it
            else:
                self.stats["notifies_sent"] += 1
                return
        try:
            sub.queue.put_nowait(payload)
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
                                       timeout=WRITER_JOIN_TIMEOUT)
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
        if self.dab_retries is not None:
            self.dab_retries.forget_source(source_id)

    async def _send_to_source(self, source_id: int,
                              message: Dict[str, Any]) -> bool:
        """Best effort; ``False`` when the source is not connected."""
        stream = self._source_streams.get(source_id)
        return stream is not None and await self._safe_send(stream, message)

    async def _send_dab_update(self, source_id: int,
                               bounds: Dict[str, float],
                               epochs: Dict[str, int],
                               msg_id: Optional[int] = None) -> None:
        """Ship one changed-bound DAB_UPDATE (a resend passes its
        ``msg_id``); with a retry policy it carries a ``msg_id`` and stays
        in :attr:`dab_retries` until acked — a dropped *narrowing* update
        is the one loss the seq/lease machinery cannot see.  A disconnected
        source is sent nothing: its re-registration re-programs every
        bound, and the entry nags until then."""
        if msg_id is None and self.dab_retries is not None:
            msg_id = self.dab_retries.track(source_id, bounds, epochs,
                                            self.clock())
        if await self._send_to_source(source_id, protocol.dab_update(
                source_id, bounds, epochs, msg_id=msg_id)):
            self.stats["dab_updates_sent"] += 1

    async def _on_dab_ack(self, peer: Peer, message: Dict[str, Any]) -> None:
        if self.dab_retries is not None:
            self.dab_retries.ack(int(message["msg_id"]))
        self.stats["dab_acks_received"] += 1

    def _dab_retried(self) -> None:
        """Hook: an unacked DAB_UPDATE was resent."""

    def _dab_gave_up(self, items: List[str]) -> None:
        """Hook: delivery of these items' bounds was given up on — the
        node can no longer claim their source enforces them."""

    async def check_retries(self) -> None:
        """Resend overdue unacked DAB_UPDATEs; hand the items of one that
        exhausted its attempts to :meth:`_dab_gave_up`."""
        if not self.dab_retries:
            return
        resend, given_up = self.dab_retries.due(self.clock())
        for entry in given_up:
            self._dab_gave_up(list(entry.bounds))
        for msg_id, entry in resend:
            self._dab_retried()
            await self._send_dab_update(entry.source_id, entry.bounds,
                                        entry.epochs, msg_id)
