"""Subscriber fan-out brokers: scale NOTIFY delivery off the router.

A :class:`NotifyBroker` holds ONE wildcard subscription upstream (to the
cluster router, or to a plain :class:`CoordinatorServer` — the wire is
identical) and re-fans every NOTIFY to its own subscribers through the
same bounded-queue / slow-consumer-eviction discipline the server uses.
It also caches the latest value and degraded map per query, so SNAPSHOT
requests and new-subscriber seeding are served locally — the upstream
coordinator sees a constant number of subscribers no matter how many
clients attach.

A :class:`BrokerTier` spreads M brokers over one upstream and deals
incoming subscribers round-robin, which bounds the per-broker fan-out at
``ceil(clients / M)``.

The cache serves the *last recombined value* — exactly what a direct
subscriber would hold after the same NOTIFY — so interposing a broker
never changes the values a client observes, only who writes the bytes.
"""

from __future__ import annotations

import asyncio
import time as _time
from typing import Any, Callable, Dict, List, Optional, Set

from repro.service import protocol
from repro.service.protocol import MessageType, ProtocolError
from repro.service.server import (
    DEFAULT_NOTIFY_QUEUE_LIMIT,
    _Subscriber,
    _subscriber_writer,
)
from repro.service.transports import (
    InprocessLink,
    MessageStream,
    TransportClosed,
    inprocess_pair,
)


class NotifyBroker:
    """One fan-out node: single upstream subscription, many downstream."""

    def __init__(self, connect_upstream: Callable[[], MessageStream],
                 clock: Callable[[], float] = _time.time,
                 notify_queue_limit: int = DEFAULT_NOTIFY_QUEUE_LIMIT,
                 writer_join_timeout: float = 1.0,
                 name: str = "broker"):
        self.connect_upstream = connect_upstream
        self.clock = clock
        self.notify_queue_limit = int(notify_queue_limit)
        self.writer_join_timeout = float(writer_join_timeout)
        self.name = name
        self.values: Dict[str, float] = {}
        self.degraded: Dict[str, float] = {}
        self._upstream: Optional[MessageStream] = None
        self._upstream_task: Optional[asyncio.Task] = None
        self._subscribers: Dict[int, _Subscriber] = {}
        self._sub_counter = 0
        self._handler_tasks: Set[asyncio.Task] = set()
        self._closing = False
        self.started = False
        self.stats = {
            "upstream_notifies": 0,
            "upstream_resubscribes": 0,
            "notifies_sent": 0,
            "snapshots_served": 0,
            "slow_consumer_evictions": 0,
            "subscribers": 0,
            "protocol_errors": 0,
        }

    async def start(self) -> None:
        """Subscribe upstream and seed the cache from the initial snapshot."""
        if self.started:
            return
        self._closing = False
        await self._subscribe_upstream()
        self.started = True

    async def _subscribe_upstream(self) -> None:
        # ``trunk=True``: the broker is the upstream's aggregation
        # trunk for every client behind it — the coordinator must give
        # it a deep queue, not the user-facing slow-consumer limit.
        stream = self.connect_upstream()
        await stream.send(protocol.query_sub("*", trunk=True))
        first = await stream.receive()
        if first is not None and first.get("type") == MessageType.SNAPSHOT.value:
            for key, value in (first.get("values") or {}).items():
                self.values[key] = float(value)
            if first.get("degraded") is not None:
                self.degraded = {k: float(v)
                                 for k, v in first["degraded"].items()}
        self._upstream = stream
        self._upstream_task = asyncio.ensure_future(self._upstream_loop(stream))

    async def _upstream_loop(self, stream: MessageStream) -> None:
        try:
            while True:
                message = await stream.receive()
                if message is None:
                    break
                kind = protocol.validate_message(message)
                if kind is MessageType.NOTIFY:
                    self.stats["upstream_notifies"] += 1
                    for update in message.get("updates") or []:
                        self.values[update["query"]] = float(update["value"])
                    if message.get("degraded") is not None:
                        self.degraded = {k: float(v) for k, v
                                         in message["degraded"].items()}
                    self._fanout(message)
                    # A deep trunk queue can hold a whole storm's
                    # backlog, and a loopback receive() on a non-empty
                    # queue never suspends — without this yield the
                    # drain runs synchronously, stuffing every
                    # subscriber queue before their writer tasks get a
                    # single turn and "evicting" clients that were
                    # never actually slow.
                    await asyncio.sleep(0)
                elif kind is MessageType.SNAPSHOT:
                    # Unsolicited refresh of the cache (e.g. after an
                    # upstream restore) — absorb it silently.
                    for key, value in (message.get("values") or {}).items():
                        self.values[key] = float(value)
        except (TransportClosed, ProtocolError):
            pass
        except asyncio.CancelledError:
            raise
        finally:
            stream.close()
            if not self._closing and self._upstream is stream:
                # Cut unexpectedly (upstream restart, or an eviction
                # before the trunk flag deepened our queue): reattach
                # and re-seed the cache from the fresh initial
                # snapshot, or every client behind us silently
                # freezes at the last delivered NOTIFY.
                self._upstream = None
                self._upstream_task = None
                self.stats["upstream_resubscribes"] += 1
                asyncio.ensure_future(self._resubscribe_upstream())

    async def _resubscribe_upstream(self) -> None:
        try:
            await self._subscribe_upstream()
        except Exception:
            pass  # upstream gone for good; close() handles the rest

    def _fanout(self, message: Dict[str, Any]) -> None:
        updates = message.get("updates") or []
        degraded = message.get("degraded")
        for sub in list(self._subscribers.values()):
            wanted = [u for u in updates if sub.wants(u["query"])]
            if not wanted and degraded is None:
                continue
            out = protocol.notify(
                wanted, sent_at=message.get("sent_at"),
                refresh_sent_at=message.get("refresh_sent_at"),
                shard=message.get("shard"),
                degraded={k: v for k, v in degraded.items()
                          if sub.wants(k)} if degraded is not None else None)
            try:
                sub.queue.put_nowait(out)
            except asyncio.QueueFull:
                self._evict_slow_consumer(sub)

    # -- downstream ---------------------------------------------------------------

    def connect_loopback(self) -> InprocessLink:
        client_end, server_end = inprocess_pair()
        task = asyncio.ensure_future(self.handle_connection(server_end))
        self._handler_tasks.add(task)
        task.add_done_callback(self._handler_tasks.discard)
        return client_end

    async def handle_connection(self, stream: MessageStream) -> None:
        sub: Optional[_Subscriber] = None
        try:
            while True:
                message = await stream.receive()
                if message is None:
                    break
                try:
                    kind = protocol.validate_message(message)
                except ProtocolError as err:
                    self.stats["protocol_errors"] += 1
                    await self._safe_send(stream, protocol.error(str(err)))
                    break
                if kind is MessageType.QUERY_SUB:
                    if message.get("definitions"):
                        self.stats["protocol_errors"] += 1
                        await self._safe_send(stream, protocol.error(
                            "brokers are read-only: register queries at the "
                            "coordinator"))
                        break
                    sub = self._add_subscriber(stream, message)
                    await self._safe_send(stream, self._snapshot_response(sub))
                elif kind is MessageType.SNAPSHOT:
                    self.stats["snapshots_served"] += 1
                    await self._safe_send(stream, self._snapshot_response(sub))
                else:
                    self.stats["protocol_errors"] += 1
                    await self._safe_send(stream, protocol.error(
                        f"unexpected {kind.value}: brokers serve "
                        "subscribers only"))
                    break
        except ProtocolError:
            self.stats["protocol_errors"] += 1
        finally:
            stream.close()
            if sub is not None:
                await self._drop_subscriber(sub)

    def _add_subscriber(self, stream: MessageStream,
                        message: Dict[str, Any]) -> _Subscriber:
        wanted = message["queries"]
        names = None if wanted == "*" else set(wanted)
        self._sub_counter += 1
        sub = _Subscriber(self._sub_counter, stream, names,
                          self.notify_queue_limit)
        self._subscribers[sub.sub_id] = sub
        self.stats["subscribers"] = len(self._subscribers)
        sub.writer_task = asyncio.ensure_future(
            _subscriber_writer(sub, self._subscribers, self.stats))
        return sub

    def _snapshot_response(self, sub: Optional[_Subscriber]) -> Dict[str, Any]:
        values = {name: value for name, value in self.values.items()
                  if sub is None or sub.wants(name)}
        degraded = ({name: bound for name, bound in self.degraded.items()
                     if sub is None or sub.wants(name)}
                    if self.degraded else None)
        stats = dict(self.stats)
        stats["broker"] = self.name
        return protocol.snapshot(values=values, stats=stats,
                                 degraded=degraded)

    async def _safe_send(self, stream: MessageStream,
                         message: Dict[str, Any]) -> bool:
        try:
            await stream.send(message)
            return True
        except (TransportClosed, ProtocolError):
            return False

    def _evict_slow_consumer(self, sub: _Subscriber) -> None:
        if sub.evicted:
            return
        sub.evicted = True
        self.stats["slow_consumer_evictions"] += 1
        self._subscribers.pop(sub.sub_id, None)
        self.stats["subscribers"] = len(self._subscribers)
        if sub.writer_task is not None:
            sub.writer_task.cancel()
        sub.stream.close()

    async def _drop_subscriber(self, sub: _Subscriber) -> None:
        self._subscribers.pop(sub.sub_id, None)
        self.stats["subscribers"] = len(self._subscribers)
        if sub.writer_task is not None and not sub.writer_task.done():
            try:
                sub.queue.put_nowait(None)
            except asyncio.QueueFull:
                sub.writer_task.cancel()
            try:
                await asyncio.wait_for(sub.writer_task,
                                       timeout=self.writer_join_timeout)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                sub.writer_task.cancel()
        sub.stream.close()

    async def close(self) -> None:
        self._closing = True
        if self._upstream_task is not None:
            self._upstream_task.cancel()
            try:
                await self._upstream_task
            except (asyncio.CancelledError, Exception):
                pass
            self._upstream_task = None
        if self._upstream is not None:
            self._upstream.close()
            self._upstream = None
        for sub in list(self._subscribers.values()):
            await self._drop_subscriber(sub)
        for task in list(self._handler_tasks):
            task.cancel()
        for task in list(self._handler_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self.started = False


class BrokerTier:
    """Round-robin M brokers over one upstream coordinator."""

    def __init__(self, connect_upstream: Callable[[], MessageStream],
                 brokers: int = 2,
                 clock: Callable[[], float] = _time.time,
                 notify_queue_limit: int = DEFAULT_NOTIFY_QUEUE_LIMIT):
        if brokers < 1:
            raise ValueError("a broker tier needs at least one broker")
        self.brokers: List[NotifyBroker] = [
            NotifyBroker(connect_upstream, clock=clock,
                         notify_queue_limit=notify_queue_limit,
                         name=f"broker-{i}")
            for i in range(brokers)]
        self._next = 0

    async def start(self) -> None:
        for broker in self.brokers:
            await broker.start()

    def connect_loopback(self) -> MessageStream:
        """A client stream to the next broker, round-robin."""
        broker = self.brokers[self._next % len(self.brokers)]
        self._next += 1
        return broker.connect_loopback()

    def stats(self) -> Dict[str, Any]:
        return {
            "brokers": len(self.brokers),
            "subscribers": sum(b.stats["subscribers"] for b in self.brokers),
            "notifies_sent": sum(b.stats["notifies_sent"]
                                 for b in self.brokers),
            "upstream_notifies": sum(b.stats["upstream_notifies"]
                                     for b in self.brokers),
            "slow_consumer_evictions": sum(
                b.stats["slow_consumer_evictions"] for b in self.brokers),
            "per_broker": {b.name: dict(b.stats) for b in self.brokers},
        }

    async def close(self) -> None:
        for broker in self.brokers:
            await broker.close()
