"""Subscriber fan-out brokers: scale NOTIFY delivery off the router.

A :class:`NotifyBroker` holds ONE wildcard subscription upstream (to the
cluster router, or to a plain :class:`CoordinatorServer` — the wire is
identical) and re-fans every NOTIFY to its own subscribers through the
same subscriber plane (bounded queues, slow-consumer eviction) and peer
loop as the server (:mod:`repro.service.frontend`) — over a two-entry
handler table, since a broker serves subscribers only.
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

import time as _time
from typing import Any, Callable, Dict, List, Optional

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.frontend import (
    DEFAULT_NOTIFY_QUEUE_LIMIT,
    FrontEnd,
    Peer,
    _Subscriber,
)
from repro.service.protocol import MessageType, ProtocolError
from repro.service.transports import InprocessLink, MessageStream, inprocess_pair


class _Upstream(ServiceClient):
    """A broker's one subscription: the subscriber client whose tables
    are the broker's cache and whose NOTIFYs are re-published."""

    relays = True

    def __init__(self, broker: "NotifyBroker"):
        super().__init__(broker.connect_upstream(), clock=broker.clock)
        self.broker = broker

    def _on_notify(self, message: Dict[str, Any]) -> None:
        broker = self.broker
        broker.stats["upstream_notifies"] += 1
        for update in message["updates"]:
            self.values[update["query"]] = float(update["value"])
        self._apply_degraded(message)
        broker._publish(
            message["updates"], message.get("degraded"),
            sent_at=message.get("sent_at"),
            refresh_sent_at=message.get("refresh_sent_at"),
            shard=message.get("shard"))

    def _on_lost(self) -> None:
        # Cut unexpectedly (upstream restart, or an eviction before the
        # trunk flag deepened our queue): reattach and re-seed the cache
        # from the fresh initial snapshot, or every client behind us
        # silently freezes at the last delivered NOTIFY.
        self.broker.stats["upstream_resubscribes"] += 1
        self.reopen(self.broker.connect_upstream())


class NotifyBroker(FrontEnd):
    """One fan-out node: single upstream subscription, many downstream."""

    def __init__(self, connect_upstream: Callable[[], MessageStream],
                 clock: Callable[[], float] = _time.time,
                 notify_queue_limit: int = DEFAULT_NOTIFY_QUEUE_LIMIT,
                 writer_join_timeout: float = 1.0,
                 name: str = "broker"):
        self.connect_upstream = connect_upstream
        self.name = name
        self._client: Optional[_Upstream] = None
        self.started = False
        super().__init__({
            MessageType.QUERY_SUB: self._on_query_sub,
            MessageType.SNAPSHOT: self._on_snapshot,
        }, stats={
            "upstream_notifies": 0,
            "upstream_resubscribes": 0,
            "notifies_sent": 0,
            "snapshots_served": 0,
            "slow_consumer_evictions": 0,
            "subscribers": 0,
            "protocol_errors": 0,
        }, clock=clock, notify_queue_limit=notify_queue_limit,
            writer_join_timeout=writer_join_timeout)

    @property
    def values(self) -> Dict[str, float]:
        """The cache: the latest value per query, as upstream pushed it."""
        return self._client.values if self._client is not None else {}

    @property
    def degraded(self) -> Dict[str, float]:
        return self._client.degraded if self._client is not None else {}

    @property
    def _upstream(self) -> Optional[MessageStream]:
        """The live upstream stream (``None`` while it is down)."""
        client = self._client
        return client.stream if client is not None and client.connected else None

    async def start(self) -> None:
        """Subscribe upstream and seed the cache from the initial snapshot."""
        if self.started:
            return
        self.closed = False
        # ``trunk=True``: the broker is the upstream's aggregation
        # trunk for every client behind it — the coordinator must give
        # it a deep queue, not the user-facing slow-consumer limit.
        self._client = _Upstream(self)
        await self._client.subscribe("*", trunk=True)
        self.started = True

    # -- downstream ---------------------------------------------------------------

    def connect_loopback(self) -> InprocessLink:
        client_end, server_end = inprocess_pair()
        self.adopt_connection(server_end)
        return client_end

    async def _on_query_sub(self, peer: Peer,
                            message: Dict[str, Any]) -> None:
        if message.get("definitions"):
            raise ProtocolError("brokers are read-only: register queries "
                                "at the coordinator")
        sub = self._add_subscriber(peer, message)
        await self._safe_send(peer.stream, self._snapshot_response(sub))

    async def _on_snapshot(self, peer: Peer, message: Dict[str, Any]) -> None:
        self.stats["snapshots_served"] += 1
        await self._safe_send(peer.stream, self._snapshot_response(peer.sub))

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

    async def close(self) -> None:
        if self._client is not None:
            await self._client.close()
        await self._shutdown()
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
