"""Message streams under the wire protocol: two byte transports, one link.

:class:`MessageStream` frames/deframes protocol messages over any pair of
reader/writer objects with the tiny surface below — satisfied both by
asyncio's ``StreamReader``/``StreamWriter`` (real TCP, :func:`open_tcp_stream`)
and by :class:`_MemoryPipe` (:func:`loopback_pair`, no sockets involved):

* reader: ``async read(n) -> bytes`` (``b""`` at EOF)
* writer: ``write(data)``, ``async drain()``, ``close()``

A read returns whatever has arrived, so it may carry many frames: what
one read delivered is what :meth:`MessageStream.receive_many` hands a
node (DESIGN.md §9.3).  A write carries one frame.  A sender that fans
one message out to many streams encodes it once (``encode_frame``) and
hands each stream the frame; one that checked :meth:`MessageStream.has_room`
may write it with :meth:`~MessageStream.send_nowait`, and ``drain``
later, if at all.

The loopback *pipe* is a real transport in every sense that matters to the
protocol code — messages are *serialized to bytes* and re-parsed through
the same :class:`~repro.service.protocol.FrameDecoder` as TCP traffic, so
framing bugs cannot hide behind an object-passing shortcut.  That promise
belongs to :func:`loopback_pair` and TCP: the chaos wrappers (which flip
body bytes), ``adopt_connection(server_end)`` callers and the framing
tests build on them.

:func:`inprocess_pair` is the other thing: a *link*, not a transport.  It
hands the message dict itself to the peer — no JSON, no length prefix, no
copy — and is what every ``connect_loopback()`` returns, i.e. what the
cluster router's per-(shard, source) upstreams, its shard trunks and the
brokers' upstream subscriptions ride, because "connect_loopback" means
caller and server share a process and a heap.  Skipping the bytes there is
safe for three reasons: both ends are our own code in one heap (there is
no peer to distrust and nothing to frame); every receiver still runs
:func:`~repro.service.protocol.validate_message` on what it receives, so
the shape and finiteness checks on message fields do not move; and bytes
are still produced — and non-finite or non-JSON values refused with a
:class:`~repro.service.protocol.ProtocolError` — at every process
boundary, where a real :class:`MessageStream` encodes the frame.  Which
of the two a peer gets is decided by the API it calls
(``connect_loopback()`` → link, ``loopback_pair()``/TCP → bytes), never by
a flag.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.service import protocol
from repro.service.protocol import (HEADER_BYTES, FrameDecoder, ProtocolError,
                                    encode_frame)

_READ_CHUNK = 65536


class TransportClosed(ProtocolError):
    """The peer closed (or the pipe broke) mid-conversation."""


class _MemoryPipe:
    """One direction of an in-process byte stream (loopback transport).

    Chunks written on one end come out of ``read`` on the other, through
    an ``asyncio.Queue`` — bytes in, bytes out, no parsing shortcuts.
    """

    def __init__(self) -> None:
        self._chunks: asyncio.Queue = asyncio.Queue()
        self._eof = False
        self._leftover = b""

    # -- writer side -------------------------------------------------------------

    def write(self, data: bytes) -> None:
        if self._eof:
            raise TransportClosed("write on a closed loopback pipe")
        if data:
            self._chunks.put_nowait(bytes(data))

    async def drain(self) -> None:
        return None

    def close(self) -> None:
        if not self._eof:
            self._eof = True
            self._chunks.put_nowait(b"")   # wake any blocked reader

    # -- reader side -------------------------------------------------------------

    async def read(self, n: int = -1) -> bytes:
        """Everything buffered, up to ``n`` bytes — as a socket read
        returns whatever arrived — waiting only while nothing is."""
        if self._leftover:
            data, self._leftover = self._leftover, b""
        else:
            if self._eof and self._chunks.empty():
                return b""
            data = await self._chunks.get()
            if data == b"":
                # EOF sentinel; re-queue it so later reads see EOF too.
                self._eof = True
                self._chunks.put_nowait(b"")
                return b""
        parts = [data]
        size = len(data)
        while (n < 0 or size < n) and not self._chunks.empty():
            chunk = self._chunks.get_nowait()
            if chunk == b"":
                # EOF sentinel (always the last chunk): the next read's.
                self._chunks.put_nowait(b"")
                break
            parts.append(chunk)
            size += len(chunk)
        if len(parts) > 1:
            data = b"".join(parts)
        if 0 <= n < len(data):
            self._leftover = data[n:]
            data = data[:n]
        return data


class MessageStream:
    """Protocol messages over a reader/writer pair."""

    #: A byte stream: a message crosses it as an encoded frame.
    encodes = True

    def __init__(self, reader: Any, writer: Any,
                 max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
                 name: str = "peer"):
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder(max_frame_bytes)
        self._pending: deque = deque()
        self._closed = False
        self.name = name

    # -- sending -----------------------------------------------------------------

    def send_nowait(self, message: Union[Dict[str, Any], bytes]) -> None:
        """Write ``message`` — or a frame ``encode_frame`` already made of
        it — without waiting for the transport to drain: for a caller that
        checked :meth:`has_room`."""
        if self._closed:
            raise TransportClosed(f"send on closed stream to {self.name}")
        limit = self._decoder.max_frame_bytes
        if not isinstance(message, bytes):
            frame = encode_frame(message, limit)
        elif len(message) - HEADER_BYTES > limit:
            raise ProtocolError(
                f"outgoing frame of {len(message) - HEADER_BYTES} bytes "
                f"exceeds the {limit}-byte limit")
        else:
            frame = message
        try:
            self._writer.write(frame)
        except (ConnectionError, RuntimeError, TransportClosed) as err:
            self._closed = True
            raise TransportClosed(f"peer {self.name} went away: {err}")

    async def drain(self) -> None:
        """Wait while the transport is over its high-water mark."""
        try:
            await self._writer.drain()
        except (ConnectionError, RuntimeError, TransportClosed) as err:
            self._closed = True
            raise TransportClosed(f"peer {self.name} went away: {err}")

    async def send(self, message: Dict[str, Any]) -> None:
        self.send_nowait(message)
        await self.drain()

    def has_room(self) -> bool:
        """Whether a write now leaves without waiting: a TCP transport's
        buffer is below its high-water mark; a loopback pipe always has
        room."""
        transport = getattr(self._writer, "transport", None)
        if transport is None:
            return True
        return (not transport.is_closing()
                and transport.get_write_buffer_size()
                < transport.get_write_buffer_limits()[1])

    # -- receiving ---------------------------------------------------------------

    async def _fill(self) -> bool:
        """Read until a message is decoded; ``False`` on a clean EOF.

        Raises :class:`ProtocolError` on corrupt framing (the caller
        should close the connection)."""
        while not self._pending:
            try:
                chunk = await self._reader.read(_READ_CHUNK)
            except ConnectionError:
                return False
            if not chunk:
                return False
            self._pending.extend(self._decoder.feed(chunk))
        return True

    async def receive(self) -> Optional[Dict[str, Any]]:
        """The next message, or ``None`` on a clean EOF."""
        return self._pending.popleft() if await self._fill() else None

    async def receive_many(self) -> List[Dict[str, Any]]:
        """The next message and every one already decoded behind it, in
        order — what one read delivered; ``[]`` on a clean EOF.  Waits
        only while nothing is decoded."""
        if not await self._fill():
            return []
        messages = list(self._pending)
        self._pending.clear()
        return messages

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        try:
            self._writer.close()
        except (ConnectionError, RuntimeError):
            pass

    @property
    def closed(self) -> bool:
        return self._closed


def loopback_pair(max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
                  ) -> Tuple[MessageStream, MessageStream]:
    """Two connected in-process message streams (client end, server end)."""
    client_to_server = _MemoryPipe()
    server_to_client = _MemoryPipe()
    client = _LoopbackStream(reader=server_to_client, writer=client_to_server,
                             max_frame_bytes=max_frame_bytes, name="server")
    server = _LoopbackStream(reader=client_to_server, writer=server_to_client,
                             max_frame_bytes=max_frame_bytes, name="client")
    return client, server


class _LoopbackStream(MessageStream):
    """A MessageStream whose close() also EOFs its own reader, so a
    handler blocked in receive() wakes when *either* side hangs up."""

    def close(self) -> None:
        super().close()
        try:
            self._reader.close()
        except AttributeError:
            pass


class _MessagePipe:
    """One direction of an in-process link: :class:`_MemoryPipe`'s
    lifecycle (buffered messages still drain after ``close``, then a
    sticky EOF), carrying message objects instead of byte chunks."""

    def __init__(self) -> None:
        self._messages: asyncio.Queue = asyncio.Queue()
        self._eof = False

    def put(self, message: Dict[str, Any]) -> None:
        if self._eof:
            raise TransportClosed("send on a closed in-process link")
        self._messages.put_nowait(message)

    def close(self) -> None:
        if not self._eof:
            self._eof = True
            self._messages.put_nowait(None)    # wake any blocked receiver

    async def get(self) -> Optional[Dict[str, Any]]:
        message = await self._messages.get()
        if message is None:
            # EOF sentinel; re-queue it so later receives see EOF too.
            self._messages.put_nowait(None)
        return message

    async def get_many(self) -> List[Dict[str, Any]]:
        """The next message and every one queued behind it; ``[]`` at EOF."""
        message = await self.get()
        if message is None:
            return []
        messages = [message]
        queue = self._messages
        while not queue.empty():
            message = queue.get_nowait()
            if message is None:
                queue.put_nowait(None)      # the next call's EOF
                break
            messages.append(message)
        return messages


class InprocessLink:
    """One end of an in-process message link — :class:`MessageStream`'s
    surface (``send``/``send_nowait``/``drain``/``has_room``/``receive``/
    ``receive_many``/``close``/``closed``/``name``) with no bytes
    underneath.

    ``send`` hands the peer *the message object itself*, so **a received
    message is read-only**: the sender may hand the same dict to several
    peers (the router routes one REFRESH frame to every shard that reads
    all of its items) and may keep reading it afterwards.  A handler that
    needs to change a message copies it first (``dict(message)``), exactly
    as it would before forwarding it on a byte stream.
    """

    #: A link: a message crosses it as the dict itself.
    encodes = False

    def __init__(self, inbox: _MessagePipe, outbox: _MessagePipe, name: str):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False
        self.name = name

    def send_nowait(self, message: Dict[str, Any]) -> None:
        if self._closed:
            raise TransportClosed(f"send on closed stream to {self.name}")
        try:
            self._outbox.put(message)
        except TransportClosed as err:
            self._closed = True
            raise TransportClosed(f"peer {self.name} went away: {err}")

    async def drain(self) -> None:
        """Nothing to wait for: the peer's inbox is unbounded."""

    async def send(self, message: Dict[str, Any]) -> None:
        self.send_nowait(message)

    def has_room(self) -> bool:
        """Always: the peer's inbox is unbounded."""
        return True

    async def receive(self) -> Optional[Dict[str, Any]]:
        """The next message, or ``None`` once either end has closed and
        everything sent before that has been received."""
        return await self._inbox.get()

    async def receive_many(self) -> List[Dict[str, Any]]:
        """The next message and every one already queued behind it, in
        order; ``[]`` where :meth:`receive` would return ``None``."""
        return await self._inbox.get_many()

    def close(self) -> None:
        """Hang up both directions: the peer's blocked ``receive()`` wakes
        with ``None`` and so does our own (as on the loopback stream)."""
        self._closed = True
        self._outbox.close()
        self._inbox.close()

    @property
    def closed(self) -> bool:
        return self._closed


def inprocess_pair() -> Tuple[InprocessLink, InprocessLink]:
    """Two connected in-process link ends (client end, server end)."""
    client_to_server = _MessagePipe()
    server_to_client = _MessagePipe()
    return (InprocessLink(server_to_client, client_to_server, name="server"),
            InprocessLink(client_to_server, server_to_client, name="client"))


async def open_tcp_stream(host: str, port: int,
                          max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
                          ) -> MessageStream:
    """Connect to a live coordinator over TCP."""
    reader, writer = await asyncio.open_connection(host, port)
    return MessageStream(reader, writer, max_frame_bytes,
                         name=f"{host}:{port}")
