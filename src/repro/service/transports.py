"""Byte-stream plumbing under the wire protocol.

:class:`MessageStream` frames/deframes protocol messages over any pair of
reader/writer objects with the tiny surface below — satisfied both by
asyncio's ``StreamReader``/``StreamWriter`` (real TCP) and by
:class:`_MemoryPipe` (the in-process loopback transport the test suite and
the in-process loadgen run on, no sockets involved):

* reader: ``async read(n) -> bytes`` (``b""`` at EOF)
* writer: ``write(data)``, ``async drain()``, ``close()``

The loopback pipe is a real transport in every sense that matters to the
protocol code — messages are *serialized to bytes* and re-parsed through
the same :class:`~repro.service.protocol.FrameDecoder` as TCP traffic, so
framing bugs cannot hide behind an object-passing shortcut.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Dict, Optional, Tuple

from repro.service import protocol
from repro.service.protocol import FrameDecoder, ProtocolError, encode_frame

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
        if 0 <= n < len(data):
            self._leftover = data[n:]
            data = data[:n]
        return data


class MessageStream:
    """Protocol messages over a reader/writer pair."""

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

    async def send(self, message: Dict[str, Any]) -> None:
        if self._closed:
            raise TransportClosed(f"send on closed stream to {self.name}")
        frame = encode_frame(message, self._decoder.max_frame_bytes)
        try:
            self._writer.write(frame)
            await self._writer.drain()
        except (ConnectionError, RuntimeError, TransportClosed) as err:
            self._closed = True
            raise TransportClosed(f"peer {self.name} went away: {err}")

    # -- receiving ---------------------------------------------------------------

    async def receive(self) -> Optional[Dict[str, Any]]:
        """The next message, or ``None`` on a clean EOF.

        Raises :class:`ProtocolError` on corrupt framing (the caller
        should close the connection)."""
        while not self._pending:
            try:
                chunk = await self._reader.read(_READ_CHUNK)
            except ConnectionError:
                return None
            if not chunk:
                return None
            self._pending.extend(self._decoder.feed(chunk))
        return self._pending.popleft()

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


async def open_tcp_stream(host: str, port: int,
                          max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
                          ) -> MessageStream:
    """Connect to a live coordinator over TCP."""
    reader, writer = await asyncio.open_connection(host, port)
    return MessageStream(reader, writer, max_frame_bytes,
                         name=f"{host}:{port}")
