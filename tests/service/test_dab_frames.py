"""The DAB_UPDATE frames a server and a 2-shard router send, pinned.

A scripted run — every source registers, then 24 reads of every item at
values swinging up to ±12 % (windows break, plans change, bounds move),
with source 0 registering again halfway — is recorded frame by frame at
each source's stream: source, bounds and epochs in send order, seq
floors and probes.  ``dab_frames.json`` holds what the tree whose DAB
senders each carried their own min-merge diff (commit 88d7d15) sent for
the same script; the shared sender table must send the same frames.

To re-record, run this module's :func:`record` under the tree to pin::

    PYTHONPATH=src python -c "import json, tests.service.test_dab_frames \\
        as t; print(json.dumps(t.record()))"
"""

import asyncio
import json
import pathlib

from repro.service import protocol
from repro.service.cluster.router import build_scenario_cluster
from repro.service.protocol import MessageType
from repro.service.server import build_scenario_server

SCENARIO = dict(query_count=6, item_count=16, source_count=3,
                trace_length=5, seed=3)
TICKS = 24


def _swing(tick, index):
    return 1.0 + 0.03 * ((tick * 7 + index * 3) % 9 - 4)


def _frame(message):
    # (A registration reply's seq floors come from a set: no order.)
    return [message["source_id"], list(message["bounds"].items()),
            list(message["epochs"].items()),
            sorted((message.get("seqs") or {}).items()), message.get("probe")]


async def _script(node, scenario, item_to_source):
    initial = scenario.traces.initial_values()
    owned = {source_id: sorted(name for name, owner in item_to_source.items()
                               if owner == source_id)
             for source_id in sorted(set(item_to_source.values()))}
    streams = []

    async def register(source_id):
        stream = node.connect_loopback()
        await stream.send(protocol.register_source(source_id,
                                                   owned[source_id]))
        streams.append((source_id, stream))
        return stream

    live = {source_id: await register(source_id) for source_id in owned}
    for tick in range(1, TICKS + 1):
        if tick == TICKS // 2:
            live[0] = await register(0)
        for source_id, items in owned.items():
            await live[source_id].send(protocol.refresh(
                source_id, items,
                [initial[name] * _swing(tick, index)
                 for index, name in enumerate(items)],
                [tick] * len(items)))
        for _ in range(50):
            await asyncio.sleep(0)
    await node.close()
    frames = []
    for source_id, stream in streams:
        received = []
        while (message := await stream.receive()) is not None:
            if message["type"] == MessageType.DAB_UPDATE.value:
                received.append(_frame(message))
        frames.append([source_id, received])
    return frames


def record():
    """``{"server": frames, "cluster": frames}`` of one scripted run each."""

    async def server_run():
        server, scenario, item_to_source = build_scenario_server(**SCENARIO)
        return await _script(server, scenario, item_to_source)

    async def cluster_run():
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, **SCENARIO)
        await cluster.start()
        return await _script(cluster, scenario, item_to_source)

    return {"server": asyncio.run(server_run()),
            "cluster": asyncio.run(cluster_run())}


def test_server_and_router_send_the_pinned_dab_frames():
    want = json.loads((pathlib.Path(__file__).parent
                       / "dab_frames.json").read_text())
    got = json.loads(json.dumps(record()))      # tuples as lists
    for node in ("server", "cluster"):
        # The script moves bounds after registration, on every stream.
        assert all(len(frames) > 1 for _, frames in got[node][:-1])
        assert got[node] == want[node], node
