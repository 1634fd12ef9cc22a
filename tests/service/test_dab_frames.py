"""The DAB_UPDATE frames a server and a 2-shard router send, pinned.

A scripted run — every source registers, then 24 reads of every item at
values swinging up to ±12 % (windows break, plans change, bounds move),
with source 0 registering again halfway — is recorded frame by frame at
each source's stream: source, bounds, epochs and seq floors in send
order, and probes.  ``dab_frames.json`` was first recorded on the tree
whose DAB senders each carried their own min-merge diff (commit
88d7d15), which the shared sender table sent frame for frame.  It was
re-recorded when the coordinator began planning each query at μ/2 until
its window is first left (DESIGN.md §4): every bound moved, the server's
streams kept their frame counts (9, 17, 17, 9), the cluster's first
stream of source 0 went 14 → 17 frames, and a reply's seq floors are
sent in sorted item order.

To re-record, run this module's :func:`record` under the tree to pin::

    PYTHONPATH=src python -c "import json, tests.service.test_dab_frames \\
        as t; print(json.dumps(t.record()))"
"""

import asyncio
import json
import os
import pathlib
import subprocess
import sys

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
    return [message["source_id"], list(message["bounds"].items()),
            list(message["epochs"].items()),
            list((message.get("seqs") or {}).items()), message.get("probe")]


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


def registration_replies():
    """The DAB_UPDATE replies to a source registering twice — after the
    server accepted refreshes of its items, so the second reply carries
    seq floors — as ``[bounds, epochs, seqs]`` item lists, in order."""

    async def script():
        server, scenario, item_to_source = build_scenario_server(**SCENARIO)
        items = sorted(name for name, owner in item_to_source.items()
                       if owner == 0)
        initial = scenario.traces.initial_values()
        replies = []
        for seq in (1, 2):
            stream = server.connect_loopback()
            await stream.send(protocol.register_source(0, items))
            message = await stream.receive()
            replies.append(_frame(message)[1:4])
            await stream.send(protocol.refresh(
                0, items, [initial[name] for name in items],
                [seq] * len(items)))
            for _ in range(20):
                await asyncio.sleep(0)
        await server.close()
        return replies

    return asyncio.run(script())


def test_a_registration_reply_is_the_same_under_any_hash_seed():
    """A reply's ``seqs`` are built item by item in sorted order, not in a
    set's string-hash order: three interpreters seeded apart send the
    same messages, keys in the same order.  (In-process peers see the
    dict as built; over TCP orjson sorts it anyway.)"""
    root = pathlib.Path(__file__).resolve().parents[2]
    code = ("import json, tests.service.test_dab_frames as t; "
            "print(json.dumps(t.registration_replies()))")
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(root / "src"), str(root)]))
        outputs.append(subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, check=True,
            capture_output=True, text=True).stdout)
    replies = json.loads(outputs[0])
    assert len(replies[1][2]) > 1                  # floors to order
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
