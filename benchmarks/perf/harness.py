"""Two processes, two threads: the server child and the generator parent.

The system under test (a ``CoordinatorServer``, or a ``ClusterCoordinator``
fronted by a broker tier) runs in a **spawned child** and serves over
localhost TCP.  Everything that produces or consumes traffic — the
``SourceAgent``\\ s, the subscribers, the prober, the churn client, the
auditor — is this single-threaded parent.  In one shared event loop the
generator runs seconds late behind blocking GP solves, so in-process
loopback is not acceptable for end-to-end numbers.

The parent talks to the child on two channels: the wire protocol over
TCP (all measured traffic, and the in-band SNAPSHOT barrier), and a
control pipe (``mark`` = CPU/RSS/stats reading at a phase boundary,
``trace`` on/off, ``stop``).  Every wait on the child is bounded by a
timeout and the child is killed on any parent exception; the child in
turn exits as soon as the pipe closes, so neither side can be orphaned.

The child is a plain ``subprocess`` running this module, with the pipe's
descriptor passed down — not a ``multiprocessing.Process``: the ``spawn``
start method brings a ``resource_tracker`` helper process that outlives
the command by a moment, and a benchmark must leave nothing behind.

Both processes also time ``calibrate.unit`` every 50 ms for as long as they
are being measured (a thread during the child's blocking set-up, a task on
the event loop afterwards); the samples travel with the readings, and
``report`` divides every timing by how slow the machine was meanwhile.
"""

from __future__ import annotations

import asyncio
import ctypes
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
from multiprocessing.connection import Connection, Pipe
from pathlib import Path
from time import perf_counter, thread_time
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from . import calibrate
from . import trace as tracing
from .workloads import (
    PROBE_NAMES,
    TrafficPlan,
    UpdateStream,
    Workload,
    build_scenario,
    churn_definitions,
    traffic_plan,
)

HOST = "127.0.0.1"
#: The checkout: where ``python -m benchmarks.perf.harness`` resolves.
ROOT = Path(__file__).resolve().parents[2]
#: Spawn → scenario build → every query planned → endpoint accepting.
SETUP_TIMEOUT = 60.0
#: Everything between connecting and closing the generator (≈ 16 s when
#: nothing is wrong; two attempts must fit the driver's 180 s per run).
DRIVE_TIMEOUT = 45.0
#: One control-pipe round trip (a ``mark`` may queue behind a GP solve).
CONTROL_TIMEOUT = 30.0
#: QUERY_SUB → SNAPSHOT, and one in-band SNAPSHOT poll.
REPLY_TIMEOUT = 20.0
#: All sent refreshes processed and all notifies delivered.
QUIESCE_TIMEOUT = 60.0
#: Refreshes the closed loop sends before it waits for all of them.
IN_FLIGHT_LIMIT = 256
#: Pause between two in-band SNAPSHOT polls of a barrier.
BARRIER_POLL_SECONDS = 0.002
#: No frame for this long after the barrier means delivery has drained.
QUIET_SECONDS = 0.05
#: Probes per second (subscribe latency to existing queries).
PROBE_RATE = 20.0
#: Discarded open-loop run-in: the seed's first tick jumps every item to
#: the stream's starting phase, and filters and caches settle after it.
WARMUP_SECONDS = 1.0
BROKERS = 2
#: Environment of both processes.  ``nproc`` is 2 and the generator needs
#: the second core, so native thread pools (OpenBLAS/OpenMP under numpy and
#: scipy) are held to one thread: left alone, the server's 13-variable GP
#: solves spin a second BLAS thread that doubles its CPU time, slows its
#: wall time and steals the generator's core.  A fixed hash seed makes set
#: and dict layouts, and so run-to-run timings, repeat.
PROCESS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


async def _calibrate_forever(samples: List[Tuple[float, float]]) -> None:
    """Time the calibration unit every few tens of milliseconds, in the
    process and on the CPU whose work is being timed (see ``calibrate``)."""
    while True:
        await asyncio.sleep(calibrate.INTERVAL_SECONDS)
        samples.append(calibrate.unit())


class _SetupCalibrator(threading.Thread):
    """The same for a set-up, which blocks the child's only thread for
    seconds: a second thread, timed by its own CPU clock so that waiting
    for the interpreter lock does not count."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: List[Tuple[float, float]] = []
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(calibrate.INTERVAL_SECONDS):
            self.samples.append(calibrate.unit(thread_time))

    def finish(self) -> List[Tuple[float, float]]:
        self._done.set()
        self.join()
        return self.samples


class BenchmarkError(RuntimeError):
    """The run cannot produce honest numbers (child died, timed out, …)."""


#: The CPUs this process may use, read before anything is pinned (a
#: spawned child inherits its parent's narrowed mask, so the parent hands
#: the child its CPU explicitly).
_CPUS = (sorted(os.sched_getaffinity(0))
         if hasattr(os, "sched_getaffinity") else [])


def _cpu_for(rank: int) -> Optional[int]:
    """The CPU for the generator (rank 0) or the server (rank 1) when
    there are at least two, else ``None``: a process that migrates between
    cores mid-phase pays for cold caches at random moments."""
    return _CPUS[rank] if len(_CPUS) >= 2 else None


# ---------------------------------------------------------------------------
# child process: the system under test
# ---------------------------------------------------------------------------

def _reading() -> Dict[str, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"t": perf_counter(), "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": float(usage.ru_maxrss)}


def child_main(conn: Any, shape: Dict[str, Any], traced: bool,
               cpu: Optional[int]) -> None:
    """Build the workload's system from shape arguments only, serve it on
    an ephemeral port, and obey the control pipe until told to stop."""
    if sys.platform == "linux":
        # PR_SET_PDEATHSIG: die with the parent even mid-build, when nobody
        # is reading the pipe yet to see it close.
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    calibrator = _SetupCalibrator()
    calibrator.start()
    recorder = tracing.Recorder()
    undo = tracing.install(recorder) if traced else []
    clustered = bool(shape.get("shards"))
    if clustered:
        from repro.service.cluster.router import build_scenario_cluster
        system, _, _ = build_scenario_cluster(**shape)
        servers = list(system.shards.values())
    else:
        from repro.service.server import build_scenario_server
        system, _, _ = build_scenario_server(**shape)
        servers = [system]
    planners = [server.core.planner for server in servers]
    if traced:
        # Again, now that the planner instances exist to be wrapped.
        tracing.uninstall(undo)
        undo = tracing.install(recorder, planners)
    try:
        asyncio.run(_serve(conn, system, clustered, servers, planners,
                           recorder, undo, calibrator))
    finally:
        conn.close()


async def _serve(conn: Any, system: Any, clustered: bool,
                 servers: List[Any], planners: List[Any],
                 recorder: "tracing.Recorder", undo: List[Any],
                 calibrator: _SetupCalibrator) -> None:
    from repro.service.transports import MessageStream

    loop = asyncio.get_running_loop()
    _, port = await system.serve_tcp(HOST, 0)
    tier = None
    front = None
    subscriber_port = port
    if clustered:
        from repro.service.cluster.broker import BrokerTier

        tier = BrokerTier(system.connect_loopback, brokers=BROKERS)
        await tier.start()
        accepted = [0]

        async def accept(reader: Any, writer: Any) -> None:
            broker = tier.brokers[accepted[0] % len(tier.brokers)]
            accepted[0] += 1
            await broker.handle_connection(MessageStream(
                reader, writer, name=str(writer.get_extra_info("peername"))))

        front = await asyncio.start_server(accept, HOST, 0)
        subscriber_port = front.sockets[0].getsockname()[1]

    calibration: List[Tuple[float, float]] = []

    def mark() -> Dict[str, Any]:
        """A reading, with the calibration samples since the previous one."""
        reading: Dict[str, Any] = _reading()
        reading["stats"] = system.server_stats()
        reading["brokers"] = tier.stats() if tier is not None else None
        reading["calibration"] = calibration[:]
        del calibration[:]
        return reading

    stopping = asyncio.Event()

    def on_command() -> None:
        try:
            command, argument = conn.recv()
        except (EOFError, OSError):
            stopping.set()          # parent is gone: do not outlive it
            return
        if command == "mark":
            conn.send(mark())
        elif command == "trace":
            tracing.uninstall(undo)
            if argument:
                undo.extend(tracing.install(recorder, planners))
            conn.send(_reading())
        elif command == "stop":
            stopping.set()

    conn.send({"port": port, "subscriber_port": subscriber_port,
               "recompute_cost": float(servers[0].metrics.recompute_cost),
               "calibration": calibrator.finish(), **_reading()})
    loop.add_reader(conn.fileno(), on_command)
    sampler = asyncio.ensure_future(_calibrate_forever(calibration))
    try:
        await stopping.wait()
    finally:
        loop.remove_reader(conn.fileno())
        sampler.cancel()
    final = mark()
    if front is not None:
        front.close()
        await front.wait_closed()
    if tier is not None:
        await tier.close()
    await system.close()
    tracing.uninstall(undo)
    final["spans"] = recorder.export()
    try:
        conn.send(final)
    except (BrokenPipeError, OSError):
        pass


class Child:
    """Parent-side handle on the spawned server: start, ask, stop, kill."""

    def __init__(self, workload: Workload, traced: bool = False,
                 cpu: Optional[int] = _cpu_for(1)):
        self.conn, self._child_conn = Pipe()
        self._arguments = json.dumps(
            {"shape": workload.shape(), "traced": traced, "cpu": cpu})
        self.process: Optional[subprocess.Popen] = None
        self._started = 0.0
        self.ready: Dict[str, Any] = {}
        self.setup_s = 0.0
        self.setup_calibration: List[Tuple[float, float]] = []

    def start(self) -> None:
        fd = self._child_conn.fileno()
        self._started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", f"{__package__}.harness", str(fd),
             self._arguments],
            pass_fds=[fd], cwd=ROOT, env={**os.environ, **PROCESS_ENV},
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        self._child_conn.close()

    def wait_ready(self) -> None:
        """Block until the child accepts connections.  Its ready message
        carries the child's own clock reading, so ``setup_s`` does not
        depend on when the parent got round to waiting for it."""
        self.ready = self._receive(SETUP_TIMEOUT, "setup")
        self.setup_calibration = self.ready.pop("calibration")
        self.setup_s = (self.ready["t"] - self._started
                        - calibrate.own_seconds(self.setup_calibration))

    def setup_sample(self) -> Dict[str, Any]:
        return {"seconds": self.setup_s,
                "calibration": self.setup_calibration}

    def __enter__(self) -> "Child":
        try:
            self.start()
            self.wait_ready()
        except BaseException:
            self.kill()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.kill()

    def _receive(self, timeout: float, what: str) -> Dict[str, Any]:
        try:
            if not self.conn.poll(timeout):
                raise BenchmarkError(f"server child: no {what} reply "
                                     f"within {timeout:.0f}s")
            return self.conn.recv()
        except (EOFError, OSError) as error:
            raise BenchmarkError(f"server child died during {what}: "
                                 f"exit code {self.process.poll()}") from error

    def ask(self, command: str, argument: Any = None) -> Dict[str, Any]:
        self.conn.send((command, argument))
        return self._receive(CONTROL_TIMEOUT, command)

    def stop(self) -> Dict[str, Any]:
        """Graceful teardown; returns the final reading (with spans)."""
        self.conn.send(("stop", None))
        final = self._receive(CONTROL_TIMEOUT, "stop")
        try:
            self.process.wait(CONTROL_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass                    # every caller goes on to kill()
        return final

    def kill(self) -> None:
        """Make sure the child has ended, and reap it."""
        if self.process is not None:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
        self._child_conn.close()
        self.conn.close()


def measure_setups(workload: Workload, count: int) -> List[Dict[str, Any]]:
    """``count`` more spawn → build → plan → accept samples, from set-up-only
    children started side by side, one per CPU, and stopped as soon as
    they accept.  (One after the other they would cost most of a run's
    time budget; the generator is idle here, so its core is free.)"""
    children = [Child(workload, cpu=_cpu_for(index % 2))
                for index in range(count)]
    try:
        for child in children:
            child.start()
        for child in children:
            child.wait_ready()
        for child in children:
            child.stop()
    finally:
        for child in children:
            child.kill()
    return [child.setup_sample() for child in children]


# ---------------------------------------------------------------------------
# parent process: the generator
# ---------------------------------------------------------------------------

class _WatchedStream:
    """A ``MessageStream`` stand-in that says when the server hung up.

    ``ServiceClient`` ends its listener silently on EOF; a real client
    notices and reconnects, so the subscriber needs the signal."""

    def __init__(self, stream: Any, hung_up: asyncio.Event):
        self._stream = stream
        self._hung_up = hung_up

    async def send(self, message: Dict[str, Any]) -> None:
        await self._stream.send(message)

    async def receive(self) -> Optional[Dict[str, Any]]:
        try:
            message = await self._stream.receive()
        except Exception:
            self._hung_up.set()
            raise
        if message is None:
            self._hung_up.set()
        return message

    def close(self) -> None:
        self._stream.close()


class Subscriber:
    """A long-lived client on a fixed slice of query names that
    reconnects and resubscribes when the server evicts it."""

    def __init__(self, port: int, names: Sequence[str]):
        self.port = port
        self.names = list(names)
        self.client: Any = None
        self.evictions = 0
        self._latencies: List[float] = []
        self._notifies = 0
        self._subscribed = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        #: ``ServiceClient.close`` swallows a cancellation that lands while
        #: it waits for its listener, so ``cancel()`` alone cannot be
        #: trusted to end a loop that closes clients (it lost one run in
        #: forty to the drive's deadline); the loops check this too.
        self._closing = False

    async def start(self) -> None:
        self._task = asyncio.ensure_future(self._run())
        await asyncio.wait_for(self._subscribed.wait(), REPLY_TIMEOUT)

    async def _run(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.transports import open_tcp_stream

        while not self._closing:
            hung_up = asyncio.Event()
            stream = _WatchedStream(await open_tcp_stream(HOST, self.port),
                                    hung_up)
            client = ServiceClient(stream, clock=perf_counter)
            await asyncio.wait_for(client.subscribe(self.names), REPLY_TIMEOUT)
            self.client = client
            self._subscribed.set()
            await hung_up.wait()
            self.evictions += 1
            self._retire(client)
            await client.close()

    def _retire(self, client: Any) -> None:
        self._latencies.extend(client.latencies)
        self._notifies += client.notifies_received
        del client.latencies[:]
        client.notifies_received = 0

    @property
    def notifies(self) -> int:
        return self._notifies + (self.client.notifies_received
                                 if self.client is not None else 0)

    def take_latencies(self) -> List[float]:
        """Latency samples (seconds) since the last call."""
        if self.client is not None:
            self._latencies.extend(self.client.latencies)
            del self.client.latencies[:]
        taken, self._latencies = self._latencies, []
        return taken

    async def close(self) -> None:
        self._closing = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        if self.client is not None:
            await self.client.close()


class Generator:
    """All traffic of one run, on one event loop."""

    def __init__(self, workload: Workload, scenario: Any,
                 item_to_source: Mapping[str, int], plan: TrafficPlan,
                 port: int, subscriber_port: int):
        self.workload = workload
        self.scenario = scenario
        self.plan = plan
        self.port = port
        self.subscriber_port = subscriber_port
        self.clustered = bool(workload.shards)
        self.stream = UpdateStream(workload, scenario, item_to_source,
                                   plan.phase)
        self.item_to_source = dict(item_to_source)
        self.queries = {query.name: query for query in scenario.queries}
        self.agents: Dict[int, Any] = {}
        self.subscribers: List[Subscriber] = []
        self.auditor: Any = None
        #: Due time of the tick being sent; stamped on every refresh.
        self.due = 0.0
        self.next_tick = 0
        self.item_updates = 0
        self.refreshes_sent = 0
        self.processed = 0
        #: ``(started_at, seconds)`` per QUERY_SUB → SNAPSHOT round trip.
        self.subscribe_samples: List[Tuple[float, float]] = []
        self.operations_attempted = 0
        self.operations_failed = 0
        #: What the run is doing, for the error message if it stalls.
        self.stage = "connecting"
        #: Calibration samples of this process, all through the drive.
        self.calibration: List[Tuple[float, float]] = []
        self._background: List[asyncio.Task] = []
        self._closing = False       # see Subscriber._closing

    # -- connections ---------------------------------------------------------

    async def connect(self) -> None:
        from repro.service.agent import agents_for_scenario
        from repro.service.client import ServiceClient
        from repro.service.transports import open_tcp_stream

        self.agents = agents_for_scenario(self.scenario, self.item_to_source,
                                          timestamp_refreshes=True)
        for agent in self.agents.values():
            agent.clock = lambda: self.due
            await agent.connect(await open_tcp_stream(HOST, self.port))
        for names in self.plan.subscriptions:
            subscriber = Subscriber(self.subscriber_port, names)
            await subscriber.start()
            self.subscribers.append(subscriber)
        # One query, never "*": the auditor must not become the slow
        # consumer whose eviction it is there to count.
        self.auditor = ServiceClient(
            await open_tcp_stream(HOST, self.port), clock=perf_counter)
        await asyncio.wait_for(
            self.auditor.subscribe(sorted(self.queries)[:1]), REPLY_TIMEOUT)

    def start_background(self) -> None:
        self._background.append(
            asyncio.ensure_future(_calibrate_forever(self.calibration)))
        if self.workload.churn_rate:
            self._background.append(asyncio.ensure_future(self._churn()))
        else:
            self._background.append(asyncio.ensure_future(self._probe()))

    async def close(self) -> None:
        self._closing = True
        for task in self._background:
            task.cancel()
        await asyncio.gather(*self._background, return_exceptions=True)
        if self.auditor is not None:
            await self.auditor.close()
        for subscriber in self.subscribers:
            await subscriber.close()
        for agent in self.agents.values():
            await agent.close()

    # -- subscribe-latency clients --------------------------------------------

    async def _timed_subscribe(self, names: Sequence[str],
                               definitions: Optional[List[Any]],
                               hold: float) -> None:
        from repro.exceptions import ReproError
        from repro.service.client import ServiceClient
        from repro.service.transports import open_tcp_stream

        self.operations_attempted += 1
        client = ServiceClient(await open_tcp_stream(HOST, self.port),
                               clock=perf_counter)
        try:
            started = perf_counter()
            await asyncio.wait_for(
                client.subscribe(list(names), definitions), REPLY_TIMEOUT)
            self.subscribe_samples.append((started, perf_counter() - started))
            if hold:
                await asyncio.sleep(hold)
        except (ReproError, asyncio.TimeoutError, OSError):
            self.operations_failed += 1
        finally:
            await client.close()

    async def _probe(self) -> None:
        """``PROBE_RATE`` times a second: connect, subscribe to a few
        existing queries, time the SNAPSHOT, leave."""
        rng = random.Random(self.plan.probe_seed)
        names = sorted(self.queries)
        while not self._closing:
            await self._timed_subscribe(rng.sample(names, PROBE_NAMES),
                                        None, hold=0.0)
            # Jittered, or every probe of a run would land at the same
            # offset into the (equally periodic) tick schedule.
            await asyncio.sleep(rng.uniform(0.5, 1.5) / PROBE_RATE)

    async def _churn(self) -> None:
        """``churn_rate`` times a second: register one new query
        definition, hold it, drop it (the server then removes it)."""
        workload = self.workload
        pool = churn_definitions(self.scenario, self.item_to_source)
        holders: List[asyncio.Task] = []
        try:
            for count in itertools.count(self.plan.churn_start):
                definition = pool[count % len(pool)]
                definition = definition.with_qab(definition.qab,
                                                 name=f"dyn{count}")
                holders.append(asyncio.ensure_future(self._timed_subscribe(
                    [], [definition], hold=workload.churn_hold)))
                await asyncio.sleep(1.0 / workload.churn_rate)
                holders = [task for task in holders if not task.done()]
        finally:
            for task in holders:
                task.cancel()
            await asyncio.gather(*holders, return_exceptions=True)

    # -- ticking -------------------------------------------------------------

    async def tick(self) -> None:
        """Send the next tick of the stream through every agent."""
        for source_id, updates in self.stream.updates(self.next_tick):
            self.refreshes_sent += await self.agents[source_id].tick(updates)
            self.item_updates += len(updates)
        self.next_tick += 1

    async def open_loop(self, ticks: int,
                        on_second: Optional[Callable[[], None]] = None
                        ) -> Dict[str, Any]:
        """``ticks`` ticks at the workload's fixed rate, each stamped with
        the time it was *due* (a stall delays later ticks, and that wait
        counts).  ``on_second`` is called after each second's worth of
        ticks.  Returns the window's start and how late each tick started."""
        rate = self.workload.tick_rate
        interval = 1.0 / rate
        started = perf_counter() + interval
        late: List[float] = []
        for index in range(ticks):
            self.due = started + index * interval
            wait = self.due - perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            late.append(perf_counter() - self.due)
            await self.tick()
            if on_second is not None and (index + 1) % rate == 0:
                on_second()
        return {"start": started, "late": late}

    async def closed_loop(self, seconds: float) -> Dict[str, float]:
        """Whole sweeps of ticks back to back for at least ``seconds``.

        The sender waits for the system: once :data:`IN_FLIGHT_LIMIT`
        refreshes are out, it sends nothing more until the server's
        SNAPSHOT stats say every one of them has been processed.  Returns
        the item-updates sent and how long sending them took."""
        updates, started = self.item_updates, perf_counter()
        while perf_counter() - started < seconds:
            for _ in range(self.stream.cycle_ticks):
                self.due = perf_counter()
                await self.tick()
                # One turn of the loop: agents apply DAB_UPDATEs and
                # subscribers read NOTIFYs between ticks, as they would
                # in their own processes.
                await asyncio.sleep(0)
                if self.refreshes_sent - self.processed >= IN_FLIGHT_LIMIT:
                    await self.barrier(0)
        return {"item_updates": self.item_updates - updates,
                "seconds": perf_counter() - started}

    # -- barrier, quiescence, audit --------------------------------------------

    async def poll_stats(self) -> Dict[str, Any]:
        await asyncio.wait_for(self.auditor.request_snapshot(), REPLY_TIMEOUT)
        return self.auditor.stats_seen

    def _processed(self, stats: Mapping[str, Any]) -> int:
        """Refreshes of ours the server has fully handled.  A router has
        handled one when every shard copy it routed has been counted."""
        if not self.clustered:
            return int(stats["refreshes"])
        at_shards = max(0, int(stats["refreshes_routed"])
                        - int(stats["refreshes"]))
        return int(stats["refreshes_accepted"]) - at_shards

    async def barrier(self, in_flight: int) -> None:
        deadline = perf_counter() + QUIESCE_TIMEOUT
        while True:
            self.processed = self._processed(await self.poll_stats())
            if self.refreshes_sent - self.processed <= in_flight:
                return
            if perf_counter() > deadline:
                raise BenchmarkError(
                    f"server processed {self.processed} of "
                    f"{self.refreshes_sent} refreshes in {QUIESCE_TIMEOUT}s")
            # A poll costs the server a full SNAPSHOT (on a cluster, one
            # per shard): hammering it would bill the server for the
            # measuring, and differently every run.
            await asyncio.sleep(BARRIER_POLL_SECONDS)

    def _activity(self) -> int:
        return (sum(subscriber.notifies for subscriber in self.subscribers)
                + sum(agent.stats["dab_updates_applied"]
                      for agent in self.agents.values()))

    async def quiesce(self) -> None:
        """Wait until the server has processed every refresh sent and
        nothing more arrives."""
        await self.barrier(0)
        seen, last_change = self._activity(), perf_counter()
        while perf_counter() - last_change < QUIET_SECONDS:
            await asyncio.sleep(0.005)
            now = self._activity()
            if now != seen:
                seen, last_change = now, perf_counter()

    async def settle(self) -> None:
        """Repeat the last tick until no agent has anything to send.

        A DAB_UPDATE that narrows a bound takes effect at the source's
        next tick; the stream has stopped, so give it that tick before
        auditing the guarantee the bounds are there to keep."""
        for _ in range(8):
            before = self.refreshes_sent
            self.next_tick -= 1
            updates_before = self.item_updates
            await self.tick()
            self.item_updates = updates_before
            await self.quiesce()
            if self.refreshes_sent == before:
                return
        raise BenchmarkError("sources still refreshing after 8 settle ticks")

    async def audit(self) -> Tuple[int, List[Dict[str, Any]]]:
        """``(pairs, violations)`` after quiescence.

        *Fresh* pairs: every query's value in an authoritative SNAPSHOT
        against the query evaluated on the sources' current values, at
        the QAB (the paper's Condition 1).  *Pushed* pairs: every
        (subscriber, query) value as built from the NOTIFY stream, at
        twice the QAB — the server pushes only once a value has moved by
        more than the QAB, on top of Condition 1."""
        truth: Dict[str, float] = {}
        for agent in self.agents.values():
            truth.update(agent.values)
        expected = {name: query.evaluate(truth)
                    for name, query in self.queries.items()}
        fresh = await asyncio.wait_for(self.auditor.request_snapshot(),
                                       REPLY_TIMEOUT)
        views = [("snapshot", fresh, sorted(self.queries), 1.0)]
        views += [(f"subscriber{index}", subscriber.client.values,
                   subscriber.names, 2.0)
                  for index, subscriber in enumerate(self.subscribers)]
        pairs = 0
        violations: List[Dict[str, Any]] = []
        for who, values, names, slack in views:
            for name in names:
                pairs += 1
                qab = self.queries[name].qab
                error = abs(values.get(name, float("inf")) - expected[name])
                if error > slack * qab * (1.0 + 1e-9) + 1e-12:
                    violations.append({"who": who, "query": name,
                                       "error": error, "bound": slack * qab})
        return pairs, violations


def prepare(workload: Workload, seed: int) -> Tuple[Any, Dict[str, int],
                                                     TrafficPlan]:
    scenario, item_to_source = build_scenario(workload)
    plan = traffic_plan(workload, [q.name for q in scenario.queries], seed)
    return scenario, item_to_source, plan


# ---------------------------------------------------------------------------
# one run: phases and raw measurements
# ---------------------------------------------------------------------------

def _whole_sweeps(workload: Workload, seconds: float) -> int:
    """Ticks in ``seconds`` at the workload's rate, rounded down to whole
    sweeps of the stream when at least one fits: a phase that covers whole
    sweeps sees the same multiset of moves whatever the seed's starting
    phase (only ``--smoke`` phases are too short for that)."""
    ticks = int(seconds * workload.tick_rate)
    sweep = workload.cycle_ticks
    return ticks // sweep * sweep or ticks


async def _open_phase(child: Child, generator: Generator,
                      ticks: int) -> Dict[str, Any]:
    """One measured open-loop phase, bracketed by child readings, with its
    notify samples cut into one-second windows."""
    subscribers = generator.subscribers

    def take_notifies() -> List[float]:
        return [sample for subscriber in subscribers
                for sample in subscriber.take_latencies()]

    windows: List[List[float]] = []
    take_notifies()
    updates, sent = generator.item_updates, generator.refreshes_sent
    before = child.ask("mark")
    window = await generator.open_loop(
        ticks, lambda: windows.append(take_notifies()))
    await generator.quiesce()
    windows.append(take_notifies())
    if len(windows) > 1:
        windows[-2].extend(windows.pop())   # stragglers of the last second
    after = child.ask("mark")
    end = perf_counter()
    return {
        "ticks": ticks, "start": window["start"], "end": end,
        "late": window["late"],
        "item_updates": generator.item_updates - updates,
        "refreshes_sent": generator.refreshes_sent - sent,
        "windows": windows,
        "notify": [sample for samples in windows for sample in samples],
        "subscribe": [seconds for started, seconds
                      in generator.subscribe_samples
                      if window["start"] <= started < end],
        "before": before, "after": after,
        "generator_calibration": [
            sample for sample in generator.calibration
            if window["start"] <= sample[0] < end],
    }


async def _audited(generator: Generator, audits: List[Dict[str, Any]]) -> None:
    await generator.settle()
    pairs, violations = await generator.audit()
    audits.append({"pairs": pairs, "violations": violations})


async def _drive(child: Child, generator: Generator, seconds: float,
                 traced: bool, recorder: "tracing.Recorder") -> Dict[str, Any]:
    workload = generator.workload
    raw: Dict[str, Any] = {"audits": []}
    try:
        await generator.connect()
        generator.start_background()
        generator.stage = "warm-up"
        await generator.open_loop(int(WARMUP_SECONDS * workload.tick_rate))
        await generator.quiesce()
        generator.stage = "open-loop phase"
        if traced:
            # Equal work in both halves, or their CPU cannot be compared:
            # at least one whole sweep each.
            half = _whole_sweeps(workload, max(
                seconds / 2.0, workload.cycle_ticks / workload.tick_rate))
            child.ask("trace", False)
            raw["untraced"] = await _open_phase(child, generator, half)
            child.ask("trace", True)
            undo = tracing.install(recorder)
            try:
                raw["open"] = await _open_phase(child, generator, half)
            finally:
                tracing.uninstall(undo)
            child.ask("trace", False)
            generator.stage = "audit"
            await _audited(generator, raw["audits"])
        else:
            raw["open"] = await _open_phase(
                child, generator, _whole_sweeps(workload, seconds / 2.0))
            generator.stage = "audit after the open loop"
            await _audited(generator, raw["audits"])
            generator.stage = "closed-loop phase"
            before = child.ask("mark")
            raw["closed"] = await generator.closed_loop(seconds / 2.0)
            await generator.quiesce()
            raw["closed"].update(before=before, after=child.ask("mark"))
            generator.stage = "audit after the closed loop"
            await _audited(generator, raw["audits"])
        raw["generator"] = {
            "item_updates": generator.item_updates,
            "refreshes_sent": generator.refreshes_sent,
            "notifies_received": sum(s.notifies
                                     for s in generator.subscribers),
            "evictions": sum(s.evictions for s in generator.subscribers),
            "operations_attempted": generator.operations_attempted,
            "operations_failed": generator.operations_failed,
            "cycle_variability": generator.stream.cycle_variability,
        }
    finally:
        generator.stage += ", then closing"
        await generator.close()
    return raw


def _measure(workload: Workload, seed: int, seconds: float, traced: bool,
             prepared: Tuple[Any, Dict[str, int], TrafficPlan]
             ) -> Dict[str, Any]:
    """Spawn the measured server, drive one run against it, tear it down."""
    scenario, item_to_source, plan = prepared
    recorder = tracing.Recorder()
    with Child(workload, traced=traced) as child:
        generator = Generator(workload, scenario, item_to_source, plan,
                              child.ready["port"],
                              child.ready["subscriber_port"])
        try:
            raw = asyncio.run(asyncio.wait_for(
                _drive(child, generator, seconds, traced, recorder),
                DRIVE_TIMEOUT))
        except asyncio.TimeoutError:
            raise BenchmarkError(
                f"a reply or the whole drive ({DRIVE_TIMEOUT:.0f}s) timed "
                f"out during: {generator.stage}") from None
        final = child.stop()
    raw.update({
        "setup_samples": [child.setup_sample()],
        "recompute_cost": child.ready["recompute_cost"],
        "final": {key: value for key, value in final.items()
                  if key != "spans"},
        "spans": {"server": final["spans"], "generator": recorder.export()},
    })
    return raw


def run_workload(workload: Workload, seed: int, seconds: float,
                 traced: bool = False, setups: int = 3) -> Dict[str, Any]:
    """One run of one workload; returns the raw measurements.

    Untraced: ``setups`` set-ups (the last one is the measured server),
    a warm-up, an open-loop phase of half of ``seconds``, a closed loop
    of the other half, an audit after each.  Traced: one set-up with the
    wrappers installed, a warm-up, then two open-loop phases of half of
    ``seconds`` each in the *same* server — wrappers removed, then
    installed — so the trace's own cost is measured, not assumed.

    A run the harness could not finish (a timeout, a dead child) is made
    once more against a fresh server before the error stands: on a shared
    host a stall of tens of seconds is weather, not a result.
    """
    if _cpu_for(0) is not None:
        os.sched_setaffinity(0, {_cpu_for(0)})
    prepared = prepare(workload, seed)
    setup_samples = measure_setups(workload, 0 if traced else setups - 1)
    try:
        raw = _measure(workload, seed, seconds, traced, prepared)
    except BenchmarkError as error:
        print(f"warning: {error}; trying once more", file=sys.stderr)
        raw = _measure(workload, seed, seconds, traced, prepared)
    raw["setup_samples"] = setup_samples + raw["setup_samples"]
    raw.update({
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "traced": traced, "clustered": bool(workload.shards),
        "cycle_ticks": workload.cycle_ticks,
    })
    return raw


if __name__ == "__main__":      # the server child: ``-m … <pipe fd> <json>``
    _arguments = json.loads(sys.argv[2])
    child_main(Connection(int(sys.argv[1])), _arguments["shape"],
               _arguments["traced"], _arguments["cpu"])
