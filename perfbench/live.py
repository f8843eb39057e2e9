"""live-lookup: the deployed path end to end, over a unix socket.

A ``repro.cli serve`` process hosts the directory (default
``SemanticDirectory``, one shard).  This process is the one client: it
holds one connection, publishes the §5 catalog (about 2·10³ services)
with embedded codes, then drives a closed loop of lookups.  Each lookup
is sent when the previous reply has arrived, and the client wakes on
that reply: no timer is polled (``LoadGenerator.run`` polls every 1 ms,
which caps it near the poll rate; README.md has both figures).

Requests follow a Zipf popularity over a pool of one request per
service, more distinct documents than the directory's 1024-entry
``RequestCache`` holds, so some lookups are parsed and some are hits.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from statistics import median

from common import (
    GcPauses,
    Result,
    Stopwatch,
    add_latency_info,
    add_throughput,
    block_rate,
    peak_rss_mb_of,
    sustained_setup,
)
from oracle import Oracle
from repro.core.codes import CodeTable
from repro.network.live import LiveFabric
from repro.network.messages import Envelope, QueryRequest, QueryResponse
from repro.network.wire import decode_frame, encode_frame
from repro.ontology.registry import OntologyRegistry
from repro.protocols.deployment import DeploymentConfig
from repro.protocols.live_deploy import (
    LOADGEN_NODE_ID,
    SERVE_NODE_ID,
    annotated_profile_doc,
    annotated_request_doc,
    build_catalog,
)
from repro.protocols.sariadne import (
    ParsedSemanticRequest,
    SAriadneClientAgent,
    SAriadneDirectoryAgent,
)
from repro.services.xml_codec import profile_from_xml, request_from_xml
from repro.util.cache import RequestCache

SERVICES = 2000
#: Zipf exponent of request popularity over the pool of SERVICES requests.
ZIPF_S = 0.6
SEQUENCE = 16384
#: Lookups per timed block; a block lasts about half a second.
BLOCK = 512
WARM_BLOCKS = 2
#: Fresh directories set up per run.
SETUPS = 3
ORACLE_SAMPLES = 48
REPLY_TIMEOUT = 10.0
#: Scratch files (config, socket) live here, inside the checkout.
WORK = pathlib.Path(__file__).resolve().parent.parent / ".perfbench_run"


class WakingClient(SAriadneClientAgent):
    """An S-Ariadne client whose caller awaits each reply as a future."""

    def __init__(self, directory: int) -> None:
        super().__init__(lambda: directory)
        self.waiting: tuple[int, asyncio.Future, float] | None = None

    def ask(self, document: str) -> asyncio.Future:
        ticket = self.query(document)
        if not ticket:
            raise RuntimeError(f"query not sent: {ticket.outcome.value}")
        future = asyncio.get_running_loop().create_future()
        self.waiting = (ticket.query_id, future, time.monotonic())
        return future

    def on_message(self, envelope: Envelope) -> None:
        super().on_message(envelope)
        payload = envelope.payload
        if isinstance(payload, QueryResponse):
            self.responses.pop(payload.query_id, None)
            waiting = self.waiting
            if waiting is not None and waiting[0] == payload.query_id:
                self.waiting = None
                waiting[1].set_result(payload.results)

    def expire(self) -> None:
        """Fail the outstanding lookup if its reply is overdue."""
        waiting = self.waiting
        if waiting is not None and time.monotonic() - waiting[2] > REPLY_TIMEOUT:
            self.waiting = None
            waiting[1].set_exception(TimeoutError("no reply from the directory"))


class Server:
    """One ``repro.cli serve`` process on a unix socket."""

    def __init__(self, config_path: pathlib.Path, socket_path: str) -> None:
        env = dict(os.environ)
        source = str(WORK.parent / "src")
        env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.address = f"unix:{socket_path}"
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--listen", self.address,
                "--config", str(config_path),
                "--assume-directory",
                "--duration", "170",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )

    def wait_elected(self) -> None:
        for line in self.process.stdout:
            if "elected directory" in line:
                return
        raise RuntimeError(f"serve exited with {self.process.wait()} before electing itself")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def zipf_sequence(rng: random.Random, size: int, length: int) -> list[int]:
    """``length`` draws from a Zipf(ZIPF_S) popularity over ``size``
    items, the popularity ranks shuffled over item indices."""
    ranks = list(range(size))
    rng.shuffle(ranks)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(size)]
    return [ranks[rank] for rank in rng.choices(range(size), weights=weights, k=length)]


async def _connect(address: str) -> tuple[LiveFabric, WakingClient]:
    fabric = LiveFabric(LOADGEN_NODE_ID, peers={SERVE_NODE_ID: address})
    client = WakingClient(SERVE_NODE_ID)
    fabric.node.add_agent(client)
    await fabric.start()
    return fabric, client


async def _set_up(address, workload, adverts, warm_doc) -> tuple[LiveFabric, WakingClient, float, float]:
    """Client side of one set-up against a freshly elected directory:
    code table, catalog publication, one warm-up lookup.  Publications
    and the lookup share one ordered connection, so the reply proves the
    whole catalog was processed."""
    fabric, client = await _connect(address)
    started = time.perf_counter()
    CodeTable(OntologyRegistry(workload.ontologies))
    built = time.perf_counter()
    for uri, document in adverts:
        if not client.publish(document, service_uri=uri):
            raise RuntimeError("publish not sent")
    rows = await client.ask(warm_doc)
    done = time.perf_counter()
    if not rows:
        raise RuntimeError("warm-up lookup found nothing")
    return fabric, client, done - started, built - started


async def _closed_loop(client: WakingClient, documents, sequence, seconds: float, first_block: int = 0):
    """Whole blocks of lookups until ``seconds`` have elapsed (at least
    one block), starting at block ``first_block`` of the sequence."""
    samples: list[float] = []
    answers: list[tuple[int, tuple]] = []
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    while not durations or time.perf_counter() < deadline:
        number = first_block + len(durations)
        started = time.perf_counter()
        for offset in range(BLOCK):
            index = sequence[(number * BLOCK + offset) % len(sequence)]
            sent = time.perf_counter()
            rows = await client.ask(documents[index])
            samples.append(time.perf_counter() - sent)
            answers.append((index, rows))
        durations.append(time.perf_counter() - started)
    return samples, answers, durations


async def _watchdog(client: WakingClient) -> None:
    while True:
        await asyncio.sleep(1.0)
        client.expire()


def run_live(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Result:
    result = Result()
    config = DeploymentConfig(node_count=2, seed=seed)
    workload, table = build_catalog(config)
    count = max(200, int(SERVICES * scale))
    adverts = []
    profiles = []
    for index in range(count):
        profile, document = annotated_profile_doc(workload, table, index)
        profiles.append(profile)
        adverts.append((profile.uri, document))
    documents = [annotated_request_doc(workload, table, index) for index in range(count)]
    rng = random.Random(f"{seed}:live")
    sequence = zipf_sequence(rng, count, SEQUENCE)

    WORK.mkdir(exist_ok=True)
    config_path = WORK / f"live-{os.getpid()}.json"
    config_path.write_text(json.dumps(config.to_dict()))
    socket_path = os.path.relpath(WORK / f"live-{os.getpid()}.sock")
    servers: list[Server] = []
    try:
        result_state = asyncio.run(
            _drive(result, workload, adverts, documents, sequence, seconds, trace,
                   config_path, socket_path, servers)
        )
    finally:
        for server in servers:
            server.stop()
        config_path.unlink(missing_ok=True)
        pathlib.Path(socket_path).unlink(missing_ok=True)
    samples, answers = result_state

    first: dict[int, tuple] = {}
    bad: set[int] = set()
    for index, rows in answers:
        if first.setdefault(index, rows) != rows:
            bad.add(index)
            result.problems.append(f"request {index}: answer changed between repeats")
    oracle = Oracle(workload.taxonomy)
    checked = random.Random(f"{seed}:live-oracle").sample(sorted(first), min(ORACLE_SAMPLES, len(first)))
    for index in checked:
        request, _annotations = request_from_xml(documents[index])
        problems = oracle.check_greedy(first[index], request, profiles, profiles[index].uri)
        if problems:
            bad.add(index)
            result.problems.extend(problems)
    result.ops["lookup"] = [len(answers), sum(1 for index, _rows in answers if index in bad)]
    result.info["distinct_requests"] = len(first)
    if trace:
        _trace_layers(result, table, adverts, documents, sequence, len(answers))
    return result


async def _drive(result, workload, adverts, documents, sequence, seconds, trace,
                 config_path, socket_path, servers):
    setups = []
    fabric = client = None
    for _ in range(SETUPS):
        if fabric is not None:
            await fabric.close()
            servers[-1].stop()
        pathlib.Path(socket_path).unlink(missing_ok=True)
        server = Server(config_path, socket_path)
        servers.append(server)
        await asyncio.get_running_loop().run_in_executor(None, server.wait_elected)
        fabric, client, total, table_s = await _set_up(
            server.address, workload, adverts, documents[sequence[0]]
        )
        setups.append((total, table_s))
    result.e2e["setup_s"] = sustained_setup([total for total, _ in setups])
    result.layers["codes.table_build_s"] = median([table_s for _, table_s in setups])

    watchdog = asyncio.ensure_future(_watchdog(client))
    try:
        # Untimed: fill the directory's request cache from the tail of
        # the sequence; the timed phase then starts at its head.
        for back in range(WARM_BLOCKS, 0, -1):
            await _closed_loop(client, documents, sequence, 0.0, len(sequence) // BLOCK - back)
        samples, answers, durations = await _closed_loop(client, documents, sequence, seconds)
        add_throughput(result, [BLOCK] * len(durations), durations)
        add_latency_info(result, samples, BLOCK)
        result.e2e["peak_rss_mb"] = peak_rss_mb_of(servers[-1].process.pid)
        if trace:
            with GcPauses() as pauses:
                traced, _answers, traced_durations = await _closed_loop(
                    client, documents, sequence, seconds
                )
            result.layers["gc.pause_ms"] = pauses.total * 1e3 / len(traced)
            result.layers["trace.overhead"] = 1.0 - block_rate(
                [BLOCK] * len(traced_durations), traced_durations
            ) / result.info["ops_per_s"]
    finally:
        watchdog.cancel()
        try:
            await watchdog
        except asyncio.CancelledError:
            pass
        await fabric.close()
    return samples, answers


def _trace_layers(result, table, adverts, documents, sequence, lookups) -> None:
    """Replay the run's publications and lookups through each layer's
    public function in this process, timing every call on its own."""
    watch = Stopwatch()
    agent = SAriadneDirectoryAgent(table)
    for _uri, document in adverts:
        started = time.perf_counter()
        profile, annotations = profile_from_xml(document)
        parsed = time.perf_counter()
        extra = table.resolve_annotations(annotations.codes, annotations.version)
        resolved = time.perf_counter()
        agent.directory.publish_profile(profile, extra)
        watch.add("profile_parse", parsed - started)
        watch.add("publish", time.perf_counter() - resolved)

    cache = RequestCache()
    miss = object()
    hits = 0
    frame_bytes = 0
    ids = itertools.count(1)
    for position in range(len(sequence) - WARM_BLOCKS * BLOCK, len(sequence)):
        document = documents[sequence[position]]  # the run's untimed warm-up
        if cache.get_document(document, miss) is miss:
            cache.put_document(document, ParsedSemanticRequest(*request_from_xml(document)))
    for position in range(lookups):
        document = documents[sequence[position % len(sequence)]]
        query_id = next(ids)
        request_frame = _timed_frame_round(
            watch, Envelope("QueryRequest", QueryRequest(query_id, document),
                            LOADGEN_NODE_ID, SERVE_NODE_ID, query_id, 0, 1)
        )
        parsed = cache.get_document(document, miss)
        if parsed is miss:
            started = time.perf_counter()
            request, annotations = request_from_xml(document)
            watch.add("request_parse", time.perf_counter() - started)
            parsed = ParsedSemanticRequest(request, annotations)
            cache.put_document(document, parsed)
        else:
            hits += 1
        started = time.perf_counter()
        rows = agent.local_query_parsed(document, parsed)
        watch.add("local_query", time.perf_counter() - started)
        response_frame = _timed_frame_round(
            watch, Envelope("QueryResponse", QueryResponse(query_id, tuple(rows)),
                            SERVE_NODE_ID, LOADGEN_NODE_ID, query_id, 0, 1)
        )
        frame_bytes += request_frame + response_frame

    hit_ratio = hits / lookups
    encode_us = watch.mean_us("encode")
    decode_us = watch.mean_us("decode")
    parse_us = watch.mean_us("request_parse") if "request_parse" in watch.calls else 0.0
    local_us = watch.mean_us("local_query")
    # Per lookup: the client encodes the request and decodes the reply,
    # the directory decodes the request and encodes the reply, parses on
    # a cache miss and matches.
    attributed = 2 * encode_us + 2 * decode_us + (1 - hit_ratio) * parse_us + local_us
    result.layers.update(
        {
            "wire.encode_us": encode_us,
            "wire.decode_us": decode_us,
            "wire.frame_bytes": frame_bytes / lookups,
            "xml_codec.request_parse_us": parse_us,
            "cache.request_hit_ratio": hit_ratio,
            "sariadne.local_query_us": local_us,
            "live.unattributed_us": result.info["op_p50_ms"] * 1e3 - attributed,
            "xml_codec.profile_parse_us": watch.mean_us("profile_parse"),
            "semantic_dir.publish_us": watch.mean_us("publish"),
        }
    )


def _timed_frame_round(watch: Stopwatch, envelope: Envelope) -> int:
    """Encode and decode one frame; returns its size in bytes."""
    started = time.perf_counter()
    frame = encode_frame(envelope)
    encoded = time.perf_counter()
    decode_frame(frame[4:])
    watch.add("encode", encoded - started)
    watch.add("decode", time.perf_counter() - encoded)
    return len(frame)
