"""backbone-sim: §4 directory cooperation on the discrete-event simulator.

The deployment of ``bench_backbone_fastpath``: a 50-node grid, four
S-Ariadne directories, clients homed on the nearest one.  The §5 catalog
is spread round-robin over the directories, so most discoveries find
nothing at home and are forwarded to the peers whose Bloom summaries
admit the request.  One operation is one discovery: the client's query
plus every simulated event until the answer is back (the simulator is
advanced a fixed 2 s of simulated time, four forward windows).

Simulated message and byte counts are taken over the first block of
discoveries, which is the same on every run of a seed.
"""

from __future__ import annotations

import random
import time
from statistics import median

from common import (
    GcPauses,
    Result,
    Stopwatch,
    add_latency_info,
    add_throughput,
    block_rate,
    peak_rss_mb,
    sustained_setup,
    timed_blocks,
)
from oracle import Oracle
from repro.core.codes import CodeTable
from repro.core.directory import SemanticDirectory
from repro.network.messages import PublishService
from repro.network.node import Network
from repro.network.simulator import Simulator
from repro.network.topology import Bounds, grid_positions
from repro.ontology.registry import OntologyRegistry
from repro.protocols.sariadne import SAriadneClientAgent, SAriadneDirectoryAgent
from repro.services.generator import ServiceWorkload, WorkloadShape
from repro.services.xml_codec import profile_from_xml, profile_to_xml, request_to_xml

NODE_COUNT = 50
DIRECTORY_COUNT = 4
BOUNDS = Bounds(600.0, 600.0)
RADIO_RANGE = 130.0
FORWARD_WINDOW = 0.5
#: Simulated time each discovery is given to conclude.
DISCOVERY_WINDOW = 2.0
SERVICES = 400
SEQUENCE = 1024
#: Discoveries per timed block; a block lasts about half a second.
BLOCK = 512
#: Fresh deployments set up per run (about 0.3 s each).
SETUPS = 7
ORACLE_SAMPLES = 48


class Inputs:
    """Catalog, documents and the discovery sequence of one seed."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.workload = ServiceWorkload(WorkloadShape(), seed=seed)
        table = CodeTable(OntologyRegistry(self.workload.ontologies))
        count = max(40, int(SERVICES * scale))
        self.profiles = self.workload.make_services(count)
        self.adverts = [
            profile_to_xml(p, annotations=table.annotate(p.provided), codes_version=table.version)
            for p in self.profiles
        ]
        self.requests = [self.workload.matching_request(p) for p in self.profiles]
        self.documents = [
            request_to_xml(r, annotations=table.annotate(r.capabilities), codes_version=table.version)
            for r in self.requests
        ]
        rng = random.Random(f"{seed}:backbone")
        self.directory_ids = sorted(rng.sample(range(NODE_COUNT), DIRECTORY_COUNT))
        self.client_ids = [n for n in range(NODE_COUNT) if n not in self.directory_ids]
        #: advert index -> (publishing client, home directory)
        self.placement = [
            (rng.choice(self.client_ids), self.directory_ids[index % DIRECTORY_COUNT])
            for index in range(count)
        ]
        #: discovery -> (client, request index)
        self.sequence = [
            (rng.choice(self.client_ids), rng.randrange(count)) for _ in range(SEQUENCE)
        ]


class Deployment:
    """The simulated network with its directories and clients."""

    def __init__(self, table: CodeTable, inputs: Inputs) -> None:
        self.sim = Simulator()
        self.network = Network(self.sim, bounds=BOUNDS, radio_range=RADIO_RANGE, seed=inputs.seed)
        positions = grid_positions(NODE_COUNT, BOUNDS)
        for node_id in range(NODE_COUNT):
            self.network.add_node(node_id, positions[node_id])
        if not self.network.is_connected():
            raise RuntimeError("backbone grid is not connected")
        self.directories = {
            node_id: self.network.nodes[node_id].add_agent(
                SAriadneDirectoryAgent(table, forward_window=FORWARD_WINDOW)
            )
            for node_id in inputs.directory_ids
        }
        self.home = {
            node_id: self._nearest(node_id, inputs.directory_ids) for node_id in inputs.client_ids
        }
        self.clients = {
            node_id: self.network.nodes[node_id].add_agent(
                SAriadneClientAgent(lambda home=self.home[node_id]: home)
            )
            for node_id in inputs.client_ids
        }

    def _nearest(self, node_id: int, directory_ids: list[int]) -> int:
        position = self.network.nodes[node_id].position
        return min(
            directory_ids,
            key=lambda d: (position.distance_to(self.network.nodes[d].position), d),
        )

    def start(self, inputs: Inputs) -> None:
        """Form the backbone, publish the catalog, let summaries settle."""
        self.network.start()
        for agent in self.directories.values():
            agent.join_backbone()
        self.sim.run(until=10.0)
        for document, (publisher, home) in zip(inputs.adverts, inputs.placement):
            self.network.nodes[publisher].unicast(home, PublishService(document))
        self.sim.run(until=self.sim.now + 10.0)

    def discover(self, client_id: int, document: str):
        """One discovery; returns the answer rows, or None if unanswered."""
        query_id = self.clients[client_id].query(document).query_id
        self.sim.run(until=self.sim.now + DISCOVERY_WINDOW)
        response = self.clients[client_id].responses.pop(query_id, None)
        return None if response is None else response[1]

    def net_totals(self) -> tuple[int, int]:
        stats = self.network.stats
        return stats.unicasts + stats.broadcasts, stats.bytes_sent


def set_up(inputs: Inputs) -> tuple[Deployment, float, float]:
    """Code table, deployment, publication and one warm-up discovery."""
    started = time.perf_counter()
    table = CodeTable(OntologyRegistry(inputs.workload.ontologies))
    built = time.perf_counter()
    deployment = Deployment(table, inputs)
    deployment.start(inputs)
    client_id, index = inputs.sequence[0]
    if not deployment.discover(client_id, inputs.documents[index]):
        raise RuntimeError("warm-up discovery found nothing")
    return deployment, time.perf_counter() - started, built - started


def run_backbone(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Result:
    result = Result()
    inputs = Inputs(seed, scale)
    totals, table_builds = [], []
    for _ in range(SETUPS):
        deployment, total, table_s = set_up(inputs)  # the last one is timed
        totals.append(total)
        table_builds.append(table_s)
    result.e2e["setup_s"] = sustained_setup(totals)
    result.layers["codes.table_build_s"] = median(table_builds)
    for client_id, index in inputs.sequence[BLOCK:]:  # untimed: warm the request caches
        deployment.discover(client_id, inputs.documents[index])

    samples: list[float] = []
    answers: list[tuple[int, int, tuple | None]] = []
    net_first_block = []

    def block(number: int) -> None:
        before = deployment.net_totals()
        for offset in range(BLOCK):
            client_id, index = inputs.sequence[(number * BLOCK + offset) % SEQUENCE]
            started = time.perf_counter()
            rows = deployment.discover(client_id, inputs.documents[index])
            samples.append(time.perf_counter() - started)
            answers.append((client_id, index, rows))
        if number == 0:
            after = deployment.net_totals()
            net_first_block.extend((after[0] - before[0], after[1] - before[1]))

    durations = timed_blocks(seconds, block)
    add_throughput(result, [BLOCK] * len(durations), durations)
    add_latency_info(result, samples, BLOCK)
    result.e2e["peak_rss_mb"] = peak_rss_mb()
    result.layers["net.msgs_per_query"] = net_first_block[0] / BLOCK
    result.layers["net.bytes_per_query"] = net_first_block[1] / BLOCK
    result.info["net_msgs_per_query"] = result.layers["net.msgs_per_query"]
    result.info["net_bytes_per_query"] = result.layers["net.bytes_per_query"]

    _check(result, inputs, deployment, answers)
    if trace:
        _trace(result, inputs, deployment, seconds)
    return result


def _check(result: Result, inputs: Inputs, deployment: Deployment, answers) -> None:
    """Every discovery answered; the same (home, request) always gets the
    same answer; a sample agrees with the oracle under §4 semantics."""
    first: dict[tuple[int, int], tuple] = {}
    bad: set[tuple[int, int]] = set()
    for client_id, index, rows in answers:
        key = (deployment.home[client_id], index)
        if rows is None:
            bad.add(key)
            result.problems.append(f"discovery of request {index} from node {client_id} unanswered")
        elif first.setdefault(key, rows) != rows:
            bad.add(key)
            result.problems.append(f"request {index} at directory {key[0]}: answer changed")
    by_home: dict[int, list] = {d: [] for d in inputs.directory_ids}
    for profile, (_publisher, home) in zip(inputs.profiles, inputs.placement):
        by_home[home].append(profile)
    source_home = {p.uri: home for p, (_pub, home) in zip(inputs.profiles, inputs.placement)}
    oracle = Oracle(inputs.workload.taxonomy)
    rng = random.Random(f"{inputs.seed}:backbone-oracle")
    for key in rng.sample(sorted(first), min(ORACLE_SAMPLES, len(first))):
        home, index = key
        request = inputs.requests[index]
        source = inputs.profiles[index].uri
        # §4: a directory with local matches answers alone; otherwise the
        # admitted peers answer, and Bloom summaries admit every peer
        # holding a match, so the answer then covers the whole catalog.
        if oracle.distances(by_home[home], request.capabilities[0]):
            catalog = by_home[home]
            required = source if source_home[source] == home else None
        else:
            catalog, required = inputs.profiles, source
        problems = oracle.check_greedy(first[key], request, catalog, required)
        if problems:
            bad.add(key)
            result.problems.extend(problems)
    failed = sum(
        1 for client_id, index, _rows in answers if (deployment.home[client_id], index) in bad
    )
    result.ops["discovery"] = [len(answers), failed]


def _trace(result: Result, inputs: Inputs, deployment: Deployment, seconds: float) -> None:
    sim, network = deployment.sim, deployment.network
    events = [0]
    bfs = [0]
    done = [0]

    def block(number: int) -> None:
        for offset in range(BLOCK):
            client_id, index = inputs.sequence[(number * BLOCK + offset) % SEQUENCE]
            events_before, bfs_before = sim.events_processed, network.routes.stats.bfs_runs
            deployment.discover(client_id, inputs.documents[index])
            events[0] += sim.events_processed - events_before
            bfs[0] += network.routes.stats.bfs_runs - bfs_before
            done[0] += 1

    with GcPauses() as pauses:
        durations = timed_blocks(seconds, block)

    # Bloom preselection at the origin directory, replayed over one
    # pass of the sequence.
    watch = Stopwatch()
    admitted_total = forwarded = useful = 0
    for client_id, index in inputs.sequence:
        document = inputs.documents[index]
        home = deployment.directories[deployment.home[client_id]]
        parsed = home.parse_request(document)
        peers = sorted(home.peer_summaries)
        started = time.perf_counter()
        verdicts = home.summaries_admitting(document, parsed, peers)
        watch.add("admit", time.perf_counter() - started)
        if home.local_query_parsed(document, parsed):
            continue
        forwarded += 1
        for peer_id in (p for p, admits in verdicts.items() if admits):
            admitted_total += 1
            peer = deployment.directories[peer_id]
            if peer.local_query_parsed(document, peer.parse_request(document)):
                useful += 1

    # The publication path each directory runs on every advertisement.
    table = deployment.directories[inputs.directory_ids[0]].directory.table
    directory = SemanticDirectory(table)
    for document in inputs.adverts:
        started = time.perf_counter()
        profile, annotations = profile_from_xml(document)
        parsed_at = time.perf_counter()
        extra = table.resolve_annotations(annotations.codes, annotations.version)
        resolved = time.perf_counter()
        directory.publish_profile(profile, extra)
        watch.add("profile_parse", parsed_at - started)
        watch.add("publish", time.perf_counter() - resolved)

    result.layers.update(
        {
            "sim.events_per_query": events[0] / done[0],
            "sim.event_us": sum(durations) / events[0] * 1e6,
            "route.bfs_per_query": bfs[0] / done[0],
            "sariadne.summary_admit_us": watch.mean_us("admit"),
            "sariadne.peers_per_query": admitted_total / max(1, forwarded),
            "sariadne.forward_yield": useful / max(1, admitted_total),
            "xml_codec.profile_parse_us": watch.mean_us("profile_parse"),
            "semantic_dir.publish_us": watch.mean_us("publish"),
            "gc.pause_ms": pauses.total * 1e3 / done[0],
            "trace.overhead": 1.0
            - block_rate([BLOCK] * len(durations), durations) / result.info["ops_per_s"],
        }
    )
