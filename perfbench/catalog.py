"""catalog-scan and catalog-churn: a large sharded catalog, in process.

Both drive :class:`~repro.core.sharding.ShardRouter` with its defaults
(packed-engine ``FlatDirectory`` shards, auto-selected backend, Bloom
shard pruning) over the scale suite of ``bench_directory_sharding``:
64 single-rooted 200-concept ontologies, one ontology per service, about
10⁵ capabilities.  No wire and no XML.

* catalog-scan times read-only routed queries over a fixed request pool.
* catalog-churn times one soft-state turnover per operation: withdraw a
  live service, publish a never-seen one with the same ontology (so both
  writes land in one shard), and answer a request that must find the new
  service and not the withdrawn one.  The query pays the shard engine's
  rebuild, so each operation has one cost mode.
"""

from __future__ import annotations

import random
import time
from statistics import median

from common import (
    SUSTAINED,
    GcPauses,
    Result,
    Stopwatch,
    add_latency_info,
    add_throughput,
    block_rate,
    peak_rss_mb,
    percentile,
    sustained_setup,
    timed_blocks,
)
from oracle import Oracle
from repro.core.codes import CodeTable
from repro.core.sharding import ShardRouter, service_shard_key, shard_index_for
from repro.ontology.generator import generate_large_ontology
from repro.ontology.registry import OntologyRegistry
from repro.services.generator import ServiceWorkload, WorkloadShape

ONTOLOGY_COUNT = 64
CONCEPTS_PER_ONTOLOGY = 200
ONTOLOGY_SEED = 11
SERVICES = 100_000
SHARDS = 8
#: catalog-scan: distinct requests cycled through the timed phase.
POOL = 256
#: Operations per timed block; a block lasts about half a second.
SCAN_BLOCK = 256
#: catalog-churn: rounds of turnovers generated per run (one round takes
#: about a second at 10⁵ capabilities; the plain and traced phases use
#: about twenty).
CHURN_ROUNDS = 60
#: Answers checked against the brute-force oracle per run (each scan of
#: 10⁵ capabilities costs about a second).
SCAN_ORACLE_SAMPLES = 3
CHURN_ORACLE_SAMPLES = 2
#: Full set-ups per run: one, because each costs about seven seconds at
#: 10⁵ capabilities and a second router would sit in peak_rss_mb.
SETUPS = 1


def build_inputs(seed: int, scale: float):
    """Ontology suite (fixed) and the seed's services, generated once."""
    ontologies = [
        generate_large_ontology(
            f"http://repro.example.org/scale/{index}",
            concepts=CONCEPTS_PER_ONTOLOGY,
            seed=ONTOLOGY_SEED + index,
            roots=1,
        )
        for index in range(max(8, round(ONTOLOGY_COUNT * scale)))
    ]
    workload = ServiceWorkload(
        WorkloadShape(ontologies_per_service=1), seed=seed, ontologies=ontologies
    )
    count = max(400, int(SERVICES * scale))
    return workload, list(workload.iter_services(count))


def set_up(workload, profiles, warm_requests):
    """The program's set-up: code table, catalog publication, warm-up.

    The warm-up sends one request per shard so that every shard's packed
    engine is built before timing starts.
    Returns ``(router, table build s, publish s, total s)``.
    """
    started = time.perf_counter()
    table = CodeTable(OntologyRegistry(workload.ontologies))
    built = time.perf_counter()
    router = ShardRouter(table, SHARDS)
    router.publish_batch(profiles)
    published = time.perf_counter()
    router.query_batch(warm_requests)
    done = time.perf_counter()
    return router, built - started, published - built, done - started


def warm_requests(workload, profiles):
    """One matching request per shard (the first service routed there)."""
    first = {}
    for profile in profiles:
        first.setdefault(shard_index_for(service_shard_key(profile), SHARDS), profile)
    return [workload.matching_request(first[index]) for index in sorted(first)]


def repeated_set_up(result: Result, workload, profiles):
    warm = warm_requests(workload, profiles)
    runs = []
    for _ in range(SETUPS):
        runs.append(set_up(workload, profiles, warm))
    result.e2e["setup_s"] = sustained_setup([run[3] for run in runs])
    result.layers["codes.table_build_s"] = median([run[1] for run in runs])
    result.layers["router.publish_batch_s"] = median([run[2] for run in runs])
    result.info["capabilities"] = runs[-1][0].capability_count
    return runs[-1][0]


def _rows(matches):
    return [(m.requested.uri, m.service_uri, m.capability.uri, m.distance) for m in matches]


def run_scan(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Result:
    result = Result()
    workload, profiles = build_inputs(seed, scale)
    rng = random.Random(f"{seed}:scan")
    sources = [rng.randrange(len(profiles)) for _ in range(POOL)]
    pool = [workload.matching_request(profiles[index]) for index in sources]
    router = repeated_set_up(result, workload, profiles)
    router.query_batch(pool)  # untimed pass: every pool request seen once

    samples: list[float] = []
    answers: list[tuple[int, list]] = []

    def block(number: int) -> None:
        for offset in range(SCAN_BLOCK):
            position = (number * SCAN_BLOCK + offset) % POOL
            request = pool[position]
            started = time.perf_counter()
            rows = router.query(request)
            samples.append(time.perf_counter() - started)
            answers.append((position, rows))

    durations = timed_blocks(seconds, block)
    add_throughput(result, [SCAN_BLOCK] * len(durations), durations)
    add_latency_info(result, samples, SCAN_BLOCK)
    result.e2e["peak_rss_mb"] = peak_rss_mb()

    # Same request, same answer, every time; then a sample against the oracle.
    first: dict[int, list] = {}
    bad_positions: set[int] = set()
    for position, rows in answers:
        rows = _rows(rows)
        if first.setdefault(position, rows) != rows:
            bad_positions.add(position)
            result.problems.append(f"{pool[position].uri}: answer changed between repeats")
    oracle = Oracle(workload.taxonomy)
    for position in rng.sample(sorted(first), min(SCAN_ORACLE_SAMPLES, len(first))):
        problems = oracle.check_exact(first[position], pool[position], profiles)
        if problems:
            bad_positions.add(position)
            result.problems.extend(problems)
    failed = sum(1 for position, _ in answers if position in bad_positions)
    result.ops["query"] = [len(answers), failed]

    if trace:
        _trace_scan(result, router, pool, seconds)
    return result


def _trace_scan(result: Result, router, pool, seconds: float) -> None:
    """Replay the pool with each layer call timed on its own."""
    watch = Stopwatch()
    counts = {"ops": 0, "shards": 0, "evaluated": 0, "returned": 0}

    def block(number: int) -> None:
        for offset in range(SCAN_BLOCK):
            request = pool[(number * SCAN_BLOCK + offset) % POOL]
            started = time.perf_counter()
            admitted = router.admitted_shards(request)
            admit = time.perf_counter() - started
            in_shards = 0.0
            for index in admitted:
                shard = router.shards[index]
                before = shard.stats.capability_matches
                started = time.perf_counter()
                rows = shard.query(request)
                in_shards += time.perf_counter() - started
                counts["evaluated"] += shard.stats.capability_matches - before
                counts["returned"] += len(rows)
            started = time.perf_counter()
            router.query(request)
            routed = time.perf_counter() - started
            watch.add("admit", admit)
            watch.add("shard_query", in_shards, len(admitted))
            watch.add("merge", routed - admit - in_shards)
            counts["ops"] += 1
            counts["shards"] += len(admitted)

    with GcPauses() as pauses:
        durations = timed_blocks(seconds, block)
    ops = counts["ops"]
    result.layers.update(
        {
            "router.admit_us": watch.mean_us("admit"),
            "router.fanout": counts["shards"] / ops,
            "flat_dir.query_us": watch.mean_us("shard_query"),
            "packed.rows_evaluated": counts["evaluated"] / ops,
            "packed.match_yield": counts["returned"] / max(1, counts["evaluated"]),
            "router.merge_us": watch.mean_us("merge"),
            "gc.pause_ms": pauses.total * 1e3 / ops,
            "trace.overhead": 1.0
            - block_rate([SCAN_BLOCK] * len(durations), durations) / result.info["ops_per_s"],
        }
    )


def churn_rounds(workload, profiles, seed: int, rounds: int):
    """``rounds`` rounds of turnovers, one per populated shard in shard
    order, each ``(withdrawn uri, new profile, request)``.

    A refresh costs about one rebuild of its shard's engine, and shard
    sizes differ, so every round visits every shard once: each run then
    times the same mix.  The withdrawn service is a live one sharing the
    new service's ontology set, so both writes touch the same shard.
    """
    rng = random.Random(f"{seed}:churn")
    live: dict[frozenset, list[str]] = {}
    for profile in profiles:
        live.setdefault(service_shard_key(profile), []).append(profile.uri)
    waiting: dict[int, list] = {shard_index_for(key, SHARDS): [] for key in live}
    index = len(profiles)
    while min(len(queue) for queue in waiting.values()) < rounds:
        new = workload.make_service(index)
        index += 1
        waiting[shard_index_for(service_shard_key(new), SHARDS)].append(new)
    ops = []
    for round_number in range(rounds):
        turnover = []
        for shard in sorted(waiting):
            new = waiting[shard][round_number]
            uris = live[service_shard_key(new)]
            victim = uris.pop(rng.randrange(len(uris)))
            uris.append(new.uri)
            turnover.append((victim, new, workload.matching_request(new)))
        ops.append(turnover)
    return ops


def refresh_problems(rows, new_uri: str, withdrawn: set[str]) -> list[str]:
    """A refresh's answer must hold the new service and no withdrawn one."""
    services = {row[1] for row in rows}
    problems = []
    if new_uri not in services:
        problems.append(f"new service {new_uri} not found")
    if services & withdrawn:
        problems.append(f"withdrawn service(s) {sorted(services & withdrawn)} returned")
    return problems


def run_churn(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Result:
    result = Result()
    workload, profiles = build_inputs(seed, scale)
    rounds = churn_rounds(workload, profiles, seed, CHURN_ROUNDS)
    router = repeated_set_up(result, workload, profiles)

    samples: list[float] = []
    round_means: list[float] = []
    answers: list[list] = []

    def block(number: int) -> None:
        for victim, new, request in rounds[number]:
            started = time.perf_counter()
            router.unpublish(victim)
            router.publish(new)
            rows = router.query(request)
            samples.append(time.perf_counter() - started)
            answers.append(rows)
        round_means.append(sum(samples[-len(rounds[number]) :]) / len(rounds[number]))

    durations = timed_blocks(seconds, block, len(rounds))
    done = len(durations)
    add_throughput(result, [len(turnover) for turnover in rounds[:done]], durations)
    add_latency_info(result, samples, len(rounds[0]))
    # Refresh times cluster by shard size, so a round's median jumps
    # between clusters; whole rounds' means do not.
    result.info["op_p50_ms"] = percentile(round_means, SUSTAINED) * 1e3
    result.e2e["peak_rss_mb"] = peak_rss_mb()

    ops = [op for turnover in rounds[:done] for op in turnover]
    answers = [_rows(rows) for rows in answers]
    failed_ops: set[int] = set()
    withdrawn: set[str] = set()
    for index, rows in enumerate(answers):
        victim, new, _request = ops[index]
        withdrawn.add(victim)
        problems = refresh_problems(rows, new.uri, withdrawn)
        if problems:
            failed_ops.add(index)
            result.problems.extend(f"refresh {index}: {problem}" for problem in problems)
    rng = random.Random(f"{seed}:churn-oracle")
    sampled = sorted(rng.sample(range(len(answers)), min(CHURN_ORACLE_SAMPLES, len(answers))))
    catalog = {profile.uri: profile for profile in profiles}
    oracle = Oracle(workload.taxonomy)
    applied = 0
    for index in sampled:
        for victim, new, _request in ops[applied : index + 1]:
            del catalog[victim]
            catalog[new.uri] = new
        applied = index + 1
        problems = oracle.check_exact(answers[index], ops[index][2], catalog.values())
        if problems:
            failed_ops.add(index)
            result.problems.extend(problems)
    result.ops["refresh"] = [len(answers), len(failed_ops)]

    if trace:
        _trace_churn(result, router, rounds[done:], seconds)
    return result


def _trace_churn(result: Result, router, rounds, seconds: float) -> None:
    """Replay further turnovers with each layer call timed on its own."""
    watch = Stopwatch()
    done = [0]

    def block(number: int) -> None:
        for victim, new, request in rounds[number]:
            started = time.perf_counter()
            router.unpublish(victim)
            withdrawn = time.perf_counter()
            router.publish(new)
            published = time.perf_counter()
            shard = router.shards[router.shard_of(new.uri)]
            shard.query(request)
            first = time.perf_counter()
            shard.query(request)
            warm = time.perf_counter()
            router.query(request)
            watch.add("unpublish", withdrawn - started)
            watch.add("publish", published - withdrawn)
            watch.add("first_query", first - published)
            watch.add("warm_query", warm - first)
            done[0] += 1

    with GcPauses() as pauses:
        durations = timed_blocks(seconds, block, len(rounds))
    first_us = watch.mean_us("first_query")
    warm_us = watch.mean_us("warm_query")
    result.layers.update(
        {
            "router.unpublish_us": watch.mean_us("unpublish"),
            "router.publish_us": watch.mean_us("publish"),
            "flat_dir.first_query_us": first_us,
            "flat_dir.query_us": warm_us,
            "packed.rebuild_ms": (first_us - warm_us) / 1e3,
            "gc.pause_ms": pauses.total * 1e3 / done[0],
            "trace.overhead": 1.0
            - block_rate([len(turnover) for turnover in rounds], durations)
            / result.info["ops_per_s"],
        }
    )
