"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

They check that every workload runs to its end with every metric
present, that the oracle flags corrupted answers (so the correctness
checks cannot pass vacuously), that backbone-sim's simulated message
counts repeat for a seed, and that the benchmark refuses to run without
the program's source.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from catalog import build_inputs, refresh_problems  # noqa: E402
from common import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from oracle import Oracle  # noqa: E402
from repro.core.codes import CodeTable  # noqa: E402
from repro.core.sharding import ShardRouter  # noqa: E402
from repro.ontology.registry import OntologyRegistry  # noqa: E402

#: Per workload: catalog scale and the per-layer metrics it must measure.
TINY = {
    "live-lookup": (
        0.1,
        {
            "wire.encode_us", "wire.decode_us", "wire.frame_bytes",
            "xml_codec.request_parse_us", "cache.request_hit_ratio",
            "sariadne.local_query_us", "live.unattributed_us",
            "xml_codec.profile_parse_us", "semantic_dir.publish_us",
            "codes.table_build_s", "gc.pause_ms", "trace.overhead",
        },
    ),
    "catalog-scan": (
        0.01,
        {
            "codes.table_build_s", "router.publish_batch_s", "router.admit_us",
            "router.fanout", "flat_dir.query_us", "packed.rows_evaluated",
            "packed.match_yield", "router.merge_us", "gc.pause_ms", "trace.overhead",
        },
    ),
    "catalog-churn": (
        0.01,
        {
            "codes.table_build_s", "router.publish_batch_s", "router.unpublish_us",
            "router.publish_us", "flat_dir.first_query_us", "flat_dir.query_us",
            "packed.rebuild_ms", "gc.pause_ms", "trace.overhead",
        },
    ),
    "backbone-sim": (
        0.25,
        {
            "codes.table_build_s", "xml_codec.profile_parse_us", "semantic_dir.publish_us",
            "sim.events_per_query", "sim.event_us", "route.bfs_per_query",
            "sariadne.summary_admit_us", "sariadne.peers_per_query",
            "sariadne.forward_yield", "net.msgs_per_query", "net.bytes_per_query",
            "gc.pause_ms", "trace.overhead",
        },
    ),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_to_its_end(workload):
    scale, layers = TINY[workload]
    result = run.run_workload(workload, seed=5, seconds=0.3, trace=True, scale=scale)
    assert result.attempted > 0
    assert result.failed == 0 and not result.problems, result.problems[:5]
    assert set(result.e2e) == set(END_TO_END)
    assert all(value > 0 for value in result.e2e.values()), result.e2e
    assert layers <= set(result.layers), sorted(layers - set(result.layers))
    final = run.summary(result, trace=True)
    assert final["correct"] and set(final["metrics"]) == set(PER_LAYER)


@pytest.fixture(scope="module")
def small_catalog():
    workload, profiles = build_inputs(seed=9, scale=0.005)
    router = ShardRouter(CodeTable(OntologyRegistry(workload.ontologies)), 4)
    router.publish_batch(profiles)
    request = workload.matching_request(profiles[7])
    rows = [
        (m.requested.uri, m.service_uri, m.capability.uri, m.distance)
        for m in router.query(request)
    ]
    return Oracle(workload.taxonomy), profiles, request, rows


def test_exact_check_passes_the_true_answer(small_catalog):
    oracle, profiles, request, rows = small_catalog
    assert rows and oracle.check_exact(rows, request, profiles) == []


def test_exact_check_flags_corrupted_answers(small_catalog):
    oracle, profiles, request, rows = small_catalog
    dropped = rows[1:]
    off_by_one = [(*rows[0][:3], rows[0][3] + 1), *rows[1:]]
    stranger = [*rows, (rows[0][0], "urn:repro:service:withdrawn", "urn:repro:capability:x", 0)]
    for corrupted in (dropped, off_by_one, stranger):
        assert oracle.check_exact(corrupted, request, profiles)
    # The withdrawn service is gone from the catalog the oracle scans.
    withdrawn = profiles[7].uri
    remaining = [p for p in profiles if p.uri != withdrawn]
    assert oracle.check_exact(rows, request, remaining)


def test_greedy_check_flags_corrupted_answers(small_catalog):
    oracle, profiles, request, rows = small_catalog
    greedy_rows = [row[1:] for row in rows]
    source = profiles[7].uri
    assert oracle.check_greedy(greedy_rows, request, profiles, source) == []
    off_by_one = [(*greedy_rows[0][:2], greedy_rows[0][2] + 1), *greedy_rows[1:]]
    assert oracle.check_greedy(off_by_one, request, profiles, source)
    without_source = [row for row in greedy_rows if row[0] != source]
    assert oracle.check_greedy(without_source, request, profiles, source)
    assert oracle.check_greedy([], request, profiles, source)


def test_refresh_check_flags_withdrawn_and_missing_services(small_catalog):
    _oracle, profiles, _request, rows = small_catalog
    new = profiles[7].uri
    assert refresh_problems(rows, new, {"urn:repro:service:gone"}) == []
    assert refresh_problems(rows, new, {new})
    assert refresh_problems([row for row in rows if row[1] != new], new, set())


def test_backbone_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        result = run.run_workload("backbone-sim", seed=11, seconds=0.2, trace=False, scale=0.25)
        counts.append((result.layers["net.msgs_per_query"], result.layers["net.bytes_per_query"]))
    assert counts[0] == counts[1]


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(m["unit"] == UNITS[m["name"]] for m in spec["end_to_end"] + spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "catalog-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
