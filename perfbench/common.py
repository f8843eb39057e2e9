"""Shared plumbing of the discovery benchmark: timing, result assembly.

Every workload module exposes a ``run_*(seed, seconds, trace, scale)
-> Result`` function.  ``scale`` shrinks catalogs and op pools for the self-tests;
the benchmark proper always runs at ``scale=1.0``.
"""

from __future__ import annotations

import gc
import resource
from statistics import median
import time
from dataclasses import dataclass, field

#: Unit of every metric a workload may report (end-to-end and per-layer).
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "wire.frame_bytes": "B",
    "xml_codec.request_parse_us": "us",
    "cache.request_hit_ratio": "1",
    "sariadne.local_query_us": "us",
    "live.unattributed_us": "us",
    "xml_codec.profile_parse_us": "us",
    "semantic_dir.publish_us": "us",
    "codes.table_build_s": "s",
    "router.admit_us": "us",
    "router.fanout": "1",
    "flat_dir.query_us": "us",
    "packed.rows_evaluated": "1",
    "packed.match_yield": "1",
    "router.merge_us": "us",
    "router.publish_batch_s": "s",
    "router.unpublish_us": "us",
    "router.publish_us": "us",
    "flat_dir.first_query_us": "us",
    "packed.rebuild_ms": "ms",
    "gc.pause_ms": "ms",
    "sim.events_per_query": "1",
    "sim.event_us": "us",
    "route.bfs_per_query": "1",
    "sariadne.summary_admit_us": "us",
    "sariadne.peers_per_query": "1",
    "sariadne.forward_yield": "1",
    "net.msgs_per_query": "1",
    "net.bytes_per_query": "B",
    "trace.overhead": "1",
}

END_TO_END = ("setup_s", "peak_rss_mb")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)


@dataclass
class Result:
    """What one workload run hands back to ``run.py``.

    ``ops`` maps each operation type to ``[attempted, failed]``;
    ``e2e``/``layers`` hold raw metric values (units come from
    :data:`UNITS`); ``info`` is printed for people, never parsed.  The
    run's throughput and latency (``ops_per_s``, ``op_p50_ms``) are info:
    README.md gives their run-to-run spread, too wide on this machine
    for a bound.
    """

    ops: dict[str, list[int]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(counts[0] for counts in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(counts[1] for counts in self.ops.values())


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    for q in (99.0, 90.0):
        if len(samples) * (100.0 - q) / 100.0 >= 10:
            return q, percentile(samples, q)
    return 50.0, percentile(samples, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class GcPauses:
    """Collector pause time in this process, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.total = 0.0
        self._started = 0.0

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._started

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self._callback)


class Stopwatch:
    """Accumulates timed calls per layer name: total seconds and count."""

    def __init__(self) -> None:
        self.total: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self.total[name] = self.total.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + calls

    def mean_us(self, name: str) -> float:
        return self.total[name] / self.calls[name] * 1e6


def timed_blocks(seconds: float, block, blocks_available: int | None = None) -> list[float]:
    """Run ``block(number)`` whole until ``seconds`` have elapsed.

    Stopping only between blocks makes every run attempt whole rounds of
    the same operations.  Returns the duration of every block run.
    """
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    while not durations or time.perf_counter() < deadline:
        if blocks_available is not None and len(durations) >= blocks_available:
            break
        started = time.perf_counter()
        block(len(durations))
        durations.append(time.perf_counter() - started)
    return durations


#: Sustained figures hold in this share of a run's blocks.
SUSTAINED = 90.0


def block_rate(ops_per_block: list[int], durations: list[float]) -> float:
    """The rate reached by ``SUSTAINED``% of the blocks (a low percentile
    of the per-block rates)."""
    rates = [ops / duration for ops, duration in zip(ops_per_block, durations)]
    return percentile(rates, 100.0 - SUSTAINED)


def sustained_setup(seconds: list[float]) -> float:
    """The set-up time that 90% of a run's set-ups stay within (the
    slowest, for the handful of set-ups a run affords)."""
    return percentile(seconds, SUSTAINED)


def add_throughput(result: Result, ops_per_block: list[int], durations: list[float]) -> None:
    """Info ``ops_per_s``: the rate sustained in 90% of the blocks.

    This machine alternates between a slow, steady state and a fast,
    erratic one (another tenant's load comes and goes): one fixed scan
    ran 460–520 queries/s in the first and 500–870 in the second.  The
    mean or median of a run follows the mix of states it happened to
    catch; a low percentile of the block rates tracks the steady state.
    """
    result.info["ops_per_s"] = block_rate(ops_per_block, durations)
    result.info["ops_per_s_mean"] = round(sum(ops_per_block) / sum(durations), 4)
    result.info["blocks"] = len(durations)


def add_latency_info(result: Result, samples: list[float], block: int) -> None:
    """Info ``op_p50_ms``: the median operation time sustained in 90% of
    the blocks (a high percentile of the per-block medians; see
    :func:`add_throughput`), with the pooled median and the tail."""
    medians = [median(samples[i : i + block]) for i in range(0, len(samples), block)]
    result.info["op_p50_ms"] = percentile(medians, SUSTAINED) * 1e3
    result.info["op_samples"] = len(samples)
    result.info["op_p50_pooled_ms"] = round(percentile(samples, 50.0) * 1e3, 4)
    q, value = tail_percentile(samples)
    if q > 50.0:
        result.info[f"op_p{q:g}_ms"] = round(value * 1e3, 4)
