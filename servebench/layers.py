"""Per-layer metrics from a traced replay of a workload's op stream.

The traced replay runs the same ops against a server started through
:mod:`launcher`.  Times come from the spans :mod:`tracer` recorded inside
the server (and its shard workers), and so do the cache's eviction and
invalidation counts; the program's other counts come from ``/stats``
deltas around the timed phase.  Each ``.ms`` is self time: span
durations minus their child spans.  Each count or time is per timed op,
except the ``_frac`` ratios and these run totals: ``scatter.restarts``,
``scatter.queue_depth_max``, the ``compaction.*`` counts and times, and
``storage.*``.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from runner import Bench, Replay, replay, throughput

#: name -> (unit, better)
PER_LAYER = {
    "service.roundtrip_ms": ("ms", "lower"),
    "service.dispatch_ms": ("ms", "lower"),
    "service.wire_ms": ("ms", "lower"),
    "service.compile_ms": ("ms", "lower"),
    "service.response_kb": ("KiB", "lower"),
    "engine.ms": ("ms", "lower"),
    "encode.calls": ("count", "lower"),
    "encode.ms": ("ms", "lower"),
    "postings.ms": ("ms", "lower"),
    "postings.candidates": ("count", "lower"),
    "shortlist.ms": ("ms", "lower"),
    "shortlist.admitted_frac": ("1", "lower"),
    "shortlist.pruned_frac": ("1", "higher"),
    "kernel.ms": ("ms", "lower"),
    "kernel.full_pairs": ("count", "lower"),
    "kernel.length_pairs": ("count", "lower"),
    "kernel.us_per_pair": ("us", "lower"),
    "anytime.examined_frac": ("1", "lower"),
    "cache.hit_frac": ("1", "higher"),
    "cache.lookups": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "cache.invalidations": ("count", "lower"),
    "cache.ms": ("ms", "lower"),
    "rank.ms": ("ms", "lower"),
    "predicate.ms": ("ms", "lower"),
    "predicate.evaluated": ("count", "lower"),
    "predicate.pruned_frac": ("1", "higher"),
    "batch.ms": ("ms", "lower"),
    "batch.unique_frac": ("1", "lower"),
    "scatter.ms": ("ms", "lower"),
    "scatter.merge_ms": ("ms", "lower"),
    "scatter.worker_skew": ("1", "lower"),
    "scatter.restarts": ("count", "lower"),
    "scatter.queue_depth_max": ("count", "lower"),
    "wal.append_ms": ("ms", "lower"),
    "wal.fsyncs": ("count", "lower"),
    "wal.bytes": ("B", "lower"),
    "compaction.runs": ("count", "lower"),
    "compaction.busy_s": ("s", "lower"),
    "compaction.rewrite_ratio": ("1", "lower"),
    "compaction.overlapped_ops": ("count", "lower"),
    "storage.load_s": ("s", "lower"),
    "storage.bytes_per_image": ("B", "lower"),
    "lock.read_wait_ms": ("ms", "lower"),
    "lock.write_wait_ms": ("ms", "lower"),
    "trace.overhead_frac": ("1", "lower"),
}
#: Span names whose time belongs to the layer of the span that called them.
INHERIT = {"fsync", "wal.frame"}


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    self_s: float
    request: Optional[int]
    value: Optional[float]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Process:
    """The spans of one process, with parent lookup and layer attribution."""

    def __init__(self, spans: Iterable[list]) -> None:
        self.spans = [Span(*entry) for entry in spans]
        self._by_id = {span.id: span for span in self.spans}

    def parent(self, span: Span) -> Optional[Span]:
        return self._by_id.get(span.parent)

    def layer(self, span: Span) -> str:
        """A span's layer; ``INHERIT`` spans take their caller's."""
        while span.name in INHERIT:
            parent = self.parent(span)
            if parent is None:
                return span.name
            span = parent
        return span.layer


def load_spans(path: Path) -> List[Process]:
    """The server's spans plus one list per shard worker that wrote one."""
    files = [path] + sorted(path.parent.glob(path.name + ".worker-*"))
    return [Process(json.loads(file.read_text())) for file in files if file.is_file()]


def _stat(stats: Dict, dotted: str) -> float:
    value = stats
    for key in dotted.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    return value if isinstance(value, (int, float)) else 0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _pool(stats: Dict) -> Dict:
    """The shard-worker pool block of ``/stats`` (empty without one)."""
    workers = stats.get("workers")
    return (workers.get("pool") or {}) if isinstance(workers, dict) else {}


def traced_run(bench: Bench, untraced_throughput: float) -> Tuple[Dict[str, float], Replay]:
    """Replay ``bench``'s ops on a traced server: the per-layer metrics and the replay."""
    spans_path = bench.work / "spans.json"
    daemon = bench.launch(spans=spans_path)
    try:
        result = replay(daemon, bench.ops)
    finally:
        daemon.stop()
    return layer_metrics(bench, result, load_spans(spans_path), untraced_throughput), result


def layer_metrics(
    bench: Bench, result: Replay, processes: List[Process], untraced_throughput: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced replay (see the module docstring)."""
    first, last = result.timed_started, result.timed_ended
    timed = result.timed
    per_op = len(timed)
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    values: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    top_kernel: Dict[str, int] = defaultdict(int)
    fsyncs: Dict[str, int] = defaultdict(int)
    logged = rewritten = 0.0
    compactions: List[Span] = []
    dispatches: List[Span] = []
    for process in processes:
        for span in process.spans:
            if not first <= span.start <= last:
                continue
            layer = process.layer(span)
            self_s[span.name] += span.self_s
            total_s[span.name] += span.end - span.start
            calls[span.name] += 1
            values[span.name] += span.value or 0
            layer_self[layer] += span.self_s
            parent = process.parent(span)
            if span.layer == "kernel" and (parent is None or parent.layer != "kernel"):
                top_kernel[span.name] += 1
            if span.name == "fsync":
                fsyncs[layer] += 1
            if span.name == "wal.frame":
                if layer == "compaction":
                    rewritten += span.value or 0
                else:
                    logged += span.value or 0
            if span.name == "compaction.shard":
                rewritten += span.value or 0
            if span.name == "compaction":
                compactions.append(span)
            if span.name == "service.dispatch" and span.request is not None:
                dispatches.append(span)
    before, after = result.stats_before, result.stats_after

    def delta(dotted: str) -> float:
        return _stat(after, dotted) - _stat(before, dotted)

    def ms(*layers: str) -> float:
        return sum(layer_self[name] for name in layers) / per_op * 1000.0

    roundtrip = sum(outcome.seconds for outcome in timed) / per_op * 1000.0
    dispatch = total_s["service.dispatch"] / per_op * 1000.0
    # Under --shard-workers the workers' caches serve every score.
    cache_block = "workers.pool.cache" if _pool(after) else "cache"
    hits, misses = delta(f"{cache_block}.hits"), delta(f"{cache_block}.misses")
    candidates = delta("shortlist.candidates")
    pruned = delta("shortlist.bitmap_rejected") + delta("shortlist.relation_rejected")
    evaluated, predicate_pruned = delta("predicates.evaluated"), delta("predicates.pruned")
    kernel_pairs = top_kernel["kernel.full"] + top_kernel["kernel.length"]
    requests = [
        b["requests"] - a["requests"]
        for a, b in zip(_pool(before).get("workers", []), _pool(after).get("workers", []))
    ]
    reports = [o.body.get("report") or "" for o in timed if o.op.kind == "batch" and o.body]
    unique = [re.match(r"(\d+) queries -> (\d+) unique", report) for report in reports]
    overlapped = sum(
        1 for op in dispatches
        if any(op.start < c.end and c.start < op.end for c in compactions)
    )
    load = [span for span in processes[0].spans if span.name == "storage.load"] if processes else []
    corpus_bytes = sum(path.stat().st_size for path in bench.corpus_dir.iterdir())
    return {
        "service.roundtrip_ms": roundtrip,
        "service.dispatch_ms": dispatch,
        "service.wire_ms": roundtrip - dispatch,
        "service.compile_ms": self_s["service.dispatch"] / per_op * 1000.0,
        "service.response_kb": sum(len(outcome.raw) for outcome in timed) / per_op / 1024.0,
        "engine.ms": ms("engine"),
        "encode.calls": calls["encode"] / per_op,
        "encode.ms": ms("encode"),
        "postings.ms": ms("postings"),
        "postings.candidates": values["postings"] / per_op,
        "shortlist.ms": ms("shortlist"),
        "shortlist.admitted_frac": _ratio(delta("shortlist.admitted"), candidates),
        "shortlist.pruned_frac": _ratio(pruned, candidates),
        "kernel.ms": ms("kernel"),
        "kernel.full_pairs": top_kernel["kernel.full"] / per_op,
        "kernel.length_pairs": top_kernel["kernel.length"] / per_op,
        "kernel.us_per_pair": _ratio(layer_self["kernel"], kernel_pairs) * 1e6,
        "anytime.examined_frac": _ratio(delta("execution.examined"), delta("execution.admitted")),
        "cache.hit_frac": _ratio(hits, hits + misses),
        "cache.lookups": (hits + misses) / per_op,
        "cache.evictions": calls["cache.evict"] / per_op,
        "cache.invalidations": values["cache.invalidate"] / per_op,
        "cache.ms": ms("cache"),
        "rank.ms": ms("rank"),
        "predicate.ms": ms("predicate"),
        "predicate.evaluated": evaluated / per_op,
        "predicate.pruned_frac": _ratio(predicate_pruned, evaluated + predicate_pruned),
        "batch.ms": ms("batch"),
        "batch.unique_frac": _ratio(
            sum(int(m.group(2)) for m in unique if m), sum(int(m.group(1)) for m in unique if m)
        ),
        "scatter.ms": self_s["scatter"] / per_op * 1000.0,
        "scatter.merge_ms": self_s["scatter.merge"] / per_op * 1000.0,
        "scatter.worker_skew": (
            _ratio(max(requests), sum(requests) / len(requests)) if requests else 0.0
        ),
        "scatter.restarts": delta("workers.pool.restarts"),
        "scatter.queue_depth_max": _stat(after, "workers.pool.max_queue_depth"),
        "wal.append_ms": ms("wal"),
        "wal.fsyncs": fsyncs["wal"] / per_op,
        "wal.bytes": logged / per_op,
        "compaction.runs": len(compactions),
        "compaction.busy_s": sum(span.end - span.start for span in compactions),
        "compaction.rewrite_ratio": _ratio(rewritten, logged),
        "compaction.overlapped_ops": overlapped,
        "storage.load_s": load[0].end - load[0].start if load else 0.0,
        "storage.bytes_per_image": corpus_bytes / len(bench.corpus_ids),
        "lock.read_wait_ms": total_s["lock.read"] / per_op * 1000.0,
        "lock.write_wait_ms": total_s["lock.write"] / per_op * 1000.0,
        "trace.overhead_frac": 1.0 - throughput(result) / untraced_throughput,
    }
