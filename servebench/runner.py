"""One benchmark run: set up, replay a workload's op stream, check, measure."""

from __future__ import annotations

import http.client
import json
import os
import platform
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro import RetrievalSystem

import oracle
from daemon import Daemon
from stats import block_percentile, summarize
from workloads import (
    BATCH,
    CLASSES,
    WRITE,
    Op,
    Workload,
    build_ops,
    corpus,
    probe_points,
    warmup_body,
)

#: Set-up probes per run: the client pauses at this many points spread over
#: the timed phase, launches and stops a second server, and resumes.
#: ``setup_s`` is the median over the serving launch and the probes, so the
#: samples cover the same stretch of machine time as the timed work and one
#: slow CPU episode cannot set it.  Pauses are not timed.
SETUP_PROBES = 8
#: Gated end-to-end metrics, reported from untraced runs only.  The primary
#: class's p50 and the run's ``throughput_ops`` are in the report but not
#: gated: a slow CPU episode shifts the bulk of a run's latencies, which
#: moves p50 and the mean rate up to twice as far as p90 from run to run.
END_TO_END = {
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
CALIBRATION_LOOP = 1_000_000


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: spots slow CPU episodes."""
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOP):
        total += value
    return (time.perf_counter() - started) * 1000.0


def environment() -> Dict[str, object]:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
    }


@dataclass
class Outcome:
    """What the server answered to one op."""

    op: Op
    status: int
    seconds: float
    started: float
    ended: float
    raw: bytes = b""
    body: Optional[Dict] = None
    ok: bool = False


@dataclass
class Replay:
    outcomes: List[Outcome]
    timed_wall_s: float
    stats_before: Dict
    stats_after: Dict
    timed_started: float = 0.0
    timed_ended: float = 0.0

    @property
    def timed(self) -> List[Outcome]:
        return [outcome for outcome in self.outcomes if outcome.op.timed]


@dataclass
class Bench:
    """Paths and inputs shared by every launch of one run."""

    workload: Workload
    seed: int
    seconds: float
    src: Path
    work: Path
    ops: List[Op] = field(default_factory=list)
    corpus_dir: Path = Path()
    corpus_ids: List[str] = field(default_factory=list)
    launches: int = 0

    def prepare(self) -> None:
        pictures = corpus(self.seed)
        self.corpus_ids = [picture.name for picture in pictures]
        self.corpus_dir = self.work / "corpus"
        RetrievalSystem.from_pictures(pictures).save(self.corpus_dir, backend="sharded")
        self.ops = build_ops(self.workload, self.seed, self.seconds)

    def database(self) -> Path:
        """The directory a new launch serves (a fresh copy under --wal)."""
        if not self.workload.durable:
            return self.corpus_dir
        target = self.work / f"db-{self.launches}"
        shutil.copytree(self.corpus_dir, target)
        return target

    def launch(self, spans: Optional[Path] = None, database: Optional[Path] = None) -> Daemon:
        """Start a daemon and finish its lazy set-up; records ``setup_s``."""
        self.launches += 1
        daemon = Daemon(
            self.src,
            database or self.database(),
            self.workload.serve_args,
            self.work / f"server-{self.launches}.log",
            spans_path=spans,
        )
        try:
            if self.workload.pool_warmup:
                status, raw, _ = daemon.request("POST", "/search", warmup_body())
                if status != 200:
                    raise RuntimeError(f"shard-pool warm-up answered {status}: {raw[:200]!r}")
        except BaseException:
            daemon.stop()
            raise
        daemon.setup_s = time.perf_counter() - daemon.started
        return daemon


def replay(
    daemon: Daemon,
    ops: Sequence[Op],
    probes: Collection[int] = (),
    probe: Optional[Callable[[], None]] = None,
) -> Replay:
    """Send every op in order, one in flight; ``/stats`` brackets the timed ops.

    Before each op whose index is in ``probes`` (timed ops after the first),
    the client pauses and calls ``probe``; the pause is left out of the
    timed wall time.  Each request carries its op index as ``X-Request-Id``;
    only a traced server reads it.
    """
    outcomes: List[Outcome] = []
    stats_before: Dict = {}
    paused = 0.0
    for op in ops:
        if op.timed and not stats_before:
            stats_before = daemon.json("GET", "/stats")
        if op.index in probes:
            pause_started = time.perf_counter()
            probe()
            paused += time.perf_counter() - pause_started
        started = time.perf_counter()
        try:
            status, raw, seconds = daemon.request(op.method, op.path, op.body, op.index)
        except (OSError, http.client.HTTPException) as error:
            status, raw, seconds = 0, str(error).encode(), 0.0
        outcomes.append(Outcome(op, status, seconds, started, time.perf_counter(), raw))
    stats_after = daemon.json("GET", "/stats")
    for outcome in outcomes:
        outcome.body, outcome.ok = _parse(outcome)
    timed = [outcome for outcome in outcomes if outcome.op.timed]
    first, last = timed[0].started, timed[-1].ended
    return Replay(outcomes, last - first - paused, stats_before, stats_after, first, last)


def throughput(result: Replay) -> float:
    """Timed ops completed divided by timed wall time."""
    return len(result.timed) / result.timed_wall_s


def _parse(outcome: Outcome) -> tuple:
    """``(body, structurally ok)`` for one answer."""
    if not 200 <= outcome.status < 300:
        return None, False
    try:
        body = json.loads(outcome.raw)
    except ValueError:
        return None, False
    op = outcome.op
    payload = op.payload()
    if op.kind == WRITE:
        if op.method == "POST":
            return body, body.get("image_id") == payload["image_id"] and "lsn" in body
        return body, body.get("removed") == op.path.rsplit("/", 1)[1] and "lsn" in body
    if op.kind == BATCH:
        results = body.get("results")
        return body, isinstance(results, list) and len(results) == len(payload["queries"])
    results = body.get("results")
    return body, isinstance(results, list) and len(results) <= payload["limit"]


def listed_ids(daemon: Daemon) -> List[str]:
    """Every stored image id, via a full-scan query with no limit."""
    payload = json.loads(warmup_body())
    payload.update(no_filters=True, limit=None)
    return [row["image_id"] for row in daemon.json("POST", "/search", payload)["results"]]


def check(bench: Bench, result: Replay, daemon: Daemon) -> Dict:
    """Answer checks; leaves ``daemon`` stopped."""
    ops = bench.ops
    acked = [o.op.index for o in result.outcomes if o.op.kind == WRITE and o.ok]
    checks: Dict[str, object] = {}
    id_ok = True
    if bench.workload.durable:
        expected = oracle.expected_ids(bench.corpus_ids, ops, acked)
        served = set(listed_ids(daemon))
        database = Path(daemon.database)
        daemon.stop()
        restarted = bench.launch(database=database)
        try:
            replayed = set(listed_ids(restarted))
        finally:
            restarted.stop()
        checks["ids_expected"] = len(expected)
        checks["ids_live_match"] = served == expected
        checks["ids_after_restart_match"] = replayed == expected
        id_ok = served == expected and replayed == expected
    else:
        daemon.stop()
    sample = oracle.sample_ops(ops, bench.seed)
    bodies = {o.op.index: o.body for o in result.outcomes if o.body is not None}
    verdicts = oracle.check_answers(bench.corpus_dir, ops, bodies, acked, sample)
    by_class = {kind: 0 for kind in CLASSES}
    for index in verdicts:
        by_class[ops[index].kind] += 1
    by_class[WRITE] = len(acked) if bench.workload.durable and id_ok else 0
    checks["checked_ops"] = {kind: count for kind, count in by_class.items() if count}
    checks["wrong_answers"] = sorted(index for index, good in verdicts.items() if not good)
    checks["ids_ok"] = id_ok
    return checks


def verdict(result: Replay, checks: Dict, traced: Optional[Replay] = None) -> Tuple[bool, int, int]:
    """``(correct, attempted, failed)`` of a run.

    ``failed`` counts timed ops that failed or answered wrong.  A traced
    replay's ops, timed or not, count into ``attempted`` and, when they
    failed, into ``failed``: its per-layer figures are only as good as its
    answers.
    """
    timed = result.timed
    failed = len({o.op.index for o in timed if not o.ok} | set(checks["wrong_answers"]))
    attempted = len(timed)
    correct = not failed and checks["ids_ok"] and all(o.ok for o in result.outcomes)
    if traced is not None:
        traced_failed = sum(1 for o in traced.outcomes if not o.ok)
        attempted += len(traced.outcomes)
        failed += traced_failed
        correct = correct and not traced_failed
    return correct, attempted, failed


TraceRun = Callable[[Bench, float], Tuple[Dict[str, float], Replay]]


def measure(bench: Bench, trace_run: Optional[TraceRun] = None) -> Dict:
    """Run one untraced measurement; with ``trace_run``, also the traced replay.

    A traced run skips the set-up probes: it reports no ``setup_s``, and its
    untraced replay is the throughput baseline for the traced one.
    """
    report: Dict[str, object] = {
        "workload": bench.workload.name,
        "seed": bench.seed,
        "seconds": bench.seconds,
        "environment": environment(),
        "calibration_ms": {"before": calibrate()},
    }
    bench.prepare()
    daemon = bench.launch()
    setups = [daemon.setup_s]

    def probe() -> None:
        extra = bench.launch()
        extra.stop()
        setups.append(extra.setup_s)

    probes = () if trace_run else set(probe_points(bench.workload, bench.ops, SETUP_PROBES))
    try:
        result = replay(daemon, bench.ops, probes, probe)
        rss = daemon.peak_rss_mb()
        checks = check(bench, result, daemon)
    finally:
        daemon.stop()
    timed = result.timed
    classes = {}
    for kind in CLASSES:
        latencies = [o.seconds * 1000.0 for o in timed if o.op.kind == kind]
        if latencies:
            classes[kind] = {"count": len(latencies), **summarize(latencies, (0.5, 0.9, 0.99))}
    primary = [o.seconds * 1000.0 for o in timed if o.op.kind == bench.workload.primary]
    metrics = {
        "op_p90_ms": block_percentile(primary, 0.9),
        "throughput_ops": throughput(result),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    traced = None
    if trace_run is not None:
        report["layers"], traced = trace_run(bench, metrics["throughput_ops"])
    correct, attempted, failed = verdict(result, checks, traced)
    report.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        error_frac=failed / attempted,
        checks=checks,
        launches_s=setups,
        classes=classes,
        metrics=metrics,
        timed_wall_s=result.timed_wall_s,
    )
    report["calibration_ms"]["after"] = calibrate()
    return report
