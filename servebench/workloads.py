"""Seeded corpora and op streams for the serving benchmark.

Everything here is generated in the benchmark process before a server
starts; the server only ever sees the resulting scenes and request bodies.
The same ``(workload, seed, seconds)`` always yields a byte-identical op
stream (:func:`stream_bytes`), so every run replays the same work whatever
the machine's speed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.datasets.synthetic import SceneParameters, random_picture
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture

#: The shared corpus: seeded random scenes, 8 objects each, labels drawn at
#: random from the 40-label default pool.
CORPUS_IMAGES = 100
SCENE = SceneParameters(object_count=8, label_choice="random")
#: A label no generated scene carries: a query made of it has no candidates,
#: so it forks and warm-starts the shard pool without scoring anything.
ABSENT_LABEL = "warmup"

#: Op classes; every reported latency percentile covers exactly one class.
SEARCH, WHERE, WRITE, BATCH = "search", "where", "write", "batch"
CLASSES = (SEARCH, WHERE, WRITE, BATCH)

#: search-hot: pool size, and every fourth Zipf rank carries a where clause.
HOT_POOL = 48
HOT_WHERE_EVERY = 4
ZIPF_S = 1.1
#: ingest-wal: the hot search pool, and the op pattern repeated per 10 ops
#: (6 durable adds, 2 deletes of images this run added, 2 searches).
INGEST_POOL = 16
INGEST_PATTERN = ("add", "add", "search", "add", "delete", "add", "add", "search", "add", "delete")
#: ingest-wal's compaction threshold, passed explicitly (it is the default).
COMPACT_EVERY = 256
#: batch-shard: each /batch carries 3 never-seen scenes plus one duplicate.
BATCH_FRESH = 3


@dataclass(frozen=True)
class Op:
    """One request of a workload's op stream."""

    index: int
    kind: str  # one of CLASSES
    method: str
    path: str
    body: Optional[bytes]
    timed: bool

    def payload(self) -> Optional[dict]:
        return None if self.body is None else json.loads(self.body)


@dataclass(frozen=True)
class Workload:
    """A named traffic mix and the server it runs against."""

    name: str
    why: str
    #: Extra ``repro serve`` flags beyond the database path and port.
    serve_args: Tuple[str, ...]
    #: The op class whose latency the gated end-to-end metrics report.
    primary: str
    #: Appends the untimed warm-up ops, then ``count`` timed ops.
    build: Callable[["_Stream", int, int], None]
    #: Timed ops per second of ``--seconds`` (sized on a 2-CPU machine so a
    #: run measures about that long; the count never depends on speed).
    ops_per_second: float
    #: Fewest timed ops that still leave 10 primary-class samples beyond p90.
    min_ops: int
    #: Writes between background compactions (``--wal-compact-every``);
    #: nonzero on a durable (``--wal``) workload.
    compact_every: int = 0
    #: A warm-up scatter is part of set-up (forks the shard-worker pool).
    pool_warmup: bool = False

    @property
    def durable(self) -> bool:
        return self.compact_every > 0


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _scenes(seed: int, stream: str, count: int, prefix: str) -> List[SymbolicPicture]:
    rng = random.Random(f"{seed}:{stream}")
    return [random_picture(rng, SCENE, name=f"{prefix}-{index:05d}") for index in range(count)]


def corpus(seed: int, count: int = CORPUS_IMAGES) -> List[SymbolicPicture]:
    """The seeded corpus every workload shares (image ids ``img-00000``...)."""
    return _scenes(seed, "corpus", count, "img")


def where_clause(picture: SymbolicPicture, rng: random.Random) -> str:
    """A graded clause over four of ``picture``'s own objects' labels."""
    a, b, c, d = rng.sample(picture.labels, 4)
    return f"{a} left-of {b} or {c} above {d} [fuzzy]"


def search_body(picture: SymbolicPicture, where: Optional[str] = None) -> bytes:
    payload = {"scene": picture.to_dict(), "limit": 10}
    if where is not None:
        payload["where"] = where
    return _encode(payload)


def warmup_body() -> bytes:
    """A query whose only label is absent from every corpus: no candidates."""
    picture = SymbolicPicture.build(
        width=SCENE.width, height=SCENE.height,
        objects=[(ABSENT_LABEL, Rectangle(1.0, 1.0, 2.0, 2.0))], name="warmup",
    )
    return search_body(picture)


def zipf_weights(count: int, s: float = ZIPF_S) -> List[float]:
    return [1.0 / rank ** s for rank in range(1, count + 1)]


def timed_op_count(workload: Workload, seconds: float) -> int:
    return max(workload.min_ops, round(workload.ops_per_second * seconds))


class _Stream:
    def __init__(self) -> None:
        self.ops: List[Op] = []

    def add(self, kind: str, method: str, path: str, body: Optional[bytes], timed: bool) -> None:
        self.ops.append(Op(len(self.ops), kind, method, path, body, timed))


def build_ops(workload: Workload, seed: int, seconds: float) -> List[Op]:
    """The whole seeded op stream: untimed warm-up ops, then timed ops."""
    stream = _Stream()
    workload.build(stream, seed, timed_op_count(workload, seconds))
    return stream.ops


def _hot_pool(seed: int) -> List[Tuple[str, bytes]]:
    rng = random.Random(f"{seed}:hot-where")
    pool = []
    for rank, picture in enumerate(_scenes(seed, "hot", HOT_POOL, "hot"), start=1):
        if rank % HOT_WHERE_EVERY == 0:
            pool.append((WHERE, search_body(picture, where_clause(picture, rng))))
        else:
            pool.append((SEARCH, search_body(picture)))
    return pool


def _search_hot(stream: _Stream, seed: int, count: int) -> None:
    pool = _hot_pool(seed)
    for kind, body in pool:  # the untimed warm-up pass: every entry once
        stream.add(kind, "POST", "/search", body, False)
    rng = random.Random(f"{seed}:hot-draws")
    for kind, body in rng.choices(pool, weights=zipf_weights(len(pool)), k=count):
        stream.add(kind, "POST", "/search", body, True)


def _ingest_wal(stream: _Stream, seed: int, count: int) -> None:
    pool = [search_body(picture) for picture in _scenes(seed, "ingest-pool", INGEST_POOL, "pool")]
    for body in pool:
        stream.add(SEARCH, "POST", "/search", body, False)
    rng = random.Random(f"{seed}:ingest")
    adds = _scenes(seed, "ingest-adds", count, "new")
    live: List[str] = []
    for position in range(count):
        step = INGEST_PATTERN[position % len(INGEST_PATTERN)]
        if step == "add" or (step == "delete" and not live):
            picture = adds[position]
            live.append(picture.name)
            body = _encode({"scene": picture.to_dict(), "image_id": picture.name})
            stream.add(WRITE, "POST", "/images", body, True)
        elif step == "delete":
            victim = live.pop(rng.randrange(len(live)))
            stream.add(WRITE, "DELETE", f"/images/{victim}", None, True)
        else:
            stream.add(SEARCH, "POST", "/search", rng.choice(pool), True)


def _batch_shard(stream: _Stream, seed: int, count: int) -> None:
    # One untimed warm-up batch, then `count` timed ones.
    scenes = _scenes(seed, "batch", (count + 1) * BATCH_FRESH, "batch")
    rng = random.Random(f"{seed}:batch-dup")
    for index in range(count + 1):
        fresh = scenes[index * BATCH_FRESH:(index + 1) * BATCH_FRESH]
        queries = [{"scene": picture.to_dict(), "limit": 10} for picture in fresh]
        queries.insert(rng.randrange(len(queries) + 1), dict(rng.choice(queries)))
        stream.add(BATCH, "POST", "/batch", _encode({"queries": queries}), index > 0)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "search-hot",
            "Zipf draws from a pre-warmed 48-scene pool: every score is a cache hit, "
            "time goes to HTTP, encode, postings, cache, rank and where predicates",
            (),
            SEARCH,
            _search_hot,
            ops_per_second=250.0,
            min_ops=150,
        ),
        Workload(
            "ingest-wal",
            "durable adds and deletes beside hot searches: encode, index upkeep, "
            "WAL fsync, cache invalidation, compaction and the readers-writer lock",
            ("--wal", "--wal-compact-every", str(COMPACT_EVERY)),
            WRITE,
            _ingest_wal,
            ops_per_second=80.0,
            min_ops=130,
            compact_every=COMPACT_EVERY,
        ),
        Workload(
            "batch-shard",
            "/batch of 3 new scenes plus a duplicate over 2 forked shard workers: "
            "batch dedup, scatter, merge, and the LCS kernel on every new scene",
            ("--shard-workers", "2"),
            BATCH,
            _batch_shard,
            ops_per_second=5.0,
            min_ops=100,
            pool_warmup=True,
        ),
    )
}


def probe_points(workload: Workload, ops: List[Op], count: int) -> List[int]:
    """Indexes of the timed ops before which the client pauses for a set-up probe.

    The points spread evenly over the timed ops, so the probes sample the
    same stretch of machine time as the timed work.  On a durable workload
    the background compactor starts after every ``compact_every``-th write;
    there the candidate points sit at a third and two thirds of the way
    between compactions instead, so no probe overlaps a compaction and no
    compaction stall falls in a pause, and ``count`` of them are picked
    evenly across the run.
    """
    timed = [op.index for op in ops if op.timed]
    if not workload.compact_every:
        return [timed[len(timed) * step // (count + 1)] for step in range(1, count + 1)]
    thirds = {workload.compact_every // 3, 2 * workload.compact_every // 3}
    points, writes = [], 0
    for op in ops:
        if op.kind == WRITE:
            if op.timed and writes % workload.compact_every in thirds:
                points.append(op.index)
            writes += 1
    if len(points) <= count:
        return points
    return [points[step * len(points) // count] for step in range(count)]


def stream_bytes(ops: List[Op]) -> bytes:
    """A canonical byte form of an op stream (the determinism check)."""
    lines = [
        _encode({"i": op.index, "k": op.kind, "m": op.method, "p": op.path, "t": op.timed})
        + b" " + (op.body or b"-")
        for op in ops
    ]
    return b"\n".join(lines)
