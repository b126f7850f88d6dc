"""Answer checks: recompute a seeded sample of served answers in-process.

The oracle is the engine at its slowest and simplest settings: reference
LCS kernel, exhaustive strategy, score cache off.  A served ranking passes
when its rows (ids, scores, tie order and every other field) equal the
oracle's rows exactly.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro import RetrievalSystem
from repro.iconic.picture import SymbolicPicture

from workloads import CLASSES, WRITE, Op

#: Timed ops of each class whose answers are recomputed per run.
CHECKS_PER_CLASS = 4
ORACLE_EXECUTION = {"kernel": "reference", "strategy": "exhaustive", "cache": False}


def _normalized(rows: object) -> object:
    return json.loads(json.dumps(rows))


def oracle_rows(system: RetrievalSystem, query: Dict) -> List[Dict]:
    """The oracle's ranking for one ``/search``-schema query payload."""
    builder = system.query().similar_to(SymbolicPicture.from_dict(query["scene"]))
    if "where" in query:
        builder.where(query["where"])
    builder.limit(query.get("limit", 10)).min_score(0.0)
    builder.execution(**ORACLE_EXECUTION)
    return _normalized(builder.execute().to_dicts())


def rankings_equal(served: Sequence[Dict], expected: Sequence[Dict]) -> bool:
    """Exact row-by-row equality after a JSON round trip of both sides."""
    return _normalized(list(served)) == _normalized(list(expected))


def sample_ops(ops: Sequence[Op], seed: int) -> Set[int]:
    """A seeded sample of up to ``CHECKS_PER_CLASS`` timed ops per query class."""
    rng = random.Random(f"{seed}:check")
    chosen: Set[int] = set()
    for kind in CLASSES:
        if kind == WRITE:
            continue  # writes are checked through the final id set instead
        indexes = [op.index for op in ops if op.timed and op.kind == kind]
        chosen.update(rng.sample(indexes, min(CHECKS_PER_CLASS, len(indexes))))
    return chosen


class Oracle:
    """Replays the op stream's mutations and answers sampled queries."""

    def __init__(self, corpus_dir: Path) -> None:
        self.system = RetrievalSystem.from_file(corpus_dir)

    def apply(self, op: Op) -> None:
        """Mirror an acknowledged write."""
        if op.method == "POST":
            payload = op.payload()
            picture = SymbolicPicture.from_dict(payload["scene"])
            self.system.add_picture(picture, payload["image_id"])
        else:
            self.system.remove_picture(op.path.rsplit("/", 1)[1])

    def expected(self, op: Op) -> List[List[Dict]]:
        """One oracle ranking per query the op carries."""
        payload = op.payload()
        queries = payload["queries"] if op.path == "/batch" else [payload]
        return [oracle_rows(self.system, query) for query in queries]


def served_rankings(op: Op, body: Dict) -> List[List[Dict]]:
    if op.path == "/batch":
        return body["results"]
    return [body["results"]]


def check_answers(
    corpus_dir: Path,
    ops: Sequence[Op],
    bodies: Dict[int, Dict],
    acknowledged: Iterable[int],
    sample: Set[int],
) -> Dict[int, bool]:
    """Recompute every sampled op; ``{op index: answer matched}``.

    ``acknowledged`` names the write ops the server acknowledged, replayed
    in stream order so each sampled query sees the database it was served
    against.
    """
    oracle = Oracle(corpus_dir)
    acked = set(acknowledged)
    verdicts: Dict[int, bool] = {}
    for op in ops:
        if op.kind == WRITE:
            if op.index in acked:
                oracle.apply(op)
        elif op.index in sample:
            body: Optional[Dict] = bodies.get(op.index)
            expected = oracle.expected(op)
            served = served_rankings(op, body) if body is not None else []
            verdicts[op.index] = len(served) == len(expected) and all(
                map(rankings_equal, served, expected)
            )
    return verdicts


def expected_ids(
    corpus_ids: Iterable[str], ops: Sequence[Op], acknowledged: Iterable[int]
) -> Set[str]:
    """The id set implied by the corpus plus every acknowledged write."""
    ids = set(corpus_ids)
    acked = set(acknowledged)
    for op in ops:
        if op.kind == WRITE and op.index in acked:
            if op.method == "POST":
                ids.add(op.payload()["image_id"])
            else:
                ids.discard(op.path.rsplit("/", 1)[1])
    return ids
