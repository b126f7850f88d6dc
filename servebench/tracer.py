"""Span recording around each layer's entry points, inside the server process.

:func:`install` wraps the public entry points of every layer the benchmark
reports on.  A wrapped call records one span: id, parent span, name,
start, end, self time (duration minus its child spans) and the request id
of the HTTP request being served (the ``X-Request-Id`` header the client
sets to its op index).  Functions are wrapped in *every* ``repro`` module
that bound them at import, not only where they are defined, because
``repro.index.query`` looks its kernel, encode, rank and signature
functions up in its own namespace.

Spans stay in memory and are written out by :meth:`Recorder.dump` at shutdown.
Forked shard workers inherit the wrappers; each writes its own file when
its request loop ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, List, Optional, Tuple


def _length(args, result):
    return len(result)


def _count(args, result):
    return int(result)


def _file_size(args, result):
    return os.path.getsize(args[1])


#: (module, function, span name, ``value(args, result)`` recorded or None)
FUNCTIONS = (
    ("repro.core.construct", "encode_picture", "encode", None),
    ("repro.core.similarity", "similarity", "kernel.full", None),
    ("repro.core.similarity", "invariant_similarity", "kernel.full", None),
    ("repro.core.similarity", "similarity_score", "kernel.length", None),
    ("repro.core.similarity", "invariant_similarity_score", "kernel.length", None),
    ("repro.core.lcskernel", "be_lcs_length_bitparallel", "kernel.length", None),
    ("repro.index.ranking", "rank_results", "rank", None),
    ("repro.index.shortlist", "signature_for", "shortlist.signature", None),
    ("repro.index.shortlist", "tree_degree_bound", "predicate.bound", None),
    ("repro.retrieval.predicates", "evaluate_tree", "predicate.tree", None),
    ("repro.retrieval.predicates", "evaluate_predicates", "predicate.crisp", None),
    ("repro.index.workers", "merge_gather", "scatter.merge", None),
    ("repro.index.wal", "_frame", "wal.frame", _length),
    ("repro.index.backends", "load_database_from", "storage.load", None),
    ("os", "fsync", "fsync", None),
)
#: (module, class, method, span name, ``value(args, result)`` recorded or None)
METHODS = (
    ("repro.service.server", "RetrievalService", "dispatch", "service.dispatch", None),
    ("repro.index.query", "QueryEngine", "execute_spec", "engine.query", None),
    ("repro.index.query", "QueryEngine", "add_picture", "engine.add", None),
    ("repro.index.query", "QueryEngine", "remove_picture", "engine.remove", None),
    ("repro.index.query", "QueryEngine", "_shortlist", "shortlist", None),
    ("repro.index.query", "QueryEngine", "run_batch", "batch", None),
    ("repro.index.inverted", "InvertedSymbolIndex", "candidates", "postings", _length),
    ("repro.index.cache", "ScoreCache", "get", "cache.get", None),
    ("repro.index.cache", "ScoreCache", "put", "cache.put", None),
    ("repro.index.cache", "ScoreCache", "invalidate_image", "cache.invalidate", _count),
    # Called once per LRU eviction, from ``put``.
    ("repro.index.cache", "ScoreCache", "_discard_image_key", "cache.evict", None),
    ("repro.index.workers", "ShardWorkerPool", "execute_many", "scatter", None),
    ("repro.index.wal", "WriteAheadLog", "append", "wal.append", None),
    ("repro.index.backends", "DurableShardedStore", "compact", "compaction", None),
    ("repro.index.backends", "ShardedBackend", "_write_shard", "compaction.shard", _file_size),
    ("repro.service.rwlock", "ReadWriteLock", "acquire_read", "lock.read", None),
    ("repro.service.rwlock", "ReadWriteLock", "acquire_write", "lock.write", None),
)


class Recorder:
    """The spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.spans: List[Tuple] = []
        self.local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def traced(self, name: str, func: Callable, value: Optional[Callable] = None) -> Callable:
        """``func`` recording one span per call (``value(args, result)`` rides along)."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [next(self._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            measured = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                if value is not None:
                    measured = value(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append(
                    (frame[0], parent, name, start, end, end - start - frame[1],
                     getattr(self.local, "request", None), measured)
                )

        return wrapper

    def dump(self, path: Optional[str] = None) -> None:
        """Write every recorded span as one JSON array of arrays."""
        target = path or self.path
        temporary = f"{target}.tmp"
        with open(temporary, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))
        os.replace(temporary, target)


def _wrap_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` in every loaded ``repro`` module that imported it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, bound in list(vars(module).items()):
            if bound is original:
                setattr(module, attribute, replacement)


def install(spans_path: str) -> Recorder:
    """Wrap every layer entry point; the recorder writes ``spans_path`` at shutdown."""
    recorder = Recorder(spans_path)
    importlib.import_module("repro.cli")
    for module_name in {entry[0] for entry in FUNCTIONS + METHODS}:
        importlib.import_module(module_name)
    for module_name, function, name, value in FUNCTIONS:
        module = sys.modules[module_name]
        original = getattr(module, function)
        replacement = recorder.traced(name, original, value)
        setattr(module, function, replacement)
        _wrap_everywhere(original, replacement)
    for module_name, class_name, method, name, value in METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        setattr(cls, method, recorder.traced(name, getattr(cls, method), value))
    _install_service_hooks(recorder)
    return recorder


def _install_service_hooks(recorder: Recorder) -> None:
    """Request ids from the ``X-Request-Id`` header, and a span file per shard worker."""
    server = sys.modules["repro.service.server"]
    workers = sys.modules["repro.index.workers"]
    handle = server._RequestHandler._handle

    def _handle(self, method):
        request = self.headers.get("X-Request-Id")
        recorder.local.request = int(request) if request and request.isdigit() else None
        try:
            return handle(self, method)
        finally:
            recorder.local.request = None

    server._RequestHandler._handle = _handle

    worker_main = workers._worker_main

    def _worker_main(config, connection):
        # The fork copied the parent's spans and the forking thread's stack.
        recorder.spans.clear()
        recorder.local = threading.local()
        try:
            worker_main(config, connection)
        finally:
            recorder.dump(f"{recorder.path}.worker-{os.getpid()}")

    workers._worker_main = _worker_main
