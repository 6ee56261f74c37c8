"""Spans and counts recorded at the boundaries of the mtgender modules.

Tracing wraps public functions from outside: for each traced function, every
``mtgender`` module that binds it (the defining module and the modules that
imported it by name) gets a wrapper, and the originals come back when the
``traced`` block ends. The CLI stages are then run in-process through
``mtgender.cli.run``, so the spans follow the exact calls the stages make.

A span records its name, start, end, parent span and run id, plus counts of
the work done at that boundary (records, items, characters, bytes). ``read_jsonl`` is a generator whose
caller runs between its items, so its span also records ``busy``: the time
spent inside the generator, which is the JSON parse alone. A span's self
time is its duration (or ``busy``) minus what its child spans cover.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict[str, int] = field(default_factory=dict)
    busy: float | None = None

    @property
    def effective(self) -> float:
        return self.busy if self.busy is not None else self.end - self.start


def _records(args, result) -> dict[str, int]:
    return {"records": len(result) if isinstance(result, (list, dict)) else int(result)}


def _classified(args, result) -> dict[str, int]:
    classified = result[0]
    return {"items": len(classified), "chars": sum(len(r.target_text) for r in classified)}


def _file_size(args, result) -> dict[str, int]:
    return {"bytes": os.path.getsize(args[0])}


# (defining module, function, span name, counts of the work done)
POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("mtgender.cli", "cmd_generate", "cli.generate", None),
    ("mtgender.cli", "cmd_translate", "cli.translate", None),
    ("mtgender.cli", "cmd_evaluate", "cli.evaluate", None),
    ("mtgender.cli", "cmd_report", "cli.report", None),
    ("mtgender.templates", "expand_otsc", "templates.expand_otsc", _records),
    ("mtgender.corpus", "write_sentences", "corpus.write_sentences", _records),
    ("mtgender.corpus", "read_sentences", "corpus.read_sentences", _records),
    ("mtgender.fileio", "read_jsonl", "fileio.read_jsonl", None),
    ("mtgender.fileio", "sha256_file", "manifest.digest", _file_size),
    ("mtgender.backends", "translate_batch", "backends.translate_batch", _records),
    ("mtgender.backends", "load_replay_map", "backends.load_replay_map", _records),
    ("mtgender.backends", "read_translations", "backends.read_translations", _records),
    ("mtgender.backends", "write_translations", "backends.write_translations", _records),
    ("mtgender.classify", "classify_batch", "classify.classify_batch", _classified),
    ("mtgender.metrics", "compute_otsc", "metrics.compute", None),
    ("mtgender.metrics", "compute_winomt", "metrics.compute", None),
    ("mtgender.tables", "format_otsc_table", "tables.format", None),
    ("mtgender.tables", "format_winomt_table", "tables.format", None),
)
GENERATORS = {"fileio.read_jsonl"}


class Tracer:
    """Keeps spans in memory; ``run`` names the pipeline round they belong to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                        stack[-1].id if stack else None, self.run)
            self.spans.append(span)
        return span

    def wrap(self, fn: Callable, name: str, measure: Callable | None) -> Callable:
        tracer = self

        def call(*args: Any, **kwargs: Any) -> Any:
            span = tracer._open(name)
            stack = tracer._stack()
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.counts = measure(args, result)
            return result

        def generator(*args: Any, **kwargs: Any) -> Iterator:
            span = tracer._open(name)  # not pushed: the caller runs between items
            inner = fn(*args, **kwargs)
            busy = 0.0
            records = 0
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - start
                        return
                    busy += time.perf_counter() - start
                    records += 1
                    yield item
            finally:
                inner.close()
                span.end = time.perf_counter()
                span.busy = busy
                span.counts = {"records": records}

        return generator if name in GENERATORS else call

    def summary(self, run: str) -> dict[str, dict[str, float]]:
        """Per span name: total (inclusive) seconds, self seconds, calls and counts."""
        spans = [s for s in self.spans if s.run == run]
        children: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                children[span.parent] += span.effective
        out: dict[str, dict[str, float]] = {}
        for span in spans:
            entry = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += span.effective
            entry["self_s"] += span.effective - children[span.id]
            entry["calls"] += 1
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Patch every traced function in the loaded mtgender modules."""
    for name in {module for module, *_ in POINTS}:
        importlib.import_module(name)
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "mtgender"]
    saved = []
    try:
        for module_name, attr, span_name, measure in POINTS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:  # a function this version of the program lacks
                continue
            wrapper = tracer.wrap(original, span_name, measure)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
