"""The streaming analysis driver: chunk → fold → cache → merge.

``AnalysisEngine`` computes every registered aggregate's output from a
dataset directory in one pass per channel, without loading the dataset
into memory:

1. **Plan** — each channel file is split into deterministic
   line-aligned byte ranges (:mod:`repro.analysis.chunks`).
2. **Fold** — workers parse each chunk's rows once (raw dicts, no
   record dataclasses) and fold them into one partial state per
   aggregate.  ``--workers N`` fans chunks across a process pool the
   same way the scan engine fans shards; like there, worker count
   never affects output because
3. **Merge** — each chunk's partials merge into one running state per
   (aggregate, channel) as the chunk's outcome arrives, in
   (channel, byte offset) order, and the outcome is then dropped; at
   the end each aggregate merges its channels' states in its own
   ``channels`` order and finalizes.  That reproduces the exact dict
   insertion order of one in-memory pass
   (:func:`repro.core.aggregate.fold_records`).
4. **Cache** — each chunk's partials persist under
   ``<dataset>/.analysis/`` keyed by the sha256 of the chunk's bytes
   plus each aggregate's spec fingerprint
   (:func:`repro.scanner.checkpoint.fingerprint_digest`), so re-running
   after a ``--resume`` or with a tweaked aggregate set only re-folds
   chunks whose bytes or specs actually changed.  A cache file that is
   unreadable or malformed counts as a miss and is refolded.

Resident memory is one chunk's rows and partials, the running states
and the outputs: neither the corpus nor the other chunks' partials are
ever resident.  On the ``analysis`` benchmark corpus (500 domains, 63
days) tracemalloc puts one warm run's peak at 12.9 MB, 9.9 MB of it the
returned result (26.5 MB while every chunk's outcome was kept until
the merge).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.metrics import METRICS
from ..scanner.checkpoint import fingerprint_digest
from ..scanner.datastore import channel_path, read_meta
from .aggregates import ShardAggregate, default_aggregates
from .chunks import (
    DEFAULT_CHUNK_BYTES,
    Chunk,
    channels_in_order,
    parse_chunk,
    plan_chunks,
    read_chunk,
)

CACHE_SCHEMA = "repro-analysis/1"
CACHE_DIR_NAME = ".analysis"


@dataclass
class ChunkOutcome:
    """One worker's result for one chunk."""

    chunk: Chunk
    rows: int
    states: Dict[str, object]
    cache_hit: bool


@dataclass
class AnalysisResult:
    """Finalized aggregate outputs plus run bookkeeping."""

    directory: str
    meta: dict
    outputs: Dict[str, object]
    channel_rows: Dict[str, int]
    chunks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1
    elapsed_seconds: float = 0.0

    # -- convenience accessors used by report/audit wiring ---------------

    @property
    def always_present(self) -> set:
        return set(self.meta.get("always_present") or [])

    @property
    def ranks(self) -> dict:
        return self.meta.get("ranks") or {}

    def rows(self, channel: str) -> int:
        return self.channel_rows.get(channel, 0)

    def spans(self, name: str, domains: Optional[set] = None) -> dict:
        """A SpanAggregate output, optionally restricted to ``domains``
        (the same filter :func:`repro.core.collect_spans` applies)."""
        result = self.outputs[name]
        if domains is None:
            return result
        return {d: s for d, s in result.items() if d in domains}

    def trusted_domains(self, name: str = "ticket_waterfall") -> set:
        """Browser-trusted domains from a support scan's aggregate."""
        trusted = self.outputs[name]["trusted"]
        return {domain for domain, ok in trusted.items() if ok}


@contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off.

    Fold states, cache payloads and span outputs are acyclic (dicts,
    lists and strings from JSON, plus dataclasses over them), so
    reference counting frees all of them; the collector's passes would
    only re-scan the growing fold state and find nothing.  The
    collector is re-enabled on exit only if it was on before, so a
    caller that turned it off keeps it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _cache_file(cache_dir: str, chunk: Chunk) -> str:
    return os.path.join(
        cache_dir, f"{chunk.channel}-{chunk.start:012d}-{chunk.end:012d}.json"
    )


def _spec_digests(aggregates: Sequence[ShardAggregate]) -> Dict[str, str]:
    return {agg.name: fingerprint_digest(agg.spec()) for agg in aggregates}


def _load_cached(path: str, chunk: Chunk, digest: str,
                 needed: Sequence[ShardAggregate],
                 specs: Dict[str, str]) -> Optional[ChunkOutcome]:
    """The cached outcome for ``chunk``, or None for a miss.

    Anything unexpected in the file (unreadable, not a dict, stale
    schema or bytes, a malformed ``states`` entry) is a miss, so the
    chunk is simply refolded.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != CACHE_SCHEMA or payload.get("sha256") != digest:
        return None
    stored, rows = payload.get("states"), payload.get("rows")
    if not isinstance(stored, dict) or not isinstance(rows, int):
        return None
    states: Dict[str, object] = {}
    for agg in needed:
        entry = stored.get(agg.name)
        if (not isinstance(entry, dict)
                or entry.get("spec") != specs[agg.name]
                or not isinstance(entry.get("state"), type(agg.zero()))):
            return None
        states[agg.name] = entry["state"]
    return ChunkOutcome(chunk=chunk, rows=rows, states=states, cache_hit=True)


def _write_cache(path: str, chunk: Chunk, digest: str, rows: int,
                 states: Dict[str, object], specs: Dict[str, str]) -> None:
    payload = {
        "schema": CACHE_SCHEMA,
        "chunk": {"channel": chunk.channel, "start": chunk.start,
                  "end": chunk.end},
        "sha256": digest,
        "rows": rows,
        "states": {
            name: {"spec": specs[name], "state": state}
            for name, state in states.items()
        },
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        # One-shot dumps runs the C encoder; streaming json.dump never
        # does.  No sort_keys: state key order is load-bearing.  The
        # payload is acyclic JSON data, so skipping the circular
        # reference check writes the same bytes.
        fh.write(json.dumps(payload, check_circular=False))
    os.replace(tmp, path)


def _run_chunk(task) -> ChunkOutcome:
    """Worker entry point: fold one chunk for every aggregate that reads
    its channel (top-level function so the process pool can pickle it)."""
    directory, chunk, aggregates, specs, use_cache = task
    with _collector_paused():
        needed = [a for a in aggregates if chunk.channel in a.channels]
        blob = read_chunk(channel_path(directory, chunk.channel),
                          chunk.start, chunk.end)
        digest = hashlib.sha256(blob).hexdigest()
        cache_dir = os.path.join(directory, CACHE_DIR_NAME)
        cache_path = _cache_file(cache_dir, chunk)
        if use_cache:
            cached = _load_cached(cache_path, chunk, digest, needed, specs)
            if cached is not None:
                return cached
        rows = parse_chunk(blob)
        states = {
            agg.name: agg.fold(agg.zero(), chunk.channel, rows)
            for agg in needed
        }
        if use_cache:
            os.makedirs(cache_dir, exist_ok=True)
            _write_cache(cache_path, chunk, digest, len(rows), states, specs)
        return ChunkOutcome(chunk=chunk, rows=len(rows), states=states,
                            cache_hit=False)


@dataclass
class AnalysisEngine:
    """Streams a dataset directory through the registered aggregates."""

    directory: str
    aggregates: List[ShardAggregate] = field(default_factory=default_aggregates)
    workers: int = 1
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    use_cache: bool = True

    def channels(self) -> List[str]:
        """Channels consumed by the aggregate set, first-use order."""
        return channels_in_order(
            channel for agg in self.aggregates for channel in agg.channels
        )

    def _outcomes(self, tasks: list) -> Iterator[ChunkOutcome]:
        """Each task's outcome, in submission order: (channel, offset).

        ``pool.map`` yields in submission order no matter which worker
        finishes first, so the worker count never changes the order.
        """
        if self.workers > 1 and len(tasks) > 1:
            pool_size = min(self.workers, len(tasks))
            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                yield from pool.map(_run_chunk, tasks)
        else:
            yield from map(_run_chunk, tasks)

    def run(self) -> AnalysisResult:
        started = time.monotonic()
        meta = read_meta(self.directory)
        channels = self.channels()
        plan = plan_chunks(self.directory, channels, self.chunk_bytes)
        specs = _spec_digests(self.aggregates)
        tasks = [
            (self.directory, chunk, self.aggregates, specs, self.use_cache)
            for chunk in plan
        ]
        readers = {
            channel: [agg for agg in self.aggregates if channel in agg.channels]
            for channel in channels
        }
        # One running state per (aggregate, channel), built up in
        # (channel, offset) order as each chunk's outcome arrives.
        running: Dict[Tuple[str, str], object] = {
            (agg.name, channel): agg.zero()
            for agg in self.aggregates for channel in agg.channels
        }
        channel_rows: Dict[str, int] = {}
        cache_hits = cache_misses = 0
        with _collector_paused():
            for outcome in self._outcomes(tasks):
                channel = outcome.chunk.channel
                channel_rows[channel] = channel_rows.get(channel, 0) + outcome.rows
                if outcome.cache_hit:
                    cache_hits += 1
                else:
                    cache_misses += 1
                for agg in readers[channel]:
                    key = (agg.name, channel)
                    running[key] = agg.merge(running[key],
                                             outcome.states[agg.name])
                # Drop the partials before the next chunk is read.
                del outcome
            # merge is associative with identity zero(), so merging the
            # per-channel states in the aggregate's own channel order
            # equals one left-to-right pass over its channels' chunks.
            outputs: Dict[str, object] = {}
            for agg in self.aggregates:
                state = agg.zero()
                for channel in agg.channels:
                    state = agg.merge(state, running.pop((agg.name, channel)))
                outputs[agg.name] = agg.finalize(state, meta)
        METRICS.counter("analysis.chunks").inc(len(plan))
        METRICS.counter("analysis.cache.hit").inc(cache_hits)
        METRICS.counter("analysis.cache.miss").inc(cache_misses)
        for channel, count in channel_rows.items():
            METRICS.counter("analysis.rows", channel=channel).inc(count)
        return AnalysisResult(
            directory=self.directory,
            meta=meta,
            outputs=outputs,
            channel_rows=channel_rows,
            chunks=len(plan),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            workers=self.workers,
            elapsed_seconds=time.monotonic() - started,
        )


def analyze(directory: str, *, workers: int = 1, use_cache: bool = True,
            chunk_bytes: int = DEFAULT_CHUNK_BYTES,
            aggregates: Optional[List[ShardAggregate]] = None) -> AnalysisResult:
    """One-call streaming analysis of a dataset directory."""
    engine = AnalysisEngine(
        directory=directory,
        aggregates=list(aggregates) if aggregates is not None
        else default_aggregates(),
        workers=workers,
        chunk_bytes=chunk_bytes,
        use_cache=use_cache,
    )
    return engine.run()


__all__ = [
    "AnalysisEngine",
    "AnalysisResult",
    "ChunkOutcome",
    "analyze",
    "CACHE_SCHEMA",
    "CACHE_DIR_NAME",
]
