"""The ShardAggregate protocol: the one fold from scan records to estimates.

Every estimator that reduces scan records — first/last-seen spans,
honored lifetimes, support tallies, rotation day-maps, shared-identifier
groups — is written exactly once, as a :class:`ShardAggregate` next to
the estimator whose output type it builds.  Two callers run them:

* the in-memory functions (:func:`repro.core.stek_spans` and friends)
  fold a record iterable as one chunk via :func:`fold_records`;
* the streaming engine (:mod:`repro.analysis.engine`) folds each
  line-aligned chunk of a dataset's JSONL channels, caches the
  partials, and merges them in stream order.

A partial state is

* **foldable** — built incrementally from raw record dicts, one chunk
  at a time, without constructing record dataclasses;
* **associative** — ``merge(merge(a, b), c) == merge(a, merge(b, c))``
  for chunk states ``a, b, c`` taken in stream order, mirroring the
  shard-order determinism of :func:`repro.obs.metrics.merge_snapshots`;
* **JSON-serializable** — partials round-trip through the
  ``<dataset>/.analysis/`` cache with key order intact, because the
  rendered reports depend on dict insertion order (first-seen order
  breaks ties in the top-reuse tables).

Merging chunk partials left-to-right in file order therefore
reproduces the exact dict insertion order of one pass over the whole
stream, so both callers get the same estimates, in the same order.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple


class ShardAggregate:
    """Base protocol: fold record dicts into a mergeable partial state.

    Subclasses define ``zero``/``fold``/``merge``/``finalize`` plus a
    ``spec()`` identifying everything output-affecting about the
    aggregate; the analysis cache keys stored partials on the spec's
    fingerprint so a configuration change invalidates exactly the
    states it affects.  ``merge`` may mutate and return its left
    argument and adopt containers of its right one (states are never
    shared between aggregates, and a merged right state is not used
    again).
    """

    #: Stable key for this aggregate's output in an AnalysisResult.
    name: str
    #: Channels consumed, in the order their streams are folded.
    channels: Tuple[str, ...]
    #: Bump when fold/merge/finalize semantics change (cache poison pill).
    version = 1

    def spec(self) -> dict:
        return {
            "aggregate": type(self).__name__,
            "name": self.name,
            "channels": list(self.channels),
            "version": self.version,
            **self._params(),
        }

    def _params(self) -> dict:
        return {}

    def zero(self):
        """The identity state: ``merge(zero(), s) == s``."""
        raise NotImplementedError

    def fold(self, state, channel: str, rows: Iterable[dict]):
        """Fold a chunk of ``channel`` rows (stream order) into ``state``."""
        raise NotImplementedError

    def merge(self, left, right):
        """Combine two partials; ``left`` precedes ``right`` in the stream."""
        raise NotImplementedError

    def finalize(self, state, meta: dict):
        """Turn the merged state into the analysis output."""
        raise NotImplementedError


def fold_records(aggregate: ShardAggregate, records: Iterable,
                 meta: Optional[dict] = None):
    """Fold in-memory records as one chunk of the aggregate's first
    channel, then finalize.

    The record classes are plain dataclasses, so ``vars(record)`` holds
    exactly the keys of the record's JSONL row.  ``records`` is consumed
    lazily (a streamed dataset view is never materialized).
    """
    state = aggregate.fold(aggregate.zero(), aggregate.channels[0],
                           map(vars, records))
    return aggregate.finalize(state, meta or {})


def secret_fields(kind: str) -> Tuple[str, object, str]:
    """``(gate, wanted, key)``: a row carries a secret identifier of
    ``kind`` in ``row[key]`` when ``row[gate] == wanted``.

    ``"stek"``/``"ticket"`` read the STEK identifier of an issued
    ticket; ``"dhe"``/``"ecdhe"`` read the server's key-exchange value
    from a handshake of that kind.  Folds look the fields up once per
    chunk instead of once per row.
    """
    if kind == "stek" or kind == "ticket":
        return "ticket_issued", True, "stek_id"
    return "kex_kind", kind, "kex_public"


__all__ = ["ShardAggregate", "fold_records", "secret_fields"]
