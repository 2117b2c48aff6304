"""In-memory span recorder that times the program's layers from outside.

The recorder replaces a public function or method with a thin wrapper
that records one span per call: name, start, end and the span open
when it was called (its parent).  Calls made while a grab span is open
share that grab's id.  Spans stay in flat in-memory arrays until the
caller clears them, and are written once, by :meth:`SpanRecorder.dump`.

Self time -- a span's duration minus the time its direct children
cover -- is derived from the stored spans afterwards.  Because every
wrapped call runs to completion before its caller continues (the scan
core's event loop only interleaves *between* grabs), spans nest
strictly, and the self times of a root span and all its descendants
add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

_clock = time.perf_counter


class SpanRecorder:
    """Flat, append-only span storage plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.grab_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        #: Id of the grab whose span is open, -1 outside any grab.
        self.grab = -1
        self._next_grab = 0
        #: Per-name sums of a quantity taken from a call argument
        #: (bytes requested from the DRBG, for instance).
        self.amounts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def clear(self) -> None:
        """Forget every recorded span (patches stay installed)."""
        if self.stack:
            raise RuntimeError("cannot clear a recorder with open spans")
        for column in (self.name_ids, self.parents, self.grab_ids,
                       self.starts, self.ends):
            del column[:]
        self.grab = -1
        self._next_grab = 0
        self.amounts.clear()

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        stack = self.stack
        self.name_ids.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.grab_ids.append(self.grab)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(_clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = _clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """A span around a block of the benchmark's own code."""
        index = self._open(self.intern(name))
        try:
            yield index
        finally:
            self._close(index)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        amount_arg: Optional[int] = None,
        grab: bool = False,
    ) -> Callable:
        """Return ``fn`` wrapped so each call records a ``name`` span.

        ``amount_arg`` adds that positional argument to
        ``amounts[name]``; ``grab`` gives the call (and everything it
        calls) a fresh grab id.
        """
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name}: a generator's span would only cover its creation")
        name_id = self.intern(name)
        opened, closed = self._open, self._close

        if grab:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                previous = self.grab
                self.grab = self._next_grab
                self._next_grab += 1
                index = opened(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closed(index)
                    self.grab = previous
        elif amount_arg is not None:
            amounts = self.amounts

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                amounts[name] = amounts.get(name, 0) + args[amount_arg]
                index = opened(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closed(index)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = opened(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closed(index)
        return wrapper

    def patch(self, owner: object, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` (a module function or a function
        defined on a class) with a recording wrapper."""
        if isinstance(owner, type):
            if attribute not in owner.__dict__:
                raise AttributeError(f"{owner.__name__} does not define {attribute}")
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        if not inspect.isfunction(original):
            raise TypeError(f"{attribute} on {owner!r} is not a plain function")
        setattr(owner, attribute, self.wrap(original, name, **options))
        self._patches.append((owner, attribute, original))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- derivation ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        starts, ends, parents = self.starts, self.ends, self.parents
        own = [end - start for start, end in zip(starts, ends)]
        covered = [0.0] * len(own)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += own[index]
        return [duration - child for duration, child in zip(own, covered)]

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s`` (inclusive) and ``self_s``."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        names = self.names
        for name_id, start, end, self_time in zip(
            self.name_ids, self.starts, self.ends, self.self_times()
        ):
            entry = out[names[name_id]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_time
        return out

    def times_within(self, root: str) -> dict[str, list[float]]:
        """Per span name, ``[self_s, inclusive_s]`` spent inside spans
        called ``root`` (the root's own self time included).  Inclusive
        time counts a span only when its parent has another name, so a
        call nested in a call of the same name is not counted twice.  A
        parent is always stored before its children, so one forward
        pass marks the descendants."""
        root_id = self._name_ids.get(root)
        out: dict[str, list[float]] = {}
        if root_id is None:
            return out
        inside = [False] * len(self)
        names, name_ids = self.names, self.name_ids
        for index, (name_id, parent, start, end, self_time) in enumerate(
            zip(name_ids, self.parents, self.starts, self.ends, self.self_times())
        ):
            if name_id == root_id or (parent >= 0 and inside[parent]):
                inside[index] = True
                entry = out.setdefault(names[name_id], [0.0, 0.0])
                entry[0] += self_time
                if parent < 0 or name_ids[parent] != name_id:
                    entry[1] += end - start
        return out

    def durations(self, name: str) -> list[float]:
        """Inclusive durations of every span called ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return []
        return [
            end - start
            for span_name, start, end in zip(self.name_ids, self.starts, self.ends)
            if span_name == name_id
        ]

    def child_counts(self, parent_name: str, child_name: str) -> int:
        """How many ``child_name`` spans were called directly by a
        ``parent_name`` span."""
        parent_id = self._name_ids.get(parent_name)
        child_id = self._name_ids.get(child_name)
        if parent_id is None or child_id is None:
            return 0
        name_ids = self.name_ids
        return sum(
            1 for name_id, parent in zip(name_ids, self.parents)
            if name_id == child_id and parent >= 0 and name_ids[parent] == parent_id
        )

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (columns, not rows)."""
        origin = self.starts[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "schema": "perfbench-spans/1",
                "names": self.names,
                "name": list(self.name_ids),
                "parent": list(self.parents),
                "grab": list(self.grab_ids),
                "start_us": [round((value - origin) * 1e6, 3) for value in self.starts],
                "end_us": [round((value - origin) * 1e6, 3) for value in self.ends],
            }, fh)


__all__ = ["SpanRecorder"]
