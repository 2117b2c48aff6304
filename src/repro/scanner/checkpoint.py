"""Per-shard study checkpoints: survive a kill, resume byte-identically.

Because each shard is a pure function of ``(study config, ecosystem
config, shard_id, shard_count)``, checkpointing at shard granularity is
enough for exact resume: a completed shard's records plus its
:class:`~repro.scanner.engine.ShardResult` bookkeeping are saved under
``<stream_dir>/checkpoint/``, and a resumed run re-executes only the
missing shards before merging as usual.  The merge removes the
checkpoint directory along with the per-shard parts, so a finished
dataset directory is byte-identical whether or not the run was ever
interrupted.

Layout::

    <stream_dir>/checkpoint/run.json       # schema + config fingerprint
    <stream_dir>/checkpoint/shard-NN.json  # one per completed shard

``run.json`` carries a *fingerprint* of everything output-affecting
(study config, ecosystem config, shard count).  Resuming under a
different fingerprint raises :class:`CheckpointMismatch` instead of
silently merging shards from two different studies.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, is_dataclass
from typing import Optional

SCHEMA = "repro-checkpoint/1"
RUN_NAME = "run.json"

#: StudyConfig fields excluded from the fingerprint: pure execution
#: settings that never affect output bytes.  ``concurrency`` (event-loop
#: batch size) and ``oracle`` (record-layer exchange for every grab) are
#: byte-equivalent by construction, so a resumed run may change them.
_EXECUTION_FIELDS = ("workers", "stream_dir", "concurrency", "oracle")


class CheckpointMismatch(ValueError):
    """The checkpoint on disk belongs to a different study configuration."""


def _normalize(value):
    """Canonicalize through JSON so tuples/lists and int/str keys compare
    equal between a live config and one round-tripped from disk."""
    return json.loads(json.dumps(value, sort_keys=True))


def study_config_to_dict(config) -> dict:
    """The output-affecting StudyConfig fields as a JSON-able dict."""
    data = asdict(config) if is_dataclass(config) else dict(vars(config))
    for name in _EXECUTION_FIELDS:
        data.pop(name, None)
    return data


def study_config_from_dict(data: dict, **execution):
    """Rebuild a StudyConfig from :func:`study_config_to_dict` output.

    ``execution`` sets the fields the fingerprint leaves out
    (:data:`_EXECUTION_FIELDS`); the rest keep StudyConfig's defaults.
    """
    from .study import StudyConfig  # local import: study imports engine

    return StudyConfig(**data, **execution)


def fingerprint_digest(payload) -> str:
    """sha256 hex digest of ``payload``'s canonical JSON form.

    The same canonicalization as :func:`checkpoint_fingerprint` uses for
    resume validation; the analysis cache (``repro.analysis``) keys its
    per-chunk partials on these digests so a fingerprint computed before
    a kill/resume cycle still matches afterwards.
    """
    canonical = json.dumps(_normalize(payload), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def checkpoint_fingerprint(study_config, ecosystem_config) -> dict:
    return _normalize({
        "study": study_config_to_dict(study_config),
        "ecosystem": (
            asdict(ecosystem_config) if is_dataclass(ecosystem_config) else {}
        ),
        "shards": study_config.shards,
    })


class CheckpointStore:
    """Reads and writes the ``<stream_dir>/checkpoint/`` directory."""

    def __init__(self, stream_dir: str) -> None:
        self.stream_dir = stream_dir
        self.directory = os.path.join(stream_dir, "checkpoint")

    # -- run state ---------------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(os.path.join(self.directory, RUN_NAME))

    def reset(self, fingerprint: dict, extra: Optional[dict] = None) -> None:
        """Start a fresh checkpointed run (drops any stale state)."""
        shutil.rmtree(self.directory, ignore_errors=True)
        os.makedirs(self.directory, exist_ok=True)
        self._write_json(RUN_NAME, {
            "schema": SCHEMA,
            "fingerprint": fingerprint,
            "cli": extra or {},
        })

    def load_run_state(self) -> dict:
        path = os.path.join(self.directory, RUN_NAME)
        with open(path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
        if state.get("schema") != SCHEMA:
            raise CheckpointMismatch(
                f"unsupported checkpoint schema {state.get('schema')!r} "
                f"in {path} (expected {SCHEMA!r})"
            )
        return state

    def validate(self, fingerprint: dict) -> dict:
        """Check ``fingerprint`` against the stored one; returns the state."""
        state = self.load_run_state()
        stored = state.get("fingerprint", {})
        if _normalize(fingerprint) != stored:
            differing = sorted(
                key for key in set(stored) | set(fingerprint)
                if stored.get(key) != _normalize(fingerprint).get(key)
            )
            raise CheckpointMismatch(
                "checkpoint in "
                f"{self.directory} was written by a different study "
                f"configuration (differs in: {', '.join(differing)}); "
                "resume with the original settings or start a fresh run"
            )
        return state

    def clear(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- shard results -----------------------------------------------------

    def completed_shards(self) -> list[int]:
        if not os.path.isdir(self.directory):
            return []
        out = []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith("shard-") and name.endswith(".json"):
                out.append(int(name[len("shard-"):-len(".json")]))
        return out

    def save_shard(self, result) -> None:
        """Persist one completed ShardResult."""
        payload = {
            "schema": SCHEMA,
            "shard_id": result.shard_id,
            "shard_count": result.shard_count,
            "stream_subdir": os.path.relpath(result.stream_subdir, self.stream_dir),
            "meta": result.meta,
            "stats": asdict(result.stats),
            "metrics": result.metrics,
            "day_seconds": result.day_seconds,
            "elapsed_seconds": result.elapsed_seconds,
            "events": result.events,
            "profile": result.profile,
        }
        os.makedirs(self.directory, exist_ok=True)
        self._write_json(f"shard-{result.shard_id:02d}.json", payload)

    def load_completed(self) -> dict:
        """All checkpointed shards as ``{shard_id: ShardResult}``."""
        from .engine import ShardResult, StudyStats  # local import cycle

        results = {}
        for shard_id in self.completed_shards():
            path = os.path.join(self.directory, f"shard-{shard_id:02d}.json")
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            results[shard_id] = ShardResult(
                shard_id=payload["shard_id"],
                shard_count=payload["shard_count"],
                stream_subdir=os.path.join(self.stream_dir, payload["stream_subdir"]),
                # Only ever re-serialized into the merged meta.json, so
                # the JSON forms (lists, string AS numbers) need no
                # conversion back.
                meta=payload["meta"],
                stats=StudyStats(**payload["stats"]),
                metrics=payload["metrics"],
                day_seconds=payload["day_seconds"],
                elapsed_seconds=payload["elapsed_seconds"],
                # .get(): checkpoints from before the live plane lack
                # these; a "spans" key from older checkpoints is ignored.
                events=payload.get("events", []),
                profile=payload.get("profile", {}),
            )
        return results

    # -- helpers -----------------------------------------------------------

    def _write_json(self, name: str, payload: dict) -> None:
        """Atomic write (tmp + rename) so a kill never leaves a torn file.

        Keys are written in insertion order, NOT sorted: shard meta
        contains dicts whose insertion order is scan order, and the
        merged ``meta.json`` must be byte-identical whether its shards
        came from checkpoints or live runs.  (Fingerprint comparison is
        dict equality, so ordering never affects validation.)

        The bytes equal ``json.dump(payload, fh)``, but each top-level
        value, and each element of ``events`` (the shard's whole event
        log, MBs under chaos), goes through the C encoder on its own:
        fast, and the log is never one string in memory.
        """
        path = os.path.join(self.directory, name)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("{")
            for index, (key, value) in enumerate(payload.items()):
                fh.write(f"{', ' if index else ''}{json.dumps(key)}: ")
                if key == "events":
                    fh.write("[")
                    for position, event in enumerate(value):
                        fh.write(f"{', ' if position else ''}{json.dumps(event)}")
                    fh.write("]")
                else:
                    fh.write(json.dumps(value))
            fh.write("}")
        os.replace(tmp, path)


__all__ = [
    "SCHEMA",
    "CheckpointMismatch",
    "CheckpointStore",
    "checkpoint_fingerprint",
    "study_config_to_dict",
    "study_config_from_dict",
]
