"""Run manifests: the provenance record of one study execution.

The paper's campaign notes ("the scans ran daily between March and
May, from these hosts, with these failure counts") are what let the
authors trust their own data.  A run manifest is the machine-readable
equivalent for this reproduction: alongside the dataset, a telemetry
directory records

* exactly what was run — study + ecosystem configuration, seed,
  shard/worker layout, and ``git describe`` of the producing tree;
* how it went — wall-clock per shard and per day, grabs and grab
  rates, peak resident memory (``run.peak_rss_mib``), per-experiment
  scan counts, per-channel record counts;
* what the hot paths did — crypto cache hit/miss rates, handshake and
  resumption counters (the merged metrics snapshot lives in a sibling
  ``metrics.json``; the manifest embeds only the headline summaries).

A telemetry directory contains::

    manifest.json   this record
    metrics.json    merged MetricsRegistry snapshot (shard order)
    metrics.prom    Prometheus-style text exposition of the same

Everything here is output-neutral: manifests are written *next to*
the dataset (never into it), draw no randomness, and never touch
record content — the golden-digest and workers-byte-identity tests
hold with telemetry on or off.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from typing import Optional

SCHEMA = "repro-telemetry/1"

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.json"
PROMETHEUS_NAME = "metrics.prom"


def git_describe(cwd: Optional[str] = None) -> str:
    """``git describe --always --dirty`` of the producing tree.

    Returns ``"unknown"`` when git is missing, the tree is not a
    repository, or the command fails any other way — a manifest must
    never fail to build because of provenance lookup.
    """
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def peak_rss_mib() -> float:
    """Peak resident set size of the run, in MiB.

    The larger ``ru_maxrss`` of this process and of its largest
    finished child, so shards run in pool workers count once the pool
    has been joined.  Linux reports KiB, macOS bytes.
    """
    peak = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return round(peak / (1024 * 1024 if sys.platform == "darwin" else 1024), 1)


def _jsonable(value):
    """Best-effort JSON projection for config dataclasses."""
    try:
        json.dumps(value)
        return value
    except TypeError:
        return repr(value)


def config_dict(config) -> dict:
    """A JSON-safe dict of a (dataclass-ish) config object."""
    if config is None:
        return {}
    fields = getattr(config, "__dataclass_fields__", None)
    items = (
        {name: getattr(config, name) for name in fields}
        if fields is not None
        else dict(vars(config))
    )
    return {name: _jsonable(value) for name, value in sorted(items.items())}


def build_manifest(
    *,
    study_config: Optional[object] = None,
    ecosystem_config: Optional[object] = None,
    run: Optional[dict] = None,
    shards: Optional[list[dict]] = None,
    experiments: Optional[dict] = None,
    channels: Optional[dict] = None,
    caches: Optional[dict] = None,
    label: str = "study",
    extra: Optional[dict] = None,
) -> dict:
    """Assemble a manifest dict (see module docstring for the shape)."""
    manifest = {
        "schema": SCHEMA,
        "label": label,
        "created_unix": round(time.time(), 3),
        "python": sys.version.split()[0],
        "git": {"describe": git_describe()},
        "config": {
            "study": config_dict(study_config),
            "ecosystem": config_dict(ecosystem_config),
        },
        "seed": config_dict(study_config).get("seed"),
        "run": run or {},
        "shards": shards or [],
        "experiments": experiments or {},
        "channels": channels or {},
        "caches": caches or {},
        "files": {
            "metrics": METRICS_NAME,
            "prometheus": PROMETHEUS_NAME,
        },
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(directory: str, manifest: dict) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_manifest(path: str) -> dict:
    """Load a manifest from its file or its containing directory."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_manifest(manifest: dict) -> list[str]:
    """Structural validation; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(manifest, dict):
        return ["manifest is not a JSON object"]
    if manifest.get("schema") != SCHEMA:
        errors.append(
            f"schema is {manifest.get('schema')!r}, expected {SCHEMA!r}"
        )
    for field, kind in (
        ("label", str),
        ("run", dict),
        ("shards", list),
        ("experiments", dict),
        ("channels", dict),
        ("caches", dict),
        ("config", dict),
        ("files", dict),
    ):
        if not isinstance(manifest.get(field), kind):
            errors.append(f"{field!r} missing or not a {kind.__name__}")
    run = manifest.get("run", {})
    if isinstance(run, dict):
        for field in ("days", "shards", "workers", "grabs"):
            value = run.get(field)
            if not isinstance(value, int) or value < 0:
                errors.append(f"run.{field} missing or not a non-negative int")
        elapsed = run.get("elapsed_seconds")
        if not isinstance(elapsed, (int, float)) or elapsed < 0:
            errors.append("run.elapsed_seconds missing or negative")
        # Optional: manifests written before it was measured lack it.
        rss = run.get("peak_rss_mib")
        if rss is not None and (not isinstance(rss, (int, float)) or rss <= 0):
            errors.append("run.peak_rss_mib is not a positive number")
    channels = manifest.get("channels", {})
    if isinstance(channels, dict):
        for name, count in channels.items():
            if not isinstance(count, int) or count < 0:
                errors.append(f"channels[{name!r}] is not a non-negative int")
    shards = manifest.get("shards", [])
    if isinstance(shards, list):
        seen: set[int] = set()
        for entry in shards:
            if not isinstance(entry, dict) or "shard_id" not in entry:
                errors.append("shard entry missing shard_id")
                continue
            shard_id = entry["shard_id"]
            if shard_id in seen:
                errors.append(f"duplicate shard_id {shard_id}")
            seen.add(shard_id)
        run_shards = run.get("shards") if isinstance(run, dict) else None
        if isinstance(run_shards, int) and shards and len(shards) != run_shards:
            errors.append(
                f"{len(shards)} shard entries but run.shards={run_shards}"
            )
    return errors


def load_metrics(directory: str) -> dict:
    """Load the merged metrics snapshot next to a manifest, or {}."""
    path = os.path.join(directory, METRICS_NAME)
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_metrics(directory: str, snapshot: dict) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, METRICS_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


__all__ = [
    "SCHEMA",
    "MANIFEST_NAME",
    "METRICS_NAME",
    "PROMETHEUS_NAME",
    "peak_rss_mib",
    "git_describe",
    "config_dict",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "validate_manifest",
    "load_metrics",
    "write_metrics",
]
