"""Benchmark fixtures: one full 9-week study, built once and cached.

The expensive part of every table/figure benchmark is the scan corpus;
it is identical across benchmarks, so it's built once per configuration
and persisted to ``.bench_cache/`` as JSONL.  The benchmarked code is
the *analysis* that turns scan records into each table/figure.

Configuration (environment variables):

* ``REPRO_BENCH_POPULATION`` — ranked-list size (default 900)
* ``REPRO_BENCH_DAYS``       — study length in days (default 63)
* ``REPRO_BENCH_SEED``       — ecosystem seed (default 2016)
* ``REPRO_BENCH_SHARDS``     — population shards (default 1; shard
  count changes the corpus bytes, so it is part of the cache key)
* ``REPRO_BENCH_WORKERS``    — worker processes building the corpus
  (default 1; never changes the corpus, so not in the cache key)

The default 900-domain/63-day corpus takes a few minutes to build the
first time; later runs load it from disk in seconds.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

# Make this directory and the shared test helpers importable from any
# benchmark module (pytest rootdir-relative imports don't cover either).
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

from repro.hosting import EcosystemConfig, build_ecosystem
from repro.scanner import CHANNELS, StudyConfig, load_dataset, run_study

BENCH_POPULATION = int(os.environ.get("REPRO_BENCH_POPULATION", "900"))
BENCH_DAYS = int(os.environ.get("REPRO_BENCH_DAYS", "63"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2016"))
BENCH_SHARDS = int(os.environ.get("REPRO_BENCH_SHARDS", "1"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

_CACHE_ROOT = Path(__file__).parent.parent / ".bench_cache"
_OUTPUT_DIR = Path(__file__).parent / "output"


def _scaled_day(paper_day: int, taken: set) -> int:
    """Scale a paper schedule day into the configured study length."""
    day = max(1, min(BENCH_DAYS - 2, round(paper_day * BENCH_DAYS / 63)))
    while day in taken:
        day = max(1, day - 1)
    taken.add(day)
    return day


def bench_study_config() -> StudyConfig:
    taken: set = set()
    return StudyConfig(
        days=BENCH_DAYS,
        seed=404,
        probe_domain_count=BENCH_POPULATION,  # probe the whole list
        dhe_support_day=_scaled_day(43, taken),
        ecdhe_support_day=_scaled_day(44, taken),
        ticket_support_day=_scaled_day(46, taken),
        crossdomain_day=_scaled_day(50, taken),
        session_probe_day=_scaled_day(56, taken),
        ticket_probe_day=_scaled_day(58, taken),
        shards=BENCH_SHARDS,
        workers=BENCH_WORKERS,
    )


def _ground_truth(ecosystem) -> dict:
    """Snapshot the truth needed by ablation benchmarks."""
    cache_group_of = {}
    for gid, members in ecosystem.ground_truth_cache_groups().items():
        for name in members:
            cache_group_of[name] = gid
    return {
        "stek_group_sizes": sorted(
            (len(m) for m in ecosystem.ground_truth_stek_groups().values()),
            reverse=True,
        ),
        "cache_group_sizes": sorted(
            (len(m) for m in ecosystem.ground_truth_cache_groups().values()),
            reverse=True,
        ),
        "cache_group_of": {k: str(v) for k, v in cache_group_of.items()},
        "stek_rotation": {
            d.name: d.behavior.stek_rotation_seconds
            for d in ecosystem.domains
            if d.behavior.tickets and d.https
        },
    }


@pytest.fixture(scope="session")
def bench_data():
    """(dataset, ground_truth) for the configured benchmark corpus."""
    key = f"p{BENCH_POPULATION}_d{BENCH_DAYS}_s{BENCH_SEED}"
    if BENCH_SHARDS != 1:
        key += f"_sh{BENCH_SHARDS}"
    cache_dir = _CACHE_ROOT / key
    truth_path = cache_dir / "ground_truth.json"
    if truth_path.exists():
        dataset = load_dataset(str(cache_dir))
        ground_truth = json.loads(truth_path.read_text())
        return _materialized(dataset), ground_truth

    started = time.time()
    ecosystem = build_ecosystem(
        EcosystemConfig(population=BENCH_POPULATION, seed=BENCH_SEED)
    )

    def progress(shard_id, shards, day, days):
        if day < days:
            print(
                f"\r[bench corpus] shard {shard_id + 1}/{shards}, "
                f"day {day + 1}/{days} ({time.time() - started:.0f}s elapsed)",
                end="", flush=True,
            )

    dataset = run_study(
        ecosystem, replace(bench_study_config(), stream_dir=str(cache_dir)),
        shard_progress=progress,
    )
    print()
    ground_truth = _ground_truth(ecosystem)
    truth_path.write_text(json.dumps(ground_truth))
    return _materialized(dataset), ground_truth


def _materialized(dataset):
    """Read every channel into a list once: the benchmarks fold the
    corpus many times, and a lazy view re-parses its file on each pass
    (about 170 MiB resident at the default 900 domains x 63 days)."""
    for name in CHANNELS:
        setattr(dataset, name, getattr(dataset, name).materialize())
    return dataset


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    _OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return _OUTPUT_DIR


@pytest.fixture()
def save_artifact(artifact_dir):
    """Write a rendered table/figure next to the benchmarks."""

    def write(name: str, text: str) -> None:
        (artifact_dir / name).write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n")

    return write
