"""The benchmark's four workloads.

Each workload turns a seed into the program's inputs, runs one
iteration -- a set-up step, then the timed step a user waits for --
and verifies what the program wrote.  All of them run in this process,
one closed loop, ``workers=1``:

* ``reference`` -- the paper's whole measurement mix at small scale;
* ``sweep``     -- daily sweeps only, large population, two shards;
* ``chaos``     -- daily sweeps under a seeded fault profile, with
  retries, a circuit breaker and the structured event log;
* ``analysis``  -- ``repro report`` (cold partial cache) then ``repro
  audit`` (warm) over a seeded 63-day corpus, twice per corpus.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager

import corpus

#: Seed whose output digests are pinned in ``expected.json``.
DEFAULT_SEED = 1

#: CLI defaults of ``repro report`` / ``repro audit``.
REPORT_MIN_DAYS = 7
AUDIT_WORST = 0

#: Report + audit passes per analysis corpus, each from a cold cache.
REPORT_PASSES = 2

Span = Callable[[], ContextManager]


@dataclass
class Iteration:
    """What one iteration measured and produced."""

    setup_s: float
    #: Duration of each timed step run on this set-up.
    waits: list[float]
    #: Operations attempted: grabs for a study, renders for analysis.
    operations: int
    #: Work items behind ``items_per_s``: grabs, or corpus rows.
    items: int
    directory: str
    #: Workload-specific results :meth:`verify` needs.
    detail: dict = field(default_factory=dict)


def derive_seed(seed: int, workload: str, purpose: str) -> int:
    """A program seed drawn from the workload seed (31 bits)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def file_digests(directory: str, names: list[str]) -> dict[str, str]:
    digests = {}
    for name in names:
        sha = hashlib.sha256()
        with open(os.path.join(directory, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
        digests[name] = sha.hexdigest()
    return digests


def combined_digest(digests: dict[str, str]) -> str:
    """One sha256 over ``name  digest`` lines, sorted by name."""
    text = "".join(f"{name}  {digests[name]}\n" for name in sorted(digests))
    return hashlib.sha256(text.encode()).hexdigest()


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def chaos_profile(seed: int, days: int) -> dict:
    """The ``chaos`` workload's repro-chaos/1 profile for ``seed``.

    Reset and truncate windows cover the whole study at 15% of domains
    per 10-minute slot each, plus a 5% latency band.  An outage hitting
    half the population, a flapping window and an NXDOMAIN incident sit
    inside the sweep hours (the first five hours) of days 0, 1 and 2.
    The windows are the same for every seed, so every seed impairs about
    the same share of grabs; the seed picks which targets each window
    hits, through the plan's decision hashes.
    """
    last = float(days - 1)
    windows = [
        {"kind": kind, "start_day": 0.0, "end_day": float(days), "rate": 0.15,
         "period_seconds": 600.0}
        for kind in ("reset", "truncate")
    ]
    windows += [
        {"kind": "latency", "start_day": 0.0, "end_day": float(days), "rate": 0.05,
         "delay_seconds": 20.0, "period_seconds": 300.0},
        {"kind": "outage", "start_day": 0.02, "end_day": 0.10, "rate": 0.5},
        {"kind": "flap", "start_day": min(1.0, last) + 0.03,
         "end_day": min(1.0, last) + 0.13, "period_seconds": 900.0,
         "down_fraction": 0.5},
        {"kind": "nxdomain", "start_day": min(2.0, last) + 0.05,
         "end_day": min(2.0, last) + 0.11, "rate": 0.2},
    ]
    return {"schema": "repro-chaos/1", "seed": seed, "windows": windows}


@dataclass(frozen=True)
class StudyWorkload:
    """Build an ecosystem (set-up), then run one study (timed)."""

    name: str
    population: int
    days: int
    #: Run every experiment on day 1 (else daily sweeps only).
    experiments: bool = False
    probe_domains: int = 0
    shards: int = 1
    concurrency: int = 1024
    #: Faults, retries with a breaker, and the structured event log on.
    chaos: bool = False

    def configs(self, seed: int, stream_dir: str):
        from repro.faults import RetryPolicy
        from repro.hosting import EcosystemConfig
        from repro.scanner import StudyConfig

        ecosystem = EcosystemConfig(
            population=self.population,
            seed=derive_seed(seed, self.name, "ecosystem"),
        )
        options: dict
        if self.experiments:
            options = {
                "probe_domain_count": self.probe_domains,
                **dict.fromkeys((
                    "dhe_support_day", "ecdhe_support_day", "ticket_support_day",
                    "crossdomain_day", "session_probe_day", "ticket_probe_day",
                ), 1),
            }
        else:
            options = {"run_support_scans": False, "run_crossdomain": False,
                       "run_probes": False}
        if self.chaos:
            options["chaos"] = chaos_profile(derive_seed(seed, self.name, "chaos"),
                                             self.days)
            options["retry"] = RetryPolicy(max_attempts=3, breaker_threshold=4)
        study = StudyConfig(
            days=self.days,
            seed=derive_seed(seed, self.name, "study"),
            shards=self.shards,
            workers=1,
            concurrency=self.concurrency,
            stream_dir=stream_dir,
            **options,
        )
        return ecosystem, study

    def run(self, seed: int, workdir: str, span: Span = nullcontext) -> Iteration:
        import repro.hosting
        from repro.obs.exporter import LivePlane
        from repro.scanner import run_study_with_stats

        stream_dir = os.path.join(workdir, f"{self.name}-dataset")
        shutil.rmtree(stream_dir, ignore_errors=True)
        ecosystem_config, study_config = self.configs(seed, stream_dir)
        started = time.perf_counter()
        ecosystem = repro.hosting.build_ecosystem(ecosystem_config)
        setup_s = time.perf_counter() - started
        plane = None
        if self.chaos:
            plane = LivePlane(events_path=os.path.join(workdir, "events.jsonl")).start()
        try:
            with span():
                started = time.perf_counter()
                _, stats = run_study_with_stats(ecosystem, study_config, live=plane)
                timed_s = time.perf_counter() - started
        finally:
            if plane is not None:
                plane.stop()
        sink = (
            sum(stats.records_by_channel.values()),
            sum(os.path.getsize(os.path.join(stream_dir, f"{channel}.jsonl"))
                for channel in stats.records_by_channel),
        )
        return Iteration(
            setup_s=setup_s, waits=[timed_s], operations=stats.grabs,
            items=stats.grabs, directory=stream_dir,
            detail={"stats": stats, "sink": sink},
        )

    def verify(self, iteration: Iteration) -> tuple[dict, list[str]]:
        """Digest the dataset and check it against the run's own stats.

        Returns the output summary that is pinned for the default seed,
        and the list of problems found.
        """
        from repro.scanner.records import CHANNELS

        stats = iteration.detail["stats"]
        directory = iteration.directory
        files = [f"{channel}.jsonl" for channel in CHANNELS] + ["meta.json"]
        problems = []
        missing = [name for name in files
                   if not os.path.exists(os.path.join(directory, name))]
        if missing:
            return {}, [f"dataset is missing {', '.join(missing)}"]
        digests = file_digests(directory, files)
        records = {channel: count_lines(os.path.join(directory, f"{channel}.jsonl"))
                   for channel in CHANNELS}
        for channel, count in records.items():
            reported = stats.records_by_channel.get(channel, 0)
            if reported != count:
                problems.append(f"{channel}: sink counted {reported} records, "
                                f"file holds {count}")
        if stats.grabs != sum(stats.scans_by_experiment.values()):
            problems.append("grab count differs from the per-experiment sum")
        if stats.grabs < 1 or records["ticket_daily"] < 1:
            problems.append("study scanned nothing")
        output = {
            "dataset_sha256": combined_digest(digests),
            "files": digests,
            "grabs": stats.grabs,
            "records": records,
        }
        return output, problems


@dataclass(frozen=True)
class AnalysisWorkload:
    """Generate a corpus (set-up), then report cold and audit warm (timed)."""

    name: str
    domains: int

    def run(self, seed: int, workdir: str, span: Span = nullcontext) -> Iteration:
        import repro.analysis as analysis

        directory = os.path.join(workdir, f"{self.name}-corpus")
        shutil.rmtree(directory, ignore_errors=True)
        started = time.perf_counter()
        written = corpus.generate(directory, derive_seed(seed, self.name, "corpus"),
                                  self.domains)
        setup_s = time.perf_counter() - started
        # Write the new corpus out now, so that the kernel's deferred
        # writeback of it does not land inside the timed step.
        os.sync()
        waits, texts = [], set()
        for _ in range(REPORT_PASSES):
            shutil.rmtree(os.path.join(directory, analysis.CACHE_DIR_NAME),
                          ignore_errors=True)
            with span():
                started = time.perf_counter()
                cold = analysis.analyze(directory, workers=1, use_cache=True)
                report = analysis.render_report(
                    analysis.report_inputs_from_analysis(cold),
                    min_days=REPORT_MIN_DAYS)
                warm = analysis.analyze(directory, workers=1, use_cache=True)
                audit = analysis.render_audit(
                    analysis.audit_inputs_from_analysis(warm), worst=AUDIT_WORST)
                waits.append(time.perf_counter() - started)
            texts.add((report, audit))
        return Iteration(
            setup_s=setup_s, waits=waits, operations=2 * REPORT_PASSES,
            items=written["rows"], directory=directory,
            detail={"cold": cold, "warm": warm, "report": report, "audit": audit,
                    "written": written, "passes_agree": len(texts) == 1},
        )

    def verify(self, iteration: Iteration) -> tuple[dict, list[str]]:
        from repro.analysis import render_report, report_inputs_from_analysis

        detail = iteration.detail
        cold, warm = detail["cold"], detail["warm"]
        problems = []
        if not detail["passes_agree"]:
            problems.append("report + audit passes over one corpus disagree")
        rerendered = render_report(report_inputs_from_analysis(warm),
                                   min_days=REPORT_MIN_DAYS)
        if rerendered != detail["report"]:
            problems.append("warm re-render differs from the cold report")
        if cold.cache_hits or cold.cache_misses != cold.chunks:
            problems.append(f"cold pass hit the cache ({cold.cache_hits} hits)")
        if warm.cache_hits != warm.chunks:
            problems.append(f"warm pass missed the cache "
                            f"({warm.cache_misses} of {warm.chunks} chunks)")
        written = detail["written"]["channels"]
        for channel, rows in cold.channel_rows.items():
            if rows != written[channel]:
                problems.append(f"{channel}: analysis read {rows} rows, "
                                f"corpus holds {written[channel]}")
        if not detail["report"].strip() or not detail["audit"].strip():
            problems.append("empty report or audit")
        output = {
            "report_sha256": hashlib.sha256(detail["report"].encode()).hexdigest(),
            "audit_sha256": hashlib.sha256(detail["audit"].encode()).hexdigest(),
            "rows": detail["written"]["rows"],
            "corpus_bytes": detail["written"]["bytes"],
        }
        return output, problems


WORKLOADS = {
    workload.name: workload
    for workload in (
        StudyWorkload("reference", population=320, days=2, experiments=True,
                      probe_domains=8),
        StudyWorkload("sweep", population=320, days=12, shards=2, concurrency=2048),
        StudyWorkload("chaos", population=500, days=6, chaos=True),
        AnalysisWorkload("analysis", domains=500),
    )
}


__all__ = ["DEFAULT_SEED", "WORKLOADS", "Iteration", "chaos_profile", "derive_seed"]
