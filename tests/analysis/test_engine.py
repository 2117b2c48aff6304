"""Engine golden tests: streamed output bytes are pinned by digest.

The shared small-study dataset is saved to disk once, then rendered
through the streaming engine.  The chunk size is forced small so the
plan spans many chunks per channel — worker count, chunk boundaries,
and the partial cache must all be invisible in the output bytes.  The
in-memory ``core`` estimators must equal the engine's outputs exactly,
dict order included.
"""

import gc
import hashlib
import json
import os
import shutil
import weakref
from itertools import chain

import pytest
from helpers import canon

from repro import core
from repro.analysis import engine
from repro.analysis import (
    CACHE_DIR_NAME,
    AnalysisEngine,
    analyze,
    audit_inputs_from_analysis,
    render_audit,
    render_report,
    report_inputs_from_analysis,
)
from repro.analysis.aggregates import default_aggregates
from repro.core.aggregate import ShardAggregate, fold_records
from repro.core.groups import IdentifierGroupsAggregate
from repro.scanner import save_dataset
from repro.scanner.datastore import channel_path, write_meta

CHUNK = 1 << 16  # small enough for several chunks per daily channel

#: sha256 of ``render_report(min_days=2)`` and ``render_audit(worst=7)``
#: on the ``small_study`` dataset.
REPORT_SHA256 = "3b5d5e3980996b802b9558ead8d806c3935af601a274e841f0e15a18d3867378"
AUDIT_SHA256 = "b336586144ed59327a372bac7000c2c3b4130487f36f7335cfbc2eb7eab40b91"
PINNED = (REPORT_SHA256, AUDIT_SHA256)

#: sha256 of the ``<file name> <file sha256>`` lines, one per cache file
#: in name order, of the ``.analysis/`` directory a cold ``CHUNK``-sized
#: run writes over the ``small_study`` dataset (212 files).
CACHE_FILES = 212
CACHE_SHA256 = "8dc2ed4df2d5efdd598b857a95cfe81ab87a1a0239f998a7da3b25b7350e4e32"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def saved_dataset(small_study, tmp_path_factory):
    _, dataset = small_study
    directory = str(tmp_path_factory.mktemp("analysis-golden"))
    save_dataset(dataset, directory)
    return directory


def streamed_digests(directory, **kwargs):
    result = analyze(directory, chunk_bytes=CHUNK, **kwargs)
    report = render_report(report_inputs_from_analysis(result), min_days=2)
    audit = render_audit(audit_inputs_from_analysis(result), worst=7)
    return result, (sha256(report), sha256(audit))


def cold_copy(saved_dataset, tmp_path):
    """The dataset's files in a new directory, without a partial cache."""
    directory = str(tmp_path / "dataset")
    shutil.copytree(saved_dataset, directory,
                    ignore=shutil.ignore_patterns(CACHE_DIR_NAME))
    return directory


def cache_digest(directory):
    cache_dir = os.path.join(directory, CACHE_DIR_NAME)
    names = sorted(os.listdir(cache_dir))
    lines = []
    for name in names:
        with open(os.path.join(cache_dir, name), "rb") as fh:
            lines.append(f"{name} {hashlib.sha256(fh.read()).hexdigest()}\n")
    return len(names), sha256("".join(lines))


def test_cold_run_matches_pinned_bytes_and_misses_cache(saved_dataset):
    result, digests = streamed_digests(saved_dataset, use_cache=True)
    assert result.chunks > 12  # the small chunk size actually split files
    assert result.cache_hits == 0
    assert result.cache_misses == result.chunks
    assert digests == PINNED


def test_warm_run_hits_cache_and_stays_identical(saved_dataset):
    result, digests = streamed_digests(saved_dataset, use_cache=True)
    assert result.cache_hits == result.chunks
    assert result.cache_misses == 0
    assert digests == PINNED


def test_cache_files_match_pinned_bytes(saved_dataset, tmp_path):
    directory = cold_copy(saved_dataset, tmp_path)
    streamed_digests(directory, use_cache=True)
    assert cache_digest(directory) == (CACHE_FILES, CACHE_SHA256)


def test_cache_written_by_the_streaming_encoder_is_a_warm_hit(
        saved_dataset, tmp_path, monkeypatch):
    """A cache written the way earlier releases wrote it (``json.dump``
    streaming through the pure-Python encoder) has the pinned bytes,
    and every chunk of it is a hit."""
    def write_cache_streaming(path, chunk, digest, rows, states, specs):
        payload = {
            "schema": engine.CACHE_SCHEMA,
            "chunk": {"channel": chunk.channel, "start": chunk.start,
                      "end": chunk.end},
            "sha256": digest,
            "rows": rows,
            "states": {
                name: {"spec": specs[name], "state": state}
                for name, state in states.items()
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    directory = cold_copy(saved_dataset, tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_write_cache", write_cache_streaming)
        streamed_digests(directory, use_cache=True)
    assert cache_digest(directory) == (CACHE_FILES, CACHE_SHA256)
    result, digests = streamed_digests(directory, use_cache=True)
    assert result.cache_hits == result.chunks == CACHE_FILES
    assert digests == PINNED


def test_parallel_run_is_identical(saved_dataset):
    _, digests = streamed_digests(saved_dataset, workers=2, use_cache=False)
    assert digests == PINNED


def test_cache_lives_under_the_dataset(saved_dataset):
    cache_dir = os.path.join(saved_dataset, CACHE_DIR_NAME)
    assert os.path.isdir(cache_dir)
    assert all(name.endswith(".json") for name in os.listdir(cache_dir))


def test_stale_cache_entries_are_refolded(saved_dataset):
    cache_dir = os.path.join(saved_dataset, CACHE_DIR_NAME)
    victims = sorted(os.listdir(cache_dir))
    for victim, text in zip(victims, ('{"schema": "repro-analysis/0"}',
                                      "null", "[]")):
        with open(os.path.join(cache_dir, victim), "w",
                  encoding="utf-8") as fh:
            fh.write(text)

    def drop_chunk(payload):
        # Still a hit: the outcome belongs to the chunk the engine
        # asked for, whatever the file says.
        del payload["chunk"]

    def null_state(payload):
        next(iter(payload["states"].values()))["state"] = None

    for victim, edit in ((victims[3], drop_chunk), (victims[4], null_state)):
        path = os.path.join(cache_dir, victim)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        edit(payload)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    result, digests = streamed_digests(saved_dataset, use_cache=True)
    assert result.cache_misses == 4
    assert result.cache_hits == result.chunks - 4
    assert digests == PINNED


def test_row_counts_match_the_dataset(saved_dataset, small_study):
    _, dataset = small_study
    result = analyze(saved_dataset, chunk_bytes=CHUNK)
    for channel in ("ticket_daily", "dhe_daily", "session_probes",
                    "cache_edges"):
        assert result.rows(channel) == len(getattr(dataset, channel))


def test_empty_dataset_renders_without_sections(tmp_path):
    directory = str(tmp_path / "empty")
    os.makedirs(directory)
    write_meta(directory, {"days": 0, "always_present": [], "ranks": {}})
    result = analyze(directory)
    assert result.chunks == 0
    report = render_report(report_inputs_from_analysis(result))
    audit = render_audit(audit_inputs_from_analysis(result))
    assert "prolonged STEK reuse" in report
    assert "Table 1" not in report  # no support scans -> no waterfalls
    assert "domains considered" in audit


def test_core_estimators_match_engine_outputs(saved_dataset, small_study):
    """Each in-memory ``core`` estimator equals its streamed aggregate."""
    _, dataset = small_study
    result = analyze(saved_dataset, chunk_bytes=CHUNK, use_cache=False)
    out = result.outputs
    always = set(dataset.always_present)
    pairs = [
        (core.stek_spans(dataset.ticket_daily), out["stek_spans"]),
        (core.stek_spans(dataset.ticket_daily, always),
         result.spans("stek_spans", always)),
        (core.kex_spans(dataset.dhe_daily, always, kind="dhe"),
         result.spans("dhe_spans", always)),
        (core.kex_spans(dataset.ecdhe_daily, kind="ecdhe"),
         out["ecdhe_spans"]),
        (core.session_lifetime_by_domain(dataset.session_probes),
         out["session_lifetimes"]),
        (core.estimate_rotation(dataset.ticket_daily, always),
         core.estimates_from_day_keys(out["stek_rotation"], always)),
        (core.groups_from_shared_identifiers(
            [dataset.ticket_support, dataset.ticket_30min], "stek",
            dataset.domain_asn, dataset.as_names),
         out["stek_groups"]),
    ]
    trusted = result.trusted_domains("ticket_waterfall")
    for kind, channel, trusted_domains in (
        ("ticket", dataset.ticket_support, None),
        ("dhe", dataset.dhe_support, trusted),
        ("ecdhe", dataset.ecdhe_support, trusted),
    ):
        tallies = out[f"{kind}_waterfall"]
        pairs.append((
            core.support_waterfall(channel, kind, *dataset.list_sizes[kind],
                                   trusted_domains=trusted_domains),
            core.waterfall_from_tallies(
                tallies["tallies"], tallies["trusted"], kind,
                *dataset.list_sizes[kind], trusted_domains=trusted_domains),
        ))
    for in_memory, streamed in pairs:
        assert in_memory  # the small study exercises every estimator
        assert canon(in_memory) == canon(streamed)


@pytest.fixture
def collector_restored():
    """Put the cyclic collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_analyze_leaves_the_collector_as_it_found_it(
        saved_dataset, tmp_path, collector_restored, enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    analyze(cold_copy(saved_dataset, tmp_path), chunk_bytes=CHUNK)
    assert gc.isenabled() is enabled

    bad = str(tmp_path / "bad")
    os.makedirs(bad)
    write_meta(bad, {"days": 1, "always_present": [], "ranks": {}})
    with open(channel_path(bad, "ticket_daily"), "w", encoding="utf-8") as fh:
        fh.write('{"domain": "a.test"\n')
    with pytest.raises(ValueError):
        analyze(bad)
    assert gc.isenabled() is enabled


def test_analysis_leaves_no_cyclic_garbage(saved_dataset, tmp_path,
                                           collector_restored):
    """Why the engine may pause the collector: a cold and a warm run and
    both renders free everything they drop by reference counting."""
    directory = cold_copy(saved_dataset, tmp_path)
    gc.collect()
    gc.disable()
    cold = analyze(directory, chunk_bytes=CHUNK)
    report = render_report(report_inputs_from_analysis(cold), min_days=2)
    warm = analyze(directory, chunk_bytes=CHUNK)
    audit = render_audit(audit_inputs_from_analysis(warm), worst=7)
    assert warm.cache_hits == warm.chunks
    assert (sha256(report), sha256(audit)) == PINNED
    del cold, warm, report, audit
    assert gc.collect() == 0


# -- the streaming merge ----------------------------------------------------


class _Partial(list):
    """A fold state that can be weakly referenced."""


class _TrackedRowCounts(ShardAggregate):
    """Row count per chunk; remembers how many chunk partials were alive
    at each fold (the engine's running state never passes through
    ``fold``, so only chunk partials are tracked)."""

    def __init__(self, channel):
        self.name = "tracked_row_counts"
        self.channels = (channel,)
        self.partials = []
        self.most_alive = 0

    def zero(self):
        return _Partial()

    def fold(self, state, channel, rows):
        self.partials.append(weakref.ref(state))
        alive = sum(ref() is not None for ref in self.partials)
        self.most_alive = max(self.most_alive, alive)
        state.append(sum(1 for _ in rows))
        return state

    def merge(self, left, right):
        left.extend(right)
        return left

    def finalize(self, state, meta):
        return list(state)


def test_run_holds_one_chunk_of_partials_at_a_time(saved_dataset):
    """Each chunk's partials are merged into the running state and
    dropped before the next chunk is folded."""
    tracked = _TrackedRowCounts("ticket_daily")
    result = AnalysisEngine(saved_dataset, aggregates=[tracked],
                            chunk_bytes=CHUNK, use_cache=False).run()
    assert len(tracked.partials) == result.chunks > 2
    assert tracked.most_alive == 1
    assert sum(result.outputs[tracked.name]) == result.rows("ticket_daily")


class _IdentifierMap(IdentifierGroupsAggregate):
    """The identifier -> domains map itself, in first-seen order."""

    def finalize(self, state, meta):
        return state


@pytest.mark.parametrize("workers", [1, 2])
def test_aggregate_channel_order_beats_plan_order(saved_dataset, small_study,
                                                   workers):
    """Two maps over the same two channels: one in the plan's first-use
    order, one reversed (``ticket_support`` is first read by the default
    set's ``ticket_waterfall``).  Each equals one in-memory pass over its
    own channel order, serial or pooled."""
    _, dataset = small_study
    engine = AnalysisEngine(saved_dataset, aggregates=default_aggregates() + [
        _IdentifierMap("forward_map", ("ticket_support", "ticket_30min")),
        _IdentifierMap("reversed_map", ("ticket_30min", "ticket_support")),
    ], workers=workers, chunk_bytes=CHUNK, use_cache=False)
    channels = engine.channels()
    assert channels.index("ticket_support") < channels.index("ticket_30min")
    outputs = engine.run().outputs
    for name, rows in (
        ("forward_map", chain(dataset.ticket_support, dataset.ticket_30min)),
        ("reversed_map", chain(dataset.ticket_30min, dataset.ticket_support)),
    ):
        in_memory = fold_records(_IdentifierMap(name, ("ticket_daily",)), rows)
        assert canon(outputs[name]) == canon(in_memory)
    # Same content, different first-seen order: the order is tested.
    forward, backward = outputs["forward_map"], outputs["reversed_map"]
    assert ({key: set(domains) for key, domains in forward.items()}
            == {key: set(domains) for key, domains in backward.items()})
    assert canon(forward) != canon(backward)
