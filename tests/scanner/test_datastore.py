"""Datastore tests: streaming writers and lazy views."""

import pytest

from repro.scanner.datastore import (
    JsonlWriter,
    LazyRecordView,
    channel_path,
    concatenate_channels,
    open_channel_views,
    open_channel_writers,
    read_meta,
    write_meta,
)
from repro.scanner.records import CHANNELS, ScanObservation


def obs(domain, day, ip="10.0.0.1", stek=None, kex_kind=None, success=True,
        cipher="TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA"):
    return ScanObservation(
        domain=domain, day=day, timestamp=day * 86400.0, ip=ip,
        success=success, cipher=cipher if success else None,
        ticket_issued=stek is not None, stek_id=stek, kex_kind=kex_kind,
    )


class TestStreamingStorage:
    """JsonlWriter / LazyRecordView — the scan engine's spill path."""

    def test_writer_appends_and_counts(self, tmp_path):
        path = str(tmp_path / "obs.jsonl")
        with JsonlWriter(path) as writer:
            writer.append(obs("a.com", 0))
            assert writer.append_many([obs("b.com", 0), obs("c.com", 1)]) == 2
            assert writer.count == 3
        view = LazyRecordView(path, ScanObservation)
        assert len(view) == 3
        assert [o.domain for o in view] == ["a.com", "b.com", "c.com"]

    def test_writer_truncates_on_create(self, tmp_path):
        path = str(tmp_path / "obs.jsonl")
        with JsonlWriter(path) as writer:
            writer.append(obs("old.com", 0))
        with JsonlWriter(path) as writer:
            assert writer.count == 0
        assert not LazyRecordView(path, ScanObservation)

    def test_view_is_reiterable(self, tmp_path):
        path = str(tmp_path / "obs.jsonl")
        with JsonlWriter(path) as writer:
            writer.append_many([obs("a.com", d) for d in range(4)])
        view = LazyRecordView(path, ScanObservation)
        assert [o.day for o in view] == [0, 1, 2, 3]
        assert [o.day for o in view] == [0, 1, 2, 3]  # second pass works

    def test_view_indexing_and_slicing(self, tmp_path):
        path = str(tmp_path / "obs.jsonl")
        rows = [obs(f"d{i}.com", i) for i in range(5)]
        with JsonlWriter(path) as writer:
            writer.append_many(rows)
        view = LazyRecordView(path, ScanObservation)
        assert view[0] == rows[0]
        assert view[4] == rows[4]
        assert view[-1] == rows[-1]
        assert view[1:3] == rows[1:3]
        with pytest.raises(IndexError):
            view[5]

    def test_view_equality_against_lists_and_views(self, tmp_path):
        path = str(tmp_path / "obs.jsonl")
        rows = [obs("a.com", 0), obs("b.com", 1)]
        with JsonlWriter(path) as writer:
            writer.append_many(rows)
        view = LazyRecordView(path, ScanObservation)
        assert view == rows
        assert rows == list(view)
        assert view == LazyRecordView(path, ScanObservation)
        assert view != rows[:1]
        assert view != "not a sequence"

    def test_empty_and_missing_views(self, tmp_path):
        missing = LazyRecordView(str(tmp_path / "nope.jsonl"), ScanObservation)
        assert len(missing) == 0
        assert not missing
        assert list(missing) == []
        assert missing == []

    def test_channel_writers_cover_every_channel(self, tmp_path):
        directory = str(tmp_path / "ds")
        writers = open_channel_writers(directory)
        assert set(writers) == set(CHANNELS)
        for writer in writers.values():
            writer.close()
        views = open_channel_views(directory)
        assert set(views) == set(CHANNELS)
        for name, view in views.items():
            assert view.path == channel_path(directory, name)
            assert len(view) == 0  # writers created empty files

    def test_concatenate_channels_preserves_shard_order(self, tmp_path):
        parts = []
        for shard in range(3):
            part = str(tmp_path / f"part{shard}")
            writers = open_channel_writers(part)
            writers["ticket_daily"].append(obs(f"shard{shard}.com", shard))
            for writer in writers.values():
                writer.close()
            parts.append(part)
        out = str(tmp_path / "merged")
        concatenate_channels(parts, out)
        merged = open_channel_views(out)["ticket_daily"]
        assert [o.domain for o in merged] == [
            "shard0.com", "shard1.com", "shard2.com",
        ]
        assert len(open_channel_views(out)["dhe_daily"]) == 0

    def test_meta_roundtrip(self, tmp_path):
        directory = str(tmp_path / "ds")
        write_meta(directory, {"days": 7, "ranks": {"a.com": 1}})
        assert read_meta(directory) == {"days": 7, "ranks": {"a.com": 1}}

