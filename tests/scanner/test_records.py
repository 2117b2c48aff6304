"""Scan record schema and JSONL serialization tests."""

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.scanner import datastore
from repro.scanner.datastore import JsonlWriter
from repro.scanner.records import (
    CHANNELS,
    CrossDomainEdge,
    ResumptionProbeResult,
    ScanObservation,
    read_jsonl,
    write_jsonl,
)


def test_observation_json_roundtrip():
    observation = ScanObservation(
        domain="example.com",
        day=5,
        timestamp=12345.0,
        rank=42,
        ip="10.0.0.1",
        success=True,
        cipher="TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA",
        kex_kind="ecdhe",
        forward_secret=True,
        cert_trusted=True,
        session_id_set=True,
        ticket_issued=True,
        ticket_hint=300,
        ticket_format="rfc5077",
        stek_id="ab" * 16,
        kex_public="04" + "00" * 32,
    )
    assert ScanObservation.from_json(observation.to_json()) == observation


def test_failed_observation_roundtrip():
    observation = ScanObservation(
        domain="down.example", day=0, timestamp=1.0, error="connect: timeout"
    )
    parsed = ScanObservation.from_json(observation.to_json())
    assert not parsed.success
    assert parsed.error == "connect: timeout"
    assert parsed.stek_id is None


def test_probe_result_roundtrip():
    probe = ResumptionProbeResult(
        domain="example.com",
        rank=9,
        mechanism="ticket",
        handshake_ok=True,
        issued=True,
        resumed_at_1s=True,
        max_success_delay=3600.0,
        ticket_hint=7200,
        attempts=13,
    )
    assert ResumptionProbeResult.from_json(probe.to_json()) == probe


def test_edge_roundtrip():
    edge = CrossDomainEdge(origin="a.com", acceptor="b.com", via_same_ip=True)
    assert CrossDomainEdge.from_json(edge.to_json()) == edge


def test_jsonl_file_roundtrip(tmp_path):
    path = tmp_path / "scan.jsonl"
    records = [
        ScanObservation(domain=f"d{i}.example", day=i, timestamp=float(i))
        for i in range(25)
    ]
    count = write_jsonl(path, records)
    assert count == 25
    loaded = list(read_jsonl(path, ScanObservation))
    assert loaded == records


def test_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "scan.jsonl"
    record = ScanObservation(domain="x.example", day=0, timestamp=0.0)
    path.write_text(record.to_json() + "\n\n\n" + record.to_json() + "\n")
    assert len(list(read_jsonl(path, ScanObservation))) == 2


def test_json_is_one_line():
    record = ScanObservation(domain="x.example", day=0, timestamp=0.0)
    assert "\n" not in record.to_json()


# --- the asdict-free encoder ---------------------------------------------

RECORD_CLASSES = [ScanObservation, ResumptionProbeResult, CrossDomainEdge]

#: Any JSON scalar, biased toward the awkward ones: quotes, backslashes,
#: control and non-ASCII characters, ints beyond 64 bits, non-finite floats.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.text(),
    st.text(alphabet='"\\\n\t\x00é€😀ab', max_size=12),
)


def _records(cls):
    return st.fixed_dictionaries(
        {f.name: SCALARS for f in dataclasses.fields(cls)}
    ).map(lambda kwargs: cls(**kwargs))


ANY_RECORD = st.one_of(*(_records(cls) for cls in RECORD_CLASSES))


def test_record_classes_cover_every_channel():
    assert set(CHANNELS.values()) == set(RECORD_CLASSES)


@given(record=ANY_RECORD)
@settings(max_examples=300, deadline=None)
def test_to_json_matches_asdict_byte_for_byte(record):
    assert record.to_json() == json.dumps(dataclasses.asdict(record), sort_keys=True)


@given(records=st.lists(ANY_RECORD, max_size=12))
@settings(max_examples=60, deadline=None)
def test_append_many_matches_per_record_append(tmp_path_factory, records):
    base = tmp_path_factory.mktemp("sink")
    with JsonlWriter(str(base / "one.jsonl")) as one:
        for record in records:
            one.append(record)
    with JsonlWriter(str(base / "many.jsonl")) as many:
        assert many.append_many(records) == len(records)
        assert many.append_many([]) == 0
    assert many.count == one.count == len(records)
    assert (base / "many.jsonl").read_bytes() == (base / "one.jsonl").read_bytes()


def test_append_many_across_write_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(datastore, "_WRITE_CHUNK", 3)
    records = [ScanObservation(domain=f"d{i}", day=i, timestamp=i / 3) for i in range(10)]
    with JsonlWriter(str(tmp_path / "many.jsonl")) as many:
        assert many.append_many(iter(records)) == 10
        assert many.append_many(records[:3]) == 3
    with JsonlWriter(str(tmp_path / "one.jsonl")) as one:
        for record in records + records[:3]:
            one.append(record)
    assert many.count == 13
    assert (tmp_path / "many.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()
