"""Wire codec (ByteReader/ByteWriter) tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.wireformat import ByteReader, ByteWriter, DecodeError


def test_integer_widths():
    data = ByteWriter().u8(0xAB).u16(0x1234).u24(0x56789A).u32(0xDEADBEEF).getvalue()
    reader = ByteReader(data)
    assert reader.u8() == 0xAB
    assert reader.u16() == 0x1234
    assert reader.u24() == 0x56789A
    assert reader.u32() == 0xDEADBEEF
    reader.expect_end()


@pytest.mark.parametrize(
    "method,limit",
    [("u8", 1 << 8), ("u16", 1 << 16), ("u24", 1 << 24), ("u32", 1 << 32)],
)
def test_out_of_range_integers_rejected(method, limit):
    writer = ByteWriter()
    with pytest.raises(ValueError):
        getattr(writer, method)(limit)
    with pytest.raises(ValueError):
        getattr(writer, method)(-1)


def test_vectors_roundtrip():
    payloads = [b"", b"x", b"hello world", bytes(300)]
    for payload in payloads:
        if len(payload) < 256:
            data = ByteWriter().vec8(payload).getvalue()
            assert ByteReader(data).vec8() == payload
        data16 = ByteWriter().vec16(payload).getvalue()
        assert ByteReader(data16).vec16() == payload
        data24 = ByteWriter().vec24(payload).getvalue()
        assert ByteReader(data24).vec24() == payload


def test_vector_length_prefix_content():
    assert ByteWriter().vec8(b"ab").getvalue() == b"\x02ab"
    assert ByteWriter().vec16(b"ab").getvalue() == b"\x00\x02ab"
    assert ByteWriter().vec24(b"ab").getvalue() == b"\x00\x00\x02ab"


def test_truncated_reads_raise():
    reader = ByteReader(b"\x01")
    with pytest.raises(DecodeError):
        reader.u16()
    with pytest.raises(DecodeError):
        ByteReader(b"\x05abc").vec8()  # claims 5, has 3


def test_expect_end_rejects_trailing():
    reader = ByteReader(b"\x00\x01")
    reader.u8()
    with pytest.raises(DecodeError):
        reader.expect_end()


def test_rest_and_remaining():
    reader = ByteReader(b"abcdef")
    assert reader.remaining == 6
    reader.raw(2)
    assert reader.remaining == 4
    assert reader.rest() == b"cdef"
    assert reader.remaining == 0


def test_writer_len():
    writer = ByteWriter()
    assert len(writer) == 0
    writer.u32(1)
    assert len(writer) == 4


@given(chunks=st.lists(st.binary(max_size=50), max_size=8))
@settings(max_examples=60, deadline=None)
def test_vec16_sequence_roundtrip(chunks):
    writer = ByteWriter()
    for chunk in chunks:
        writer.vec16(chunk)
    reader = ByteReader(writer.getvalue())
    for chunk in chunks:
        assert reader.vec16() == chunk
    reader.expect_end()


@given(value=st.integers(min_value=0, max_value=(1 << 24) - 1))
@settings(max_examples=60, deadline=None)
def test_u24_roundtrip(value):
    assert ByteReader(ByteWriter().u24(value).getvalue()).u24() == value
