"""Hello-extension codec tests."""

import pytest

from repro.tls.constants import ExtensionType
from repro.tls.extensions import (
    decode_extensions,
    decode_point_formats,
    decode_server_name,
    decode_session_ticket,
    decode_supported_groups,
    encode_extensions,
    encode_point_formats,
    encode_server_name,
    encode_session_ticket,
    encode_supported_groups,
    find_extension,
    has_extension,
)
from repro.wireformat import ByteReader, DecodeError


def test_extension_list_roundtrip():
    extensions = [
        encode_server_name("example.com"),
        encode_session_ticket(b"opaque-ticket"),
        encode_supported_groups([23, 24]),
        encode_point_formats(),
    ]
    data = encode_extensions(extensions)
    decoded = decode_extensions(ByteReader(data))
    assert decoded == extensions


def test_empty_extension_list():
    assert decode_extensions(ByteReader(b"")) == []
    data = encode_extensions([])
    assert decode_extensions(ByteReader(data)) == []


def test_duplicate_extension_rejected():
    extensions = [encode_session_ticket(b"a"), encode_session_ticket(b"b")]
    data = encode_extensions(extensions)
    with pytest.raises(DecodeError):
        decode_extensions(ByteReader(data))


def test_find_and_has_extension():
    extensions = [encode_session_ticket(b"tkt"), encode_server_name("a.com")]
    assert find_extension(extensions, ExtensionType.SESSION_TICKET) == b"tkt"
    assert find_extension(extensions, ExtensionType.SUPPORTED_GROUPS) is None
    assert has_extension(extensions, ExtensionType.SERVER_NAME)
    assert not has_extension(extensions, ExtensionType.EC_POINT_FORMATS)


def test_server_name_roundtrip():
    ext_type, body = encode_server_name("www.example.com")
    assert ext_type == ExtensionType.SERVER_NAME
    assert decode_server_name(body) == "www.example.com"


def test_server_name_bad_type_rejected():
    # name_type 1 instead of 0
    from repro.wireformat import ByteWriter

    entry = ByteWriter().u8(1).vec16(b"x.com").getvalue()
    body = ByteWriter().vec16(entry).getvalue()
    with pytest.raises(DecodeError):
        decode_server_name(body)


def test_session_ticket_empty_and_full():
    ext_type, body = encode_session_ticket()
    assert ext_type == ExtensionType.SESSION_TICKET
    assert body == b""
    _, body2 = encode_session_ticket(b"ticketbytes")
    assert decode_session_ticket(body2) == b"ticketbytes"


def test_supported_groups_roundtrip():
    _, body = encode_supported_groups([23, 21, 0xFE00])
    assert decode_supported_groups(body) == [23, 21, 0xFE00]


def test_supported_groups_odd_length_rejected():
    from repro.wireformat import ByteWriter

    body = ByteWriter().vec16(b"\x00\x17\x00").getvalue()
    with pytest.raises(DecodeError):
        decode_supported_groups(body)


def test_point_formats_roundtrip():
    _, body = encode_point_formats([0, 1])
    assert decode_point_formats(body) == [0, 1]
    _, default_body = encode_point_formats()
    assert decode_point_formats(default_body) == [0]
