"""TLS hello extensions (RFC 6066, RFC 4492, RFC 5077).

Extensions are carried as ``(type, opaque-data)`` pairs in both hello
messages; this module provides the codecs for the ones the measurement
toolchain relies on: SNI (to reach name-based virtual hosts / SSL
terminators), the session-ticket extension (RFC 5077 §3.2), and the
supported-groups / point-format extensions that gate ECDHE.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..wireformat import ByteReader, ByteWriter, DecodeError
from .constants import ExtensionType

if TYPE_CHECKING:
    from .ticket import Ticket

Extension = tuple[int, bytes]


def encode_extensions(extensions: list[Extension]) -> bytes:
    """Serialize an extension list (with its outer 2-byte length)."""
    inner = ByteWriter()
    for ext_type, data in extensions:
        inner.u16(ext_type).vec16(data)
    return ByteWriter().vec16(inner.getvalue()).getvalue()


def decode_extensions(reader: ByteReader) -> list[Extension]:
    """Parse an extension list; absent extensions yield an empty list."""
    if reader.remaining == 0:
        return []
    block = ByteReader(reader.vec16())
    extensions: list[Extension] = []
    seen: set[int] = set()
    while block.remaining:
        ext_type = block.u16()
        data = block.vec16()
        if ext_type in seen:
            raise DecodeError(f"duplicate extension {ext_type}")
        seen.add(ext_type)
        extensions.append((ext_type, data))
    return extensions


def find_extension(extensions: list[Extension], ext_type: int) -> Optional[bytes]:
    """Return the body of extension ``ext_type``, or None if absent."""
    for etype, data in extensions:
        if etype == ext_type:
            return data
    return None


def has_extension(extensions: list[Extension], ext_type: int) -> bool:
    return find_extension(extensions, ext_type) is not None


# --- server_name (RFC 6066 §3) ---------------------------------------

def encode_server_name(hostname: str) -> Extension:
    """Build an SNI extension for a single DNS hostname."""
    name = hostname.encode("idna") if any(ord(c) > 127 for c in hostname) else hostname.encode("ascii")
    entry = ByteWriter().u8(0).vec16(name).getvalue()  # name_type 0 = host_name
    body = ByteWriter().vec16(entry).getvalue()
    return (ExtensionType.SERVER_NAME, body)


def decode_server_name(data: bytes) -> str:
    """Extract the (single) DNS hostname from an SNI extension."""
    reader = ByteReader(data)
    names = ByteReader(reader.vec16())
    name_type = names.u8()
    if name_type != 0:
        raise DecodeError("unsupported SNI name type")
    host = names.vec16()
    return host.decode("ascii")


# --- session_ticket (RFC 5077 §3.2) -----------------------------------

def encode_session_ticket(ticket: Ticket = b"") -> Extension:
    """The session-ticket extension body is the raw ticket (or empty)."""
    return (ExtensionType.SESSION_TICKET, bytes(ticket))


def decode_session_ticket(data: bytes) -> bytes:
    return data


# --- supported_groups (RFC 4492 §5.1.1) --------------------------------

def encode_supported_groups(curve_ids: Iterable[int]) -> Extension:
    inner = ByteWriter()
    for curve_id in curve_ids:
        inner.u16(curve_id)
    body = ByteWriter().vec16(inner.getvalue()).getvalue()
    return (ExtensionType.SUPPORTED_GROUPS, body)


def decode_supported_groups(data: bytes) -> list[int]:
    reader = ByteReader(data)
    inner = ByteReader(reader.vec16())
    if inner.remaining % 2:
        raise DecodeError("odd supported-groups length")
    return [inner.u16() for _ in range(inner.remaining // 2)]


# --- ec_point_formats (RFC 4492 §5.1.2) --------------------------------

UNCOMPRESSED_POINT_FORMAT = 0


def encode_point_formats(formats: Iterable[int] = (UNCOMPRESSED_POINT_FORMAT,)) -> Extension:
    inner = bytes(formats)
    return (ExtensionType.EC_POINT_FORMATS, ByteWriter().vec8(inner).getvalue())


def decode_point_formats(data: bytes) -> list[int]:
    return list(ByteReader(data).vec8())


__all__ = [
    "Extension",
    "encode_extensions",
    "decode_extensions",
    "find_extension",
    "has_extension",
    "encode_server_name",
    "decode_server_name",
    "encode_session_ticket",
    "decode_session_ticket",
    "encode_supported_groups",
    "decode_supported_groups",
    "encode_point_formats",
    "decode_point_formats",
    "UNCOMPRESSED_POINT_FORMAT",
]
