"""Scan-record schema and JSONL serialization.

One :class:`ScanObservation` is what a zgrab-style TLS grab writes per
connection: negotiation outcome, certificate trust, session-ID and
ticket metadata (including the cleartext STEK identifier), and the
server's key-exchange public value.  These records are the *only*
input the analysis layer consumes — the analyses never peek at the
simulation's ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Iterator, Optional

#: One shared encoder: ``json.dumps(..., sort_keys=True)`` builds a new
#: ``JSONEncoder`` per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _json_record(cls: type) -> type:
    """Give a flat record dataclass a fast ``to_json``.

    Every record field is a JSON scalar (str, int, float, bool, None),
    so a dict built straight from the attributes encodes to the same
    bytes as ``json.dumps(dataclasses.asdict(record), sort_keys=True)``
    without ``asdict``'s recursive deep copy.
    """
    names = tuple(f.name for f in fields(cls))
    values = attrgetter(*names)

    def to_json(self) -> str:
        return _encode(dict(zip(names, values(self))))

    cls.to_json = to_json
    return cls


@_json_record
@dataclass
class ScanObservation:
    """One TLS connection attempt's observable outcome."""

    domain: str
    day: int                      # study day index of the attempt
    timestamp: float              # simulation time (seconds)
    rank: int = 0                 # Alexa rank at scan time
    ip: str = ""
    success: bool = False
    error: str = ""
    # Negotiation.
    cipher: Optional[str] = None
    kex_kind: Optional[str] = None        # "rsa" | "dhe" | "ecdhe"
    forward_secret: bool = False
    cert_trusted: bool = False
    cert_error: str = ""
    # Session-ID resumption signals.
    session_id_set: bool = False          # server sent a session ID
    resumed: bool = False
    resumed_via: Optional[str] = None     # "session_id" | "ticket"
    # Ticket signals.
    ticket_extension: bool = False        # server echoed the extension
    ticket_issued: bool = False
    ticket_hint: Optional[int] = None
    ticket_format: Optional[str] = None
    stek_id: Optional[str] = None         # hex STEK identifier
    # Key-exchange reuse signal.
    kex_public: Optional[str] = None      # hex server (EC)DHE value

    @classmethod
    def from_json(cls, line: str) -> "ScanObservation":
        data = json.loads(line)
        return cls(**data)


@_json_record
@dataclass
class ResumptionProbeResult:
    """Outcome of one domain's 24-hour resumption-lifetime probe (§4.1/4.2)."""

    domain: str
    rank: int = 0
    mechanism: str = "session_id"        # or "ticket"
    handshake_ok: bool = False
    issued: bool = False                 # server set an ID / issued a ticket
    resumed_at_1s: bool = False
    max_success_delay: Optional[float] = None   # seconds; None = never resumed
    hit_probe_ceiling: bool = False      # still resuming at the 24 h cutoff
    ticket_hint: Optional[int] = None
    attempts: int = 0

    @classmethod
    def from_json(cls, line: str) -> "ResumptionProbeResult":
        return cls(**json.loads(line))


@_json_record
@dataclass
class CrossDomainEdge:
    """Domain ``b`` accepted a session that originated at domain ``a``."""

    origin: str
    acceptor: str
    via_same_ip: bool = False
    via_same_as: bool = False

    @classmethod
    def from_json(cls, line: str) -> "CrossDomainEdge":
        return cls(**json.loads(line))


#: Channel name -> record class for every record stream a study produces.
#: The channel name is also the JSONL basename inside a dataset directory,
#: so the scanner (streaming writers), the dataset (lazy views), and
#: persistence (save/load) all agree on one layout.
CHANNELS: dict[str, type] = {
    "ticket_daily": ScanObservation,
    "dhe_daily": ScanObservation,
    "ecdhe_daily": ScanObservation,
    "ticket_support": ScanObservation,
    "dhe_support": ScanObservation,
    "ecdhe_support": ScanObservation,
    "ticket_30min": ScanObservation,
    "dhe_30min": ScanObservation,
    "ecdhe_30min": ScanObservation,
    "session_probes": ResumptionProbeResult,
    "ticket_probes": ResumptionProbeResult,
    "cache_edges": CrossDomainEdge,
}


def write_jsonl(path, records: Iterable) -> int:
    """Write records (anything with ``.to_json()``) to a JSONL file."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_json())
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path, record_cls) -> Iterator:
    """Stream records back from a JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield record_cls.from_json(line)


__all__ = [
    "ScanObservation",
    "ResumptionProbeResult",
    "CrossDomainEdge",
    "CHANNELS",
    "write_jsonl",
    "read_jsonl",
]
