"""Simplified X.509-like certificates for the simulated PKI.

The study restricts analysis to domains presenting *browser-trusted*
certificates (chaining to the NSS root store).  To preserve that
filtering step the simulated servers present certificates signed by
simulated CAs, and the scanner verifies signatures, validity windows,
and hostname matches against a root store.

Certificates use a compact TLV serialization rather than ASN.1 DER —
nothing here interoperates with external tooling, and the structure
(subject names, issuer, serial, validity, key, signature) is what the
measurement logic consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from ..crypto.mac import sha256
from ..crypto.rsa import RSAPrivateKey, RSAPublicKey
from ..obs.metrics import METRICS
from ..wireformat import ByteReader, ByteWriter, DecodeError

_MAGIC = b"RCRT"


@dataclass(frozen=True)
class CertificateData:
    """The to-be-signed portion of a certificate."""

    subject_names: tuple[str, ...]  # CN + SANs; supports "*.example.com"
    issuer: str
    serial: int
    not_before: float  # epoch seconds (simulation time)
    not_after: float
    public_key: RSAPublicKey

    # cached_property works on a frozen dataclass (it writes straight
    # into the instance __dict__, bypassing the frozen __setattr__) and
    # is safe here because every field is immutable.  Servers present
    # the same certificate on every full handshake, so the TBS and DER
    # encodings are one-time costs per certificate rather than per
    # handshake.
    @cached_property
    def _tbs(self) -> bytes:
        writer = ByteWriter()
        writer.raw(_MAGIC)
        names = ByteWriter()
        for name in self.subject_names:
            names.vec8(name.encode("ascii"))
        writer.vec16(names.getvalue())
        writer.vec8(self.issuer.encode("ascii"))
        writer.u32(self.serial)
        writer.u32(int(self.not_before))
        writer.u32(int(self.not_after))
        writer.vec16(self.public_key.n.to_bytes(self.public_key.byte_length, "big"))
        writer.u32(self.public_key.e)
        return writer.getvalue()

    def tbs_bytes(self) -> bytes:
        """Serialize the signed portion (computed once per certificate)."""
        return self._tbs


@dataclass(frozen=True)
class X509Certificate:
    """A signed certificate: TBS data plus the issuer's signature."""

    data: CertificateData
    signature: int

    @property
    def subject_names(self) -> tuple[str, ...]:
        return self.data.subject_names

    @property
    def issuer(self) -> str:
        return self.data.issuer

    @property
    def public_key(self) -> RSAPublicKey:
        return self.data.public_key

    @cached_property
    def _serialized(self) -> bytes:
        tbs = self.data.tbs_bytes()
        sig_bytes = self.signature.to_bytes((self.signature.bit_length() + 7) // 8 or 1, "big")
        return ByteWriter().vec16(tbs).vec16(sig_bytes).getvalue()

    def serialize(self) -> bytes:
        return self._serialized

    @classmethod
    def parse(cls, blob: bytes) -> "X509Certificate":
        outer = ByteReader(blob)
        tbs = outer.vec16()
        sig_bytes = outer.vec16()
        outer.expect_end()
        reader = ByteReader(tbs)
        if reader.raw(4) != _MAGIC:
            raise DecodeError("not a repro certificate")
        names_block = ByteReader(reader.vec16())
        names = []
        while names_block.remaining:
            names.append(names_block.vec8().decode("ascii"))
        issuer = reader.vec8().decode("ascii")
        serial = reader.u32()
        not_before = float(reader.u32())
        not_after = float(reader.u32())
        n = int.from_bytes(reader.vec16(), "big")
        e = reader.u32()
        reader.expect_end()
        data = CertificateData(
            subject_names=tuple(names),
            issuer=issuer,
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            public_key=RSAPublicKey(n=n, e=e),
        )
        return cls(data=data, signature=int.from_bytes(sig_bytes, "big"))

    @cached_property
    def _fingerprint(self) -> bytes:
        return sha256(self.serialize())

    def fingerprint(self) -> bytes:
        """SHA-256 fingerprint of the serialized certificate."""
        return self._fingerprint

    def matches_hostname(self, hostname: str) -> bool:
        """RFC 6125-style name matching with single-label wildcards."""
        hostname = hostname.lower().rstrip(".")
        for name in self.subject_names:
            name = name.lower()
            if name == hostname:
                return True
            if name.startswith("*."):
                suffix = name[1:]  # ".example.com"
                if hostname.endswith(suffix) and "." not in hostname[: -len(suffix)]:
                    if hostname[: -len(suffix)]:
                        return True
        return False

    def valid_at(self, now: float) -> bool:
        return self.data.not_before <= now <= self.data.not_after


# An ecosystem build signs the same certificates every time it runs with
# the same config, and a sharded study builds once per shard in one
# process.  The signature is a pure function of (issuer key, TBS bytes),
# so the memo cannot change a byte.  It is shared by every build in the
# process and keeps no counters, so merged metrics cannot depend on it.
# The bound covers one build of a ~10k-domain ecosystem (about 1.2
# certificates per domain) while capping resident memory at a few MiB
# of TBS bytes for larger ones.
@lru_cache(maxsize=16384)
def _signature(private_key: RSAPrivateKey, tbs: bytes) -> int:
    return private_key.sign(tbs)


@dataclass
class CertificateAuthority:
    """A simulated CA that mints leaf certificates."""

    name: str
    private_key: RSAPrivateKey
    next_serial: int = field(default=1)

    @property
    def public_key(self) -> RSAPublicKey:
        return self.private_key.public

    def issue(
        self,
        subject_names: Sequence[str],
        subject_key: RSAPublicKey,
        not_before: float,
        not_after: float,
    ) -> X509Certificate:
        """Sign a leaf certificate for ``subject_names``."""
        if not subject_names:
            raise ValueError("certificate needs at least one subject name")
        if not_after <= not_before:
            raise ValueError("certificate validity window is empty")
        data = CertificateData(
            subject_names=tuple(subject_names),
            issuer=self.name,
            serial=self.next_serial,
            not_before=not_before,
            not_after=not_after,
            public_key=subject_key,
        )
        self.next_serial += 1
        signature = _signature(self.private_key, data.tbs_bytes())
        return X509Certificate(data=data, signature=signature)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of chain validation, with the failure reason if any."""

    valid: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


class TrustStore:
    """An NSS-like root store: trusted CA names and their public keys."""

    # Each store memoizes its signature checks: an RSA verify is a
    # modular exponentiation, and a scanner validates the *same* leaf
    # certificate against the same root on every full handshake with a
    # domain.  Keyed by (root key, certificate) value — both frozen
    # dataclasses — so a different root or a tampered certificate can
    # never alias a cached verdict.  Validity-window and hostname
    # checks stay uncached (they depend on per-call time/name).  The
    # memo lives and dies with its store, and every ecosystem build
    # makes its own store, so the hit/miss counts of a shard depend on
    # that shard alone, whichever process runs it.
    _SIG_MEMO_MAX = 65536

    _MEMO_HIT = METRICS.counter("x509.sig_memo.hit")
    _MEMO_MISS = METRICS.counter("x509.sig_memo.miss")

    def __init__(self) -> None:
        self._roots: dict[str, RSAPublicKey] = {}
        self._sig_memo: dict[tuple, bool] = {}

    def add_root(self, name: str, public_key: RSAPublicKey) -> None:
        self._roots[name] = public_key

    def trusts(self, issuer: str) -> bool:
        return issuer in self._roots

    def root_names(self) -> list[str]:
        return sorted(self._roots)

    def validate(
        self,
        certificate: X509Certificate,
        hostname: Optional[str],
        now: float,
    ) -> ValidationResult:
        """Validate a leaf certificate: issuer trust, signature, time, name."""
        root = self._roots.get(certificate.issuer)
        if root is None:
            return ValidationResult(False, f"untrusted issuer {certificate.issuer!r}")
        memo_key = (root, certificate)
        signature_ok = self._sig_memo.get(memo_key)
        if signature_ok is None:
            self._MEMO_MISS.value += 1
            signature_ok = root.verify(certificate.data.tbs_bytes(), certificate.signature)
            if len(self._sig_memo) >= self._SIG_MEMO_MAX:
                self._sig_memo.clear()
            self._sig_memo[memo_key] = signature_ok
        else:
            self._MEMO_HIT.value += 1
        if not signature_ok:
            return ValidationResult(False, "bad signature")
        if not certificate.valid_at(now):
            return ValidationResult(False, "certificate expired or not yet valid")
        if hostname is not None and not certificate.matches_hostname(hostname):
            return ValidationResult(False, f"hostname {hostname!r} not in subject names")
        return ValidationResult(True)


__all__ = [
    "CertificateData",
    "X509Certificate",
    "CertificateAuthority",
    "TrustStore",
    "ValidationResult",
]
