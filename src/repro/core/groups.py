"""Service-group construction (paper §5).

Domains that share TLS secret state — a session cache, a STEK, or a
Diffie-Hellman value — form *service groups*.  Groups grow
transitively (if ``a`` shares with ``b`` and ``b`` with ``c``, all
three are one group), which the paper implements and we reproduce with
a union-find structure.

Three builders mirror the paper's three experiments:

* :func:`groups_from_edges` — session caches, from cross-domain
  resumption probe edges (§5.1);
* :func:`groups_from_shared_identifiers` — STEKs, from ticket key
  names observed in the 10-connection + 30-minute scans (§5.2), and
  Diffie-Hellman values from the key-exchange scans (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional, Tuple

from .aggregate import ShardAggregate, fold_records, secret_fields
from ..scanner.records import CrossDomainEdge, ScanObservation


class UnionFind:
    """Disjoint sets over arbitrary hashable items (path compression)."""

    def __init__(self) -> None:
        self._parent: dict = {}
        self._rank: dict = {}

    def add(self, item) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item):
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1

    def groups(self) -> list[set]:
        """All disjoint sets, largest first."""
        by_root: dict = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return sorted(by_root.values(), key=len, reverse=True)


@dataclass
class ServiceGroup:
    """One set of domains sharing TLS secret state."""

    domains: frozenset[str]
    label: str = ""           # operator guess (largest AS among members)
    mechanism: str = ""       # "session_cache" | "stek" | "dh"

    def __len__(self) -> int:
        return len(self.domains)


@dataclass
class GroupingResult:
    """All service groups for one mechanism, plus summary statistics."""

    groups: list[ServiceGroup] = field(default_factory=list)
    mechanism: str = ""

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def singleton_count(self) -> int:
        return sum(1 for g in self.groups if len(g) == 1)

    @property
    def multi_domain_count(self) -> int:
        return self.group_count - self.singleton_count

    def largest(self, n: int = 10) -> list[ServiceGroup]:
        return self.groups[:n]

    def domains_in_shared_groups(self) -> int:
        """How many domains share state with at least one other domain."""
        return sum(len(g) for g in self.groups if len(g) > 1)


def _label_groups(
    raw_groups: list[set],
    mechanism: str,
    domain_asn: Optional[dict[str, int]] = None,
    as_names: Optional[dict[int, str]] = None,
) -> GroupingResult:
    result = GroupingResult(mechanism=mechanism)
    for members in raw_groups:
        label = ""
        if domain_asn:
            tally: dict[int, int] = {}
            for domain in members:
                asn = domain_asn.get(domain)
                if asn is not None:
                    tally[asn] = tally.get(asn, 0) + 1
            if tally:
                top_asn = max(tally, key=lambda a: (tally[a], -a))
                label = (as_names or {}).get(top_asn, f"AS{top_asn}")
        result.groups.append(
            ServiceGroup(domains=frozenset(members), label=label, mechanism=mechanism)
        )
    result.groups.sort(key=lambda g: (-len(g), sorted(g.domains)[0]))
    return result


def groups_from_edges(
    edges: Iterable[CrossDomainEdge],
    probed_domains: Iterable[str],
    domain_asn: Optional[dict[str, int]] = None,
    as_names: Optional[dict[int, str]] = None,
) -> GroupingResult:
    """Session-cache groups from cross-domain resumption edges (§5.1).

    Every probed domain becomes at least a singleton group, matching
    the paper's accounting (183,261 of 212,491 groups were singletons).
    """
    uf = UnionFind()
    for domain in probed_domains:
        uf.add(domain)
    for edge in edges:
        uf.union(edge.origin, edge.acceptor)
    return _label_groups(uf.groups(), "session_cache", domain_asn, as_names)


def groups_from_shared_identifiers(
    observation_sets: Iterable[Iterable[ScanObservation]],
    identifier: str = "stek",
    domain_asn: Optional[dict[str, int]] = None,
    as_names: Optional[dict[int, str]] = None,
) -> GroupingResult:
    """STEK or DH service groups: domains that ever presented the same
    identifier are one group (§5.2/§5.3).

    ``observation_sets`` joins multiple scans (the paper merges a
    10-connection six-hour scan with a 30-minute scan).
    """
    aggregate = IdentifierGroupsAggregate(
        f"{identifier}_groups", SHARED_IDENTIFIER_CHANNELS.get(identifier, ()),
        kind=identifier,
    )
    return fold_records(
        aggregate, chain.from_iterable(observation_sets),
        {"domain_asn": domain_asn, "as_names": as_names},
    )


def groups_from_identifier_map(
    identifier_domains: dict[str, list[str]],
    mechanism: str,
    domain_asn: Optional[dict[str, int]] = None,
    as_names: Optional[dict[int, str]] = None,
) -> GroupingResult:
    """Service groups from an identifier -> domains map.

    The map is the finalized :class:`IdentifierGroupsAggregate` state;
    every domain listed under one identifier joins that identifier's
    group, and groups connected through a common domain merge
    transitively as usual.
    """
    uf = UnionFind()
    for domains in identifier_domains.values():
        if not domains:
            continue
        owner = domains[0]
        uf.add(owner)
        for domain in domains[1:]:
            uf.union(owner, domain)
    return _label_groups(uf.groups(), mechanism, domain_asn, as_names)


def _as_names(meta: dict) -> dict:
    """``meta.json`` stores AS numbers as JSON string keys; restore ints."""
    return {int(k): v for k, v in (meta.get("as_names") or {}).items()}


#: The scans each shared-identifier experiment joins (§5.2, §5.3).
SHARED_IDENTIFIER_CHANNELS = {
    "stek": ("ticket_support", "ticket_30min"),
    "dh": ("dhe_support", "dhe_30min", "ecdhe_support", "ecdhe_30min"),
}


class IdentifierGroupsAggregate(ShardAggregate):
    """Service groups from shared secret identifiers (§5.2/§5.3).

    State: ``{identifier: [domains, first-seen order, deduplicated]}``
    over successful connections.  The union-find itself only runs at
    ``finalize`` (via :func:`groups_from_identifier_map`), because
    component membership — unlike union order — is all that determines
    the fully-sorted :class:`GroupingResult`.
    """

    def __init__(self, name: str, channels: Tuple[str, ...],
                 kind: str = "stek") -> None:
        if kind not in ("stek", "dh"):
            raise ValueError(f"unknown identifier kind {kind!r}")
        self.name = name
        self.channels = tuple(channels)
        self.kind = kind

    def _params(self) -> dict:
        return {"kind": self.kind}

    def zero(self) -> dict:
        return {}

    def fold(self, state: dict, channel: str, rows: Iterable[dict]) -> dict:
        if self.kind == "stek":
            gate, wanted, key = secret_fields("stek")
        else:
            # DH groups join DHE and ECDHE values alike: no kind gate.
            gate, wanted, key = None, None, "kex_public"
        for row in rows:
            if not row["success"] or (gate and row[gate] != wanted):
                continue
            value = row[key]
            if not value:
                continue
            domains = state.get(value)
            if domains is None:
                state[value] = [row["domain"]]
            elif row["domain"] not in domains:
                domains.append(row["domain"])
        return state

    def merge(self, left: dict, right: dict) -> dict:
        for value, domains in right.items():
            mine = left.get(value)
            if mine is None:
                left[value] = domains
                continue
            for domain in domains:
                if domain not in mine:
                    mine.append(domain)
        return left

    def finalize(self, state: dict, meta: dict) -> GroupingResult:
        return groups_from_identifier_map(
            state, self.kind, meta.get("domain_asn"), _as_names(meta)
        )


class EdgeGroupsAggregate(ShardAggregate):
    """Session-cache service groups from cross-domain edges (§5.1).

    State: the edge rows themselves (tiny relative to scan channels);
    ``finalize`` rebuilds :class:`CrossDomainEdge` records and runs
    :func:`groups_from_edges` with the probed-domain universe from
    ``meta.json``, so singleton accounting matches exactly.
    """

    def __init__(self, name: str, channel: str = "cache_edges") -> None:
        self.name = name
        self.channels = (channel,)

    def zero(self) -> list:
        return []

    def fold(self, state: list, channel: str, rows: Iterable[dict]) -> list:
        state.extend(rows)
        return state

    def merge(self, left: list, right: list) -> list:
        left.extend(right)
        return left

    def finalize(self, state: list, meta: dict) -> GroupingResult:
        return groups_from_edges(
            (CrossDomainEdge(**row) for row in state),
            meta.get("crossdomain_targets") or [],
            meta.get("domain_asn"), _as_names(meta),
        )


__all__ = [
    "UnionFind",
    "ServiceGroup",
    "GroupingResult",
    "groups_from_edges",
    "groups_from_shared_identifiers",
    "groups_from_identifier_map",
    "SHARED_IDENTIFIER_CHANNELS",
    "IdentifierGroupsAggregate",
    "EdgeGroupsAggregate",
]
