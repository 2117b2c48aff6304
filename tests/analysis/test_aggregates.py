"""Merge-algebra property tests for every ShardAggregate.

The streaming engine's byte-identity guarantee reduces to three
properties per aggregate, checked here against a corpus that exercises
skip paths (failures, absent identifiers, untrusted certs):

* **associativity** — ``merge(merge(a, b), c)`` and
  ``merge(a, merge(b, c))`` finalize identically, for arbitrary chunk
  boundaries;
* **zero identity** — ``merge(zero(), s)`` and ``merge(s, zero())``
  both finalize like ``s``;
* **cache round-trip** — a partial state survives JSON serialization
  (the ``.analysis/`` cache) with dict insertion order intact.

The secret gates (success, issued ticket, key-exchange kind, non-empty
identifier) are also checked against literal outputs.

Comparisons run through :func:`helpers.canon`, which makes dict *order*
significant — plain ``==`` would accept reordered states that then
render different report bytes.
"""

import copy
import json
from dataclasses import asdict

import pytest
from helpers import canon

from repro.analysis.aggregates import default_aggregates
from repro.core.groups import SHARED_IDENTIFIER_CHANNELS, IdentifierGroupsAggregate
from repro.scanner.records import (
    CrossDomainEdge,
    ResumptionProbeResult,
    ScanObservation,
)


def _obs(i, day, kind, identifier, conn=0):
    ok = (i + day + conn) % 5 != 0
    is_ticket = kind == "stek"
    return asdict(ScanObservation(
        domain=f"d{i:03d}.test",
        day=day,
        timestamp=day * 86400.0 + conn,
        rank=i + 1,
        success=ok,
        kex_kind="ecdhe" if is_ticket else kind,
        cert_trusted=ok and i % 3 != 0,
        ticket_issued=ok and is_ticket and i % 7 != 0,
        stek_id=identifier if ok and is_ticket else None,
        kex_public=identifier if ok and not is_ticket else None,
    ))


def make_corpus():
    corpus = {name: [] for name in (
        "ticket_daily", "dhe_daily", "ecdhe_daily",
        "ticket_support", "dhe_support", "ecdhe_support",
        "ticket_30min", "session_probes", "cache_edges",
    )}
    for i in range(12):
        for day in range(9):
            corpus["ticket_daily"].append(
                _obs(i, day, "stek", f"stek-{i % 5}-{day // (1 + i % 3)}"))
            corpus["dhe_daily"].append(
                _obs(i, day, "dhe", f"dhe-{i}-{day // 2}"))
            corpus["ecdhe_daily"].append(
                _obs(i, day, "ecdhe", f"ec-{i}-{day}"))
        for conn in range(6):
            shared = f"stek-c{i // 4}" if i % 2 == 0 else f"stek-{i}"
            corpus["ticket_support"].append(_obs(i, 1, "stek", shared, conn))
            corpus["dhe_support"].append(
                _obs(i, 1, "dhe", f"dhe-{i}-s{conn % (1 + i % 2)}", conn))
            corpus["ecdhe_support"].append(
                _obs(i, 1, "ecdhe", f"ec-{i}-s", conn))
        corpus["ticket_30min"].append(_obs(i, 1, "stek", f"stek-{i % 5}-0"))
        corpus["session_probes"].append(asdict(ResumptionProbeResult(
            domain=f"d{i:03d}.test",
            rank=i + 1,
            handshake_ok=True,
            issued=i % 4 != 0,
            max_success_delay=None if i % 4 == 0 else i * 900.0,
            hit_probe_ceiling=i % 5 == 0,
        )))
    for i in range(0, 10, 2):
        corpus["cache_edges"].append(asdict(CrossDomainEdge(
            origin=f"d{i:03d}.test", acceptor=f"d{i + 1:03d}.test",
            via_same_ip=i % 4 == 0, via_same_as=True)))
    for channel in ("ticket_daily", "dhe_daily", "ecdhe_daily", "ticket_support",
                    "dhe_support", "ecdhe_support", "ticket_30min"):
        corpus[channel].extend(GATE_ROWS)
    return corpus


def _gate_row(domain, day, *, success=True, trusted=True, issued=True,
              stek="", kex_kind="dhe", kex=""):
    return asdict(ScanObservation(
        domain=domain, day=day, timestamp=day * 86400.0, success=success,
        cert_trusted=trusted, ticket_issued=issued, stek_id=stek,
        kex_kind=kex_kind, kex_public=kex))


#: Rows for the secret gates, in stream order: kept.test's successful
#: rows carry identifiers every fold keeps; the rest carry ones a gate
#: must drop: a failed row (day 9 would stretch the k1/v1 spans, and
#: failed.test would join every group), an unissued ticket's STEK id,
#: a key-exchange value of the other kind, and empty identifiers.
GATE_ROWS = [
    _gate_row("kept.test", 0, stek="k1", kex_kind="dhe", kex="v1"),
    _gate_row("kept.test", 4, stek="k1", kex_kind="dhe", kex="v1"),
    _gate_row("kept.test", 2, stek="k1", kex_kind="ecdhe", kex="w1"),
    _gate_row("kept.test", 9, success=False, stek="k1", kex_kind="dhe", kex="v1"),
    _gate_row("failed.test", 1, success=False, stek="k1", kex_kind="dhe", kex="v1"),
    _gate_row("unissued.test", 1, trusted=False, issued=False, stek="k1",
              kex_kind="ecdhe", kex="w1"),
    _gate_row("other.test", 1, stek="k2", kex_kind="ecdhe", kex="v1"),
    _gate_row("empty.test", 1, kex_kind="dhe"),
    _gate_row("empty.test", 2, kex_kind="ecdhe"),
]


CORPUS = make_corpus()
META = {
    "always_present": sorted({row["domain"] for row in CORPUS["ticket_daily"]}),
    "crossdomain_targets": [f"d{i:03d}.test" for i in range(12)],
    "domain_asn": {f"d{i:03d}.test": 64500 + i % 3 for i in range(12)},
    "as_names": {str(64500 + k): f"AS {k}" for k in range(3)},
}


def segments(agg, cuts=(1, 2)):
    """The corpus as stream-ordered (channel, rows) chunks."""
    segs = []
    for channel in agg.channels:
        rows = CORPUS[channel]
        a, b = (len(rows) * cuts[0] // 3), (len(rows) * cuts[1] // 3)
        for part in (rows[:a], rows[a:b], rows[b:]):
            segs.append((channel, part))
    return segs


def partials(agg, segs):
    return [agg.fold(agg.zero(), channel, copy.deepcopy(rows))
            for channel, rows in segs]


def finalized(agg, state):
    return canon(agg.finalize(copy.deepcopy(state), META))


@pytest.mark.parametrize("agg", default_aggregates(), ids=lambda a: a.name)
@pytest.mark.parametrize("cuts", [(1, 2), (0, 1), (2, 3), (0, 3)])
def test_merge_is_associative_and_matches_single_pass(agg, cuts):
    segs = segments(agg, cuts)
    parts = partials(agg, segs)

    left = copy.deepcopy(parts[0])
    for part in parts[1:]:
        left = agg.merge(left, copy.deepcopy(part))

    right = copy.deepcopy(parts[-1])
    for part in reversed(parts[:-1]):
        right = agg.merge(copy.deepcopy(part), right)

    whole = agg.zero()
    for channel, rows in segs:
        whole = agg.fold(whole, channel, copy.deepcopy(rows))

    assert finalized(agg, left) == finalized(agg, whole)
    assert finalized(agg, right) == finalized(agg, whole)


@pytest.mark.parametrize("agg", default_aggregates(), ids=lambda a: a.name)
def test_zero_is_a_merge_identity(agg):
    state = agg.zero()
    for channel, rows in segments(agg):
        state = agg.fold(state, channel, copy.deepcopy(rows))
    reference = finalized(agg, state)
    assert finalized(
        agg, agg.merge(agg.zero(), copy.deepcopy(state))) == reference
    assert finalized(
        agg, agg.merge(copy.deepcopy(state), agg.zero())) == reference


@pytest.mark.parametrize("agg", default_aggregates(), ids=lambda a: a.name)
def test_states_survive_the_json_cache_round_trip(agg):
    state = agg.zero()
    for channel, rows in segments(agg):
        state = agg.fold(state, channel, copy.deepcopy(rows))
    # No sort_keys, like the cache writer: key order is load-bearing.
    revived = json.loads(json.dumps(state))
    assert finalized(agg, revived) == finalized(agg, state)


def test_default_aggregates_have_unique_names_and_specs():
    aggs = default_aggregates()
    names = [agg.name for agg in aggs]
    assert len(set(names)) == len(names)
    specs = [json.dumps(agg.spec(), sort_keys=True) for agg in aggs]
    assert len(set(specs)) == len(specs)


_TRUST = {"kept.test": True, "unissued.test": False, "other.test": True,
          "empty.test": True}

#: Each gated aggregate's output over GATE_ROWS alone: spans as
#: ``{domain: [(identifier, first, last, observations)]}``, groups as
#: member lists, support scans and rotation maps as their finalized
#: dicts.
GATE_EXPECTED = {
    "stek_spans": {"kept.test": [("k1", 0, 4, 3)], "other.test": [("k2", 1, 1, 1)]},
    "dhe_spans": {"kept.test": [("v1", 0, 4, 2)]},
    "ecdhe_spans": {"kept.test": [("w1", 2, 2, 1)], "unissued.test": [("w1", 1, 1, 1)],
                    "other.test": [("v1", 1, 1, 1)]},
    "ticket_waterfall": {"trusted": _TRUST, "tallies": {
        "kept.test": {"k1": 3}, "unissued.test": {}, "other.test": {"k2": 1},
        "empty.test": {}}},
    "dhe_waterfall": {"trusted": _TRUST, "tallies": {
        "kept.test": {"v1": 2}, "unissued.test": {}, "other.test": {},
        "empty.test": {}}},
    "ecdhe_waterfall": {"trusted": _TRUST, "tallies": {
        "kept.test": {"w1": 1}, "unissued.test": {"w1": 1}, "other.test": {"v1": 1},
        "empty.test": {}}},
    "stek_groups": [["kept.test"], ["other.test"]],
    "stek_rotation": {"kept.test": {0: "k1", 4: "k1", 2: "k1"}, "other.test": {1: "k2"}},
    # DH groups read every key-exchange value, whatever its kind.
    "dh_groups": [["kept.test", "other.test", "unissued.test"]],
}


def _gate_output(output):
    if isinstance(output, dict) and "tallies" not in output:
        return {domain: [(span.identifier, span.first_day, span.last_day,
                          span.observations) for span in entry.spans]
                if hasattr(entry, "spans") else entry
                for domain, entry in output.items()}
    if hasattr(output, "groups"):
        return [sorted(group.domains) for group in output.groups]
    return output


GATED = [agg for agg in default_aggregates() if agg.name in GATE_EXPECTED] + [
    IdentifierGroupsAggregate("dh_groups", SHARED_IDENTIFIER_CHANNELS["dh"], kind="dh")]


@pytest.mark.parametrize("agg", GATED, ids=lambda a: a.name)
def test_secret_gates_drop_failed_unissued_other_kind_and_empty(agg):
    state = agg.fold(agg.zero(), agg.channels[0], copy.deepcopy(GATE_ROWS))
    output = agg.finalize(state, {})
    assert canon(_gate_output(output)) == canon(GATE_EXPECTED[agg.name])
