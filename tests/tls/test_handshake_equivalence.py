"""Per-connection equivalence of the two handshake drivers.

``fast_handshake`` and ``TLSClient.connect`` call the same client and
server decision steps; only the record layer between them differs.
From two identically built and identically exercised rigs, one
connection through each driver must give the same result fields and
error string, leave both RNG streams at the same next draw, move the
same counters and emit the same events.  The only counters allowed to
differ count crypto work the fast path skips (shared-secret and
key-exchange params memos).
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from helpers import make_rig

from repro.faults.inject import ImpairedServer
from repro.obs.events import EVENTS
from repro.obs.metrics import METRICS
from repro.tls.ciphers import (
    MODERN_BROWSER_OFFER,
    TLS_DHE_RSA_WITH_AES_128_CBC_SHA,
    TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
    TLS_RSA_WITH_AES_128_CBC_SHA,
)
from repro.tls.fastpath import fast_handshake
from repro.tls.keyexchange import KexReusePolicy, ReuseMode
from repro.tls.ticket import extract_key_name, sniff_ticket_format

OFFERS = {
    "rsa": (TLS_RSA_WITH_AES_128_CBC_SHA,),
    "dhe": (TLS_DHE_RSA_WITH_AES_128_CBC_SHA,),
    "ecdhe": (TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,),
    "browser": MODERN_BROWSER_OFFER,
}

#: What the measured connection offers, after one full handshake that
#: leaves a cached session and an issued ticket behind.
RESUMPTIONS = (
    "none", "session_id", "ticket", "expired_ticket", "foreign_ticket",
    "garbage_ticket", "expired_session_id",
)

scenarios = st.fixed_dictionaries({
    "seed": st.integers(0, 3),
    "offer": st.sampled_from(sorted(OFFERS)),
    "server_suites": st.sampled_from(["all", "rsa_only"]),
    "strict_sni_miss": st.booleans(),
    "resumption": st.sampled_from(RESUMPTIONS),
    "offer_tickets": st.booleans(),
    "reissue_on_resume": st.booleans(),
    "issue_session_ids": st.booleans(),
    "reuse_kex": st.booleans(),
    "reuse_client_ephemerals": st.booleans(),
    "fault": st.sampled_from([None, "reset", "truncate"]),
})


def _rig(case, seed=None):
    rig = make_rig(
        seed=case["seed"] if seed is None else seed,
        issue_session_ids=case["issue_session_ids"],
        kex_policy=KexReusePolicy(
            ReuseMode.PROCESS_LIFETIME if case["reuse_kex"] else ReuseMode.FRESH
        ),
        suites=OFFERS["rsa"] if case["server_suites"] == "rsa_only" else MODERN_BROWSER_OFFER,
    )
    rig.server.config.ticket_policy.reissue_on_resume = case["reissue_on_resume"]
    rig.client.reuse_client_ephemerals = case["reuse_client_ephemerals"]
    return rig


def _offers(case, rig):
    """Run the shared prefix on ``rig``; return the measured connection's kwargs."""
    first = fast_handshake(rig.client, rig.server, "example.com")
    assert first.ok
    kind = case["resumption"]
    offers = dict(offer=OFFERS[case["offer"]], offer_tickets=case["offer_tickets"])
    if kind in ("session_id", "expired_session_id") and first.session_id:
        offers.update(session_id=first.session_id, saved_session=first.session)
    elif kind in ("ticket", "expired_ticket", "garbage_ticket"):
        ticket = first.new_ticket.ticket
        if kind == "garbage_ticket":
            ticket = bytes(len(ticket))
        offers.update(ticket=ticket, saved_session=first.session)
    elif kind == "foreign_ticket":
        other = _rig(case, seed=case["seed"] + 100)
        foreign = fast_handshake(other.client, other.server, "example.com")
        offers.update(ticket=foreign.new_ticket.ticket, saved_session=foreign.session)
    if kind.startswith("expired"):
        rig.clock.advance(400.0)  # past the 300 s ticket window and cache lifetime
    else:
        rig.clock.advance(10.0)
    rig.server.config.strict_sni = case["strict_sni_miss"]
    return offers


def _measure(case, drive):
    """One connection through ``drive`` on a freshly built, exercised rig."""
    rig = _rig(case)
    offers = _offers(case, rig)
    server = rig.server
    if case["fault"] is not None:
        server = ImpairedServer(server, case["fault"])
    server_name = "other.org" if case["strict_sni_miss"] else "example.com"
    before = METRICS.snapshot()["counters"]
    EVENTS.drain()
    result = drive(rig, server, server_name, offers)
    events = [{k: v for k, v in event.items() if k != "ts"} for event in EVENTS.drain()]
    after = METRICS.snapshot()["counters"]
    moved = {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value != before.get(key, 0)
    }
    next_draws = (rig.client._rng.random_bytes(16), rig.server._rng.random_bytes(16))
    return _observable(result), result.error, next_draws, moved, events


def _observable(result):
    fields = dict(vars(result))
    for name in ("captured", "_server", "_server_conn", "_record_cipher"):
        fields.pop(name)
    # Master secrets differ by design: the fast path never derives one.
    if result.session is not None:
        fields["session"] = replace(result.session, master_secret=bytes(48))
    if result.new_ticket is not None:
        ticket = result.new_ticket.ticket
        ticket_format = sniff_ticket_format(ticket)
        fields["new_ticket"] = (
            result.new_ticket.lifetime_hint_seconds,
            len(ticket),
            ticket_format,
            extract_key_name(ticket, ticket_format),
        )
    return fields


def _fast(rig, server, server_name, offers):
    return fast_handshake(rig.client, server, server_name, **offers)


def _record_layer(rig, server, server_name, offers):
    return rig.client.connect(server, server_name, **offers)


@settings(max_examples=80, deadline=None)
@given(case=scenarios)
def test_fast_path_matches_record_layer_exchange(case):
    EVENTS.enable()
    try:
        fast = _measure(case, _fast)
        oracle = _measure(case, _record_layer)
    finally:
        EVENTS.disable()
    assert fast == oracle


def test_scenarios_reach_every_outcome():
    """The strategy is not vacuous: each decision path is taken."""
    cases = {
        "resumed via ticket": dict(resumption="ticket"),
        "resumed via session ID": dict(resumption="session_id", offer="browser"),
        "expired ticket": dict(resumption="expired_ticket"),
        "foreign ticket": dict(resumption="foreign_ticket"),
        "strict SNI miss": dict(strict_sni_miss=True),
        "no common suite": dict(server_suites="rsa_only", offer="ecdhe"),
        "reset": dict(fault="reset"),
        "truncate": dict(fault="truncate"),
        "truncated resumption": dict(fault="truncate", resumption="ticket"),
        "dhe": dict(offer="dhe"),
    }
    base = dict(
        seed=0, offer="browser", server_suites="all", strict_sni_miss=False,
        resumption="none", offer_tickets=True, reissue_on_resume=True,
        issue_session_ids=True, reuse_kex=False, reuse_client_ephemerals=False,
        fault=None,
    )
    outcomes = {}
    for label, overrides in cases.items():
        fields, error, *_ = _measure({**base, **overrides}, _fast)
        outcomes[label] = (fields["resumed_via"], error)
    assert outcomes["resumed via ticket"] == ("ticket", "")
    assert outcomes["resumed via session ID"] == ("session_id", "")
    assert outcomes["expired ticket"] == (None, "")
    assert outcomes["foreign ticket"] == (None, "")
    assert "unrecognized server name" in outcomes["strict SNI miss"][1]
    assert "no mutually supported cipher suite" in outcomes["no common suite"][1]
    assert "injected fault" in outcomes["reset"][1]
    assert outcomes["truncate"][1].startswith("DecodeError: truncated: wanted ")
    assert outcomes["truncated resumption"][1].startswith("DecodeError: truncated: ")
    assert outcomes["dhe"] == (None, "")
