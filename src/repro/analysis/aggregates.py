"""The aggregate set behind ``repro report`` and ``repro audit``.

Each :class:`ShardAggregate` lives next to the estimator whose output
it builds (:mod:`repro.core.spans`, :mod:`~repro.core.lifetimes`,
:mod:`~repro.core.support`, :mod:`~repro.core.rotation`,
:mod:`~repro.core.groups`) and is the only fold from scan records to
that estimate; the protocol and its merge rules are documented in
:mod:`repro.core.aggregate`.  This module gathers them under one name
and declares which channels feed which report/audit output.
"""

from __future__ import annotations

from ..core.aggregate import ShardAggregate
from ..core.groups import (
    SHARED_IDENTIFIER_CHANNELS,
    EdgeGroupsAggregate,
    IdentifierGroupsAggregate,
)
from ..core.lifetimes import LifetimeAggregate
from ..core.rotation import RotationAggregate
from ..core.spans import SpanAggregate
from ..core.support import SupportAggregate


def default_aggregates() -> list:
    """The aggregate set behind ``repro report`` and ``repro audit``."""
    return [
        SpanAggregate("stek_spans", "ticket_daily", kind="stek"),
        SpanAggregate("dhe_spans", "dhe_daily", kind="dhe"),
        SpanAggregate("ecdhe_spans", "ecdhe_daily", kind="ecdhe"),
        LifetimeAggregate("session_lifetimes"),
        SupportAggregate("ticket_waterfall", "ticket_support", kind="ticket"),
        SupportAggregate("dhe_waterfall", "dhe_support", kind="dhe"),
        SupportAggregate("ecdhe_waterfall", "ecdhe_support", kind="ecdhe"),
        RotationAggregate("stek_rotation"),
        IdentifierGroupsAggregate(
            "stek_groups", SHARED_IDENTIFIER_CHANNELS["stek"], kind="stek"
        ),
        EdgeGroupsAggregate("cache_groups"),
    ]


__all__ = [
    "ShardAggregate",
    "SpanAggregate",
    "LifetimeAggregate",
    "SupportAggregate",
    "RotationAggregate",
    "IdentifierGroupsAggregate",
    "EdgeGroupsAggregate",
    "default_aggregates",
]
