"""``repro.faults`` — deterministic fault injection for the data sources.

The paper's measurement ran against three imperfect sources: a
go-ethereum archive node, a lossy ``pendingTransactions`` trace
(Section 6.1 explicitly models missed transactions), and the public
Flashbots blocks dataset, which the authors note has gaps.  This package
reproduces those failure modes *on purpose*: transport facades wrap each
source and inject transient errors, timeouts, truncated/malformed
responses, dataset gaps, and observer downtime according to a seeded
:class:`FaultPlan`.

Every injected fault is a pure function of ``(seed, source, operation,
key)``, so a chaos run replays bit-for-bit — the same property the rest
of the simulator guarantees (lint rule R002).  The defenses live in
:mod:`repro.reliability`; this package only breaks things.
"""

from repro.faults.errors import (
    DataSourceError,
    MalformedResponseError,
    SourceGapError,
    TransportError,
    TransportTimeout,
)
from repro.faults.feed import (
    ChainFeed,
    FaultyFeed,
    FeedEvent,
    fork_block,
)
from repro.faults.plan import (
    FAULT_PROFILES,
    FaultDecision,
    FaultPlan,
    FaultSpec,
    FeedDecision,
    FeedFaultSpec,
    render_key,
)
from repro.faults.transports import (
    FaultyArchiveNode,
    FaultyFlashbotsApi,
    FaultyMempoolObserver,
)

__all__ = [
    "ChainFeed",
    "DataSourceError",
    "FAULT_PROFILES",
    "FaultDecision",
    "FaultPlan",
    "FaultSpec",
    "FaultyArchiveNode",
    "FaultyFeed",
    "FaultyFlashbotsApi",
    "FaultyMempoolObserver",
    "FeedDecision",
    "FeedEvent",
    "FeedFaultSpec",
    "MalformedResponseError",
    "SourceGapError",
    "TransportError",
    "TransportTimeout",
    "fork_block",
    "render_key",
]
