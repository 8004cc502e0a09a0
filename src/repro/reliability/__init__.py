"""``repro.reliability`` — the defenses against imperfect data sources.

Where :mod:`repro.faults` breaks the pipeline's three data sources the
way the real study's sources broke, this package makes the pipeline
survive it:

* :class:`RetryPolicy` — exponential backoff with *seeded* jitter
  (determinism rule R002: no ambient entropy), so a retried run replays
  bit-for-bit;
* :class:`CircuitBreaker` — per-source breaker with half-open probing,
  cooled down in call counts rather than wall-clock time (again R002);
* :class:`CheckpointStore` — atomic JSON checkpoints of completed
  block-range chunks, enabling ``repro run --resume`` after a crash;
* :class:`DataQualityReport` — per-source coverage, retries, breaker
  trips and gap ranges, attached to every :class:`MevDataset` so
  degraded runs are *visibly* degraded, never silently wrong;
* ``Reliable*`` facades — the typed archive-node, mempool-observer and
  Flashbots-API surfaces, each calling its inner source directly
  through its own :class:`ResilientCaller` (retry + breaker + stats);
  :func:`shield` wraps all three at once.

Operation keys render through :func:`repro.faults.plan.render_key`, the
same renderer the fault gates use, so an injected fault and the retry
that absorbs it agree on which operation they are about.
"""

from repro.reliability.checkpoint import CheckpointError, CheckpointStore
from repro.reliability.circuit import (
    CircuitBreaker,
    CircuitOpenError,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.reliability.quality import DataQualityReport, SourceQuality
from repro.reliability.retry import RetryExhaustedError, RetryPolicy
from repro.reliability.sources import (
    ReliableArchiveNode,
    ReliableFlashbotsApi,
    ReliableMempoolObserver,
    ResilientCaller,
    SourceStats,
    shield,
)

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "CircuitBreaker",
    "CircuitOpenError",
    "DataQualityReport",
    "ReliableArchiveNode",
    "ReliableFlashbotsApi",
    "ReliableMempoolObserver",
    "ResilientCaller",
    "RetryExhaustedError",
    "RetryPolicy",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "SourceQuality",
    "SourceStats",
    "shield",
]
