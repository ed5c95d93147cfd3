"""Durability and chaos engineering for the surveillance pipeline.

The paper's Mobility Tracker is a main-memory stream processor: a crash
loses every in-flight position report.  The follow-up system papers
(Patroumpas et al., Pitsikalis et al.) stress 24/7 operation over real
AIS feeds that are noisy, delayed and interrupted.  This package is the
durability and chaos layer that makes the live service (docs/SERVICE.md)
survive that reality — and *prove* it under injected failure:

* :mod:`repro.resilience.wal` — a crash-safe, segmented write-ahead
  ingest journal with per-record CRCs, configurable fsync policy and
  truncated-tail-tolerant recovery;
* :mod:`repro.resilience.faults` — deterministic, seeded, replayable
  fault injection at named sites (socket drop, MOD write failure,
  slow or crashed slide, corrupt WAL segment);
* :mod:`repro.resilience.retry` — deterministic exponential backoff with
  a bounded attempt budget;
* :mod:`repro.resilience.breaker` — a circuit breaker protecting the MOD
  sqlite write path;
* :mod:`repro.resilience.guard` — graceful degradation: when the MOD is
  down, critical points spill to a WAL-backed queue and recognition
  keeps running; the backlog drains on recovery;
* :mod:`repro.resilience.watchdog` — stalled-slide detection, counted
  and reported on ``/healthz``.

Guarantees, fault sites and trade-offs: docs/RESILIENCE.md.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import (
    SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SimulatedCrash,
    fault_point,
    get_injector,
    inject,
    install,
    seedable_sites,
    uninstall,
)
from repro.resilience.guard import GuardedDatabase, SpillQueue
from repro.resilience.retry import BackoffPolicy, retry_call
from repro.resilience.wal import (
    IngestJournal,
    RecoveryStats,
    WalRecord,
    WriteAheadLog,
    read_wal,
)
from repro.resilience.watchdog import SlideWatchdog

__all__ = [
    "SITES",
    "BackoffPolicy",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "GuardedDatabase",
    "IngestJournal",
    "InjectedFault",
    "RecoveryStats",
    "SimulatedCrash",
    "SlideWatchdog",
    "SpillQueue",
    "WalRecord",
    "WriteAheadLog",
    "fault_point",
    "get_injector",
    "inject",
    "install",
    "read_wal",
    "retry_call",
    "seedable_sites",
    "uninstall",
]
