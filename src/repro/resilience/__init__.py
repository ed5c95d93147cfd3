"""Durability and chaos engineering for the surveillance pipeline.

The paper's Mobility Tracker is a main-memory stream processor: a crash
loses every in-flight position report.  The follow-up system papers
(Patroumpas et al., Pitsikalis et al.) stress 24/7 operation over real
AIS feeds that are noisy, delayed and interrupted.  This package is the
durability and chaos layer that makes the live service (docs/SERVICE.md)
survive that reality — and *prove* it under injected failure:

* :mod:`repro.resilience.wal` — a crash-safe write-ahead ingest
  journal in one file with per-record CRCs, configurable fsync policy and
  truncated-tail-tolerant recovery;
* :mod:`repro.resilience.faults` — deterministic, seeded, replayable
  fault injection at named sites (socket drop, MOD write failure,
  slow or crashed slide, corrupt journal record);
* :mod:`repro.resilience.retry` — the deterministic exponential backoff
  schedule behind gateway re-dials, runtime restarts and the feed
  client's reconnects;
* :mod:`repro.resilience.watchdog` — stalled-slide detection, counted
  and reported on ``/healthz``.

Guarantees, fault sites and trade-offs: docs/RESILIENCE.md.
"""

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
from repro.resilience.retry import BackoffPolicy
from repro.resilience.wal import (
    IngestJournal,
    RecoveryStats,
    read_journal,
)
from repro.resilience.watchdog import SlideWatchdog

__all__ = [
    "SITES",
    "BackoffPolicy",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "IngestJournal",
    "InjectedFault",
    "RecoveryStats",
    "SimulatedCrash",
    "SlideWatchdog",
    "fault_point",
    "get_injector",
    "inject",
    "install",
    "read_journal",
    "seedable_sites",
    "uninstall",
]
