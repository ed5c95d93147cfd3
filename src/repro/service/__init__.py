"""The live service layer: always-on surveillance over real sockets.

The paper's system is an *online* monitor — AIVDM sentences arrive over
the wire and critical points / complex events are emitted as they happen
(Sections 2–4).  This package wraps the batch pipeline behind three
stdlib-only asyncio surfaces:

* :mod:`repro.service.ingest` — a TCP listener for raw ``!AIVDM`` lines
  from many concurrent feeds, with a bounded queue and counted
  oldest-first load-shedding;
* :mod:`repro.service.feed` — a newline-delimited-JSON subscription feed
  publishing each slide's alerts and critical points, evicting slow
  consumers;
* :mod:`repro.service.http` — ``/healthz``, Prometheus ``/metrics``,
  ``/vessels/{mmsi}`` and ``/alerts?since=``.

:class:`ServiceSupervisor` owns the assembly and the graceful drain;
:mod:`repro.service.replay` is the offline twin the parity tests compare
against, byte for byte.  Wire formats: docs/SERVICE.md.
"""

from repro.service.batcher import SlideBatcher
from repro.service.config import ServiceConfig
from repro.service.feed import FeedHub
from repro.service.feedclient import ResumableFeedReader
from repro.service.http import HttpApi
from repro.service.ingest import IngestQueue, IngestServer
from repro.service.protocol import (
    alert_to_dict,
    format_ingest_line,
    format_resume,
    format_stamped_line,
    parse_ingest_line,
    parse_resume,
    parse_stamped_line,
    point_to_dict,
    slide_feed_line,
)
from repro.service.quarantine import DeadLetterBuffer
from repro.service.replay import offline_feed_lines
from repro.service.state import AlertRing
from repro.service.supervisor import ServiceSupervisor, run_service

__all__ = [
    "AlertRing",
    "DeadLetterBuffer",
    "FeedHub",
    "HttpApi",
    "IngestQueue",
    "IngestServer",
    "ResumableFeedReader",
    "ServiceConfig",
    "ServiceSupervisor",
    "SlideBatcher",
    "alert_to_dict",
    "format_ingest_line",
    "format_resume",
    "format_stamped_line",
    "offline_feed_lines",
    "parse_ingest_line",
    "parse_resume",
    "parse_stamped_line",
    "point_to_dict",
    "run_service",
    "slide_feed_line",
]
