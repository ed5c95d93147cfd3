"""Scale-out tier: shard-aware ingest gateways over partitioned runtimes.

One surveillance runtime tops out at one process's pipeline throughput.
This package scales *out* instead of up (docs/GATEWAY.md): N
:class:`GatewayNode` listeners accept client connections on either
transport (:mod:`repro.transport`), hash each ``!AIVDM``
sentence's MMSI to the runtime that owns the vessel, and keep the
cluster's slide cadence aligned with in-band watermarks; a
:class:`GatewayAggregator` federates the per-node ``/metrics``
registries, fans the per-runtime alert feeds into one deterministically
merged subscription, and serves a cluster ``/healthz`` with per-node
vitals.  :class:`GatewayCluster` assembles the whole topology in one
process.

The deployment contract: backend runtimes run with
``SystemConfig.ce_scope = "vessel"`` so recognition is MMSI-decomposable,
and the merged feed is then *byte-identical* to a single-node pipeline
over the same sentences.
"""

from repro.gateway.aggregator import GatewayAggregator
from repro.gateway.cluster import GatewayCluster
from repro.gateway.config import GatewayClusterConfig
from repro.gateway.fanin import FeedFanIn
from repro.gateway.health import ClusterSupervisor, LinkFailureDetector
from repro.gateway.merge import merge_order_key, merged_feed_line
from repro.gateway.metrics import federate_prometheus
from repro.gateway.node import GatewayNode, RuntimeLink
from repro.gateway.routing import SentenceRouter, shard_for_mmsi

__all__ = [
    "ClusterSupervisor",
    "FeedFanIn",
    "GatewayAggregator",
    "GatewayCluster",
    "GatewayClusterConfig",
    "GatewayNode",
    "LinkFailureDetector",
    "RuntimeLink",
    "SentenceRouter",
    "federate_prometheus",
    "merge_order_key",
    "merged_feed_line",
    "shard_for_mmsi",
]
