"""End-to-end soak tests: TCP ingest must equal the offline replay, byte for byte.

The live path (real sockets -> IngestQueue -> SlideBatcher -> feed) and
the offline path (DataScanner -> StreamReplayer -> slide_feed_line) must
produce identical feed lines for the same sentence stream — as sent, and
across an induced load-shed (where parity holds for
the post-shed stream the batcher recorded, and every shed sentence is
counted in the metrics registry).
"""

import asyncio
import time

from repro import obs
from repro.obs.registry import render_prometheus
from repro.pipeline.system import SurveillanceSystem
from repro.service import ServiceConfig
from tests.parity import EPHEMERAL, offline_oracle, run_live


class TestSoakParity:
    def test_tcp_ingest_matches_offline_replay_one_shard(
        self, world, small_fleet, soak_sentences
    ):
        supervisor, live = asyncio.run(
            run_live(soak_sentences, world, small_fleet["specs"])
        )
        offline = offline_oracle(
            soak_sentences, world, small_fleet["specs"]
        )
        assert supervisor.queue.shed_count == 0
        assert live == offline  # byte-identical, slide for slide
        assert supervisor.batcher.scanner.statistics.reassembled > 0
        assert any('"type": "finalize"' in line or
                   '"type":"finalize"' in line for line in live)

    def test_induced_load_shed_is_counted_and_parity_holds(
        self, world, small_fleet, soak_sentences
    ):
        """Overrun a tiny queue; parity must hold for the post-shed stream."""

        class SlowSystem(SurveillanceSystem):
            """The real pipeline, stalling each slide so the socket reader
            outruns the batcher and the bounded queue must shed."""

            stalls = 0

            def close_slide(self, query_time):
                self.stalls += 1
                time.sleep(0.05)
                return super().close_slide(query_time)

        service = ServiceConfig(ingest_queue_size=64, **EPHEMERAL)
        recorded = []
        with obs.activate(obs.MetricsRegistry()) as registry:
            supervisor, live = asyncio.run(
                run_live(
                    soak_sentences,
                    world,
                    small_fleet["specs"],
                    service=service,
                    system_factory=SlowSystem,
                    ingested=recorded,
                )
            )
            exposition = render_prometheus(registry)

        assert supervisor.system.stalls == supervisor.batcher.slides_processed > 0
        assert supervisor.queue.shed_count > 0, "test failed to induce shedding"
        # Shed events are counted, never silent — and visible on /metrics.
        assert (
            registry.counter("service.ingest.shed").value
            == supervisor.queue.shed_count
        )
        assert (
            f"repro_service_ingest_shed_total {supervisor.queue.shed_count}"
            in exposition
        )
        # The surviving stream is exactly what the batcher recorded, and
        # replaying it offline reproduces the live feed byte for byte.
        assert len(recorded) == len(soak_sentences) - supervisor.queue.shed_count
        offline = offline_oracle(recorded, world, small_fleet["specs"])
        assert live == offline
