"""Crash, recover, and prove byte-identical parity — the chaos suite.

The durability contract (docs/RESILIENCE.md): a service killed mid-stream
with a write-ahead journal loses nothing it had consumed.  A restarted
supervisor replays the journal through a fresh pipeline and republishes
every slide byte-for-byte, then live ingest resumes the pending partial
slide — so the union of the recovered run's output equals the
uninterrupted offline replay of the full sentence stream, exactly.

The crash is an injected ``service.slide:crash`` fault
(:class:`SimulatedCrash` — the in-process stand-in for ``kill -9``; the
out-of-process SIGKILL drill lives in ``benchmarks/chaos_drill.py`` and
the chaos CI job).
"""

import asyncio
import time

from repro.resilience import FaultPlan, SimulatedCrash, inject
from repro.resilience.wal import read_journal
from repro.service import ServiceConfig, ServiceSupervisor
from tests.parity import (
    EPHEMERAL,
    PipelineWedge,
    offline_oracle,
    poll,
    run_live,
    send_sentences,
    tap_feed,
)


async def run_until_crash(sentences, world, specs, service, plan):
    """Feed the stream into a service armed with ``plan`` until the
    injected crash kills the batcher; abandon everything un-drained,
    exactly like a process death."""
    supervisor = ServiceSupervisor(world, specs, service=service)
    lines = tap_feed(supervisor)
    with inject(plan) as injector:
        await supervisor.start()
        await send_sentences(supervisor.ports()["ingest"], sentences)
        await poll(lambda: supervisor._batcher_task.done())
        assert isinstance(
            supervisor._batcher_task.exception(), SimulatedCrash
        ), "the planned crash must be what killed the batcher"
        fired = injector.snapshot()["fired"]
    # Abandon: no drain, no finalize, no journal truncation — just release
    # OS resources the dead process would have dropped anyway.
    await supervisor.ingest.stop()
    await supervisor.feed.close()
    await supervisor.http.stop()
    supervisor.batcher.abort()
    if hasattr(supervisor.system, "close"):
        supervisor.system.close()
    supervisor.system.database.close()
    return supervisor, lines, fired


async def run_recovered(tail, world, specs, service):
    """Restart on the same WAL dir, replay, then feed the tail and drain."""
    supervisor = ServiceSupervisor(world, specs, service=service)
    lines = tap_feed(supervisor)
    await supervisor.start()  # journal replay republishes in here
    await send_sentences(supervisor.ports()["ingest"], tail)
    await poll(lambda: supervisor.ingest.open_connections == 0)
    await supervisor.drain_and_stop()
    return supervisor, lines


class TestCrashRecoveryParity:
    def test_crash_restart_replay_is_byte_identical(
        self, tmp_path, world, small_fleet, soak_sentences
    ):
        wal_dir = tmp_path / "wal"
        service = ServiceConfig(
            wal_dir=str(wal_dir),
            ingest_queue_size=len(soak_sentences) + 1,  # no shed: full WAL
            **EPHEMERAL,
        )
        plan = FaultPlan.from_spec("service.slide:crash@3")
        crashed, run1_lines, fired = asyncio.run(
            run_until_crash(
                soak_sentences, world, small_fleet["specs"], service, plan
            )
        )
        assert fired == ["service.slide:crash@3"]
        assert crashed.queue.shed_count == 0

        offline = offline_oracle(soak_sentences, world, small_fleet["specs"])
        # Everything published before the crash is a clean prefix of the
        # uninterrupted run — no corrupt or partial slide escaped.
        assert run1_lines == offline[: len(run1_lines)]
        assert 0 < len(run1_lines) < len(offline)

        # The journal holds exactly the consumed prefix of the stream.
        journaled, stats = read_journal(wal_dir)
        assert stats.dropped_bytes == 0
        assert journaled == soak_sentences[: len(journaled)]
        assert len(journaled) >= len(run1_lines)

        recovered, run2_lines = asyncio.run(
            run_recovered(
                soak_sentences[len(journaled):],
                world,
                small_fleet["specs"],
                service,
            )
        )
        assert recovered.recovered_records == len(journaled)
        # THE guarantee: recovery + resumed live ingest reproduces the
        # uninterrupted offline replay byte for byte, finalize included.
        assert run2_lines == offline
        # At-least-once republication covers the crashed run's output.
        assert run2_lines[: len(run1_lines)] == run1_lines
        # A clean drain discharges the journal entirely.
        assert read_journal(wal_dir)[0] == []

    def test_unjournaled_service_still_runs(self, world, small_fleet,
                                            soak_sentences):
        """No wal_dir: the paper's main-memory behaviour, no recovery."""
        service = ServiceConfig(**EPHEMERAL)
        supervisor = ServiceSupervisor(world, small_fleet["specs"],
                                       service=service)
        assert supervisor.journal is None
        assert supervisor.recovered_records == 0
        supervisor.system.database.close()


class TestDrainDeadline:
    def test_wedged_slide_forces_abort_instead_of_hanging(
        self, world, small_fleet, soak_sentences
    ):
        """The satellite bugfix: drain used to await the batcher forever."""
        wedge = PipelineWedge()
        service = ServiceConfig(**EPHEMERAL)

        async def scenario():
            supervisor = ServiceSupervisor(
                world, small_fleet["specs"], service=service,
                system_factory=wedge.system,
            )
            supervisor.drain_timeout_seconds = 0.5
            await supervisor.start()
            # Enough sentences to close slide one and wedge in its archive.
            await send_sentences(
                supervisor.ports()["ingest"], soak_sentences[:2000]
            )
            await poll(lambda: supervisor.ingest.open_connections == 0)
            started = time.monotonic()
            await supervisor.drain_and_stop()
            elapsed = time.monotonic() - started
            wedge.archive_releases[0].set()
            return supervisor, elapsed

        supervisor, elapsed = asyncio.run(scenario())
        assert wedge.reached.is_set(), "the archive never reached the wedge"
        assert supervisor.forced_abort, "deadline must force the abort"
        assert elapsed < 10.0, f"drain hung for {elapsed:.1f}s"
        assert supervisor.health()["forced_abort"] is True


class TestDeadLetterQuarantine:
    def test_malformed_sentences_are_quarantined_with_reasons(
        self, world, small_fleet, soak_sentences
    ):
        polluted = list(soak_sentences[:300])
        polluted.insert(50, (polluted[50][0], "!AIVDM,1,1,,A,garbage,0*00"))
        polluted.insert(100, (polluted[100][0], "!AIVDM,notanumber*7F"))
        supervisor, _ = asyncio.run(
            run_live(polluted, world, small_fleet["specs"])
        )
        deadletter = supervisor.batcher.deadletter
        assert deadletter.total >= 2
        snapshot = deadletter.snapshot(limit=10)
        assert sum(snapshot["by_reason"].values()) == snapshot["total"]
        quarantined = {entry["sentence"] for entry in snapshot["recent"]}
        assert "!AIVDM,1,1,,A,garbage,0*00" in quarantined
        # The debug endpoint serves the same view.
        status, payload, _ = supervisor.http._route("/deadletter?limit=5")
        assert status == 200
        assert payload["total"] == deadletter.total
        assert len(payload["recent"]) <= 5

    def test_a_bare_batcher_quarantines_what_the_scanner_rejects(self):
        """The buffer is the batcher's own: one built with no hooks at
        all still quarantines a rejected sentence with its cause."""
        from repro.service.batcher import SlideBatcher

        batcher = SlideBatcher(system=None, queue=None, slide_seconds=60)
        sentence = "!AIVDM,1,1,,A,garbage,0*00"
        asyncio.run(batcher._ingest([(5, sentence)], journal=False))
        (letter,) = batcher.deadletter.recent()
        assert (letter["receive_time"], letter["sentence"]) == (5, sentence)
        assert letter["reason"] == "bad_checksum"

    def test_capacity_bounds_the_buffer(self, world, small_fleet):
        from repro.service.quarantine import DeadLetterBuffer

        buffer = DeadLetterBuffer(capacity=4)
        for i in range(10):
            buffer.quarantine(i, f"bad-{i}", "bad_checksum")
        assert len(buffer) == 4
        assert buffer.total == 10
        assert buffer.evicted == 6
        newest = buffer.recent(limit=2)
        assert newest[0]["sentence"] == "bad-9"
