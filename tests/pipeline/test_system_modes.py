"""Pipeline operation modes: spatial facts, recognition off, disk-backed MOD.

The spatial-facts mode is the test-side reference of
``tests/maritime/spatial_facts.py``, swapped into the pipeline.
"""

from repro.ais.stream import StreamReplayer, TimedArrival
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.tracking import WindowSpec
from tests.maritime.spatial_facts import use_spatial_facts


def run_stream(system, stream, slide=900):
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    reports = []
    for query_time, batch in StreamReplayer(arrivals, slide).batches():
        reports.append(system.process_slide(batch, query_time))
    return reports


class TestSpatialFactsMode:
    def test_pipeline_recognizes_in_both_modes(self, world, small_fleet):
        def alerts_with(spatial_facts):
            config = SystemConfig(window=WindowSpec.of_hours(4, 0.5))
            system = SurveillanceSystem(world, small_fleet["specs"], config)
            if spatial_facts:
                use_spatial_facts(system, small_fleet["specs"])
            run_stream(system, small_fleet["stream"], slide=1800)
            return {
                (a.kind, a.area, a.since) for a in system.alerts()
            }

        assert alerts_with(True) == alerts_with(False)


class TestRecognitionDisabled:
    def test_no_recognition_phase(self, world, small_fleet):
        config = SystemConfig(
            window=WindowSpec.of_hours(1, 0.25), enable_recognition=False
        )
        system = SurveillanceSystem(world, small_fleet["specs"], config)
        reports = run_stream(system, small_fleet["stream"])
        assert all("recognition" not in r.timings for r in reports)
        assert all(r.recognized_complex_events == 0 for r in reports)
        assert all(r.alerts == () for r in reports)


class TestDiskBackedDatabase:
    def test_archive_persists_to_file(self, world, small_fleet, tmp_path):
        path = tmp_path / "archive.sqlite"
        config = SystemConfig(
            window=WindowSpec.of_hours(1, 0.25),
            database_path=str(path),
            enable_recognition=False,
        )
        system = SurveillanceSystem(world, small_fleet["specs"], config)
        run_stream(system, small_fleet["stream"])
        system.finalize()
        system.database.close()
        assert path.exists()
        assert path.stat().st_size > 0

        # Reopen read-only and confirm the data survived the process.
        import sqlite3

        connection = sqlite3.connect(path)
        (staged,) = connection.execute(
            "SELECT COUNT(*) FROM staging"
        ).fetchone()
        (trips,) = connection.execute("SELECT COUNT(*) FROM trips").fetchone()
        connection.close()
        assert staged + trips > 0
