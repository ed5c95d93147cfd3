"""Tests for the assembled surveillance system."""

import pytest

from repro.ais.stream import StreamReplayer, TimedArrival
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.tracking import WindowSpec


@pytest.fixture()
def system(world, small_fleet):
    config = SystemConfig(window=WindowSpec.of_hours(1, 0.25))
    return SurveillanceSystem(world, small_fleet["specs"], config)


def run_stream(system, stream, slide=900):
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    reports = []
    for query_time, batch in StreamReplayer(arrivals, slide).batches():
        reports.append(system.process_slide(batch, query_time))
    return reports


class TestProcessing:
    def test_slide_reports_accumulate(self, system, small_fleet):
        reports = run_stream(system, small_fleet["stream"])
        assert len(reports) > 4
        assert sum(r.raw_positions for r in reports) == len(small_fleet["stream"])
        assert all(set(r.timings) >= {"tracking", "staging", "recognition"}
                   for r in reports)

    def test_compression_achieved(self, system, small_fleet):
        run_stream(system, small_fleet["stream"])
        ratio = system.compressor.statistics.compression_ratio
        assert ratio > 0.8

    def test_phase_timings_recorded(self, system, small_fleet):
        run_stream(system, small_fleet["stream"])
        averages = system.timings.averages()
        assert averages["tracking"] > 0.0
        assert system.timings.slides > 0

    def test_database_receives_expired_points(self, system, small_fleet):
        reports = run_stream(system, small_fleet["stream"])
        expired_total = sum(r.expired_critical_points for r in reports)
        if expired_total:
            archived = system.database.staged_count() + sum(
                t["point_count"] for t in system.database.all_trips()
            )
            assert archived > 0

    def test_finalize_flushes_synopsis(self, system, small_fleet):
        run_stream(system, small_fleet["stream"])
        in_window = len(system.current_synopsis())
        final = system.finalize()
        assert final is not None
        # Everything left the window into the archive.
        archived = system.database.staged_count() + sum(
            t["point_count"] for t in system.database.all_trips()
        )
        assert archived >= in_window

    def test_finalize_without_stream_is_noop(self, world, small_fleet):
        system = SurveillanceSystem(world, small_fleet["specs"])
        assert system.finalize() is None

    def test_a_slide_owed_its_archive_cannot_be_overwritten(
        self, system, small_fleet
    ):
        """A second close before the archive would drop the MOD rows the
        first slide still owes; it raises instead, and archiving clears it."""
        arrivals = [TimedArrival(p.timestamp, p) for p in small_fleet["stream"]]
        (first, batch), (second, _) = list(
            StreamReplayer(arrivals, 900).batches()
        )[:2]
        system.track(batch)
        system.close_slide(first)
        with pytest.raises(RuntimeError, match=f"slide {first} "):
            system.close_slide(second)
        with pytest.raises(RuntimeError, match=f"slide {first} "):
            system.finalize()
        system.archive()
        assert system.timings.slides == 1
        assert system.finalize() is not None


class TestOutputs:
    def test_kml_export(self, system, small_fleet):
        import xml.etree.ElementTree as ET

        run_stream(system, small_fleet["stream"])
        document = system.export_kml()
        assert ET.fromstring(document).tag.endswith("kml")

    def test_geojson_export(self, system, small_fleet):
        run_stream(system, small_fleet["stream"])
        collection = system.export_geojson()
        assert collection["type"] == "FeatureCollection"

    def test_alerts_accessible(self, system, small_fleet):
        run_stream(system, small_fleet["stream"])
        assert isinstance(system.alerts(), list)
