"""HTTP API tests over real sockets."""

import asyncio
import json
from types import SimpleNamespace

from repro import obs
from repro.ais.stream import PositionalTuple
from repro.geo.units import mps_to_knots
from repro.maritime.recognizer import Alert
from repro.service import AlertRing, HttpApi
from repro.tracking import ColumnarTracker
from tests.obs.test_prometheus import parse_exposition
from tests.tracking.helpers import TraceBuilder


class FakeSupervisor:
    """Just the three surfaces HttpApi reads from a real supervisor."""

    def __init__(self):
        self.system = SimpleNamespace(tracker=ColumnarTracker())
        self.alert_ring = AlertRing(16)

    def health(self):
        return {"status": "ok", "slides": 3}


async def http_request(port: int, target: str, method: str = "GET"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"{method} {target} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("ascii").split("\r\n")
    headers = dict(
        line.split(": ", 1) for line in header_lines if ": " in line
    )
    assert int(headers["Content-Length"]) == len(body)
    return int(status_line.split()[1]), headers, body.decode("utf-8")


def serve(scenario):
    """Run ``scenario(api, supervisor)`` against a live HttpApi."""

    async def runner():
        supervisor = FakeSupervisor()
        api = HttpApi(supervisor, "127.0.0.1", 0)
        await api.start()
        try:
            return await scenario(api, supervisor)
        finally:
            await api.stop()

    return asyncio.run(runner())


class TestHttpApi:
    def test_healthz(self):
        async def scenario(api, supervisor):
            return await http_request(api.port, "/healthz")

        status, headers, body = serve(scenario)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {"status": "ok", "slides": 3}

    def test_metrics_is_valid_exposition(self):
        async def scenario(api, supervisor):
            with obs.activate(obs.MetricsRegistry()):
                obs.count("service.ingest.shed", 5)
                obs.set_gauge("service.up", 1)
                return await http_request(api.port, "/metrics")

        status, headers, body = serve(scenario)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        families = parse_exposition(body)
        assert families["repro_service_ingest_shed_total"]["type"] == "counter"
        samples = families["repro_service_ingest_shed_total"]["samples"]
        assert samples["repro_service_ingest_shed_total"] == 5.0

    def test_vessel_snapshot_found_and_missing(self):
        async def scenario(api, supervisor):
            supervisor.system.tracker.process_batch([
                PositionalTuple(9, 24.5, 37.5, 90),
                PositionalTuple(7, 24.0, 37.0, 100),
            ])
            found = await http_request(api.port, "/vessels/7")
            missing = await http_request(api.port, "/vessels/8")
            bad = await http_request(api.port, "/vessels/not-a-number")
            listing = await http_request(api.port, "/vessels")
            return found, missing, bad, listing

        found, missing, bad, listing = serve(scenario)
        assert found[0] == 200
        # One fix and no velocity vector yet.
        assert json.loads(found[2]) == {
            "mmsi": 7, "lon": 24.0, "lat": 37.0, "timestamp": 100,
            "speed_mps": 0.0, "speed_knots": 0.0, "heading_degrees": 0.0,
        }
        assert missing[0] == 404
        assert bad[0] == 400
        assert json.loads(listing[2]) == {"vessels": [7, 9]}

    def test_vessel_snapshot_is_the_trackers_not_an_off_course_outlier(self):
        # The vessel's latest report jumps 2.5 km off its course: the
        # tracker drops it as noise, and /vessels reports the last fix it
        # accepted with the velocity vector it keeps.
        trace = TraceBuilder(mmsi=7).cruise(90.0, 10.0, 8).jump(0.0, 2500.0, 30).build()
        tracker = ColumnarTracker()

        async def scenario(api, supervisor):
            supervisor.system.tracker = tracker
            tracker.process_batch(trace)
            return await http_request(api.port, "/vessels/7")

        status, _, body = serve(scenario)
        assert status == 200
        assert tracker.statistics.positions_discarded_as_outliers == 1
        accepted = trace[-2]
        velocity = tracker.current_velocity(7)
        assert json.loads(body) == {
            "mmsi": 7,
            "lon": accepted.lon,
            "lat": accepted.lat,
            "timestamp": accepted.timestamp,
            "speed_mps": velocity.speed_mps,
            "speed_knots": mps_to_knots(velocity.speed_mps),
            "heading_degrees": velocity.heading_degrees,
        }
        assert abs(velocity.heading_degrees - 90.0) < 1.0

    def test_alerts_since_cursor(self):
        async def scenario(api, supervisor):
            supervisor.alert_ring.append(
                1800,
                (
                    Alert("suspicious", "area_1", 60, None, 1),
                    Alert("illegalFishing", "area_2", 90, 120, 2),
                ),
            )
            everything = await http_request(api.port, "/alerts")
            tail = await http_request(api.port, "/alerts?since=1")
            bad = await http_request(api.port, "/alerts?since=xyz")
            return everything, tail, bad

        everything, tail, bad = serve(scenario)
        payload = json.loads(everything[2])
        assert [a["seq"] for a in payload["alerts"]] == [1, 2]
        assert payload["last_seq"] == 2
        assert [a["seq"] for a in json.loads(tail[2])["alerts"]] == [2]
        assert bad[0] == 400

    def test_alerts_type_filter(self):
        async def scenario(api, supervisor):
            supervisor.alert_ring.append(
                1800,
                (
                    Alert("suspicious", "area_1", 60, None, 1),
                    Alert("illegalFishing", "area_2", 90, 120, 2),
                    Alert("rendezvous", "", 100, 400, mmsi=3, mmsi2=4),
                    Alert("darkShip", "", 150, mmsi=4),
                ),
            )
            with obs.activate(obs.MetricsRegistry()) as registry:
                pairwise = await http_request(
                    api.port, "/alerts?type=rendezvous,darkShip"
                )
                filtered = registry.snapshot()["counters"].get(
                    "service.http.alerts_filtered"
                )
            single = await http_request(api.port, "/alerts?type=suspicious")
            combined = await http_request(
                api.port, "/alerts?since=1&type=illegalFishing"
            )
            return pairwise, filtered, single, combined

        pairwise, filtered, single, combined = serve(scenario)
        payload = json.loads(pairwise[2])
        assert [a["kind"] for a in payload["alerts"]] == [
            "rendezvous", "darkShip",
        ]
        assert payload["alerts"][0]["mmsi2"] == 4
        # The cursor still reflects the unfiltered ring head.
        assert payload["last_seq"] == 4
        # The two excluded entries were counted, not silently dropped.
        assert filtered == 2
        assert [a["kind"] for a in json.loads(single[2])["alerts"]] == [
            "suspicious"
        ]
        # ``since`` applies before the kind filter.
        assert [a["seq"] for a in json.loads(combined[2])["alerts"]] == [2]

    def test_alerts_type_filter_rejects_unknown_kinds(self):
        async def scenario(api, supervisor):
            unknown = await http_request(api.port, "/alerts?type=meteorStrike")
            empty = await http_request(api.port, "/alerts?type=,")
            return unknown, empty

        unknown, empty = serve(scenario)
        assert unknown[0] == 400
        payload = json.loads(unknown[2])
        assert payload["unknown"] == ["meteorStrike"]
        assert "rendezvous" in payload["known"]
        assert empty[0] == 400

    def test_unknown_path_and_bad_method(self):
        async def scenario(api, supervisor):
            missing = await http_request(api.port, "/nope")
            post = await http_request(api.port, "/healthz", method="POST")
            return missing, post

        missing, post = serve(scenario)
        assert missing[0] == 404
        assert post[0] == 405
