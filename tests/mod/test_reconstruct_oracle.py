"""Incremental trip reconstruction against the from-scratch oracle.

:meth:`MovingObjectDatabase.reconstruct` folds only the staging rows it
has not seen into per-vessel segmentation state.  The oracle below is the
reconstruct it replaced, kept verbatim: every call re-reads and
re-segments every vessel's whole staged residue.  Both run over the same
staging rows (ids included) and must leave identical ``trips``,
``trip_points`` and ``staging`` tables after every call — on the
``archive_replay`` fleet, on generated streams with late rows, ties at
the cutoff, pier drift and unknown origins, under spill/drain faults, and
across a close/reopen of an on-disk MOD.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from repro import obs
from repro.ais.stream import PositionalTuple, StreamReplayer, TimedArrival
from repro.geo.polygon import GeoPolygon
from repro.mod.database import MovingObjectDatabase
from repro.obs import MetricsRegistry
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.reconstruct.trips import TripSegmenter
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultPlan, inject
from repro.resilience.guard import GuardedDatabase
from repro.resilience.retry import BackoffPolicy
from repro.simulator import FleetSimulator, build_aegean_world
from repro.simulator.noise import NO_NOISE, NoiseModel
from repro.simulator.world import Port
from repro.tracking import WindowSpec
from repro.tracking.types import CriticalPoint, MovementEventType

STAGING_COLUMNS = (
    "id, mmsi, lon, lat, timestamp, annotations, speed_mps, "
    "heading_degrees, duration_seconds"
)


def reconstruct_from_scratch(
    database: MovingObjectDatabase, segmenter: TripSegmenter
) -> int:
    """The MOD's reconstruct before it kept state (the oracle)."""
    connection = database.connection
    cursor = connection.execute("SELECT DISTINCT mmsi FROM staging")
    vessels = [row[0] for row in cursor.fetchall()]
    new_trips = 0
    for mmsi in vessels:
        points = database.staged_points(mmsi)
        trips, residue = segmenter.segment(points)
        if not trips:
            continue
        for trip in trips:
            database._insert_trip(trip)
            new_trips += 1
        cutoff = min(
            (p.timestamp for p in residue),
            default=points[-1].timestamp + 1,
        )
        connection.execute(
            "DELETE FROM staging WHERE mmsi = ? AND timestamp < ?",
            (mmsi, cutoff),
        )
    connection.commit()
    return new_trips


def tables(database: MovingObjectDatabase) -> dict:
    connection = database.connection
    return {
        "trips": connection.execute(
            "SELECT * FROM trips ORDER BY trip_id"
        ).fetchall(),
        "trip_points": connection.execute(
            "SELECT * FROM trip_points ORDER BY trip_id, seq"
        ).fetchall(),
        "staging": connection.execute(
            f"SELECT {STAGING_COLUMNS} FROM staging ORDER BY id"
        ).fetchall(),
    }


class Twin:
    """A MOD whose every ``reconstruct`` is checked against the oracle.

    Staging goes to the incremental database only; each ``reconstruct``
    first copies the rows staged since the last one (ids included) into
    the oracle's staging table, so a fault injected at ``mod.write``
    fires once per batch, exactly as without the twin.  Mismatches are
    recorded, not raised, because :class:`GuardedDatabase` swallows
    reconstruct exceptions.
    """

    def __init__(self, incremental: MovingObjectDatabase, ports: list[Port]):
        self.incremental = incremental
        self.oracle = MovingObjectDatabase(ports)
        self.segmenter = TripSegmenter(ports)
        self.copied = 0
        self.calls = 0
        self.trips = 0
        self.mismatches: list[int] = []

    def stage_points(self, points: list[CriticalPoint]) -> int:
        return self.incremental.stage_points(points)

    def reconstruct(self, timings: dict | None = None) -> int:
        rows = self.incremental.connection.execute(
            f"SELECT {STAGING_COLUMNS} FROM staging WHERE id > ? ORDER BY id",
            (self.copied,),
        ).fetchall()
        # A failing call must leave the incremental side as it was; the
        # oracle then does not run either.
        got = self.incremental.reconstruct(timings)
        self.oracle.connection.executemany(
            f"INSERT INTO staging ({STAGING_COLUMNS}) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        if rows:
            self.copied = rows[-1][0]
        expected = reconstruct_from_scratch(self.oracle, self.segmenter)
        self.calls += 1
        self.trips += expected
        if (got, tables(self.incremental)) != (expected, tables(self.oracle)):
            self.mismatches.append(self.calls)
        return got

    def reopen(self, ports: list[Port], path: str) -> None:
        self.incremental.close()
        self.incremental = MovingObjectDatabase(ports, path=path)

    def close(self) -> None:
        self.incremental.close()
        self.oracle.close()


# ----------------------------------------------------------------------
# the archive_replay fleet and config (benchmarks/e2e/inputs.py)
# ----------------------------------------------------------------------

ARCHIVE_CONFIG = SystemConfig(window=WindowSpec.of_minutes(120, 30))
ARCHIVE_SEEDS = (2015, 7)


class CallRecorder:
    """Stands in for a pipeline's MOD: keeps, per reconstruct call, the
    points staged since the call before."""

    def __init__(self):
        self.calls: list[list[CriticalPoint]] = []
        self._pending: list[CriticalPoint] = []

    def stage_points(self, points):
        self._pending.extend(points)
        return len(points)

    def reconstruct(self, timings=None):
        self.calls.append(self._pending)
        self._pending = []
        return 0


@pytest.fixture(scope="module")
def archive():
    """The ports and, per seed, what an ``archive_replay`` pass hands its
    MOD: the e2e harness's 150-vessel 12 h scenario, noise re-drawn per
    seed, replayed through the pipeline once (recognition off: it does
    not touch the MOD)."""
    world = build_aegean_world()
    simulator = FleetSimulator(
        world, seed=2015, duration_seconds=12 * 3600, noise=NO_NOISE
    )
    vessels = simulator.build_mixed_fleet(150)
    specs = {vessel.mmsi: vessel.spec for vessel in vessels}
    tracks = simulator.positions(vessels)
    config = replace(ARCHIVE_CONFIG, enable_recognition=False)
    calls = {}
    for seed in ARCHIVE_SEEDS:
        rng = random.Random(seed)
        noise = NoiseModel()
        arrivals = []
        for track in tracks:
            lon, lat, _ = noise.perturb(rng, track.lon, track.lat)
            position = PositionalTuple(track.mmsi, lon, lat, track.timestamp)
            arrivals.append(TimedArrival(position.timestamp, position))
        system = SurveillanceSystem(world, specs, config)
        system.database.close()
        recorder = system.database = CallRecorder()
        slide = config.window.slide_seconds
        for query_time, batch in StreamReplayer(arrivals, slide).batches():
            system.process_slide(batch, query_time)
        system.finalize()
        calls[seed] = recorder.calls
    return world.ports, calls


def play(database, calls, before_call=None) -> None:
    """Stage and reconstruct as the pipeline did."""
    for index, batch in enumerate(calls):
        if before_call is not None:
            before_call(index)
        if batch:
            database.stage_points(batch)
        database.reconstruct()


@pytest.mark.parametrize("seed", ARCHIVE_SEEDS)
def test_archive_fleet_matches_oracle(archive, seed):
    ports, calls = archive
    twin = Twin(MovingObjectDatabase(ports), ports)
    play(twin, calls[seed])
    assert twin.calls > 20
    assert twin.trips > 0
    assert twin.mismatches == []
    twin.close()


def test_spill_and_drain_under_write_faults_match_oracle(archive):
    ports, calls = archive
    twin = Twin(MovingObjectDatabase(ports), ports)
    guard = GuardedDatabase(
        twin,
        breaker=CircuitBreaker(failure_threshold=1, recovery_seconds=0.0),
        policy=BackoffPolicy(initial_seconds=0.0, max_attempts=1),
        sleep=lambda _: None,
    )
    plan = FaultPlan.from_spec(
        "mod.write:error@4,mod.write:error@5,mod.write:error@6,"
        "mod.write:error@12,mod.reconstruct:error@14"
    )
    with inject(plan):
        play(guard, calls[2015])
    assert guard.spill.drained_count > 0
    assert len(guard.spill) == 0
    assert twin.trips > 0
    assert twin.mismatches == []
    guard.close()


def test_reopened_on_disk_mod_matches_oracle(archive, tmp_path):
    ports, calls = archive
    path = str(tmp_path / "mod.sqlite")
    twin = Twin(MovingObjectDatabase(ports, path=path), ports)

    def reopen_midway(index):
        if index in (8, 16):
            closed = twin.incremental
            twin.reopen(ports, path)
            # Closing drops the kept state; the reopened MOD rebuilds it
            # from the whole staging table on its first reconstruct.
            assert closed._vessels == {}

    play(twin, calls[2015], reopen_midway)
    assert twin.trips > 0
    assert twin.mismatches == []
    twin.close()


# ----------------------------------------------------------------------
# generated streams
# ----------------------------------------------------------------------

PORT_A = Port("alpha", 23.0, 38.0, GeoPolygon.rectangle("pa", 23.0, 38.0, 3000, 3000))
PORT_B = Port("beta", 24.0, 38.0, GeoPolygon.rectangle("pb", 24.0, 38.0, 3000, 3000))
PORTS = [PORT_A, PORT_B]

#: Where a generated point lies: two ports, a pier spot inside alpha
#: (same-port drift), open sea at two distances, and an anchorage stop.
LOCATIONS = {
    "alpha": (23.0, 38.0),
    "pier": (23.01, 38.005),
    "beta": (24.0, 38.0),
    "near": (23.3, 38.0),
    "far": (23.6, 38.1),
    "anchorage": (23.5, 38.3),
}

raw_point = st.tuples(
    st.integers(min_value=1, max_value=3),  # mmsi
    st.sampled_from(sorted(LOCATIONS)),
    st.booleans(),  # a stop annotation
    st.integers(min_value=0, max_value=40),  # few values: many ties
)


def materialize(raw) -> list[CriticalPoint]:
    points = []
    for mmsi, location, is_stop, timestamp in raw:
        lon, lat = LOCATIONS[location]
        kind = MovementEventType.STOP_END if is_stop else MovementEventType.TURN
        points.append(
            CriticalPoint(
                mmsi=mmsi,
                lon=lon,
                lat=lat,
                timestamp=timestamp,
                annotations=frozenset({kind}),
                duration_seconds=60 if is_stop else 0,
            )
        )
    return points


def run_twin(batches) -> Twin:
    twin = Twin(MovingObjectDatabase(PORTS), PORTS)
    for batch in batches:
        twin.stage_points(materialize(batch))
        twin.reconstruct()
    twin.close()
    return twin


#: Rule (a): the third call brings a row older than a kept one.
LATE_ROWS = [
    [(1, "alpha", True, 0), (1, "near", False, 10)],
    [(1, "far", False, 30)],
    [(1, "beta", True, 20), (1, "beta", True, 35)],
]
#: Rule (b): a waypoint ties with the trip-closing stop at t=20; both
#: stay staged and the call after re-segments them with no new row.
TIE_AT_CUTOFF = [
    [(1, "beta", True, 0), (1, "near", False, 10),
     (1, "alpha", False, 20), (1, "alpha", True, 20)],
    [],
    [(2, "near", False, 5)],
]


@given(batches=st.lists(st.lists(raw_point, max_size=8), max_size=8))
@example(batches=LATE_ROWS)
@example(batches=TIE_AT_CUTOFF)
def test_generated_streams_match_oracle(batches):
    twin = run_twin(batches)
    assert twin.mismatches == []


def test_late_rows_refold_one_vessel():
    with obs.activate(MetricsRegistry()) as registry:
        twin = run_twin(LATE_ROWS)
    assert twin.mismatches == []
    assert twin.trips > 0
    assert registry.counter("mod.reconstruct.refolds").value == 1


def test_tie_at_cutoff_is_revisited_without_new_rows():
    with obs.activate(MetricsRegistry()) as registry:
        twin = run_twin(TIE_AT_CUTOFF)
    assert twin.mismatches == []
    # Call 1 visits vessel 1, call 2 revisits it with nothing staged,
    # call 3 visits only vessel 2.
    assert registry.counter("mod.reconstruct.vessels_visited").value == 3
    assert registry.counter("mod.reconstruct.refolds").value == 0


# ----------------------------------------------------------------------
# O(new rows), as counts
# ----------------------------------------------------------------------


class Recorder:
    """The incremental MOD, recording what each reconstruct call saw."""

    def __init__(self, database: MovingObjectDatabase, registry):
        self.database = database
        self.registry = registry
        self.staged_rows = 0
        self.staged_vessels: set[int] = set()
        self.closed_last_call: set[int] = set()
        self.calls = 0

    def stage_points(self, points):
        self.staged_rows += len(points)
        self.staged_vessels.update(point.mmsi for point in points)
        return self.database.stage_points(points)

    def reconstruct(self, timings=None):
        visited = self.registry.counter("mod.reconstruct.vessels_visited")
        before_visits, before_trips = visited.value, self.database.trip_count()
        loaded = self.database.reconstruct(timings)
        assert visited.value - before_visits <= len(
            self.staged_vessels | self.closed_last_call
        )
        closed = self.database.connection.execute(
            "SELECT DISTINCT mmsi FROM trips WHERE trip_id > ?", (before_trips,)
        ).fetchall()
        self.closed_last_call = {row[0] for row in closed}
        self.staged_vessels = set()
        self.calls += 1
        return loaded

    def close(self):
        self.database.close()


def test_reconstruct_work_is_proportional_to_new_rows(archive):
    ports, calls = archive
    with obs.activate(MetricsRegistry()) as registry:
        recorder = Recorder(MovingObjectDatabase(ports), registry)
        play(recorder, calls[2015])
        recorder.close()
    counter = registry.counter
    assert recorder.calls > 20
    assert counter("mod.trips_loaded").value > 0
    assert counter("mod.reconstruct.rows_read").value == recorder.staged_rows
    assert counter("mod.reconstruct.refolds").value == 0
