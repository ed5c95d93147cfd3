"""The four workloads and their set-up: seed in, deterministic inputs out.

Set-up is everything a run does before the first timed pass: simulate
the fleet, encode it as ``!AIVDM`` sentences (live workloads), compute
the reference feed lines every pass is compared with, cut the stream
into segments, and start a system once.  Each step is calibrated
(:func:`timing.measure_step`), so ``setup_s`` is in reference seconds
like every other timed number.

Why these four — and why each is shaped as it is — is recorded in
``Workload.why`` (one line, copied into BENCHMARK.json) and at length in
benchmarks/e2e/README.md.
"""

import random
from dataclasses import dataclass, field

from repro.ais import PositionReport, encode_position_report, wrap_aivdm
from repro.ais.stream import PositionalTuple, StreamReplayer, TimedArrival
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.service.protocol import format_ingest_line, slide_feed_line
from repro.service.replay import offline_feed_lines
from repro.simulator import FleetSimulator, build_aegean_world
from repro.simulator.noise import NO_NOISE, NoiseModel
from repro.tracking import WindowSpec

#: The harness's standard fleet (the paper's N = 6,425 scaled ~40x down)
#: and the seed that fixes its routes and report times.
FLEET_SIZE = 150
SCENARIO_SEED = 2015

#: ``--seconds`` at which every workload runs its nominal pass count.
RUN_SECONDS = 15

#: A median over fewer passes than this does not reject slow regimes.
MIN_PASSES = 12

_LIVE_CONFIG = SystemConfig(window=WindowSpec.of_minutes(60, 10), ce_scope="vessel")
_REPLAY_WINDOW = WindowSpec.of_minutes(120, 30)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its input size, system and pass count."""

    name: str
    #: ``replay`` (inline system), ``node`` (one live service over TCP)
    #: or ``cluster`` (2 gateways x 4 runtimes over TCP).
    kind: str
    hours: float
    config: SystemConfig
    #: Passes at ``--seconds RUN_SECONDS``: a constant of the workload,
    #: not a time budget, so every commit measures the same work.
    passes: int
    why: str
    #: Put ``build_scenario_rendezvous()`` vessels ahead of the mixed fleet.
    rendezvous: bool = False

    def passes_for(self, seconds: float) -> int:
        return max(MIN_PASSES, round(self.passes * seconds / RUN_SECONDS))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="archive_replay",
            kind="replay",
            hours=12,
            config=SystemConfig(window=_REPLAY_WINDOW),
            passes=24,
            why=(
                "Figure-1 pipeline on large batches: area CEs, MOD reconstruct "
                "every slide; tracking and mod do the work, ais/service/gateway none"
            ),
        ),
        Workload(
            name="recognition_replay",
            kind="replay",
            hours=12,
            config=SystemConfig(
                window=_REPLAY_WINDOW,
                pairwise=True,
                recognition_window_seconds=9 * 3600,
                reconstruct_each_slide=False,
            ),
            passes=16,
            rendezvous=True,
            why=(
                "pairwise CEs over a 9 h RTEC window, no per-slide reconstruct: "
                "maritime/spatial/rtec dominate and mod does almost nothing"
            ),
        ),
        Workload(
            name="live_node",
            kind="node",
            hours=2,
            config=_LIVE_CONFIG,
            passes=18,
            why=(
                "sentences over TCP into one ServiceSupervisor, closed loop: ais "
                "decode and per-sentence service cost dominate, slides are small"
            ),
        ),
        Workload(
            name="live_cluster",
            kind="cluster",
            hours=2,
            config=_LIVE_CONFIG,
            passes=12,
            why=(
                "same sentences through 2 gateways x 4 runtimes: adds routing, "
                "links, watermark barrier and fan-in merge; same bytes as live_node"
            ),
        ),
    )
}


@dataclass(frozen=True)
class Segment:
    """One closed-loop step of a live pass.

    ``writes[g]`` is the bytes to send on load connection ``g``;
    ``lines`` how many data lines that is in total; ``feed_lines`` how
    many feed lines the subscriber must then read (0 for ``ingest``).
    """

    kind: str  # "ingest" | "alert" | "drain"
    writes: tuple[bytes, ...]
    lines: int
    feed_lines: int


@dataclass
class BenchInput:
    """Everything the passes of one workload need."""

    workload: Workload
    world: object
    specs: dict
    #: Feed lines every pass must reproduce byte for byte.
    reference: list[str]
    #: Positions (replay) or sentences (live) one pass consumes.
    inputs: int
    #: Replay workloads: ``(query_time, batch)`` per slide.
    batches: list = field(default_factory=list)
    #: Live workloads: the timestamped sentences and their segment plan.
    sentences: list = field(default_factory=list)
    segments: list = field(default_factory=list)

    def segment_kinds(self) -> list[str]:
        """Kind of every segment of a pass: a replay pass has one
        ``alert`` segment per slide (batch in, feed line out) and ends
        with ``drain`` (finalize); a live pass follows its plan."""
        if self.workload.kind == "replay":
            return ["alert"] * len(self.batches) + ["drain"]
        return [segment.kind for segment in self.segments]


def simulate(workload: Workload, seed: int):
    """``(world, specs, positions)`` of the workload's fleet.

    The *scenario* — which vessels sail which routes and when they
    report — is the harness's standard fleet (:data:`SCENARIO_SEED`).
    ``seed`` re-draws what a receiver would see differently on another
    day: the measurement noise of every fix (``NoiseModel.perturb`` on
    the noise-free track, outliers included).  So every seed gives
    different bytes, events and alerts, but the same traffic: 150
    vessels are too few for two random fleets to cost the same
    (README.md, "Why the seed does not re-draw the fleet").
    """
    world = build_aegean_world()
    rng = random.Random(seed)
    simulator = FleetSimulator(
        world,
        seed=SCENARIO_SEED,
        duration_seconds=int(workload.hours * 3600),
        noise=NO_NOISE,
    )
    vessels = simulator.build_scenario_rendezvous() if workload.rendezvous else []
    vessels += simulator.build_mixed_fleet(FLEET_SIZE - len(vessels))
    specs = {vessel.mmsi: vessel.spec for vessel in vessels}
    noise = NoiseModel()
    positions = []
    for track in simulator.positions(vessels):
        lon, lat, _ = noise.perturb(rng, track.lon, track.lat)
        positions.append(PositionalTuple(track.mmsi, lon, lat, track.timestamp))
    return world, specs, positions


def encode(positions) -> list[tuple[int, str]]:
    """The stream as timestamped type-1 ``!AIVDM`` sentences."""
    sentences = []
    for position in positions:
        payload, fill = encode_position_report(PositionReport(
            message_type=1,
            mmsi=position.mmsi,
            lon=position.lon,
            lat=position.lat,
            speed_knots=10.0,
            course_degrees=90.0,
            second_of_minute=position.timestamp % 60,
        ))
        sentences.append((position.timestamp, wrap_aivdm(payload, fill)))
    return sentences


def replay_batches(positions, slide_seconds: int) -> list:
    """The per-slide ``(query_time, batch)`` list of a positional stream."""
    replayer = StreamReplayer(
        [TimedArrival(p.timestamp, p) for p in positions], slide_seconds
    )
    return list(replayer.batches())


def replay_reference(world, specs, config: SystemConfig, batches) -> list[str]:
    """Feed lines of one plain offline replay of ``batches``."""
    system = SurveillanceSystem(world, specs, config)
    try:
        lines = [
            slide_feed_line(system.process_slide(batch, query_time))
            for query_time, batch in batches
        ]
        lines.append(slide_feed_line(system.finalize(), "finalize"))
    finally:
        system.database.close()
    return lines


def slide_chunks(
    sentences: list[tuple[int, str]], slide_seconds: int
) -> list[list[tuple[int, str]]]:
    """The time-ordered stream cut at the slide boundaries of
    :class:`~repro.ais.stream.StreamReplayer`: chunk ``k`` holds every
    sentence with ``query_time_(k-1) < timestamp <= query_time_k``."""
    if not sentences:
        raise ValueError("cannot cut an empty stream")
    first = sentences[0][0]
    query_time = ((first + slide_seconds - 1) // slide_seconds) * slide_seconds
    if query_time == first == 0:
        query_time = slide_seconds
    chunks: list[list[tuple[int, str]]] = [[]]
    for timestamp, sentence in sentences:
        while timestamp > query_time:
            query_time += slide_seconds
            chunks.append([])
        chunks[-1].append((timestamp, sentence))
    return chunks


def cut_segments(
    sentences: list[tuple[int, str]], slide_seconds: int, streams: int
) -> list[Segment]:
    """Cut a time-ordered sentence stream into closed-loop segments.

    The stream is dealt round-robin over ``streams`` load connections
    (each substream stays time-ordered, the watermark contract of the
    gateway tier).  Slide ``k`` is closed by the first later sentence of
    *every* stream, so a pass alternates ``ingest`` (a slide's sentences
    but its first per stream) and ``alert`` (those *closers*: after them
    the previous slide's feed line is due), and ends with ``drain``
    (last slide + finalize).  Concatenating each stream's writes gives
    back the substream: every sentence exactly once, in order.
    """
    #: slides[k][g] = stream g's encoded lines of slide k.
    slides: list[list[list[bytes]]] = []
    index = 0
    for chunk in slide_chunks(sentences, slide_seconds):
        per_stream: list[list[bytes]] = [[] for _ in range(streams)]
        for timestamp, sentence in chunk:
            per_stream[index % streams].append(
                (format_ingest_line(timestamp, sentence) + "\n").encode("ascii")
            )
            index += 1
        if not all(per_stream):
            raise ValueError(
                f"slide {len(slides)} is empty on some load connection: "
                f"nothing would close the slide before it"
            )
        slides.append(per_stream)

    def segment(kind, per_stream, feed_lines):
        return Segment(
            kind,
            tuple(b"".join(lines) for lines in per_stream),
            sum(len(lines) for lines in per_stream),
            feed_lines,
        )

    segments = [segment("ingest", slides[0], 0)]
    for per_stream in slides[1:]:
        segments.append(segment("alert", [lines[:1] for lines in per_stream], 1))
        segments.append(segment("ingest", [lines[1:] for lines in per_stream], 0))
    segments.append(segment("drain", [[] for _ in range(streams)], 2))
    return segments


#: Load connections per live workload kind: the cluster gets one per
#: gateway (= the host's two cores), written by one task.
STREAMS = {"node": 1, "cluster": 2}


def build_input(workload: Workload, seed: int, measure) -> BenchInput:
    """Run the data steps of set-up; ``measure(step_name, fn)`` times each."""
    world, specs, positions = measure("simulate", lambda: simulate(workload, seed))
    config = workload.config
    slide = config.window.slide_seconds
    if workload.kind == "replay":
        batches = measure("batch", lambda: replay_batches(positions, slide))
        reference = measure(
            "reference", lambda: replay_reference(world, specs, config, batches)
        )
        return BenchInput(
            workload, world, specs, reference, len(positions), batches=batches
        )
    sentences = measure("encode", lambda: encode(positions))
    reference = measure(
        "reference", lambda: offline_feed_lines(sentences, world, specs, config)
    )
    segments = measure(
        "batch", lambda: cut_segments(sentences, slide, STREAMS[workload.kind])
    )
    return BenchInput(
        workload, world, specs, reference, len(sentences),
        sentences=sentences, segments=segments,
    )
