"""The traced run: where, layer by layer, a pass spends its time.

A separate invocation (``run.py --traced``), never mixed with the
end-to-end numbers.  It runs :data:`PASSES` passes of three kinds,
interleaved, and estimates every time with the same calibrated
per-segment median as the untraced run (:mod:`timing`):

* **traced** passes, with a :class:`repro.obs.MetricsRegistry` active.
  On the replay workloads the benchmark drives each slide through the
  system's component objects itself, in ``process_slide``'s order, under
  one span per layer call, and must reproduce the reference feed lines.
  On the live workloads it is the ordinary closed-loop pass (its
  ingest / alert / drain segments are the spans), followed by the same
  sentences replayed *standalone* through each layer's public function.
* **plain** passes with the registry on and with it off: the cost of
  ``process_slide`` as a whole, and what the registry itself costs.

Spans — ``{name, start, end, parent, slide, pass}`` — stay in memory and
are written to ``out/trace-<workload>.json`` when the run ends.  Nothing
under ``src/`` is instrumented for this; a layer's span is the
benchmark's own clock around a call into a public function.
"""

import asyncio
import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro import obs
from repro.ais import DataScanner
from repro.gateway import RuntimeLink, SentenceRouter, merged_feed_line, shard_for_mmsi
from repro.gateway.merge import parse_feed_line
from repro.pipeline import SlideReport, SurveillanceSystem
from repro.service.ingest import IngestQueue
from repro.service.protocol import (
    format_ingest_line,
    parse_ingest_line,
    slide_feed_line,
)
from repro.transport import create_transport
from repro.transport.tcp import CLIENT_READ_LIMIT

import inputs
import workloads
from timing import calibrate, reference_seconds

#: Passes of each kind in a traced run.
PASSES = 5

OUT_DIR = Path(__file__).resolve().parent / "out"

_HOST = workloads.HOST
_RUNTIMES = workloads.CLUSTER.runtimes

#: Every per-layer metric, as BENCHMARK.json lists them: ``(name, unit,
#: better)``.  A run reports all of them; a layer the workload does not
#: exercise reports 0 — which is the prediction for it (README.md).
LAYER_METRICS = (
    ("tracking.track_ref_s", "s", "lower"),
    ("tracking.compress_ref_s", "s", "lower"),
    ("tracking.events_out", "count", "lower"),
    ("tracking.critical_points_out", "count", "lower"),
    ("tracking.compression_ratio", "ratio", "higher"),
    ("mod.stage_ref_s", "s", "lower"),
    ("mod.reconstruct_ref_s", "s", "lower"),
    ("mod.reconstruct_growth", "ratio", "lower"),
    ("mod.staged_points", "count", "lower"),
    ("mod.trips", "count", "higher"),
    ("maritime.observe_ref_s", "s", "lower"),
    ("spatial.candidate_pairs", "count", "lower"),
    ("maritime.pair_facts", "count", "lower"),
    ("maritime.ingest_ref_s", "s", "lower"),
    ("maritime.alerts_ref_s", "s", "lower"),
    ("rtec.step_ref_s", "s", "lower"),
    ("rtec.input_events", "count", "lower"),
    ("rtec.complex_events", "count", "higher"),
    ("service.serialize_ref_s", "s", "lower"),
    ("service.feed_bytes", "count", "lower"),
    ("pipeline.slide_ref_s", "s", "lower"),
    ("pipeline.orchestration_share", "ratio", "lower"),
    ("pipeline.unattributed_share", "ratio", "lower"),
    ("obs.overhead_share", "ratio", "lower"),
    ("trace.throughput_ratio", "ratio", "higher"),
    ("service.ingest_ref_s", "s", "lower"),
    ("service.alert_ref_s", "s", "lower"),
    ("service.drain_ref_s", "s", "lower"),
    ("transport.tcp_ref_s", "s", "lower"),
    ("service.parse_ref_s", "s", "lower"),
    ("service.queue_ref_s", "s", "lower"),
    ("ais.scan_ref_s", "s", "lower"),
    ("ais.rejected", "count", "lower"),
    ("gateway.route_ref_s", "s", "lower"),
    ("gateway.link_ref_s", "s", "lower"),
    ("gateway.merge_ref_s", "s", "lower"),
    ("service.unowned_share", "ratio", "lower"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("gateway.link_wait_p50_ms", "ms", "lower"),
    ("gateway.link_wait_p99_ms", "ms", "lower"),
    ("gateway.watermarks", "count", "lower"),
    ("gateway.route_skew", "ratio", "lower"),
    ("service.shed", "count", "lower"),
    ("gateway.link_shed", "count", "lower"),
)

#: Layer spans a replay slide is made of (``service.serialize`` comes
#: after ``process_slide`` returns, so it is not part of the slide).
_SLIDE_LAYERS = (
    "tracking.track", "tracking.compress", "mod.stage", "mod.reconstruct",
    "maritime.observe", "maritime.ingest", "rtec.step", "maritime.alerts",
)

#: Standalone layers whose sum is set against the live segments.
_STANDALONE_LAYERS = (
    "transport.tcp", "service.parse", "service.queue", "ais.scan",
    "pipeline.slide", "service.serialize",
    "gateway.route", "gateway.link", "gateway.merge",
)


class Tracer:
    """Spans of a whole traced run, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.pass_index = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, slide: int):
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "slide": slide,
            "pass": self.pass_index,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, workload: str) -> Path:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}.json"
        path.write_text(json.dumps({"workload": workload, "spans": self.spans}))
        return path


class LayerClock:
    """One pass's calibrated ratios: ``ratios[layer][segment]``.

    ``segment(k)`` calibrates; every ``call`` until the next one divides
    its span by that calibration, so a layer's number is built exactly
    like a segment's (median over passes, then summed over segments).
    """

    def __init__(self, tracer: Tracer, segments: int):
        self.tracer = tracer
        self.ratios: dict[str, list[float]] = {}
        self._segments = segments
        self._slide = 0
        self._calibration = 1.0

    def segment(self, slide: int) -> None:
        self._slide = slide
        self._calibration = calibrate()

    def add(self, name: str, seconds: float) -> None:
        """Credit ``seconds`` of wall time to a layer in this segment."""
        column = self.ratios.setdefault(name, [0.0] * self._segments)
        column[self._slide] += seconds / self._calibration

    def call(self, name: str, fn, *args, **kwargs):
        with self.tracer.span(name, self._slide) as span:
            result = fn(*args, **kwargs)
        self.add(name, span["end"] - span["start"])
        return result

    async def call_async(self, name: str, fn, *args):
        with self.tracer.span(name, self._slide) as span:
            result = await fn(*args)
        self.add(name, span["end"] - span["start"])
        return result


# ----------------------------------------------------------------------
# replay workloads
# ----------------------------------------------------------------------


def _recognize(system, clock: LayerClock, events, query_time: int, counts):
    """The recognition block of ``process_slide`` / ``finalize``."""
    if not system.config.enable_recognition:
        return 0, ()
    recognizer = system.recognizer
    if system.monitor is not None:
        facts = clock.call(
            "maritime.observe", system.monitor.observe, events, query_time
        )
        counts["maritime.pair_facts"] += len(facts)
        clock.call(
            "maritime.ingest", recognizer.ingest_facts, facts, arrival_time=query_time
        )
    clock.call("maritime.ingest", recognizer.ingest, events, arrival_time=query_time)
    result = clock.call("rtec.step", recognizer.step, query_time)
    alerts = tuple(clock.call("maritime.alerts", recognizer.alerts, result))
    return result.complex_event_count(), alerts


def traced_replay_pass(data: inputs.BenchInput, tracer: Tracer):
    """Drive every slide through the system's components under spans.

    Mirrors ``SurveillanceSystem.process_slide`` and ``finalize`` call
    for call; the feed lines it returns are checked against the
    reference, so a change to the pipeline's order that this copy misses
    fails the traced run (and only the traced run).
    """
    config = data.workload.config
    clock = LayerClock(tracer, len(data.batches) + 1)
    counts = dict.fromkeys(
        ("tracking.events_out", "tracking.critical_points_out",
         "maritime.pair_facts", "rtec.complex_events", "service.feed_bytes"), 0,
    )
    lines = []

    def emit(report, kind):
        line = clock.call("service.serialize", slide_feed_line, report, kind)
        counts["tracking.events_out"] += report.movement_events
        counts["tracking.critical_points_out"] += report.fresh_critical_points
        counts["rtec.complex_events"] += report.recognized_complex_events
        counts["service.feed_bytes"] += len(line) + 1
        lines.append(line)

    with obs.activate(obs.MetricsRegistry()) as registry:
        system = SurveillanceSystem(data.world, data.specs, config)
        database = system.database
        try:
            for slide, (query_time, batch) in enumerate(data.batches):
                clock.segment(slide)
                with tracer.span("pipeline.slide", slide):
                    events = clock.call(
                        "tracking.track", system.tracker.process_batch, batch
                    )
                    fresh, expired = clock.call(
                        "tracking.compress", system.compressor.slide,
                        events, query_time, raw_position_count=len(batch),
                    )
                    if expired:
                        clock.call("mod.stage", database.stage_points, expired)
                        if config.reconstruct_each_slide:
                            clock.call("mod.reconstruct", database.reconstruct)
                    recognized, alerts = _recognize(
                        system, clock, events, query_time, counts
                    )
                emit(SlideReport(
                    query_time=query_time,
                    raw_positions=len(batch),
                    movement_events=len(events),
                    fresh_critical_points=len(fresh),
                    expired_critical_points=len(expired),
                    recognized_complex_events=recognized,
                    alerts=alerts,
                    timings={},
                    fresh_points=tuple(fresh),
                ), "slide")

            slide = len(data.batches)
            query_time = data.batches[-1][0] + config.window.slide_seconds
            clock.segment(slide)
            with tracer.span("pipeline.finalize", slide):
                events = clock.call("tracking.track", system.tracker.finalize)
                fresh, expired = clock.call(
                    "tracking.compress", system.compressor.slide, events, query_time
                )
                remaining = clock.call(
                    "tracking.compress", system.compressor.synopsis
                )
                clock.call("mod.stage", database.stage_points, expired + remaining)
                clock.call("mod.reconstruct", database.reconstruct)
                recognized, alerts = _recognize(
                    system, clock, events, query_time, counts
                )
            emit(SlideReport(
                query_time=query_time,
                raw_positions=0,
                movement_events=len(events),
                fresh_critical_points=len(fresh),
                expired_critical_points=len(expired) + len(remaining),
                recognized_complex_events=recognized,
                alerts=alerts,
                timings={},
                fresh_points=tuple(fresh),
            ), "finalize")
            counts["tracking.compression_ratio"] = (
                system.compressor.statistics.compression_ratio
            )
            counts["mod.trips"] = database.trip_count()
        finally:
            database.close()
        counters = registry.snapshot()["counters"]
    counts["mod.staged_points"] = counters.get("mod.staged_points", 0)
    counts["spatial.candidate_pairs"] = counters.get("pairwise.candidate_pairs", 0)
    counts["rtec.input_events"] = counters.get("rtec.input_events", 0)
    return clock, lines, counts


def plain_replay_pass(data: inputs.BenchInput, tracer: Tracer):
    """``process_slide`` as a whole, with what its own report attributes.

    Layers: ``pipeline.slide`` (the call), ``pipeline.attributed`` (the
    sum of ``SlideReport.timings``, on the same calibration) and
    ``service.serialize``.
    """
    clock = LayerClock(tracer, len(data.batches) + 1)
    system = SurveillanceSystem(data.world, data.specs, data.workload.config)
    lines = []

    def emit(report, kind):
        clock.add("pipeline.attributed", sum(report.timings.values()))
        lines.append(clock.call("service.serialize", slide_feed_line, report, kind))

    try:
        for slide, (query_time, batch) in enumerate(data.batches):
            clock.segment(slide)
            emit(clock.call(
                "pipeline.slide", system.process_slide, batch, query_time
            ), "slide")
        clock.segment(len(data.batches))
        emit(clock.call("pipeline.slide", system.finalize), "finalize")
    finally:
        system.database.close()
    return clock, lines


# ----------------------------------------------------------------------
# live workloads
# ----------------------------------------------------------------------


class _LineSink:
    """A bare TCP accept loop that counts the lines a session delivers."""

    def __init__(self) -> None:
        self.transport = create_transport("tcp")
        self.port = 0
        self._received = 0
        self._target = 0
        self._reached = asyncio.Event()
        self._sessions = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, _HOST, 0, limit=CLIENT_READ_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer) -> None:
        self._sessions += 1
        self._idle.clear()
        session = await self.transport.accept(reader, writer, "ingest")
        try:
            while await session.receive() is not None:
                self._received += 1
                if self._received == self._target:
                    self._reached.set()
        finally:
            await session.close()
            self._sessions -= 1
            if not self._sessions:
                self._idle.set()

    def expect(self, lines: int) -> None:
        self._target += lines
        self._reached.clear()

    async def reached(self) -> None:
        await asyncio.wait_for(self._reached.wait(), workloads.STEP_TIMEOUT_S)

    async def stop(self) -> None:
        """Close the listener once every session has hung up."""
        await asyncio.wait_for(self._idle.wait(), workloads.STEP_TIMEOUT_S)
        self._server.close()
        await self._server.wait_closed()


def shard_lines(line: str) -> list[str]:
    """One reference feed line as the per-runtime lines a 4-way cluster
    would have fanned in: alerts and critical points dealt by the
    router's own MMSI hash, counters left on the first."""
    payload = json.loads(line)
    parts = [
        {**payload, "raw_positions": 0, "movement_events": 0, "recognized": 0,
         "alerts": [], "critical_points": []}
        for _ in range(_RUNTIMES)
    ]
    for key in ("raw_positions", "movement_events", "recognized"):
        parts[0][key] = payload[key]
    for key in ("alerts", "critical_points"):
        for item in payload[key]:
            parts[shard_for_mmsi(item["mmsi"] or 0, _RUNTIMES)][key].append(item)
    return [json.dumps(part, separators=(",", ":"), sort_keys=True) for part in parts]


async def standalone_pass(data: inputs.BenchInput, tracer: Tracer):
    """The pass's sentences through each layer's public function, alone.

    One segment per slide (plus one for finalize), each calibrated, so
    the layers add up the same way the live segments do.  Returns the
    clock, the offline twin's feed lines, and counts.
    """
    config = data.workload.config
    cluster = data.workload.kind == "cluster"
    chunks = inputs.slide_chunks(data.sentences, config.window.slide_seconds)
    wire = [
        [format_ingest_line(timestamp, sentence) for timestamp, sentence in chunk]
        for chunk in chunks
    ]
    clock = LayerClock(tracer, len(chunks) + 1)
    counts = {}

    # transport: client socket -> session.receive() in a bare accept loop
    sink = _LineSink()
    await sink.start()
    _, writer = await asyncio.open_connection(_HOST, sink.port)

    async def over_tcp(payload: bytes, lines: int) -> None:
        sink.expect(lines)
        writer.write(payload)
        await writer.drain()
        await sink.reached()

    for slide, lines in enumerate(wire):
        payload = "".join(line + "\n" for line in lines).encode("ascii")
        clock.segment(slide)
        await clock.call_async("transport.tcp", over_tcp, payload, len(lines))
    writer.close()
    await writer.wait_closed()

    # service: ingest-line parse, then the bounded queue's put + get
    for slide, lines in enumerate(wire):
        clock.segment(slide)
        clock.call(
            "service.parse", lambda: [parse_ingest_line(line, 0) for line in lines]
        )
    queue = IngestQueue(8192)

    async def through_queue(chunk) -> None:
        for timestamp, sentence in chunk:
            queue.put(timestamp, sentence)
        for _ in chunk:
            await queue.get()

    for slide, chunk in enumerate(chunks):
        clock.segment(slide)
        await clock.call_async("service.queue", through_queue, chunk)

    # ais: the Data Scanner, sentence by sentence
    scanner = DataScanner()
    positions = []
    for slide, chunk in enumerate(chunks):
        clock.segment(slide)
        positions += clock.call(
            "ais.scan",
            lambda: [scanner.scan(timestamp, sentence) for timestamp, sentence in chunk],
        )
    counts["ais.rejected"] = scanner.statistics.rejected

    # pipeline + serialize: the offline twin on the identical batches
    batches = inputs.replay_batches(
        [p for p in positions if p is not None], config.window.slide_seconds
    )
    system = SurveillanceSystem(data.world, data.specs, config)
    twin = []
    try:
        for slide, (query_time, batch) in enumerate(batches):
            clock.segment(slide)
            report = clock.call(
                "pipeline.slide", system.process_slide, batch, query_time
            )
            twin.append(clock.call("service.serialize", slide_feed_line, report))
        clock.segment(len(batches))
        report = clock.call("pipeline.slide", system.finalize)
        twin.append(
            clock.call("service.serialize", slide_feed_line, report, "finalize")
        )
    finally:
        system.database.close()
    counts["service.feed_bytes"] = sum(len(line) + 1 for line in twin)

    if cluster:
        # gateway: route by MMSI, one link into a counting sink, fan-in merge
        router = SentenceRouter(_RUNTIMES, obs.MetricsRegistry())
        per_runtime = [0] * _RUNTIMES
        for slide, chunk in enumerate(chunks):
            clock.segment(slide)
            for index in clock.call(
                "gateway.route", lambda: [router.route(s) for _, s in chunk]
            ):
                per_runtime[index] += 1
        counts["gateway.route_skew"] = (
            max(per_runtime) * _RUNTIMES / sum(per_runtime)
        )

        link = RuntimeLink(
            "bench->sink", _HOST, sink.port, create_transport("tcp"),
            obs.MetricsRegistry(),
        )
        link.start()

        async def over_link(lines) -> None:
            sink.expect(len(lines))
            for line in lines:
                link.send(line)
            await sink.reached()

        for slide, lines in enumerate(wire):
            clock.segment(slide)
            await clock.call_async("gateway.link", over_link, lines)
        await link.close()

        for slide, line in enumerate(data.reference):
            shards = shard_lines(line)
            clock.segment(slide)
            merged = clock.call(
                "gateway.merge",
                lambda: merged_feed_line([parse_feed_line(s) for s in shards]),
            )
            if merged != line:
                twin = []  # the merge cannot reproduce the line: fail the pass
    await sink.stop()
    return clock, twin, counts


def _live_spans(tracer: Tracer, data: inputs.BenchInput, recorder) -> None:
    """The driver segments of one live pass, as spans."""
    slide = 0
    for kind, start, wall in zip(
        data.segment_kinds(), recorder.starts, recorder.walls
    ):
        tracer.spans.append({
            "name": f"service.{kind}", "start": start, "end": start + wall,
            "parent": None, "slide": slide, "pass": tracer.pass_index,
        })
        slide += kind == "alert"


def _quantile_ms(histograms, q: float) -> float:
    """Worst ``q``-quantile, in ms, over histograms that saw samples."""
    return 1000.0 * max(
        (h.quantile(q) for h in histograms if h.count), default=0.0
    )


def _live_counts(registry, result) -> dict:
    """What the registries of one traced live pass counted."""
    counts = {
        "service.queue_wait_p50_ms": _quantile_ms(
            [registry.histogram("service.ingest.latency_seconds")], 0.5
        ),
        "service.shed": registry.counter("service.ingest.shed").value,
    }
    cluster = getattr(result.system, "cluster", None)
    if cluster is not None:
        registries = [node.registry for node in cluster.nodes]
        waits = [r.histogram("gateway.ingest.latency_seconds") for r in registries]
        counts["gateway.link_wait_p50_ms"] = _quantile_ms(waits, 0.5)
        counts["gateway.link_wait_p99_ms"] = _quantile_ms(waits, 0.99)
        for metric, counter in (
            ("gateway.watermarks", "gateway.watermarks"),
            ("gateway.link_shed", "gateway.link.shed"),
        ):
            counts[metric] = sum(r.counter(counter).value for r in registries)
    return counts


def _growth(per_slide: list[float]) -> float:
    """Last quarter over first quarter of the slides a layer ran in."""
    ran = [value for value in per_slide if value > 0.0]
    quarter = len(ran) // 4
    if quarter == 0:
        return 0.0
    return sum(ran[-quarter:]) / sum(ran[:quarter])


def _with_units(metrics: dict) -> dict:
    return {name: (metrics[name], unit) for name, unit, _ in LAYER_METRICS}


def run(data: inputs.BenchInput):
    """The whole traced run of one workload.

    Returns ``(metrics, reconciliation, attempted, failed)``: every
    name in :data:`LAYER_METRICS` as ``(value, unit)``, and the
    reconciliation rows as ``(what, numerator, base)``.
    """
    replay = data.workload.kind == "replay"
    tracer = Tracer()
    traced, plain_on, plain_off = [], [], []
    counts: dict = {}
    attempted = failed = 0

    def check(lines) -> None:
        nonlocal attempted, failed
        attempted += len(data.reference)
        failed += workloads.count_failed(lines, data.reference)

    for index in range(PASSES):
        tracer.pass_index = index
        gc.collect()
        if replay:
            clock, lines, counts = traced_replay_pass(data, tracer)
            traced.append(clock.ratios)
            check(lines)
            clock, lines = plain_replay_pass(data, tracer)
            plain_off.append(clock.ratios)
            check(lines)
            with obs.activate(obs.MetricsRegistry()):
                clock, lines = plain_replay_pass(data, tracer)
            plain_on.append(clock.ratios)
            check(lines)
        else:
            with obs.activate(obs.MetricsRegistry()) as registry:
                result = workloads.live_pass(data)
                clock, lines, counts = asyncio.run(standalone_pass(data, tracer))
            _live_spans(tracer, data, result.recorder)
            counts.update(_live_counts(registry, result))
            plain_on.append(result.recorder.ratios)
            traced.append(clock.ratios)
            check(result.lines)
            check(lines)
            result = workloads.live_pass(data)
            plain_off.append(result.recorder.ratios)
            check(result.lines)
        if failed:
            break
    tracer.write(data.workload.name)

    metrics = dict.fromkeys((name for name, _, _ in LAYER_METRICS), 0.0)
    if failed:
        return _with_units(metrics), [], attempted, failed
    metrics.update(counts)

    def layer(passes, name) -> list[float]:
        columns = [ratios[name] for ratios in passes if name in ratios]
        return reference_seconds(columns) if columns else [0.0]

    for name in (*_SLIDE_LAYERS, *_STANDALONE_LAYERS):
        metrics[f"{name}_ref_s"] = sum(layer(traced, name))

    if replay:
        slide_off = sum(layer(plain_off, "pipeline.slide"))
        slide_on = sum(layer(plain_on, "pipeline.slide"))
        spans = sum(metrics[f"{name}_ref_s"] for name in _SLIDE_LAYERS)
        total_off = slide_off + sum(layer(plain_off, "service.serialize"))
        total_on = slide_on + sum(layer(plain_on, "service.serialize"))
        total_traced = spans + metrics["service.serialize_ref_s"]
        metrics["pipeline.slide_ref_s"] = slide_off
        metrics["pipeline.orchestration_share"] = 1.0 - spans / slide_on
        metrics["pipeline.unattributed_share"] = (
            1.0 - sum(layer(plain_off, "pipeline.attributed")) / slide_off
        )
        metrics["mod.reconstruct_growth"] = _growth(
            layer(traced, "mod.reconstruct")[:-1]
        )
        reconciliation = [
            ("sum of layer spans / process_slide + finalize (registry on)",
             spans, slide_on),
        ]
    else:
        kinds = data.segment_kinds()
        segments = reference_seconds(plain_on)
        for kind in ("ingest", "alert", "drain"):
            metrics[f"service.{kind}_ref_s"] = sum(
                s for s, k in zip(segments, kinds) if k == kind
            )
        total_on = total_traced = sum(segments)
        total_off = sum(reference_seconds(plain_off))
        standalone = sum(metrics[f"{name}_ref_s"] for name in _STANDALONE_LAYERS)
        metrics["service.unowned_share"] = 1.0 - standalone / total_on
        reconciliation = [
            ("sum of standalone layers / sum of live segments (registry on)",
             standalone, total_on),
        ]
    metrics["obs.overhead_share"] = total_on / total_off - 1.0
    metrics["trace.throughput_ratio"] = total_off / total_traced
    reconciliation.append(
        ("traced / untraced positions_per_ref_s",
         data.inputs / total_traced, data.inputs / total_off)
    )
    return _with_units(metrics), reconciliation, attempted, failed
