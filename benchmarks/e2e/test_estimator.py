"""The benchmark's own arithmetic, checked without running a workload.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_estimator.py -q

* the calibrated per-segment median recovers the true cost through
  multi-second 2x slow regimes that throw the median of whole passes off;
* the segment cutter hands every sentence over exactly once, in order;
* failed-line accounting;
* BENCHMARK.json names what the code reports.
"""

import json
import random
from pathlib import Path

import pytest

import inputs
import traced
import workloads
from timing import CAL_REF_S, percentile, reference_seconds

ROOT = Path(__file__).resolve().parents[2]


def synthetic_passes(passes: int = 12, segments: int = 24, seed: int = 1):
    """Segment and calibration walls of ``passes`` passes on a host that
    alternates 2 s at full speed with 6 s at half speed, with 1-2 %
    jitter and an occasional 3 ms preemption on either measurement."""
    rng = random.Random(seed)
    truth = [rng.uniform(0.010, 0.040) for _ in range(segments)]
    clock = 0.0
    ratios, pass_walls = [], []
    for _ in range(passes):
        row, total = [], 0.0
        for cost in truth:
            slow = 2.0 if clock % 8.0 >= 2.0 else 1.0
            calibration = CAL_REF_S * slow * rng.uniform(0.98, 1.02)
            wall = cost * slow * rng.uniform(0.99, 1.01)
            if rng.random() < 0.03:
                calibration += 0.003
            if rng.random() < 0.03:
                wall += 0.003
            clock += calibration + wall
            row.append(wall / calibration)
            total += wall
        ratios.append(row)
        pass_walls.append(total)
        clock += 0.05  # tear-down and set-up between passes, untimed
    return truth, ratios, pass_walls


def test_calibrated_median_survives_slow_regimes():
    truth, ratios, pass_walls = synthetic_passes()
    estimate = sum(reference_seconds(ratios))
    assert abs(estimate / sum(truth) - 1.0) < 0.03
    naive = percentile(pass_walls, 0.5)
    assert abs(naive / sum(truth) - 1.0) > 0.10


def test_reference_seconds_rejects_ragged_passes():
    with pytest.raises(ValueError, match="segment count"):
        reference_seconds([[1.0, 2.0], [1.0]])


def _stream(slides: int = 5, per_slide: int = 7, slide_seconds: int = 600):
    """A time-ordered stream starting mid-slide, one sentence exactly on
    every boundary (it belongs to the slide it closes)."""
    sentences = []
    start = 3 * slide_seconds + 100
    for k in range(slides):
        boundary = (4 + k) * slide_seconds
        low = start if k == 0 else boundary - slide_seconds + 1
        step = (boundary - low) // (per_slide - 1)
        stamps = [low + i * step for i in range(per_slide - 1)] + [boundary]
        sentences += [(t, f"!S{len(sentences) + i}") for i, t in enumerate(stamps)]
    return sentences


def test_slide_chunks_follow_the_replayer_grid():
    sentences = _stream()
    chunks = inputs.slide_chunks(sentences, 600)
    assert [len(chunk) for chunk in chunks] == [7] * 5
    assert [chunk[-1][0] for chunk in chunks] == [2400, 3000, 3600, 4200, 4800]
    assert sum(chunks, []) == sentences


def test_cutter_keeps_order_and_every_sentence_once():
    sentences = _stream()
    for streams in (1, 2):
        segments = inputs.cut_segments(sentences, 600, streams)
        kinds = [segment.kind for segment in segments]
        assert kinds == ["ingest"] + ["alert", "ingest"] * 4 + ["drain"]
        assert sum(segment.lines for segment in segments) == len(sentences)
        # One feed line per closed slide, then last slide + finalize.
        assert [s.feed_lines for s in segments if s.kind == "alert"] == [1] * 4
        assert segments[-1].feed_lines == 2
        # An alert segment is exactly one closer per load connection.
        assert all(s.lines == streams for s in segments if s.kind == "alert")
        for stream in range(streams):
            written = b"".join(segment.writes[stream] for segment in segments)
            dealt = sentences[stream::streams]
            assert written.decode("ascii").splitlines() == [
                f"{t}\t{s}" for t, s in dealt
            ]


def test_cutter_refuses_a_slide_nothing_would_close():
    sentences = [(100, "!A"), (200, "!B"), (2000, "!C"), (2100, "!D")]
    with pytest.raises(ValueError, match="empty"):
        inputs.cut_segments(sentences, 600, 2)


def test_failed_line_accounting():
    reference = ["a", "b", "c"]
    assert workloads.count_failed(["a", "b", "c"], reference) == 0
    assert workloads.count_failed(["a", "x", "c"], reference) == 1
    assert workloads.count_failed(["a"], reference) == 2
    assert workloads.count_failed([], reference) == 3
    assert workloads.count_failed(["a", "b", "c", "d"], reference) == 1
    assert workloads.count_failed(["x", "b"], reference) == 2


def test_pass_count_scales_with_seconds_but_never_below_the_floor():
    workload = inputs.WORKLOADS["archive_replay"]
    assert workload.passes_for(inputs.RUN_SECONDS) == workload.passes
    assert workload.passes_for(2 * inputs.RUN_SECONDS) == 2 * workload.passes
    assert workload.passes_for(1) == inputs.MIN_PASSES


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == inputs.RUN_SECONDS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in inputs.WORKLOADS.values()
    }
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(traced.LAYER_METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "positions_per_ref_s", "alert_latency_p50_ref_ms", "peak_rss_mb", "setup_s",
    ]
