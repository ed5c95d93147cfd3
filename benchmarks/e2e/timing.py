"""Reference-second timing: wall-clock that repeats on a noisy host.

The shared 2-core host this benchmark runs on changes speed by up to 2.3x
for identical work, in regimes that last seconds — longer than a slide,
shorter than a run.  So no gated number here is raw wall-clock.  Every
timed region is a *segment*: immediately before it, the measuring thread
times a fixed calibration kernel (about three milliseconds of pure
Python), and the segment is recorded as the ratio
``segment_wall / calibration_wall`` — how many kernels' worth of work it
was at the speed the host had just then.  A workload replays the same
input a fixed number of passes; the estimate of segment ``k`` is the
median of its ratio over the passes, times the constant
:data:`CAL_REF_S`:

    segment_ref_s[k] = median_p(ratio[p][k]) * CAL_REF_S

A slow regime scales a segment and its calibration alike, so the ratio
stays put; a preemption that hits only one of the two makes an outlier
the median drops.  Everything reported in ``*_ref_s`` / ``*_ref_ms`` is
built from these estimates (benchmarks/e2e/README.md has the evidence).
"""

import random
import time
from contextlib import contextmanager
from statistics import median

#: Seconds one calibration kernel is *defined* to take.  The kernel runs
#: in about this long on the host the benchmark was written on, so
#: reference seconds read like seconds; the value is a constant, never
#: re-measured, so that numbers from different hosts and days compare.
CAL_REF_S = 0.003

_TABLE_SIZE = 50_000
#: ~11 MB of small objects, several times the host's L2.
_TABLE = {i: (i, float(i), str(i)) for i in range(_TABLE_SIZE)}
_WALK = random.Random(1).sample(range(_TABLE_SIZE), 1500)


class _Cell:
    __slots__ = ("value",)


_CELLS = [_Cell() for _ in range(1024)]


def _half(value: float) -> float:
    return value * 0.5


def calibrate() -> float:
    """Wall seconds one run of the fixed calibration kernel took.

    Three parts of about a millisecond each, because the host slows
    different kinds of work by different amounts (a busy sibling thread
    costs arithmetic, a busy cache costs pointer chasing) and the
    pipeline is a mix: integer arithmetic that stays in registers;
    interpreter churn (attribute stores, calls, tuple and dict traffic);
    and a fixed random walk through a table larger than L2.  Against
    the arithmetic part alone the mix halves what a slow regime leaks
    into the estimate (README.md has the measurements).
    """
    started = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    total = 0.0
    scratch = {}
    cells = _CELLS
    for i in range(5600):
        cell = cells[i & 1023]
        cell.value = i
        pair = (i, _half(cell.value))
        scratch[i & 255] = pair
        total += pair[1]
    table = _TABLE
    for key in _WALK:
        _, x, _ = table[key]
        total += x * x % 7.0
    return time.perf_counter() - started


class SegmentRecorder:
    """The segments of one pass, in order.

    ``with recorder.segment(): ...`` calibrates, then times the block.
    The block may ``await``: the kernel runs on the measuring thread, and
    in the live workloads that is the event-loop thread, idle between
    segments because the loop is closed.
    """

    def __init__(self) -> None:
        self.ratios: list[float] = []
        self.starts: list[float] = []
        self.walls: list[float] = []
        self.calibrations: list[float] = []

    @contextmanager
    def segment(self):
        calibration = calibrate()
        started = time.perf_counter()
        yield
        wall = time.perf_counter() - started
        self.ratios.append(wall / calibration)
        self.starts.append(started)
        self.walls.append(wall)
        self.calibrations.append(calibration)


def reference_seconds(ratios_by_pass: list[list[float]]) -> list[float]:
    """Per-segment reference seconds from every pass's segment ratios."""
    lengths = {len(ratios) for ratios in ratios_by_pass}
    if len(lengths) != 1:
        raise ValueError(f"passes disagree on their segment count: {lengths}")
    return [median(column) * CAL_REF_S for column in zip(*ratios_by_pass)]


def measure_step(fn, calibrations: int = 5):
    """Run ``fn()`` once; returns ``(result, calibrated ratio)``.

    For set-up steps, which run for seconds rather than milliseconds:
    the host's speed is sampled on both sides of the step, several
    kernels each, and their median divides the step's wall time.
    """
    before = [calibrate() for _ in range(calibrations)]
    started = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - started
    after = [calibrate() for _ in range(calibrations)]
    return result, wall / median(before + after)


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction
