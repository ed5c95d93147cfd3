"""Run one workload of the end-to-end benchmark in this process.

    python3 benchmarks/e2e/run.py --workload archive_replay
    python3 benchmarks/e2e/run.py --workload live_cluster --seed 7 --traced

Untraced (the default), it sets the workload up, replays its input a
fixed number of passes with the metrics registry off, checks every
pass's feed lines byte for byte against the set-up reference, and prints
the four end-to-end metrics.  ``--traced`` (``--trace 1``) is a separate
invocation that prints the per-layer metrics instead (see traced.py).
The last line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — and the exit code is non-zero
if any feed line was missing or wrong or any sentence was shed.

The metric definitions and the timing rule are in README.md next to
this file; BENCHMARK.json at the repository root names the metrics.
"""

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import inputs  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from timing import (  # noqa: E402
    CAL_REF_S,
    measure_step,
    percentile,
    reference_seconds,
)

#: Whole set-ups per untraced run; ``setup_s`` sums per-step medians.
SETUP_REPEATS = 3


def set_up(workload: inputs.Workload, seed: int, repeats: int):
    """Set the workload up ``repeats`` times.

    Returns the last :class:`inputs.BenchInput` and ``setup_s``: the sum
    over steps of the median calibrated ratio, in reference seconds.
    """
    ratios: dict[str, list[float]] = {}

    def measure(step, fn):
        result, ratio = measure_step(fn)
        ratios.setdefault(step, []).append(ratio)
        return result

    for _ in range(repeats):
        data = inputs.build_input(workload, seed, measure)
        measure("start", lambda: workloads.first_start(data))
    return data, sum(median(r) for r in ratios.values()) * CAL_REF_S


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its children, in MB."""
    kilobytes = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kilobytes / 1024.0


def run_passes(data: inputs.BenchInput, passes: int):
    """``(results, attempted, failed)``; stops at the first failed pass."""
    results = []
    attempted = failed = 0
    for _ in range(passes):
        gc.collect()
        result = workloads.run_pass(data)
        attempted += len(data.reference)
        failed += workloads.count_failed(result.lines, data.reference) + result.shed
        results.append(result)
        if failed:
            break
    return results, attempted, failed


def end_to_end(data: inputs.BenchInput, results, setup_s: float):
    """The gated metrics and the ungated diagnostics of an untraced run."""
    kinds = data.segment_kinds()
    ref_s = reference_seconds([r.recorder.ratios for r in results])
    alert_ms = [1000.0 * s for s, kind in zip(ref_s, kinds) if kind == "alert"]
    metrics = {
        "positions_per_ref_s": (data.inputs / sum(ref_s), "1/s"),
        "alert_latency_p50_ref_ms": (percentile(alert_ms, 0.5), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    walls = [sum(r.recorder.walls) for r in results]
    calibrations = [c for r in results for c in r.recorder.calibrations]
    diagnostics = {
        "alert_latency_p90_ref_ms": (percentile(alert_ms, 0.9), "ms"),
        "alert_latency_samples": (len(alert_ms) * len(results), "count"),
        "pass_wall_s_median": (median(walls), "s"),
        "pass_wall_s_min": (min(walls), "s"),
        "pass_wall_s_max": (max(walls), "s"),
        "positions_per_wall_s": (data.inputs / median(walls), "1/s"),
        "cal_ms_median": (1000.0 * median(calibrations), "ms"),
    }
    return metrics, diagnostics


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6f} {unit}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--seconds", type=float, default=inputs.RUN_SECONDS,
        help="scales each workload's fixed pass count (nominal at %(default)s)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = inputs.WORKLOADS[args.workload]
    data, setup_s = set_up(
        workload, args.seed, repeats=1 if args.trace else SETUP_REPEATS
    )
    # The inputs live as long as the process: keep them out of the
    # collector's sight, or every full collection during a timed pass
    # walks ~10^5 input tuples that no deployed system would hold.
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics, reconciliation, attempted, failed = traced.run(data)
        print(f"{workload.name} seed={args.seed}: reconciliation (ratio = of / base)")
        for what, value, base in reconciliation:
            print(f"  {what}: {value / base:.4f} = {value:.6f} / {base:.6f}")
        title = (
            f"{workload.name} seed={args.seed}: per-layer metrics "
            f"({traced.PASSES} passes of each kind)"
        )
    else:
        passes = workload.passes_for(args.seconds)
        results, attempted, failed = run_passes(data, passes)
        if failed:
            metrics = {}
        else:
            metrics, diagnostics = end_to_end(data, results, setup_s)
            print_metrics(
                f"{workload.name} seed={args.seed}: diagnostics, not gated "
                f"({passes} passes, {len(data.reference)} feed lines each)",
                diagnostics,
            )
        title = f"{workload.name} seed={args.seed}: end-to-end metrics"
    print_metrics(title, metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
