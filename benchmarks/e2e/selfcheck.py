"""Does the benchmark agree with itself?  Run it the way its judge does.

    python3 benchmarks/e2e/selfcheck.py [--sets 2] [--runs 10] [--workload NAME ...]

A *set* is ``--runs`` untraced runs of every workload, each run with
another seed (the same seeds in every set).  For every workload x
end-to-end metric this prints each set's median and spread (distance
between the first and third quartile, as a share of the median), the gap
between the first and the last set's medians in the metric's *worse*
direction, and the bound from BENCHMARK.json.  It exits non-zero if a
run fails, if a spread (``setup_s`` excepted) exceeds its bound, or if a
gap does — identical code must not look like a regression.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]

#: Run ``i`` of every set uses seed ``FIRST_SEED + i``.
FIRST_SEED = 2015


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        sys.exit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout}{completed.stderr}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} reported failures: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    first, _, third = quantiles(values, n=4)
    return (third - first) / median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    if args.sets < 2 or args.runs < 2:
        parser.error("need at least 2 sets of at least 2 runs")

    #: values[workload][metric][set] = one value per run
    values: dict = {}
    for set_index in range(args.sets):
        for workload in args.workload or names:
            per_metric = values.setdefault(workload, {})
            for run in range(args.runs):
                measured = run_once(
                    spec["command"], workload, FIRST_SEED + run,
                    spec["run_seconds"],
                )
                for name, value in measured.items():
                    sets = per_metric.setdefault(name, [])
                    if len(sets) <= set_index:
                        sets.append([])
                    sets[set_index].append(value)
            for name, sets in per_metric.items():
                runs = " ".join(f"{value:.5g}" for value in sets[set_index])
                print(f"set {set_index + 1} {workload} {name}: {runs}", file=sys.stderr)

    exceeded = 0
    header = (
        f"{'workload':<19}{'metric':<26}{'median 1':>13}{'median N':>13}"
        f"{'spread 1':>9}{'spread N':>9}{'gap':>8}{'bound':>7}"
    )
    print(header)
    for workload, per_metric in values.items():
        for metric in spec["end_to_end"]:
            sets = per_metric[metric["name"]]
            first, last = median(sets[0]), median(sets[-1])
            worse = (last - first) if metric["better"] == "lower" else (first - last)
            gap = worse / first
            spreads = [spread(runs) for runs in sets]
            bad = gap > metric["bound"] or (
                metric["name"] != "setup_s" and max(spreads) > metric["bound"]
            )
            exceeded += bad
            print(
                f"{workload:<19}{metric['name']:<26}{first:>13.4f}{last:>13.4f}"
                f"{spreads[0]:>9.2%}{spreads[-1]:>9.2%}{gap:>+8.2%}"
                f"{metric['bound']:>7.0%}{'  EXCEEDED' if bad else ''}"
            )
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
