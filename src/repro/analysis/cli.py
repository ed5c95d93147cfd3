"""Command-line front end: ``python -m repro.analysis``.

Exit-code contract (CI depends on it):

====  =========================================================
``0``  scan ran, no diagnostics
``1``  scan ran, at least one diagnostic (including parse errors)
``2``  usage error — unknown option, missing or undecodable path
====  =========================================================
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.diagnostics import render_human, render_json
from repro.analysis.engine import run_analysis

#: Exit codes of the contract above.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for --help tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Project-invariant AST lint for the deterministic pipeline "
            "(rules RPR001-RPR004; see docs/STATIC_ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="diagnostic output format (default: human)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        result = run_analysis(args.paths)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        sys.stdout.write(render_json(result.diagnostics, result.stats()))
    else:
        print(render_human(result.diagnostics))
    return EXIT_FINDINGS if result.diagnostics else EXIT_CLEAN
