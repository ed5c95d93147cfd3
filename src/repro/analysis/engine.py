"""File discovery, parsing, rule dispatch and result assembly.

One :func:`run_analysis` call walks the given paths, parses every Python
file once, hands each parsed module to every rule of
:data:`~repro.analysis.rules.RULES`, then runs
the rules' project-wide ``finalize`` hooks.  Diagnostics come back
sorted by location, suppression comments already applied.

The engine measures itself through the ambient observability registry
(:mod:`repro.obs`): ``analysis.files`` / ``analysis.diagnostics``
counters and an ``analysis.rule_seconds.<CODE>`` histogram per rule —
the numbers ``benchmarks/drills.py lint`` prints.

Discovery prunes ``__pycache__``, hidden directories, and directories
named ``fixtures`` (the known-bad sample trees under
``tests/analysis/fixtures`` must not fail the CI sweep) — unless the
*root* you pass is itself inside one, which is how the golden tests
scan the fixtures on purpose.  Explicit file paths are always scanned.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable
from typing import Any

from repro import obs
from repro.analysis.base import ModuleContext, Rule
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import RULES
from repro.analysis.suppressions import is_suppressed, suppressed_lines

#: Diagnostic code attached to files the parser rejects.
PARSE_ERROR_CODE = "RPR000"

#: Directory names never descended into during discovery.
_PRUNED_DIRS = {"__pycache__", "fixtures"}


@dataclass
class AnalysisResult:
    """Everything one engine run produced."""

    diagnostics: list[Diagnostic]
    files: int
    suppressed: int
    elapsed_seconds: float
    rule_seconds: dict[str, float] = field(default_factory=dict)
    parse_errors: int = 0

    @property
    def files_per_sec(self) -> float:
        """Analyzer throughput (0.0 when nothing was timed)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.files / self.elapsed_seconds

    def stats(self) -> dict[str, Any]:
        """The ``stats`` object of the JSON output."""
        return {
            "files": self.files,
            "diagnostics": len(self.diagnostics),
            "suppressed": self.suppressed,
            "parse_errors": self.parse_errors,
            "elapsed_seconds": self.elapsed_seconds,
            "files_per_sec": self.files_per_sec,
            "rule_seconds": {
                code: seconds
                for code, seconds in sorted(self.rule_seconds.items())
            },
        }


def module_name_for(path: Path) -> str:
    """Dotted module name inferred from a file path.

    The name is anchored at the *last* ``repro`` or ``tests`` path
    component, so ``src/repro/geo/units.py`` → ``repro.geo.units`` and
    ``tests/analysis/fixtures/repro/tracking/bad.py`` →
    ``repro.tracking.bad`` — fixture trees deliberately masquerade as
    in-tree modules so the rules scope onto them.  Paths under neither
    anchor fall back to the bare stem.
    """
    parts = list(path.parts)
    parts[-1] = path.stem
    anchor = -1
    for index, part in enumerate(parts):
        if part in ("repro", "tests"):
            anchor = index
    if anchor >= 0:
        parts = parts[anchor:]
    else:
        parts = [path.stem]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """Python files under the given paths, sorted, pruned, deduplicated.

    Missing paths raise ``FileNotFoundError`` — a CI gate that silently
    scans nothing would be worse than useless.
    """
    found: dict[Path, None] = {}
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            raise FileNotFoundError(f"no such path: {root}")
        if root.is_file():
            found.setdefault(root, None)
            continue
        for candidate in sorted(root.rglob("*.py")):
            relative = candidate.relative_to(root).parts[:-1]
            if any(
                part in _PRUNED_DIRS or part.startswith(".")
                for part in relative
            ):
                continue
            found.setdefault(candidate, None)
    return sorted(found)


def _parse(path: Path) -> tuple[ModuleContext | None, Diagnostic | None]:
    """Parse one file into a context, or a parse-error diagnostic."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Diagnostic(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule=PARSE_ERROR_CODE,
            message=f"syntax error: {exc.msg}",
        )
    return (
        ModuleContext(
            path=str(path),
            module=module_name_for(path),
            tree=tree,
            source=source,
        ),
        None,
    )


def run_analysis(paths: Iterable[str | Path]) -> AnalysisResult:
    """Run every rule over every Python file under ``paths``."""
    started = time.perf_counter()
    rules: list[Rule] = [cls() for cls in RULES]
    rule_seconds: dict[str, float] = {rule.code: 0.0 for rule in rules}

    files = discover_files(paths)
    raw: list[Diagnostic] = []
    allowed_by_path: dict[str, dict[int, set[str]]] = {}
    parse_errors = 0
    for path in files:
        context, parse_error = _parse(path)
        if parse_error is not None:
            raw.append(parse_error)
            parse_errors += 1
            continue
        assert context is not None
        allowed_by_path[context.path] = suppressed_lines(context.source)
        for rule in rules:
            rule_started = time.perf_counter()
            raw.extend(rule.check_module(context))
            rule_seconds[rule.code] += time.perf_counter() - rule_started
        obs.count("analysis.files")
    for rule in rules:
        rule_started = time.perf_counter()
        raw.extend(rule.finalize())
        rule_seconds[rule.code] += time.perf_counter() - rule_started

    diagnostics: list[Diagnostic] = []
    suppressed = 0
    for diagnostic in raw:
        allowed = allowed_by_path.get(diagnostic.path, {})
        if is_suppressed(allowed, diagnostic.line, diagnostic.rule):
            suppressed += 1
        else:
            diagnostics.append(diagnostic)
    diagnostics.sort()

    elapsed = time.perf_counter() - started
    for code, seconds in rule_seconds.items():
        obs.observe(f"analysis.rule_seconds.{code}", seconds)
    obs.count("analysis.diagnostics", len(diagnostics))
    obs.observe("analysis.run_seconds", elapsed)
    return AnalysisResult(
        diagnostics=diagnostics,
        files=len(files),
        suppressed=suppressed,
        elapsed_seconds=elapsed,
        rule_seconds=rule_seconds,
        parse_errors=parse_errors,
    )
