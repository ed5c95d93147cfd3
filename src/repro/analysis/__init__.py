"""Project-invariant static analysis for the deterministic pipeline.

The architecture's hard guarantees — byte-identical output at any
gateway count, WAL replay parity, no silent drops — are behavioral
invariants that one stray ``time.time()`` or uncounted shed silently
breaks.  This package encodes those repo-specific rules as code and
gates CI on them (see docs/STATIC_ANALYSIS.md for the rule catalog):

==========  ============================================================
``RPR001``  no wall-clock / unseeded randomness in deterministic
            packages (tracking, rtec, maritime, pipeline)
``RPR002``  no blocking calls (``time.sleep``, ``open``, sqlite,
            sockets, subprocesses) inside ``async def`` in the service
``RPR003``  every ``fault_point("…")`` literal is declared in the
            :data:`repro.resilience.faults.SITES` registry, and vice
            versa — no orphaned or undocumented chaos sites
``RPR004``  load-shedding branches (``get_nowait`` / evict / shed /
            drop) must increment an observability counter in the same
            function — nothing is ever lost silently
==========  ============================================================

The engine is pure stdlib-``ast``: no third-party dependency, so the
gate runs anywhere the code does.  Diagnostics can be suppressed per
line with ``# repro: allow[RPR001]`` (comma-separate several codes).

Run it as a CLI::

    python -m repro.analysis src tests
    python -m repro.analysis --format json src

or drive it programmatically::

    from repro.analysis import run_analysis
    result = run_analysis(["src"])
    for diagnostic in result.diagnostics:
        print(diagnostic.format())
"""

from repro.analysis.base import ModuleContext, Rule
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import AnalysisResult, module_name_for, run_analysis

__all__ = [
    "AnalysisResult",
    "Diagnostic",
    "ModuleContext",
    "Rule",
    "module_name_for",
    "run_analysis",
]
