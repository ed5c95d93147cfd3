"""RPR001 — no wall-clock or unseeded randomness in deterministic paths.

The Mobility Tracker and RTEC must produce the same critical points and
CE intervals for the same input (the byte-identity guarantee of the
gateway cluster tests and the WAL replay parity of
``tests/service/test_recovery.py``).  Any read of the real clock or of
the process-global random generator inside the deterministic packages
makes output depend on *when* and *where* the code ran:

* ``time.time()`` / ``datetime.now()`` & friends are banned.
  ``time.perf_counter()`` and ``time.monotonic()`` stay legal — they
  measure durations for metrics and deadlines and never enter the data
  path;
* module-level :mod:`random` functions (``random.random()``,
  ``random.choice()``, …) are banned.  Constructing an explicitly
  seeded ``random.Random(seed)`` instance is fine — that is how the
  simulator and the chaos planner stay replayable.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutils import import_aliases, resolve_call
from repro.analysis.base import ModuleContext, Rule
from repro.analysis.diagnostics import Diagnostic

#: Packages whose output must be a pure function of their input.
DETERMINISTIC_PACKAGES = (
    "repro.tracking",
    "repro.rtec",
    "repro.maritime",
    "repro.pipeline",
)

#: Canonical dotted origins that read the wall clock.
WALLCLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: The one :mod:`random` attribute that is *not* the global generator.
_SEEDED_CONSTRUCTORS = frozenset({"random.Random", "random.SystemRandom"})


def in_scope(module: str) -> bool:
    """Whether RPR001 applies to a module."""
    return any(
        module == package or module.startswith(package + ".")
        for package in DETERMINISTIC_PACKAGES
    )


class WallclockRule(Rule):
    """Deterministic packages must not read wall clock or global RNG."""

    code = "RPR001"

    def check_module(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not in_scope(module.module):
            return
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call(node, aliases)
            if origin is None:
                continue
            if origin in WALLCLOCK_CALLS:
                yield Diagnostic(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.code,
                    message=(
                        f"wall-clock read `{origin}()` in deterministic "
                        f"package; outputs must be a pure function of the "
                        f"input stream (use the batch query time, or "
                        f"perf_counter/monotonic for metrics-only timing)"
                    ),
                )
            elif (
                origin.startswith("random.")
                and origin not in _SEEDED_CONSTRUCTORS
            ):
                yield Diagnostic(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.code,
                    message=(
                        f"module-level `{origin}()` uses the process-global "
                        f"RNG; pass an explicitly seeded random.Random "
                        f"instance instead"
                    ),
                )
