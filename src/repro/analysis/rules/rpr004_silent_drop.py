"""RPR004 — load-shedding code must count what it throws away.

"Nothing is ever lost silently" is a stated contract of the ingest
queue, the feed hub and the fragment assembler: every shed sentence,
evicted subscriber and dropped fragment group shows up in the
observability registry, so operators can tell load shedding from data
loss.  The contract decays one forgotten counter at a time — this rule
pins it structurally.

A function in the queueing layers (``repro.service``,
``repro.resilience``, ``repro.ais``, ``repro.transport``,
``repro.gateway``) is a *drop site* when it

* calls ``<something>.get_nowait()`` (draining/discarding queued items
  outside the normal awaited path), or
* is itself named like a shedding operation (``evict``/``shed``/
  ``drop`` as a name component, e.g. ``_evict``, ``shed_oldest``).

Every drop site must, in the *same function*, call an instrument
increment — ``obs.count(...)``, ``registry.inc(...)`` or
``Counter.inc(...)`` (any call spelled ``.count``/``.inc`` counts).
Windowing semantics are deliberately out of scope: expired critical
points in ``repro.tracking`` are *returned* downstream, not dropped,
so the tracking package is not checked.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.astutils import (
    dotted_parts,
    iter_functions,
    walk_function_body,
)
from repro.analysis.base import ModuleContext, Rule
from repro.analysis.diagnostics import Diagnostic

#: Packages whose drop paths must be counted.
QUEUEING_PACKAGES = (
    "repro.service",
    "repro.resilience",
    "repro.ais",
    "repro.transport",
    "repro.gateway",
)

#: Function-name components that mark a shedding operation.
_DROP_NAME = re.compile(r"(^|_)(evict|shed|drop)")

#: Callee attribute names that count as incrementing an instrument.
_COUNTER_ATTRS = frozenset({"count", "inc"})


def in_scope(module: str) -> bool:
    """Whether RPR004 applies to a module."""
    return any(
        module == package or module.startswith(package + ".")
        for package in QUEUEING_PACKAGES
    )


def _is_counter_call(node: ast.Call) -> bool:
    parts = dotted_parts(node.func)
    return parts is not None and len(parts) >= 2 and parts[-1] in _COUNTER_ATTRS


def _drop_reason(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
    body: list[ast.AST],
) -> str | None:
    """Why this function is a drop site, or None."""
    if _DROP_NAME.search(function.name):
        return f"function name `{function.name}` marks a shedding operation"
    for node in body:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get_nowait"
        ):
            return "calls `.get_nowait()` (discards queued items)"
    return None


class SilentDropRule(Rule):
    """Drop/shed/evict paths must increment an obs counter."""

    code = "RPR004"

    def check_module(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not in_scope(module.module):
            return
        for function in iter_functions(module.tree):
            body = walk_function_body(function)
            reason = _drop_reason(function, body)
            if reason is None:
                continue
            counted = any(
                isinstance(node, ast.Call) and _is_counter_call(node)
                for node in body
            )
            if counted:
                continue
            yield Diagnostic(
                path=module.path,
                line=function.lineno,
                col=function.col_offset,
                rule=self.code,
                message=(
                    f"silent drop: {reason} but no obs counter is "
                    f"incremented in `{function.name}`; count what you "
                    f"throw away (obs.count / registry.inc)"
                ),
            )
