"""RPR002 — no blocking calls inside ``async def`` in the service layer.

The live service keeps one event loop reading sockets, tracking and
closing slides, while the MOD's sqlite work runs on a dedicated pipeline
thread (see :mod:`repro.service.batcher`).  A synchronous sleep, file
open, sqlite call or socket operation *on the loop* stalls every
connection at once — ingest backs up, the feed hub stops draining, the
stall timers starve.  Blocking work belongs on the executor
(``run_in_executor``) or behind the async APIs.

Flagged inside ``async def`` bodies in ``repro.service``,
``repro.transport`` and ``repro.gateway``:
``time.sleep``, builtin ``open``, anything in :mod:`sqlite3`,
:mod:`subprocess` or :mod:`requests`, ``socket.socket`` /
``socket.create_connection``, ``os.fsync`` / ``os.system``, and
``urllib.request.urlopen``.  Calls on local objects are not resolvable
statically and are not flagged — the rule is a tripwire, not a proof.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutils import (
    import_aliases,
    resolve_call,
    walk_function_body,
)
from repro.analysis.base import ModuleContext, Rule
from repro.analysis.diagnostics import Diagnostic

#: Packages whose async functions are checked (the service layer plus
#: the transport adapters and the gateway tier, which share its loop).
ASYNC_PACKAGES = ("repro.service", "repro.transport", "repro.gateway")

#: Exact canonical origins that block the event loop.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "open",
    "socket.socket",
    "socket.create_connection",
    "os.fsync",
    "os.system",
    "urllib.request.urlopen",
})

#: Origin prefixes that are blocking wholesale.
BLOCKING_PREFIXES = ("sqlite3.", "subprocess.", "requests.")


def in_scope(module: str) -> bool:
    """Whether RPR002 applies to a module."""
    return any(
        module == package or module.startswith(package + ".")
        for package in ASYNC_PACKAGES
    )


def _is_blocking(origin: str) -> bool:
    return origin in BLOCKING_CALLS or origin.startswith(BLOCKING_PREFIXES)


class AsyncBlockingRule(Rule):
    """`async def` bodies in repro.service must not block the loop."""

    code = "RPR002"

    def check_module(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not in_scope(module.module):
            return
        aliases = import_aliases(module.tree)
        for function in ast.walk(module.tree):
            if not isinstance(function, ast.AsyncFunctionDef):
                continue
            for node in walk_function_body(function):
                if not isinstance(node, ast.Call):
                    continue
                origin = resolve_call(node, aliases)
                if origin is None or not _is_blocking(origin):
                    continue
                yield Diagnostic(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.code,
                    message=(
                        f"blocking call `{origin}(...)` inside async "
                        f"function `{function.name}` stalls the event loop; "
                        f"move it to the pipeline executor thread "
                        f"(run_in_executor) or use the async equivalent"
                    ),
                )
