"""Small AST helpers shared by the rules.

The central service is *call resolution*: given ``t.time()`` in a module
that did ``import time as t``, :func:`resolve_call` answers the canonical
dotted origin ``"time.time"``.  Resolution is deliberately conservative —
only names traceable to a module-level ``import`` / ``from … import``
resolve; attribute chains rooted in local objects return ``None`` and are
never flagged, so the rules err toward false negatives, not noise.
"""

from __future__ import annotations

import ast


def dotted_parts(node: ast.expr) -> list[str] | None:
    """Flatten ``a.b.c`` into ``["a", "b", "c"]`` (None if not a pure chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map every imported local name to its canonical dotted origin.

    ``import time`` → ``{"time": "time"}``;
    ``import time as t`` → ``{"t": "time"}``;
    ``from datetime import datetime`` → ``{"datetime": "datetime.datetime"}``;
    ``from random import randint as ri`` → ``{"ri": "random.randint"}``.

    Imports are collected from the whole module (including those nested in
    functions), since a function-local ``import time`` taints the same
    local name the rules look for.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.partition(".")[0]
                target = name.name if name.asname else name.name.partition(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """Canonical dotted origin of a call's callee, if statically known.

    Builtins resolve to their bare name (``open`` → ``"open"``) unless the
    module rebound the name via an import.
    """
    parts = dotted_parts(node.func)
    if parts is None:
        return None
    root, rest = parts[0], parts[1:]
    origin = aliases.get(root)
    if origin is None:
        # Unimported bare names are builtins or locals; only a bare Name
        # (no attribute access) is meaningful to report.
        return root if not rest else None
    return ".".join([origin, *rest]) if rest else origin


def walk_function_body(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.AST]:
    """Every node in a function body, *excluding* nested function bodies.

    Nested ``def``/``async def`` are visited on their own by rules that
    iterate all functions, so excluding them here prevents double reports
    and keeps "inside this function" checks honest.
    """
    collected: list[ast.AST] = []
    stack: list[ast.AST] = list(function.body)
    while stack:
        node = stack.pop()
        collected.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Decorators and defaults execute in the enclosing scope.
            stack.extend(node.decorator_list)
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return collected


def iter_functions(
    tree: ast.Module,
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """All function definitions in a module, at any nesting depth."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
