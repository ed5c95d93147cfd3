"""What a rule is, and the parsed module it reads.

A rule is a class with a ``code`` (``RPR001``…) and one hook,
:meth:`Rule.check_module`: called once per parsed module, it yields
:class:`~repro.analysis.diagnostics.Diagnostic` objects for findings in
that module.  The rules a run applies are
:data:`repro.analysis.rules.RULES`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

from repro.analysis.diagnostics import Diagnostic


@dataclass(frozen=True)
class ModuleContext:
    """One parsed module as the rules see it."""

    path: str
    module: str
    tree: ast.Module
    source: str


class Rule:
    """Base class for one check."""

    #: Unique diagnostic code, e.g. ``"RPR001"``.
    code: ClassVar[str] = ""

    def check_module(self, module: ModuleContext) -> Iterator[Diagnostic]:
        """Findings in one module (default: none)."""
        return iter(())
