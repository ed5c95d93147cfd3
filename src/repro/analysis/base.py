"""What a rule is, and the parsed module it reads.

A rule is a class with a ``code`` (``RPR001``…) and two hooks:

* :meth:`Rule.check_module` — called once per parsed module, yields
  :class:`~repro.analysis.diagnostics.Diagnostic` objects for findings
  local to that module;
* :meth:`Rule.finalize` — called once after every module was visited,
  for project-wide invariants (e.g. RPR003's fault-site registry match,
  which needs both the registry module and every call site).

Rules are instantiated fresh per engine run, so they may accumulate
state across ``check_module`` calls and consume it in ``finalize``.
The rules a run applies are :data:`repro.analysis.rules.RULES`.
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
        """Findings local to one module (default: none)."""
        return iter(())

    def finalize(self) -> Iterator[Diagnostic]:
        """Project-wide findings after all modules were seen (default: none)."""
        return iter(())
