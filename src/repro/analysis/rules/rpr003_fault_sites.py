"""RPR003 — every chaos fault site is declared, and every declaration live.

Deterministic fault injection (:mod:`repro.resilience.faults`) only
means something if the set of named sites is a *curated contract*: the
chaos CLI, the seeded plan generator, docs/RESILIENCE.md and the drills
all enumerate sites from the central :data:`~repro.resilience.faults.SITES`
registry.  A ``fault_point("…")`` sprinkled into the tree without a
registry entry is an undocumented chaos surface nobody can target or
reason about; a registry entry whose site string no longer appears in
the code is dead configuration that drills will arm in vain.

This is a project-wide invariant, so the work happens in ``finalize``:

* every string-literal ``fault_point("site")`` call in ``repro.*``
  modules must name a key of ``SITES``;
* every ``SITES`` key must be referenced by at least one such call;
* every member of ``UNSEEDED_SITES`` (sites excluded from blind seeded
  plans, e.g. permanent partitions that would stall a smoke run) must
  itself be a declared ``SITES`` key — an unseeded entry for a site
  that does not exist filters nothing.

Both directions need the registry module *and* the call sites in the
same sweep; when the scan did not include ``repro.resilience.faults``
(or saw no call sites at all) the respective direction is skipped
rather than guessed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from collections.abc import Iterator

from repro.analysis.astutils import call_arg_literal, import_aliases, resolve_call
from repro.analysis.base import ModuleContext, Rule
from repro.analysis.diagnostics import Diagnostic

#: Module that must define the ``SITES`` registry.
REGISTRY_MODULE = "repro.resilience.faults"

#: Name of the registry mapping inside :data:`REGISTRY_MODULE`.
REGISTRY_NAME = "SITES"

#: Name of the seeded-plan exclusion set inside :data:`REGISTRY_MODULE`.
UNSEEDED_NAME = "UNSEEDED_SITES"


@dataclass(frozen=True)
class _Site:
    """One observed fault-site string with its location."""

    site: str
    path: str
    line: int
    col: int


class FaultSiteRule(Rule):
    """fault_point literals and the SITES registry must match exactly."""

    code = "RPR003"

    def __init__(self) -> None:
        self._call_sites: list[_Site] = []
        self._registry: dict[str, _Site] = {}
        self._unseeded: dict[str, _Site] = {}
        self._registry_seen = False

    def check_module(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not module.module.startswith("repro."):
            return iter(())
        if module.module == REGISTRY_MODULE:
            self._collect_registry(module)
        self._collect_call_sites(module)
        return iter(())

    def _collect_registry(self, module: ModuleContext) -> None:
        self._registry_seen = True
        for node in module.tree.body:
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            names = {
                target.id
                for target in targets
                if isinstance(target, ast.Name)
            }
            if REGISTRY_NAME in names and isinstance(value, ast.Dict):
                for key in value.keys:
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    ):
                        self._registry[key.value] = _Site(
                            site=key.value,
                            path=module.path,
                            line=key.lineno,
                            col=key.col_offset,
                        )
            if UNSEEDED_NAME in names:
                for element in self._set_literal_elements(value):
                    self._unseeded[element.value] = _Site(
                        site=element.value,
                        path=module.path,
                        line=element.lineno,
                        col=element.col_offset,
                    )

    @staticmethod
    def _set_literal_elements(value: ast.expr) -> list[ast.Constant]:
        """String constants inside ``{…}``, ``frozenset({…})`` or
        ``frozenset([…])`` — the shapes UNSEEDED_SITES may take."""
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("frozenset", "set")
            and len(value.args) == 1
        ):
            value = value.args[0]
        if not isinstance(value, (ast.Set, ast.List, ast.Tuple)):
            return []
        return [
            element
            for element in value.elts
            if isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ]

    def _collect_call_sites(self, module: ModuleContext) -> None:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call(node, aliases)
            if origin is None:
                continue
            if origin != "fault_point" and not origin.endswith(".fault_point"):
                continue
            site = call_arg_literal(node)
            if site is None:
                continue
            self._call_sites.append(_Site(
                site=site,
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
            ))

    def finalize(self) -> Iterator[Diagnostic]:
        if self._registry_seen:
            for site, declared in sorted(self._unseeded.items()):
                if site not in self._registry:
                    yield Diagnostic(
                        path=declared.path,
                        line=declared.line,
                        col=declared.col,
                        rule=self.code,
                        message=(
                            f"{UNSEEDED_NAME} entry \"{site}\" is not a "
                            f"{REGISTRY_NAME} key; an exclusion for an "
                            f"undeclared site filters nothing"
                        ),
                    )
            for call in self._call_sites:
                if call.site not in self._registry:
                    yield Diagnostic(
                        path=call.path,
                        line=call.line,
                        col=call.col,
                        rule=self.code,
                        message=(
                            f"fault site \"{call.site}\" is not declared in "
                            f"{REGISTRY_MODULE}.{REGISTRY_NAME}; chaos plans "
                            f"and docs enumerate sites from that registry"
                        ),
                    )
        if self._call_sites:
            referenced = {call.site for call in self._call_sites}
            for site, declared in sorted(self._registry.items()):
                if site not in referenced:
                    yield Diagnostic(
                        path=declared.path,
                        line=declared.line,
                        col=declared.col,
                        rule=self.code,
                        message=(
                            f"registry entry \"{site}\" has no "
                            f"fault_point(\"{site}\") call site left in the "
                            f"tree; remove the dead declaration or restore "
                            f"the hook"
                        ),
                    )
