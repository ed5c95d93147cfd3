"""Deterministic fault injection: plans, specs, the global injector,
and the one table of fault sites."""

import ast
import functools
from pathlib import Path

import pytest

import repro
from repro.resilience.faults import (
    SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_point,
    get_injector,
    inject,
    install,
    uninstall,
)


class TestFaultSpec:
    def test_spec_string_roundtrip(self):
        spec = FaultSpec("mod.write", "error", at=3)
        assert spec.to_spec() == "mod.write:error@3"
        delayed = FaultSpec("service.slide", "delay", at=2, arg=0.5)
        assert delayed.to_spec() == "service.slide:delay@2:0.5"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("mod.write", "explode")

    def test_hit_index_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec("mod.write", "error", at=0)


class TestFaultPlan:
    def test_parse_multi_fault_spec(self):
        plan = FaultPlan.from_spec(
            "mod.write:error@3,service.slide:delay@2:0.5"
        )
        assert len(plan) == 2
        assert plan.specs[0] == FaultSpec("mod.write", "error", at=3)
        assert plan.specs[1] == FaultSpec(
            "service.slide", "delay", at=2, arg=0.5
        )
        assert FaultPlan.from_spec(plan.to_spec()).specs == plan.specs

    def test_malformed_spec_is_an_explicit_error(self):
        for bad in ("mod.write", "mod.write:error", "a:error@x", "a:zap@1"):
            with pytest.raises(ValueError):
                FaultPlan.from_spec(bad)

    def test_seeded_plans_are_replayable(self):
        sites = {"mod.write": ("error",), "service.slide": ("delay", "crash")}
        one = FaultPlan.seeded(42, sites)
        two = FaultPlan.seeded(42, sites)
        assert one.to_spec() == two.to_spec()
        assert FaultPlan.seeded(43, sites).to_spec() != one.to_spec()


class TestInjector:
    def test_error_fires_at_exact_hit(self):
        injector = FaultInjector(FaultPlan.from_spec("site.a:error@3"))
        assert injector.check("site.a") is None
        assert injector.check("site.a") is None
        with pytest.raises(InjectedFault) as excinfo:
            injector.check("site.a")
        assert excinfo.value.hit == 3
        assert injector.check("site.a") is None  # fires exactly once
        assert injector.snapshot()["fired"] == ["site.a:error@3"]

    def test_unhandled_kinds_returned_to_caller(self):
        injector = FaultInjector(FaultPlan.from_spec("site.b:crash@1"))
        spec = injector.check("site.b")
        assert spec is not None and spec.kind == "crash"

    def test_sites_count_independently(self):
        injector = FaultInjector(FaultPlan.from_spec("site.a:error@2"))
        injector.check("site.other")
        injector.check("site.a")
        assert injector.hits == {"site.other": 1, "site.a": 1}


class TestGlobalInstallation:
    def test_fault_point_is_noop_without_injector(self):
        uninstall()
        assert fault_point("anything") is None

    def test_inject_scopes_the_injector(self):
        with inject(FaultPlan.from_spec("x:error@1")) as injector:
            assert get_injector() is injector
            with pytest.raises(InjectedFault):
                fault_point("x")
        assert get_injector() is None

    def test_install_uninstall(self):
        injector = install(FaultPlan.from_spec("y:drop@1"))
        try:
            assert fault_point("y").kind == "drop"
        finally:
            uninstall()


@functools.cache
def _fault_point_calls() -> list[tuple[str, ast.expr | None]]:
    """Every ``fault_point(...)`` call in the ``repro`` package, as
    ``("path:line", first positional argument)``."""
    root = Path(repro.__file__).parent
    calls = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = getattr(callee, "attr", None) or getattr(callee, "id", None)
            if name == "fault_point":
                where = f"{path.relative_to(root)}:{node.lineno}"
                calls.append((where, node.args[0] if node.args else None))
    return calls


class TestSiteTable:
    """``SITES`` is the one declaration of the fault sites: the calls in
    ``repro`` name exactly its keys, each with a string literal, so a
    chaos plan can target every site and arms none in vain."""

    def test_every_call_names_a_declared_site_with_a_literal(self):
        undeclared = [
            (where, ast.unparse(arg) if arg is not None else None)
            for where, arg in _fault_point_calls()
            if not (isinstance(arg, ast.Constant) and arg.value in SITES)
        ]
        assert undeclared == []

    def test_every_declared_site_is_named_by_a_call(self):
        named = {
            arg.value
            for _, arg in _fault_point_calls()
            if isinstance(arg, ast.Constant)
        }
        assert sorted(SITES.keys() - named) == []
