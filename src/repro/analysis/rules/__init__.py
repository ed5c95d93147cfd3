"""The bundled project rules, one module each, and :data:`RULES`.

To add a rule: create a module here with a
:class:`~repro.analysis.base.Rule` subclass, add the class to
:data:`RULES`, and document it in docs/STATIC_ANALYSIS.md (the rule
catalog is part of the contract).
"""

from repro.analysis.rules.rpr001_wallclock import WallclockRule
from repro.analysis.rules.rpr002_async_blocking import AsyncBlockingRule
from repro.analysis.rules.rpr003_fault_sites import FaultSiteRule
from repro.analysis.rules.rpr004_silent_drop import SilentDropRule

#: Every rule, in code order: each run applies them all.
RULES = (WallclockRule, AsyncBlockingRule, FaultSiteRule, SilentDropRule)

__all__ = ["RULES"]
