"""The bundled project rules; importing this package registers them all.

Each module holds one rule.  To add a rule: create a module here with a
:class:`~repro.analysis.registry.Rule` subclass decorated with
``@register``, import it below, and document it in
docs/STATIC_ANALYSIS.md (the rule catalog is part of the contract).
"""

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    rpr001_wallclock,
    rpr002_async_blocking,
    rpr003_fault_sites,
    rpr004_silent_drop,
)

__all__ = [
    "rpr001_wallclock",
    "rpr002_async_blocking",
    "rpr003_fault_sites",
    "rpr004_silent_drop",
]
