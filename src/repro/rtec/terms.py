"""Logical variables and unification for the rule language.

RTEC rules quantify over vessels, areas, coordinates and counts.  We keep the
term language deliberately small: a pattern is a constant, a :class:`Var`, or
a (possibly nested) tuple of patterns; ground values are any hashable Python
values.  Bindings are plain dicts from variable names to ground values.
"""

from dataclasses import dataclass

Bindings = dict[str, object]


@dataclass(frozen=True)
class Var:
    """A logical variable, identified by name (paper convention: uppercase)."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


def unify(pattern, value, bindings: Bindings) -> Bindings | None:
    """Match a pattern against a ground value under existing bindings.

    Returns the extended bindings on success (a *new* dict; the input is not
    mutated) or ``None`` on mismatch.
    """
    if isinstance(pattern, Var):
        if pattern.name in bindings:
            return bindings if bindings[pattern.name] == value else None
        extended = dict(bindings)
        extended[pattern.name] = value
        return extended
    if isinstance(pattern, tuple):
        if not isinstance(value, tuple) or len(pattern) != len(value):
            return None
        current: Bindings | None = bindings
        for sub_pattern, sub_value in zip(pattern, value):
            current = unify(sub_pattern, sub_value, current)
            if current is None:
                return None
        return current
    return bindings if pattern == value else None


def bind(pattern, bindings: Bindings):
    """Instantiate a pattern under bindings.

    Raises ``KeyError`` if the pattern contains a variable with no binding —
    rule bodies are expected to be range-restricted, so every head variable
    is bound by the time the head is instantiated.
    """
    if isinstance(pattern, Var):
        return bindings[pattern.name]
    if isinstance(pattern, tuple):
        return tuple(bind(item, bindings) for item in pattern)
    return pattern


def is_ground(pattern) -> bool:
    """Whether a pattern contains no variables."""
    if isinstance(pattern, Var):
        return False
    if isinstance(pattern, tuple):
        return all(is_ground(item) for item in pattern)
    return True


def pattern_variables(pattern) -> set[str]:
    """Names of all variables occurring in a pattern."""
    if isinstance(pattern, Var):
        return {pattern.name}
    if isinstance(pattern, tuple):
        names: set[str] = set()
        for item in pattern:
            names |= pattern_variables(item)
        return names
    return set()
