"""The declarative rule language of the engine.

A rule has a head — ``initiatedAt(F(args)=V, T)``, ``terminatedAt(...)`` or
``happensAt(E(args), T)`` — and an ordered body of literals evaluated
left-to-right over variable bindings:

* :class:`HappensAt` — an event occurrence pattern; the first body literal
  is the rule's *trigger* and binds the rule time ``T``;
* :class:`HoldsAt` — a fluent-value lookup at the (bound) rule time;
* :class:`StaticJoin` — an atemporal predicate: fact-table lookup or a
  Python callable, possibly *enumerating* new bindings (e.g. ``close``
  enumerating the areas near a coordinate);
* :class:`Guard` — a boolean test over bound variables (e.g. ``N > 3``).

Static predicates and guards must be *pure*: the same inputs give the same
answer at every step.  The engine caches what each trigger occurrence
derived and re-runs a body only when an event or fluent it read changed
(``engine.py``, rule (d)), so a predicate that consults mutable state —
a clock, a table edited between steps — would leave stale results.

Example — rule-set (3) of the paper::

    initiated(
        fluent="suspicious", args=(Var("Area"),), value=True,
        body=[
            HappensAt(Start("stopped", (Var("Vessel"),), True)),
            HoldsAt("coord", (Var("Vessel"),), (Var("Lon"), Var("Lat"))),
            StaticJoin(close_areas, inputs=("Lon", "Lat"), outputs=("Area",)),
            HoldsAt("vesselsStoppedIn", (Var("Area"),), Var("N")),
            Guard(lambda n: n > 3, ("N",)),
        ],
    )
"""

from collections.abc import Callable, Iterable
from dataclasses import dataclass

# Var is re-exported: rule authors write patterns like ``(Var("Area"),)``
# next to the combinators defined here (see the module docstring).
from repro.rtec.terms import Var as Var
from repro.rtec.terms import pattern_variables

#: Name of the implicit time variable every rule binds.
TIME_VARIABLE = "T"


# ----------------------------------------------------------------------
# event patterns
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EventPattern:
    """Pattern over plain (input or derived) event occurrences."""

    functor: str
    args: tuple = ()


@dataclass(frozen=True)
class Start:
    """The built-in ``start(F=V)`` event: each maximal interval's left end."""

    fluent: str
    args: tuple = ()
    value: object = True


@dataclass(frozen=True)
class End:
    """The built-in ``end(F=V)`` event: each closed interval's right end."""

    fluent: str
    args: tuple = ()
    value: object = True


# ----------------------------------------------------------------------
# body literals
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HappensAt:
    """``happensAt(E, T)``: match event occurrences, binding args and time."""

    pattern: EventPattern | Start | End
    time_variable: str = TIME_VARIABLE


@dataclass(frozen=True)
class HoldsAt:
    """``holdsAt(F(args)=V, T)`` at the bound time variable.

    With an unbound value pattern this is a lookup (binds the value); with
    unbound args it enumerates the known ground instances of the fluent.
    """

    fluent: str
    args: tuple = ()
    value: object = True
    time_variable: str = TIME_VARIABLE


@dataclass(frozen=True)
class StaticJoin:
    """An atemporal predicate backed by a Python callable.

    ``callable(*input_values)`` must return either a boolean (when
    ``outputs`` is empty) or an iterable of output-value tuples, one per
    solution.  All ``inputs`` must be bound when the literal is reached.
    The callable must be pure (see the module docstring).
    """

    predicate: Callable
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(
                self, "name", getattr(self.predicate, "__name__", "static")
            )


@dataclass(frozen=True)
class Guard:
    """A boolean filter over bound variables; the test must be pure."""

    test: Callable[..., bool]
    variables: tuple[str, ...]


@dataclass(frozen=True)
class NotHappensAt:
    """Negation as failure over events: no matching occurrence at ``T``.

    The time variable must already be bound (safe negation); the pattern's
    argument variables may be partially bound — the literal succeeds when
    *no* occurrence at the bound time unifies with the pattern, and it
    never produces new bindings.
    """

    pattern: EventPattern | Start | End
    time_variable: str = TIME_VARIABLE


@dataclass(frozen=True)
class NotHoldsAt:
    """Negation as failure over fluents: ``F(args) != value`` at ``T``.

    Both the time variable and the argument pattern must be bound when the
    literal is reached; it succeeds when no matching fluent instance holds
    a unifying value at that time.
    """

    fluent: str
    args: tuple = ()
    value: object = True
    time_variable: str = TIME_VARIABLE


BodyLiteral = HappensAt | HoldsAt | StaticJoin | Guard | NotHappensAt | NotHoldsAt


# ----------------------------------------------------------------------
# heads and rules
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InitiatedHead:
    """``initiatedAt(fluent(args) = value, T)``."""

    fluent: str
    args: tuple
    value: object


@dataclass(frozen=True)
class TerminatedHead:
    """``terminatedAt(fluent(args) = value, T)``."""

    fluent: str
    args: tuple
    value: object


@dataclass(frozen=True)
class HappensHead:
    """``happensAt(event(args), T)`` — a derived (complex) event."""

    event: str
    args: tuple


Head = InitiatedHead | TerminatedHead | HappensHead


@dataclass(frozen=True)
class Rule:
    """A complete rule: head, ordered body, and the referenced symbols."""

    head: Head
    body: tuple[BodyLiteral, ...]

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("a rule needs at least one body literal")
        if not isinstance(self.body[0], HappensAt):
            raise ValueError(
                "the first body literal must be a HappensAt trigger "
                "(RTEC rules are event-driven)"
            )

    def referenced_fluents(self) -> set[str]:
        """Fluents this rule reads (for dependency stratification).

        Negated literals count too: a stratum must be fully evaluated
        before anything negating it.
        """
        fluents: set[str] = set()
        for literal in self.body:
            if isinstance(literal, (HoldsAt, NotHoldsAt)):
                fluents.add(literal.fluent)
            elif isinstance(literal, (HappensAt, NotHappensAt)) and isinstance(
                literal.pattern, (Start, End)
            ):
                fluents.add(literal.pattern.fluent)
        return fluents

    def referenced_events(self) -> set[str]:
        """Plain events this rule reads (including under negation)."""
        return {
            literal.pattern.functor
            for literal in self.body
            if isinstance(literal, (HappensAt, NotHappensAt))
            and isinstance(literal.pattern, EventPattern)
        }

    def head_variables(self) -> set[str]:
        """Variables occurring in the head."""
        names = pattern_variables(self.head.args)
        if isinstance(self.head, (InitiatedHead, TerminatedHead)):
            names |= pattern_variables(self.head.value)
        return names


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------


def initiated(
    fluent: str, args: tuple, value: object, body: Iterable[BodyLiteral]
) -> Rule:
    """Build an ``initiatedAt`` rule."""
    return Rule(InitiatedHead(fluent, args, value), tuple(body))


def terminated(
    fluent: str, args: tuple, value: object, body: Iterable[BodyLiteral]
) -> Rule:
    """Build a ``terminatedAt`` rule."""
    return Rule(TerminatedHead(fluent, args, value), tuple(body))


def happens_head(event: str, args: tuple, body: Iterable[BodyLiteral]) -> Rule:
    """Build a derived-event (``happensAt`` head) rule."""
    return Rule(HappensHead(event, args), tuple(body))


def fact_table(name: str, rows: Iterable[tuple]) -> Callable:
    """A static predicate backed by an in-memory fact table.

    The resulting callable enumerates rows matching its (bound) input
    columns; pass it to :class:`StaticJoin` with the trailing columns as
    outputs.  For example ``fishing(Vessel)`` facts become a one-column
    table used with ``inputs=("Vessel",), outputs=()``.
    """
    stored = [tuple(row) for row in rows]

    def lookup(*inputs):
        prefix_length = len(inputs)
        return [
            row[prefix_length:]
            for row in stored
            if row[:prefix_length] == tuple(inputs)
        ]

    lookup.__name__ = name
    return lookup
