"""The from-scratch RTEC step: the oracle for the incremental engine.

This is the engine's ``_step`` as it was before recognition became a fold
over each step's changes — the paper's Section 4.2 algorithm: at every
query time, re-derive every fluent and event over the whole working
memory.  :class:`OracleRTEC` inherits declarations, stratification,
snapshot/restore and the result type from :class:`~repro.rtec.engine.RTEC`
and replaces only the step, so both engines can be driven side by side
and must return identical ``RecognitionResult.fluents`` / ``.events``.

One deliberate change from the historical code: every value whose
interval is still open persists (the old code kept one per instance,
chosen by set iteration order, when two values were initiated at the same
timepoint), in the engine's per-functor ``_persisted_open`` layout.
"""

from collections import defaultdict

from repro import obs
from repro.rtec.engine import (
    RTEC,
    EngineView,
    EventStore,
    FluentStore,
    RecognitionResult,
    _solve_static,
)
from repro.rtec.intervals import (
    Interval,
    OPEN,
    end_points,
    holds_at,
    intervals_from_points,
    start_points,
)
from repro.rtec.rules import (
    EventPattern,
    Guard,
    HappensAt,
    HoldsAt,
    NotHappensAt,
    NotHoldsAt,
    Start,
    StaticJoin,
)
from repro.rtec.terms import Bindings, Var, bind, is_ground, unify


class OracleRTEC(RTEC):
    """RTEC whose every step re-derives the whole window."""

    @classmethod
    def like(cls, engine: RTEC) -> "OracleRTEC":
        """An oracle with the engine's window, rules, computed fluents,
        outputs and working memory (shared, not copied)."""
        oracle = cls(engine.window_seconds)
        oracle.working_memory = engine.working_memory
        for table in ("_initiation_rules", "_termination_rules", "_event_rules"):
            for functor, rules in getattr(engine, table).items():
                getattr(oracle, table)[functor] = list(rules)
        oracle._computed = dict(engine._computed)
        oracle._outputs_fluents = set(engine._outputs_fluents)
        oracle._outputs_events = set(engine._outputs_events)
        return oracle

    def _step(self, query_time: int) -> RecognitionResult:
        window_start = query_time - self.window_seconds
        with obs.span("rtec.windowing"):
            self.working_memory.forget_before(window_start)

            fluent_store: FluentStore = {}
            event_store: EventStore = {}
            input_events = 0
            for functor in self.working_memory.event_functors():
                occurrences = self.working_memory.events_in_window(
                    functor, window_start, query_time
                )
                if occurrences:
                    event_store[functor] = [(o.args, o.time) for o in occurrences]
                    input_events += len(occurrences)
        obs.count("rtec.input_events", input_events)

        view = EngineView(
            window_start,
            query_time,
            fluent_store,
            self.working_memory,
            lambda functor: event_store.get(functor, []),
        )
        context = _EvalContext(view)

        with obs.span("rtec.evaluation"):
            for functor in self._evaluation_order():
                if functor in self._computed:
                    fluent_store[functor] = self._computed[functor].compute(view)
                elif functor in self._event_rules:
                    occurrences = self._derive_event(functor, context)
                    if occurrences:
                        event_store.setdefault(functor, []).extend(occurrences)
                        event_store[functor].sort(key=lambda item: item[1])
                else:
                    fluent_store[functor] = self._derive_fluent(functor, context)
        obs.count("rtec.steps")

        result = RecognitionResult(query_time, window_start)
        report_fluents = self._outputs_fluents or (
            set(self._initiation_rules) | set(self._computed)
        )
        report_events = self._outputs_events or set(self._event_rules)
        result.fluents = {
            functor: fluent_store[functor]
            for functor in report_fluents
            if functor in fluent_store
        }
        result.events = {
            functor: event_store[functor]
            for functor in report_events
            if functor in event_store
        }
        self.last_result = result
        return result

    def _derive_fluent(
        self, functor: str, context: "_EvalContext"
    ) -> dict[tuple, dict[object, list[Interval]]]:
        """Compute maximal intervals for every instance of one fluent."""
        initiations: dict[tuple, dict[object, list[int]]] = defaultdict(
            lambda: defaultdict(list)
        )
        terminations: dict[tuple, dict[object, list[int]]] = defaultdict(
            lambda: defaultdict(list)
        )
        for rule in self._initiation_rules.get(functor, []):
            for bindings in context.solve(rule.body):
                args = bind(rule.head.args, bindings)
                value = bind(rule.head.value, bindings)
                timepoint = bindings[rule.body[0].time_variable]
                initiations[args][value].append(timepoint)
        for rule in self._termination_rules.get(functor, []):
            for bindings in context.solve(rule.body):
                args = bind(rule.head.args, bindings)
                value = bind(rule.head.value, bindings)
                timepoint = bindings[rule.body[0].time_variable]
                terminations[args][value].append(timepoint)

        # Persisted open intervals act as initiations from the past.
        for args, values in self._persisted_open.get(functor, {}).items():
            for value, ts in values.items():
                initiations[args][value].append(ts)

        instances: dict[tuple, dict[object, list[Interval]]] = {}
        all_args = set(initiations) | set(terminations)
        for args in all_args:
            value_intervals: dict[object, list[Interval]] = {}
            values = set(initiations[args]) | set(terminations[args])
            for value in values:
                inits = initiations[args].get(value, [])
                if not inits:
                    continue
                # Rule (2): initiating any other value breaks this one.
                breaks = list(terminations[args].get(value, []))
                for other_value, other_inits in initiations[args].items():
                    if other_value != value:
                        breaks.extend(other_inits)
                intervals = intervals_from_points(inits, breaks)
                if intervals:
                    value_intervals[value] = intervals
            if value_intervals:
                instances[args] = value_intervals

        self._update_persistence(functor, instances)
        return instances

    def _derive_event(
        self, functor: str, context: "_EvalContext"
    ) -> list[tuple[tuple, int]]:
        """Compute occurrences of a derived (complex) event."""
        occurrences: set[tuple[tuple, int]] = set()
        for rule in self._event_rules.get(functor, []):
            for bindings in context.solve(rule.body):
                args = bind(rule.head.args, bindings)
                timepoint = bindings[rule.body[0].time_variable]
                occurrences.add((args, timepoint))
        return sorted(occurrences, key=lambda item: (item[1], item[0]))

    def _update_persistence(
        self, functor: str, instances: dict[tuple, dict[object, list[Interval]]]
    ) -> None:
        """Remember open intervals so inertia outlives the window."""
        persisted: dict[tuple, dict[object, int]] = {}
        for args, value_intervals in instances.items():
            for value, intervals in value_intervals.items():
                if intervals and intervals[-1][1] == OPEN:
                    persisted.setdefault(args, {})[value] = intervals[-1][0]
        self._persisted_open[functor] = persisted


class _EvalContext:
    """Left-to-right body evaluation over variable bindings."""

    def __init__(self, view: EngineView):
        self._view = view

    def solve(self, body: tuple) -> list[Bindings]:
        """All binding solutions of a rule body."""
        solutions: list[Bindings] = [{}]
        for literal in body:
            if not solutions:
                return []
            if isinstance(literal, HappensAt):
                solutions = self._solve_happens(literal, solutions)
            elif isinstance(literal, HoldsAt):
                solutions = self._solve_holds(literal, solutions)
            elif isinstance(literal, NotHappensAt):
                solutions = self._solve_negated_happens(literal, solutions)
            elif isinstance(literal, NotHoldsAt):
                solutions = self._solve_negated_holds(literal, solutions)
            elif isinstance(literal, StaticJoin):
                # The engine's own join: a static predicate has no window.
                solutions = _solve_static(literal, solutions)
            elif isinstance(literal, Guard):
                solutions = [
                    bindings
                    for bindings in solutions
                    if literal.test(
                        *(bindings[name] for name in literal.variables)
                    )
                ]
            else:
                raise TypeError(f"unknown body literal: {literal!r}")
        return solutions

    # -- happensAt ------------------------------------------------------

    def _solve_happens(
        self, literal: HappensAt, solutions: list[Bindings]
    ) -> list[Bindings]:
        occurrences = self._occurrences(literal.pattern)
        extended: list[Bindings] = []
        for bindings in solutions:
            bound_time = bindings.get(literal.time_variable)
            for args, timepoint in occurrences:
                if bound_time is not None and timepoint != bound_time:
                    continue
                unified = unify(literal.pattern.args, args, bindings)
                if unified is None:
                    continue
                if bound_time is None:
                    unified = dict(unified)
                    unified[literal.time_variable] = timepoint
                extended.append(unified)
        return extended

    def _occurrences(self, pattern) -> list[tuple[tuple, int]]:
        view = self._view
        if isinstance(pattern, EventPattern):
            return view.occurrences(pattern.functor)
        # start/end of fluent intervals, clipped to the window.
        instances = view.fluents.get(pattern.fluent, {})
        occurrences: list[tuple[tuple, int]] = []
        for args, value_intervals in instances.items():
            for value, intervals in value_intervals.items():
                matched = unify(pattern.value, value, {})
                if matched is None:
                    continue
                if isinstance(pattern, Start):
                    points = start_points(intervals)
                else:
                    points = end_points(intervals)
                for point in points:
                    if view.window_start < point <= view.query_time:
                        occurrences.append((args, point))
        occurrences.sort(key=lambda item: item[1])
        return occurrences

    def _solve_negated_happens(
        self, literal: NotHappensAt, solutions: list[Bindings]
    ) -> list[Bindings]:
        """Keep bindings with no matching occurrence at the bound time."""
        occurrences = self._occurrences(literal.pattern)
        surviving: list[Bindings] = []
        for bindings in solutions:
            bound_time = bindings.get(literal.time_variable)
            if bound_time is None:
                raise ValueError(
                    "NotHappensAt reached with unbound time variable "
                    f"{literal.time_variable!r}; negation must follow the "
                    "trigger that binds it"
                )
            matched = any(
                timepoint == bound_time
                and unify(literal.pattern.args, args, bindings) is not None
                for args, timepoint in occurrences
            )
            if not matched:
                surviving.append(bindings)
        return surviving

    def _solve_negated_holds(
        self, literal: NotHoldsAt, solutions: list[Bindings]
    ) -> list[Bindings]:
        """Keep bindings whose fluent instance does not hold the value."""
        positive = HoldsAt(
            literal.fluent, literal.args, literal.value, literal.time_variable
        )
        surviving: list[Bindings] = []
        for bindings in solutions:
            if not self._solve_holds(positive, [bindings]):
                surviving.append(bindings)
        return surviving

    # -- holdsAt --------------------------------------------------------

    def _solve_holds(
        self, literal: HoldsAt, solutions: list[Bindings]
    ) -> list[Bindings]:
        view = self._view
        extended: list[Bindings] = []
        derived = view.fluents.get(literal.fluent)
        for bindings in solutions:
            timepoint = bindings.get(literal.time_variable)
            if timepoint is None:
                raise ValueError(
                    f"holdsAt({literal.fluent}) reached with unbound time "
                    f"variable {literal.time_variable!r}; order the body so a "
                    "happensAt trigger binds it first"
                )
            if derived is not None:
                extended.extend(
                    self._match_derived(literal, derived, bindings, timepoint)
                )
            else:
                extended.extend(self._match_valued(literal, bindings, timepoint))
        return extended

    def _match_derived(
        self,
        literal: HoldsAt,
        instances: dict[tuple, dict[object, list[Interval]]],
        bindings: Bindings,
        timepoint: int,
    ) -> list[Bindings]:
        matches: list[Bindings] = []
        for args, value_intervals in instances.items():
            unified_args = unify(literal.args, args, bindings)
            if unified_args is None:
                continue
            for value, intervals in value_intervals.items():
                unified = unify(literal.value, value, unified_args)
                if unified is None:
                    continue
                if holds_at(intervals, timepoint):
                    matches.append(unified)
        return matches

    def _match_valued(
        self, literal: HoldsAt, bindings: Bindings, timepoint: int
    ) -> list[Bindings]:
        view = self._view
        matches: list[Bindings] = []
        if is_ground(_bind_safe(literal.args, bindings)):
            candidate_args = [bind(literal.args, bindings)]
        else:
            candidate_args = [
                args
                for args in view.memory.valued_instances(literal.fluent)
                if unify(literal.args, args, bindings) is not None
            ]
        for args in candidate_args:
            value = view.memory.value_at(
                literal.fluent, args, timepoint, view.query_time
            )
            if value is None:
                continue
            unified = unify(literal.args, args, bindings)
            if unified is None:
                continue
            unified = unify(literal.value, value, unified)
            if unified is not None:
                matches.append(unified)
        return matches


def _bind_safe(pattern, bindings: Bindings):
    """Like :func:`bind` but leaves unbound variables in place."""
    if isinstance(pattern, Var):
        return bindings.get(pattern.name, pattern)
    if isinstance(pattern, tuple):
        return tuple(_bind_safe(item, bindings) for item in pattern)
    return pattern
