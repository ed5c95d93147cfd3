"""The RTEC recognition engine.

Recognition runs at query times ``Q1, Q2, ...``: at each ``Qi`` the engine
considers input events that occurred in ``(Qi - omega, Qi]`` and have arrived
by ``Qi`` (working memory), evaluates the derived fluents and events in
dependency order, and computes the maximal intervals of every fluent via the
``initiatedAt`` / ``terminatedAt`` / ``broken`` semantics of Section 4.1.

Fluent intervals still open at a query time persist to the next step (the
law of inertia does not forget with the window: a vessel stopped for six
hours stays ``stopped`` even after its ``stop_start`` event leaves the
window).  A closed interval whose initiation has left the window is gone.

Each step returns exactly what re-deriving the whole window would (the
paper's Section 4.2 algorithm, kept as the oracle in ``tests/rtec/
oracle.py``), but computes it as a *fold over what changed* since the
previous step:

* **Trigger cache.**  Every rule keeps one entry per occurrence
  ``(args, T)`` of its trigger (the first ``happensAt``) in the window:
  the head instances that occurrence produced and the *reads* its body
  made — ``(functor, ground args)``, or ``(functor, None)`` for "every
  instance", at ``T``.
* **Dirty map.**  The step's changes, per functor and instance, as the
  earliest timepoint from which a lookup may now answer differently.  An
  entry is reused unless one of its reads is dirty at or before ``T``;
  only new, vanished and invalidated trigger occurrences run the body.
* **Touched instances.**  Maximal intervals are recomputed only for the
  fluent instances whose initiation/termination points (or persisted open
  interval) changed; persisted opens are indexed per functor.

Exactness rules:

(a) *Newly visible is about arrival.*  A change is an assertion that became
    visible — occurred and arrived by ``Qi`` — since the previous step
    (Figure 5's delayed events); the working memory hands them over in
    :meth:`~repro.rtec.working_memory.WorkingMemory.take_arrivals`.
(b) *Derived outputs are diffed per instance.*  A fluent instance is dirty
    from the first timepoint after ``Qi - omega`` at which its intervals or
    its ``start``/``end`` points differ from the previous step's; a derived
    event from each added or removed ``(args, T)``.  Because the previous
    step's open intervals seed this step's initiations, an instance whose
    persisted open interval changed is re-derived at the next step.
(c) *Forgetting can change a visible value.*  ``forget_before`` keeps only
    the latest pre-horizon assignment of a valued fluent; if that anchor
    has not arrived, an earlier visible value is dropped, and the instance
    is dirty from the window start.
(d) *Broad reads.*  A literal with unbound arguments reads every instance
    of its functor at ``T``.  A rule with a literal on another time
    variable than its trigger's reads outside ``T``: its entries run every
    step.  Computed fluents are recomputed every step and diffed as in
    (b).  Static predicates and guards are pure (``rules.py``).
(e) *Cold start is the same code with empty caches*: on the first step, on
    a query time below the previous one, after ``declare_rules`` /
    ``declare_computed`` / ``declare_outputs``, after the working memory
    is replaced, and after a failed step.
(f) *Demand.*  A step evaluates only the derived functors that a reported
    output depends on, and only their rules hold caches (an undeclared
    kind reports every derived functor of that kind).
    :meth:`RTEC.read_events` names the input events those rules and
    computed fluents read: occurrences of any other event change no
    result, so a feed need not store them.  A functor that enters the
    evaluation late (a wider ``declare_outputs``) starts from the window,
    like a cold start: no interval persisted for it before.
"""

from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro import obs
from repro.rtec.intervals import (
    Interval,
    OPEN,
    holds_at,
    intervals_from_points,
)
from repro.rtec.rules import (
    End,
    EventPattern,
    Guard,
    HappensAt,
    HappensHead,
    HoldsAt,
    InitiatedHead,
    NotHappensAt,
    NotHoldsAt,
    Rule,
    Start,
    StaticJoin,
    TerminatedHead,
)
from repro.rtec.terms import Bindings, Var, bind, unify
from repro.rtec.working_memory import WorkingMemory

#: fluent store layout: functor -> args -> value -> interval list
FluentStore = dict[str, dict[tuple, dict[object, list[Interval]]]]
#: event store layout: functor -> list of (args, time)
EventStore = dict[str, list[tuple[tuple, int]]]


class ComputedFluent:
    """A fluent whose intervals are computed by Python code.

    Subclasses implement aggregate fluents that would need recursive
    counting in pure rules — e.g. ``vesselsStoppedIn(Area)=N``.  They
    declare their dependencies so stratification can order them.
    """

    functor: str = ""
    depends_on_fluents: frozenset[str] = frozenset()
    depends_on_events: frozenset[str] = frozenset()

    def compute(
        self, view: "EngineView"
    ) -> dict[tuple, dict[object, list[Interval]]]:
        """Return ``{args: {value: intervals}}`` for the current window."""
        raise NotImplementedError


@dataclass
class EngineView:
    """Read access to the evaluation state, for computed fluents."""

    window_start: int
    query_time: int
    fluents: FluentStore
    memory: WorkingMemory
    #: functor -> its visible occurrences, in window order
    event_list: Callable[[str], list[tuple[tuple, int]]]

    def fluent_instances(self, functor: str) -> dict[tuple, dict[object, list[Interval]]]:
        """All ground instances of a derived fluent with their intervals."""
        return self.fluents.get(functor, {})

    def value_at(self, functor: str, args: tuple, timepoint: int) -> object | None:
        """Value of an input valued fluent at a timepoint."""
        return self.memory.value_at(functor, args, timepoint, self.query_time)

    def occurrences(self, functor: str) -> list[tuple[tuple, int]]:
        """Event occurrences (args, time) visible in the window."""
        return self.event_list(functor)


@dataclass
class RecognitionResult:
    """Output of one recognition step."""

    query_time: int
    window_start: int
    fluents: FluentStore = field(default_factory=dict)
    events: EventStore = field(default_factory=dict)

    def intervals(
        self, functor: str, args: tuple | None = None, value: object = True
    ) -> list[Interval]:
        """Intervals of one fluent instance (empty when absent)."""
        instances = self.fluents.get(functor, {})
        if args is None:
            merged: list[Interval] = []
            for values in instances.values():
                merged.extend(values.get(value, []))
            return sorted(merged)
        return instances.get(tuple(args), {}).get(value, [])

    def holds_at(
        self, functor: str, args: tuple, timepoint: int, value: object = True
    ) -> bool:
        """Whether a fluent instance holds a value at a timepoint."""
        return holds_at(self.intervals(functor, tuple(args), value), timepoint)

    def occurrences(self, functor: str) -> list[tuple[tuple, int]]:
        """Occurrences of a derived event, as (args, time) pairs."""
        return self.events.get(functor, [])

    def complex_event_count(self) -> int:
        """Total recognized CE instances: intervals plus occurrences."""
        count = sum(
            len(intervals)
            for instances in self.fluents.values()
            for values in instances.values()
            for intervals in values.values()
        )
        count += sum(len(occurrences) for occurrences in self.events.values())
        return count


class RTEC:
    """The Event Calculus run-time engine.

    Parameters
    ----------
    window_seconds:
        The range ``omega`` of the working-memory window.

    Usage::

        engine = RTEC(window_seconds=3600)
        engine.declare_rules(rules)
        engine.working_memory.assert_event("gap", ("vessel1",), 45)
        result = engine.step(query_time=3600)
    """

    def __init__(self, window_seconds: int):
        if window_seconds <= 0:
            raise ValueError(f"window range must be positive: {window_seconds}")
        self.window_seconds = window_seconds
        self.working_memory = WorkingMemory()
        self._initiation_rules: dict[str, list[Rule]] = defaultdict(list)
        self._termination_rules: dict[str, list[Rule]] = defaultdict(list)
        self._event_rules: dict[str, list[Rule]] = defaultdict(list)
        self._computed: dict[str, ComputedFluent] = {}
        # None until declared: an undeclared kind reports everything.
        self._outputs_fluents: set[str] | None = None
        self._outputs_events: set[str] | None = None
        # Open intervals persisted across steps: functor -> args -> value -> ts
        self._persisted_open: dict[str, dict[tuple, dict[object, int]]] = {}
        self._order: list[str] | None = None
        self._read_events: frozenset[str] = frozenset()
        # The incremental state; None means the next step cold-starts.
        self._fold: _Fold | None = None
        self.last_result: RecognitionResult | None = None

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------

    def declare_rules(self, rules: list[Rule]) -> None:
        """Register rules; invalidates the cached evaluation order."""
        for rule in rules:
            head = rule.head
            if isinstance(head, InitiatedHead):
                self._initiation_rules[head.fluent].append(rule)
            elif isinstance(head, TerminatedHead):
                self._termination_rules[head.fluent].append(rule)
            elif isinstance(head, HappensHead):
                self._event_rules[head.event].append(rule)
            else:
                raise TypeError(f"unknown head type: {head!r}")
        self._order = None
        self._fold = None

    def declare_computed(self, computed: ComputedFluent) -> None:
        """Register a Python-computed fluent."""
        if not computed.functor:
            raise ValueError("computed fluent must set a functor name")
        self._computed[computed.functor] = computed
        self._order = None
        self._fold = None

    def declare_outputs(
        self, fluents: list[str] | None = None, events: list[str] | None = None
    ) -> None:
        """Name the CE fluents/events reported in recognition results.

        Without a declaration (``None``), every derived fluent or event
        is reported; a list, even an empty one, is the declaration.
        """
        if fluents is not None:
            self._outputs_fluents = (self._outputs_fluents or set()) | set(fluents)
        if events is not None:
            self._outputs_events = (self._outputs_events or set()) | set(events)
        self._order = None
        self._fold = None

    def read_events(self) -> frozenset[str]:
        """The input event functors recognition reads (rule (f)): those a
        rule or computed fluent of the evaluation order reads, and the
        reported events, whose input occurrences a result lists too."""
        self._evaluation_order()
        return self._read_events

    # ------------------------------------------------------------------
    # recognition
    # ------------------------------------------------------------------

    def step(self, query_time: int) -> RecognitionResult:
        """Run recognition at a query time; returns the recognized CEs."""
        with obs.span("rtec.step"):
            return self._step(query_time)

    def _step(self, query_time: int) -> RecognitionResult:
        window_start = query_time - self.window_seconds
        order = self._evaluation_order()
        fold = self._fold
        # Invalid until the step completes: a failed step cold-starts the next.
        self._fold = None
        with obs.span("rtec.windowing"):
            self.working_memory.forget_before(window_start)
            if (
                fold is None
                or query_time < fold.query_time
                or fold.memory is not self.working_memory
            ):
                fold = _Fold(self)
            fold.begin(window_start, query_time)
        obs.count("rtec.input_events", fold.input_count)

        with obs.span("rtec.evaluation"):
            for functor in order:
                if functor in self._computed:
                    fold.compute(functor, self._computed[functor])
                elif functor in self._event_rules:
                    fold.derive_event(functor)
                else:
                    fold.derive_fluent(functor)
        obs.count("rtec.steps")
        obs.count("rtec.triggers_evaluated", fold.evaluated)
        obs.count("rtec.triggers_reused", fold.reused)

        result = RecognitionResult(query_time, window_start)
        report_fluents, report_events = self._reported()
        result.fluents = {
            functor: dict(fold.fluents[functor])
            for functor in report_fluents
            if functor in fold.fluents
        }
        for functor in report_events:
            occurrences = fold.event_list(functor)
            if occurrences:
                result.events[functor] = occurrences
        self._fold = fold
        self.last_result = result
        return result

    def run_retrospective(
        self, slide_seconds: int, until: int, from_time: int = 0
    ) -> list[RecognitionResult]:
        """Replay recognition over already-asserted history (Section 4.2).

        "CE recognition may be performed retrospectively — e.g., at the end
        of each day in order to evaluate the activity of a particular fleet
        of vessels."  Steps the engine at every multiple of the slide in
        ``(from_time, until]`` and returns the per-query results.  Assert
        the whole day's events into the working memory first.
        """
        if slide_seconds <= 0:
            raise ValueError(f"slide must be positive: {slide_seconds}")
        results = []
        query_time = from_time + slide_seconds
        while query_time <= until:
            results.append(self.step(query_time))
            query_time += slide_seconds
        return results

    # ------------------------------------------------------------------
    # stratification
    # ------------------------------------------------------------------

    def _reported(self) -> tuple[set[str], set[str]]:
        """The fluents and events a result reports: the declared ones, or
        every derived one of an undeclared kind."""
        fluents = self._outputs_fluents
        if fluents is None:
            fluents = set(self._initiation_rules) | set(self._computed)
        events = self._outputs_events
        if events is None:
            events = set(self._event_rules)
        return fluents, events

    def _evaluation_order(self) -> list[str]:
        """The derived fluents/events that a reported functor depends on,
        in dependency order (rule (f)); settles :meth:`read_events`."""
        if self._order is not None:
            return self._order
        # functor -> the functors its rules read, and the plain events among them
        dependencies: dict[str, set[str]] = defaultdict(set)
        events_read: dict[str, set[str]] = defaultdict(set)
        for table in (self._initiation_rules, self._termination_rules, self._event_rules):
            for functor, rules in table.items():
                for rule in rules:
                    events = rule.referenced_events()
                    dependencies[functor] |= rule.referenced_fluents() | events
                    events_read[functor] |= events
        for functor, computed in self._computed.items():
            dependencies[functor] |= set(computed.depends_on_fluents)
            dependencies[functor] |= set(computed.depends_on_events)
            events_read[functor] |= set(computed.depends_on_events)
        nodes = set(dependencies)
        for reads in dependencies.values():
            reads &= nodes

        order: list[str] = []
        visiting: set[str] = set()
        visited: set[str] = set()

        def visit(node: str) -> None:
            if node in visited:
                return
            if node in visiting:
                raise ValueError(
                    f"cyclic fluent dependency through {node!r}; "
                    "RTEC event descriptions must be hierarchical"
                )
            visiting.add(node)
            for dependency in sorted(dependencies[node]):
                visit(dependency)
            visiting.discard(node)
            visited.add(node)
            order.append(node)

        # Every node is visited, so a cycle is rejected even where no
        # output reaches it; only what an output reaches is evaluated.
        for node in sorted(dependencies):
            visit(node)
        report_fluents, report_events = self._reported()
        needed: set[str] = set()
        pending = [node for node in report_fluents | report_events if node in dependencies]
        while pending:
            node = pending.pop()
            if node not in needed:
                needed.add(node)
                pending.extend(dependencies[node])
        self._order = [node for node in order if node in needed]
        self._read_events = frozenset(
            report_events.union(*(events_read[node] for node in self._order))
        )
        # A functor that leaves the evaluation keeps no persisted interval
        # to resume from stale if a later declaration brings it back.
        for functor in self._persisted_open.keys() - needed:
            del self._persisted_open[functor]
        return self._order


# ----------------------------------------------------------------------
# the incremental state
# ----------------------------------------------------------------------


class _RuleCache:
    """One rule's trigger cache: an entry per trigger occurrence in the window."""

    __slots__ = (
        "rule", "pattern", "time_variable", "body", "volatile",
        "read_functors", "entries", "by_time", "times", "readers", "added",
        "removed",
    )

    def __init__(self, rule: Rule):
        trigger = rule.body[0]
        self.rule = rule
        self.pattern = trigger.pattern
        self.time_variable = trigger.time_variable
        self.body = rule.body[1:]
        # Rule (d): a literal on another time variable reads outside T.
        self.volatile = any(
            getattr(literal, "time_variable", self.time_variable)
            != self.time_variable
            for literal in self.body
        )
        self.read_functors = {
            _functor_of(literal) for literal in self.body
        } - {None}
        #: (args, T) -> (heads, reads)
        self.entries: dict[tuple, tuple[tuple, tuple]] = {}
        #: T -> keys of the entries triggered at T
        self.by_time: dict[int, list[tuple]] = {}
        self.times: list[int] = []
        #: functor -> args (None: every instance) -> keys of entries reading it
        self.readers: dict[str, dict[tuple | None, list[tuple]]] = {}
        #: trigger occurrences that appeared / vanished this step
        self.added: set[tuple] = set()
        self.removed: set[tuple] = set()

    def bindings(self, key: tuple) -> Bindings | None:
        """The bindings of one trigger occurrence ``(args, T)``, or None if
        its arguments do not match the trigger's."""
        args, time = key
        bindings = unify(self.pattern.args, args, {})
        if bindings is not None:
            bindings[self.time_variable] = time
        return bindings


def _functor_of(literal) -> str | None:
    if isinstance(literal, (HappensAt, NotHappensAt)):
        pattern = literal.pattern
        return pattern.functor if isinstance(pattern, EventPattern) else pattern.fluent
    if isinstance(literal, (HoldsAt, NotHoldsAt)):
        return literal.fluent
    return None


class _Fold:
    """Everything the engine carries from one step to the next, and the
    code that folds a step's changes into it."""

    def __init__(self, engine: RTEC):
        self.engine = engine
        self.memory = engine.working_memory
        self.query_time: int | None = None
        self.window_start = 0
        #: previous query time (None on a cold step)
        self.previous_query: int | None = None
        # Rule (f): only the evaluated functors' rules hold caches.
        needed = set(engine._evaluation_order())
        #: head functor -> one cache per rule, in declaration order
        self.initiation = {
            functor: [_RuleCache(rule) for rule in rules]
            for functor, rules in engine._initiation_rules.items()
            if functor in needed
        }
        self.termination = {
            functor: [_RuleCache(rule) for rule in rules]
            for functor, rules in engine._termination_rules.items()
            if functor in needed
        }
        self.happening = {
            functor: [_RuleCache(rule) for rule in rules]
            for functor, rules in engine._event_rules.items()
            if functor in needed
        }
        # Trigger routing: functor -> caches triggered by it.
        self.on_event: dict[str, list[_RuleCache]] = defaultdict(list)
        self.on_start: dict[str, list[_RuleCache]] = defaultdict(list)
        self.on_end: dict[str, list[_RuleCache]] = defaultdict(list)
        for table in (self.initiation, self.termination, self.happening):
            for caches in table.values():
                for cache in caches:
                    pattern = cache.pattern
                    if isinstance(pattern, EventPattern):
                        self.on_event[pattern.functor].append(cache)
                    elif isinstance(pattern, Start):
                        self.on_start[pattern.fluent].append(cache)
                    else:
                        self.on_end[pattern.fluent].append(cache)
        #: functors some rule body reads: only their changes need marking
        self.read = {
            functor
            for table in (self.initiation, self.termination, self.happening)
            for caches in table.values()
            for cache in caches
            for functor in cache.read_functors
        }
        #: visible input events in the window
        self.input_count = 0
        # Derived events: functor -> T -> args -> producing entries.
        self.derived: dict[str, dict[int, dict[tuple, int]]] = defaultdict(dict)
        self.derived_lists: dict[str, list[tuple[tuple, int]]] = {}
        # Derived fluents (this step's, once evaluated).
        self.fluents: FluentStore = {}
        # Fluent points: functor -> args -> (inits, terms), each
        # value -> T -> producing entries.
        self.points: dict[str, dict[tuple, tuple[dict, dict]]] = defaultdict(dict)
        #: functor -> instances whose persisted open interval changed
        self.persist_changed: dict[str, set[tuple]] = {}
        #: functor -> instances with a start/end point after the query time
        self.future: dict[str, set[tuple]] = {}
        # Per-step state.
        self.dirty: dict[str, dict[tuple, int]] = {}
        self.dirty_any: dict[str, int] = {}
        self.event_lists: dict[str, list[tuple[tuple, int]]] = {}
        self.evaluated = 0
        self.reused = 0

    # -- step prologue: window and arrivals -------------------------------

    def begin(self, window_start: int, query_time: int) -> None:
        cold = self.query_time is None
        self.previous_query = self.query_time
        self.query_time = query_time
        self.window_start = window_start
        self.dirty = {}
        self.dirty_any = {}
        self.event_lists = {}
        self.evaluated = self.reused = 0
        memory = self.memory
        events, values = memory.take_arrivals(query_time)
        self.input_count = memory.visible_count()
        if cold:
            events = [
                occurrence
                for functor in memory.event_functors()
                if functor in self.on_event
                for occurrence in memory.events_in_window(
                    functor, window_start, query_time
                )
            ]
        for occurrence in events:
            if occurrence.time > window_start:
                self._event_changed(
                    occurrence.functor, occurrence.args, occurrence.time, True
                )
        if not cold:
            for functor, args, time in values:
                self._mark(functor, args, time)

    def _mark(self, functor: str, args: tuple, time: int) -> None:
        """Record in the dirty map that ``functor(args)`` changed from ``time``."""
        if functor not in self.read:
            return
        instances = self.dirty.get(functor)
        if instances is None:
            instances = self.dirty[functor] = {}
        if time < instances.get(args, time + 1):
            instances[args] = time
        if time < self.dirty_any.get(functor, time + 1):
            self.dirty_any[functor] = time

    def _event_changed(self, functor: str, args: tuple, time: int, present: bool) -> None:
        """An occurrence became visible or vanished: dirty it, route triggers."""
        self._mark(functor, args, time)
        key = (args, time)
        for cache in self.on_event.get(functor, ()):
            if present:
                cache.added.add(key)
                cache.removed.discard(key)
            else:
                cache.removed.add(key)
                cache.added.discard(key)

    # -- rules -------------------------------------------------------------

    def _run(self, cache: _RuleCache, apply: Callable) -> None:
        """Bring one rule's cache up to date; ``apply(T, gone, new, evicted)``
        receives every change of the heads it produces."""
        window_start = self.window_start
        entries = cache.entries
        times = cache.times
        while times and times[0] <= window_start:
            for key in cache.by_time.pop(heappop(times)):
                self._drop(cache, key, apply, evicted=True)
        for key in cache.removed:
            self._drop(cache, key, apply, evicted=False)
        todo = {key for key in cache.added if key not in entries}
        cache.added = set()
        cache.removed = set()
        if cache.volatile:
            todo.update(entries)
        else:
            self._invalidated(cache, todo)
        evaluated = self._evaluate(cache, todo)
        for key, (heads, reads) in evaluated.items():
            old = entries.get(key)
            if old is None:
                old_heads: tuple = ()
                time = key[1]
                due = cache.by_time.get(time)
                if due is None:
                    cache.by_time[time] = [key]
                    heappush(times, time)
                else:
                    due.append(key)
                _register(cache, key, reads)
            else:
                old_heads, old_reads = old
                if old_reads != reads:
                    _unregister(cache, key, old_reads)
                    _register(cache, key, reads)
            entries[key] = (heads, reads)
            if heads != old_heads:
                gone = [head for head in old_heads if head not in heads]
                new = [head for head in heads if head not in old_heads]
                if gone or new:
                    apply(key[1], gone, new, False)
        self.evaluated += len(evaluated)
        self.reused += len(entries) - len(evaluated)

    def _drop(self, cache: _RuleCache, key: tuple, apply: Callable, evicted: bool) -> None:
        entry = cache.entries.pop(key, None)
        if entry is None:
            return
        heads, reads = entry
        _unregister(cache, key, reads)
        if heads:
            apply(key[1], heads, (), evicted)

    def _invalidated(self, cache: _RuleCache, todo: set) -> None:
        """Add the keys of entries with a read dirty at or before their T."""
        for functor in cache.read_functors:
            readers = cache.readers.get(functor)
            if not readers:
                continue
            for args, since in self.dirty.get(functor, {}).items():
                keys = readers.get(args)
                if keys:
                    todo.update(key for key in keys if key[1] >= since)
            since = self.dirty_any.get(functor)
            if since is not None:
                keys = readers.get(None)
                if keys:
                    todo.update(key for key in keys if key[1] >= since)

    # -- derived events ------------------------------------------------------

    def derive_event(self, functor: str) -> None:
        by_time = self.derived[functor]
        seen: dict[tuple, bool] = {}
        changed = False

        def apply(time, gone, new, evicted):
            nonlocal changed
            changed = True
            bucket = by_time.get(time)
            if bucket is None:
                bucket = by_time[time] = {}
            for args in gone:
                if not evicted:
                    seen.setdefault((args, time), True)
                count = bucket[args] - 1
                if count:
                    bucket[args] = count
                else:
                    del bucket[args]
            for args in new:
                seen.setdefault((args, time), args in bucket)
                bucket[args] = bucket.get(args, 0) + 1
            if not bucket:
                del by_time[time]

        for cache in self.happening[functor]:
            self._run(cache, apply)
        if changed:
            self.derived_lists.pop(functor, None)
        arrived_at = self.memory.arrived_at
        for (args, time), before in seen.items():
            after = args in by_time.get(time, ())
            if before != after and args not in arrived_at(functor, time, self.query_time):
                self._event_changed(functor, args, time, after)

    def event_list(self, functor: str) -> list[tuple[tuple, int]]:
        """A functor's visible occurrences as the from-scratch store lists
        them: input occurrences in memory order, then derived ones in
        ``(T, args)`` order, stably sorted by time."""
        occurrences = self.event_lists.get(functor)
        if occurrences is not None:
            return occurrences
        derived = self.derived_lists.get(functor)
        if derived is None:
            derived = sorted(
                (
                    (args, time)
                    for time, bucket in self.derived.get(functor, {}).items()
                    for args in bucket
                ),
                key=lambda item: (item[1], item[0]),
            )
            self.derived_lists[functor] = derived
        occurrences = [
            (occurrence.args, occurrence.time)
            for occurrence in self.memory.events_in_window(
                functor, self.window_start, self.query_time
            )
        ]
        if not occurrences:
            occurrences = derived
        elif derived:
            occurrences.extend(derived)
            occurrences.sort(key=lambda item: item[1])
        self.event_lists[functor] = occurrences
        return occurrences

    # -- derived fluents -----------------------------------------------------

    def derive_fluent(self, functor: str) -> None:
        engine = self.engine
        table = self.points[functor]
        touched: set[tuple] = set()
        if self.previous_query is None:
            touched.update(engine._persisted_open.get(functor, ()))
        else:
            touched.update(self.persist_changed.get(functor, ()))

        def apply_to(side: int) -> Callable:
            def apply(time, gone, new, evicted):
                for args, value in gone:
                    by_value = table[args][side]
                    counts = by_value[value]
                    count = counts[time] - 1
                    if count:
                        counts[time] = count
                    else:
                        del counts[time]
                        if not counts:
                            del by_value[value]
                            if not table[args][0] and not table[args][1]:
                                del table[args]
                    touched.add(args)
                for args, value in new:
                    sides = table.get(args)
                    if sides is None:
                        sides = table[args] = ({}, {})
                    counts = sides[side].get(value)
                    if counts is None:
                        counts = sides[side][value] = {}
                    counts[time] = counts.get(time, 0) + 1
                    touched.add(args)

            return apply

        initiate, terminate = apply_to(0), apply_to(1)
        for cache in self.initiation.get(functor, ()):
            self._run(cache, initiate)
        for cache in self.termination.get(functor, ()):
            self._run(cache, terminate)

        store = self.fluents.get(functor)
        if store is None:
            store = self.fluents[functor] = {}
        future = self.future.pop(functor, set())
        persisted = engine._persisted_open.setdefault(functor, {})
        changed_persistence: set[tuple] = set()
        for args in touched:
            sides = table.get(args)
            initiations = (
                {value: list(counts) for value, counts in sides[0].items()}
                if sides else {}
            )
            for value, ts in persisted.get(args, {}).items():
                initiations.setdefault(value, []).append(ts)
            terminations = sides[1] if sides else {}
            value_intervals = _instance_intervals(initiations, terminations)
            old = store.get(args)
            if value_intervals:
                store[args] = value_intervals
            elif old is not None:
                del store[args]
            opens = {
                value: intervals[-1][0]
                for value, intervals in value_intervals.items()
                if intervals[-1][1] == OPEN
            }
            if opens != persisted.get(args, {}):
                changed_persistence.add(args)
                if opens:
                    persisted[args] = opens
                else:
                    del persisted[args]
            self._settle(functor, args, old, value_intervals or None, future)
        for args in future - touched:
            current = store.get(args)
            self._settle(functor, args, current, current, future)
        self.persist_changed[functor] = changed_persistence
        self._keep_future(functor, store, touched | future)

    def compute(self, functor: str, computed: ComputedFluent) -> None:
        view = EngineView(
            self.window_start, self.query_time, self.fluents, self.memory,
            self.event_list,
        )
        new = computed.compute(view)
        old = self.fluents.get(functor, {})
        self.fluents[functor] = new
        future = self.future.pop(functor, set())
        for args in old.keys() | new.keys():
            self._settle(functor, args, old.get(args), new.get(args), future)
        self._keep_future(functor, new, new)

    def _settle(self, functor, args, old, new, future: set) -> None:
        """Publish one instance's new intervals: dirty it from its first
        difference (rule (b)) and re-derive its start/end triggers when
        they may have changed."""
        since = None
        if old != new:
            since = _first_difference(old or {}, new or {}, self.window_start)
            if since is not None:
                self._mark(functor, args, since)
        if since is None and args not in future:
            return
        low = self.window_start
        before_high = self.previous_query if self.previous_query is not None else low
        for caches, kind in ((self.on_start.get(functor), 0), (self.on_end.get(functor), 1)):
            for cache in caches or ():
                value_pattern = cache.pattern.value
                before = _trigger_points(old, kind, value_pattern, low, before_high)
                after = _trigger_points(new, kind, value_pattern, low, self.query_time)
                for time in after - before:
                    cache.added.add((args, time))
                    cache.removed.discard((args, time))
                for time in before - after:
                    cache.removed.add((args, time))
                    cache.added.discard((args, time))

    def _keep_future(self, functor: str, store, candidates) -> None:
        """Remember the instances with a start/end point after the query
        time: it enters the window at a later step without the intervals
        changing (a computed fluent, or an interval persisted at a query
        time above this one)."""
        if functor not in self.on_start and functor not in self.on_end:
            return
        query_time = self.query_time
        self.future[functor] = {
            args
            for args in candidates
            if any(
                ts > query_time or query_time < tf < OPEN
                for intervals in store.get(args, {}).values()
                for ts, tf in intervals
            )
        }

    # -- body evaluation -----------------------------------------------------

    def _evaluate(
        self, cache: _RuleCache, keys: set[tuple]
    ) -> dict[tuple, tuple[tuple, tuple]]:
        """Run the body for a set of trigger occurrences, all at once, and
        return the distinct heads and reads of each one that matches the
        trigger.  Every binding carries the occurrence it descends from
        under :data:`_TRIGGER`."""
        solutions = []
        matched = []
        for key in keys:
            bindings = cache.bindings(key)
            if bindings is not None:
                bindings[_TRIGGER] = key
                solutions.append(bindings)
                matched.append(key)
        reads = None if cache.volatile else {key: {} for key in matched}
        for literal in cache.body:
            if not solutions:
                break
            solutions = self._solve(literal, solutions, reads)
        heads: dict[tuple, dict] = {key: {} for key in matched}
        head = cache.rule.head
        if isinstance(head, HappensHead):
            for solution in solutions:
                heads[solution[_TRIGGER]][bind(head.args, solution)] = None
        else:
            for solution in solutions:
                heads[solution[_TRIGGER]][
                    (bind(head.args, solution), bind(head.value, solution))
                ] = None
        return {
            key: (tuple(heads[key]), tuple(reads[key]) if reads else ())
            for key in matched
        }

    def _solve(self, literal, solutions: list[Bindings], reads) -> list[Bindings]:
        if isinstance(literal, HappensAt):
            return self._solve_happens(literal, solutions, reads)
        if isinstance(literal, HoldsAt):
            return self._solve_holds(literal, solutions, reads)
        if isinstance(literal, NotHappensAt):
            return [
                bindings
                for bindings in solutions
                if not self._happens(literal, bindings, reads)
            ]
        if isinstance(literal, NotHoldsAt):
            positive = HoldsAt(
                literal.fluent, literal.args, literal.value, literal.time_variable
            )
            return [
                bindings
                for bindings in solutions
                if not self._solve_holds(positive, [bindings], reads)
            ]
        if isinstance(literal, StaticJoin):
            return _solve_static(literal, solutions)
        if isinstance(literal, Guard):
            return [
                bindings
                for bindings in solutions
                if literal.test(*(bindings[name] for name in literal.variables))
            ]
        raise TypeError(f"unknown body literal: {literal!r}")

    def _solve_happens(self, literal: HappensAt, solutions, reads) -> list[Bindings]:
        pattern = literal.pattern
        time_variable = literal.time_variable
        functor = _functor_of(literal)
        extended: list[Bindings] = []
        for bindings in solutions:
            time = bindings.get(time_variable)
            if time is None:
                # Only in volatile rules: enumerate the whole window.
                for args, timepoint in self._all_occurrences(pattern):
                    unified = unify(pattern.args, args, bindings)
                    if unified is not None:
                        unified = dict(unified)
                        unified[time_variable] = timepoint
                        extended.append(unified)
                continue
            ground = _ground(pattern.args, bindings)
            if reads is not None:
                reads[bindings[_TRIGGER]][functor, ground] = None
            if ground is not None:
                if self._occurs(pattern, ground, time):
                    extended.append(bindings)
                continue
            for args in self._occurring_at(pattern, time):
                unified = unify(pattern.args, args, bindings)
                if unified is not None:
                    extended.append(unified)
        return extended

    def _happens(self, literal: NotHappensAt, bindings: Bindings, reads) -> bool:
        time = bindings.get(literal.time_variable)
        if time is None:
            raise ValueError(
                "NotHappensAt reached with unbound time variable "
                f"{literal.time_variable!r}; negation must follow the "
                "trigger that binds it"
            )
        pattern = literal.pattern
        ground = _ground(pattern.args, bindings)
        if reads is not None:
            reads[bindings[_TRIGGER]][_functor_of(literal), ground] = None
        if ground is not None:
            return self._occurs(pattern, ground, time)
        return any(
            unify(pattern.args, args, bindings) is not None
            for args in self._occurring_at(pattern, time)
        )

    def _occurs(self, pattern, args: tuple, time: int) -> bool:
        if not self.window_start < time <= self.query_time:
            return False
        if isinstance(pattern, EventPattern):
            functor = pattern.functor
            return args in self.derived.get(functor, {}).get(time, ()) or (
                args in self.memory.arrived_at(functor, time, self.query_time)
            )
        value_intervals = self.fluents.get(pattern.fluent, {}).get(args)
        return bool(value_intervals) and _has_point(
            value_intervals, isinstance(pattern, End), pattern.value, time
        )

    def _occurring_at(self, pattern, time: int):
        if not self.window_start < time <= self.query_time:
            return ()
        if isinstance(pattern, EventPattern):
            functor = pattern.functor
            inputs = self.memory.arrived_at(functor, time, self.query_time)
            derived = self.derived.get(functor, {}).get(time)
            if not derived:
                return dict.fromkeys(inputs)
            return dict.fromkeys([*inputs, *derived])
        end = isinstance(pattern, End)
        return [
            args
            for args, value_intervals in self.fluents.get(pattern.fluent, {}).items()
            if _has_point(value_intervals, end, pattern.value, time)
        ]

    def _all_occurrences(self, pattern) -> list[tuple[tuple, int]]:
        if isinstance(pattern, EventPattern):
            return list(dict.fromkeys(self.event_list(pattern.functor)))
        kind = 1 if isinstance(pattern, End) else 0
        return [
            (args, time)
            for args, value_intervals in self.fluents.get(pattern.fluent, {}).items()
            for time in sorted(
                _trigger_points(
                    value_intervals, kind, pattern.value,
                    self.window_start, self.query_time,
                )
            )
        ]

    def _solve_holds(self, literal: HoldsAt, solutions, reads) -> list[Bindings]:
        derived = self.fluents.get(literal.fluent)
        extended: list[Bindings] = []
        for bindings in solutions:
            time = bindings.get(literal.time_variable)
            if time is None:
                raise ValueError(
                    f"holdsAt({literal.fluent}) reached with unbound time "
                    f"variable {literal.time_variable!r}; order the body so a "
                    "happensAt trigger binds it first"
                )
            ground = _ground(literal.args, bindings)
            if reads is not None:
                reads[bindings[_TRIGGER]][literal.fluent, ground] = None
            if derived is not None:
                if ground is not None:
                    value_intervals = derived.get(ground)
                    instances = [(ground, value_intervals)] if value_intervals else []
                else:
                    instances = derived.items()
                for args, value_intervals in instances:
                    unified_args = unify(literal.args, args, bindings)
                    if unified_args is None:
                        continue
                    for value, intervals in value_intervals.items():
                        unified = unify(literal.value, value, unified_args)
                        if unified is not None and holds_at(intervals, time):
                            extended.append(unified)
                continue
            memory = self.memory
            if ground is not None:
                candidates = [ground]
            else:
                candidates = [
                    args
                    for args in memory.valued_instances(literal.fluent)
                    if unify(literal.args, args, bindings) is not None
                ]
            for args in candidates:
                value = memory.value_at(literal.fluent, args, time, self.query_time)
                if value is None:
                    continue
                unified = bindings if ground is not None else unify(
                    literal.args, args, bindings
                )
                if unified is None:
                    continue
                unified = unify(literal.value, value, unified)
                if unified is not None:
                    extended.append(unified)
        return extended


#: The binding naming the trigger occurrence a solution descends from (no
#: rule variable can be spelled this way).
_TRIGGER = "\x00trigger"


def _register(cache: _RuleCache, key: tuple, reads: tuple) -> None:
    for functor, args in reads:
        by_args = cache.readers.get(functor)
        if by_args is None:
            by_args = cache.readers[functor] = {}
        keys = by_args.get(args)
        if keys is None:
            by_args[args] = [key]
        else:
            keys.append(key)


def _unregister(cache: _RuleCache, key: tuple, reads: tuple) -> None:
    for functor, args in reads:
        by_args = cache.readers[functor]
        keys = by_args[args]
        keys.remove(key)
        if not keys:
            del by_args[args]


def _ground(pattern: tuple, bindings: Bindings) -> tuple | None:
    """The pattern instantiated under the bindings, or None if a variable
    is unbound."""
    ground = []
    for item in pattern:
        if isinstance(item, Var):
            if item.name not in bindings:
                return None
            ground.append(bindings[item.name])
        elif isinstance(item, tuple):
            item = _ground(item, bindings)
            if item is None:
                return None
            ground.append(item)
        else:
            ground.append(item)
    return tuple(ground)


def _has_point(value_intervals, end: bool, value_pattern, time: int) -> bool:
    """Whether a start (end) point of a value unifying the pattern is at time."""
    for value, intervals in value_intervals.items():
        if unify(value_pattern, value, {}) is None:
            continue
        for ts, tf in intervals:
            if (tf if end else ts) == time:
                return True
    return False


def _trigger_points(value_intervals, kind: int, value_pattern, low, high) -> set[int]:
    """Start (kind 0) or end (kind 1) points in ``(low, high]`` of the
    values unifying the pattern."""
    points: set[int] = set()
    for value, intervals in (value_intervals or {}).items():
        if unify(value_pattern, value, {}) is None:
            continue
        for interval in intervals:
            point = interval[kind]
            if point != OPEN and low < point <= high:
                points.add(int(point))
    return points


def _instance_intervals(
    initiations: dict[object, list[int]], terminations: dict[object, dict | list]
) -> dict[object, list[Interval]]:
    """Maximal intervals of one fluent instance; initiating any other value
    breaks a value (rule (2))."""
    value_intervals: dict[object, list[Interval]] = {}
    for value, inits in initiations.items():
        breaks = list(terminations.get(value, ()))
        if len(initiations) > 1:
            for other_value, other_inits in initiations.items():
                if other_value != value:
                    breaks.extend(other_inits)
        intervals = intervals_from_points(inits, breaks)
        if intervals:
            value_intervals[value] = intervals
    return value_intervals


def _first_difference(old, new, low: int) -> int | None:
    """First timepoint after ``low`` from which holdsAt, start or end of two
    versions of an instance may differ: the earliest start or end point
    after clipping both to ``(low, ...)`` that only one of them has."""
    first = None
    for value in old.keys() | new.keys():
        before, after = old.get(value, []), new.get(value, [])
        if before == after:
            continue
        points = _clipped_points(before, low) ^ _clipped_points(after, low)
        if points:
            since = min(points)[0]
            if first is None or since < first:
                first = since
    return first


def _clipped_points(intervals: list[Interval], low: int) -> set[tuple[int, int]]:
    points = set()
    for ts, tf in intervals:
        if tf > low:
            points.add((max(ts, low), 0))
            if tf != OPEN:
                points.add((tf, 1))
    return points


def _solve_static(literal: StaticJoin, solutions: list[Bindings]) -> list[Bindings]:
    extended: list[Bindings] = []
    for bindings in solutions:
        try:
            inputs = [bindings[name] for name in literal.inputs]
        except KeyError as exc:
            raise ValueError(
                f"static predicate {literal.name!r} reached with unbound "
                f"input variable {exc.args[0]!r}"
            ) from exc
        result = literal.predicate(*inputs)
        if not literal.outputs:
            if isinstance(result, bool):
                truthy = result
            elif hasattr(result, "__iter__"):
                truthy = any(True for _ in result)
            else:
                truthy = bool(result)
            if truthy:
                extended.append(bindings)
            continue
        for row in result:
            row_tuple = row if isinstance(row, tuple) else (row,)
            if len(row_tuple) != len(literal.outputs):
                raise ValueError(
                    f"static predicate {literal.name!r} yielded a row of "
                    f"width {len(row_tuple)}, expected {len(literal.outputs)}"
                )
            current = dict(bindings)
            consistent = True
            for name, value in zip(literal.outputs, row_tuple):
                if name in current:
                    if current[name] != value:
                        consistent = False
                        break
                else:
                    current[name] = value
            if consistent:
                extended.append(current)
    return extended
