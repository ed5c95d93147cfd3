"""The incremental engine against the from-scratch oracle, step by step.

:class:`~tests.rtec.oracle.OracleRTEC` re-derives the whole window at
every query time (the paper's Section 4.2 algorithm); the shipped
:class:`~repro.rtec.engine.RTEC` folds each step's changes into what the
previous steps derived.  Both must return identical
``RecognitionResult.fluents`` and ``.events`` after every step, on:

* generated rule sets and streams covering the engine's exactness rules —
  delayed and future arrivals across window boundaries (a), per-instance
  diffs of fluents and derived events including persisted open intervals
  (b), a forget anchor that has not arrived (c), broad reads, a second
  time variable and a computed fluent (d), and repeated / decreasing query
  times and snapshot/restore, which cold-start (e);
* the maritime rule sets over the ``recognition_replay`` fleet;
* a checkpoint taken mid-stream.
"""

import dataclasses
import pickle
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtec.engine import RTEC, ComputedFluent
from repro.rtec.intervals import OPEN
from repro.rtec.rules import (
    End,
    EventPattern,
    Guard,
    HappensAt,
    HoldsAt,
    NotHappensAt,
    NotHoldsAt,
    Start,
    StaticJoin,
    happens_head,
    initiated,
    terminated,
)
from repro.rtec.terms import Var
from repro.rtec.working_memory import WorkingMemory
from tests.maritime.spatial_facts import use_spatial_facts
from tests.rtec.fleet import (
    RECOGNITION_REPLAY,
    recognition_fleet,
    replay,
    system_for,
)
from tests.rtec.oracle import OracleRTEC

V = Var("V")
O = Var("O")
X = Var("X")
N = Var("N")


class HoldingCount(ComputedFluent):
    """``holding()=N``: how many instances of ``f`` hold, as a step function
    starting at the window's leading edge (the shape of the maritime
    ``vesselsStoppedIn`` counter)."""

    functor = "holding"
    depends_on_fluents = frozenset({"f"})

    def compute(self, view):
        deltas: dict[int, int] = defaultdict(int)
        for value_intervals in view.fluent_instances("f").values():
            for ts, tf in value_intervals.get(True, []):
                deltas[ts] += 1
                if tf != OPEN:
                    deltas[int(tf)] -= 1
        intervals: dict[object, list] = defaultdict(list)
        count, previous = 0, view.window_start
        for time, delta in sorted(deltas.items()):
            if time > previous:
                intervals[count].append((previous, time))
            count += delta
            previous = max(previous, time)
        intervals[count].append((previous, OPEN))
        return {(): dict(intervals)}


def _even(value):
    return value % 2 == 0


#: Rule templates; a generated rule set is any subset of them.
TEMPLATES = {
    # boolean fluent from input events
    "f+": initiated("f", (V,), True, [HappensAt(EventPattern("e1", (V,)))]),
    "f-": terminated("f", (V,), True, [HappensAt(EventPattern("e2", (V,)))]),
    # multi-valued fluent, value read from a valued input fluent
    "g+": initiated(
        "g", (V,), X,
        [HappensAt(EventPattern("e3", (V,))), HoldsAt("pos", (V,), X)],
    ),
    "g-": terminated(
        "g", (V,), X,
        [HappensAt(EventPattern("e2", (V,))), HoldsAt("pos", (V,), X)],
    ),
    # start/end triggers and negated fluent lookup
    "h+": initiated(
        "h", (V,), True,
        [HappensAt(Start("f", (V,), True)), NotHoldsAt("g", (V,), 0)],
    ),
    "h-": terminated("h", (V,), True, [HappensAt(End("f", (V,), True))]),
    # derived event with negated event and fluent lookup
    "d1": happens_head(
        "d1", (V,),
        [
            HappensAt(EventPattern("e3", (V,))),
            NotHappensAt(EventPattern("e1", (V,))),
            HoldsAt("f", (V,), True),
        ],
    ),
    # start of any value of the multi-valued fluent
    "d2": happens_head("d2", (V,), [HappensAt(Start("g", (V,), X))]),
    # a second time variable: volatile
    "late": happens_head(
        "late", (V,),
        [
            HappensAt(EventPattern("e1", (V,))),
            HappensAt(EventPattern("e2", (O,)), time_variable="T2"),
            Guard(lambda t, t2: t - 5 <= t2 < t, ("T", "T2")),
        ],
    ),
    # a fluent triggered by a derived event
    "k+": initiated("k", (V,), True, [HappensAt(EventPattern("d1", (V,)))]),
    "k-": terminated("k", (V,), True, [HappensAt(EventPattern("e1", (V,)))]),
    # broad derived read: some *other* instance holds
    "crowd": happens_head(
        "crowd", (V,),
        [
            HappensAt(EventPattern("e3", (V,))),
            HoldsAt("f", (O,), True),
            Guard(lambda v, o: v != o, ("V", "O")),
        ],
    ),
    # broad valued read plus a static predicate
    "even": happens_head(
        "even", (V,),
        [
            HappensAt(EventPattern("e1", (V,))),
            HoldsAt("pos", (O,), X),
            StaticJoin(_even, inputs=("X",), name="even"),
        ],
    ),
    # the computed fluent, read by a rule
    "busy+": initiated(
        "busy", (V,), True,
        [
            HappensAt(EventPattern("e3", (V,))),
            HoldsAt("holding", (), N),
            Guard(lambda n: n >= 2, ("N",)),
        ],
    ),
    "busy-": terminated("busy", (V,), True, [HappensAt(End("h", (V,), True))]),
}

VESSELS = ("a", "b", "c")

assertions = st.one_of(
    st.tuples(
        st.just("event"),
        st.sampled_from(["e1", "e2", "e3"]),
        st.sampled_from(VESSELS),
        st.integers(-60, 40),  # occurrence time, relative to the query
        st.integers(-20, 60),  # arrival delay after the occurrence
    ),
    st.tuples(
        st.just("value"),
        st.sampled_from(["pos"]),
        st.sampled_from(VESSELS),
        st.integers(-60, 40),
        st.integers(-20, 60),
        st.integers(0, 2),
    ),
)

steps = st.lists(
    st.tuples(
        # query-time advance: mostly forward, sometimes repeated or back
        st.sampled_from([10, 10, 20, 30, 0, -15]),
        st.lists(assertions, max_size=6),
        st.booleans(),  # checkpoint the engine after this step
    ),
    min_size=1,
    max_size=12,
)


def _assert(memory, assertion, query_time):
    kind, functor, vessel, offset, delay = assertion[:5]
    time = query_time + offset
    arrival = time + delay
    if kind == "event":
        memory.assert_event(functor, (vessel,), time, arrival=arrival)
    else:
        memory.assert_value(functor, (vessel,), assertion[5], time, arrival=arrival)


def _engines(names, window):
    rules = [TEMPLATES[name] for name in sorted(names)]
    engine = RTEC(window)
    engine.declare_rules(rules)
    engine.declare_computed(HoldingCount())
    return engine, OracleRTEC.like(engine)


def _restored(engine, names, window):
    """A fresh engine adopting a pickled checkpoint of ``engine``."""
    fresh, _ = _engines(names, window)
    fresh.restore(pickle.loads(pickle.dumps(engine.snapshot())))
    return fresh


def _assert_same(got, want, context):
    assert got.fluents == want.fluents, context
    assert got.events == want.events, context


@settings(max_examples=400, deadline=None)
@given(
    names=st.sets(st.sampled_from(sorted(TEMPLATES)), min_size=1),
    window=st.sampled_from([15, 40, 100]),
    plan=steps,
)
def test_generated_rules_and_streams(names, window, plan):
    engine, oracle = _engines(names, window)
    oracle.working_memory = WorkingMemory()
    query_time = 100
    for number, (advance, batch, checkpoint) in enumerate(plan):
        query_time += advance
        for assertion in batch:
            _assert(engine.working_memory, assertion, query_time)
            _assert(oracle.working_memory, assertion, query_time)
        got = engine.step(query_time)
        want = oracle.step(query_time)
        _assert_same(got, want, (number, query_time))
        if checkpoint:
            engine = _restored(engine, names, window)


def _stepped_pair(window=100):
    engine, oracle = _engines(TEMPLATES, window)
    oracle.working_memory = WorkingMemory()
    return engine, oracle


def _both(engine, oracle, method, *args, **kwargs):
    getattr(engine.working_memory, method)(*args, **kwargs)
    getattr(oracle.working_memory, method)(*args, **kwargs)


class TestExactnessRules:
    def test_delayed_event_reaches_a_cached_trigger(self):
        # (a): e1 at 95 arrives only at 130, after d1's trigger at 100 was
        # cached; its NotHappensAt read must be invalidated.
        engine, oracle = _stepped_pair()
        _both(engine, oracle, "assert_event", "e1", ("a",), 90)
        _both(engine, oracle, "assert_event", "e3", ("a",), 100)
        _both(engine, oracle, "assert_event", "e1", ("a",), 100, arrival=130)
        for query_time in (110, 130, 150):
            _assert_same(engine.step(query_time), oracle.step(query_time), query_time)
        assert engine.last_result.occurrences("d1") == []

    def test_future_event_becomes_visible_when_it_occurs(self):
        # (a): arrived before it occurred; visible once Q reaches it.
        engine, oracle = _stepped_pair()
        _both(engine, oracle, "assert_event", "e1", ("a",), 140, arrival=100)
        for query_time in (110, 130, 150):
            _assert_same(engine.step(query_time), oracle.step(query_time), query_time)
        assert engine.last_result.intervals("f", ("a",)) == [(140, OPEN)]

    def test_closed_interval_leaves_with_its_initiation(self):
        # (b): no new input, yet the interval disappears and h's end
        # trigger at 50 goes with it.
        engine, oracle = _stepped_pair(window=60)
        _both(engine, oracle, "assert_event", "e1", ("a",), 20)
        _both(engine, oracle, "assert_event", "e2", ("a",), 50)
        for query_time in (60, 70, 90, 120):
            _assert_same(engine.step(query_time), oracle.step(query_time), query_time)

    def test_persisted_interval_change_rederives_next_step(self):
        # (b): the open interval persisted at step i seeds step i+1.
        engine, oracle = _stepped_pair(window=30)
        _both(engine, oracle, "assert_event", "e1", ("a",), 10)
        engine.step(20), oracle.step(20)
        _both(engine, oracle, "assert_event", "e2", ("a",), 30)
        _both(engine, oracle, "assert_event", "e1", ("a",), 35)
        for query_time in (40, 50, 70, 90):
            _assert_same(engine.step(query_time), oracle.step(query_time), query_time)

    def test_unarrived_forget_anchor_drops_a_visible_value(self):
        # (c): pos=1 from 10 is visible; the anchor pos=2 at 50 arrives at
        # 500, so forgetting at horizon 100 leaves pos unknown in the window.
        engine, oracle = _stepped_pair(window=100)
        _both(engine, oracle, "assert_value", "pos", ("a",), 1, 10)
        _both(engine, oracle, "assert_value", "pos", ("a",), 2, 50, arrival=500)
        _both(engine, oracle, "assert_event", "e3", ("a",), 150)
        _both(engine, oracle, "assert_event", "e3", ("a",), 190)
        for query_time in (160, 200, 210):
            _assert_same(engine.step(query_time), oracle.step(query_time), query_time)
        assert engine.last_result.intervals("g", ("a",), 1) == []

    def test_decreasing_query_time_cold_starts(self):
        # (e)
        engine, oracle = _stepped_pair()
        _both(engine, oracle, "assert_event", "e1", ("a",), 100, arrival=150)
        _both(engine, oracle, "assert_event", "e3", ("b",), 120)
        for query_time in (160, 130, 130, 170):
            _assert_same(engine.step(query_time), oracle.step(query_time), query_time)

    def test_declaring_rules_cold_starts(self):
        # (e)
        engine, oracle = _engines(["f+"], 100)
        oracle.working_memory = WorkingMemory()
        _both(engine, oracle, "assert_event", "e1", ("a",), 100)
        _assert_same(engine.step(110), oracle.step(110), 110)
        engine.declare_rules([TEMPLATES["d2"], TEMPLATES["g+"]])
        oracle.declare_rules([TEMPLATES["d2"], TEMPLATES["g+"]])
        _both(engine, oracle, "assert_value", "pos", ("a",), 1, 100)
        _both(engine, oracle, "assert_event", "e3", ("a",), 105)
        _assert_same(engine.step(120), oracle.step(120), 120)


class TestCheckpoint:
    def test_restore_mid_stream_keeps_open_intervals(self):
        engine, oracle = _stepped_pair(window=30)
        _both(engine, oracle, "assert_event", "e1", ("a",), 10)
        _both(engine, oracle, "assert_event", "e3", ("a",), 15)
        _assert_same(engine.step(20), oracle.step(20), 20)
        assert engine.last_result.intervals("f", ("a",)) == [(10, OPEN)]
        restored = _restored(engine, TEMPLATES, 30)
        # The initiation at 10 has left the window by 60: only the
        # persisted open interval, carried by the checkpoint, keeps f.
        for query_time in (60, 90):
            _assert_same(restored.step(query_time), oracle.step(query_time), query_time)
        assert restored.last_result.intervals("f", ("a",)) == [(10, OPEN)]


#: The maritime rule sets: the paper's full set plus the pairwise layer
#: over a 9 h window (``recognition_replay``), the MMSI-decomposable vessel
#: scope and the spatial-facts variant over the pipeline's 2 h window (the
#: test-side reference recognizer, swapped in by :func:`use_spatial_facts`).
MARITIME = {
    "full+pairwise": RECOGNITION_REPLAY,
    "vessel": dataclasses.replace(
        RECOGNITION_REPLAY, pairwise=False, recognition_window_seconds=None,
        ce_scope="vessel",
    ),
    "spatial-facts": dataclasses.replace(
        RECOGNITION_REPLAY, pairwise=False, recognition_window_seconds=None,
    ),
}


@pytest.mark.parametrize("seed", [2015, 7])
@pytest.mark.parametrize("rule_set", sorted(MARITIME))
def test_maritime_rule_sets_on_the_fleet(rule_set, seed):
    """Every step of a ``recognition_replay`` fleet run, against an oracle
    fed the same assertions."""
    system = system_for(seed, MARITIME[rule_set])
    if rule_set == "spatial-facts":
        use_spatial_facts(system, recognition_fleet(seed)[1])
    engine = system.recognizer.engine
    oracle = OracleRTEC.like(engine)
    oracle.working_memory = WorkingMemory()
    memory = engine.working_memory

    def mirrored(method):
        original = getattr(memory, method)

        def call(*args, **kwargs):
            getattr(oracle.working_memory, method)(*args, **kwargs)
            return original(*args, **kwargs)

        return call

    memory.assert_event = mirrored("assert_event")
    memory.assert_value = mirrored("assert_value")
    steps = []

    def step(query_time):
        got = RTEC.step(engine, query_time)
        want = oracle.step(query_time)
        _assert_same(got, want, (rule_set, seed, query_time))
        steps.append(got.complex_event_count())
        return got

    engine.step = step
    replay(system, seed)
    # Every slide plus the final flush was compared, and CEs were found.
    assert len(steps) == len(recognition_fleet(seed)[2]) + 1
    assert sum(steps) > 0
