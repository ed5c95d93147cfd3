"""O(new) as a count, not a timing.

The engine counts the trigger occurrences whose rule body it ran
(``rtec.triggers_evaluated``) and the cached ones it reused
(``rtec.triggers_reused``).  Unlike a timing, a count repeats exactly, so
a regression to re-deriving the window fails here deterministically.
"""

import random

import pytest

from repro import obs
from repro.maritime.pairwise.rules import PAIR_FACT_FUNCTORS, build_pairwise_rules
from repro.obs import MetricsRegistry
from repro.rtec.engine import RTEC
from tests.rtec.fleet import RECOGNITION_REPLAY, replay, system_for

SLIDE = 60


def _in_order_stream(seed: int = 11, slides: int = 40):
    """Pair facts slide by slide, each arriving at its slide's query time."""
    rng = random.Random(seed)
    vessels = [101, 102, 103, 104]
    stream = []
    for number in range(1, slides + 1):
        query_time = number * SLIDE
        facts = []
        for _ in range(rng.randrange(6)):
            first, second = sorted(rng.sample(vessels, 2))
            functor = rng.choice(PAIR_FACT_FUNCTORS)
            args = (first,) if functor == "dark_gap" else (first, second)
            facts.append((functor, args, rng.randrange(query_time - SLIDE + 1, query_time + 1)))
        stream.append((query_time, facts))
    return stream


def _counter(registry: MetricsRegistry, name: str) -> int:
    return registry.counter(name).value


@pytest.mark.parametrize("window", [SLIDE, 3 * SLIDE, 10 * SLIDE, 100 * SLIDE])
def test_each_trigger_occurrence_is_evaluated_once(window):
    """Pairwise rules read only input events at their trigger's time, so on
    an in-order stream no cached entry is ever invalidated: the bodies run
    once per distinct trigger occurrence, whatever the window."""
    rules = build_pairwise_rules()
    stream = _in_order_stream()
    expected = 0
    for rule in rules:
        functor = rule.body[0].pattern.functor
        expected += len(
            {
                (args, time)
                for _, facts in stream
                for fact_functor, args, time in facts
                if fact_functor == functor
            }
        )
    engine = RTEC(window)
    engine.declare_rules(rules)
    with obs.activate(MetricsRegistry()) as registry:
        for query_time, facts in stream:
            for functor, args, time in facts:
                engine.working_memory.assert_event(
                    functor, args, time, arrival=query_time
                )
            engine.step(query_time)
    assert expected > 50
    assert _counter(registry, "rtec.triggers_evaluated") == expected


def test_recognition_replay_evaluates_a_small_share():
    """On the ``recognition_replay`` fleet (ω = 9 h, β = 30 min) most of the
    window's trigger occurrences are reused at each step."""
    system = system_for(2015, RECOGNITION_REPLAY)
    with obs.activate(MetricsRegistry()) as registry:
        replay(system, 2015)
    evaluated = _counter(registry, "rtec.triggers_evaluated")
    reused = _counter(registry, "rtec.triggers_reused")
    assert evaluated > 0
    assert evaluated <= 0.25 * (evaluated + reused)
