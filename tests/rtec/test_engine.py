"""Tests for the RTEC engine core: derivation, joins, stratification."""

from typing import ClassVar

import pytest

from repro.rtec.engine import RTEC, ComputedFluent
from repro.rtec.intervals import OPEN
from repro.rtec.rules import (
    End,
    EventPattern,
    Guard,
    HappensAt,
    HoldsAt,
    Start,
    StaticJoin,
    happens_head,
    initiated,
    terminated,
)
from repro.rtec.terms import Var

V = Var("Vessel")

STOPPED_RULES = [
    initiated("stopped", (V,), True, [HappensAt(EventPattern("stop_start", (V,)))]),
    terminated("stopped", (V,), True, [HappensAt(EventPattern("stop_end", (V,)))]),
]


def make_engine(rules, window=1000):
    engine = RTEC(window_seconds=window)
    engine.declare_rules(rules)
    return engine


class TestBasicDerivation:
    def test_initiation_opens_interval(self):
        engine = make_engine(STOPPED_RULES)
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        result = engine.step(500)
        assert result.intervals("stopped", ("v1",)) == [(100, OPEN)]

    def test_termination_closes_interval(self):
        engine = make_engine(STOPPED_RULES)
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        engine.working_memory.assert_event("stop_end", ("v1",), 300)
        result = engine.step(500)
        assert result.intervals("stopped", ("v1",)) == [(100, 300)]

    def test_holds_at_semantics(self):
        engine = make_engine(STOPPED_RULES)
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        engine.working_memory.assert_event("stop_end", ("v1",), 300)
        result = engine.step(500)
        assert not result.holds_at("stopped", ("v1",), 100)  # open left
        assert result.holds_at("stopped", ("v1",), 101)
        assert result.holds_at("stopped", ("v1",), 300)  # closed right
        assert not result.holds_at("stopped", ("v1",), 301)

    def test_instances_are_independent(self):
        engine = make_engine(STOPPED_RULES)
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        engine.working_memory.assert_event("stop_start", ("v2",), 200)
        engine.working_memory.assert_event("stop_end", ("v1",), 300)
        result = engine.step(500)
        assert result.intervals("stopped", ("v1",)) == [(100, 300)]
        assert result.intervals("stopped", ("v2",)) == [(200, OPEN)]

    def test_multiple_intervals_per_instance(self):
        engine = make_engine(STOPPED_RULES)
        for t_start, t_end in [(100, 200), (300, 400)]:
            engine.working_memory.assert_event("stop_start", ("v1",), t_start)
            engine.working_memory.assert_event("stop_end", ("v1",), t_end)
        result = engine.step(500)
        assert result.intervals("stopped", ("v1",)) == [(100, 200), (300, 400)]

    def test_events_outside_window_ignored(self):
        engine = make_engine(STOPPED_RULES, window=100)
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        result = engine.step(500)  # window (400, 500]
        assert result.intervals("stopped", ("v1",)) == []


class TestMultiValuedFluents:
    RULES: ClassVar[list] = [
        initiated(
            "phase", (V,), "sailing",
            [HappensAt(EventPattern("depart", (V,)))],
        ),
        initiated(
            "phase", (V,), "docked",
            [HappensAt(EventPattern("dock", (V,)))],
        ),
    ]

    def test_new_value_breaks_old(self):
        # Rule (2): initiating phase=docked terminates phase=sailing.
        engine = make_engine(self.RULES)
        engine.working_memory.assert_event("depart", ("v1",), 100)
        engine.working_memory.assert_event("dock", ("v1",), 300)
        result = engine.step(500)
        assert result.intervals("phase", ("v1",), "sailing") == [(100, 300)]
        assert result.intervals("phase", ("v1",), "docked") == [(300, OPEN)]

    def test_never_two_values_simultaneously(self):
        engine = make_engine(self.RULES)
        engine.working_memory.assert_event("depart", ("v1",), 100)
        engine.working_memory.assert_event("dock", ("v1",), 300)
        engine.working_memory.assert_event("depart", ("v1",), 350)
        result = engine.step(500)
        for probe in range(90, 500, 7):
            holding = [
                value
                for value in ("sailing", "docked")
                if result.holds_at("phase", ("v1",), probe, value)
            ]
            assert len(holding) <= 1


class TestJoinsAndGuards:
    def test_holds_at_join_with_valued_fluent(self):
        rules = [
            happens_head(
                "alarm", (V, Var("Lon"), Var("Lat")),
                [
                    HappensAt(EventPattern("gap", (V,))),
                    HoldsAt("coord", (V,), (Var("Lon"), Var("Lat"))),
                ],
            )
        ]
        engine = make_engine(rules)
        engine.working_memory.assert_value("coord", ("v1",), (10.0, 20.0), 50)
        engine.working_memory.assert_event("gap", ("v1",), 100)
        result = engine.step(500)
        assert result.occurrences("alarm") == [(("v1", 10.0, 20.0), 100)]

    def test_missing_coord_blocks_rule(self):
        rules = [
            happens_head(
                "alarm", (V,),
                [
                    HappensAt(EventPattern("gap", (V,))),
                    HoldsAt("coord", (V,), Var("C")),
                ],
            )
        ]
        engine = make_engine(rules)
        engine.working_memory.assert_event("gap", ("v1",), 100)
        result = engine.step(500)
        assert result.occurrences("alarm") == []

    def test_static_enumeration(self):
        def nearby(x):
            return [("zone_a",), ("zone_b",)] if x > 5 else []

        rules = [
            happens_head(
                "hit", (V, Var("Zone")),
                [
                    HappensAt(EventPattern("ping", (V, Var("X")))),
                    StaticJoin(nearby, inputs=("X",), outputs=("Zone",)),
                ],
            )
        ]
        engine = make_engine(rules)
        engine.working_memory.assert_event("ping", ("v1", 7), 100)
        engine.working_memory.assert_event("ping", ("v2", 3), 150)
        result = engine.step(500)
        assert result.occurrences("hit") == [
            (("v1", "zone_a"), 100),
            (("v1", "zone_b"), 100),
        ]

    def test_static_boolean_filter(self):
        rules = [
            happens_head(
                "evenhit", (V,),
                [
                    HappensAt(EventPattern("ping", (V, Var("X")))),
                    StaticJoin(lambda x: x % 2 == 0, inputs=("X",), name="even"),
                ],
            )
        ]
        engine = make_engine(rules)
        engine.working_memory.assert_event("ping", ("v1", 4), 100)
        engine.working_memory.assert_event("ping", ("v2", 5), 150)
        result = engine.step(500)
        assert result.occurrences("evenhit") == [(("v1",), 100)]

    def test_guard_filters_bindings(self):
        rules = [
            happens_head(
                "bigping", (V,),
                [
                    HappensAt(EventPattern("ping", (V, Var("X")))),
                    Guard(lambda x: x > 10, ("X",)),
                ],
            )
        ]
        engine = make_engine(rules)
        engine.working_memory.assert_event("ping", ("v1", 50), 100)
        engine.working_memory.assert_event("ping", ("v2", 5), 150)
        result = engine.step(500)
        assert result.occurrences("bigping") == [(("v1",), 100)]

    def test_unbound_static_input_raises(self):
        rules = [
            happens_head(
                "bad", (V,),
                [
                    HappensAt(EventPattern("ping", (V,))),
                    StaticJoin(lambda x: True, inputs=("Missing",), name="s"),
                ],
            )
        ]
        engine = make_engine(rules)
        engine.working_memory.assert_event("ping", ("v1",), 100)
        with pytest.raises(ValueError, match="unbound input"):
            engine.step(500)


class TestStartEndEvents:
    RULES = STOPPED_RULES + [
        happens_head(
            "stop_began", (V,),
            [HappensAt(Start("stopped", (V,), True))],
        ),
        happens_head(
            "stop_ceased", (V,),
            [HappensAt(End("stopped", (V,), True))],
        ),
    ]

    def test_start_fires_at_initiation_point(self):
        engine = make_engine(self.RULES)
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        result = engine.step(500)
        assert result.occurrences("stop_began") == [(("v1",), 100)]

    def test_end_fires_only_when_closed(self):
        engine = make_engine(self.RULES)
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        result = engine.step(500)
        assert result.occurrences("stop_ceased") == []
        engine.working_memory.assert_event("stop_end", ("v1",), 600)
        result = engine.step(900)
        assert result.occurrences("stop_ceased") == [(("v1",), 600)]


class TestStratification:
    def test_layered_fluents_evaluated_bottom_up(self):
        rules = STOPPED_RULES + [
            initiated(
                "alerted", (V,), True,
                [HappensAt(Start("stopped", (V,), True))],
            ),
        ]
        engine = make_engine(rules)
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        result = engine.step(500)
        assert result.intervals("alerted", ("v1",)) == [(100, OPEN)]

    def test_cycle_detected(self):
        rules = [
            initiated("a", (V,), True, [HappensAt(Start("b", (V,), True))]),
            initiated("b", (V,), True, [HappensAt(Start("a", (V,), True))]),
        ]
        engine = make_engine(rules)
        with pytest.raises(ValueError, match="cyclic"):
            engine.step(100)


class TestComputedFluents:
    def test_computed_fluent_visible_to_rules(self):
        class Doubler(ComputedFluent):
            functor = "doubled"
            depends_on_fluents = frozenset({"stopped"})

            def compute(self, view):
                out = {}
                for args, values in view.fluent_instances("stopped").items():
                    out[args] = {2: values.get(True, [])}
                return out

        rules = STOPPED_RULES + [
            happens_head(
                "twice", (V,),
                [
                    HappensAt(EventPattern("probe", (V,))),
                    HoldsAt("doubled", (V,), 2),
                ],
            )
        ]
        engine = make_engine(rules)
        engine.declare_computed(Doubler())
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        engine.working_memory.assert_event("probe", ("v1",), 200)
        result = engine.step(500)
        assert result.occurrences("twice") == [(("v1",), 200)]

    def test_unnamed_computed_rejected(self):
        engine = RTEC(window_seconds=100)
        with pytest.raises(ValueError, match="functor"):
            engine.declare_computed(ComputedFluent())


class TestOutputsAndValidation:
    def test_output_restriction(self):
        rules = STOPPED_RULES + [
            initiated(
                "alerted", (V,), True,
                [HappensAt(Start("stopped", (V,), True))],
            ),
        ]
        engine = make_engine(rules)
        engine.declare_outputs(fluents=["alerted"])
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        result = engine.step(500)
        assert "alerted" in result.fluents
        assert "stopped" not in result.fluents

    def test_empty_fluent_declaration_reports_no_fluent(self):
        # An empty list is a declaration, not "undeclared": no fluent is
        # reported, while the declared event still is.
        rules = STOPPED_RULES + [
            happens_head(
                "halted", (V,), [HappensAt(Start("stopped", (V,), True))]
            ),
        ]
        engine = make_engine(rules)
        engine.declare_outputs(fluents=[], events=["halted"])
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        result = engine.step(500)
        assert result.fluents == {}
        assert result.occurrences("halted") == [(("v1",), 100)]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError, match="window range"):
            RTEC(window_seconds=0)

    def test_complex_event_count(self):
        engine = make_engine(STOPPED_RULES)
        engine.working_memory.assert_event("stop_start", ("v1",), 100)
        result = engine.step(500)
        assert result.complex_event_count() == 1

    def test_unbound_holdsat_time_raises(self):
        # A rule whose holdsAt references a different (unbound) time var.
        rules = [
            happens_head(
                "bad", (V,),
                [
                    HappensAt(EventPattern("ping", (V,))),
                    HoldsAt("coord", (V,), Var("C"), time_variable="T2"),
                ],
            )
        ]
        engine = make_engine(rules)
        engine.working_memory.assert_event("ping", ("v1",), 10)
        engine.working_memory.assert_value("coord", ("v1",), (0.0, 0.0), 5)
        with pytest.raises(ValueError, match="unbound time"):
            engine.step(100)
