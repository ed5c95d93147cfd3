"""Alert ring tests."""

import pytest

from repro.maritime.recognizer import Alert
from repro.service import AlertRing


class TestAlertRing:
    def alert(self, kind="suspicious"):
        return Alert(kind, "area_1", 60, None, 1)

    def test_sequences_are_monotone(self):
        ring = AlertRing(10)
        ring.append(1800, (self.alert(), self.alert("illegalFishing")))
        ring.append(3600, (self.alert(),))
        assert [e["seq"] for e in ring.since(0)] == [1, 2, 3]
        assert ring.last_seq == 3

    def test_since_cursor(self):
        ring = AlertRing(10)
        ring.append(1800, (self.alert(), self.alert()))
        assert [e["seq"] for e in ring.since(1)] == [2]
        assert ring.since(2) == []
        assert ring.since(99) == []

    def test_capacity_evicts_oldest(self):
        ring = AlertRing(2)
        for query_time in (1, 2, 3):
            ring.append(query_time, (self.alert(),))
        entries = ring.since(0)
        assert [e["seq"] for e in entries] == [2, 3]
        assert len(ring) == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AlertRing(0)
