"""Tests for the synthetic world model."""

import pytest

from repro.simulator.world import (
    AEGEAN_BBOX,
    AreaKind,
    build_aegean_world,
)


class TestBuildWorld:
    def test_default_sizes(self, world):
        assert len(world.ports) == 10
        assert len(world.areas) == 35

    def test_deterministic(self):
        first = build_aegean_world(seed=7)
        second = build_aegean_world(seed=7)
        assert [a.name for a in first.areas] == [a.name for a in second.areas]
        assert [
            a.polygon.centroid for a in first.areas
        ] == [a.polygon.centroid for a in second.areas]

    def test_all_kinds_represented(self, world):
        for kind in AreaKind:
            assert len(world.areas_of_kind(kind)) >= 10

    def test_areas_inside_bbox(self, world):
        for area in world.areas:
            lon, lat = area.polygon.centroid
            assert AEGEAN_BBOX.contains(lon, lat)

    def test_shallow_areas_have_depth(self, world):
        for area in world.areas_of_kind(AreaKind.SHALLOW):
            assert area.depth_meters > 0
        for area in world.areas_of_kind(AreaKind.PROTECTED):
            assert area.depth_meters == 0

    def test_areas_away_from_ports(self, world):
        for area in world.areas:
            lon, lat = area.polygon.centroid
            for port in world.ports:
                assert abs(port.lon - lon) > 0.1 or abs(port.lat - lat) > 0.1

    def test_port_lookup(self, world):
        port = world.port_by_name("piraeus")
        assert port.polygon.contains(port.lon, port.lat)
        with pytest.raises(KeyError):
            world.port_by_name("atlantis")

    def test_area_lookup(self, world):
        area = world.areas[0]
        assert world.area_by_name(area.name) is area
        with pytest.raises(KeyError):
            world.area_by_name("nowhere")

    def test_custom_sizes(self):
        small = build_aegean_world(num_ports=4, num_areas=9, seed=1)
        assert len(small.ports) == 4
        assert len(small.areas) == 9
