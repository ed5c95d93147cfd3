"""The synthetic world: ports and regulated areas in an Aegean-like region.

The paper's CE recognition experiments use 35 generated polygons
"representing protected areas, forbidden fishing areas, and areas with
shallow waters" (Section 5.2) plus known port polygons for trip segmentation
(Section 3.2).  This module builds a deterministic world of that shape.
"""

import enum
import random
from dataclasses import dataclass, field

from repro.geo.polygon import BoundingBox, GeoPolygon

#: Rough extent of the Aegean and surrounding seas used by the paper's data.
AEGEAN_BBOX = BoundingBox(22.5, 35.5, 27.5, 39.5)


class AreaKind(enum.Enum):
    """Regulated-area categories referenced by the CE definitions."""

    PROTECTED = "protected"
    FORBIDDEN_FISHING = "forbidden_fishing"
    SHALLOW = "shallow"


@dataclass(frozen=True)
class Port:
    """A known port: an anchor point plus its polygon for stop matching."""

    name: str
    lon: float
    lat: float
    polygon: GeoPolygon


@dataclass(frozen=True)
class Area:
    """A regulated area of one of the three kinds.

    ``depth_meters`` only matters for :attr:`AreaKind.SHALLOW` areas: a
    vessel whose draft exceeds it is in dangerously shallow waters there.
    """

    name: str
    kind: AreaKind
    polygon: GeoPolygon
    depth_meters: float = 0.0


@dataclass
class WorldModel:
    """Ports, areas and the bounding box of the monitored region."""

    bbox: BoundingBox
    ports: list[Port] = field(default_factory=list)
    areas: list[Area] = field(default_factory=list)

    def areas_of_kind(self, kind: AreaKind) -> list[Area]:
        """All areas of one category."""
        return [area for area in self.areas if area.kind is kind]

    def port_by_name(self, name: str) -> Port:
        """Look a port up by name; raises ``KeyError`` when absent."""
        for port in self.ports:
            if port.name == name:
                return port
        raise KeyError(f"no port named {name!r}")

    def area_by_name(self, name: str) -> Area:
        """Look an area up by name; raises ``KeyError`` when absent."""
        for area in self.areas:
            if area.name == name:
                return area
        raise KeyError(f"no area named {name!r}")


#: Anchor ports loosely modeled on real Aegean harbors, (name, lon, lat).
_PORT_SITES = [
    ("piraeus", 23.62, 37.94),
    ("thessaloniki", 22.93, 40.60),
    ("heraklion", 25.14, 35.34),
    ("rhodes", 28.22, 36.44),
    ("mytilene", 26.56, 39.10),
    ("chios", 26.14, 38.37),
    ("syros", 24.94, 37.44),
    ("naxos", 25.37, 37.10),
    ("milos", 24.44, 36.72),
    ("kos", 27.29, 36.89),
    ("volos", 22.95, 39.36),
    ("kavala", 24.41, 40.93),
]


def build_aegean_world(
    num_ports: int = 10, num_areas: int = 35, seed: int = 7
) -> WorldModel:
    """Deterministic Aegean-like world.

    Ports come from a fixed site list (clamped into the working bbox);
    regulated areas are pseudo-randomly scattered rectangles of 2-8 km,
    placed away from ports so that routine docking does not trip alerts.
    The default ``num_areas=35`` matches the paper's experiments.
    """
    rng = random.Random(seed)
    bbox = AEGEAN_BBOX
    ports = []
    for name, lon, lat in _PORT_SITES[:num_ports]:
        lon = min(max(lon, bbox.min_lon + 0.1), bbox.max_lon - 0.1)
        lat = min(max(lat, bbox.min_lat + 0.1), bbox.max_lat - 0.1)
        polygon = GeoPolygon.rectangle(f"port_{name}", lon, lat, 3000.0, 3000.0)
        ports.append(Port(name, lon, lat, polygon))

    kinds = [AreaKind.PROTECTED, AreaKind.FORBIDDEN_FISHING, AreaKind.SHALLOW]
    areas: list[Area] = []
    attempts = 0
    while len(areas) < num_areas and attempts < num_areas * 50:
        attempts += 1
        lon = rng.uniform(bbox.min_lon + 0.2, bbox.max_lon - 0.2)
        lat = rng.uniform(bbox.min_lat + 0.2, bbox.max_lat - 0.2)
        if any(_near(port.lon, port.lat, lon, lat, 0.12) for port in ports):
            continue
        if any(_near(a.polygon.centroid[0], a.polygon.centroid[1], lon, lat, 0.15)
               for a in areas):
            continue
        kind = kinds[len(areas) % len(kinds)]
        size = rng.uniform(2000.0, 8000.0)
        name = f"{kind.value}_{len(areas):02d}"
        polygon = GeoPolygon.rectangle(name, lon, lat, size, size)
        depth = rng.uniform(4.0, 9.0) if kind is AreaKind.SHALLOW else 0.0
        areas.append(Area(name, kind, polygon, depth_meters=depth))
    if len(areas) < num_areas:
        raise RuntimeError(
            f"could only place {len(areas)} of {num_areas} areas; "
            "loosen the separation constraints or enlarge the bbox"
        )
    return WorldModel(bbox=bbox, ports=ports, areas=areas)


def _near(lon1: float, lat1: float, lon2: float, lat2: float, tol: float) -> bool:
    return abs(lon1 - lon2) < tol and abs(lat1 - lat2) < tol
