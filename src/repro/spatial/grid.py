"""Per-slide spatial grid index with deterministic iteration order.

Two index flavours, both degree-bucketed uniform grids:

:class:`SlideGridIndex`
    Rebuilt every slide over the fresh vessel positions.  Cells are
    sized so the query radius spans at most one cell of latitude;
    longitude columns tile the full circle and wrap modulo the column
    count, so cells adjacent across the antimeridian are genuine grid
    neighbours.  ``close_pairs`` visits vessels in sorted-MMSI order and
    their neighbour cells in sorted cell order, which makes the emitted
    pair list — and therefore everything recognition derives from it —
    independent of insertion order.  Candidate pairs are screened with
    the trig-free within-radius bound from ``tracking/columnar.py``
    (``(pi*R/2) * sqrt(dphi^2 + dlam^2)`` overestimates the Haversine
    distance, so a bound at or under the radius *proves* proximity)
    before falling back to the exact Haversine.

:class:`StaticBoxIndex`
    Built once over a set of bounding boxes (in practice: area polygons
    expanded by the closeness threshold).  ``candidates(lon, lat)``
    returns the keys of every box whose cell range covers the query
    point's cell, in insertion order — a conservative prefilter that is
    exact when the caller re-checks with the same expanded box, which is
    precisely what :meth:`repro.geo.polygon.GeoPolygon.is_close` does.
"""

import math

from repro.geo.haversine import EARTH_RADIUS_METERS, haversine_meters

#: Trig-free overestimate of the Haversine distance (see
#: ``tracking/columnar.py``): ``d <= (pi*R/2) * sqrt(dphi^2 + dlam^2)``,
#: so a bound at or under the radius proves the pair is within it.
_WITHIN_BOUND = math.pi * EARTH_RADIUS_METERS / 2.0

#: Clamp for ``cos(lat)`` when sizing longitude spans, mirroring
#: ``BoundingBox.expanded``; keeps polar cells finite.
_MIN_COS_LAT = 0.01


def _within_radius(
    lon1: float, lat1: float, lon2: float, lat2: float, radius: float
) -> bool:
    """Exact within-radius test with the cheap bound tried first."""
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    # Take the short way around the antimeridian; the Haversine itself is
    # periodic, so only the screen needs the normalisation.
    if dlam > math.pi:
        dlam -= 2.0 * math.pi
    elif dlam < -math.pi:
        dlam += 2.0 * math.pi
    if _WITHIN_BOUND * math.sqrt(dphi * dphi + dlam * dlam) <= radius:
        return True
    return haversine_meters(lon1, lat1, lon2, lat2) <= radius


class SlideGridIndex:
    """Uniform grid over one slide's vessel positions.

    Parameters
    ----------
    radius_meters:
        The proximity radius queries will use.  Cell height equals the
        radius (in latitude degrees), so a radius query never needs to
        look further than one row up or down.
    """

    def __init__(self, radius_meters: float):
        if radius_meters <= 0:
            raise ValueError("radius_meters must be positive")
        self.radius_meters = radius_meters
        #: Cell height in degrees: the radius expressed as latitude arc.
        self.cell_degrees = math.degrees(radius_meters / EARTH_RADIUS_METERS)
        #: Longitude columns tile the full circle so neighbour lookups can
        #: wrap modulo the column count across the antimeridian.  Flooring
        #: makes columns at least ``cell_degrees`` wide.
        self.columns = max(1, math.floor(360.0 / self.cell_degrees))
        self._column_degrees = 360.0 / self.columns
        self._points: dict[int, tuple[float, float]] = {}
        self._cells: dict[tuple[int, int], list[int]] = {}
        #: Ordered candidate pairs examined by the last ``close_pairs``
        #: call — the O(n·k) cost behind ``spatial.candidate_pairs``.
        self.candidates_examined = 0

    def __len__(self) -> int:
        return len(self._points)

    def _cell(self, lon: float, lat: float) -> tuple[int, int]:
        """Grid cell of a coordinate; columns wrap, rows do not."""
        col = math.floor((lon + 180.0) / self._column_degrees) % self.columns
        row = math.floor(lat / self.cell_degrees)
        return row, col

    def insert(self, key: int, lon: float, lat: float) -> None:
        """Register one position under ``key`` (an MMSI, typically)."""
        if key in self._points:
            raise ValueError(f"duplicate key {key}")
        self._points[key] = (lon, lat)
        self._cells.setdefault(self._cell(lon, lat), []).append(key)

    def _column_span(self, lat: float) -> int:
        """Columns the radius spans at this latitude, either side."""
        cos_lat = max(_MIN_COS_LAT, math.cos(math.radians(lat)))
        lon_degrees = self.cell_degrees / cos_lat
        return math.ceil(lon_degrees / self._column_degrees)

    def _neighbour_keys(self, lon: float, lat: float) -> list[int]:
        """Keys of every cell within radius reach of the coordinate.

        Cells are visited in sorted ``(row, wrapped column)`` order and
        each cell's occupants in insertion order; callers that need a
        total order sort the result (``close_pairs`` relies on sorted
        MMSIs instead).
        """
        row, col = self._cell(lon, lat)
        span = self._column_span(lat)
        keys: list[int] = []
        for delta_row in (-1, 0, 1):
            for delta_col in range(-span, span + 1):
                cell = (row + delta_row, (col + delta_col) % self.columns)
                bucket = self._cells.get(cell)
                if bucket is not None:
                    keys.extend(bucket)
        return keys

    def near(self, lon: float, lat: float) -> list[int]:
        """Keys within ``radius_meters`` of a query point, sorted."""
        return sorted(
            key
            for key in self._neighbour_keys(lon, lat)
            if _within_radius(
                lon, lat, self._points[key][0], self._points[key][1],
                self.radius_meters,
            )
        )

    def close_pairs(self) -> list[tuple[int, int]]:
        """All key pairs within ``radius_meters``, as sorted ``(a, b)``
        tuples with ``a < b``, in ascending order.

        Iterates keys in sorted order and, per key, only partners with a
        greater key — each pair is examined exactly once.  The number of
        screened candidates lands in :attr:`candidates_examined`.
        """
        self.candidates_examined = 0
        pairs: list[tuple[int, int]] = []
        for key in sorted(self._points):
            lon, lat = self._points[key]
            for other in sorted(self._neighbour_keys(lon, lat)):
                if other <= key:
                    continue
                self.candidates_examined += 1
                other_lon, other_lat = self._points[other]
                if _within_radius(
                    lon, lat, other_lon, other_lat, self.radius_meters
                ):
                    pairs.append((key, other))
        return pairs


class StaticBoxIndex:
    """Cell index over bounding boxes for point-in-box prefiltering.

    ``boxes`` is a sequence of ``(key, bounding_box)`` pairs; the boxes
    are bucketed into every grid cell they overlap.  ``candidates``
    returns, in insertion order, the keys of the boxes whose cell range
    covers the query point — a superset of the boxes containing it, so
    callers follow up with their exact test.
    """

    def __init__(self, boxes) -> None:
        boxes = list(boxes)
        #: Cell size: the largest box dimension, so every box spans at
        #: most two cells per axis; floored to keep tiny inputs sane.
        largest = 0.0
        for _, box in boxes:
            largest = max(
                largest, box.max_lon - box.min_lon, box.max_lat - box.min_lat
            )
        self.cell_degrees = max(largest, 0.01)
        self._cells: dict[tuple[int, int], list[int]] = {}
        for key, box in boxes:
            min_col = math.floor(box.min_lon / self.cell_degrees)
            max_col = math.floor(box.max_lon / self.cell_degrees)
            min_row = math.floor(box.min_lat / self.cell_degrees)
            max_row = math.floor(box.max_lat / self.cell_degrees)
            for row in range(min_row, max_row + 1):
                for col in range(min_col, max_col + 1):
                    self._cells.setdefault((row, col), []).append(key)

    def candidates(self, lon: float, lat: float) -> list[int]:
        """Keys of boxes whose cells cover the point, insertion order."""
        cell = (
            math.floor(lat / self.cell_degrees),
            math.floor(lon / self.cell_degrees),
        )
        return self._cells.get(cell, [])
