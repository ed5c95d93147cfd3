"""Great-circle geometry on a spherical Earth.

All distances in the paper are Haversine distances (Section 3, footnote 2):
between any two consecutive AIS positions a vessel's course evolves in a very
small area, which can be locally approximated with a Euclidean plane using
Haversine distances.  Coordinates are WGS84-style (longitude, latitude) pairs
in decimal degrees; distances are returned in meters.
"""

import math

#: Mean Earth radius in meters (IUGG mean radius R1).
EARTH_RADIUS_METERS = 6_371_008.8

#: Trig-free overestimate of the Haversine distance: with
#: ``a <= (dphi/2)^2 + (dlam/2)^2`` (sin x <= x) and ``asin x <= pi*x/2``,
#: ``d <= WITHIN_BOUND * sqrt(dphi^2 + dlam^2)`` (radians).  The
#: overestimate factor is ``(pi/2) * (sqrt(a)/asin(sqrt(a)))`` —
#: essentially pi/2 at stop-radius scale — so a bound at or under a
#: radius *proves* the pair is within it, with two squares in place of
#: four trig calls.  Only booleans derived from it are observable, so the
#: screen cannot perturb parity.
WITHIN_BOUND = math.pi * EARTH_RADIUS_METERS / 2.0


def haversine_meters(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in meters between two (lon, lat) points.

    >>> round(haversine_meters(23.6, 37.9, 23.6, 37.9))
    0
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2.0) ** 2
    )
    # Clamp against floating-point drift before the sqrt.
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_METERS * math.asin(math.sqrt(a))


def initial_bearing_degrees(
    lon1: float, lat1: float, lon2: float, lat2: float
) -> float:
    """Initial great-circle bearing from point 1 to point 2, in [0, 360).

    0 degrees is true north, 90 degrees is east.  For identical points the
    bearing is undefined; 0.0 is returned by convention.
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dlambda = math.radians(lon2 - lon1)
    y = math.sin(dlambda) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(
        dlambda
    )
    if x == 0.0 and y == 0.0:
        return 0.0
    theta = math.degrees(math.atan2(y, x)) % 360.0
    # A tiny negative angle can round to exactly 360.0 under the modulo.
    return 0.0 if theta == 360.0 else theta


def heading_difference_degrees(heading1: float, heading2: float) -> float:
    """Smallest absolute angular difference between two headings, in [0, 180].

    Used by the turn detector: a change in heading of more than the threshold
    angle (in either direction) marks a turning point.
    """
    diff = abs(heading1 - heading2) % 360.0
    if diff > 180.0:
        diff = 360.0 - diff
    return diff


def signed_heading_change_degrees(heading_from: float, heading_to: float) -> float:
    """Signed smallest rotation from ``heading_from`` to ``heading_to``.

    Positive values are clockwise (starboard) turns.  The result lies in
    (-180, 180].  The smooth-turn detector accumulates these signed changes so
    that alternating jitter cancels out while a consistent drift adds up.
    """
    diff = (heading_to - heading_from) % 360.0
    if diff > 180.0:
        diff -= 360.0
    return diff


def destination_point(
    lon: float, lat: float, bearing_degrees: float, distance_meters: float
) -> tuple[float, float]:
    """Destination (lon, lat) after moving along a great circle.

    Inverse of :func:`haversine_meters` + :func:`initial_bearing_degrees`;
    used by the fleet simulator to advance vessels.
    """
    delta = distance_meters / EARTH_RADIUS_METERS
    theta = math.radians(bearing_degrees)
    phi1 = math.radians(lat)
    lambda1 = math.radians(lon)
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(
        delta
    ) * math.cos(theta)
    sin_phi2 = min(1.0, max(-1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    y = math.sin(theta) * math.sin(delta) * math.cos(phi1)
    x = math.cos(delta) - math.sin(phi1) * math.sin(phi2)
    lambda2 = lambda1 + math.atan2(y, x)
    lon2 = math.degrees(lambda2)
    # Normalize longitude to (-180, 180].
    lon2 = ((lon2 + 180.0) % 360.0) - 180.0
    return lon2, math.degrees(phi2)
