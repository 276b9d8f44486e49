"""Track ingestion: file parsing, WGS84 -> local ENU conversion, flight classification.

Track files are UTF-8 CSV with header ``id,time,lat,lon,alt`` and optional
``gs,vr`` columns (times in seconds, altitudes in feet); ``gs`` and ``vr`` are
checked but not kept. All geometry downstream of this module is in meters in
an east-north-up frame centered at the configured airport reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from ._files import read_csv, rule_reasons
from .units import FT_TO_M, NM_TO_M

# WGS84 ellipsoid
_WGS84_A = 6378137.0
_WGS84_F = 1.0 / 298.257223563
_WGS84_E2 = _WGS84_F * (2.0 - _WGS84_F)


class FlightClass(Enum):
    ARRIVAL = "arrival"
    DEPARTURE = "departure"
    OVERFLIGHT = "overflight"


@dataclass
class Flight:
    id: str
    points: np.ndarray  # (n, 4): time (s), lat (deg), lon (deg), alt (ft)


@dataclass(frozen=True)
class AirspaceConfig:
    origin_lat: float
    origin_lon: float
    origin_alt_ft: float = 0.0
    radius_nm: float = 25.0
    landing_ceiling_ft: float = 500.0
    landing_radius_nm: float = 2.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        # the origin follows a track row's rule, whose reasons name the
        # fields lat and lon
        reasons = rule_reasons(POSITION_RULES, np.array(
            [[0.0, self.origin_lat, self.origin_lon, self.origin_alt_ft]]), {})
        if reasons:
            raise ValueError(f"origin_{reasons[0]}")
        if not self.radius_nm > 0:
            raise ValueError("radius_nm must be positive")

    @property
    def radius_m(self) -> float:
        return self.radius_nm * NM_TO_M

    @cached_property
    def enu_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """The origin's ECEF position (m) and the ECEF-to-ENU rotation."""
        origin = geodetic_to_ecef(self.origin_lat, self.origin_lon,
                                  self.origin_alt_ft * FT_TO_M)
        return origin, _enu_rotation(self.origin_lat, self.origin_lon)


# ---------------------------------------------------------------------------
# Geodesy

def geodetic_to_ecef(lat_deg, lon_deg, alt_m):
    """WGS84 geodetic coordinates to earth-centered earth-fixed, in meters."""
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    lon = np.radians(np.asarray(lon_deg, dtype=float))
    alt = np.asarray(alt_m, dtype=float)
    sin_lat, cos_lat = np.sin(lat), np.cos(lat)
    n = _WGS84_A / np.sqrt(1.0 - _WGS84_E2 * sin_lat**2)
    x = (n + alt) * cos_lat * np.cos(lon)
    y = (n + alt) * cos_lat * np.sin(lon)
    z = (n * (1.0 - _WGS84_E2) + alt) * sin_lat
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def ecef_to_geodetic(ecef):
    """Inverse of :func:`geodetic_to_ecef` (iterated to machine precision)."""
    ecef = np.asarray(ecef, dtype=float)
    x, y, z = ecef[..., 0], ecef[..., 1], ecef[..., 2]
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)
    lat = np.arctan2(z, p * (1.0 - _WGS84_E2))
    for _ in range(10):
        sin_lat = np.sin(lat)
        n = _WGS84_A / np.sqrt(1.0 - _WGS84_E2 * sin_lat**2)
        alt = p / np.cos(lat) - n
        new_lat = np.arctan2(z, p * (1.0 - _WGS84_E2 * n / (n + alt)))
        if np.all(np.abs(new_lat - lat) < 1e-14):
            lat = new_lat
            break
        lat = new_lat
    sin_lat = np.sin(lat)
    n = _WGS84_A / np.sqrt(1.0 - _WGS84_E2 * sin_lat**2)
    alt = p / np.cos(lat) - n
    return np.degrees(lat), np.degrees(lon), alt


def _enu_rotation(lat_deg: float, lon_deg: float) -> np.ndarray:
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    sin_lat, cos_lat = math.sin(lat), math.cos(lat)
    sin_lon, cos_lon = math.sin(lon), math.cos(lon)
    return np.array([
        [-sin_lon, cos_lon, 0.0],
        [-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat],
        [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat],
    ])


def wgs84_to_enu(lat_deg, lon_deg, alt_ft, config: AirspaceConfig) -> np.ndarray:
    """Convert geodetic positions (altitude in feet) to ENU meters.

    Scalar inputs give a shape (3,) array; length-n inputs give (n, 3).
    """
    origin_ecef, rot = config.enu_frame
    ecef = geodetic_to_ecef(lat_deg, lon_deg, np.asarray(alt_ft, dtype=float) * FT_TO_M)
    return (ecef - origin_ecef) @ rot.T


def enu_to_wgs84(enu, config: AirspaceConfig):
    """Convert ENU meters back to (lat deg, lon deg, alt ft)."""
    origin_ecef, rot = config.enu_frame
    ecef = np.asarray(enu, dtype=float) @ rot + origin_ecef
    lat, lon, alt_m = ecef_to_geodetic(ecef)
    return lat, lon, alt_m / FT_TO_M


# ---------------------------------------------------------------------------
# Track file parsing

_COLUMNS = (("id",), ("time", "lat", "lon", "alt"))
# the reasons a row of (time, lat, lon, alt) is rejected, in the order tried:
# the coordinate rule of a track row and the origin
POSITION_RULES = (
    (lambda v: ~(np.abs(v[:, 1]) <= 90.0), "lat {1} outside [-90, 90]"),
    (lambda v: ~(np.abs(v[:, 2]) <= 180.0), "lon {2} outside [-180, 180]"),
    (lambda v: ~np.isfinite(v[:, [0, 3]]).all(axis=1), "time and alt must be finite"),
)
# those of a procedure waypoint, which has no time
WAYPOINT_RULES = POSITION_RULES[:2] + (
    (lambda v: ~np.isfinite(v[:, 3]), "alt {3} must be finite"),)


def parse_tracks(path: str | Path) -> tuple[list[Flight], list[str]]:
    """Parse a track CSV into per-aircraft flights.

    Returns (flights, record-level error messages). Rows violating the
    coordinate invariants are rejected individually; an unreadable or
    header-less file raises DataError. Each flight's rows are sorted by time;
    of rows with equal timestamps the first in the file is kept.
    """
    errors: list[str] = []
    runs_by_id: dict[str, list[np.ndarray]] = {}
    for (flight_id,), values in read_csv(path, "track file", (_COLUMNS,),
                                         POSITION_RULES, optional=("gs", "vr"),
                                         errors=errors):
        runs_by_id.setdefault(flight_id, []).append(values)

    flights: list[Flight] = []
    for flight_id, runs in runs_by_id.items():
        points = np.concatenate(runs)
        points = points[np.argsort(points[:, 0], kind="stable")]
        times = points[:, 0]
        points = points[np.concatenate(([True], times[1:] != times[:-1]))]
        if len(points) < 2:
            errors.append(f"{path}: flight {flight_id!r} has fewer than 2 usable points")
            continue
        flights.append(Flight(id=flight_id, points=points))
    return flights, errors


# ---------------------------------------------------------------------------
# ENU trajectories and classification

def flight_to_enu(flights: list[Flight], config: AirspaceConfig,
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """ENU trajectory of every flight as (times, positions (n, 3)), from one
    conversion of all their points. Only points within the configured
    horizontal radius are kept and times are rebased to the first kept point.
    """
    points = np.concatenate([f.points for f in flights] or [np.empty((0, 4))])
    xyz = wgs84_to_enu(*points[:, 1:].T, config)
    inside = np.hypot(xyz[:, 0], xyz[:, 1]) <= config.radius_m
    ends = np.cumsum([len(f.points) for f in flights], dtype=int).tolist()
    tracks = []
    for start, end in zip([0] + ends, ends):
        times = points[start:end, 0][inside[start:end]]
        tracks.append((times - times[:1], xyz[start:end][inside[start:end]]))
    return tracks


def classify_flight(tracks: list[tuple[np.ndarray, np.ndarray]], config: AirspaceConfig,
                    ) -> tuple[list[FlightClass | None], dict[int, str]]:
    """Class of every ENU track of :func:`flight_to_enu` (arrival, departure
    or overflight), and ``rejected``, which maps each track with fewer than
    2 points inside the airspace to that message; its class is None.

    An arrival shows a net-decreasing range to the origin and ends below the
    landing ceiling within the landing radius; a departure is the mirror
    image; anything else is an overflight. Only the first and last of a
    track's points, which all lie inside the airspace, count.
    """
    counts = np.array([len(times) for times, _ in tracks], dtype=int)
    short, ends = counts < 2, np.cumsum(counts)
    # first and last point of every track, (2, F, 3); NaN for a short one
    xyz = np.concatenate([points for _, points in tracks] + [np.full((1, 3), np.nan)])
    xyz = xyz[np.where(short, -1, [ends - counts, ends - 1])]
    ranges = np.hypot(xyz[..., 0], xyz[..., 1])
    agl = xyz[..., 2]  # meters above the airport reference point
    low_and_close = ((ranges <= config.landing_radius_nm * NM_TO_M)
                     & (agl <= config.landing_ceiling_ft * FT_TO_M))
    classes = np.select(
        [short, (ranges[1] < ranges[0]) & low_and_close[1],
         (ranges[0] < ranges[1]) & low_and_close[0]],
        [None, FlightClass.ARRIVAL, FlightClass.DEPARTURE], FlightClass.OVERFLIGHT)
    return classes.tolist(), {row: "fewer than 2 points inside the airspace"
                              for row in np.flatnonzero(short).tolist()}
