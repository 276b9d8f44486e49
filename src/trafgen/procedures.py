"""Flight procedures and their fixed-length procedural trajectories.

Published instrument approach procedures (IAPs) come from waypoint files;
radar-vector "procedures" have no published path, so nominal paths are
extracted from the recorded arrival set by clustering and curated by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from ._cluster import kmeans
from ._files import read_yaml, rule_reasons, write_text
from .errors import DataError
from .ingest import POSITION_RULES, AirspaceConfig, enu_to_wgs84, wgs84_to_enu
from .preprocess import pchip_resample

# an ENU track (times (n,), positions (n, 3)), as flight_to_enu returns it
EnuTrack = tuple[np.ndarray, np.ndarray]

# k-means restarts when clustering nominal radar-vector paths
KMEANS_RESTARTS = 20
# samples per track when clustering nominal radar-vector paths
NOMINAL_SAMPLES = 100
# waypoints per extracted nominal path, spread evenly over its samples
WAYPOINT_COUNT = 25


class ProcedureKind(Enum):
    IAP = "IAP"
    RADAR_VECTOR = "radar_vector"


@dataclass
class Procedure:
    """A named waypoint path with a relative traffic frequency weight.

    Waypoints are (lat deg, lon deg, alt ft or None).
    """

    name: str
    kind: ProcedureKind
    waypoints: list[tuple[float, float, float | None]]
    frequency: float = 1.0

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError(f"procedure {self.name!r} needs >= 2 waypoints")
        if not 0 <= self.frequency < np.inf:
            raise ValueError(f"procedure {self.name!r}: frequency must be "
                             f"finite and nonnegative, got {self.frequency}")


@dataclass
class ProceduralTrajectory:
    """Fixed-length resampling of a procedure: T ENU points."""

    procedure: str
    points: np.ndarray  # (T, 3) meters ENU


# ---------------------------------------------------------------------------
# Procedure files: a YAML stream with one document per procedure.

def load_procedures(path: str | Path) -> list[Procedure]:
    return read_yaml(path, "procedure file", _procedures_from_documents)


def _procedure(doc: dict) -> Procedure:
    """The procedure of one document. Its name must be a string, and its
    frequency and waypoint coordinates YAML ints or floats (a bool or text
    is neither); an altitude may be null. Each waypoint follows a track
    row's coordinate rule (``ingest.POSITION_RULES``)."""
    name = doc["name"]
    if type(name) is not str:
        raise ValueError(f"procedure {name!r:.40}: the name is not a string")

    def number(value, what: str) -> float:
        if type(value) not in (int, float):
            raise ValueError(f"procedure {name!r}: {what} {value!r:.40} is not a number")
        return float(value)

    kind = ProcedureKind(doc["kind"])
    frequency = number(doc.get("frequency", 1.0), "frequency")
    waypoints = [(number(wp[0], "latitude"), number(wp[1], "longitude"),
                  None if len(wp) < 3 or wp[2] is None else number(wp[2], "altitude"))
                 for wp in doc["waypoints"]]
    reasons = rule_reasons(POSITION_RULES, np.array(
        [(0.0, lat, lon, 0.0 if alt is None else alt) for lat, lon, alt in waypoints],
        dtype=float).reshape(-1, 4), {})
    if reasons:
        first = min(reasons)
        raise ValueError(f"procedure {name!r}: waypoint {first}: {reasons[first]}")
    return Procedure(name=name, kind=kind, frequency=frequency, waypoints=waypoints)


def _procedures_from_documents(docs: list) -> list[Procedure]:
    procedures = [_procedure(doc) for doc in docs if doc is not None]
    if not procedures:
        raise ValueError("no procedures found")
    names = [proc.name for proc in procedures]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"duplicate procedure names: {repeated}")
    return procedures


def save_procedures(procedures: Sequence[Procedure], path: str | Path) -> None:
    import yaml  # only the commands that write procedure files load it
    docs = [{
        "name": proc.name,
        "kind": proc.kind.value,
        "frequency": float(proc.frequency),
        "waypoints": [list(wp[:2]) if wp[2] is None else list(wp)
                      for wp in proc.waypoints],
    } for proc in procedures]
    write_text(path, [yaml.safe_dump_all(docs, sort_keys=True,
                                         default_flow_style=None)])


# ---------------------------------------------------------------------------
# Nominal radar-vector paths from data

def extract_nominal_paths(tracks: Sequence[EnuTrack], k: int,
                          config: AirspaceConfig, *,
                          rng: np.random.Generator | int | None = None,
                          ) -> tuple[list[Procedure], dict[int, str]]:
    """Cluster arrival tracks into ``k`` nominal radar-vector paths.

    Tracks are ENU ``(times, xyz)`` pairs as :func:`flight_to_enu` returns
    them. They are resampled to ``NOMINAL_SAMPLES`` points in one call and
    clustered with k-means (k-means++ seeding, best of ``KMEANS_RESTARTS``)
    on flattened horizontal positions. Cluster means become waypoint lists
    of ``WAYPOINT_COUNT`` evenly spread points (all ``NOMINAL_SAMPLES``
    points when there are fewer); frequency is the cluster membership
    fraction. Returns the paths, and the dropped tracks that resampling
    rejects, as ``pchip_resample`` maps them. The caller curates which
    paths to keep. Raises DataError when fewer than ``k`` tracks remain.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _, resampled, dropped = pchip_resample(
        [times for times, _ in tracks], [xyz[:, :2] for _, xyz in tracks],
        NOMINAL_SAMPLES)
    kept = [i for i in range(len(tracks)) if i not in dropped]
    if len(kept) < k:
        raise DataError(f"only {len(kept)} arrivals for k={k} nominal paths")
    rng = np.random.default_rng(rng)
    data = resampled[kept].reshape(len(kept), -1)

    centers, labels = kmeans(data, k, rng, restarts=KMEANS_RESTARTS)
    wp_idx = np.unique(np.linspace(0, NOMINAL_SAMPLES - 1, WAYPOINT_COUNT).astype(int))
    procedures = []
    for j in range(k):
        member = labels == j
        if not member.any():
            continue  # empty cluster survived every restart: drop it
        mean_path = centers[j].reshape(NOMINAL_SAMPLES, 2)
        enu_wps = np.column_stack([mean_path[wp_idx], np.zeros(len(wp_idx))])
        lat, lon, _ = enu_to_wgs84(enu_wps, config)
        procedures.append(Procedure(
            name=f"NOMINAL{j}",
            kind=ProcedureKind.RADAR_VECTOR,
            waypoints=[(float(la), float(lo), None) for la, lo in zip(lat, lon)],
            frequency=float(member.mean()),
        ))
    return procedures, dropped


# ---------------------------------------------------------------------------
# Procedural trajectories

def waypoints_to_enu(proc: Procedure, config: AirspaceConfig) -> np.ndarray:
    lats = np.array([wp[0] for wp in proc.waypoints])
    lons = np.array([wp[1] for wp in proc.waypoints])
    alts = np.array([wp[2] if wp[2] is not None else 0.0 for wp in proc.waypoints])
    return wgs84_to_enu(lats, lons, alts, config)


def build_procedural_trajectory(proc: Procedure, count: int,
                                config: AirspaceConfig) -> ProceduralTrajectory:
    """Resample a procedure's waypoint path into ``count`` ENU points.

    The path is a monotone cubic interpolation through the waypoints,
    sampled at equal steps of the chord-length parameter.
    """
    wps = waypoints_to_enu(proc, config)
    seg_len = np.linalg.norm(np.diff(wps, axis=0), axis=1)
    chord = np.concatenate(([0.0], np.cumsum(seg_len)))
    _, (points,), rejected = pchip_resample([chord], [wps], count)
    if rejected:  # a repeated waypoint repeats a chord length
        raise ValueError(f"procedure {proc.name!r} repeats a waypoint"
                         if np.any(seg_len == 0) else rejected[0])
    return ProceduralTrajectory(procedure=proc.name, points=points)
