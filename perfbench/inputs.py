"""Seeded benchmark inputs, built with numpy and the standard library only.

Nothing here imports trafgen: the inputs of a run must not depend on the
code under measurement, so two commits given the same seed read the same
bytes. Every file written is listed with its sha256 digest in the manifest
that :func:`build` returns.

Geometry, in metres east-north-up around the airport reference point, is
that of the acceptance corpus in ``tests/corpus.py``: two mirrored
radar-vector paths end at the first waypoint of one straight-in final
approach. Flights are drawn the way trafgen's generator builds them, from a
known two-lane deviation mixture per segment: procedure points plus
deviations, transit time rescaled to the procedure's length, and a final
approach that starts where the radar vector ends. So the procedure that
generated every track is known, and the ingest check can compare DTW
assignment against it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ORIGIN_LAT, ORIGIN_LON, ORIGIN_ALT_FT = 40.6413, -73.7781, 13.0
FT_TO_M = 0.3048

_WGS84_A = 6378137.0
_WGS84_F = 1.0 / 298.257223563
_WGS84_E2 = _WGS84_F * (2.0 - _WGS84_F)

IAP_ENU = np.array([[8000.0, 8000.0, 450.0],
                    [4000.0, 4000.0, 225.0],
                    [0.0, 0.0, 0.0]])
RV_NAMES = ("RV_WEST", "RV_SOUTH")
IAP_NAME = "IAP_MAIN"
ARRIVAL_SPACING_S = (80.0, 140.0)
K_GRID = (2, 3)
PAIRWISE_RANK = 8
# radar-vector path from the northwest; its last waypoint is the approach's first
RV_WEST_XY = np.array([[-32000.0, 18000.0], [-20000.0, 16500.0],
                       [-8000.0, 15500.0], [4000.0, 14500.0],
                       [12000.0, 12000.0], [8000.0, 8000.0]])
# deviation mixtures of the flights, as in the acceptance corpus: per
# segment two equally likely lanes, mean transit time, spread of the time,
# distance and smooth shapes, and the altitude profile of the radar vector
RV_LANE_M, FA_LANE_M = 350.0, 450.0
RV_TRANSIT_S, FA_TRANSIT_S = 600.0, 160.0
RV_DESCENT_M = (1800.0, 450.0)
NOISE_SD_M = 5.0


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload's inputs."""

    t_v: int
    t_f: int
    n_overlap: int
    flights: int = 0          # training tracks; 0 writes no track file
    holdout: int = 0          # ground-truth trajectories for evaluate
    holdout_scenes: int = 0   # ground-truth scenes for scene evaluation
    scene_aircraft: int = 2
    paper_models: bool = False  # write model files instead of learning them
    rank_grid: str = "2,4,8"
    rank: int = 8             # of both segment models; K is 2 for each


# ---------------------------------------------------------------------------
# Geodesy: ENU metres to WGS84 degrees and feet

def _rotation() -> np.ndarray:
    lat, lon = math.radians(ORIGIN_LAT), math.radians(ORIGIN_LON)
    return np.array([
        [-math.sin(lon), math.cos(lon), 0.0],
        [-math.sin(lat) * math.cos(lon), -math.sin(lat) * math.sin(lon),
         math.cos(lat)],
        [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon),
         math.sin(lat)],
    ])


def _ecef(lat_deg: float, lon_deg: float, alt_m: float) -> np.ndarray:
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    n = _WGS84_A / math.sqrt(1.0 - _WGS84_E2 * math.sin(lat) ** 2)
    return np.array([(n + alt_m) * math.cos(lat) * math.cos(lon),
                     (n + alt_m) * math.cos(lat) * math.sin(lon),
                     (n * (1.0 - _WGS84_E2) + alt_m) * math.sin(lat)])


def enu_to_geodetic(enu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lat deg, lon deg, alt ft) of ENU points, iterated to convergence."""
    origin = _ecef(ORIGIN_LAT, ORIGIN_LON, ORIGIN_ALT_FT * FT_TO_M)
    ecef = np.asarray(enu, dtype=float) @ _rotation() + origin
    x, y, z = ecef[:, 0], ecef[:, 1], ecef[:, 2]
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)
    lat = np.arctan2(z, p * (1.0 - _WGS84_E2))
    for _ in range(10):
        n = _WGS84_A / np.sqrt(1.0 - _WGS84_E2 * np.sin(lat) ** 2)
        alt = p / np.cos(lat) - n
        lat = np.arctan2(z, p * (1.0 - _WGS84_E2 * n / (n + alt)))
    n = _WGS84_A / np.sqrt(1.0 - _WGS84_E2 * np.sin(lat) ** 2)
    alt = p / np.cos(lat) - n
    return np.degrees(lat), np.degrees(lon), alt / FT_TO_M


# ---------------------------------------------------------------------------
# Procedures and flights

def rv_waypoints() -> dict[str, np.ndarray]:
    """The west path and its mirror across the approach axis, at altitude 0."""
    west = np.column_stack([RV_WEST_XY, np.zeros(len(RV_WEST_XY))])
    return {RV_NAMES[0]: west, RV_NAMES[1]: west[:, [1, 0, 2]]}


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson slopes of a monotone cubic through (x, y), per column."""
    h = np.diff(x)[:, None]
    m = np.diff(y, axis=0) / h
    if len(x) == 2:
        return np.vstack([m, m])
    d = np.zeros_like(y)
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = (w1 + w2) / (w1 / m[:-1] + w2 / m[1:])
    d[1:-1] = np.where(flat, 0.0, inner)
    for end, (h0, h1, m0, m1) in ((0, (h[0], h[1], m[0], m[1])),
                                  (-1, (h[-1], h[-2], m[-1], m[-2]))):
        e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        e = np.where(np.sign(e) != np.sign(m0), 0.0, e)
        d[end] = np.where((np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0)),
                          3.0 * m0, e)
    return d


def procedure_path(waypoints: np.ndarray, count: int) -> np.ndarray:
    """``count`` points of a procedure's nominal path, as trafgen builds it.

    A monotone cubic (PCHIP) through the waypoints as a function of the
    cumulative chord length, sampled at equal chord steps.
    """
    x = np.concatenate(([0.0], np.cumsum(
        np.linalg.norm(np.diff(waypoints, axis=0), axis=1))))
    d = _pchip_slopes(x, waypoints)
    at = np.linspace(0.0, x[-1], count)
    k = np.clip(np.searchsorted(x, at, side="right") - 1, 0, len(x) - 2)
    h = (x[k + 1] - x[k])[:, None]
    t = (at - x[k])[:, None] / h
    y0, y1, d0, d1 = waypoints[k], waypoints[k + 1], d[k] * h, d[k + 1] * h
    return ((2 * t**3 - 3 * t**2 + 1) * y0 + (t**3 - 2 * t**2 + t) * d0
            + (-2 * t**3 + 3 * t**2) * y1 + (t**3 - t**2) * d1)


def path_length(points: np.ndarray) -> float:
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


@dataclass
class Flight:
    procedure: str
    times: np.ndarray   # (t_v + t_f,), starting at 0
    points: np.ndarray  # (t_v + t_f, 3) ENU metres
    t_v: int            # radar-vector samples, which come first


def _lanes(rng, nominal: np.ndarray, lane: float, transit: float,
           descent: tuple[float, float] | None, scale: float, time_scale: float,
           dist_scale: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """(mean, covariance factor) of the two lanes of one segment."""
    t_len = len(nominal)
    return [(_segment_mean(t_len, transit, path_length(nominal), side * lane,
                           descent),
             _factor(rng, t_len, 5, time_scale, dist_scale, scale))
            for side in (1.0, -1.0)]


def _draw(rng, lanes: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    mean, factor = lanes[int(rng.integers(len(lanes)))]
    return (mean + factor @ rng.standard_normal(factor.shape[1])
            + rng.normal(scale=NOISE_SD_M, size=mean.size))


def _rebuild(tau: np.ndarray, nominal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Procedure points plus deviations, transit rescaled to its length."""
    transit = tau[0] / tau[1] * path_length(nominal)
    return (np.linspace(0.0, transit, len(nominal)),
            nominal + tau[2:].reshape(-1, 3))


def make_flights(rng, count: int, t_v: int, t_f: int) -> list[Flight]:
    """Flights of ``t_v`` radar-vector then ``t_f`` final-approach samples."""
    rv_nominal = {name: procedure_path(wps, t_v)
                  for name, wps in rv_waypoints().items()}
    fa_nominal = procedure_path(IAP_ENU, t_f)
    # the mirrored paths have one length, so both share one mixture
    rv_lanes = _lanes(rng, rv_nominal[RV_NAMES[0]], RV_LANE_M, RV_TRANSIT_S,
                      RV_DESCENT_M, 120.0, 25.0, 200.0)
    fa_lanes = _lanes(rng, fa_nominal, FA_LANE_M, FA_TRANSIT_S, None,
                      40.0, 8.0, 100.0)
    # procedures repeat west, west, south, south from a seeded phase, so
    # every ordered pair of successive arrivals is equally common
    phase = int(rng.integers(4))
    flights = []
    for i in range(count):
        name = RV_NAMES[(i + phase) // 2 % 2]
        rv_times, rv = _rebuild(_draw(rng, rv_lanes), rv_nominal[name])
        tau_fa = _draw(rng, fa_lanes)
        # the final approach starts where the radar vector ends
        tau_fa[2:5] = rv[-1] - fa_nominal[0]
        fa_times, fa = _rebuild(tau_fa, fa_nominal)
        # a vanishing time step keeps the repeated join point's time rising
        step = max(1e-6 * fa_times[-1], 1e-9 * rv_times[-1], 1e-9)
        flights.append(Flight(
            procedure=name,
            times=np.concatenate([rv_times, rv_times[-1] + step + fa_times]),
            points=np.vstack([rv, fa]), t_v=t_v))
    return flights


def arrival_offsets(rng, flights: list[Flight]) -> np.ndarray:
    """Start times that stack arrivals 80-140 s apart, in flight order."""
    landing = np.cumsum(rng.uniform(*ARRIVAL_SPACING_S, size=len(flights)))
    return landing - np.array([f.times[-1] for f in flights])


# ---------------------------------------------------------------------------
# Mixture models in the documented trafgen-mixture/1 layout

def _factor(rng, t_len: int, rank: int, time_scale: float,
            dist_scale: float, shape_scale: float = 60.0) -> np.ndarray:
    """(3 t_len + 2, rank): time and distance spread plus smooth shapes."""
    factor = np.zeros((3 * t_len + 2, rank))
    factor[0, 0] = time_scale
    factor[1, 1] = dist_scale
    u = np.linspace(0.0, 1.0, t_len)
    for col in range(2, rank):
        shape = np.sin((col - 1) * np.pi * u) / (col - 1)
        factor[2:, col] = np.outer(
            shape, rng.normal(scale=shape_scale, size=3)).ravel()
    return factor


def _component(mean: np.ndarray, factor: np.ndarray, weight: float) -> dict:
    return {"weight": weight, "mean": mean.tolist(),
            "cov_factor": factor.tolist(), "noise_var": 25.0}


def _segment_mean(t_len: int, transit: float, distance: float, lane: float,
                  descent: tuple[float, float] | None) -> np.ndarray:
    u = np.linspace(0.0, 1.0, t_len)
    mean = np.zeros(3 * t_len + 2)
    mean[0], mean[1] = transit, distance
    mean[2::3] = lane * np.sin(np.pi * u)
    if descent is not None:
        mean[4::3] = descent[0] + (descent[1] - descent[0]) * u
    return mean


def _mixture(components: list[dict], kind: str) -> dict:
    return {"format": "trafgen-mixture/1", "segment_kind": kind,
            "n_components": len(components),
            "dimension": len(components[0]["mean"]), "components": components}


def paper_models(rng, spec: Spec) -> dict[str, dict]:
    """Radar-vector (K=2), final-approach (K=3) and pairwise (K=2) models."""
    rv_len = {name: path_length(procedure_path(w, spec.t_v))
              for name, w in rv_waypoints().items()}
    mean_rv_len = float(np.mean(list(rv_len.values())))
    fa_len = path_length(procedure_path(IAP_ENU, spec.t_f))
    rv = _mixture([
        _component(_segment_mean(spec.t_v, RV_TRANSIT_S, mean_rv_len, lane,
                                 RV_DESCENT_M),
                   _factor(rng, spec.t_v, 16, 25.0, 200.0), 0.5)
        for lane in (350.0, -350.0)], "radar_vector")
    fa = _mixture([
        _component(_segment_mean(spec.t_f, FA_TRANSIT_S, fa_len, lane, None),
                   _factor(rng, spec.t_f, 16, 8.0, 100.0), w)
        for lane, w in ((250.0, 0.4), (0.0, 0.2), (-250.0, 0.4))],
        "final_approach")
    pairwise = {}
    for first in RV_NAMES:
        for second in RV_NAMES:
            comps = []
            for lane in (350.0, -350.0):
                tau1 = _segment_mean(spec.t_v, RV_TRANSIT_S, rv_len[first],
                                     lane, RV_DESCENT_M)
                tau2 = _segment_mean(spec.t_v, RV_TRANSIT_S, rv_len[second],
                                     lane, RV_DESCENT_M)
                # the follower shares the leader's time and distance spread;
                # the last column carries only the inter-arrival spread
                f1 = _factor(rng, spec.t_v, PAIRWISE_RANK, 25.0, 200.0)
                f2 = _factor(rng, spec.t_v, PAIRWISE_RANK, 25.0, 200.0)
                f1[:, -1] = f2[:, -1] = 0.0
                delta = np.zeros((1, PAIRWISE_RANK))
                delta[0, -1] = 15.0
                comps.append(_component(np.concatenate([tau1, [110.0], tau2]),
                                        np.vstack([f1, delta, f2]), 0.5))
            pairwise[f"{first}|{second}"] = _mixture(comps, "pairwise")
    return {"model_rv.json": rv, "model_fa.json": fa,
            "model_pairwise.json": {"format": "trafgen-pairwise/1",
                                    "segment": "radar_vector",
                                    "models": pairwise}}


# ---------------------------------------------------------------------------
# Files

def write_tracks(path: Path, flights: list[Flight], offsets: np.ndarray) -> None:
    points = np.vstack([f.points for f in flights])
    times = np.concatenate([f.times + o for f, o in zip(flights, offsets)])
    ids = [f"AC{i:05d}" for i, f in enumerate(flights) for _ in f.times]
    rows = zip(ids, times.tolist(), *(c.tolist() for c in enu_to_geodetic(points)))
    path.write_text("id,time,lat,lon,alt\n" + "".join(
        f"{i},{t!r},{la!r},{lo!r},{al!r}\n" for i, t, la, lo, al in rows),
        encoding="utf-8")


def _write_tracks_enu(path: Path, header: str, keys: list[str],
                      times: np.ndarray, points: np.ndarray) -> None:
    rows = zip(keys, times.tolist(), points.tolist())
    path.write_text(header + "\n" + "".join(
        f"{k},{t!r},{x!r},{y!r},{z!r}\n" for k, t, (x, y, z) in rows),
        encoding="utf-8")


def write_trajectories(path: Path, flights: list[Flight]) -> None:
    _write_tracks_enu(path, "traj_id,t,x,y,z",
                      [str(i) for i, f in enumerate(flights) for _ in f.times],
                      np.concatenate([f.times for f in flights]),
                      np.vstack([f.points for f in flights]))


def write_scenes(path: Path, flights: list[Flight], offsets: np.ndarray,
                 n_aircraft: int, count: int) -> None:
    """Radar-vector parts of consecutive arrivals, ``n_aircraft`` a scene."""
    keys, times, points = [], [], []
    for scene in range(count):
        members = range(scene * n_aircraft, (scene + 1) * n_aircraft)
        start = offsets[members[0]]
        for idx, i in enumerate(members):
            flight = flights[i]
            keys += [f"{scene},{idx}"] * flight.t_v
            times.append(flight.times[:flight.t_v] + offsets[i] - start)
            points.append(flight.points[:flight.t_v])
    _write_tracks_enu(path, "scene_id,aircraft_idx,t,x,y,z", keys,
                      np.concatenate(times), np.vstack(points))


def write_procedures(path: Path) -> None:
    """YAML stream of JSON-style documents, which YAML parses as mappings."""
    docs = []
    for name, wps in rv_waypoints().items():
        lat, lon, _ = enu_to_geodetic(wps)
        docs.append({"name": name, "kind": "radar_vector", "frequency": 0.5,
                     "duration_s": RV_TRANSIT_S,
                     "waypoints": [[float(a), float(b)] for a, b in zip(lat, lon)]})
    lat, lon, alt = enu_to_geodetic(IAP_ENU)
    docs.append({"name": IAP_NAME, "kind": "IAP", "frequency": 1.0,
                 "duration_s": None,
                 "waypoints": [[float(a), float(b), float(c)]
                               for a, b, c in zip(lat, lon, alt)]})
    path.write_text("".join("---\n" + json.dumps(d) + "\n" for d in docs),
                    encoding="utf-8")


def write_config(path: Path, spec: Spec, seed: int) -> None:
    lines = [
        f"origin_lat = {ORIGIN_LAT}", f"origin_lon = {ORIGIN_LON}",
        f"origin_alt_ft = {ORIGIN_ALT_FT}", "radius_nm = 25",
        "landing_ceiling_ft = 500",
        f"t_v = {spec.t_v}", f"t_f = {spec.t_f}", f"n_overlap = {spec.n_overlap}",
        f"k_grid = {','.join(map(str, K_GRID))}", f"rank_grid = {spec.rank_grid}",
        "k_rv = 2", "k_fa = 2", f"rank_rv = {spec.rank}", f"rank_fa = {spec.rank}",
        "k_pairwise = 1", f"rank_pairwise = {PAIRWISE_RANK}",
        "pairing_window_s = 180", "segment_threshold_nm = 1",
        "tracks = tracks.csv", "procedures = procedures.yaml",
        "out_dir = out", f"seed = {seed}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build(base: Path, spec: Spec, seed: int) -> dict:
    """Write every input of a workload under ``base``; return its manifest.

    The manifest maps each file to its sha256 digest and records the
    procedure that generated each training flight, by track id.
    """
    base.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 20230317]))
    write_procedures(base / "procedures.yaml")
    write_config(base / "run.cfg", spec, seed)
    truth = {}
    if spec.flights:
        flights = make_flights(rng, spec.flights, spec.t_v, spec.t_f)
        write_tracks(base / "tracks.csv", flights, arrival_offsets(rng, flights))
        truth = {f"AC{i:05d}": f.procedure for i, f in enumerate(flights)}
    if spec.paper_models:
        out = base / "out"
        out.mkdir(exist_ok=True)
        for name, doc in paper_models(rng, spec).items():
            (out / name).write_text(json.dumps(doc, sort_keys=True),
                                    encoding="utf-8")
    held = max(spec.holdout, spec.holdout_scenes * spec.scene_aircraft)
    if held:
        flights = make_flights(rng, held, spec.t_v, spec.t_f)
        if spec.holdout:
            write_trajectories(base / "truth_trajectories.csv",
                               flights[:spec.holdout])
        if spec.holdout_scenes:
            write_scenes(base / "truth_scenes.csv", flights,
                         arrival_offsets(rng, flights), spec.scene_aircraft,
                         spec.holdout_scenes)
    files = sorted(p for p in base.rglob("*") if p.is_file())
    return {"digests": {str(p.relative_to(base)): sha256(p) for p in files},
            "procedure_of": truth}
