"""Synthetic ground-truth corpus for end-to-end pipeline tests.

The geometry mimics a terminal area: two mirrored radar-vector arcs hand off
onto a straight 3-waypoint final approach ending at the airport. A known
two-component deviation mixture per segment defines the ground truth; tracks
are written as geodetic CSV so the full ingest -> train -> generate pipeline
can try to recover the generating distribution.
"""

from pathlib import Path

import numpy as np

from trafgen.ingest import AirspaceConfig, enu_to_wgs84
from trafgen.mixture import GaussianComponent, MixtureModel
from trafgen.preprocess import path_length
from trafgen.procedures import (Procedure, ProcedureKind,
                                build_procedural_trajectory, save_procedures)
from trafgen.single_model import SingleTrajectoryModel, generate

# default segment lengths and overlap of the test corpus; the paper's are
# T_v = 350, T_f = 150 and n_overlap = 10
T_V, T_F, N_OVERLAP = 40, 20, 1

AIRSPACE = AirspaceConfig(origin_lat=40.6413, origin_lon=-73.7781,
                          origin_alt_ft=13.0, radius_nm=25.0)

# final approach: straight-in from (8000, 8000) m at 450 m AGL to the airport
_IAP_WAYPOINTS_ENU = np.array([
    [8000.0, 8000.0, 450.0],
    [4000.0, 4000.0, 225.0],
    [0.0, 0.0, 0.0],
])

# mean altitude (m) of the radar-vector arcs at their start and their end
_RV_DESCENT = (1800.0, 450.0)

# radar-vector arc from the northwest; last waypoint is the IAP start
_RV_A_WAYPOINTS_XY = np.array([
    [-32000.0, 18000.0],
    [-20000.0, 16500.0],
    [-8000.0, 15500.0],
    [4000.0, 14500.0],
    [12000.0, 12000.0],
    [8000.0, 8000.0],
])


def _enu_waypoints_to_procedure(name, kind, xy_or_xyz, frequency):
    pts = np.asarray(xy_or_xyz, dtype=float)
    has_alt = pts.shape[1] == 3
    enu = pts if has_alt else np.column_stack([pts, np.zeros(len(pts))])
    lat, lon, alt_ft = enu_to_wgs84(enu, AIRSPACE)
    waypoints = [
        (float(la), float(lo), float(af) if has_alt else None)
        for la, lo, af in zip(lat, lon, alt_ft)
    ]
    return Procedure(name=name, kind=kind, waypoints=waypoints,
                     frequency=frequency)


def gt_procedures() -> list[Procedure]:
    """Two mirrored radar-vector arcs plus the final approach."""
    rv_b_xy = _RV_A_WAYPOINTS_XY[:, ::-1].copy()  # mirror across the IAP axis
    return [
        _enu_waypoints_to_procedure("RV_WEST", ProcedureKind.RADAR_VECTOR,
                                    _RV_A_WAYPOINTS_XY, 0.65),
        _enu_waypoints_to_procedure("RV_SOUTH", ProcedureKind.RADAR_VECTOR,
                                    rv_b_xy, 0.35),
        _enu_waypoints_to_procedure("IAP_MAIN", ProcedureKind.IAP,
                                    _IAP_WAYPOINTS_ENU, 1.0),
    ]


def gt_procedure_set(t_v=T_V, t_f=T_F):
    """The radar-vector procedural trajectories, their frequencies scaled to
    sum to 1, and the IAP's, as ``trafgen generate`` loads them."""
    procs = gt_procedures()
    total = float(sum(p.frequency for p in procs[:2]))
    return ([build_procedural_trajectory(p, t_v, AIRSPACE) for p in procs[:2]],
            [p.frequency / total for p in procs[:2]],
            build_procedural_trajectory(procs[2], t_f, AIRSPACE))


def generate_drawn(model, procs, rng):
    """``generate`` against a radar-vector procedure of ``procs``, a
    ``gt_procedure_set`` tuple, drawn by frequency from ``rng`` first, as
    ``trafgen generate`` draws it. Returns (procedure name, times, points,
    components)."""
    rv_trajs, frequencies, iap = procs
    rv_proc = rv_trajs[int(rng.choice(len(rv_trajs), p=frequencies))]
    return rv_proc.procedure, *generate(model, rv_proc.points, iap.points, rng)


def _smooth_cov_factor(t_len, dim, scales, time_scale, dist_scale, seed):
    """Low-rank factor: smooth deviation shapes plus time/distance spread."""
    rng = np.random.default_rng(seed)
    u = np.linspace(0.0, 1.0, t_len)
    shapes = [np.sin(np.pi * u), np.sin(2.0 * np.pi * u), 4.0 * u * (1.0 - u)]
    factor = np.zeros((dim, 5))
    factor[0, 3] = time_scale
    factor[1, 4] = dist_scale
    for col, shape in enumerate(shapes):
        loading = rng.normal(scale=scales, size=3)
        factor[2:, col] = np.outer(shape, loading).ravel()
    return factor


def _overlap_path(procs, t_f, n_overlap):
    """Mean path of a final-approach row under ingest's overlap rule.

    Ingest opens each row with the n_overlap - 1 radar-vector samples before
    the join (here the mean of the two arcs' tails at their mean altitude),
    then resamples the approach itself to T_f - n_overlap + 1 samples.
    """
    rv_trajs, _, _ = procs
    t_v = rv_trajs[0].points.shape[0]
    lead = slice(t_v - n_overlap, t_v - 1)
    tail = np.mean([rv.points[lead] for rv in rv_trajs], axis=0)
    u = np.linspace(0.0, 1.0, t_v)[lead]
    tail[:, 2] += _RV_DESCENT[0] + (_RV_DESCENT[1] - _RV_DESCENT[0]) * u
    approach = build_procedural_trajectory(gt_procedures()[2], t_f - n_overlap + 1,
                                           AIRSPACE)
    return np.vstack([tail, approach.points])


def _gt_component(proc_traj, t_len, lane_offset, descent, transit_mean,
                  scales, time_scale, dist_scale, weight, seed, path=None):
    """A component around ``proc_traj``, or around ``path`` (same speed)."""
    dim = 3 * t_len + 2
    u = np.linspace(0.0, 1.0, t_len)
    mean = np.zeros(dim)
    mean[0] = transit_mean
    mean[1] = path_length(proc_traj.points)
    mean[2::3] = lane_offset * np.sin(np.pi * u)
    if descent is not None:
        mean[4::3] = descent[0] + (descent[1] - descent[0]) * u
    if path is not None:
        mean[1] = path_length(path)
        mean[0] = transit_mean * mean[1] / path_length(proc_traj.points)
        mean[2:] += (path - proc_traj.points).ravel()
    return GaussianComponent(weight=weight, mean=mean,
                             cov_factor=_smooth_cov_factor(
                                 t_len, dim, scales, time_scale, dist_scale,
                                 seed),
                             noise_var=25.0)


def ground_truth_model(t_v=T_V, t_f=T_F,
                       n_overlap=N_OVERLAP) -> SingleTrajectoryModel:
    procs = gt_procedure_set(t_v, t_f)
    (rv_west, _), _, iap = procs
    rv = MixtureModel(components=[
        _gt_component(rv_west, t_v, +350.0, _RV_DESCENT,
                      600.0, 120.0, 25.0, 200.0, 0.5, seed=11),
        _gt_component(rv_west, t_v, -350.0, _RV_DESCENT,
                      600.0, 120.0, 25.0, 200.0, 0.5, seed=12),
    ])
    # final-approach rows follow ingest's overlap rule; at n_overlap = 1 that
    # path is the IAP itself
    path = _overlap_path(procs, t_f, n_overlap) if n_overlap > 1 else None
    fa = MixtureModel(components=[
        _gt_component(iap, t_f, +450.0, None, 160.0, 40.0, 8.0, 100.0,
                      0.5, seed=13, path=path),
        _gt_component(iap, t_f, -450.0, None, 160.0, 40.0, 8.0, 100.0,
                      0.5, seed=14, path=path),
    ])
    return SingleTrajectoryModel(radar_vector_model=rv, final_approach_model=fa,
                                 n_overlap=n_overlap)


def generate_actual(n, seed, t_v=T_V, t_f=T_F, n_overlap=N_OVERLAP):
    """Ground-truth trajectories, as ``generate_drawn`` tuples."""
    model = ground_truth_model(t_v, t_f, n_overlap)
    procs = gt_procedure_set(t_v, t_f)
    rng = np.random.default_rng(seed)
    return [generate_drawn(model, procs, rng) for _ in range(n)]


def write_tracks_csv(path: Path, trajectories, spacing_range=(80.0, 140.0),
                     seed=0) -> None:
    """Write ``generate_drawn`` trajectories as a geodetic track CSV with
    stacked arrival times."""
    rng = np.random.default_rng(seed)
    offset = 0.0
    lines = ["id,time,lat,lon,alt"]
    for i, (_, times, points, _) in enumerate(trajectories):
        offset += float(rng.uniform(*spacing_range))
        lat, lon, alt_ft = enu_to_wgs84(points, AIRSPACE)
        for t, la, lo, af in zip(times, lat, lon, alt_ft):
            lines.append(f"AC{i:05d},{float(t + offset)!r},{float(la)!r},"
                         f"{float(lo)!r},{float(af)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_intrail_records(n, *, rho=0.95, seed=0, transit_mean=400.0,
                         transit_std=40.0, gap_mean=120.0, gap_std=15.0,
                         segment_samples=12):
    """In-trail arrival chain whose successive transit times correlate.

    All aircraft fly the same straight-in procedure at the same altitude;
    the only strong pair correlation is between transit times (a follower
    holds the leader's speed). Returns the (n, 3T+2) deviation matrix, the
    procedure name and the arrival time of each row, and the procedural
    points.
    """
    rng = np.random.default_rng(seed)
    u = np.linspace(0.0, 1.0, segment_samples)
    points = np.column_stack(
        [-30000.0 * (1.0 - u), np.zeros(segment_samples),
         np.zeros(segment_samples)])
    length = 30000.0

    taus, arrivals = [], []
    arrival = 0.0
    z_prev = rng.standard_normal()
    for _ in range(n):
        z = rho * z_prev + np.sqrt(1.0 - rho ** 2) * rng.standard_normal()
        z_prev = z
        transit = transit_mean + transit_std * z
        gap = max(float(rng.normal(gap_mean, gap_std)), 40.0)
        arrival += gap
        dev = rng.normal(scale=20.0, size=(segment_samples, 3))
        dev[:, 2] = rng.normal(scale=3.0, size=segment_samples)
        distance = length + rng.normal(scale=30.0)
        taus.append(np.concatenate([[transit, distance], dev.ravel()]))
        arrivals.append(arrival)
    return np.stack(taus), ["INTRAIL"] * n, np.array(arrivals), points


def write_corpus(base: Path, n_flights=300, seed=0, *,
                 t_v=T_V, t_f=T_F, n_overlap=N_OVERLAP,
                 k_grid="2,3,4", rank_grid="1,2,4,6,8",
                 explicit_choice=False) -> Path:
    """Write tracks, procedures, and a run config; returns the config path."""
    base.mkdir(parents=True, exist_ok=True)
    write_tracks_csv(base / "tracks.csv",
                     generate_actual(n_flights, seed, t_v, t_f, n_overlap),
                     seed=seed + 1)
    save_procedures(gt_procedures(), base / "procedures.yaml")
    chosen = ""
    if explicit_choice:
        chosen = "k_rv = 2\nk_fa = 2\nrank_rv = 6\nrank_fa = 6\n"
    config = (
        f"origin_lat = {AIRSPACE.origin_lat}\n"
        f"origin_lon = {AIRSPACE.origin_lon}\n"
        f"origin_alt_ft = {AIRSPACE.origin_alt_ft}\n"
        f"radius_nm = {AIRSPACE.radius_nm}\n"
        "landing_ceiling_ft = 500\n"
        f"t_v = {t_v}\n"
        f"t_f = {t_f}\n"
        f"n_overlap = {n_overlap}\n"
        f"k_grid = {k_grid}\n"
        f"rank_grid = {rank_grid}\n"
        "pairing_window_s = 180\n"
        "segment_threshold_nm = 1\n"
        "k_pairwise = 1\n"
        "rank_pairwise = 8\n"
        "tracks = tracks.csv\n"
        "procedures = procedures.yaml\n"
        "out_dir = out\n"
        "seed = 0\n"
        f"{chosen}"
    )
    config_path = base / "run.cfg"
    config_path.write_text(config, encoding="utf-8")
    return config_path
