"""Nominal-path extraction and procedural trajectory construction."""

import math
import re

import numpy as np
import pytest

from trafgen.errors import DataError
from trafgen.ingest import enu_to_wgs84, flight_to_enu
from trafgen.preprocess import path_length, point_to_polyline_distance
from trafgen.procedures import (WAYPOINT_COUNT, Procedure, ProcedureKind,
                                build_procedural_trajectory,
                                extract_nominal_paths, load_procedures,
                                save_procedures, waypoints_to_enu)

import corpus
from conftest import assert_bitwise, make_flight, resample_one
from oracles import pchip_resample_scipy


def enu_track_flight(airspace, flight_id, times, enu_points):
    lat, lon, alt = enu_to_wgs84(np.asarray(enu_points, dtype=float), airspace)
    return make_flight(flight_id, times, lat, lon, alt)


def bundle_track(airspace, y_offset, duration, n=40, noise=0.0, seed=0):
    """ENU track, via a recorded flight, along y = ``y_offset``."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-20000.0, 0.0, n)
    y = np.full(n, y_offset) + rng.normal(scale=noise, size=n)
    z = np.linspace(2000.0, 100.0, n)
    times = np.linspace(0.0, duration, n)
    flight = enu_track_flight(airspace, "bundle", times,
                              np.column_stack([x, y, z]))
    return flight_to_enu([flight], airspace)[0]


# ---------------------------------------------------------------------------
# extract_nominal_paths

def test_single_cluster_is_pointwise_mean(airspace):
    tracks = [bundle_track(airspace, y, 400.0) for y in [-1000.0, 0.0, 1000.0]]
    samples = WAYPOINT_COUNT  # every resampled point is a waypoint
    paths, dropped = extract_nominal_paths(tracks, 1, airspace, samples=samples,
                                           rng=0)
    assert dropped == {}
    assert len(paths) == 1
    assert paths[0].kind is ProcedureKind.RADAR_VECTOR
    assert paths[0].frequency == pytest.approx(1.0)

    resampled = [resample_one(times, xyz[:, :2], samples)[1]
                 for times, xyz in tracks]
    expected = np.mean(resampled, axis=0)
    got = waypoints_to_enu(paths[0], airspace)[:, :2]
    assert np.allclose(got, expected, atol=1e-6)


def test_two_bundles_recovered_within_envelopes(airspace):
    rng_seed = 0
    tracks = []
    for i in range(12):
        tracks.append(bundle_track(airspace, -6000.0, 380.0, noise=150.0,
                                   seed=100 + i))
    for i in range(8):
        tracks.append(bundle_track(airspace, 6000.0, 440.0, noise=150.0,
                                   seed=200 + i))
    paths, _ = extract_nominal_paths(tracks, 2, airspace, samples=30, rng=rng_seed)
    assert len(paths) == 2
    mean_ys = sorted(np.mean(waypoints_to_enu(p, airspace)[:, 1]) for p in paths)
    assert abs(mean_ys[0] - (-6000.0)) < 500.0
    assert abs(mean_ys[1] - 6000.0) < 500.0
    assert sorted(p.frequency for p in paths) == pytest.approx([8 / 20, 12 / 20])


def test_identical_flights_collapse_to_common_path(airspace):
    tracks = [bundle_track(airspace, 0.0, 400.0) for _ in range(5)]
    paths, _ = extract_nominal_paths(tracks, 2, airspace, samples=20, rng=1)
    # every restart leaves one cluster empty; output keeps the common path
    assert len(paths) == 1
    assert paths[0].frequency == pytest.approx(1.0)


def test_more_clusters_than_flights_rejected(airspace):
    tracks = [bundle_track(airspace, 0.0, 400.0)]
    with pytest.raises(DataError, match="only 1 arrivals for k=2"):
        extract_nominal_paths(tracks, 2, airspace)


# ---------------------------------------------------------------------------
# build_procedural_trajectory

def two_waypoint_procedure(airspace):
    start = enu_to_wgs84(np.array([-10000.0, 0.0, 0.0]), airspace)
    end = enu_to_wgs84(np.array([0.0, 0.0, 0.0]), airspace)
    return Procedure(name="LINE", kind=ProcedureKind.IAP, waypoints=[
        (float(start[0]), float(start[1]), float(start[2])),
        (float(end[0]), float(end[1]), float(end[2])),
    ])


def test_two_waypoints_give_equally_spaced_points(airspace):
    proc = two_waypoint_procedure(airspace)
    traj = build_procedural_trajectory(proc, 5, airspace)
    # collinear and equally spaced
    deltas = np.diff(traj.points, axis=0)
    assert np.allclose(deltas, deltas[0], atol=1e-6)


def test_monotone_waypoints_give_monotone_resampling(airspace):
    xs = np.array([-20000.0, -12000.0, -11000.0, -4000.0, 0.0])
    ys = np.array([5000.0, -2000.0, 3000.0, 1000.0, 0.0])
    wps_enu = np.column_stack([xs, ys, np.zeros(5)])
    lat, lon, alt = enu_to_wgs84(wps_enu, airspace)
    proc = Procedure(name="MONO", kind=ProcedureKind.RADAR_VECTOR,
                     waypoints=[(float(a), float(b), float(c))
                                for a, b, c in zip(lat, lon, alt)])
    traj = build_procedural_trajectory(proc, 100, airspace)
    assert np.all(np.diff(traj.points[:, 0]) > -1e-9)


def test_waypoints_hit_within_a_meter(airspace):
    xs = np.array([-30000.0, -20000.0, -10000.0, -3000.0, 0.0])
    ys = np.array([8000.0, 2000.0, 6000.0, 1000.0, 0.0])
    zs = np.array([2500.0, 2000.0, 1200.0, 400.0, 0.0])
    lat, lon, alt = enu_to_wgs84(np.column_stack([xs, ys, zs]), airspace)
    proc = Procedure(name="CURVY", kind=ProcedureKind.RADAR_VECTOR,
                     waypoints=[(float(a), float(b), float(c))
                                for a, b, c in zip(lat, lon, alt)])
    traj = build_procedural_trajectory(proc, 400, airspace)
    wps = waypoints_to_enu(proc, airspace)
    dists = point_to_polyline_distance(wps[:, :2], traj.points[:, :2])
    assert dists.max() < 1.0


def test_total_distance_at_least_straight_line(airspace):
    xs = np.array([-30000.0, -20000.0, -10000.0, 0.0])
    ys = np.array([8000.0, -4000.0, 6000.0, 0.0])
    lat, lon, alt = enu_to_wgs84(
        np.column_stack([xs, ys, np.zeros(4)]), airspace)
    proc = Procedure(name="ZIGZAG", kind=ProcedureKind.RADAR_VECTOR,
                     waypoints=[(float(a), float(b), None)
                                for a, b in zip(lat, lon)])
    traj = build_procedural_trajectory(proc, 50, airspace)
    straight = np.linalg.norm(traj.points[-1] - traj.points[0])
    assert path_length(traj.points) >= straight
    assert path_length(traj.points) == pytest.approx(
        sum(np.linalg.norm(b - a) for a, b in zip(traj.points, traj.points[1:])))


def test_procedural_trajectories_equal_scipy_resampling(airspace):
    # the corpus's procedures (altitudes given and not) and a curvy one of
    # more waypoints
    lat, lon, alt = enu_to_wgs84(np.column_stack([
        np.linspace(-30000.0, 0.0, 9), 6000.0 * np.sin(np.arange(9.0)),
        np.linspace(2500.0, 0.0, 9)]), airspace)
    procs = corpus.gt_procedures() + [
        Procedure(name="CURVY", kind=ProcedureKind.RADAR_VECTOR,
                  waypoints=list(zip(lat.tolist(), lon.tolist(), alt.tolist())))]
    for count in (12, 40, 350):
        for proc in procs:
            traj = build_procedural_trajectory(proc, count, airspace)
            # the procedure's own conversion, chord and scipy's resampling
            wps = waypoints_to_enu(proc, airspace)
            chord = np.concatenate(
                ([0.0], np.cumsum(np.linalg.norm(np.diff(wps, axis=0), axis=1))))
            want = pchip_resample_scipy(chord, wps, count)[1]
            assert traj.procedure == proc.name
            assert_bitwise(traj.points, want)
            assert path_length(traj.points) == path_length(want)


def test_bad_waypoints_raise_their_messages(airspace):
    _, rv, _ = corpus.gt_procedures()
    waypoints = list(rv.waypoints)
    waypoints[1] = (math.nan, *waypoints[1][1:])
    with pytest.raises(ValueError, match="^" + re.escape(
            "`x` must contain only finite values.") + "$"):
        build_procedural_trajectory(Procedure("NAN", ProcedureKind.RADAR_VECTOR,
                                              waypoints), 40, airspace)
    # a repeated waypoint gives its own message, whatever resampling rejects
    waypoints[4] = waypoints[3]
    with pytest.raises(ValueError, match="^procedure 'REP' repeats a waypoint$"):
        build_procedural_trajectory(Procedure("REP", ProcedureKind.RADAR_VECTOR,
                                              waypoints), 40, airspace)


def test_build_rejects_degenerate_inputs(airspace):
    proc = two_waypoint_procedure(airspace)
    with pytest.raises(ValueError):
        build_procedural_trajectory(proc, 1, airspace)
    with pytest.raises(ValueError):
        Procedure(name="ONE", kind=ProcedureKind.IAP,
                  waypoints=[(40.0, -73.0, None)])


# ---------------------------------------------------------------------------
# procedure files

def test_procedure_file_round_trip(tmp_path, airspace):
    procs = [
        Procedure(name="RV_A", kind=ProcedureKind.RADAR_VECTOR,
                  waypoints=[(40.7, -73.9, None), (40.65, -73.8, None)],
                  frequency=0.7),
        Procedure(name="IAP_B", kind=ProcedureKind.IAP,
                  waypoints=[(40.72, -73.82, 1800.0), (40.6413, -73.7781, 13.0)],
                  frequency=1.0),
    ]
    path = tmp_path / "procs.yaml"
    save_procedures(procs, path)
    again = load_procedures(path)
    assert [p.name for p in again] == ["RV_A", "IAP_B"]
    assert again[0].kind is ProcedureKind.RADAR_VECTOR
    assert again[1].waypoints[0][2] == 1800.0
    assert again[0].waypoints[0][2] is None


def test_null_altitudes_and_int_values_load(tmp_path):
    path = tmp_path / "procs.yaml"
    path.write_text("name: RV_A\nkind: radar_vector\nfrequency: 1\n"
                    "waypoints:\n- [40.7, -73.9, null]\n- [40, -73.8]\n",
                    encoding="utf-8")
    (proc,) = load_procedures(path)
    assert proc.waypoints == [(40.7, -73.9, None), (40.0, -73.8, None)]
    assert proc.frequency == 1.0


def test_duration_key_does_not_change_the_trajectory(tmp_path, airspace):
    plain, timed = tmp_path / "plain.yaml", tmp_path / "timed.yaml"
    save_procedures([two_waypoint_procedure(airspace)], plain)
    timed.write_text(plain.read_text(encoding="utf-8") + "duration_s: 540.0\n",
                     encoding="utf-8")
    trajs = [build_procedural_trajectory(load_procedures(path)[0], 20, airspace)
             for path in (plain, timed)]
    assert np.array_equal(trajs[0].points, trajs[1].points)
    assert path_length(trajs[0].points) == path_length(trajs[1].points)


def test_load_procedures_errors(tmp_path):
    with pytest.raises(DataError):
        load_procedures(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: X\nkind: IAP\nwaypoints: [[40.0]]\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_procedures(bad)
