"""Track parsing, geodesy, and flight classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafgen.cli import RunConfig
from trafgen.errors import DataError
from trafgen.ingest import (AirspaceConfig, FlightClass, classify_flight,
                            enu_to_wgs84, flight_to_enu, parse_tracks,
                            wgs84_to_enu)
from trafgen.units import FT_TO_M, NM_TO_M

import corpus
from conftest import assert_bitwise, make_flight


# ---------------------------------------------------------------------------
# Independent geodesy oracle: plain-math ECEF/ENU evaluation, no numpy reuse.

_A = 6378137.0
_F = 1.0 / 298.257223563
_E2 = _F * (2.0 - _F)


def oracle_ecef(lat_deg, lon_deg, alt_m):
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    n = _A / math.sqrt(1.0 - _E2 * math.sin(lat) ** 2)
    return (
        (n + alt_m) * math.cos(lat) * math.cos(lon),
        (n + alt_m) * math.cos(lat) * math.sin(lon),
        (n * (1.0 - _E2) + alt_m) * math.sin(lat),
    )


def oracle_enu(lat_deg, lon_deg, alt_m, ref_lat, ref_lon, ref_alt_m):
    x, y, z = oracle_ecef(lat_deg, lon_deg, alt_m)
    xr, yr, zr = oracle_ecef(ref_lat, ref_lon, ref_alt_m)
    dx, dy, dz = x - xr, y - yr, z - zr
    lat, lon = math.radians(ref_lat), math.radians(ref_lon)
    east = -math.sin(lon) * dx + math.cos(lon) * dy
    north = (-math.sin(lat) * math.cos(lon) * dx
             - math.sin(lat) * math.sin(lon) * dy + math.cos(lat) * dz)
    up = (math.cos(lat) * math.cos(lon) * dx
          + math.cos(lat) * math.sin(lon) * dy + math.sin(lat) * dz)
    return east, north, up


def vincenty_inverse(lat1, lon1, lat2, lon2, tol=1e-13, max_iter=200):
    """Geodesic distance on the WGS84 ellipsoid (Vincenty's formulae)."""
    b = _A * (1.0 - _F)
    u1 = math.atan((1.0 - _F) * math.tan(math.radians(lat1)))
    u2 = math.atan((1.0 - _F) * math.tan(math.radians(lat2)))
    ell = math.radians(lon2 - lon1)
    lam = ell
    for _ in range(max_iter):
        sin_sigma = math.hypot(
            math.cos(u2) * math.sin(lam),
            math.cos(u1) * math.sin(u2)
            - math.sin(u1) * math.cos(u2) * math.cos(lam))
        if sin_sigma == 0.0:
            return 0.0
        cos_sigma = (math.sin(u1) * math.sin(u2)
                     + math.cos(u1) * math.cos(u2) * math.cos(lam))
        sigma = math.atan2(sin_sigma, cos_sigma)
        sin_alpha = math.cos(u1) * math.cos(u2) * math.sin(lam) / sin_sigma
        cos2_alpha = 1.0 - sin_alpha ** 2
        cos_2sm = (cos_sigma - 2.0 * math.sin(u1) * math.sin(u2) / cos2_alpha
                   if cos2_alpha else 0.0)
        c = _F / 16.0 * cos2_alpha * (4.0 + _F * (4.0 - 3.0 * cos2_alpha))
        lam_next = ell + (1.0 - c) * _F * sin_alpha * (
            sigma + c * sin_sigma * (
                cos_2sm + c * cos_sigma * (-1.0 + 2.0 * cos_2sm ** 2)))
        if abs(lam_next - lam) < tol:
            lam = lam_next
            break
        lam = lam_next
    u_sq = cos2_alpha * (_A ** 2 - b ** 2) / b ** 2
    big_a = 1.0 + u_sq / 16384.0 * (
        4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq)))
    big_b = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    delta_sigma = big_b * sin_sigma * (
        cos_2sm + big_b / 4.0 * (
            cos_sigma * (-1.0 + 2.0 * cos_2sm ** 2)
            - big_b / 6.0 * cos_2sm * (-3.0 + 4.0 * sin_sigma ** 2)
            * (-3.0 + 4.0 * cos_2sm ** 2)))
    return b * big_a * (sigma - delta_sigma)


# ---------------------------------------------------------------------------
# parse_tracks

def write_csv(tmp_path, text, name="tracks.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_groups_by_id(tmp_path):
    path = write_csv(tmp_path, (
        "id,time,lat,lon,alt\n"
        "a,0,40.6,-73.7,1000\n"
        "a,10,40.61,-73.71,1100\n"
        "a,20,40.62,-73.72,1200\n"
        "b,5,40.5,-73.6,2000\n"
        "b,15,40.51,-73.61,2100\n"
        "b,25,40.52,-73.62,2200\n"
    ))
    flights, errors = parse_tracks(path)
    assert errors == []
    assert sorted(f.id for f in flights) == ["a", "b"]
    assert all(len(f.points) == 3 for f in flights)


def test_parse_sorts_out_of_order_rows(tmp_path):
    path = write_csv(tmp_path, (
        "id,time,lat,lon,alt\n"
        "a,20,40.62,-73.72,1200\n"
        "a,0,40.6,-73.7,1000\n"
        "a,10,40.61,-73.71,1100\n"
    ))
    flights, _ = parse_tracks(path)
    assert flights[0].points[:, 0].tolist() == [0.0, 10.0, 20.0]


def test_parse_rejects_bad_latitude_row_keeps_rest(tmp_path):
    path = write_csv(tmp_path, (
        "id,time,lat,lon,alt\n"
        "a,0,40.6,-73.7,1000\n"
        "a,10,95,-73.71,1100\n"
        "a,20,40.62,-73.72,1200\n"
    ))
    flights, errors = parse_tracks(path)
    assert len(errors) == 1 and "lat" in errors[0]
    assert len(flights) == 1 and len(flights[0].points) == 2


def test_parse_deduplicates_timestamps_keeping_first(tmp_path):
    # flight b: eight timestamps in falling order, then the same eight again
    # at another latitude; an unstable sort would keep some of the second pass
    repeated = "".join(f"b,{t},{lat},-73.7,1000\n"
                       for lat in (40.7, 40.8) for t in range(7, -1, -1))
    path = write_csv(tmp_path, (
        "id,time,lat,lon,alt\n"
        "a,0,40.60,-73.7,1000\n"
        "a,10,40.61,-73.7,1100\n"
        "a,10,40.99,-73.7,9999\n"
    ) + repeated)
    flights, _ = parse_tracks(path)
    assert flights[0].points[:, 1].tolist() == [40.60, 40.61]
    assert flights[1].points[:, 0].tolist() == list(range(8))
    assert flights[1].points[:, 1].tolist() == [40.7] * 8


def test_parse_errors_give_the_file_line_and_the_missing_column(tmp_path):
    path = write_csv(tmp_path, (
        "id,time,lat,lon,alt\n"
        "a,0,40.6,-73.7,1000\n"
        "\n"
        "\n"
        "a,10,95,-73.71,1100\n"
        "a,20,40.62,-73.72,1200\n"
        "a,30,40.63,-73.73\n"
    ))
    flights, errors = parse_tracks(path)
    assert errors == [f"{path}:5: lat 95.0 outside [-90, 90]",
                      f"{path}:7: missing column 'alt'"]
    assert flights[0].points[:, 0].tolist() == [0.0, 20.0]


def test_parse_missing_file_is_fatal(tmp_path):
    with pytest.raises(DataError):
        parse_tracks(tmp_path / "nope.csv")


def test_parse_bad_header_is_fatal(tmp_path):
    path = write_csv(tmp_path, "foo,bar\n1,2\n")
    with pytest.raises(DataError):
        parse_tracks(path)


def test_parse_optional_speed_columns(tmp_path):
    path = write_csv(tmp_path, (
        "id,time,lat,lon,alt,gs,vr\n"
        "a,0,40.6,-73.7,1000,250,-800\n"
        "a,10,40.61,-73.71,1100,,\n"
        "a,20,40.62,-73.72,1200,fast,-800\n"
        "a,30,40.63,-73.73,1300,250,-800\n"
    ))
    flights, errors = parse_tracks(path)
    assert flights[0].points[:, 0].tolist() == [0.0, 10.0, 30.0]
    assert len(errors) == 1 and errors[0].startswith(f"{path}:4: ")
    assert "'fast'" in errors[0]


# ---------------------------------------------------------------------------
# wgs84_to_enu

def test_origin_maps_to_zero(airspace):
    enu = wgs84_to_enu(airspace.origin_lat, airspace.origin_lon,
                       airspace.origin_alt_ft, airspace)
    assert np.linalg.norm(enu) < 1e-6


def test_point_due_north_has_positive_y(airspace):
    enu = wgs84_to_enu(airspace.origin_lat + 0.01, airspace.origin_lon,
                       airspace.origin_alt_ft, airspace)
    assert abs(enu[0]) < 1.0
    assert enu[1] > 0.0


def test_enu_matches_independent_oracle(airspace):
    enu = wgs84_to_enu(40.70, -73.70, 0.0, airspace)
    expected = oracle_enu(40.70, -73.70, 0.0,
                          airspace.origin_lat, airspace.origin_lon,
                          airspace.origin_alt_ft * FT_TO_M)
    assert np.linalg.norm(enu - np.asarray(expected)) < 0.1


@settings(max_examples=50, deadline=None)
@given(
    d_lat=st.floats(-1.2, 1.2),   # within ~100 NM of the origin
    d_lon=st.floats(-1.5, 1.5),
    alt=st.floats(0.0, 30000.0),
)
def test_enu_round_trip(d_lat, d_lon, alt):
    config = AirspaceConfig(origin_lat=40.6413, origin_lon=-73.7781,
                            origin_alt_ft=13.0)
    lat, lon = 40.6413 + d_lat, -73.7781 + d_lon
    enu = wgs84_to_enu(lat, lon, alt, config)
    lat2, lon2, alt2 = enu_to_wgs84(enu, config)
    assert abs(lat2 - lat) < 1e-9
    assert abs(lon2 - lon) < 1e-9
    assert abs(alt2 - alt) < 1e-3


def test_enu_horizontal_distance_matches_geodesic(airspace):
    rng = np.random.default_rng(7)
    for _ in range(20):
        # two points at the ellipsoid surface inside the airspace
        lat1, lat2 = airspace.origin_lat + rng.uniform(-0.3, 0.3, size=2)
        lon1, lon2 = airspace.origin_lon + rng.uniform(-0.4, 0.4, size=2)
        p1 = wgs84_to_enu(lat1, lon1, 0.0, airspace)
        p2 = wgs84_to_enu(lat2, lon2, 0.0, airspace)
        if np.linalg.norm(p1[:2]) > airspace.radius_m:
            continue
        enu_dist = np.hypot(p2[0] - p1[0], p2[1] - p1[1])
        geo_dist = vincenty_inverse(lat1, lon1, lat2, lon2)
        if geo_dist < 100.0:
            continue
        assert abs(enu_dist - geo_dist) / geo_dist < 1e-3


# ---------------------------------------------------------------------------
# classify_flight

def spiral_arrival(airspace, n=60):
    """Track spiraling from 20 NM down to the origin at 100 ft AGL."""
    t = np.linspace(0.0, 1.0, n)
    radius = (1.0 - t) * 20.0 * NM_TO_M
    angle = 4.0 * np.pi * t
    x, y = radius * np.cos(angle), radius * np.sin(angle)
    z = (1.0 - t) * 8000.0 * FT_TO_M + 100.0 * FT_TO_M
    enu = np.column_stack([x, y, z])
    lat, lon, alt = enu_to_wgs84(enu, airspace)
    return make_flight("spiral", np.arange(n) * 10.0, lat, lon, alt)


def reverse_flight(flight):
    reversed_points = flight.points[::-1]
    return make_flight(flight.id + "-rev", flight.points[:, 0],
                       *reversed_points[:, 1:].T)


def classify(flight, airspace):
    return classify_flight(flight_to_enu([flight], airspace), airspace)[0][0]


def test_spiral_in_is_arrival(airspace):
    assert classify(spiral_arrival(airspace), airspace) is FlightClass.ARRIVAL


def test_reversed_arrival_is_departure(airspace):
    flight = reverse_flight(spiral_arrival(airspace))
    assert classify(flight, airspace) is FlightClass.DEPARTURE


def test_high_chord_is_overflight(airspace):
    n = 40
    x = np.linspace(-20.0, 20.0, n) * NM_TO_M
    y = np.full(n, 5.0 * NM_TO_M)
    z = np.full(n, 10000.0 * FT_TO_M)
    lat, lon, alt = enu_to_wgs84(np.column_stack([x, y, z]), airspace)
    flight = make_flight("chord", np.arange(n) * 15.0, lat, lon, alt)
    assert classify(flight, airspace) is FlightClass.OVERFLIGHT


def test_reverse_symmetry_fixes_overflight(airspace):
    n = 40
    x = np.linspace(-20.0, 20.0, n) * NM_TO_M
    y = np.linspace(-3.0, 8.0, n) * NM_TO_M
    z = np.full(n, 9000.0 * FT_TO_M)
    lat, lon, alt = enu_to_wgs84(np.column_stack([x, y, z]), airspace)
    flight = make_flight("chord2", np.arange(n) * 15.0, lat, lon, alt)
    assert classify(flight, airspace) is FlightClass.OVERFLIGHT
    assert classify(reverse_flight(flight), airspace) is FlightClass.OVERFLIGHT


def test_too_few_points_inside_airspace(airspace):
    # both points far outside the 25 NM radius
    flight = make_flight("far", [0.0, 10.0], [45.0, 45.01], [-70.0, -70.01],
                         [30000.0, 30000.0])
    classes, rejected = classify_flight(flight_to_enu([flight], airspace), airspace)
    assert classes == [None]
    assert rejected == {0: "fewer than 2 points inside the airspace"}


def test_classification_takes_every_track_in_one_call(airspace):
    spiral = spiral_arrival(airspace)
    n = 40
    xyz = np.column_stack([np.linspace(-20.0, 20.0, n) * NM_TO_M,
                           np.full(n, 5.0 * NM_TO_M), np.full(n, 10000.0 * FT_TO_M)])
    chord = make_flight("chord", np.arange(n) * 15.0, *enu_to_wgs84(xyz, airspace))
    # one point inside the airspace, then the rest far outside it
    lone = make_flight("lone", [0.0, 10.0, 20.0], [airspace.origin_lat, 45.0, 45.01],
                       [airspace.origin_lon, -70.0, -70.01], [100.0] * 3)
    far = make_flight("far", [0.0, 10.0], [45.0, 45.01], [-70.0, -70.01],
                      [30000.0, 30000.0])
    flights = [spiral, far, reverse_flight(spiral), lone, chord]
    classes, rejected = classify_flight(flight_to_enu(flights, airspace), airspace)
    assert classes == [FlightClass.ARRIVAL, None, FlightClass.DEPARTURE, None,
                       FlightClass.OVERFLIGHT]
    assert rejected == dict.fromkeys([1, 3], "fewer than 2 points inside the airspace")
    assert classify_flight([], airspace) == ([], {})


def test_airspace_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# airport reference\n"
        "origin_lat = 40.6413\n"
        "origin_lon = -73.7781\n"
        "origin_alt_ft = 13  # field elevation\n"
        "radius_nm = 25\n"
        "landing_ceiling_ft = 500\n",
        encoding="utf-8")
    config = RunConfig.from_file(path).airspace
    assert config.origin_lat == 40.6413
    assert config.origin_alt_ft == 13.0
    assert config.radius_nm == 25.0
    assert config.landing_ceiling_ft == 500.0


def test_airspace_config_requires_origin(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("radius_nm = 25\n", encoding="utf-8")
    with pytest.raises(DataError):
        RunConfig.from_file(path)


def test_airspace_config_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        AirspaceConfig(origin_lat=0.0, origin_lon=0.0, radius_nm=-1.0)


def test_flight_to_enu_of_a_corpus_equals_per_flight_conversion(tmp_path):
    corpus.write_corpus(tmp_path, n_flights=200, seed=3)
    flights, _ = parse_tracks(tmp_path / "tracks.csv")
    tracks = flight_to_enu(flights, corpus.AIRSPACE)
    assert len(tracks) == len(flights) == 200
    for flight, (times, xyz) in zip(flights, tracks):
        # the flight converted alone, clipped to the airspace and rebased
        want_times, lats, lons, alts = flight.points.T
        want_xyz = wgs84_to_enu(lats, lons, alts, corpus.AIRSPACE)
        inside = np.hypot(want_xyz[:, 0], want_xyz[:, 1]) <= corpus.AIRSPACE.radius_m
        assert_bitwise(times, want_times[inside] - want_times[inside][0])
        assert_bitwise(xyz, want_xyz[inside])
    assert flight_to_enu([], corpus.AIRSPACE) == []


def test_flight_to_enu_clips_and_rebases(airspace):
    n = 30
    x = np.linspace(-30.0, 0.0, n) * NM_TO_M  # starts outside 25 NM
    y = np.zeros(n)
    z = np.full(n, 3000.0 * FT_TO_M)
    lat, lon, alt = enu_to_wgs84(np.column_stack([x, y, z]), airspace)
    flight = make_flight("clip", np.arange(n) * 10.0, lat, lon, alt)
    (times, xyz), = flight_to_enu([flight], airspace)
    assert len(times) < n
    assert times[0] == 0.0
    assert np.all(np.hypot(xyz[:, 0], xyz[:, 1]) <= airspace.radius_m + 1e-6)
