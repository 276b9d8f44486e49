import sys

# trafgen before numpy, as in the trafgen command: it pins BLAS to one thread
# only while numpy is not loaded, so in-process CLI runs write the same bytes
NUMPY_BEFORE_TRAFGEN = "numpy" in sys.modules
import trafgen  # noqa: E402, F401

import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
import pytest

from trafgen.ingest import AirspaceConfig, Flight
from trafgen.mixture import GaussianComponent, MixtureModel, compress_model
from trafgen.preprocess import (build_deviation_vector, pchip_resample,
                                reconstruct_trajectory)
from trafgen.procedures import ProceduralTrajectory


@pytest.fixture
def airspace():
    # JFK-like reference point
    return AirspaceConfig(origin_lat=40.6413, origin_lon=-73.7781,
                          origin_alt_ft=13.0, radius_nm=25.0)


def make_flight(flight_id, times, lats, lons, alts):
    points = np.column_stack([times, lats, lons, alts]).astype(float)
    return Flight(id=flight_id, points=points)


def one_deviation(times, points, proc_points):
    """The deviation vector of one trajectory, which must not be rejected."""
    rows, rejected = build_deviation_vector(
        np.asarray(times)[None], np.asarray(points)[None], proc_points)
    assert rejected == {}
    return rows[0]


def resample_one(times, values, count):
    """One sequence through ``pchip_resample`` as the batch of one, which
    must not be rejected: (count,) times and (count, ...) values."""
    new_times, new_values, rejected = pchip_resample([times], [values], count)
    assert rejected == {}
    return new_times[0], new_values[0]


def rebuild_one(tau, proc_points):
    """The (T,) times and (T, 3) points of one deviation vector against the
    procedural points ``proc_points`` (T, 3)."""
    times, points = reconstruct_trajectory(np.asarray(tau)[None], proc_points)
    return times[0], points[0]


def make_proc_traj(points, name="PROC"):
    """ProceduralTrajectory straight from an ENU point array (test shortcut)."""
    return ProceduralTrajectory(procedure=name, points=points)


def assert_bitwise(got, want):
    """Same type, same values (nan equal to nan) and same sign bits."""
    assert type(got) is type(want)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def peak_traced_bytes(fn):
    """Peak bytes that Python allocation rises above its start level while
    ``fn()`` runs, and ``fn()``'s result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base, result


def ppca(data, rank):
    """PPCA of the rows of ``data`` (Tipping & Bishop 1999) through
    ``compress_model``: the compressed component of a one-component model
    whose covariance is the sample covariance, with factor
    ((X - mean) / sqrt(m))^T and no noise."""
    mean = data.mean(axis=0)
    comp = GaussianComponent(1.0, mean, ((data - mean) / np.sqrt(len(data))).T)
    return compress_model(MixtureModel(components=[comp]), rank).components[0]
