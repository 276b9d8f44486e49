"""DTW, segmentation, PCHIP resampling, and deviation-vector round trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafgen import preprocess
from trafgen.errors import InvalidDeviation
from trafgen.preprocess import (assign_procedures, build_deviation_vector,
                                dtw_distances, path_length, pchip_resample,
                                point_to_polyline_distance,
                                reconstruct_trajectory, segment_trajectory)

from conftest import (assert_bitwise, make_proc_traj, one_deviation,
                      rebuild_one, resample_one)
from oracles import (dtw_brute_force, dtw_loop, local_cost_stacked,
                     pchip_resample_scipy, point_to_polyline_distance_stacked)


def dtw(a, b):
    """DTW of one pair through the batched kernel; a 1-D sequence is a
    column of 1-D points."""
    a, b = (np.reshape(np.asarray(x, dtype=float), (len(x), -1)) for x in (a, b))
    return dtw_distances(a[None], b[None])[0, 0]


def test_dtw_identical_sequences_is_zero():
    assert dtw([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_dtw_constant_sequences_warp_freely():
    assert dtw([0.0], [0.0, 0.0, 0.0]) == 0.0


def test_dtw_simple_pair_matches_enumeration():
    a, b = [0.0, 1.0], [0.0, 2.0]
    assert dtw(a, b) == pytest.approx(1.0)
    assert dtw_brute_force(a, b) == pytest.approx(1.0)


def test_dtw_empty_sequence_rejected():
    with pytest.raises(ValueError):
        dtw_distances(np.zeros((1, 0, 1)), np.ones((1, 1, 1)))


def test_dtw_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m, n = rng.integers(1, 7, size=2)
        a = rng.normal(size=(m, 2))
        b = rng.normal(size=(n, 2))
        assert dtw(a, b) == pytest.approx(dtw_brute_force(a, b), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_dtw_symmetry_and_nonnegativity(a, b):
    d_ab = dtw(a, b)
    d_ba = dtw(b, a)
    assert d_ab == pytest.approx(d_ba, rel=1e-12, abs=1e-12)
    assert d_ab >= 0.0
    assert dtw(a, a) == 0.0


def random_walks(rng, count, length, dim=2):
    return rng.normal(scale=100.0, size=(count, length, dim)).cumsum(axis=1)


def loop_table(a, b):
    return np.array([[dtw_loop(x, y) for y in b] for x in a])


@pytest.mark.parametrize("n_flights, n_procs, m, n, dim", [
    (7, 3, 40, 40, 2),    # the acceptance corpus's T_v
    (3, 1, 350, 350, 2),  # the paper's T_v
    (4, 3, 40, 23, 2),    # m != n
    (3, 2, 17, 350, 2),
    (5, 1, 1, 9, 2),      # single-sample sequences
    (5, 2, 9, 1, 3),
    (4, 3, 12, 15, 3),
    (4, 2, 11, 8, 1),
])
def test_dtw_distances_equal_the_loop_bitwise(n_flights, n_procs, m, n, dim):
    rng = np.random.default_rng(m * 1000 + n)
    a = random_walks(rng, n_flights, m, dim)
    b = random_walks(rng, n_procs, n, dim)
    table = dtw_distances(a, b)
    assert table.shape == (n_flights, n_procs)
    assert np.array_equal(table, loop_table(a, b))


def test_dtw_distances_chunks_flights_under_the_byte_budget(monkeypatch):
    chunks = []
    wavefront = preprocess._dtw_wavefront

    def recording(a, b, b_reversed):
        chunks.append(a.shape[1])  # a holds (d, F, 1, m) coordinate planes
        return wavefront(a, b, b_reversed)

    monkeypatch.setattr(preprocess, "_dtw_wavefront", recording)
    monkeypatch.setattr(preprocess, "CHUNK_BYTES", 40_000)
    rng = np.random.default_rng(5)
    a = random_walks(rng, 7, 40)
    b = random_walks(rng, 3, 40)
    table = dtw_distances(a, b)
    # several chunks, the last one partial
    assert len(chunks) > 1 and sum(chunks) == 7 and chunks[-1] < chunks[0]
    assert np.array_equal(table, loop_table(a, b))


def test_one_byte_budget_chunks_every_blocked_kernel(monkeypatch):
    # preprocess.CHUNK_BYTES alone sets the chunks of all four blocked
    # kernels: under a small budget each works in several chunks and gives
    # its one-chunk results bit for bit
    from trafgen import metrics
    rng = np.random.default_rng(9)
    flights, procs = random_walks(rng, 12, 30), random_walks(rng, 2, 30)
    iap = np.column_stack([np.linspace(0.0, 9000.0, 20), np.zeros((20, 2))])
    tracks = [np.column_stack([np.linspace(1000.0, 8000.0, n),
                               np.linspace(3000.0, 0.0, n) + rng.normal(0.0, 50.0, n),
                               np.zeros(n)]) for n in (15, 30, 8, 22)]
    times = [np.cumsum(rng.uniform(1.0, 2.0, n)) for n in rng.integers(5, 40, 30)]
    values = [rng.normal(size=(len(t), 3)) for t in times]
    data = rng.normal(size=(60, 4))
    labelings = [rng.integers(0, 3, 60), rng.integers(0, 5, 60)]
    calls = {}
    for module, name in ((preprocess, "_dtw_wavefront"),
                         (preprocess, "point_to_polyline_distance"),
                         (preprocess, "_pchip_rows"),
                         (metrics, "_euclidean_distances")):
        calls[name] = 0

        def counting(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counting)

    def kernels(chunk_bytes):
        monkeypatch.setattr(preprocess, "CHUNK_BYTES", chunk_bytes)
        calls.update(dict.fromkeys(calls, 0))
        boundaries, never_joins = segment_trajectory(tracks, iap, 500.0)
        new_times, resampled, rejected = pchip_resample(times, values, 20)
        assert never_joins == {} and rejected == {}
        return [dtw_distances(flights, procs), boundaries, new_times, resampled,
                np.array(metrics.silhouette_scores(data, labelings))]

    whole = kernels(1 << 40)
    assert list(calls.values()) == [1, 1, 1, 1]
    chunked = kernels(1 << 14)
    assert all(count > 1 for count in calls.values()), calls
    for got, want in zip(chunked, whole):
        assert_bitwise(got, want)


def test_dtw_distances_rejects_bad_shapes():
    with pytest.raises(ValueError):
        dtw_distances(np.zeros((2, 5)), np.zeros((1, 5, 2)))
    with pytest.raises(ValueError):
        dtw_distances(np.zeros((2, 5, 2)), np.zeros((1, 5, 3)))
    with pytest.raises(ValueError):
        dtw_distances(np.zeros((2, 0, 2)), np.zeros((1, 5, 2)))


# ---------------------------------------------------------------------------
# assign_procedures

# transit time (s) of a straight_proc flown at 70 m/s
STRAIGHT_TRANSIT_S = 10000.0 / 70.0


def straight_proc(offset_y, name="P", n=20):
    x = np.linspace(0.0, 10000.0, n)
    points = np.column_stack([x, np.full(n, offset_y), np.zeros(n)])
    return make_proc_traj(points, name=name)


def stacked(procs):
    """The (R, T, 3) points of procedural trajectories."""
    return np.stack([proc.points for proc in procs])


def test_assign_exact_match_selects_that_procedure():
    procs = [straight_proc(0.0, "P0"), straight_proc(4000.0, "P1"),
             straight_proc(8000.0, "P2")]
    assert assign_procedures(procs[2].points[None], stacked(procs))[0] == 2
    assert dtw(procs[2].points[:, :2], procs[2].points[:, :2]) == 0.0


def test_assign_single_candidate_defaults_to_zero():
    procs = [straight_proc(0.0)]
    traj = straight_proc(90000.0).points
    assert assign_procedures(traj[None], stacked(procs))[0] == 0


def test_assign_matches_full_distance_table():
    rng = np.random.default_rng(11)
    procs = [straight_proc(0.0), straight_proc(3000.0), straight_proc(6_000.0)]
    traj = straight_proc(2000.0).points + rng.normal(scale=50.0, size=(20, 3))
    table = [dtw(traj[:, :2], p.points[:, :2]) for p in procs]
    assert assign_procedures(traj[None], stacked(procs))[0] == int(np.argmin(table))


def test_assign_procedures_breaks_exact_ties_toward_lowest_index():
    # a trajectory on y = 0 is exactly as far from y = +1000 as from -1000
    procs = [straight_proc(1000.0, "N"), straight_proc(-1000.0, "S"),
             straight_proc(1000.0, "N2")]
    on_axis = straight_proc(0.0).points
    row = dtw_distances(on_axis[None, :, :2],
                        np.stack([p.points[:, :2] for p in procs]))[0]
    assert row[0] == row[1] == row[2]
    south = straight_proc(-1500.0).points
    north = straight_proc(1500.0).points
    batch = np.stack([on_axis, south, north, on_axis])
    assert assign_procedures(batch, stacked(procs)).tolist() == [0, 1, 0, 0]
    assert assign_procedures(batch, stacked(procs[1:])).tolist() == [0, 0, 1, 0]
    assert assign_procedures(on_axis[None], stacked(procs))[0] == 0


def test_assign_procedures_matches_per_pair_loop():
    rng = np.random.default_rng(12)
    procs = [straight_proc(0.0), straight_proc(3000.0), straight_proc(6000.0)]
    batch = np.stack([straight_proc(y).points + rng.normal(scale=400.0, size=(20, 3))
                      for y in (1400.0, 1600.0, 4400.0, 4600.0, -900.0)])
    expected = [int(np.argmin([dtw_loop(t[:, :2], p.points[:, :2]) for p in procs]))
                for t in batch]
    assert assign_procedures(batch, stacked(procs)).tolist() == expected


# ---------------------------------------------------------------------------
# segment_trajectory

def test_segment_identical_to_iap_gives_boundary_zero():
    iap = straight_proc(0.0, "IAP")
    boundaries, rejected = segment_trajectory([iap.points], iap.points, 1852.0)
    assert boundaries.tolist() == [0] and rejected == {}


def brute_force_boundary(track, iap, threshold):
    """The first index from which every distance is below the threshold, by
    a scan of the (P, S, 2) distances, or the never-joins message."""
    dists = point_to_polyline_distance_stacked(track, iap.points)
    if not dists[-1] < threshold:
        return (f"trajectory never joins the final approach (last distance "
                f"{dists[-1]:.0f} m >= {threshold:.0f} m)")
    return min(i for i in range(len(track))
               if all(d < threshold for d in dists[i:]))


def segmented_in_chunks(monkeypatch, tracks, iap, threshold):
    """segment_trajectory under a chunk bound of a few points, each
    boundary replaced by its message where it is rejected, as
    :func:`brute_force_boundary` gives them, and the point count of every
    chunk it measured."""
    chunks = []
    measure = preprocess.point_to_polyline_distance

    def recording(points, polyline):
        chunks.append(len(points))
        return measure(points, polyline)

    monkeypatch.setattr(preprocess, "point_to_polyline_distance", recording)
    monkeypatch.setattr(preprocess, "CHUNK_BYTES",
                        8 * 6 * (len(iap.points) - 1) * 7)
    boundaries, rejected = segment_trajectory(tracks, iap.points, threshold)
    # a track that never joins has no point from which it stays joined
    for row in rejected:
        assert boundaries[row] == len(tracks[row])
    return [rejected.get(row, int(b)) for row, b in enumerate(boundaries)], chunks


def dogleg(iap, join, start_y=20000.0):
    """Approach from the north, then fly the IAP from sample ``join``."""
    approach = np.column_stack([
        np.full(30, iap.points[join, 0]),
        np.linspace(start_y, iap.points[join, 1], 30, endpoint=False),
        np.zeros(30),
    ])
    return np.vstack([approach, iap.points[join:]])


def test_segment_dogleg_boundary_matches_brute_force_scan(monkeypatch):
    iap = straight_proc(0.0, "IAP", n=50)
    threshold = 1852.0
    # flights that join at several points, one that never joins, and ones
    # whose boundary is 0, one of them a single point
    tracks = [dogleg(iap, 25), dogleg(iap, 3, 5000.0), straight_proc(50000.0).points,
              iap.points[10:], dogleg(iap, 40)[::-1][:12], iap.points[:1],
              dogleg(iap, 25)[::2]]
    boundaries, chunks = segmented_in_chunks(monkeypatch, tracks, iap, threshold)
    assert boundaries == [brute_force_boundary(t, iap, threshold) for t in tracks]
    assert boundaries[0] > 0 and boundaries[1] > 0
    assert boundaries[3] == boundaries[5] == 0
    # one pass over every point, in chunks that cross flight edges
    assert sum(chunks) == sum(len(t) for t in tracks)
    assert set(chunks[:-1]) == {7}


def test_segment_error_when_never_joining(monkeypatch):
    iap = straight_proc(0.0, "IAP")
    far = straight_proc(50000.0).points
    boundaries, chunks = segmented_in_chunks(
        monkeypatch, [iap.points, far, dogleg(iap, 5), far[:3]], iap, 1852.0)
    assert boundaries[0] == 0 and boundaries[2] > 0
    for message in (boundaries[1], boundaries[3]):
        assert re.fullmatch(r"trajectory never joins the final approach "
                            r"\(last distance 50000 m >= 1852 m\)", message)
    assert len(chunks) > 1


def test_segment_rejects_an_empty_track():
    iap = straight_proc(0.0, "IAP")
    with pytest.raises(ValueError, match="nonempty"):
        segment_trajectory([iap.points, iap.points[:0]], iap.points, 1852.0)


@pytest.mark.parametrize("seed", range(4))
def test_polyline_distance_equals_the_stacked_form_bitwise(seed):
    rng = np.random.default_rng(seed)
    poly = rng.normal(scale=5000.0, size=(30, 3)).cumsum(axis=0)
    poly[7] = poly[6]          # a zero-length segment
    poly[20:23] = poly[19]     # several in a row
    points = np.vstack([
        rng.normal(scale=8000.0, size=(300, 3)) + poly.mean(axis=0),
        poly,                           # on the vertices
        (poly[:-1] + poly[1:]) / 2,     # on the segments
        poly[::4] * (1 + 1e-15),
    ])
    assert_bitwise(point_to_polyline_distance(points, poly),
                   point_to_polyline_distance_stacked(points, poly))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dtw_local_cost_equals_the_stacked_form_bitwise(dim):
    rng = np.random.default_rng(dim)
    x, y = (rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
            for shape in ((5, 1, 9, dim), (1, 4, 9, dim)))
    planes = preprocess._local_cost(np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0))
    assert_bitwise(planes, local_cost_stacked(x, y))


# ---------------------------------------------------------------------------
# pchip_resample

def test_pchip_reproduces_linear_data():
    times = np.array([0.0, 1.0, 3.0, 6.0])
    values = np.column_stack([2.0 * times + 1.0, -0.5 * times])
    new_times, resampled = resample_one(times, values, 9)
    assert np.allclose(resampled[:, 0], 2.0 * new_times + 1.0, atol=1e-12)
    assert np.allclose(resampled[:, 1], -0.5 * new_times, atol=1e-12)


def test_pchip_hits_original_knots():
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    values = np.array([0.0, 3.0, 1.0, 4.0, 2.0])[:, None]
    new_times, resampled = resample_one(times, values, 5)
    assert np.allclose(new_times, times)
    assert np.allclose(resampled[:, 0], values[:, 0], atol=1e-12)


def test_pchip_preserves_monotonicity():
    times = np.array([0.0, 1.0, 2.0, 5.0, 6.0])
    x = np.array([0.0, 0.5, 4.0, 4.5, 10.0])
    _, resampled = resample_one(times, x[:, None], 200)
    assert np.all(np.diff(resampled[:, 0]) >= -1e-12)


def test_pchip_stays_inside_knot_range_on_monotone_data():
    rng = np.random.default_rng(5)
    for _ in range(20):
        times = np.sort(rng.uniform(0.0, 10.0, size=6))
        times += np.arange(6) * 1e-3  # enforce strict increase
        x = np.cumsum(rng.uniform(0.1, 2.0, size=6))
        _, resampled = resample_one(times, x[:, None], 64)
        assert resampled.min() >= x.min() - 1e-9
        assert resampled.max() <= x.max() + 1e-9


def assert_same_resampling(times, values, count):
    got_times, got = resample_one(times, values, count)
    want_times, want = pchip_resample_scipy(times, values, count)
    assert np.array_equal(got_times, want_times)
    assert_bitwise(got, want)


def random_pchip_cases():
    """1,200 seeded (times, values, count) cases: random, monotone, flat-run
    and zero-crossing tracks of 2 to 60 knots and 1 or 3 coordinates."""
    rng = np.random.default_rng(11)
    for case in range(1200):
        n = int(rng.integers(2, 61))
        cols = (1, 3)[case % 2]
        times = np.cumsum(rng.exponential(1.0, n) + 1e-3) * 10.0 ** rng.uniform(-1, 3)
        values = rng.normal(size=(n, cols)) * 10.0 ** rng.uniform(-2, 5)
        kind = case // 2 % 4
        if kind == 1:  # monotone
            values = np.cumsum(np.abs(values), axis=0)
        elif kind == 2:  # flat runs
            values = np.round(values / np.abs(values).max() * 2.0)
        elif kind == 3:  # zero crossings and exact zeros
            values[rng.random(n) < 0.3] = 0.0
        yield times, values, int(rng.integers(2, 401))


def test_pchip_matches_scipy_bitwise_on_random_tracks():
    for times, values, count in random_pchip_cases():
        assert_same_resampling(times, values, count)


def _pchip_batches(cases, mixed):
    """Lists of up to 150 rows of one width and, unless ``mixed``, one knot
    count; the equal-count batches are stacked into (B, n) arrays."""
    groups = {}
    for case in cases:
        key = case[1].shape[1:] if mixed else case[1].shape
        groups.setdefault(key, []).append(case)
    for rows in groups.values():
        for b in range(0, len(rows), 150):
            batch = rows[b:b + 150]
            times, values = [c[0] for c in batch], [c[1] for c in batch]
            # the first case's count, for its whole batch
            yield ((times, values) if mixed
                   else (np.stack(times), np.stack(values))), batch[0][2]


@pytest.mark.parametrize("mixed", [False, True], ids=["equal_knots", "mixed_knots"])
def test_pchip_batches_match_scipy_bitwise_row_by_row(mixed):
    batches = list(_pchip_batches(random_pchip_cases(), mixed))
    assert max(len(times) for (times, _), _ in batches) > 1
    assert mixed == any(len({len(t) for t in times}) > 1
                        for (times, _), _ in batches)
    for (times, values), count in batches:
        got_times, got, rejected = pchip_resample(times, values, count)
        assert rejected == {}
        assert got_times.shape == (len(times), count)
        assert got.shape == (len(times), count) + values[0].shape[1:]
        for row in range(len(times)):
            want_times, want = pchip_resample_scipy(times[row], values[row],
                                                    count)
            assert_bitwise(got_times[row], want_times)
            assert_bitwise(got[row], want)


def test_pchip_resample_of_an_empty_batch():
    times, values, rejected = pchip_resample(np.empty((0, 4)), np.empty((0, 4, 3)), 5)
    assert times.shape == (0, 5) and values.shape == (0, 5, 3)
    assert rejected == {}


def test_pchip_resample_times_match_linspace_row_by_row():
    # a step that underflows to 0 takes numpy's other branch in its row only
    start, stop = np.array([0.0, -3.0, 1.0]), np.array([1e-322, 7.0, 2.0])
    rows = preprocess._linspace_rows(start, stop, 350)
    for r in range(3):
        assert_bitwise(rows[r], np.linspace(start[r], stop[r], 350))


@pytest.mark.parametrize("times,values", [
    ([0.0, 2.5], [[1.0, -3.0, 0.0], [2.0, 4.0, 0.0]]),    # 2 knots: secant
    ([0.0, 1.0, 4.0], [[0.0], [2.0], [1.0]]),              # 3 knots
    ([0.0, 1.0, 2.0, 3.0], [[5.0, 5.0, -0.0]] * 4),        # all flat
    # end derivative's sign differs from the first secant's: set to 0
    ([0.0, 1.0, 1.5, 4.0], [[0.0], [1.0], [5.0], [6.0]]),
    # |d| > 3 |m0| with m0 and m1 of opposite sign: set to 3 m0
    ([0.0, 3.0, 3.5, 5.0], [[0.0], [1.0], [0.0], [0.5]]),
])
def test_pchip_matches_scipy_on_named_cases(times, values):
    times = np.array(times)
    values = np.array(values, dtype=float).reshape(len(times), -1)
    for count in (2, 7, 50):
        assert_same_resampling(times, values, count)


def test_pchip_end_derivative_branches():
    # the named cases above reach both branches of the end-point rule
    h, m = np.array([1.0, 0.5, 2.5]), np.array([1.0, 8.0, 0.4])
    d = preprocess._pchip_end_slope(h[0], h[1], m[0], m[1])
    assert d == 0.0 and ((2 * h[0] + h[1]) * m[0] - h[0] * m[1]) < 0
    h, m = np.array([3.0, 0.5]), np.array([1.0 / 3.0, -2.0])
    assert preprocess._pchip_end_slope(h[0], h[1], m[0], m[1]) == 3.0 * m[0]


def test_pchip_keeps_one_dimensional_values():
    times = np.array([0.0, 1.0, 3.0])
    _, flat = resample_one(times, np.array([0.0, 1.0, 0.5]), 6)
    _, column = resample_one(times, np.array([[0.0], [1.0], [0.5]]), 6)
    assert flat.shape == (6,) and np.array_equal(flat, column[:, 0])


@pytest.mark.parametrize("times,values", [
    ([0.0, 1.0, 2.0], [[0.0], [np.nan], [1.0]]),
    ([0.0, 1.0, np.inf], [[0.0], [1.0], [2.0]]),
    ([0.0, 1.0, 2.0], [[0.0], [1.0]]),
])
def test_pchip_rejects_bad_input_with_scipys_message(times, values):
    # ingest reports the message for each flight it excludes
    times, values = np.array(times), np.array(values)
    with pytest.raises(ValueError) as want:
        pchip_resample_scipy(times, values, 5)
    assert pchip_resample([times], [values], 5)[2] == {0: str(want.value)}


def test_pchip_rejects_duplicate_times():
    rejected = pchip_resample([np.array([0.0, 1.0, 1.0])], [np.zeros((3, 1))], 5)[2]
    assert rejected == {0: "times must be strictly increasing"}


# ---------------------------------------------------------------------------
# deviation vectors

def test_deviation_zero_case():
    proc = straight_proc(0.0, n=10)
    times = np.linspace(0.0, STRAIGHT_TRANSIT_S, 10)
    tau = one_deviation(times, proc.points, proc.points)
    assert np.allclose(tau[2:], 0.0)
    assert tau[0] == pytest.approx(STRAIGHT_TRANSIT_S)
    assert tau[1] == pytest.approx(path_length(proc.points))


def test_deviation_translation_shows_in_dx_only():
    proc = straight_proc(0.0, n=10)
    shifted = proc.points + np.array([100.0, 0.0, 0.0])
    tau = one_deviation(np.linspace(0.0, STRAIGHT_TRANSIT_S, 10), shifted,
                        proc.points)
    deviations = tau[2:].reshape(10, 3)
    assert np.allclose(deviations[:, 0], 100.0)
    assert np.allclose(deviations[:, 1:], 0.0)


def test_deviation_length_mismatch_rejected():
    proc = straight_proc(0.0, n=10)
    with pytest.raises(ValueError):
        build_deviation_vector(np.linspace(0.0, STRAIGHT_TRANSIT_S, 5)[None],
                               proc.points[None, :5], proc.points)


def test_round_trip_is_exact_inverse():
    rng = np.random.default_rng(9)
    proc = straight_proc(0.0, n=12)
    times = np.linspace(0.0, 600.0, 12)
    points = proc.points + rng.normal(scale=300.0, size=(12, 3))
    tau = one_deviation(times, points, proc.points)
    # round trip is exact when the procedural distance equals tau_2. The
    # points do not depend on it; the times are rebuilt against a procedure
    # of that length, the flight's own polyline
    _, rec_points = rebuild_one(tau, proc.points)
    assert path_length(points) == tau[1]
    rec_times, _ = rebuild_one(tau, points)
    assert np.allclose(rec_points, points, atol=1e-9, rtol=0.0)
    assert rec_times[-1] == pytest.approx(tau[0], abs=1e-9)


def test_reconstruct_transit_time_formula():
    # tau_1 = 600 s over tau_2 = 20 NM, procedure of 30 NM -> 900 s
    proc_points = np.column_stack([np.linspace(0.0, 55560.0, 8),
                                   np.zeros(8), np.zeros(8)])
    tau = np.concatenate([[600.0, 37040.0], np.zeros(3 * 8)])
    times, _ = rebuild_one(tau, proc_points)
    assert times[-1] == pytest.approx(900.0, abs=1e-9)
    assert np.allclose(np.diff(times), times[1] - times[0])


def test_reconstruct_zero_deviations_returns_procedure():
    proc = straight_proc(0.0, n=10)
    tau = np.concatenate([[300.0, path_length(proc.points)], np.zeros(3 * 10)])
    _, points = rebuild_one(tau, proc.points)
    assert np.array_equal(points, proc.points)


def test_deviation_vector_array_round_trip():
    # the (3T + 2,) array reads back as transit time, distance, deviations
    rng = np.random.default_rng(4)
    proc = straight_proc(0.0, n=7)
    points = proc.points + rng.normal(size=(7, 3))
    tau = one_deviation(np.linspace(0.0, 432.0, 7), points, proc.points)
    assert tau[0] == 432.0
    assert tau[1] == path_length(points)
    assert np.array_equal(tau[2:].reshape(7, 3), points - proc.points)
    assert tau.size == 3 * 7 + 2


@pytest.mark.parametrize("t_len", [40, 350])
def test_batched_deviation_vectors_equal_row_by_row(t_len):
    rng = np.random.default_rng(t_len)
    rows = 9
    times = np.sort(rng.uniform(0.0, 900.0, size=(rows, t_len)), axis=1)
    points = rng.normal(scale=3000.0, size=(rows, t_len, 3)).cumsum(axis=1)
    procs = rng.normal(scale=3000.0, size=(rows, t_len, 3)).cumsum(axis=1)
    times[3] = 5.0                       # no transit time
    points[5] = points[5, :1]            # no distance
    times[7], points[7] = 0.0, 0.0       # neither: the transit time counts
    for proc_points in (procs, procs[2]):
        got, rejected = build_deviation_vector(times, points, proc_points)
        assert got.shape == (rows, 3 * t_len + 2)
        assert rejected == {3: "transit_time must be positive",
                            5: "total_distance must be positive",
                            7: "transit_time must be positive"}
        for row in range(rows):
            own = proc_points if proc_points.ndim == 2 else proc_points[row]
            # the per-row vector as one trajectory's polyline sum gives it
            length = np.linalg.norm(np.diff(points[row], axis=0), axis=1).sum()
            assert_bitwise(got[row], np.concatenate((
                [times[row, -1] - times[row, 0], length],
                (points[row] - own).ravel())))


def test_build_rejects_nonpositive_transit_and_distance():
    proc = straight_proc(0.0, n=10)
    times = np.stack([np.zeros(10), np.linspace(0.0, 300.0, 10)])
    points = np.stack([proc.points, np.zeros((10, 3))])
    _, rejected = build_deviation_vector(times, points, proc.points)
    assert rejected == {0: "transit_time must be positive",
                        1: "total_distance must be positive"}


COUNT_MISMATCH = "deviation count does not match procedural length"


@pytest.mark.parametrize("head, size, message", [
    ([300.0, 9000.0], 3 * 10 + 1, COUNT_MISMATCH),
    ([300.0, 9000.0], 3 * 11 + 2, COUNT_MISMATCH),
    ([0.0, 9000.0], 3 * 10 + 2, "transit_time must be positive"),
    ([-5.0, 9000.0], 3 * 10 + 2, "transit_time must be positive"),
    ([300.0, 0.0], 3 * 10 + 2, "total_distance must be positive"),
    ([300.0, -1.0], 3 * 10 + 2, "total_distance must be positive"),
], ids=["short", "long", "zero_transit", "negative_transit", "zero_distance",
        "negative_distance"])
def test_reconstruct_rejects_malformed_vectors(head, size, message):
    tau = np.concatenate([head, np.zeros(size - 2)])
    with pytest.raises(ValueError, match=f"^{message}$"):
        rebuild_one(tau, straight_proc(0.0, n=10).points)


@pytest.mark.parametrize("t_len", [40, 350])
def test_batched_reconstruction_equals_row_by_row(t_len):
    rng = np.random.default_rng(t_len)
    rows = 9
    tau = np.column_stack([rng.uniform(60.0, 900.0, rows),
                           rng.uniform(1e4, 6e4, rows),
                           rng.normal(scale=300.0, size=(rows, 3 * t_len))])
    procs = rng.normal(scale=3000.0, size=(rows, t_len, 3)).cumsum(axis=1)
    dists = path_length(procs)
    for proc_points, dist in ((procs, dists), (procs[2], dists[2])):
        times, points = reconstruct_trajectory(tau, proc_points)
        assert times.shape == (rows, t_len) and points.shape == (rows, t_len, 3)
        for row in range(rows):
            own, d = ((proc_points, dist) if proc_points.ndim == 2
                      else (proc_points[row], dist[row]))
            # the one-trajectory formula
            assert_bitwise(times[row],
                           np.linspace(0.0, tau[row, 0] / tau[row, 1] * d, t_len))
            assert_bitwise(points[row], own + tau[row, 2:].reshape(t_len, 3))


def test_reconstruct_raises_for_the_first_rejected_row():
    proc = straight_proc(0.0, n=10)
    tau = np.tile(np.concatenate([[300.0, 9000.0], np.zeros(30)]), (5, 1))
    tau[2, 1] = 0.0
    tau[4, 0] = -1.0
    with pytest.raises(InvalidDeviation, match="^total_distance must be positive$"):
        reconstruct_trajectory(tau, proc.points)
    with pytest.raises(ValueError, match="^deviation count does not match"):
        reconstruct_trajectory(tau[:, :-1], proc.points)


def test_path_length_is_polyline_sum():
    points = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [3.0, 4.0, 12.0]])
    assert path_length(points) == pytest.approx(5.0 + 12.0)
