"""Silhouette, JS divergence, variable extraction, and separation counting."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from trafgen import metrics, preprocess
from trafgen.errors import DataError
from trafgen.metrics import (MAX_BINS, Histogram, extract_variables,
                             histogram_pair, js_divergence,
                             loss_of_separation_count, shared_fd_edges,
                             silhouette_scores, silhouette_sweep)
from trafgen.units import FT_TO_M, KT_TO_MPS, NM_TO_M

from conftest import assert_bitwise, peak_traced_bytes
from oracles import silhouette_brute_force, silhouette_score


def silhouette(data, labels):
    return silhouette_scores(data, [labels])[0]


# ---------------------------------------------------------------------------
# silhouette

def test_silhouette_two_tight_pairs():
    data = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels = np.array([0, 0, 1, 1])
    score = silhouette(data, labels)
    # brute force: a = 0.1 everywhere, b in {9.95, 10.05}
    assert score == pytest.approx(silhouette_brute_force(data, labels), abs=1e-12)
    assert score == pytest.approx(0.9899997499937498, abs=1e-12)


def test_silhouette_swapped_labels_negative():
    data = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels = np.array([0, 1, 0, 1])
    assert silhouette(data, labels) < 0.0


def test_silhouette_bounds_on_random_data():
    rng = np.random.default_rng(0)
    for _ in range(10):
        data = rng.normal(size=(40, 3))
        labels = rng.integers(0, 4, size=40)
        if len(np.unique(labels)) < 2:
            continue
        score = silhouette(data, labels)
        assert -1.0 <= score <= 1.0


def test_silhouette_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(8):
        m = int(rng.integers(5, 60))
        data = rng.normal(size=(m, 2))
        labels = rng.integers(0, 3, size=m)
        if len(np.unique(labels)) < 2:
            continue
        assert silhouette(data, labels) == pytest.approx(
            silhouette_brute_force(data, labels), abs=1e-10)


def test_silhouette_singleton_scores_zero():
    data = np.array([[0.0], [0.1], [50.0]])
    labels = np.array([0, 0, 1])
    expected = silhouette_brute_force(data, labels)
    assert silhouette(data, labels) == pytest.approx(
        expected, abs=1e-12)


def test_silhouette_single_cluster_rejected():
    with pytest.raises(DataError):
        silhouette(np.zeros((5, 2)), np.zeros(5, dtype=int))


def test_silhouette_sweep_recovers_three_clusters():
    rng = np.random.default_rng(2)
    data = np.vstack([rng.normal(size=(120, 2)) + offset
                      for offset in ([0.0, 0.0], [12.0, 0.0], [0.0, 12.0])])
    n_components, curve = silhouette_sweep(data, [2, 3, 4, 5], seed=3)
    assert n_components == 3
    assert [k for k, _ in curve] == [2, 3, 4, 5]


def test_silhouette_sweep_singleton_grid():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(60, 2))
    n_components, curve = silhouette_sweep(data, [2], seed=0)
    assert n_components == 2
    assert len(curve) == 1


def test_silhouette_sweep_computes_one_distance_matrix(monkeypatch):
    # one pass of row blocks covers the rows once, for every grid K, and
    # every product takes two rows of the data against all rows
    calls, products = [], []
    matmul, scores = np.matmul, metrics.silhouette_scores

    def counting_matmul(a, b, **kwargs):
        products.append((a.shape, b.shape))
        return matmul(a, b, **kwargs)

    def counting_scores(data, labelings):
        calls.append(len(labelings))
        with monkeypatch.context() as patch:
            patch.setattr(np, "matmul", counting_matmul)
            return scores(data, labelings)

    monkeypatch.setattr(metrics, "silhouette_scores", counting_scores)
    monkeypatch.setattr(preprocess, "CHUNK_BYTES", 16 * 50 * 20)
    data = np.random.default_rng(4).normal(size=(50, 2))
    _, curve = silhouette_sweep(data, [2, 3, 4], seed=0)
    assert calls == [3]
    assert products == [((2, 2), (2, 50))] * 25
    assert [k for k, _ in curve] == [2, 3, 4]


# rows per block of the five block splits; a case's own split is one of them
BLOCK_ROWS = (5, 1, 40, 6)


@pytest.mark.parametrize(
    "m, n, rows, far, duplicated",
    [(23, 3, 5, False, False), (21, 3, 5, False, False), (23, 3, 1, False, False),
     (23, 3, 40, False, False), (24, 3, 6, False, False),
     (24, 1052, 5, True, False), (24, 452, 6, True, False),
     (60, 122, 40, True, False), (9, 5, 1, True, False), (24, 452, 5, True, True)],
    ids=["partial-last-block", "lone-last-row-joins", "smallest-blocks",
         "one-block", "whole-blocks", "24x1052", "24x452", "60x122", "9x5",
         "duplicated-rows"])
def test_silhouette_scores_equal_the_full_matrix(monkeypatch, m, n, rows, far,
                                                 duplicated):
    # several labelings in one pass: a singleton cluster, labels {0, 2}
    # with a gap, and four clusters. Far data sits near 1e4 on scales from
    # 0.1 to 100, far from the origin; the kernel centres it. Every block
    # split gives the same scores bit for bit, within 1e-12 of the full
    # matrix; a duplicated pair's distance rounds to about sqrt(eps) times
    # the rows' norm, not to 0, so with every fourth row repeated the
    # scores are within 1e-8
    rng = np.random.default_rng(m + rows)
    data = rng.normal(size=(m, n))
    if far:
        data = 1e4 + data * rng.uniform(0.1, 100.0, size=n)
    if duplicated:
        data[1::4] = data[::4]
    singleton = np.r_[0, np.ones(m - 1, dtype=int)]
    gap = 2 * rng.integers(0, 2, size=m)
    gap[:2] = 0, 2
    four = rng.integers(0, 4, size=m)
    four[:4] = 0, 1, 2, 3
    labelings = [singleton, gap, four]
    dist = cdist(data, data)
    want = [silhouette_score(dist, labels) for labels in labelings]
    monkeypatch.setattr(preprocess, "CHUNK_BYTES", 16 * m * rows)
    got = silhouette_scores(data, labelings)
    assert got == pytest.approx(want, rel=0.0, abs=1e-8 if duplicated else 1e-12)
    for other in BLOCK_ROWS:
        monkeypatch.setattr(preprocess, "CHUNK_BYTES", 16 * m * other)
        assert_bitwise(np.array(silhouette_scores(data, labelings)), np.array(got))


def test_silhouette_sweep_memory_is_bounded():
    # the full distance matrix alone would take 8 m^2 = 288 MB
    data = np.random.default_rng(5).normal(size=(6000, 8))
    peak, (_, curve) = peak_traced_bytes(lambda: silhouette_sweep(data, [2, 3], seed=0))
    assert [k for k, _ in curve] == [2, 3]
    assert peak < 16 * 2**20


def test_silhouette_sweep_rejects_k_below_two():
    with pytest.raises(DataError):
        silhouette_sweep(np.zeros((10, 2)), [1, 2])


# ---------------------------------------------------------------------------
# histograms and JS divergence

def hist(mass, edges=None):
    mass = np.asarray(mass, dtype=float)
    edges = (np.arange(mass.size + 1, dtype=float)
             if edges is None else np.asarray(edges, dtype=float))
    counts = (mass * 1000).astype(int)
    return Histogram(edges=edges, counts=counts, mass=mass)


def test_js_identical_is_zero():
    h = hist([0.25, 0.5, 0.25])
    assert js_divergence(h, h) == 0.0


def test_js_disjoint_support_is_one():
    assert js_divergence(hist([1.0, 0.0]), hist([0.0, 1.0])) == pytest.approx(1.0)


def test_js_half_vs_point_mass():
    # direct base-2 summation oracle
    p, q = np.array([0.5, 0.5]), np.array([1.0, 0.0])
    m = (p + q) / 2.0
    expected = 0.5 * sum(pi * math.log2(pi / mi) for pi, mi in zip(p, m) if pi)
    expected += 0.5 * sum(qi * math.log2(qi / mi) for qi, mi in zip(q, m) if qi)
    assert expected == pytest.approx(0.3112781244591328)
    assert js_divergence(hist(p), hist(q)) == pytest.approx(expected, abs=1e-12)


def test_js_symmetric_and_bounded():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        d_pq = js_divergence(hist(p), hist(q))
        d_qp = js_divergence(hist(q), hist(p))
        assert d_pq == pytest.approx(d_qp, abs=1e-12)
        assert 0.0 <= d_pq <= 1.0


def test_js_edge_mismatch_rejected():
    with pytest.raises(ValueError):
        js_divergence(hist([1.0, 0.0]), hist([1.0, 0.0], edges=[0.0, 2.0, 4.0]))


def test_histogram_empty_rejected():
    with pytest.raises(DataError):
        Histogram.from_samples(np.array([5.0, 6.0]), np.array([0.0, 1.0]))
    with pytest.raises(DataError):
        Histogram.from_samples(np.array([]), np.array([0.0, 1.0]))


def test_histogram_pair_shares_fd_edges():
    rng = np.random.default_rng(5)
    x = rng.normal(size=2000)
    y = rng.normal(loc=0.5, size=3000)
    hx, hy = histogram_pair(x, y)
    assert np.array_equal(hx.edges, hy.edges)
    assert hx.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert hy.mass.sum() == pytest.approx(1.0, abs=1e-12)
    # identical sets give zero divergence
    ha, hb = histogram_pair(x, x)
    assert js_divergence(ha, hb) == 0.0


def test_fd_edges_constant_data():
    edges = shared_fd_edges(np.array([2.0, 2.0]), np.array([2.0]))
    assert edges.size == 2 and edges[0] < 2.0 < edges[1]


def test_fd_edges_of_near_constant_values_are_one_bin():
    # four adjacent floats: the Freedman-Diaconis width asks for more bins
    # than there are floats between them, which numpy cannot make
    x = 1.0 + np.spacing(1.0) * np.arange(4).repeat(2000)
    assert_bitwise(shared_fd_edges(x, x[:10]), np.array([1.0, x[-1]]))


def test_fd_edges_bin_count_is_capped():
    bulk = np.random.default_rng(6).normal(size=5000)
    # one far outlier would ask Freedman-Diaconis for about 10^8 bins
    edges = shared_fd_edges(bulk, np.array([1e7]))
    assert edges.size == MAX_BINS + 1
    assert edges[0] == bulk.min() and edges[-1] == 1e7


def fd_cases():
    rng = np.random.default_rng(6)
    bulk = rng.normal(size=5000)
    return {
        "normal": (bulk, bulk[:10]),
        "lognormal": (rng.lognormal(size=700), rng.lognormal(size=300)),
        "zero-iqr": (np.zeros(50), np.array([1.0, 2.0, 3.0])),
        "offset": (1e6 + 1e-3 * rng.normal(size=200), np.array([1e6])),
        "three-samples": (np.array([0.0, 1.0]), np.array([5.0])),
        "two-samples": (np.array([-2.5]), np.array([4.0])),
        # about 16,000 Freedman-Diaconis bins, so the cap applies
        "capped": (bulk, np.array([2500.0])),
    }


@pytest.mark.parametrize("case", list(fd_cases()))
def test_fd_edges_equal_numpy_fd_edges(case):
    # one width computation gives numpy's bins="fd" edges bit for bit, and
    # MAX_BINS equal bins where those would be more
    x, y = fd_cases()[case]
    union = np.concatenate([x, y])
    want = np.histogram_bin_edges(union, bins="fd")
    if want.size > MAX_BINS + 1:
        assert case == "capped"
        want = np.histogram_bin_edges(union, bins=MAX_BINS)
    assert_bitwise(shared_fd_edges(x, y), want)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_fd_edges_reject_non_finite_samples(bad):
    with pytest.raises(DataError, match="non-finite"):
        shared_fd_edges(np.array([1.0, 2.0]), np.array([3.0, bad]))


# ---------------------------------------------------------------------------
# extract_variables

def straight_traj(n, speed_mps, y=0.0, z=0.0, t0=0.0):
    times = t0 + np.arange(n) * 10.0
    x = speed_mps * np.arange(n) * 10.0
    points = np.column_stack([x, np.full(n, y), np.full(n, z)])
    return times, points


def test_parallel_tracks_constant_closest_distance():
    gap = 5.0 * NM_TO_M
    scene = [straight_traj(20, 80.0, y=0.0), straight_traj(20, 80.0, y=gap)]
    out = extract_variables([scene])
    assert np.allclose(out["closest_distance"], gap, atol=1e-9)


def test_stationary_trajectory_zero_speed():
    times = np.arange(10) * 5.0
    points = np.tile([1000.0, 2000.0, 300.0], (10, 1))
    out = extract_variables([[(times, points)]])
    assert np.allclose(out["horizontal_speed"], 0.0)
    assert out["closest_distance"].size == 0  # single aircraft


def test_hand_built_speeds():
    times = np.array([0.0, 10.0, 30.0])
    points = np.array([[0.0, 0.0, 0.0], [600.0, 800.0, 0.0],
                       [600.0, 800.0 + 400.0, 0.0]])
    out = extract_variables([[(times, points)]])
    # 1000 m over 10 s, then 400 m over 20 s
    expected = np.array([100.0, 20.0]) / KT_TO_MPS
    assert np.allclose(out["horizontal_speed"], expected)
    assert out["x_east"].size == 3 and out["y_north"].size == 3


def test_extract_variables_pure():
    scene = [straight_traj(15, 70.0), straight_traj(15, 75.0, y=4000.0)]
    first = extract_variables([scene])
    second = extract_variables([scene])
    assert list(first) == ["x_east", "y_north", "horizontal_speed",
                           "closest_distance"]
    for name, arr in first.items():
        assert np.array_equal(arr, second[name]), name


# ---------------------------------------------------------------------------
# loss of separation

def pair_scene(horizontal_nm, vertical_ft, n=12):
    """Two parallel constant-separation tracks."""
    a = straight_traj(n, 80.0, y=0.0, z=0.0)
    b = straight_traj(n, 80.0, y=horizontal_nm * NM_TO_M,
                      z=vertical_ft * FT_TO_M)
    return [a, b]


def test_separation_rule_fixtures():
    # 3 NM / 1000 ft
    assert loss_of_separation_count([pair_scene(2.9, 1500.0)])[0] == 0
    count, scene_flags = loss_of_separation_count([pair_scene(2.9, 500.0)])
    assert count == 1  # one maximal contiguous run
    assert scene_flags == [True]
    assert loss_of_separation_count([pair_scene(3.5, 500.0)])[0] == 0


def test_separation_event_counting_runs():
    # approach, separate, approach again: two events for the pair
    times = np.arange(9) * 10.0
    gaps_nm = np.array([5.0, 2.0, 2.0, 5.0, 5.0, 2.0, 2.0, 5.0, 5.0])
    a = (times, np.column_stack([np.zeros(9), np.zeros(9), np.zeros(9)]))
    b = (times, np.column_stack([np.zeros(9), gaps_nm * NM_TO_M, np.zeros(9)]))
    count, _ = loss_of_separation_count([[a, b]])
    assert count == 2


def test_separation_requires_time_overlap():
    a = straight_traj(10, 80.0, y=0.0, t0=0.0)
    b = straight_traj(10, 80.0, y=100.0, t0=1e6)  # disjoint in time
    count, _ = loss_of_separation_count([[a, b]])
    assert count == 0
