"""k-means against the (m, k, n) broadcast reference, and its memory."""

import numpy as np
import pytest

from trafgen._cluster import kmeans

from conftest import assert_bitwise, peak_traced_bytes
from oracles import kmeans_broadcast


def cases():
    """(name, data, k, restarts, max_iter) of each reference case."""
    rng = np.random.default_rng(3)
    blobs = np.repeat(rng.normal(size=(4, 5)) * 10.0, 25, axis=0)
    yield "one-cluster", rng.normal(size=(40, 3)), 1, 1, 100
    yield "blobs", blobs + rng.normal(size=blobs.shape), 4, 3, 100
    yield "iteration-cap", blobs + 3.0 * rng.normal(size=blobs.shape), 4, 2, 1
    yield "radar-vector-width", rng.normal(size=(300, 122)), 3, 2, 100
    # a duplicated row seeds two centers that stay on it: an empty cluster
    yield "coincident", np.ones((30, 4)), 2, 1, 100
    two_points = np.repeat([[0.0, 1.0], [5.0, 2.0]], 10, axis=0)
    yield "two-points-three-centers", two_points, 3, 2, 100
    # one far row keeps a center of its own, equal to that row
    yield "lone-row", np.vstack([rng.normal(size=(60, 2)), [[1e3, 1e3]]]), 3, 2, 100


@pytest.mark.parametrize("name, data, k, restarts, max_iter", list(cases()),
                         ids=[case[0] for case in cases()])
def test_kmeans_equals_the_broadcast_reference(name, data, k, restarts, max_iter):
    centers, labels = kmeans(data, k, np.random.default_rng(11), restarts, max_iter)
    ref_centers, ref_labels = kmeans_broadcast(data, k, np.random.default_rng(11),
                                               restarts, max_iter)
    assert_bitwise(centers, ref_centers)
    assert_bitwise(labels, ref_labels)
    if name in ("coincident", "two-points-three-centers"):
        assert np.bincount(labels, minlength=k).min() == 0
    if name == "lone-row":
        assert np.array_equal(centers[labels[-1]], data[-1])


@pytest.mark.parametrize("k", [2, 3, 6])
def test_kmeans_holds_about_one_copy_of_the_data(k):
    # a (m, k, n) broadcast would hold k copies of the 2,000 x 122 rows
    data = np.random.default_rng(k).normal(size=(2000, 122))
    peak, _ = peak_traced_bytes(lambda: kmeans(data, k, np.random.default_rng(0)))
    assert peak <= 1.25 * data.nbytes
