"""Internal k-means with k-means++ seeding and restart handling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class KMeansResult:
    centers: np.ndarray   # (k, n)
    labels: np.ndarray    # (m,)
    inertia: float
    has_empty_cluster: bool


def kmeans_pp_seed(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted center selection."""
    m = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(m)]
    closest_sq = np.sum((data - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            # all points coincide with an existing center
            centers[i] = data[rng.integers(m)]
            continue
        idx = rng.choice(m, p=closest_sq / total)
        centers[i] = data[idx]
        closest_sq = np.minimum(closest_sq, np.sum((data - centers[i]) ** 2, axis=1))
    return centers


def _lloyd(data: np.ndarray, centers: np.ndarray, max_iter: int) -> KMeansResult:
    k = centers.shape[0]
    labels = None
    for _it in range(max_iter):
        dists = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = data[mask].mean(axis=0)
    dists = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(data.shape[0]), labels].sum())
    empty = bool(np.any(np.bincount(labels, minlength=k) == 0))
    return KMeansResult(centers=centers, labels=labels, inertia=inertia,
                        has_empty_cluster=empty)


def kmeans(data: np.ndarray, k: int, rng: np.random.Generator,
           restarts: int = 1, max_iter: int = 100) -> KMeansResult:
    """Best-of-``restarts`` k-means.

    A run that converges with an empty cluster counts only when every
    restart does: then the best degenerate run is returned with
    ``has_empty_cluster`` set so the caller can drop empty clusters. Ties
    keep the earliest run.
    """
    data = np.asarray(data, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if data.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got {data.shape[0]}")
    runs = [_lloyd(data, kmeans_pp_seed(data, k, rng), max_iter)
            for _ in range(max(restarts, 1))]
    return min(runs, key=lambda r: (r.has_empty_cluster, r.inertia))
