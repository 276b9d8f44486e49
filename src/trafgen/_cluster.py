"""Internal k-means with k-means++ seeding and restart handling."""

from __future__ import annotations

import numpy as np


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


def _lloyd(data: np.ndarray, centers: np.ndarray, max_iter: int,
           ) -> tuple[bool, float, np.ndarray, np.ndarray]:
    """(has an empty cluster, inertia, centers, labels) of one Lloyd run."""
    labels = None
    for it in range(max_iter + 1):
        # one center at a time, as kmeans_pp_seed: one copy of the data, not k
        dists = np.stack([np.sum((data - c) ** 2, axis=1) for c in centers], axis=1)
        new_labels = dists.argmin(axis=1)
        if it == max_iter or (labels is not None and np.array_equal(new_labels, labels)):
            break
        labels = new_labels
        for j in np.flatnonzero(np.bincount(labels)):  # an empty one keeps its center
            centers[j] = data[labels == j].mean(axis=0)
    inertia = float(dists[np.arange(data.shape[0]), new_labels].sum())
    empty = bool(np.any(np.bincount(new_labels, minlength=len(centers)) == 0))
    return empty, inertia, centers, new_labels


def kmeans(data: np.ndarray, k: int, rng: np.random.Generator,
           restarts: int = 1, max_iter: int = 100,
           ) -> tuple[np.ndarray, np.ndarray]:
    """The (k, n) centers and (m,) labels of the best of ``restarts`` runs.

    A run that converges with an empty cluster counts only when every
    restart does: then the best degenerate run is returned. Ties keep the
    earliest run. A run holds about one copy of the data, whatever k.
    """
    data = np.asarray(data, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if data.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got {data.shape[0]}")
    runs = [_lloyd(data, kmeans_pp_seed(data, k, rng), max_iter)
            for _ in range(max(restarts, 1))]
    return min(runs, key=lambda r: r[:2])[2:]
