"""Model selection and evaluation metrics.

Covers silhouette scoring for choosing mixture component counts, histogram
comparison with the Jensen-Shannon divergence (log base 2, so the value is
bounded by [0, 1]), and loss-of-separation counting under the standard
3 NM / 1,000 ft terminal separation minima.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from . import preprocess
from .errors import DataError
from .mixture import em_fit
from .units import MPS_TO_KT, NM_TO_M, FT_TO_M

# A trajectory is (times (n,), points (n, 3)); a scene is a list of them.
Trajectory = tuple[np.ndarray, np.ndarray]
Scene = Sequence[Trajectory]


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray   # (B+1,), strictly increasing
    counts: np.ndarray  # (B,), nonnegative integers
    mass: np.ndarray    # (B,), sums to 1

    @classmethod
    def from_samples(cls, samples: np.ndarray, edges: np.ndarray) -> "Histogram":
        samples = np.asarray(samples, dtype=float)
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing with >= 2 entries")
        counts, _ = np.histogram(samples, bins=edges)
        total = counts.sum()
        if total == 0:
            raise DataError("empty histogram: no samples fall inside the edges")
        return cls(edges=edges, counts=counts, mass=counts / total)


# terminal separation minima; floats, as the metrics report writes them
HORIZONTAL_MIN_NM = 3.0
VERTICAL_MIN_FT = 1000.0

# Bin-count cap: a few far outliers would otherwise make the Freedman-Diaconis
# width ask for millions of bins, and the memory they need.
MAX_BINS = 10_000


def shared_fd_edges(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Freedman-Diaconis bin edges over the union of two sample sets.

    When the Freedman-Diaconis width would need more than ``MAX_BINS`` bins,
    the range is split into ``MAX_BINS`` equal bins instead. Non-finite
    samples raise DataError.
    """
    union = np.concatenate([np.asarray(x, dtype=float).ravel(),
                            np.asarray(y, dtype=float).ravel()])
    if union.size == 0:
        raise DataError("cannot bin empty sample sets")
    if not np.all(np.isfinite(union)):
        raise DataError(f"cannot bin {np.count_nonzero(~np.isfinite(union))} "
                        "non-finite samples")
    lo, hi = union.min(), union.max()
    if lo == hi:
        return np.array([lo - 0.5, hi + 0.5])
    # numpy's Freedman-Diaconis width and bin count, so uncapped edges match
    width = 2.0 * np.subtract(*np.percentile(union, [75, 25])) \
        * union.size ** (-1.0 / 3.0)
    too_many = width and np.ceil((hi - lo) / width) > MAX_BINS
    edges = np.histogram_bin_edges(union, bins=MAX_BINS if too_many else "fd")
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        edges = np.array([lo, hi])
    return edges


def histogram_pair(x: np.ndarray, y: np.ndarray) -> tuple[Histogram, Histogram]:
    """Histograms of two sample sets over shared Freedman-Diaconis edges."""
    edges = shared_fd_edges(x, y)
    return Histogram.from_samples(x, edges), Histogram.from_samples(y, edges)


def js_divergence(p: Histogram, q: Histogram) -> float:
    """Jensen-Shannon divergence between two histograms on identical edges."""
    if p.edges.shape != q.edges.shape or not np.array_equal(p.edges, q.edges):
        raise ValueError("histograms have different edges")
    pm, qm = p.mass, q.mass
    mm = (pm + qm) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_p = np.where(pm > 0, pm * np.log2(pm / mm), 0.0)
        kl_q = np.where(qm > 0, qm * np.log2(qm / mm), 0.0)
    return float((kl_p.sum() + kl_q.sum()) / 2.0)


# ---------------------------------------------------------------------------
# Silhouette

# pair-coordinates m * m * n of a silhouette pass from which scipy's cdist
# fills its distances; below it a numpy kernel does, and select never imports
# scipy. Timed in fresh processes on a 2-core VM (numpy 2.4, scipy 1.17) at
# n = 122 and n = 1,052, the numpy pass costs as much as the cdist pass with
# its import at 1.7e8 pair-coordinates (0.49-0.52 s); at 1e8 it takes 0.25 s
# against 0.42-0.48 s
SILHOUETTE_CDIST_WORK = 10**8


def silhouette_scores(data: np.ndarray, labelings: Sequence[np.ndarray]) -> list[float]:
    """Mean silhouette coefficient (b - a) / max(a, b) of each labeling of
    the rows of ``data``.

    a(i) is the mean Euclidean distance from row i to the other rows of its
    cluster, b(i) the mean distance to the nearest other cluster.
    Singleton-cluster rows score 0. One pass computes the distances a block
    of rows at a time, about ``preprocess.CHUNK_BYTES`` of them (two rows at
    least), and sums each block row over every cluster of every labeling. So
    memory grows with the m rows times the clusters, not with m², and each row's
    sums are those of the full (m, m) distance matrix, bit for bit.

    A pass over m rows of n values fills its blocks with scipy's ``cdist``
    when its work m * m * n is at least ``SILHOUETTE_CDIST_WORK``, and with
    ``_euclidean_distances`` below it, which spares the import of
    ``scipy.spatial`` and needs one more block-sized buffer (and a
    transposed copy of the data). The two are equal bit for bit, so the
    scores do not depend on which one ran.
    Raises DataError for a labeling with fewer than 2 clusters.
    """
    members = []
    for labels in labelings:
        labels = np.asarray(labels)
        unique = sorted(set(labels.tolist()))
        if len(unique) < 2:
            raise DataError("silhouette needs at least 2 clusters")
        members.append([labels == c for c in unique])
    m = len(data)
    if m * m * data.shape[1] < SILHOUETTE_CDIST_WORK:
        distances = _euclidean_distances
    else:
        # scipy is imported here only: no other stage needs it at start-up
        from scipy.spatial.distance import cdist as distances
    sums = [np.empty((m, len(masks))) for masks in members]
    # numpy sums the masked columns of two or more rows column by column, as
    # for the full matrix, but one row pairwise; so no block has one row
    step = max(2, preprocess.CHUNK_BYTES // (8 * m))
    for start in range(0, m - 1, step):
        stop = m if m - start <= step + 1 else start + step
        dist = distances(data[start:stop], data)
        for total, masks in zip(sums, members):
            for pos, member in enumerate(masks):
                total[start:stop, pos] = dist[:, member].sum(axis=1)
    return [_mean_silhouette(total, masks) for total, masks in zip(sums, members)]


def _euclidean_distances(rows: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The (len(rows), len(data)) Euclidean distances, equal bit for bit to
    scipy's ``cdist(rows, data)``: like scipy's kernel, it adds the squared
    coordinate differences one coordinate at a time, from the first, then
    takes the root. (A scipy built to fuse the multiply and add would round
    differently.)"""
    total = np.zeros((len(rows), len(data)))
    square = np.empty_like(total)
    for row_values, values in zip(rows.T, np.ascontiguousarray(data.T)):
        np.subtract(row_values[:, None], values, out=square)
        np.multiply(square, square, out=square)
        total += square
    return np.sqrt(total, out=total)


def _mean_silhouette(sums: np.ndarray, members: list[np.ndarray]) -> float:
    """The mean silhouette from every row's (m, K) distance sums to each
    cluster, whose member masks are ``members``."""
    sizes = [int(np.sum(member)) for member in members]
    mean_to_cluster = sums / sizes
    scores = np.zeros(len(sums))
    for pos, (member, size) in enumerate(zip(members, sizes)):
        if size == 1:
            continue  # singleton: score 0
        a = mean_to_cluster[member, pos] * size / (size - 1)  # exclude self
        others = np.delete(mean_to_cluster[member], pos, axis=1)
        b = others.min(axis=1)
        scores[member] = (b - a) / np.maximum(a, b)
    return float(scores.mean())


def silhouette_sweep(data: np.ndarray, component_grid: Sequence[int], *,
                     seed: int = 0) -> tuple[int, list[tuple[int, float]]]:
    """Fit a mixture per grid value and score its hard labels.

    One blocked distance pass scores every grid value's labels
    (``silhouette_scores``), so memory is bounded by a row block and the
    per-cluster sums, not by the (m, m) distance matrix.
    Returns the argmax K (ties toward the smaller K) with the full
    (K, silhouette score) curve.
    Raises DataError for an empty grid or a grid K below 2.
    """
    grid = list(component_grid)
    if not grid:
        raise DataError("component grid is empty")
    if any(k < 2 for k in grid):
        raise DataError("silhouette sweep needs K >= 2")
    labels = [em_fit(data, k, seed=seed).labels for k in grid]
    curve = [(int(k), score) for k, score in zip(grid, silhouette_scores(data, labels))]
    best = max(range(len(curve)), key=lambda i: (curve[i][1], -curve[i][0]))
    return curve[best][0], curve


# ---------------------------------------------------------------------------
# Trajectory variables

def _interp_position(times: np.ndarray, points: np.ndarray,
                     at: np.ndarray) -> np.ndarray:
    cols = [np.interp(at, times, points[:, i]) for i in range(points.shape[1])]
    return np.column_stack(cols)


def extract_variables(scenes: Sequence[Scene]) -> dict[str, np.ndarray]:
    """Pool position, speed, and closest-aircraft-distance samples.

    Returns ``x_east`` and ``y_north`` (meters), ``horizontal_speed``
    (knots) and ``closest_distance`` (meters, empty for single-aircraft
    input), in that order.

    Horizontal speed comes from finite differences of consecutive samples.
    The closest-aircraft distance evaluates, at each sample of a trajectory,
    the horizontal distance to every other aircraft of the same scene whose
    track covers that time (positions linearly interpolated).
    """
    xs, ys, speeds, closest = [], [], [], []
    for scene in scenes:
        trajectories = [(np.asarray(t, dtype=float), np.asarray(p, dtype=float))
                        for t, p in scene]
        for i, (times, points) in enumerate(trajectories):
            xs.append(points[:, 0])
            ys.append(points[:, 1])
            dt = np.diff(times)
            step = np.linalg.norm(np.diff(points[:, :2], axis=0), axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                speeds.append(step / dt * MPS_TO_KT)  # checked when binned
            others = [trajectories[j] for j in range(len(trajectories)) if j != i]
            if not others:
                continue
            min_dist = np.full(times.shape, np.inf)
            for other_times, other_points in others:
                active = (times >= other_times[0]) & (times <= other_times[-1])
                if not active.any():
                    continue
                pos = _interp_position(other_times, other_points[:, :2], times[active])
                d = np.linalg.norm(points[active, :2] - pos, axis=1)
                min_dist[active] = np.minimum(min_dist[active], d)
            finite = np.isfinite(min_dist)
            if finite.any():
                closest.append(min_dist[finite])
    pooled = {"x_east": xs, "y_north": ys, "horizontal_speed": speeds,
              "closest_distance": closest}
    return {name: np.concatenate(parts) if parts else np.empty(0)
            for name, parts in pooled.items()}


# ---------------------------------------------------------------------------
# Loss of separation

def loss_of_separation_count(scenes: Sequence[Scene]) -> tuple[int, list[bool]]:
    """Count separation violation events across scenes.

    A sample violates when a pair is simultaneously below BOTH the horizontal
    and the vertical minimum. Each maximal contiguous run of violating
    samples for a pair counts once. Returns the event count and, per scene,
    whether it has any violation.
    """
    h_min = HORIZONTAL_MIN_NM * NM_TO_M
    v_min = VERTICAL_MIN_FT * FT_TO_M
    total = 0
    flags = []
    for scene in scenes:
        trajectories = [(np.asarray(t, dtype=float), np.asarray(p, dtype=float))
                        for t, p in scene]
        scene_count = 0
        for (ti, pi), (tj, pj) in combinations(trajectories, 2):
            lo, hi = max(ti[0], tj[0]), min(ti[-1], tj[-1])
            grid = np.union1d(ti, tj)
            grid = grid[(grid >= lo) & (grid <= hi)]
            if grid.size == 0:
                continue
            pos_i = _interp_position(ti, pi, grid)
            pos_j = _interp_position(tj, pj, grid)
            horiz = np.linalg.norm(pos_i[:, :2] - pos_j[:, :2], axis=1)
            vert = np.abs(pos_i[:, 2] - pos_j[:, 2])
            violating = (horiz < h_min) & (vert < v_min)
            starts = violating & ~np.concatenate(([False], violating[:-1]))
            scene_count += int(starts.sum())
        total += scene_count
        flags.append(scene_count > 0)
    return total, flags
