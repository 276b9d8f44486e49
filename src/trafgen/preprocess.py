"""Trajectory preprocessing: DTW assignment, segmentation, resampling, deviations.

A deviation vector packs a trajectory's transit time, path length, and its
per-step 3-D offsets from a procedural trajectory into one flat array,
``[transit time, total distance, dx1, dy1, dz1, ..., dxT, dyT, dzT]`` of
length 3T + 2: the training representation used by the mixture models. Every
width check calls :func:`deviation_length`, the inverse of :func:`deviation_width`.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, InvalidDeviation


def path_length(points: np.ndarray):
    """Total length of a (T, d) polyline, or of each polyline in (..., T, d)."""
    points = np.asarray(points, dtype=float)
    return np.linalg.norm(np.diff(points, axis=-2), axis=-1).sum(axis=-1)


# Upper bound, in bytes, on one chunk of dtw_distances, segment_trajectory,
# pchip_resample and metrics.silhouette_scores; each derives its chunk from
# its own bytes per item, and no result depends on the chunk size
CHUNK_BYTES = 1 << 20


def dtw_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """DTW distance of every sequence in ``a`` (F, m, d) to every one in
    ``b`` (R, n, d), as an (F, R) array. Euclidean local cost, no band.

    The accumulated-cost table is swept one anti-diagonal i + j = k at a
    time, for all F·R pairs at once: every cell of a diagonal depends only
    on the two diagonals before it, so only those are kept, indexed by i.
    Local costs are computed per diagonal. Flights are processed in chunks
    so that these working arrays stay under ``CHUNK_BYTES``. Each cell
    is the same floating-point expression as in the textbook double loop,
    so results match it bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("dtw_distances expects (F, m, d) and (R, n, d) arrays")
    if a.shape[1] == 0 or b.shape[1] == 0:
        raise ValueError("dtw_distances requires nonempty sequences")
    if a.shape[2] != b.shape[2]:
        raise ValueError("point dimensions differ")
    n_flights, m, d = a.shape
    n_procs, n, _ = b.shape
    # per flight: the diff and cost of a diagonal, three diagonals of the
    # table, the boundary rows, and the running minimum
    bytes_per_flight = 8 * n_procs * (m * (d + 7) + 2 * n * (d + 1))
    step = max(1, CHUNK_BYTES // max(bytes_per_flight, 1))
    # coordinate planes: (d, F, 1, m) and (d, 1, R, n)
    a_planes = np.moveaxis(a, 2, 0)[:, :, None]
    b_planes = np.ascontiguousarray(np.moveaxis(b, 2, 0)[:, None])
    b_reversed = np.ascontiguousarray(b_planes[..., ::-1])
    out = np.empty((n_flights, n_procs))
    for start in range(0, n_flights, step):
        out[start:start + step] = _dtw_wavefront(
            np.ascontiguousarray(a_planes[:, start:start + step]), b_planes,
            b_reversed)
    return out


def _local_cost(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distance between broadcast point arrays whose first axis
    holds the d coordinate planes.

    The squared differences are added plane by plane in coordinate order,
    the order in which numpy sums a short last axis, so each cost equals
    that of the same points laid out as (..., d) bit for bit.
    """
    diff = x - y
    np.square(diff, out=diff)
    return np.sqrt(np.add.reduce(diff, axis=0))


def _dtw_wavefront(a: np.ndarray, b: np.ndarray,
                   b_reversed: np.ndarray) -> np.ndarray:
    """Anti-diagonal DTW sweep; a (d, F, 1, m), b and b_reversed (d, 1, R, n)."""
    m, n = a.shape[-1], b.shape[-1]
    shape = np.broadcast_shapes(a.shape[1:3], b.shape[1:3])
    # boundary row and column: running sums, as the textbook loop seeds them
    first_row = _local_cost(a[..., :1], b)
    first_col = _local_cost(a, b[..., :1])
    origin = first_row[..., :1]
    row0 = first_row[..., 1:].cumsum(axis=-1) + origin
    col0 = first_col[..., 1:].cumsum(axis=-1) + origin
    # acc(i, k - i) of diagonals k - 2, k - 1 and k, indexed by i
    older, prev, cur = (np.empty(shape + (m,)) for _ in range(3))
    prev[..., 0] = origin[..., 0]
    for k in range(1, m + n - 1):
        lo, hi = max(1, k - n + 1), min(m - 1, k - 1)
        if lo <= hi:
            # cells (i, k - i), i = lo..hi; b_reversed[n - 1 - j] is b[j]
            cost = _local_cost(a[..., lo:hi + 1],
                               b_reversed[..., n - 1 - k + lo:n - k + hi])
            up, diag, left = (prev[..., lo - 1:hi], older[..., lo - 1:hi],
                              prev[..., lo:hi + 1])
            best = np.minimum(up, diag)
            np.minimum(best, left, out=best)
            np.add(cost, best, out=cur[..., lo:hi + 1])
        if k < n:
            cur[..., 0] = row0[..., k - 1]
        if k < m:
            cur[..., k] = col0[..., k - 1]
        older, prev, cur = prev, cur, older
    return prev[..., m - 1]


def assign_procedures(points: np.ndarray, proc_points: np.ndarray) -> np.ndarray:
    """Per trajectory in ``points`` (F, T, >= 2), the index of the procedure
    in ``proc_points`` (R, T, >= 2) with the smallest horizontal DTW
    distance. Ties break toward the lowest index.
    """
    proc_points = np.asarray(proc_points, dtype=float)
    if len(proc_points) == 0:
        raise ValueError("need at least one candidate procedure")
    xy = np.asarray(points, dtype=float)[..., :2]
    return np.argmin(dtw_distances(xy, proc_points[..., :2]), axis=1)


def point_to_polyline_distance(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """Distance from each point to a polyline (both 2-D), vectorized.

    x and y are kept as separate (P, S) planes. Each distance is the same
    floating-point expression as with (P, S, 2) arrays reduced over their
    last axis, so it equals that form bit for bit.
    """
    px, py = np.asarray(points, dtype=float)[:, :2].T[:, :, None]
    poly = np.asarray(polyline, dtype=float)[:, :2]
    sx, sy = poly[:-1].T                                  # (S,)
    dx, dy = (poly[1:] - poly[:-1]).T
    seg_len_sq = dx * dx + dy * dy
    rel_x, rel_y = px - sx, py - sy                       # (P, S)
    t = rel_x * dx
    t += rel_y * dy
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(seg_len_sq > 0, t / seg_len_sq, 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    # the squared offsets from the nearest point of each segment; a square
    # root is monotone, so the root of the least is the least of the roots
    rel_x = px - (sx + t * dx)
    rel_y = py - (sy + t * dy)
    rel_x *= rel_x
    rel_y *= rel_y
    rel_x += rel_y
    return np.sqrt(rel_x.min(axis=1))


def segment_trajectory(tracks: Sequence[np.ndarray], iap_points: np.ndarray,
                       threshold: float) -> tuple[np.ndarray, dict[int, str]]:
    """Boundary index of every track, splitting radar-vector from
    final-approach points, and ``rejected``, which maps each track that
    never joins the IAP, whose points are ``iap_points``, to that message.

    A boundary is the first index from which the track's horizontal
    distance to the IAP polyline stays below ``threshold`` (meters); a track
    whose last point is not below it never joins, and its boundary is its
    length. All points are measured in one pass, in chunks whose working
    arrays stay under ``CHUNK_BYTES``.
    """
    counts = np.array([len(track) for track in tracks])
    if not counts.size or counts.min() < 1:
        raise ValueError("segment_trajectory needs one or more nonempty tracks")
    xy = np.concatenate([np.asarray(track, dtype=float)[:, :2] for track in tracks])
    # point_to_polyline_distance holds up to six (P, S) arrays at once
    step = max(1, CHUNK_BYTES // (8 * 6 * max(len(iap_points) - 1, 1)))
    dist = np.concatenate([point_to_polyline_distance(xy[i:i + step], iap_points)
                           for i in range(0, len(xy), step)])
    beyond = ~(dist < threshold)
    ends = np.cumsum(counts)
    starts = ends - counts
    # the last index beyond the threshold in each track, or the one before it
    last = np.maximum.reduceat(np.where(beyond, np.arange(len(dist)), -1), starts)
    return np.maximum(last, starts - 1) - starts + 1, {
        row: f"trajectory never joins the final approach (last distance "
             f"{dist[end - 1]:.0f} m >= {threshold:.0f} m)"
        for row, end in enumerate(ends) if beyond[end - 1]}


def _pchip_end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point end derivative, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    wrong_sign = np.sign(d) != np.sign(m0)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(wrong_sign, 0.0, np.where(overshoot, 3.0 * m0, d))


def _pchip_slopes(h: np.ndarray, m: np.ndarray, left: np.ndarray,
                  first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Knot derivatives of a batch, one row after another, from its interval
    widths h (I, 1) and secants m (I, c). Interval j runs from knot
    ``left[j]``; row r's intervals run from ``first[r]`` to ``last[r]``.

    Interior knots take the weighted harmonic mean of the adjacent secants
    (Fritsch & Carlson), or 0 where they differ in sign or one is 0. A
    row's end knots take the one-sided end derivative, or the secant itself
    when the row has one interval.
    """
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d = np.empty((left[-1] + 2, m.shape[1]))
    # a pair of intervals that straddles two rows lands on the earlier
    # row's last knot, which its end derivative overwrites below
    d[left[:-1] + 1] = inner
    # both ends of every row in one pass: the end interval and its neighbour
    end = np.concatenate([first, last])
    one = np.concatenate([first == last] * 2)
    inside = np.where(one, end, np.concatenate([first + 1, last - 1]))
    d[np.concatenate([left[first], left[last] + 1])] = np.where(
        one[:, None], m[end], _pchip_end_slope(h[end], h[inside], m[end], m[inside]))
    return d


def _first_failures(checks) -> dict[int, str]:
    """Each row that a ``(rows, message)`` check names, mapped to the
    message of the first check that names it."""
    rejected: dict[int, str] = {}
    for rows, message in checks:
        for row in rows.tolist():
            rejected.setdefault(row, message)
    return rejected


def pchip_resample(times, values, count: int):
    """Resample B timed sequences to ``count`` equally spaced times each.

    ``times`` is a list of B arrays (or a (B, n) array) and ``values`` the
    list of their values, of any knot counts but one trailing shape. Gives
    (B, count) times, (B, count, ...) values and ``rejected``, which maps
    each row that fails a check (fewer than 2 knots, times not strictly
    increasing, then scipy's, with scipy's messages) to its message; that
    row's outputs are NaN. Each coordinate is interpolated independently as
    a monotone piecewise cubic Hermite function of time, so resampled
    coordinates never overshoot the data on monotone intervals. Every row
    goes through the operations of scipy's ``PchipInterpolator`` in their
    order, so each is bitwise equal to scipy on that row alone, in whichever
    chunk of knots under ``CHUNK_BYTES`` (or one longer row) it is
    resampled.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    knots = np.array([len(row) for row in times], dtype=int)
    lengths = np.array([len(row) for row in values], dtype=int)
    trailing = np.shape(values[0])[1:] if len(knots) else np.shape(values)[2:]
    new_times = np.full((len(knots), count), np.nan)
    res = np.full((len(knots), count) + trailing, np.nan)
    rejected: dict[int, str] = {}
    keep, rows = np.ones(len(knots), dtype=bool), np.arange(len(knots))
    # the peak of the chunk loop and _pchip_rows per knot of c values,
    # traced with tracemalloc: 160, 235 and 306 bytes at c = 1, 2 and 3
    chunk_knots = CHUNK_BYTES // (8 * (12 + 10 * math.prod(trailing)))
    ends, start = np.cumsum(knots), 0
    while start < len(knots):
        # the rows from start that fit in one chunk, or the row alone
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - knots[start] + chunk_knots, "right")))
        part = slice(start, stop)
        x = np.concatenate(times[part], dtype=float)
        y = np.concatenate(values[part], dtype=float)
        y = y.reshape(len(y), math.prod(y.shape[1:]))
        # the row of each knot and of each value; knots i and i + 1 of a row
        row, value_row = (np.repeat(rows[part], n[part]) for n in (knots, lengths))
        pair = np.flatnonzero(row[1:] == row[:-1])
        found = _first_failures((
            (rows[part][knots[part] < 2], "need at least 2 samples"),
            (row[pair[x[pair + 1] - x[pair] <= 0]], "times must be strictly increasing"),
            (rows[part][lengths[part] != knots[part]],
             "The length of `y` along `axis`=0 doesn't match the length of `x`"),
            (row[~np.isfinite(x)], "`x` must contain only finite values."),
            (value_row[~np.isfinite(y).all(axis=1)],
             "`y` must contain only finite values.")))
        rejected.update(found)
        keep[list(found)] = False
        kept = rows[part][keep[part]]
        if kept.size:
            new_times[kept], kept_values = _pchip_rows(
                x[keep[row]], y[keep[value_row]], knots[kept], count)
            res[kept] = kept_values.reshape((-1, count) + trailing)
        start = stop
    return new_times, res, rejected


def _pchip_rows(x: np.ndarray, y: np.ndarray, knots: np.ndarray,
                count: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, count) times and (B, count, c) values of B rows that pass every
    check, their knots end to end in ``x`` with their values ``y`` (n, c)."""
    # interval j runs from knot left[j], and row r's intervals run from
    # first[r] to last[r]
    rows = len(knots)
    left = np.arange(len(x) - rows) + np.repeat(np.arange(rows), knots - 1)
    first = np.cumsum(knots - 1) - (knots - 1)
    last = first + knots - 2
    h = (x[left + 1] - x[left])[:, None]
    slope = (y[left + 1] - y[left]) / h
    d = _pchip_slopes(h, slope, left, first, last)
    t = (d[left] + d[left + 1] - 2 * slope) / h
    cubic, square = t / h, (slope - d[left]) / h - t
    starts = left[first]
    new_times = _linspace_rows(x[starts], x[starts + knots - 1], count)
    # searchsorted has no row-wise form; this loop costs about what a
    # stable merge sort of every row would
    i = np.stack([np.searchsorted(x[a:a + n], row, "right")
                  for a, n, row in zip(starts, knots, new_times)]) - 1
    i = np.clip(i, 0, knots[:, None] - 2)
    knot, interval = starts[:, None] + i, first[:, None] + i
    s = (new_times - x[knot])[..., None]
    # PPoly's evaluation order, from a zero accumulator (so -0.0 reads 0.0)
    res = 0.0 + y[knot]
    res += d[knot] * s
    res += square[interval] * (s * s)
    res += cubic[interval] * ((s * s) * s)
    return new_times, res


def _linspace_rows(start: np.ndarray, stop: np.ndarray, count: int) -> np.ndarray:
    """``np.linspace(start[r], stop[r], count)`` of every row r, as (B, count).

    Each row takes numpy's own arithmetic, including its branch for a step
    that underflows to 0, so one row never changes another's result.
    """
    delta = stop - start
    step = delta / (count - 1)
    k = np.arange(count, dtype=float)
    out = k * step[:, None]
    if not step.all():  # numpy's branch, on the rows whose step underflows
        under = step == 0
        out[under] = k / (count - 1) * delta[under, None]
    out += start[:, None]
    out[:, -1] = stop
    return out


def _deviation_rejects(rows: np.ndarray) -> dict[int, str]:
    """:func:`_first_failures` of deviation vectors (B, 3T + 2): a transit
    time, then a total distance, that is not positive."""
    return _first_failures(
        ((np.flatnonzero(rows[:, 0] <= 0), "transit_time must be positive"),
         (np.flatnonzero(rows[:, 1] <= 0), "total_distance must be positive")))


def deviation_width(t_len: int, *, pair: bool = False) -> int:
    """Width 3T + 2 of a T-sample trajectory's deviation vector, or with
    ``pair`` 2 (3T + 2) + 1 of a pairwise vector [tau1, delta12, tau2]."""
    return 2 * (3 * t_len + 2) + 1 if pair else 3 * t_len + 2


def deviation_length(width: int | list[int], what: str, symbol: str = "T", *,
                     pair: bool = False, expected: int | None = None,
                     path: Path | None = None) -> int:
    """The T whose :func:`deviation_width` is ``width``, which may also list
    the distinct widths of several vectors (they must then be one); that T
    must be ``expected`` when one is given. Otherwise a ValueError, or with
    ``path`` a DataError prefixed ``<path>: ``, says ``<what> <width> !=
    3*<symbol>+2 = <expected's width>`` (``2*(3*<symbol>+2)+1`` for a pair;
    ending ``for any <symbol>`` when no T is expected)."""
    widths = width if isinstance(width, list) else [width]
    w = min(widths, default=0)  # the T below is the only one that can fit
    t_len = (((w - 1) // 2 if pair else w) - 2) // 3 if expected is None else expected
    want = deviation_width(t_len, pair=pair)
    if widths != [want]:
        rule = f"2*(3*{symbol}+2)+1" if pair else f"3*{symbol}+2"
        end = f"for any {symbol}" if expected is None else f"= {want}"
        message = f"{what} {width} != {rule} {end}"
        raise ValueError(message) if path is None else DataError(f"{path}: {message}")
    return t_len


def build_deviation_vector(times: np.ndarray, points: np.ndarray,
                           proc_points: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Deviation vectors (B, 3T + 2) of resampled trajectories, times (B, T)
    with points (B, T, 3), against procedural points (T, 3) or (B, T, 3),
    and ``rejected``, which maps each row whose transit time or total
    distance is not positive to that message."""
    times, points = np.asarray(times, dtype=float), np.asarray(points, dtype=float)
    if points.shape[-2:] != np.shape(proc_points)[-2:]:
        raise ValueError(f"trajectory shape {points.shape} does not match "
                         f"procedural trajectory shape {np.shape(proc_points)}")
    offsets = points - proc_points
    rows = np.column_stack([times[:, -1] - times[:, 0], path_length(points),
                            offsets.reshape(len(offsets), math.prod(offsets.shape[1:]))])
    return rows, _deviation_rejects(rows)


def reconstruct_trajectory(rows: np.ndarray,
                           proc_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Times (B, T) and points (B, T, 3) of deviation vectors (B, 3T + 2)
    against procedural points (T, 3) or (B, T, 3): the inverse of
    :func:`build_deviation_vector`.

    Points are the procedural points plus the deviations. Each row's times
    are spread evenly over [0, t'], its transit time rescaled to the length
    d' of its procedural points, t' = tau_1 / tau_2 * d'. A row whose transit
    time or total distance is not positive raises InvalidDeviation with the
    message of the first such row.
    """
    rows = np.asarray(rows, dtype=float)
    count = np.shape(proc_points)[-2]
    if rows.ndim != 2 or rows.shape[1] != deviation_width(count):
        raise ValueError("deviation count does not match procedural length")
    if rejected := _deviation_rejects(rows):
        raise InvalidDeviation(rejected[min(rejected)])
    points = proc_points + rows[:, 2:].reshape(len(rows), count, 3)
    transit = rows[:, 0] / rows[:, 1] * path_length(proc_points)
    return _linspace_rows(np.zeros(len(rows)), transit, count), points
