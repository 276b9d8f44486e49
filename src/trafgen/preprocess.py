"""Trajectory preprocessing: DTW assignment, segmentation, resampling, deviations.

A deviation vector packs a trajectory's transit time, path length, and its
per-step 3-D offsets from a procedural trajectory into one flat array,
``[transit time, total distance, dx1, dy1, dz1, ..., dxT, dyT, dzT]`` of
length 3T + 2: the training representation used by the mixture models. Every
width check calls :func:`deviation_length`, the inverse of :func:`deviation_width`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DataError, InvalidDeviation

if TYPE_CHECKING:
    from .procedures import ProceduralTrajectory


def path_length(points: np.ndarray) -> float:
    """Total polyline length (sum of consecutive segment lengths)."""
    points = np.asarray(points, dtype=float)
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


# Upper bound on the working arrays of one chunk of dtw_distances or
# segment_trajectory, in bytes.
DTW_CHUNK_BYTES = 1 << 20


def dtw_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """DTW distance of every sequence in ``a`` (F, m, d) to every one in
    ``b`` (R, n, d), as an (F, R) array. Euclidean local cost, no band.

    The accumulated-cost table is swept one anti-diagonal i + j = k at a
    time, for all F·R pairs at once: every cell of a diagonal depends only
    on the two diagonals before it, so only those are kept, indexed by i.
    Local costs are computed per diagonal. Flights are processed in chunks
    so that these working arrays stay under ``DTW_CHUNK_BYTES``. Each cell
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
    step = max(1, DTW_CHUNK_BYTES // max(bytes_per_flight, 1))
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


def assign_procedures(points: np.ndarray,
                      procedures: Sequence["ProceduralTrajectory"]) -> np.ndarray:
    """Per trajectory in ``points`` (F, T, >= 2), the index of the procedure
    with the smallest horizontal DTW distance.

    The procedures must share one length. Ties break toward the lowest index.
    """
    if len(procedures) == 0:
        raise ValueError("need at least one candidate procedure")
    xy = np.asarray(points, dtype=float)[..., :2]
    procs_xy = np.stack([proc.points[:, :2] for proc in procedures])
    return np.argmin(dtw_distances(xy, procs_xy), axis=1)


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


def segment_trajectory(tracks: Sequence[np.ndarray], iap: "ProceduralTrajectory",
                       threshold: float) -> list[int | str]:
    """Boundary index of every track, splitting radar-vector from
    final-approach points, or the reason a track has none.

    A track's boundary is the first index from which its horizontal
    distance to the IAP polyline stays below ``threshold`` (meters) for the
    rest of the track. A track whose last point is not below it never joins
    the IAP, and gets that message instead. The points of all tracks are
    measured in one pass, in chunks whose working arrays stay under
    ``DTW_CHUNK_BYTES``.
    """
    counts = np.array([len(track) for track in tracks])
    if not counts.size or counts.min() < 1:
        raise ValueError("segment_trajectory needs one or more nonempty tracks")
    xy = np.concatenate([np.asarray(track, dtype=float)[:, :2] for track in tracks])
    # point_to_polyline_distance holds up to six (P, S) arrays at once
    step = max(1, DTW_CHUNK_BYTES // (8 * 6 * max(len(iap.points) - 1, 1)))
    dist = np.concatenate([point_to_polyline_distance(xy[i:i + step], iap.points)
                           for i in range(0, len(xy), step)])
    beyond = ~(dist < threshold)
    ends = np.cumsum(counts)
    starts = ends - counts
    # the last index beyond the threshold in each track, or the one before it
    last = np.maximum.reduceat(np.where(beyond, np.arange(len(dist)), -1), starts)
    boundaries = np.maximum(last, starts - 1) - starts + 1
    return [f"trajectory never joins the final approach (last distance "
            f"{dist[end - 1]:.0f} m >= {threshold:.0f} m)" if beyond[end - 1]
            else boundary for boundary, end in zip(boundaries.tolist(), ends)]


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


def pchip_resample(times, values, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Resample timed sequences to ``count`` equally spaced times each.

    ``times`` (n,) with ``values`` (n, ...) is one sequence of n knots, and
    gives (count,) times with (count, ...) values. A batch is B sequences:
    ``times`` a list of B arrays (or a (B, n) array) and ``values`` the list
    of their values, of any knot counts but one trailing shape; it gives
    (B, count) times with (B, count, ...) values. One sequence is the batch
    of one. Each coordinate is interpolated independently as a monotone
    piecewise cubic Hermite function of time, so resampled coordinates never
    overshoot the data on monotone intervals. Every row goes through the
    operations of scipy's ``PchipInterpolator`` in their order, so each is
    bitwise equal to scipy on that row alone. A row that fails a check
    rejects the whole batch.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    single = len(times) == 0 or np.ndim(times[0]) == 0
    if single:
        times, values = [times], [values]
    knots = np.array([len(row) for row in times])
    if not knots.size or knots.min() < 2:
        raise ValueError("need at least 2 samples")
    # the rows' knots one after another; interval j runs from knot left[j],
    # and row r's intervals run from first[r] to last[r]
    x = np.concatenate(times, dtype=float)
    rows = len(knots)
    left = np.arange(len(x) - rows) + np.repeat(np.arange(rows), knots - 1)
    first = np.cumsum(knots - 1) - (knots - 1)
    last = first + knots - 2
    h = (x[left + 1] - x[left])[:, None]
    if np.any(h <= 0):
        raise ValueError("times must be strictly increasing")
    # scipy's checks and messages, which ingest reports per excluded flight
    if [len(row) for row in values] != knots.tolist():
        raise ValueError("The length of `y` along `axis`=0 doesn't match "
                         "the length of `x`")
    if not np.isfinite(x).all():
        raise ValueError("`x` must contain only finite values.")
    values = np.concatenate(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("`y` must contain only finite values.")
    y = values.reshape(len(x), -1)
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
    res = res.reshape((rows, count) + values.shape[1:])
    return (new_times[0], res[0]) if single else (new_times, res)


def _linspace_rows(start: np.ndarray, stop: np.ndarray, count: int) -> np.ndarray:
    """``np.linspace(start[r], stop[r], count)`` of every row r, as (B, count).

    Each row takes numpy's own arithmetic, including its branch for a step
    that underflows to 0, so one row never changes another's result.
    """
    delta = (stop - start)[:, None]
    k = np.arange(count, dtype=float)
    step = delta / (count - 1)
    out = np.where(step == 0, k / (count - 1) * delta, k * step) + start[:, None]
    out[:, -1] = stop
    return out


def _check_positive(tau: np.ndarray) -> None:
    """InvalidDeviation unless the deviation vector's transit time and total
    distance are positive."""
    if tau[0] <= 0:
        raise InvalidDeviation("transit_time must be positive")
    if tau[1] <= 0:
        raise InvalidDeviation("total_distance must be positive")


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
                           proc: "ProceduralTrajectory") -> np.ndarray:
    """Deviation vector (3T + 2,) of a resampled trajectory against a
    procedural one."""
    points = np.asarray(points, dtype=float)
    if points.shape != proc.points.shape:
        raise ValueError(
            f"trajectory shape {points.shape} does not match procedural "
            f"trajectory shape {proc.points.shape}"
        )
    times = np.asarray(times, dtype=float)
    tau = np.concatenate(([times[-1] - times[0], path_length(points)],
                          (points - proc.points).ravel()))
    _check_positive(tau)
    return tau


def reconstruct_trajectory(tau: np.ndarray, proc: "ProceduralTrajectory",
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild a timed trajectory from a deviation vector and a procedure.

    Positions are the procedural points plus deviations. The transit time is
    rescaled to the procedure's length (t' = tau_1 / tau_2 * d') and
    timestamps are spread evenly over [0, t'].
    """
    tau = np.asarray(tau, dtype=float)
    count = proc.points.shape[0]
    if tau.shape != (deviation_width(count),):
        raise ValueError("deviation count does not match procedural length")
    _check_positive(tau)
    points = proc.points + tau[2:].reshape(count, 3)
    transit = tau[0] / tau[1] * proc.total_distance
    times = np.linspace(0.0, transit, count)
    return times, points
