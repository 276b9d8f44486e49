"""Independent test oracles: brute-force and Monte-Carlo reference results.

These deliberately avoid the library's own computational paths: the DTW
oracle enumerates warping paths, the silhouette oracle is O(m^2) loops, and
the conditional-Gaussian oracle estimates posterior moments by kernel-weighted
joint sampling (no use of the conditional formulas). Other references
keep the plain dense computation that a structured fast path replaces: the
silhouette from the full m x m distance matrix, which the row-blocked one
must match bit for bit, the
per-call conditioning on dense n x n covariances, which the factored
conditional must match to rounding, the PSD repair by a full
eigendecomposition, the row-by-row DTW double loop,
which the batched wavefront must match bit for bit, the rank selection
that refits PPCA for every grid rank and adds jitter through a dense
identity, EM and PPCA compression on full n x n covariances with one
Cholesky per component per E-step, which the spectral forms must match to
rounding, EM with both of its steps in every iteration, which the skip of
repeated responsibilities must match bit for bit, and scene assembly into
one dense covariance with its low-rank repair, which the factored scene
must match to rounding.
Pair extraction keeps its record-based form: Python's stable ``sorted`` over
(procedure, arrival time, deviation vector) records, one row per pair.
scipy's ``PchipInterpolator`` and ``logsumexp`` are the references that
the library's numpy PCHIP and ``_logsumexp`` must match bit for bit, and
``csv.writer``, one row at a time, is the reference for the bytes of the
bulk trajectory writer, ``json.dumps`` of the whole ``model_to_dict``
document for the bytes of the model writer, which writes one array at a
time, and ``csv.reader``, one row at a time, for what the
block readers of track and trajectory files return and report. The
polyline distance and the DTW local cost keep their (..., 2) form, which
the coordinate-plane kernels must match bit for bit.
The dense helpers these references share live here, not in the library:
``dense_covariance`` (a component's F F^T + noise_var I as one matrix),
``psd_jitter_cholesky`` (Cholesky with escalating diagonal jitter),
``psd_factor`` (that, else eigh with clipping) and ``_component_log_density``
(a Gaussian log density from a Cholesky factor).
"""

import csv
import math
from array import array
from operator import itemgetter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg import block_diag, cho_solve, cholesky, solve_triangular
from scipy.special import logsumexp

from trafgen._cluster import kmeans
from trafgen._files import _reading
from trafgen.errors import DataError, NumericalError
from trafgen.ingest import Flight
from trafgen.mixture import (_LOG_2PI, EM_MAX_ITER, EM_TOL, MODEL_FORMAT,
                             EMFit, GaussianComponent, MixtureModel,
                             _log_densities, _logsumexp, _m_step, sample)
from trafgen.multi_model import _block, _delta_index, _require_model


def dense_covariance(comp: GaussianComponent) -> np.ndarray:
    """A component's ``F F^T + noise_var I`` as one n x n matrix."""
    cov = comp.cov_factor @ comp.cov_factor.T
    cov[np.diag_indices_from(cov)] += comp.noise_var
    return cov


def psd_jitter_cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, escalating diagonal jitter instead of inverting.

    Jitter scales with trace(cov)/n and escalates 1e-10 -> 1e-6; failure
    past the largest jitter raises NumericalError. Each level refills one
    Fortran-ordered work copy of ``cov``, adds the jitter to its diagonal and
    factors it in place, so no n x n temporary beyond that copy is made.
    """
    n = cov.shape[0]
    scale = max(float(np.trace(cov)) / n, np.finfo(float).tiny)
    work = np.empty_like(cov, dtype=float, order="F")
    diag = np.diag_indices(n)
    for jitter in (0.0, 1e-10, 1e-8, 1e-6):
        work[...] = cov
        work[diag] += jitter * scale
        try:
            return cholesky(work, lower=True, overwrite_a=True)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError("covariance is not positive definite after max jitter")


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Any F with F F^T = cov (PSD projection): Cholesky, else eigh with clipping."""
    try:
        return psd_jitter_cholesky(cov)
    except NumericalError:
        eigvals, eigvecs = np.linalg.eigh((cov + cov.T) / 2.0)
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _component_log_density(data: np.ndarray, mean: np.ndarray,
                           chol_lower: np.ndarray) -> np.ndarray:
    """Gaussian log density of each row given a precomputed Cholesky factor."""
    solved = solve_triangular(chol_lower, (data - mean).T, lower=True)
    log_det = np.sum(np.log(np.diag(chol_lower)))
    n = mean.shape[0]
    with np.errstate(over="ignore"):
        maha = np.sum(solved ** 2, axis=0)
    return -0.5 * (n * _LOG_2PI + maha) - log_det


def dtw_brute_force(a, b):
    """Minimum summed cost over every monotone warping path."""
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T
    m, n = len(a), len(b)
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    best = [np.inf]

    def walk(i, j, total):
        total += cost[i, j]
        if total >= best[0]:
            return
        if i == m - 1 and j == n - 1:
            best[0] = total
            return
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1, total)
        if i + 1 < m:
            walk(i + 1, j, total)
        if j + 1 < n:
            walk(i, j + 1, total)

    walk(0, 0, 0.0)
    return best[0]


def dtw_loop(a, b):
    """Textbook DTW double loop over the accumulated-cost table."""
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T
    # local cost c[i, j] = ||a_i - b_j||_2
    diff = a[:, None, :] - b[None, :, :]
    cost = np.sqrt((diff ** 2).sum(axis=2))
    m, n = cost.shape
    acc = np.empty_like(cost)
    acc[0, 0] = cost[0, 0]
    acc[0, 1:] = cost[0, 1:].cumsum() + acc[0, 0]
    acc[1:, 0] = cost[1:, 0].cumsum() + acc[0, 0]
    for i in range(1, m):
        row = acc[i]
        prev = acc[i - 1]
        for j in range(1, n):
            row[j] = cost[i, j] + min(prev[j], prev[j - 1], row[j - 1])
    return float(acc[m - 1, n - 1])


def pchip_resample_scipy(times, values, count):
    """``pchip_resample`` through scipy's ``PchipInterpolator``."""
    interp = PchipInterpolator(times, values, axis=0, extrapolate=False)
    new_times = np.linspace(times[0], times[-1], count)
    return new_times, interp(new_times)


def write_trajectory_csv_rows(path: Path, key_columns, rows) -> None:
    """``write_trajectory_csv`` through ``csv.writer``, one row per sample."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([*key_columns, "t", "x", "y", "z"])
        for keys, times, points in rows:
            for t, (x, y, z) in zip(times, points):
                writer.writerow([*keys, repr(float(t)), repr(float(x)),
                                 repr(float(y)), repr(float(z))])


def model_to_dict(model: MixtureModel) -> dict:
    """The model's JSON document as Python lists: ``json.dumps(...,
    sort_keys=True)`` of it is the text ``save_model`` must write byte for
    byte, one array at a time."""
    return {
        "format": MODEL_FORMAT, "segment_kind": model.segment_kind,
        "n_components": len(model.components), "dimension": model.dimension,
        "components": [{"weight": c.weight, "mean": c.mean.tolist(),
                        "cov_factor": c.cov_factor.tolist(),
                        "noise_var": c.noise_var} for c in model.components],
    }


def silhouette_brute_force(data, labels):
    """Direct per-point silhouette evaluation with explicit loops."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    labels = np.asarray(labels)
    clusters = sorted(set(labels.tolist()))
    scores = []
    for i in range(len(data)):
        own = labels[i]
        same = [j for j in range(len(data)) if labels[j] == own and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = float(np.mean([np.linalg.norm(data[i] - data[j]) for j in same]))
        b = min(
            float(np.mean([np.linalg.norm(data[i] - data[j])
                           for j in range(len(data)) if labels[j] == other]))
            for other in clusters if other != own
        )
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


def silhouette_score(dist, labels):
    """Mean silhouette coefficient from the full (m, m) distance matrix
    ``dist``, one cluster's columns at a time: the reference that the
    row-blocked ``silhouette_scores`` must match bit for bit."""
    labels = np.asarray(labels)
    unique = np.unique(labels)
    if unique.size < 2:
        raise DataError("silhouette needs at least 2 clusters")
    m = dist.shape[0]
    cluster_sizes = {c: int(np.sum(labels == c)) for c in unique}
    # mean distance from every point to every cluster
    mean_to_cluster = np.column_stack([
        dist[:, labels == c].sum(axis=1) / cluster_sizes[c] for c in unique])
    scores = np.zeros(m)
    for pos, c in enumerate(unique):
        member = labels == c
        size = cluster_sizes[c]
        if size == 1:
            continue  # singleton: score 0
        a = mean_to_cluster[member, pos] * size / (size - 1)  # exclude self
        others = np.delete(mean_to_cluster[member], pos, axis=1)
        b = others.min(axis=1)
        scores[member] = (b - a) / np.maximum(a, b)
    return float(scores.mean())


def mc_conditional_moments(model: MixtureModel, observed_idx, observed_vals,
                           n_samples: int, rng, bandwidth: float = 0.05):
    """Kernel-weighted Monte-Carlo estimate of conditional weights and means.

    Samples the JOINT mixture and weights each draw by a Gaussian kernel on
    the observed coordinates, so the estimate never touches the analytic
    conditional. The kernel bandwidth (relative to each observed coordinate's
    marginal spread) is kept small so the smoothing bias stays below the
    sampling error. Returns (weights, weight SEs, means, mean SEs).
    """
    observed_idx = np.asarray(observed_idx, dtype=int)
    observed_vals = np.asarray(observed_vals, dtype=float)
    mask = np.ones(model.dimension, dtype=bool)
    mask[observed_idx] = False

    draws, comps = sample(model, n_samples, rng)
    a_part = draws[:, observed_idx]
    h = bandwidth * a_part.std(axis=0)
    h = np.where(h > 0, h, 1.0)
    z = (a_part - observed_vals) / h
    log_w = -0.5 * np.sum(z ** 2, axis=1)
    w = np.exp(log_w - log_w.max())
    w_sum = w.sum()

    b_part = draws[:, mask]
    mean = (w[:, None] * b_part).sum(axis=0) / w_sum
    resid = b_part - mean
    mean_se = np.sqrt((w[:, None] ** 2 * resid ** 2).sum(axis=0)) / w_sum

    n_comp = len(model.components)
    weights = np.empty(n_comp)
    weight_se = np.empty(n_comp)
    for j in range(n_comp):
        indicator = (comps == j).astype(float)
        weights[j] = (w * indicator).sum() / w_sum
        weight_se[j] = np.sqrt(
            (w ** 2 * (indicator - weights[j]) ** 2).sum()) / w_sum
    return weights, weight_se, mean, mean_se


def condition_dense(model: MixtureModel, observed_idx, observed_vals):
    """Conditioning recomputed from each full covariance on every call.

    Returns (weights, means, covariance factors) of the conditional mixture.
    """
    idx_a = np.asarray(observed_idx, dtype=int)
    vals = np.asarray(observed_vals, dtype=float)
    mask = np.ones(model.dimension, dtype=bool)
    mask[idx_a] = False
    idx_b = np.flatnonzero(mask)
    log_w = np.empty(len(model.components))
    means, factors = [], []
    for j, comp in enumerate(model.components):
        cov = dense_covariance(comp)
        sigma_aa = cov[np.ix_(idx_a, idx_a)]
        sigma_ba = cov[np.ix_(idx_b, idx_a)]
        sigma_bb = cov[np.ix_(idx_b, idx_b)]
        chol_aa = psd_jitter_cholesky(sigma_aa)
        delta = vals - comp.mean[idx_a]
        with np.errstate(divide="ignore"):
            log_w[j] = np.log(comp.weight) + _component_log_density(
                delta[None, :], np.zeros_like(delta), chol_aa)[0]
        gain = cho_solve((chol_aa, True), sigma_ba.T).T
        means.append(comp.mean[idx_b] + gain @ delta)
        cond_cov = sigma_bb - gain @ sigma_ba.T
        factors.append(psd_factor((cond_cov + cond_cov.T) / 2.0))
    weights = np.exp(log_w - logsumexp(log_w))
    weights /= weights.sum()
    return weights, means, factors


def repair_psd_dense(cov, blocks):
    """Clip negative eigenvalues of the full matrix; per-block Frobenius drift."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[0] >= 0.0:
        return cov, [0.0] * len(blocks)
    repaired = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
    repaired = (repaired + repaired.T) / 2.0
    drift = []
    for blk in blocks:
        before = cov[blk, blk]
        denom = np.linalg.norm(before)
        drift.append(float(np.linalg.norm(repaired[blk, blk] - before) / denom)
                     if denom > 0 else 0.0)
    return repaired, drift


class DenseScene(NamedTuple):
    """A scene assembled into one dense (N d + N - 1)^2 covariance."""

    mean: np.ndarray
    assembled: np.ndarray           # before the PSD repair
    blocks: list                    # slice of each aircraft's block
    covariance: np.ndarray          # after it
    provenance: dict
    block_drift: list


def _marginal(comp: GaussianComponent, blk: slice) -> GaussianComponent:
    """The component's marginal over one aircraft's block: its factor rows."""
    return GaussianComponent(comp.weight, comp.mean[blk], comp.cov_factor[blk],
                             comp.noise_var)


def _set_block(cov: np.ndarray, rows, cols, value) -> None:
    """Write a covariance block and its transpose."""
    cov[rows, cols] = value
    cov[cols, rows] = np.transpose(value)


def assemble_scene_dense(models: Mapping[tuple[str, str], MixtureModel],
                         procedure_sequence: Sequence[str],
                         rng: int | np.random.Generator | None = None,
                         ) -> DenseScene:
    """Scene assembly into one dense covariance, repaired by ``_repair_psd``.

    Step 1 samples a component from the first pair's model. Each further
    adjacent pair picks the component whose leading diagonal block is closest
    (Frobenius) to the block already placed for the shared aircraft; each
    non-adjacent pair picks the component whose two diagonal blocks are
    jointly closest and contributes only its cross block. Inter-arrival
    covariances that no pairwise model observes stay zero. The result is
    repaired to PSD by eigenvalue clipping.

    Every block is built from the components' factor rows, never from a
    full pairwise covariance, and the factor rows placed in each aircraft's
    block are kept for the low-rank repair in :func:`_repair_psd`.
    """
    rng = np.random.default_rng(rng)
    procs = list(procedure_sequence)
    n = len(procs)
    if n < 2:
        raise ValueError("a scene needs at least 2 aircraft")
    d = (next(iter(models.values())).dimension - 1) // 2
    a_blk, b_blk = slice(0, d), slice(d + 1, 2 * d + 1)

    dim = n * d + (n - 1)
    mean = np.zeros(dim)
    cov = np.zeros((dim, dim))
    block_factors: list[list[np.ndarray]] = [[] for _ in range(n)]
    provenance: dict[str, int] = {}

    def placed(i: int) -> np.ndarray:
        """Aircraft i's diagonal block: written once, never overwritten."""
        return cov[_block(i, d), _block(i, d)]

    def place_adjacent(k: int, comp) -> None:
        """Pair (k, k+1): everything but aircraft k's diagonal block."""
        f = comp.cov_factor
        f_a, f_q, f_b = f[a_blk], f[d], f[b_blk]
        q = _delta_index(k, d)
        blk_k, blk_k1 = _block(k, d), _block(k + 1, d)
        mean[q] = comp.mean[d]
        mean[blk_k1] = comp.mean[b_blk]
        _set_block(cov, blk_k, q, f_a @ f_q)
        _set_block(cov, blk_k, blk_k1, f_a @ f_b.T)
        cov[q, q] = f_q @ f_q + comp.noise_var
        _set_block(cov, q, blk_k1, f_b @ f_q)
        cov[blk_k1, blk_k1] = dense_covariance(_marginal(comp, b_blk))
        block_factors[k].append(f_a)
        block_factors[k + 1].append(f_b)

    # step 1: sample a component from the first pair's model
    model01 = _require_model(models, (procs[0], procs[1]))
    j0 = int(rng.choice(len(model01.components), p=model01.weights))
    comp = model01.components[j0]
    mean[a_blk] = comp.mean[a_blk]
    cov[a_blk, a_blk] = dense_covariance(_marginal(comp, a_blk))
    place_adjacent(0, comp)
    provenance["pair_0_1"] = j0

    # step 2 repeated: adjacent pairs (k, k+1), matching the shared block
    for k in range(1, n - 1):
        model_k = _require_model(models, (procs[k], procs[k + 1]))
        dists = [np.linalg.norm(dense_covariance(_marginal(c, a_blk))
                                - placed(k)) for c in model_k.components]
        jk = int(np.argmin(dists))
        place_adjacent(k, model_k.components[jk])
        provenance[f"pair_{k}_{k + 1}"] = jk

    # step 3 repeated: non-adjacent cross blocks; own delta row is discarded
    for k in range(2, n):
        for i in range(0, k - 1):
            model_ik = _require_model(models, (procs[i], procs[k]))
            dists = [
                np.linalg.norm(dense_covariance(_marginal(c, a_blk))
                               - placed(i))
                + np.linalg.norm(dense_covariance(_marginal(c, b_blk))
                                 - placed(k))
                for c in model_ik.components]
            jik = int(np.argmin(dists))
            f = model_ik.components[jik].cov_factor
            _set_block(cov, _block(i, d), _block(k, d), f[a_blk] @ f[b_blk].T)
            block_factors[i].append(f[a_blk])
            block_factors[k].append(f[b_blk])
            provenance[f"cross_{i}_{k}"] = jik

    blocks = [_block(i, d) for i in range(n)]
    repaired, drift = _repair_psd(cov, blocks, block_factors)
    return DenseScene(mean=mean, assembled=cov, blocks=blocks,
                      covariance=repaired, provenance=provenance,
                      block_drift=drift)


def _repair_psd(cov: np.ndarray, blocks: Sequence[slice],
                block_factors: Sequence[Sequence[np.ndarray]],
                ) -> tuple[np.ndarray, list[float]]:
    """Clip negative eigenvalues to zero; report per-block Frobenius drift.

    ``cov`` is a symmetric scene covariance. ``block_factors[i]`` holds the
    factor rows (d x r each) of every component placed in ``blocks[i]``;
    the coordinates outside the blocks are the inter-arrival times. Each
    diagonal block is ``G G^T + s_i I`` with G among its factor rows and
    s_i >= 0; each off-diagonal block and each inter-arrival row factors
    through the factor rows of the blocks it touches.

    Let Q be an orthonormal basis of the factor columns, each embedded in
    its block, together with the unit vectors of the inter-arrival
    coordinates. A vector v orthogonal to Q has no inter-arrival part and,
    in every block, is orthogonal to every factor placed there; so every
    off-diagonal block and inter-arrival row maps it to zero, and
    cov v = s_i v blockwise. The complement of span(Q) is thus invariant
    under cov with eigenvalues s_i >= 0, and by symmetry so is span(Q).
    Every negative eigenvalue of cov is therefore one of the small matrix
    Q^T cov Q (at most N(N-1)r + N-1 columns for N aircraft), and clipping
    it subtracts U diag(lambda_neg) U^T with U = Q V_neg. An input that is
    already PSD is returned as is.
    """
    dim = cov.shape[0]
    columns = []
    covered = np.zeros(dim, dtype=bool)
    for blk, factors in zip(blocks, block_factors):
        width = blk.stop - blk.start
        q_blk = np.linalg.qr(np.hstack([np.empty((width, 0)), *factors]))[0]
        embedded = np.zeros((dim, q_blk.shape[1]))
        embedded[blk] = q_blk
        columns.append(embedded)
        covered[blk] = True
    rest = np.flatnonzero(~covered)
    units = np.zeros((dim, rest.size))
    units[rest, np.arange(rest.size)] = 1.0
    basis = np.hstack(columns + [units])

    eigvals, eigvecs = np.linalg.eigh(basis.T @ (cov @ basis))
    if eigvals[0] >= 0.0:
        return cov, [0.0] * len(blocks)
    negative = eigvals < 0.0
    # cov - U diag(lambda_neg) U^T = cov + W W^T, W = U sqrt(-lambda_neg)
    lift = (basis @ eigvecs[:, negative]) * np.sqrt(-eigvals[negative])
    repaired = lift @ lift.T
    repaired += cov
    drift = []
    for blk in blocks:
        before = cov[blk, blk]
        denom = np.linalg.norm(before)
        delta = np.linalg.norm(repaired[blk, blk] - before)
        drift.append(float(delta / denom) if denom > 0 else 0.0)
    return repaired, drift


def scene_covariance(params):
    """Dense covariance of a factored scene:
    Q L L^T Q^T + sum_p s_p (I_p - Q_p Q_p^T), with Q = diag(bases).
    """
    q_l = block_diag(*params.bases) @ params.factor
    rest = block_diag(*[s * (np.eye(len(q)) - q @ q.T)
                        for q, s in zip(params.bases, params.noise)])
    return q_l @ q_l.T + rest


def jitter_cholesky_eye(cov):
    """Jittered Cholesky that adds each jitter level as a dense scaled identity."""
    n = cov.shape[0]
    scale = max(float(np.trace(cov)) / n, np.finfo(float).tiny)
    for jitter in (0.0, 1e-10, 1e-8, 1e-6):
        try:
            return cholesky(cov + jitter * scale * np.eye(n), lower=True)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError("covariance is not positive definite after max jitter")


def select_rank_per_rank(data, rank_grid, seed=0, holdout_fraction=0.2):
    """Held-out PPCA rank selection that redoes the whole fit for every rank.

    Each grid rank recomputes the training mean, sample covariance and its
    eigendecomposition, builds W W^T + sigma^2 I with a dense identity and
    factors it with :func:`jitter_cholesky_eye`. Returns (rank, curve).
    """
    data = np.asarray(data, dtype=float)
    m, n = data.shape
    perm = np.random.default_rng(seed).permutation(m)
    n_holdout = int(round(m * holdout_fraction))
    holdout, train = data[perm[:n_holdout]], data[perm[n_holdout:]]
    curve = []
    for k in rank_grid:
        mean = train.mean(axis=0)
        centered = train - mean
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / len(train))
        eigvals = np.clip(eigvals, 0.0, None)
        noise_var = float(np.mean(eigvals[:n - k]))
        w = eigvecs[:, n - k:] * np.sqrt(
            np.clip(eigvals[n - k:] - noise_var, 0.0, None))
        chol = jitter_cholesky_eye(w @ w.T + noise_var * np.eye(n))
        curve.append(
            (int(k), float(_component_log_density(holdout, mean, chol).sum())))
    best = max(range(len(curve)), key=lambda i: (curve[i][1], -curve[i][0]))
    return curve[best][0], curve


def _log_densities_dense(data, weights, means, chol_factors):
    """(m, K) matrix of log(pi_j) + log N(x_i | mu_j, L_j L_j^T)."""
    out = np.empty((data.shape[0], len(weights)))
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
        for j, (mean, chol) in enumerate(zip(means, chol_factors)):
            out[:, j] = log_weights[j] + _component_log_density(data, mean, chol)
    return out


def _m_step_dense(data, resp, reg):
    m, n = data.shape
    counts = resp.sum(axis=0)
    counts = np.maximum(counts, 1e-300)
    weights = counts / m
    means = (resp.T @ data) / counts[:, None]
    covs = np.empty((resp.shape[1], n, n))
    for j in range(resp.shape[1]):
        centered = data - means[j]
        cov = (centered * resp[:, j:j + 1]).T @ centered / counts[j]
        covs[j] = (cov + cov.T) / 2.0
    diag = np.arange(n)
    covs[:, diag, diag] += reg
    return weights, means, covs


def em_fit_dense(data, n_components, *, seed=0, segment_kind="generic"):
    """EM holding every covariance as an n x n matrix.

    Each E-step factors every component covariance by Cholesky; the
    returned components carry the last E-step's Cholesky factors.
    """
    data = np.asarray(data, dtype=float)
    m, n = data.shape
    rng = np.random.default_rng(seed)
    reg = max(1e-6 * float(np.mean(np.var(data, axis=0))), 1e-12)

    _, labels = kmeans(data, n_components, rng, restarts=1, max_iter=50)
    resp = np.zeros((m, n_components))
    resp[np.arange(m), labels] = 1.0
    empty = resp.sum(axis=0) == 0
    if empty.any():
        resp[:, empty] = 1e-6
        resp /= resp.sum(axis=1, keepdims=True)
    weights, means, covs = _m_step_dense(data, resp, reg)

    history = []
    for it in range(EM_MAX_ITER):
        factors = [psd_jitter_cholesky(cov) for cov in covs]
        log_dens = _log_densities_dense(data, weights, means, factors)
        log_norm = logsumexp(log_dens, axis=1)
        ll = float(log_norm.sum())
        resp = np.exp(log_dens - log_norm[:, None])
        history.append(ll)
        if len(history) > 1 and ll - history[-2] < EM_TOL * abs(history[-2]):
            break
        if it < EM_MAX_ITER - 1:
            weights, means, covs = _m_step_dense(data, resp, reg)

    components = [
        GaussianComponent(weight=float(weights[j]), mean=means[j],
                          cov_factor=factors[j], noise_var=0.0)
        for j in range(n_components)
    ]
    total = sum(c.weight for c in components)
    for c in components:
        c.weight /= total
    model = MixtureModel(components=components, segment_kind=segment_kind)
    return EMFit(model=model, labels=resp.argmax(axis=1),
                 log_likelihoods=history)


def em_fit_full_loop(data, n_components, *, seed=0):
    """``em_fit`` with an E-step and, but for the last, an M-step in every
    iteration, also when an E-step repeats the responsibilities that the
    parameters came from."""
    data = np.asarray(data, dtype=float)
    m = data.shape[0]
    rng = np.random.default_rng(seed)
    reg = max(1e-6 * float(np.mean(np.var(data, axis=0))), 1e-12)

    _, labels = kmeans(data, n_components, rng, restarts=1, max_iter=50)
    resp = np.zeros((m, n_components))
    resp[np.arange(m), labels] = 1.0
    empty = resp.sum(axis=0) == 0
    if empty.any():
        resp[:, empty] = 1e-6
        resp /= resp.sum(axis=1, keepdims=True)
    weights, means, spectra = _m_step(data, resp)

    history = []
    for it in range(EM_MAX_ITER):
        log_dens = _log_densities(data, weights, means, spectra,
                                  [reg] * n_components)
        log_norm = _logsumexp(log_dens, axis=1)
        ll = float(log_norm.sum())
        resp = np.exp(log_dens - log_norm[:, None])
        history.append(ll)
        if len(history) > 1 and ll - history[-2] < EM_TOL * abs(history[-2]):
            break
        if it < EM_MAX_ITER - 1:
            weights, means, spectra = _m_step(data, resp)

    components = [
        GaussianComponent(weight=float(weights[j]), mean=means[j],
                          cov_factor=vecs * np.sqrt(sq), noise_var=reg)
        for j, (vecs, sq) in enumerate(spectra)
    ]
    total = sum(c.weight for c in components)
    for c in components:
        c.weight /= total
    return EMFit(model=MixtureModel(components=components),
                 labels=resp.argmax(axis=1), log_likelihoods=history)


def _ppca_from_eigh(eigvals, eigvecs, rank):
    """Closed-form PPCA factor from a covariance eigendecomposition.

    ``eigvals`` ascending (as from eigh). W = U_k (L_k - sigma^2 I)^{1/2},
    sigma^2 = mean of the discarded eigenvalues.
    """
    n = eigvals.shape[0]
    eigvals = np.clip(eigvals, 0.0, None)
    top = slice(n - rank, n)
    noise_var = float(np.mean(eigvals[:n - rank])) if rank < n else 0.0
    w = eigvecs[:, top] * np.sqrt(np.clip(eigvals[top] - noise_var, 0.0, None))
    return w, noise_var


def compress_model_dense(model, rank):
    """PPCA compression from an eigendecomposition of each full covariance."""
    compressed = []
    for comp in model.components:
        cov = dense_covariance(comp)
        eigvals, eigvecs = np.linalg.eigh((cov + cov.T) / 2.0)
        w, noise_var = _ppca_from_eigh(eigvals, eigvecs, rank)
        compressed.append(GaussianComponent(
            weight=comp.weight, mean=comp.mean.copy(),
            cov_factor=w, noise_var=noise_var))
    return MixtureModel(components=compressed, segment_kind=model.segment_kind)


def extract_pairs_sorted(records, window):
    """Successive-arrival pair rows [tau1, delta12, tau2] by procedure pair.

    ``records`` are (procedure, arrival time, deviation vector) tuples.
    """
    ordered = sorted(records, key=lambda r: r[1])
    groups = {}
    for (proc1, time1, tau1), (proc2, time2, tau2) in zip(ordered, ordered[1:]):
        delta = time2 - time1
        if delta > window:
            continue
        groups.setdefault((proc1, proc2), []).append(
            np.concatenate([tau1, [delta], tau2]))
    return {key: np.stack(rows) for key, rows in groups.items()}


def point_to_polyline_distance_stacked(points, polyline):
    """Distance from each point to a polyline through (P, S, 2) arrays."""
    points = np.asarray(points, dtype=float)[:, :2]
    poly = np.asarray(polyline, dtype=float)[:, :2]
    starts, ends = poly[:-1], poly[1:]
    seg = ends - starts                                   # (S, 2)
    seg_len_sq = (seg ** 2).sum(axis=1)                   # (S,)
    rel = points[:, None, :] - starts[None, :, :]         # (P, S, 2)
    t = (rel * seg[None, :, :]).sum(axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(seg_len_sq > 0, t / seg_len_sq, 0.0)
    t = np.clip(t, 0.0, 1.0)
    nearest = starts[None, :, :] + t[:, :, None] * seg[None, :, :]
    dist = np.linalg.norm(points[:, None, :] - nearest, axis=2)
    return dist.min(axis=1)


def local_cost_stacked(x, y):
    """Euclidean distance between broadcast point arrays (last axis = d)."""
    diff = x - y
    np.square(diff, out=diff)
    return np.sqrt(diff.sum(axis=-1))


# ---------------------------------------------------------------------------
# Track and trajectory files through csv.reader, one row at a time

def read_csv_rows(path, kind, layouts, parse, *, optional=(), errors=None):
    """Yield ``parse(fields)`` for every non-blank data row of a CSV file.

    The header must name every column of one of ``layouts`` (the first that
    fits is used); ``fields`` holds a row's values of those columns, then of
    the ``optional`` ones the header and the row have. A row that lacks a
    column, or that ``parse`` rejects with ValueError or TypeError, gives
    ``path:line: reason``: appended to ``errors`` and skipped when a list is
    given, raised as DataError otherwise.
    """
    with _reading(path, kind), open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        columns = next((c for c in layouts if set(c) <= set(header)), None)
        if columns is None:
            raise DataError(f"{path}: header must contain columns "
                            + " or ".join(",".join(c) for c in layouts))
        index = [header.index(c) for c in columns]
        extra = [header.index(c) for c in optional if c in header]
        pick, width = itemgetter(*index), max(index) + 1
        for row in filter(None, reader):
            try:
                if len(row) < width:
                    missing = next(c for c, i in zip(columns, index) if i >= len(row))
                    raise ValueError(f"missing column {missing!r}")
                fields = pick(row) + tuple(row[i] for i in extra if i < len(row))
                record = parse(fields)
            except (ValueError, TypeError) as exc:
                if errors is None:
                    raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
                errors.append(f"{path}:{reader.line_num}: {exc}")
                continue
            yield record


def _parse_track_row(fields):
    """(id, (time, lat, lon, alt)) of a row; the optional gs and vr are checked only."""
    time, lat, lon, alt = map(float, fields[1:5])
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"lat {lat} outside [-90, 90]")
    if not (-180.0 <= lon <= 180.0):
        raise ValueError(f"lon {lon} outside [-180, 180]")
    if not (math.isfinite(alt) and math.isfinite(time)):
        raise ValueError("time and alt must be finite")
    for value in fields[5:]:
        if value:
            float(value)
    return fields[0], (time, lat, lon, alt)


def parse_tracks_rows(path):
    """``parse_tracks`` through :func:`read_csv_rows`."""
    errors = []
    rows_by_id = {}
    for flight_id, values in read_csv_rows(
            path, "track file", (("id", "time", "lat", "lon", "alt"),),
            _parse_track_row, optional=("gs", "vr"), errors=errors):
        rows_by_id.setdefault(flight_id, array("d")).extend(values)

    flights = []
    for flight_id, values in rows_by_id.items():
        points = np.frombuffer(values).reshape(-1, 4)
        points = points[np.argsort(points[:, 0], kind="stable")]
        times = points[:, 0]
        points = points[np.concatenate(([True], times[1:] != times[:-1]))]
        if len(points) < 2:
            errors.append(f"{path}: flight {flight_id!r} has fewer than 2 usable points")
            continue
        flights.append(Flight(id=flight_id, points=points))
    return flights, errors


def _parse_trajectory_row(fields):
    """(key, (t, x, y, z)) of a row; each value must be finite."""
    sample = tuple(map(float, fields[-4:]))
    if not all(math.isfinite(v) for v in sample):
        raise ValueError("t, x, y and z must be finite")
    return fields[:-4], sample


def read_trajectory_file_rows(path):
    """``read_trajectory_file`` through :func:`read_csv_rows`."""
    scenes = {}
    for key, sample in read_csv_rows(
            path, "trajectory file", (("scene_id", "aircraft_idx", "t", "x", "y", "z"),
                                      ("traj_id", "t", "x", "y", "z")),
            _parse_trajectory_row):
        scenes.setdefault(key[0], {}).setdefault(key, []).append(sample)
    for aircraft in scenes.values():
        for key, samples in aircraft.items():
            arr = aircraft[key] = np.asarray(samples)
            if np.any(np.diff(arr[:, 0]) <= 0):
                raise DataError(f"{path}: times of aircraft {'/'.join(key)} "
                                "do not strictly increase")
    return [[(arr[:, 0], arr[:, 1:4]) for arr in aircraft.values()]
            for aircraft in scenes.values()]
