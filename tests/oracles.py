"""Independent test oracles: brute-force and Monte-Carlo reference results.

These deliberately avoid the library's own computational paths: the DTW
oracle enumerates warping paths, the silhouette oracle is O(m^2) loops, and
the conditional-Gaussian oracle estimates posterior moments by kernel-weighted
joint sampling (no use of the conditional formulas). Two references instead
keep the plain dense computation that a structured fast path replaces: the
per-call conditioning, which the fast path must match bit for bit, the
PSD repair by a full eigendecomposition, the row-by-row DTW double loop,
which the batched wavefront must match bit for bit, and the rank selection
that refits PPCA for every grid rank and adds jitter through a dense
identity, which the single-decomposition path must match bit for bit.
Pair extraction keeps its record-based form: Python's stable ``sorted`` over
(procedure, arrival time, deviation vector) records, one row per pair.
"""

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.special import logsumexp

from trafgen.errors import NumericalError
from trafgen.mixture import (MixtureModel, _component_log_density, psd_factor,
                             psd_jitter_cholesky, sample_many)


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

    draws, comps = sample_many(model, n_samples, rng)
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
        cov = comp.covariance()
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
