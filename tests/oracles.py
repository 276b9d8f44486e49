"""Independent test oracles: brute-force and Monte-Carlo reference results.

These deliberately avoid the library's own computational paths: the DTW
oracle enumerates warping paths, the silhouette oracle is O(m^2) loops, and
the conditional-Gaussian oracle estimates posterior moments by kernel-weighted
joint sampling (no use of the conditional formulas). Two references instead
keep the plain dense computation that a structured fast path replaces: the
per-call conditioning, which the fast path must match bit for bit, the
PSD repair by a full eigendecomposition, the row-by-row DTW double loop,
which the batched wavefront must match bit for bit, the rank selection
that refits PPCA for every grid rank and adds jitter through a dense
identity, and EM and PPCA compression on full n x n covariances with one
Cholesky per component per E-step, which the spectral forms must match to
rounding.
Pair extraction keeps its record-based form: Python's stable ``sorted`` over
(procedure, arrival time, deviation vector) records, one row per pair.
"""

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.special import logsumexp

from trafgen._cluster import kmeans
from trafgen.errors import NumericalError
from trafgen.mixture import (EM_MAX_ITER, EM_TOL, EMFit, GaussianComponent,
                             MixtureModel, _component_log_density, psd_factor,
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


def em_fit_dense(data, n_components, *, seed=0, reg=None,
                 segment_kind="generic"):
    """EM holding every covariance as an n x n matrix.

    Each E-step factors every component covariance by Cholesky; the
    returned components carry the last E-step's Cholesky factors.
    """
    data = np.asarray(data, dtype=float)
    m, n = data.shape
    rng = np.random.default_rng(seed)
    if reg is None:
        reg = 1e-6 * float(np.mean(np.var(data, axis=0)))
    reg = max(reg, 1e-12)

    km = kmeans(data, n_components, rng, restarts=1, max_iter=50)
    resp = np.zeros((m, n_components))
    resp[np.arange(m), km.labels] = 1.0
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
        cov = comp.covariance()
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
