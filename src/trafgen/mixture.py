"""Gaussian mixture core: EM fitting, low-rank covariances, conditioning, sampling.

Covariances are stored factored as ``F F^T + noise_var I`` so a trained model
stays cheap to hold and sample after per-component rank compression. EM fits
full covariances, held in their data-span spectral form (an orthonormal
basis of the weighted, centred rows and its eigenvalues, plus the
regularisation on the rest), so no n x n matrix is formed when there are
fewer rows than dimensions; compression is applied afterwards.
Conditioning keeps that form: a rank-k component with noise s conditions to
a rank-k factor plus the same s and forms no n x n matrix.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._cluster import kmeans
from ._files import json_chunks, json_int, read_json, write_text
from .errors import DataError, InvalidDeviation, NumericalError

logger = logging.getLogger(__name__)

MODEL_FORMAT = "trafgen-mixture/1"

_LOG_2PI = float(np.log(2.0 * np.pi))

# EM stops on a relative log-likelihood gain below EM_TOL or after EM_MAX_ITER
EM_MAX_ITER = 200
EM_TOL = 1e-6
# share of rows select_rank holds out for scoring
HOLDOUT_FRACTION = 0.2
# draws a redraw call makes before it gives up
MAX_DRAWS = 10


@dataclass
class GaussianComponent:
    """One mixture component with covariance ``cov_factor cov_factor^T + noise_var I``."""

    weight: float
    mean: np.ndarray        # (n,)
    cov_factor: np.ndarray  # (n, k)
    noise_var: float = 0.0

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov_factor = np.asarray(self.cov_factor, dtype=float)
        if self.cov_factor.ndim != 2 or self.cov_factor.shape[0] != self.mean.shape[0]:
            raise ValueError("cov_factor must be (n, k) with n = len(mean)")
        if not 0.0 <= self.weight <= 1.0 + 1e-12:
            raise ValueError(f"weight {self.weight} outside [0, 1]")
        if self.noise_var < 0.0:
            raise ValueError("noise_var must be nonnegative")

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]


@dataclass
class MixtureModel:
    components: list[GaussianComponent]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a mixture needs at least one component")
        dims = {c.dimension for c in self.components}
        if len(dims) != 1:
            raise ValueError(f"components disagree on dimension: {sorted(dims)}")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, expected 1")

    @property
    def dimension(self) -> int:
        return self.components[0].dimension

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])


# ---------------------------------------------------------------------------
# Linear-algebra helpers

def _spectrum(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal V (n, r) and s^2 (r,), descending, with Z^T Z = V diag(s^2) V^T.

    Z is (m, n). With fewer rows than columns this is a thin SVD of Z
    (r = m) and no n x n matrix is formed; otherwise it is eigh(Z^T Z), its
    eigenvalues clipped at zero (r = n). Every column of V has its
    largest-magnitude entry positive.
    """
    m, n = z.shape
    if m < n:
        _, sv, vt = np.linalg.svd(z, full_matrices=False)
        vecs, sq = vt.T, sv ** 2
    else:
        eigvals, eigvecs = np.linalg.eigh(z.T @ z)
        vecs, sq = eigvecs[:, ::-1], np.clip(eigvals[::-1], 0.0, None)
    pivots = vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(pivots < 0.0, -1.0, 1.0), sq


def _project(centered: np.ndarray, vecs: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of centred rows in V, and the squared norms of their residuals.

    The residual is formed as a vector, x - V V^T x, rather than as
    ||x||^2 - ||V^T x||^2, which cancels when x lies near span(V). It is
    formed in ``centered``, which the caller gives up.
    """
    proj = centered @ vecs
    centered -= proj @ vecs.T
    np.square(centered, out=centered)
    return proj, np.sum(centered, axis=1)


def _spectral_log_density(proj: np.ndarray, resid_sq: np.ndarray,
                          eigvals: np.ndarray, noise_var: float,
                          n: int) -> np.ndarray:
    """Gaussian log density of rows projected by :func:`_project`.

    The covariance has eigenvalues ``eigvals`` along the columns of V and
    ``noise_var`` on the n - r dimensions orthogonal to them.
    """
    with np.errstate(over="ignore"):
        maha = np.sum(proj ** 2 / eigvals, axis=1) + resid_sq / noise_var
    log_det = np.sum(np.log(eigvals)) + (n - eigvals.size) * np.log(noise_var)
    return -0.5 * (n * _LOG_2PI + maha + log_det)


def _noise_floor(trace: float, n: int) -> float:
    """Smallest isotropic noise a scored covariance keeps: 1e-10 trace / n."""
    return 1e-10 * max(trace / n, np.finfo(float).tiny)


def _log_densities(data: np.ndarray, weights, means, spectra,
                   noise) -> np.ndarray:
    """(m, K) matrix of log(pi_j) + log N(x_i | mu_j, V_j diag(s_j^2) V_j^T + noise_j I)."""
    out = np.empty((data.shape[0], len(weights)))
    centered = np.empty_like(data)
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    for j, (mean, (vecs, sq), s) in enumerate(zip(means, spectra, noise)):
        proj, resid_sq = _project(np.subtract(data, mean, out=centered), vecs)
        out[:, j] = log_weights[j] + _spectral_log_density(
            proj, resid_sq, sq + s, s, data.shape[1])
    return out


def _logsumexp(a: np.ndarray, axis: int | None = None):
    """log(sum(exp(a))) over ``axis``, bitwise equal to scipy's ``logsumexp``.

    The m tied maxima are taken out of the shifted sum s, giving
    log1p(s / m) + log(m) + max; where that is not finite (all -inf, an
    inf or a nan) the direct log of the sum stands instead.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
        top = np.max(a, axis=axis, keepdims=True)
        tied = a == top
        # a copy in a's memory order, as scipy's: the sums add in its order
        rest = np.array(a, copy=True)
        rest[tied] = -np.inf
        m = np.sum(tied.astype(float), axis=axis, keepdims=True)
        s = np.sum(np.exp(rest - top), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
    out = np.squeeze(np.where(np.isfinite(out), out, direct), axis=axis)
    return out[()] if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# EM fitting

@dataclass
class EMFit:
    model: MixtureModel
    labels: np.ndarray            # (m,) argmax responsibility
    log_likelihoods: list[float]  # one entry per EM iteration


def em_fit(data: np.ndarray, n_components: int, *,
           seed: int | np.random.Generator = 0) -> EMFit:
    """Fit a full-covariance Gaussian mixture with EM.

    Initialization is k-means++ on the data; every M-step adds ``reg * I``
    to each covariance, where reg is 1e-6 times the mean data variance, and
    at least 1e-12. Stops on relative log-likelihood improvement below
    ``EM_TOL`` or after ``EM_MAX_ITER`` iterations, with a WARNING in the
    latter case.

    Each covariance is Z_j^T Z_j + reg I, Z_j the m weighted, centred rows,
    and is held in its data-span spectral form (see :func:`_spectrum`): the
    returned components have ``cov_factor`` V_j diag(s_j) and ``noise_var``
    reg, so no n x n matrix is formed when m < n.

    With fewer rows than dimensions (every fit at paper scale) a row outside
    a component's data span scores ||residual||^2 / reg against it, so the
    first E-step's responsibilities are already hard: EM returns the k-means
    labels, with their clusters' weights and means.

    An E-step that returns, bit for bit, the responsibilities the current
    parameters came from skips its M-step, and the next iteration records
    the same log-likelihood without an E-step: both steps would repeat
    their last results. So a hard fit makes one M-step and records two
    equal log-likelihoods, as the full loop does. That the result equals
    the full loop's bit for bit relies on BLAS returning the same bits for
    the same inputs. The shortcut stays because it about halves a hard fit
    of hundreds of rows (400 × 1,052 rows on a 2-core VM: 224 against 398 ms
    at K = 2, 275 against 512 ms at K = 3), though no benchmark workload
    fits that many rows at paper dimensions.

    Raises DataError if n_components < 1 or > m, or if data is not finite.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    m, n = data.shape
    if n_components < 1:
        raise DataError("n_components must be >= 1")
    if m < n_components:
        raise DataError(f"need at least {n_components} rows, got {m}")
    if not np.all(np.isfinite(data)):
        raise DataError("data contains non-finite values")
    rng = np.random.default_rng(seed)
    reg = max(1e-6 * float(np.mean(np.var(data, axis=0))), 1e-12)

    _, labels = kmeans(data, n_components, rng, restarts=1, max_iter=50)
    resp = np.zeros((m, n_components))
    resp[np.arange(m), labels] = 1.0
    # guard against empty k-means clusters: give them a uniform sliver
    empty = resp.sum(axis=0) == 0
    if empty.any():
        resp[:, empty] = 1e-6
        resp /= resp.sum(axis=1, keepdims=True)
    fitted = resp  # the responsibilities the parameters come from
    weights, means, spectra = _m_step(data, fitted)

    history: list[float] = []
    repeated = False
    for it in range(EM_MAX_ITER):
        if not repeated:
            log_dens = _log_densities(data, weights, means, spectra,
                                      [reg] * n_components)
            log_norm = _logsumexp(log_dens, axis=1)
            ll = float(log_norm.sum())
            resp = np.exp(log_dens - log_norm[:, None])
            repeated = resp.tobytes() == fitted.tobytes()
        history.append(ll)
        if len(history) > 1 and ll - history[-2] < EM_TOL * abs(history[-2]):
            break
        if it < EM_MAX_ITER - 1 and not repeated:
            # keep the returned parameters consistent with the last E-step
            fitted = resp
            weights, means, spectra = _m_step(data, fitted)
    else:
        gain = ((history[-1] - history[-2]) / abs(history[-2])
                if len(history) > 1 else float("nan"))
        logger.warning("EM stopped at the iteration cap %d without converging: "
                       "last relative log-likelihood gain %.3g (tolerance %g)",
                       EM_MAX_ITER, gain, EM_TOL)

    components = [
        GaussianComponent(weight=float(weights[j]), mean=means[j],
                          cov_factor=vecs * np.sqrt(sq), noise_var=reg)
        for j, (vecs, sq) in enumerate(spectra)
    ]
    # weights can drift from 1 by accumulated rounding; renormalize exactly
    total = sum(c.weight for c in components)
    for c in components:
        c.weight /= total
    model = MixtureModel(components=components)
    return EMFit(model=model, labels=resp.argmax(axis=1),
                 log_likelihoods=history)


def _m_step(data: np.ndarray, resp: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray, list]:
    """Weights, means and the spectrum of each component's Z_j^T Z_j."""
    m = data.shape[0]
    counts = resp.sum(axis=0)
    counts = np.maximum(counts, 1e-300)
    weights = counts / m
    means = (resp.T @ data) / counts[:, None]
    z = np.empty_like(data)  # each component's Z_j in turn
    spectra = []
    for j in range(resp.shape[1]):
        np.subtract(data, means[j], out=z)
        z *= np.sqrt(resp[:, j:j + 1] / counts[j])
        spectra.append(_spectrum(z))
    return weights, means, spectra


# ---------------------------------------------------------------------------
# PPCA: rank selection and compression

def _ppca(vecs: np.ndarray, eigvals: np.ndarray, rest: float, rank: int,
          ) -> tuple[np.ndarray, float]:
    """Closed-form PPCA factor W (n, rank) and sigma^2 from a spectrum.

    The covariance has the descending ``eigvals`` along the r orthonormal
    columns of ``vecs`` and ``rest`` on the n - r dimensions orthogonal to
    them. W = V_k (L_k - sigma^2 I)^{1/2} and sigma^2 is the mean of the
    n - rank discarded eigenvalues (Tipping & Bishop 1999). A rank beyond r
    keeps eigenvalues equal to ``rest``, which sigma^2 also equals, so W is
    padded with zero columns.
    """
    n, r = vecs.shape
    noise_var = float((np.sum(eigvals[rank:]) + (n - max(rank, r)) * rest)
                      / (n - rank))
    w = vecs[:, :rank] * np.sqrt(np.clip(eigvals[:rank] - noise_var, 0.0, None))
    return np.pad(w, ((0, 0), (0, rank - w.shape[1]))), noise_var


def select_rank(data: np.ndarray, rank_grid: Sequence[int], *,
                seed: int | np.random.Generator = 0,
                ) -> tuple[int, list[tuple[int, float]]]:
    """Pick the PPCA rank maximizing held-out marginal log-likelihood.

    The data is split 80/20 (seeded). The training part's sample covariance
    is decomposed once; each grid rank takes its PPCA fit from that spectrum
    and scores the held-out part in the same eigenbasis. sigma^2 is floored
    at 1e-10 times trace / n of the sample covariance, so that data of rank
    below the grid rank (sigma^2 ~ 0) still gives a finite score. Ties break
    toward the smaller rank. Returns the rank and, for reporting, the full
    (rank, log-likelihood) curve. Raises DataError when the grid is empty,
    when a grid rank is outside [1, n), or when the rows are too few to split.
    """
    data = np.asarray(data, dtype=float)
    m, n = data.shape
    grid = list(rank_grid)
    if not grid:
        raise DataError("rank grid is empty")
    if any(not 1 <= k < n for k in grid):
        raise DataError(f"grid ranks must be in [1, {n - 1}]")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    n_holdout = int(round(m * HOLDOUT_FRACTION))
    if n_holdout < 1 or m - n_holdout < 2 or m - n_holdout <= max(grid):
        raise DataError(f"degenerate split for m={m} rows")
    holdout, train = data[perm[:n_holdout]], data[perm[n_holdout:]]

    mean = train.mean(axis=0)
    vecs, sq = _spectrum((train - mean) / np.sqrt(len(train)))
    floor = _noise_floor(float(np.sum(sq)), n)
    proj, resid_sq = _project(holdout - mean, vecs)
    curve = []
    for k in grid:
        _, noise_var = _ppca(vecs, sq, 0.0, k)
        noise_var = max(noise_var, floor)
        # W W^T + sigma^2 I: max(lambda_i, sigma^2) on the kept directions
        model_eigs = np.full(sq.size, noise_var)
        model_eigs[:k] = np.maximum(sq[:k], noise_var)
        ll = float(_spectral_log_density(proj, resid_sq, model_eigs, noise_var,
                                         n).sum())
        curve.append((int(k), ll))
    best = max(range(len(curve)), key=lambda i: (curve[i][1], -curve[i][0]))
    return curve[best][0], curve


def compress_model(model: MixtureModel, rank: int) -> MixtureModel:
    """Compress every component covariance to rank + isotropic noise (PPCA form).

    The spectrum of F F^T + noise_var I comes from :func:`_spectrum` of the
    factor F, a thin SVD when F is narrower than n, so that no n x n matrix
    is formed. A rank wider than F pads the compressed factor with zero
    columns. Raises DataError unless 1 <= rank < n.
    """
    compressed = []
    for comp in model.components:
        n = comp.dimension
        if not 1 <= rank < n:
            raise DataError(f"rank must satisfy 1 <= rank < {n}, got {rank}")
        vecs, sq = _spectrum(comp.cov_factor.T)
        w, noise_var = _ppca(vecs, sq + comp.noise_var, comp.noise_var, rank)
        compressed.append(GaussianComponent(
            weight=comp.weight, mean=comp.mean.copy(),
            cov_factor=w, noise_var=noise_var))
    return MixtureModel(components=compressed)


# ---------------------------------------------------------------------------
# Conditioning (posterior of tau_b given tau_a) and sampling

class ConditionalMixture:
    """A mixture conditioned on a fixed set of observed coordinates.

    Gaussian conditioning (Bishop, *PRML* section 2.3.1) is split: what
    depends only on the model and the observed index set ``a`` is computed
    once, here; a call with x_a computes only the log-weights
    log pi_j + log N(x_a | mu_a, Sigma_aa) and the means mu_b + G (x_a - mu_a).

    Components keep the model's form. Split a component's factor into
    observed rows F_a and free rows F_b, with noise s; x_a is scored under
    F_a F_a^T + s_a I, s_a = max(s, 1e-10 trace / n_a) (one WARNING names
    the components whose s the floor raises). With V, sigma^2 the spectrum
    of F_a F_a^T, lambda = sigma^2 + s_a and B = F_a^T V (so B^T B =
    diag(sigma^2)), G = F_b B diag(1/lambda) V^T and the conditional
    covariance is F_b R R^T F_b^T + s I with the k x k
    R = I - B diag(1 / (lambda (1 + sqrt(s_a / lambda)))) B^T. No n x n
    matrix is formed. The conditioned mixture covers the coordinates
    ``free_idx``, ascending; its components share their factors with this
    object, so treat them as read-only.
    """

    def __init__(self, model: MixtureModel, observed_idx: Sequence[int]):
        idx_a = np.asarray(observed_idx, dtype=int)
        n = model.dimension
        if idx_a.size == 0:
            raise ValueError("observed index set is empty")
        if len(set(idx_a.tolist())) != idx_a.size:
            raise ValueError("observed indices repeat")
        if idx_a.min() < 0 or idx_a.max() >= n:
            raise ValueError("observed index out of range")
        mask = np.ones(n, dtype=bool)
        mask[idx_a] = False
        idx_b = np.flatnonzero(mask)
        if idx_b.size == 0:
            raise ValueError(
                "conditioning on every coordinate leaves nothing to sample")

        self.observed_idx = idx_a
        self.free_idx = idx_b
        self._prior_weights = model.weights
        self._observed = []  # (mu_a, (V, sigma^2), s_a): the marginal of x_a
        self._free = []      # (mu_b, G, F_b R, s)
        floored = []
        for j, comp in enumerate(model.components):
            f_a, f_b = comp.cov_factor[idx_a], comp.cov_factor[idx_b]
            vecs, sq = _spectrum(f_a.T)
            noise_a = max(comp.noise_var, _noise_floor(
                float(np.sum(sq)) + idx_a.size * comp.noise_var, idx_a.size))
            if noise_a > comp.noise_var:
                floored.append(j)
            eigvals = sq + noise_a
            b = f_a.T @ vecs
            fb_b = f_b @ b  # F_b B
            factor = f_b - (fb_b / (eigvals * (1.0 + np.sqrt(noise_a / eigvals)))
                            ) @ b.T
            self._observed.append((comp.mean[idx_a], (vecs, sq), noise_a))
            self._free.append((comp.mean[idx_b], (fb_b / eigvals) @ vecs.T,
                               factor, comp.noise_var))
        if floored:
            logger.warning("conditioning: components %s have noise_var below "
                           "1e-10 trace / n_a of their observed block; it is "
                           "raised to that floor", floored)

    def __call__(self, observed_vals: Sequence[float]) -> MixtureModel:
        """The mixture over the unobserved coordinates given x_a."""
        vals = np.asarray(observed_vals, dtype=float)
        if vals.size != self.observed_idx.size:
            raise ValueError("observed indices and values differ in length")
        means_a, spectra, noise_a = zip(*self._observed)
        log_w = _log_densities(vals[None, :], self._prior_weights, means_a,
                               spectra, noise_a)[0]
        norm = _logsumexp(log_w)
        if np.isneginf(norm):
            # every component assigns zero density to the observation
            # (degenerate covariances): no evidence to reweight on, keep the
            # prior weights
            new_weights = self._prior_weights
        elif not np.isfinite(norm):
            raise NumericalError("conditioning weights are not finite")
        else:
            new_weights = np.exp(log_w - norm)
            new_weights /= new_weights.sum()
        components = [
            GaussianComponent(weight=float(w), mean=mean_b + gain @ (vals - mean_a),
                              cov_factor=factor, noise_var=noise_var)
            for w, mean_a, (mean_b, gain, factor, noise_var)
            in zip(new_weights, means_a, self._free)
        ]
        return MixtureModel(components=components)


def substream(seed: int, name: str) -> np.random.Generator:
    """Deterministic named RNG substream derived from a run seed."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def redraw(draw: Callable, what: str):
    """``draw()``, called again while it raises an InvalidDeviation or a
    NumericalError, up to ``MAX_DRAWS`` calls in all; after the last one a
    NumericalError names ``what`` and the last cause. Any other exception
    is a defect and passes through."""
    for _ in range(MAX_DRAWS):
        try:
            return draw()
        except (InvalidDeviation, NumericalError) as exc:
            cause = exc
    raise NumericalError(
        f"{what} failed after {MAX_DRAWS} attempts; last cause: {cause}")


def sample(model: MixtureModel, size: int,
           rng: int | np.random.Generator | None = None,
           ) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` vectors; returns (samples (size, n), component indices (size,))."""
    rng = np.random.default_rng(rng)
    comps = rng.choice(len(model.components), size=size, p=model.weights)
    out = np.empty((size, model.dimension))
    for j, comp in enumerate(model.components):
        rows = np.flatnonzero(comps == j)
        if rows.size == 0:
            continue
        k = comp.cov_factor.shape[1]
        draws = rng.standard_normal((rows.size, k)) @ comp.cov_factor.T
        if comp.noise_var > 0.0:
            draws += np.sqrt(comp.noise_var) * rng.standard_normal(
                (rows.size, comp.dimension))
        out[rows] = comp.mean + draws
    return out, comps


# ---------------------------------------------------------------------------
# Serialization

def model_document(model: MixtureModel, kind: str) -> dict:
    """The JSON document of a model of segment kind ``kind``, its arrays
    kept as arrays for ``write_models``."""
    return {
        "format": MODEL_FORMAT, "segment_kind": kind,
        "n_components": len(model.components), "dimension": model.dimension,
        "components": [{"weight": c.weight, "mean": c.mean,
                        "cov_factor": c.cov_factor,
                        "noise_var": c.noise_var} for c in model.components],
    }


def check_finite(components: Sequence[GaussianComponent]) -> None:
    """Raise ValueError naming the first component that holds a value that
    is not finite."""
    for i, c in enumerate(components):
        if not all(np.isfinite(v).all() for v in (c.mean, c.cov_factor, c.noise_var)):
            raise ValueError(f"component {i} holds a non-finite value")


def model_from_dict(doc: dict) -> MixtureModel:
    """The model of a document whose weights, means, factors and noise
    variances are JSON numbers and whose headers match its components."""
    for i, c in enumerate(doc["components"]):
        values = [c["weight"], c["noise_var"], *c["mean"],
                  *chain.from_iterable(c["cov_factor"])]
        if not set(map(type, values)) <= {int, float}:  # a bool or text is neither
            bad = next(v for v in values if type(v) not in (int, float))
            raise ValueError(f"component {i} holds {bad!r:.40}, which is not a number")
    components = [GaussianComponent(
        weight=float(c["weight"]), mean=np.asarray(c["mean"], dtype=float),
        cov_factor=np.asarray(c["cov_factor"], dtype=float),
        noise_var=float(c["noise_var"])) for c in doc["components"]]
    check_finite(components)
    model = MixtureModel(components=components)
    n_components = json_int(doc["n_components"], "n_components")
    dimension = json_int(doc["dimension"], "dimension")
    if (n_components, dimension) != (len(components), model.dimension):
        raise ValueError(f"headers n_components {n_components} and dimension "
                         f"{dimension} do not match the components: "
                         f"{len(components)} of dimension {model.dimension}")
    return model


def write_models(path: str | Path, doc: dict) -> None:
    """Write ``doc``, which holds model documents, as compact sorted-key
    JSON, one array at a time. A value that is not finite is a
    NumericalError naming the file, and the previous file stays."""
    try:
        write_text(path, json_chunks(doc))
    except ValueError as exc:  # json's refusal of a NaN or infinity
        raise NumericalError(f"{path}: cannot write the model: {exc}") from exc


def save_model(model: MixtureModel, path: str | Path, kind: str) -> None:
    write_models(path, model_document(model, kind))


def load_model(path: str | Path) -> MixtureModel:
    return read_json(path, "model file", model_from_dict, tag=MODEL_FORMAT)
