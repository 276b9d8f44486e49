"""Pairwise trajectory models and correlated multi-aircraft scene generation.

A pairwise sample stacks two co-arriving aircraft's deviation vectors around
their inter-arrival time, [tau1, delta12, tau2]. Scene generation assembles a
joint Gaussian over [tau1, d12, tau2, d23, tau3, ...] by matching covariance
sub-blocks across the trained pairwise mixtures. The scene covariance is held
as a small matrix over the span of the placed factor rows plus per-block
isotropic noise; the matrix's negative eigenvalues are clipped, and the scene
is sampled from that factor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, InvalidDeviation
from .mixture import MixtureModel, compress_model, em_fit, redraw
from .preprocess import deviation_length, deviation_width, reconstruct_trajectory
from .procedures import ProceduralTrajectory

logger = logging.getLogger(__name__)

DEFAULT_PAIRING_WINDOW_S = 180.0
# a pairwise group is trained only with this many samples per component
MIN_SAMPLES_PER_COMPONENT = 5


@dataclass
class SceneParams:
    """Mean and factored covariance of a joint N-aircraft deviation vector.

    The scene vector is a sequence of parts: aircraft block 0, inter-arrival
    gap 0, aircraft block 1, and so on. Part p has an orthonormal basis
    ``bases[p]`` (``[[1]]`` for a gap) and a noise level ``noise[p]`` (0 for
    a gap); with Q = diag(bases) the covariance is
    Q factor factor^T Q^T + sum_p noise[p] (I_p - Q_p Q_p^T).

    This is exact for an assembled scene C. Each block of C factors through
    the factor rows placed in the blocks it touches, plus s_i I on aircraft
    i's diagonal block, and Q spans those rows. A vector v orthogonal to Q
    has no gap part and, in every block, is orthogonal to every factor placed
    there, so C v = s_i v blockwise. The complement of span(Q) is thus
    invariant under C with eigenvalues s_i >= 0, and by symmetry so is
    span(Q): C = Q M Q^T + sum_i s_i (I_i - Q_i Q_i^T) with M = Q^T C Q small
    (at most N(N-1)r + N-1 columns). Every negative eigenvalue of C is one of
    M's, and ``factor`` is V sqrt(lambda_+) of M with those clipped.
    """

    mean: np.ndarray
    bases: list[np.ndarray]
    factor: np.ndarray
    noise: list[float]
    procedure_sequence: list[str]
    provenance: dict[str, int]      # source component index per assembled block
    block_drift: list[float] = field(default_factory=list)  # PSD-repair drift


def _block(i: int, d: int) -> slice:
    """Slice of aircraft ``i``'s deviation block inside the set vector."""
    start = i * (d + 1)
    return slice(start, start + d)


def _delta_index(i: int, d: int) -> int:
    """Index of the inter-arrival time between aircraft ``i`` and ``i+1``."""
    return (i + 1) * (d + 1) - 1


# ---------------------------------------------------------------------------
# Pair extraction and training

def extract_pairs(taus: np.ndarray, procedures: Sequence[str],
                  arrival_times: np.ndarray,
                  window: float = DEFAULT_PAIRING_WINDOW_S,
                  ) -> dict[tuple[str, str], np.ndarray]:
    """Successive-arrival pairs within the time window, grouped by procedures.

    Row i of ``taus`` is one arrival's deviation vector, flown on
    ``procedures[i]`` and landing at ``arrival_times[i]``. Rows are ordered by
    arrival time (stable, so equal times keep their input order); each
    consecutive pair whose gap is at most ``window`` seconds becomes one row
    [tau1, delta12, tau2] of the matrix keyed by (first aircraft's procedure,
    second aircraft's procedure).
    """
    times = np.asarray(arrival_times, dtype=float)
    order = np.argsort(times, kind="stable")
    taus = np.asarray(taus, dtype=float)[order]
    deltas = np.diff(times[order])
    pairs = np.column_stack([taus[:-1], deltas, taus[1:]])
    rows: dict[tuple[str, str], list[int]] = {}
    for i in np.flatnonzero(deltas <= window):
        rows.setdefault((procedures[order[i]], procedures[order[i + 1]]),
                        []).append(i)
    return {key: pairs[idx] for key, idx in rows.items()}


def train_pairwise(groups: Mapping[tuple[str, str], np.ndarray],
                   n_components: int, rank: int, *,
                   seed: int = 0,
                   ) -> dict[tuple[str, str], MixtureModel]:
    """Fit one compressed pairwise mixture per procedure combination.

    Each group is an (m, 2d+1) matrix of pair rows, as from
    :func:`extract_pairs`. Groups with fewer than
    ``MIN_SAMPLES_PER_COMPONENT`` rows per component are skipped with a
    warning.
    """
    min_samples = MIN_SAMPLES_PER_COMPONENT * n_components
    models: dict[tuple[str, str], MixtureModel] = {}
    for key in sorted(groups):
        data = groups[key]
        if len(data) < min_samples:
            logger.warning("skipping pairwise group %s: %d samples < %d",
                           key, len(data), min_samples)
            continue
        fit = em_fit(data, n_components, seed=seed, segment_kind="pairwise")
        models[key] = compress_model(fit.model, rank)
    return models


# ---------------------------------------------------------------------------
# Scene assembly

def _require_model(models: Mapping[tuple[str, str], MixtureModel],
                   key: tuple[str, str]) -> MixtureModel:
    if key not in models:
        raise DataError(f"no pairwise model for procedure combination {key}")
    return models[key]


def assemble_scene_params(models: Mapping[tuple[str, str], MixtureModel],
                          procedure_sequence: Sequence[str],
                          rng: int | np.random.Generator | None = None,
                          ) -> SceneParams:
    """Assemble the joint mean and factored covariance of an N-aircraft scene.

    Step 1 samples a component from the first pair's model. Each further
    adjacent pair picks the component whose leading diagonal block is closest
    (Frobenius) to the block already placed for the shared aircraft; each
    non-adjacent pair picks the component whose two diagonal blocks are
    jointly closest and contributes only its cross block. Inter-arrival
    covariances that no pairwise model observes stay zero.

    Each block is recorded as a pair of factor rows and projected straight
    into the small matrix M of :class:`SceneParams`. M's negative eigenvalues
    are clipped; ``block_drift`` is how far that moved each aircraft's
    diagonal block, relative to its Frobenius norm.
    """
    rng = np.random.default_rng(rng)
    procs = list(procedure_sequence)
    n = len(procs)
    if n < 2:
        raise ValueError("a scene needs at least 2 aircraft")
    d = deviation_width(deviation_length(
        sorted({model.dimension for model in models.values()}),
        "pairwise model dimensions", pair=True))
    a_blk, b_blk = slice(0, d), slice(d + 1, 2 * d + 1)

    mean = np.zeros(n * d + n - 1)
    # parts: aircraft i is part 2i and the gap after it part 2i+1. Part p's
    # diagonal block is F F^T + s I for diagonal[p] = (F, s); each
    # (p, q, F_p, F_q) in crosses places the block F_p F_q^T.
    diagonal: dict[int, tuple[np.ndarray, float]] = {}
    crosses: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    block_factors: list[list[np.ndarray]] = [[] for _ in range(n)]
    provenance: dict[str, int] = {}

    def place_adjacent(k: int, comp) -> None:
        """Pair (k, k+1): everything but aircraft k's diagonal block."""
        f = comp.cov_factor
        f_a, f_q, f_b = f[a_blk], f[d:d + 1], f[b_blk]
        mean[_delta_index(k, d)] = comp.mean[d]
        mean[_block(k + 1, d)] = comp.mean[b_blk]
        p = 2 * k
        crosses.extend([(p, p + 1, f_a, f_q), (p, p + 2, f_a, f_b),
                        (p + 1, p + 2, f_q, f_b)])
        diagonal[p + 1] = (f_q, comp.noise_var)
        diagonal[p + 2] = (f_b, comp.noise_var)
        block_factors[k].append(f_a)
        block_factors[k + 1].append(f_b)

    def distance(f: np.ndarray, s: float, i: int) -> float:
        """Frobenius distance of F F^T + s I from aircraft i's G G^T + t I.

        The two differ on U = span[F G], and by (s - t) I outside it.
        """
        g, t = diagonal[2 * i]
        u = np.linalg.qr(np.hstack([f, g]))[0]
        c_f, c_g = u.T @ f, u.T @ g
        inside = c_f @ c_f.T - c_g @ c_g.T + (s - t) * np.eye(u.shape[1])
        return np.hypot(np.linalg.norm(inside),
                        np.sqrt(d - u.shape[1]) * abs(s - t))

    # step 1: sample a component from the first pair's model
    model01 = _require_model(models, (procs[0], procs[1]))
    j0 = int(rng.choice(len(model01.components), p=model01.weights))
    comp = model01.components[j0]
    mean[a_blk] = comp.mean[a_blk]
    diagonal[0] = (comp.cov_factor[a_blk], comp.noise_var)
    place_adjacent(0, comp)
    provenance["pair_0_1"] = j0

    # step 2 repeated: adjacent pairs (k, k+1), matching the shared block
    for k in range(1, n - 1):
        model_k = _require_model(models, (procs[k], procs[k + 1]))
        dists = [distance(c.cov_factor[a_blk], c.noise_var, k)
                 for c in model_k.components]
        jk = int(np.argmin(dists))
        place_adjacent(k, model_k.components[jk])
        provenance[f"pair_{k}_{k + 1}"] = jk

    # step 3 repeated: non-adjacent cross blocks; own delta row is discarded
    for k in range(2, n):
        for i in range(0, k - 1):
            model_ik = _require_model(models, (procs[i], procs[k]))
            dists = [distance(c.cov_factor[a_blk], c.noise_var, i)
                     + distance(c.cov_factor[b_blk], c.noise_var, k)
                     for c in model_ik.components]
            jik = int(np.argmin(dists))
            f = model_ik.components[jik].cov_factor
            crosses.append((2 * i, 2 * k, f[a_blk], f[b_blk]))
            block_factors[i].append(f[a_blk])
            block_factors[k].append(f[b_blk])
            provenance[f"cross_{i}_{k}"] = jik

    bases = [np.ones((1, 1))] * (2 * n - 1)
    bases[::2] = [np.linalg.qr(np.hstack(f))[0] for f in block_factors]
    ends = np.cumsum([basis.shape[1] for basis in bases])
    span = [slice(end - basis.shape[1], end) for basis, end in zip(bases, ends)]
    m = np.zeros((ends[-1], ends[-1]))
    for p, (g, s) in diagonal.items():
        c = bases[p].T @ g
        m[span[p], span[p]] = c @ c.T + s * np.eye(len(c))
    for p, q, f_p, f_q in crosses:
        m[span[p], span[q]] = (bases[p].T @ f_p) @ (bases[q].T @ f_q).T
        m[span[q], span[p]] = m[span[p], span[q]].T
    noise = [diagonal[p][1] if p % 2 == 0 else 0.0 for p in range(2 * n - 1)]

    eigvals, eigvecs = np.linalg.eigh(m)
    negative = eigvals < 0.0
    # clipping adds W W^T to M, with W = V_neg sqrt(-lambda_neg)
    lift = eigvecs[:, negative] * np.sqrt(-eigvals[negative])
    drift = []
    for i, p in enumerate(range(0, 2 * n, 2)):
        w = lift[span[p]]
        size = np.hypot(np.linalg.norm(m[span[p], span[p]]),
                        np.sqrt(d - bases[p].shape[1]) * noise[p])
        drift.append(float(np.linalg.norm(w.T @ w) / size) if size > 0 else 0.0)
        if drift[i] > 0.05:
            logger.warning(
                "PSD repair moved aircraft %d's diagonal block by %.1f%% "
                "(incompatible component selection)", i, 100 * drift[i])
    return SceneParams(
        mean=mean, bases=bases,
        factor=eigvecs * np.sqrt(np.clip(eigvals, 0.0, None)), noise=noise,
        procedure_sequence=procs, provenance=provenance, block_drift=drift)


# ---------------------------------------------------------------------------
# Scene generation

def _scene_parts(params: SceneParams, z: np.ndarray) -> list[np.ndarray]:
    """The parts of mean + Q L Q^T z + sqrt(s) (z - Q Q^T z), L = ``factor``.

    A standard-normal z of the scene's size gives a draw of the scene; z may
    also hold one such draw per row.
    """
    cuts = np.cumsum([len(q) for q in params.bases])[:-1]
    z_parts = np.split(z, cuts, axis=-1)
    y = [z_p @ q for q, z_p in zip(params.bases, z_parts)]
    ly = np.split(np.concatenate(y, axis=-1) @ params.factor.T,
                  np.cumsum([q.shape[1] for q in params.bases])[:-1], axis=-1)
    return [mu + (l_p - np.sqrt(s) * y_p) @ q.T + np.sqrt(s) * z_p
            for q, s, mu, z_p, y_p, l_p in zip(
                params.bases, params.noise, np.split(params.mean, cuts),
                z_parts, y, ly)]


def generate_scene(params: SceneParams,
                   procedures: Sequence[ProceduralTrajectory],
                   rng: int | np.random.Generator | None = None,
                   ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Sample one joint deviation vector and reconstruct the N trajectories.

    The scene vector is redrawn by :func:`~trafgen.mixture.redraw` while
    any sampled inter-arrival time is negative or a deviation block has
    nonpositive transit time or distance. Trajectory timestamps are aligned
    so that successive reconstructed arrival (final) times differ exactly by
    the sampled inter-arrival times, with the first aircraft starting at 0.
    Returns each trajectory's (times, points) and the inter-arrival times.
    """
    rng = np.random.default_rng(rng)
    n = len(params.procedure_sequence)
    if len(procedures) != n:
        raise ValueError(f"need {n} procedural trajectories, got {len(procedures)}")
    proc_points = np.stack([proc.points for proc in procedures])
    distances = np.array([proc.total_distance for proc in procedures])

    def draw():
        parts = _scene_parts(params, rng.standard_normal(params.mean.size))
        deltas = np.concatenate(parts[1::2])
        if np.any(deltas < 0):
            raise InvalidDeviation(f"negative inter-arrival time {deltas.min():g} s")
        return deltas, reconstruct_trajectory(np.stack(parts[::2]), proc_points,
                                              distances)

    deltas, (times, points) = redraw(draw, "scene sampling")
    arrivals = np.cumsum(np.concatenate([times[:1, -1], deltas]))
    return list(zip(times + (arrivals - times[:, -1])[:, None], points)), deltas
