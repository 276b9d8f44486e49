"""Pairwise trajectory models and correlated multi-aircraft scene generation.

A pairwise sample stacks two co-arriving aircraft's deviation vectors around
their inter-arrival time, [tau1, delta12, tau2]. Scene generation assembles a
joint Gaussian over [tau1, d12, tau2, d23, tau3, ...] by matching covariance
sub-blocks across the trained pairwise mixtures, then samples it once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericalError
from .mixture import (GaussianComponent, MixtureModel, compress_model, em_fit,
                      psd_factor)
from .preprocess import DeviationVector, reconstruct_trajectory
from .procedures import ProceduralTrajectory

logger = logging.getLogger(__name__)

DEFAULT_PAIRING_WINDOW_S = 180.0
# a pairwise group is trained only with this many samples per component
MIN_SAMPLES_PER_COMPONENT = 5
# scene draws per generate_scene call before it gives up
MAX_SCENE_DRAWS = 10


@dataclass
class SceneParams:
    """Mean and assembled covariance of a joint N-aircraft deviation vector."""

    mean: np.ndarray
    covariance: np.ndarray
    per_aircraft_dim: int
    procedure_sequence: list[str]
    provenance: dict[str, int]      # source component index per assembled block
    block_drift: list[float] = field(default_factory=list)  # PSD-repair drift

    @property
    def n_aircraft(self) -> int:
        return len(self.procedure_sequence)


@dataclass
class TrafficScene:
    trajectories: list[tuple[np.ndarray, np.ndarray]]  # (times, points) each
    inter_arrival_times: np.ndarray  # (N-1,), nonnegative


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


def _pair_dim(models: Mapping[tuple[str, str], MixtureModel]) -> int:
    dims = {model.dimension for model in models.values()}
    if len(dims) != 1:
        raise ValueError(f"pairwise models disagree on dimension: {sorted(dims)}")
    dim = dims.pop()
    if (dim - 1) % 2 != 0:
        raise ValueError(f"pairwise dimension {dim} is not 2*(3T+2)+1")
    return (dim - 1) // 2


def _marginal(comp: GaussianComponent, blk: slice) -> GaussianComponent:
    """The component's marginal over one aircraft's block: its factor rows."""
    return GaussianComponent(comp.weight, comp.mean[blk], comp.cov_factor[blk],
                             comp.noise_var)


def _set_block(cov: np.ndarray, rows, cols, value) -> None:
    """Write a covariance block and its transpose."""
    cov[rows, cols] = value
    cov[cols, rows] = np.transpose(value)


def assemble_scene_params(models: Mapping[tuple[str, str], MixtureModel],
                          procedure_sequence: Sequence[str],
                          rng: int | np.random.Generator | None = None,
                          ) -> SceneParams:
    """Assemble the joint mean and covariance for an N-aircraft scene.

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
    d = _pair_dim(models)
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
        cov[blk_k1, blk_k1] = _marginal(comp, b_blk).covariance()
        block_factors[k].append(f_a)
        block_factors[k + 1].append(f_b)

    # step 1: sample a component from the first pair's model
    model01 = _require_model(models, (procs[0], procs[1]))
    j0 = int(rng.choice(len(model01.components), p=model01.weights))
    comp = model01.components[j0]
    mean[a_blk] = comp.mean[a_blk]
    cov[a_blk, a_blk] = _marginal(comp, a_blk).covariance()
    place_adjacent(0, comp)
    provenance["pair_0_1"] = j0

    # step 2 repeated: adjacent pairs (k, k+1), matching the shared block
    for k in range(1, n - 1):
        model_k = _require_model(models, (procs[k], procs[k + 1]))
        dists = [np.linalg.norm(_marginal(c, a_blk).covariance() - placed(k))
                 for c in model_k.components]
        jk = int(np.argmin(dists))
        place_adjacent(k, model_k.components[jk])
        provenance[f"pair_{k}_{k + 1}"] = jk

    # step 3 repeated: non-adjacent cross blocks; own delta row is discarded
    for k in range(2, n):
        for i in range(0, k - 1):
            model_ik = _require_model(models, (procs[i], procs[k]))
            dists = [
                np.linalg.norm(_marginal(c, a_blk).covariance() - placed(i))
                + np.linalg.norm(_marginal(c, b_blk).covariance() - placed(k))
                for c in model_ik.components]
            jik = int(np.argmin(dists))
            f = model_ik.components[jik].cov_factor
            _set_block(cov, _block(i, d), _block(k, d), f[a_blk] @ f[b_blk].T)
            block_factors[i].append(f[a_blk])
            block_factors[k].append(f[b_blk])
            provenance[f"cross_{i}_{k}"] = jik

    repaired, drift = _repair_psd(cov, [_block(i, d) for i in range(n)],
                                  block_factors)
    for i, value in enumerate(drift):
        if value > 0.05:
            logger.warning(
                "PSD repair moved aircraft %d's diagonal block by %.1f%% "
                "(incompatible component selection)", i, 100 * value)
    return SceneParams(mean=mean, covariance=repaired, per_aircraft_dim=d,
                       procedure_sequence=procs, provenance=provenance,
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


# ---------------------------------------------------------------------------
# Scene generation

def generate_scene(params: SceneParams,
                   procedures: Sequence[ProceduralTrajectory],
                   rng: int | np.random.Generator | None = None,
                   ) -> TrafficScene:
    """Sample one joint deviation vector and reconstruct the N trajectories.

    The scene vector is redrawn (up to ``MAX_SCENE_DRAWS`` draws in all)
    while any sampled inter-arrival time is negative or a deviation block
    has nonpositive transit time or distance. Trajectory timestamps are
    aligned so that successive reconstructed arrival (final) times differ
    exactly by the sampled inter-arrival times, with the first aircraft
    starting at 0.
    """
    rng = np.random.default_rng(rng)
    n, d = params.n_aircraft, params.per_aircraft_dim
    if len(procedures) != n:
        raise ValueError(f"need {n} procedural trajectories, got {len(procedures)}")
    factor = psd_factor(params.covariance)

    last_cause = None
    for _ in range(MAX_SCENE_DRAWS):
        vec = params.mean + factor @ rng.standard_normal(params.mean.size)
        deltas = np.array([vec[_delta_index(i, d)] for i in range(n - 1)])
        if np.any(deltas < 0):
            last_cause = f"negative inter-arrival time {deltas.min():g} s"
            continue
        try:
            taus = [DeviationVector.from_array(vec[_block(i, d)])
                    for i in range(n)]
        except ValueError as exc:
            last_cause = exc  # nonpositive transit time or distance
            continue
        trajectories = []
        arrival = 0.0
        for i, (tau, proc) in enumerate(zip(taus, procedures)):
            times, points = reconstruct_trajectory(tau, proc)
            arrival = times[-1] if i == 0 else arrival + deltas[i - 1]
            trajectories.append((times + (arrival - times[-1]), points))
        return TrafficScene(trajectories=trajectories, inter_arrival_times=deltas)
    raise NumericalError(
        f"scene sampling failed after {MAX_SCENE_DRAWS} attempts; last cause: "
        f"{last_cause}")
