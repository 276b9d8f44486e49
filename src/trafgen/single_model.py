"""Single-aircraft model: stitched trajectory generation from per-segment mixtures.

The two mixtures, one per segment, are fitted by ``trafgen train`` with
:func:`~trafgen.mixture.em_fit` and :func:`~trafgen.mixture.compress_model`.
Generation samples a radar-vector deviation vector, reconstructs it against a
test procedure, then conditions the final-approach mixture on the deviations
implied by the tail of the radar-vector trajectory so the two segments join
smoothly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .mixture import ConditionalMixture, MixtureModel, sample
from .preprocess import reconstruct_trajectory
from .procedures import ProceduralTrajectory

# trajectory draws per generate call before it gives up
MAX_DRAWS = 10


@dataclass(frozen=True)
class SingleModelConfig:
    segment_length_rv: int   # T_v, radar-vector samples
    segment_length_fa: int   # T_f, final-approach samples
    n_overlap: int = 10

    def __post_init__(self) -> None:
        if self.segment_length_rv < 2 or self.segment_length_fa < 2:
            raise ValueError("segment lengths must be >= 2")
        if not 1 <= self.n_overlap < self.segment_length_fa:
            raise ValueError("n_overlap must be in [1, T_f)")
        if self.n_overlap > self.segment_length_rv:
            raise ValueError("n_overlap cannot exceed T_v")


@dataclass
class SingleTrajectoryModel:
    radar_vector_model: MixtureModel
    final_approach_model: MixtureModel
    config: SingleModelConfig

    def __post_init__(self) -> None:
        expected_rv = 3 * self.config.segment_length_rv + 2
        expected_fa = 3 * self.config.segment_length_fa + 2
        if self.radar_vector_model.dimension != expected_rv:
            raise ValueError(
                f"radar-vector model dimension {self.radar_vector_model.dimension}"
                f" != 3*T_v+2 = {expected_rv}")
        if self.final_approach_model.dimension != expected_fa:
            raise ValueError(
                f"final-approach model dimension {self.final_approach_model.dimension}"
                f" != 3*T_f+2 = {expected_fa}")

    @cached_property
    def final_approach_conditional(self) -> ConditionalMixture:
        """The final-approach mixture conditioned on its first n_overlap
        deviations (the tau_a block).

        Built on first use and kept: the overlap index set is fixed by the
        config, so every generated trajectory reuses it.
        """
        return ConditionalMixture(self.final_approach_model,
                                  np.arange(2, 2 + 3 * self.config.n_overlap))


@dataclass
class SyntheticTrajectory:
    """A stitched trajectory of T_v + T_f - n_overlap + 1 samples.

    The overlap is emitted once: the first final-approach sample, at index
    T_v, is the one that retraces the last radar-vector position.
    """

    times: np.ndarray    # (T_v + T_f - n_overlap + 1,), strictly increasing
    points: np.ndarray   # (T_v + T_f - n_overlap + 1, 3)
    procedure_used: str
    source_components: tuple[int, int]  # (radar-vector, final-approach)

    def __post_init__(self) -> None:
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("timestamps must be strictly increasing")


@dataclass
class ProcedureSet:
    """Procedural trajectories to generate against, with RV frequencies."""

    radar_vectors: list[ProceduralTrajectory]
    frequencies: list[float]
    iap: ProceduralTrajectory

    def __post_init__(self) -> None:
        if len(self.frequencies) != len(self.radar_vectors):
            raise ValueError("one frequency per radar-vector procedure")
        total = float(sum(self.frequencies))
        if total <= 0:
            raise ValueError("frequencies must have positive total")
        self.frequencies = [f / total for f in self.frequencies]


def generate(model: SingleTrajectoryModel, procedures: ProcedureSet,
             rng: int | np.random.Generator | None = None,
             ) -> SyntheticTrajectory:
    """Generate one synthetic trajectory against test procedures.

    Picks a radar-vector procedure proportionally to frequency, samples and
    reconstructs the radar-vector segment, conditions the final-approach
    mixture on the deviations of the segment's last ``n_overlap`` positions
    from the IAP head, and joins the reconstructed segments. The overlap is
    emitted once: final-approach samples before the one that retraces the
    radar-vector end are dropped. A draw that fails is redrawn, up to
    ``MAX_DRAWS`` draws in all.
    """
    rng = np.random.default_rng(rng)
    cfg = model.config
    t_v, t_f, n_ov = cfg.segment_length_rv, cfg.segment_length_fa, cfg.n_overlap
    proc_idx = int(rng.choice(len(procedures.radar_vectors),
                              p=procedures.frequencies))
    rv_proc = procedures.radar_vectors[proc_idx]
    iap = procedures.iap
    conditional_fa = model.final_approach_conditional

    last_error: Exception | None = None
    for _ in range(MAX_DRAWS):
        tau_rv, comp_rv = sample(model.radar_vector_model, rng)
        try:
            rv_times, rv_points = reconstruct_trajectory(tau_rv, rv_proc)
        except ValueError as exc:
            last_error = exc
            continue  # nonpositive sampled time/distance: resample

        # deviations of the trajectory tail from the IAP head (tau_a block)
        overlap_dev = rv_points[t_v - n_ov:] - iap.points[:n_ov]
        try:
            conditional = conditional_fa(overlap_dev.ravel())
        except NumericalError as exc:
            last_error = exc
            continue
        tau_b, comp_fa = sample(conditional, rng)
        tau_fa = np.empty(3 * t_f + 2)
        tau_fa[conditional_fa.observed_idx] = overlap_dev.ravel()
        tau_fa[conditional_fa.free_idx] = tau_b
        try:
            fa_times, fa_points = reconstruct_trajectory(tau_fa, iap)
        except ValueError as exc:
            last_error = exc
            continue

        # Final-approach sample n_ov-1 retraces the radar-vector end, so the
        # physical time gap at the join is zero; a vanishing offset keeps
        # timestamps strictly increasing without distorting segment durations.
        epsilon = max(1e-6 * fa_times[-1], 1e-9 * rv_times[-1], 1e-9)
        join = n_ov - 1
        fa_times = fa_times[join:] - fa_times[join] + rv_times[-1] + epsilon
        return SyntheticTrajectory(
            times=np.concatenate([rv_times, fa_times]),
            points=np.vstack([rv_points, fa_points[join:]]),
            procedure_used=rv_proc.procedure,
            source_components=(int(comp_rv), int(comp_fa)),
        )
    raise NumericalError(
        f"generation failed after {MAX_DRAWS} attempts; last cause: "
        f"{last_error}")
