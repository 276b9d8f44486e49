"""Single-aircraft model: stitched trajectory generation from per-segment mixtures.

The two mixtures, one per segment, are fitted by ``trafgen train`` with
:func:`~trafgen.mixture.em_fit` and :func:`~trafgen.mixture.compress_model`.
Generation samples a radar-vector deviation vector, reconstructs it against
the radar-vector procedure its caller drew, then conditions the
final-approach mixture on the deviations implied by the tail of the
radar-vector trajectory so the two segments join smoothly. A model states
only that overlap, n_overlap: the segment lengths T_v and T_f follow from
the mixtures' dimensions, 3T+2 each, by
:func:`~trafgen.preprocess.deviation_length`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mixture import ConditionalMixture, MixtureModel, redraw, sample
from .preprocess import deviation_length, reconstruct_trajectory


def check_segment_lengths(t_v: int, t_f: int, n_overlap: int) -> None:
    """ValueError unless T_v, T_f >= 2, 1 <= n_overlap < T_f and n_overlap <= T_v."""
    if t_v < 2 or t_f < 2:
        raise ValueError("segment lengths must be >= 2")
    if not 1 <= n_overlap < t_f:
        raise ValueError("n_overlap must be in [1, T_f)")
    if n_overlap > t_v:
        raise ValueError("n_overlap cannot exceed T_v")


@dataclass
class SingleTrajectoryModel:
    radar_vector_model: MixtureModel
    final_approach_model: MixtureModel
    n_overlap: int

    def __post_init__(self) -> None:
        check_segment_lengths(
            deviation_length(self.radar_vector_model.dimension,
                             "radar-vector model dimension", "T_v"),
            deviation_length(self.final_approach_model.dimension,
                             "final-approach model dimension", "T_f"),
            self.n_overlap)

    @cached_property
    def final_approach_conditional(self) -> ConditionalMixture:
        """The final-approach mixture conditioned on its first n_overlap
        deviations (the tau_a block).

        Built on first use and kept: the overlap index set is fixed by the
        model, so every generated trajectory reuses it.
        """
        return ConditionalMixture(self.final_approach_model,
                                  np.arange(2, 2 + 3 * self.n_overlap))


def generate(model: SingleTrajectoryModel, rv_points: np.ndarray,
             iap_points: np.ndarray, rng: int | np.random.Generator | None = None,
             ) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """One synthetic trajectory against radar-vector and IAP procedural points
    (T_v, 3) and (T_f, 3): its T_v + T_f - n_overlap + 1 strictly increasing
    times, its points, and its (radar-vector, final-approach) component indices.

    Samples and reconstructs the radar-vector segment, conditions the
    final-approach mixture on the deviations of the segment's last
    ``n_overlap`` positions from the IAP head, and joins the reconstructed
    segments. The overlap is emitted once: the final-approach sample at
    index T_v retraces the radar-vector end, and those before it are
    dropped. A draw that fails is redrawn by :func:`~trafgen.mixture.redraw`.
    """
    rng = np.random.default_rng(rng)
    n_ov = model.n_overlap
    conditional_fa = model.final_approach_conditional

    def draw():
        tau_rv, (comp_rv,) = sample(model.radar_vector_model, 1, rng)
        (rv_times,), (rv_track,) = reconstruct_trajectory(tau_rv, rv_points)
        # deviations of the trajectory tail from the IAP head (tau_a block)
        overlap_dev = (rv_track[-n_ov:] - iap_points[:n_ov]).ravel()
        (tau_b,), (comp_fa,) = sample(conditional_fa(overlap_dev), 1, rng)
        tau_fa = np.empty(model.final_approach_model.dimension)
        tau_fa[conditional_fa.observed_idx] = overlap_dev
        tau_fa[conditional_fa.free_idx] = tau_b
        return (rv_times, rv_track, *reconstruct_trajectory(tau_fa[None], iap_points),
                (int(comp_rv), int(comp_fa)))

    rv_times, rv_track, (fa_times,), (fa_track,), components = redraw(
        draw, "generation")
    # Final-approach sample n_ov-1 retraces the radar-vector end, so the
    # physical time gap at the join is zero; a vanishing offset keeps
    # timestamps strictly increasing without distorting segment durations.
    epsilon = max(1e-6 * fa_times[-1], 1e-9 * rv_times[-1], 1e-9)
    join = n_ov - 1
    fa_times = fa_times[join:] - fa_times[join] + rv_times[-1] + epsilon
    return (np.concatenate([rv_times, fa_times]),
            np.vstack([rv_track, fa_track[join:]]), components)
