"""Per-segment training and stitched single-trajectory generation."""

import re

import numpy as np
import pytest

from trafgen.errors import NumericalError
from trafgen.metrics import histogram_pair, js_divergence, silhouette_sweep
from trafgen.preprocess import reconstruct_trajectory
from trafgen.mixture import GaussianComponent, MixtureModel, compress_model, \
    em_fit, sample, substream
from trafgen import mixture, single_model
from trafgen.single_model import SingleTrajectoryModel

from conftest import make_proc_traj
from corpus import generate_drawn
from oracles import dense_covariance, model_to_dict


T_V, T_F, N_OV = 10, 6, 2
DIM_V, DIM_F = 3 * T_V + 2, 3 * T_F + 2
ROWS = T_V + T_F - N_OV + 1  # the overlap is emitted once
# mean transit times (s) of the ground-truth segments
IAP_TRANSIT_S, RV_TRANSIT_S = 120.0, 300.0


def iap_procedure(t_f=T_F):
    u = np.linspace(0.0, 1.0, t_f)
    x = np.zeros(t_f)
    y = -8000.0 * u
    z = 450.0 * (1.0 - u)
    return make_proc_traj(np.column_stack([x, y, z]), name="IAP")


def rv_procedure(name="RV0", length=20000.0, y0=15000.0, *,
                 t_v=T_V, t_f=T_F, n_ov=N_OV):
    """Radar-vector path whose final points hand off onto the IAP head."""
    lead = t_v - n_ov
    u = np.linspace(0.0, 1.0, lead, endpoint=False)
    x = -length * (1.0 - u)
    y = y0 * (1.0 - u) ** 2
    z = 1200.0 * (1.0 - u) + 450.0 * u
    points = np.vstack([np.column_stack([x, y, z]),
                        iap_procedure(t_f).points[:n_ov]])
    return make_proc_traj(points, name=name)


def smooth_factor(dim, scale, seed):
    """Low-rank factor with smooth columns over the deviation block."""
    rng = np.random.default_rng(seed)
    t_len = (dim - 2) // 3
    u = np.linspace(0.0, 1.0, t_len)
    shapes = [np.sin(np.pi * u), np.sin(2 * np.pi * u), u * (1.0 - u) * 4.0]
    factor = np.zeros((dim, 3))
    factor[0, 0] = 8.0    # transit-time spread
    factor[1, 1] = 60.0   # distance spread
    for col, shape in enumerate(shapes):
        block = np.outer(shape, rng.normal(scale=scale, size=3)).ravel()
        factor[2:, col] += block
    return factor


def gt_component(proc, transit, dim, lateral, scale, weight, seed):
    t_len = (dim - 2) // 3
    u = np.linspace(0.0, 1.0, t_len)
    mean = np.zeros(dim)
    mean[0] = transit
    mean[1] = proc.total_distance
    mean[2::3] = lateral * np.sin(np.pi * u)  # tapered east offset
    return GaussianComponent(weight=weight, mean=mean,
                             cov_factor=smooth_factor(dim, scale, seed),
                             noise_var=4.0)


def ground_truth_model(t_v=T_V, t_f=T_F, n_ov=N_OV):
    rv_proc = rv_procedure(t_v=t_v, t_f=t_f, n_ov=n_ov)
    dim_v, dim_f = 3 * t_v + 2, 3 * t_f + 2
    rv = MixtureModel(components=[
        gt_component(rv_proc, RV_TRANSIT_S, dim_v, +400.0, 30.0, 0.6, seed=1),
        gt_component(rv_proc, RV_TRANSIT_S, dim_v, -400.0, 30.0, 0.4, seed=2),
    ], segment_kind="radar_vector")
    fa = MixtureModel(components=[
        gt_component(iap_procedure(t_f), IAP_TRANSIT_S, dim_f, +120.0, 15.0,
                     0.5, seed=3),
        gt_component(iap_procedure(t_f), IAP_TRANSIT_S, dim_f, -120.0, 15.0,
                     0.5, seed=4),
    ], segment_kind="final_approach")
    return SingleTrajectoryModel(radar_vector_model=rv, final_approach_model=fa,
                                 n_overlap=n_ov)


def zero_cov_model():
    def degenerate(proc, transit, dim):
        mean = np.zeros(dim)
        mean[0] = transit
        mean[1] = proc.total_distance
        return MixtureModel(components=[GaussianComponent(
            weight=1.0, mean=mean, cov_factor=np.zeros((dim, 0)))])
    return SingleTrajectoryModel(
        radar_vector_model=degenerate(rv_procedure(), RV_TRANSIT_S, DIM_V),
        final_approach_model=degenerate(iap_procedure(), IAP_TRANSIT_S, DIM_F),
        n_overlap=N_OV)


def make_procs():
    return [rv_procedure()], [1.0], iap_procedure()


# ---------------------------------------------------------------------------
# train

def fit_segment(data, segment, n_components, rank, seed):
    """A segment's compressed mixture and EM log-likelihoods, seeded from the
    substream ``train-<segment>`` of ``seed`` as ``trafgen train`` seeds it."""
    segment_seed = int(substream(seed, f"train-{segment}").integers(2 ** 31))
    fit = em_fit(data, n_components, seed=segment_seed, segment_kind=segment)
    return compress_model(fit.model, rank), fit.log_likelihoods


def test_train_recovers_single_component_mean():
    gt = ground_truth_model().radar_vector_model.components[0]
    gt_single = MixtureModel(components=[GaussianComponent(
        weight=1.0, mean=gt.mean, cov_factor=gt.cov_factor,
        noise_var=gt.noise_var)])
    data, _ = sample(gt_single, 4000, np.random.default_rng(0))

    model, log_likelihoods = fit_segment(data, "radar_vector", 1, 3, seed=0)
    recovered = model.components[0]
    sigma = np.sqrt(np.diag(dense_covariance(gt)))
    assert np.all(np.abs(recovered.mean - gt.mean) <= 0.05 * sigma + 1e-9)
    assert len(log_likelihoods) >= 1


def test_silhouette_sweep_finds_generating_component_count():
    rng = np.random.default_rng(5)
    for k_true, offsets in ((2, [-2000.0, 2000.0]),
                            (6, [-5000.0, -3000.0, -1000.0,
                                 1000.0, 3000.0, 5000.0])):
        blobs = [rng.normal(scale=60.0, size=(120, DIM_F))
                 + np.eye(DIM_F)[2] * off for off in offsets]
        data = np.vstack(blobs) + np.array([300.0, 9000.0] + [0.0] * (DIM_F - 2))
        n_components, _ = silhouette_sweep(data, [2, 3, 4, 5, 6, 7], seed=4)
        assert n_components == k_true


def test_train_is_bit_identical_for_fixed_seed():
    rng = np.random.default_rng(6)
    rv_data, _ = sample(ground_truth_model().radar_vector_model, 600, rng)
    fa_data, _ = sample(ground_truth_model().final_approach_model, 600,
                        np.random.default_rng(7))
    for data, segment in ((rv_data, "radar_vector"),
                          (fa_data, "final_approach")):
        model1, _ = fit_segment(data, segment, 2, 3, seed=123)
        model2, _ = fit_segment(data, segment, 2, 3, seed=123)
        assert model_to_dict(model1) == model_to_dict(model2)


# ---------------------------------------------------------------------------
# generate

def test_zero_covariance_reproduces_procedural_paths():
    model = zero_cov_model()
    _, times, points, _ = generate_drawn(model, make_procs(),
                                         np.random.default_rng(9))
    rv_proc, iap = rv_procedure(), iap_procedure()
    assert np.allclose(points[:T_V], rv_proc.points, atol=1e-9)
    assert np.allclose(points[T_V:], iap.points[N_OV - 1:], atol=1e-9)
    # mean transit times: tau_2 equals the procedural distance, so t' = tau_1
    assert times[T_V - 1] == pytest.approx(RV_TRANSIT_S, abs=1e-9)
    span_fa = times[-1] - times[T_V]
    assert span_fa == pytest.approx(
        IAP_TRANSIT_S * (T_F - N_OV) / (T_F - 1), abs=1e-9)


def test_generated_trajectory_shape_and_monotone_times():
    model = ground_truth_model()
    rng = np.random.default_rng(10)
    for _ in range(25):
        _, times, points, _ = generate_drawn(model, make_procs(), rng)
        assert points.shape == (ROWS, 3)
        assert times.shape == (ROWS,)
        assert np.all(np.diff(times) > 0)


def test_conditioning_consistency_of_overlap():
    # the first emitted final-approach sample is overlap sample N_OV - 1,
    # conditioned on the radar-vector end: the two coincide
    model = ground_truth_model()
    rng = np.random.default_rng(11)
    for _ in range(10):
        _, _, points, _ = generate_drawn(model, make_procs(), rng)
        assert np.allclose(points[T_V], points[T_V - 1],
                           atol=1e-9, rtol=0.0)


def test_stitch_is_continuous_at_paper_overlap():
    # n_overlap = 10 as in the paper: the join must not step back over the
    # overlap, so its step speed stays within that of the other steps
    model = ground_truth_model(t_v=40, t_f=20, n_ov=10)
    procs = [rv_procedure(t_v=40, t_f=20, n_ov=10)], [1.0], iap_procedure(20)
    rng = np.random.default_rng(18)
    for _ in range(10):
        _, times, points, _ = generate_drawn(model, procs, rng)
        assert points.shape == (40 + 20 - 10 + 1, 3)
        dt = np.diff(times)
        assert np.all(dt > 0)
        speed = np.linalg.norm(np.diff(points[:, :2], axis=0), axis=1) / dt
        join = 40 - 1
        assert speed[join] <= np.delete(speed, join).max()


def test_retry_failure_names_its_cause():
    model = zero_cov_model()
    model.radar_vector_model.components[0].mean[0] = -1.0  # negative transit
    with pytest.raises(NumericalError) as err:
        generate_drawn(model, make_procs(), np.random.default_rng(19))
    assert str(err.value) == ("generation failed after 10 attempts; last cause: "
                              "transit_time must be positive")


def test_generate_stops_after_max_draws(monkeypatch):
    model = zero_cov_model()
    model.radar_vector_model.components[0].mean[0] = -1.0  # negative transit
    draws = []

    def counted(rows, proc_points, total_distance):
        draws.append(rows)
        return reconstruct_trajectory(rows, proc_points, total_distance)

    monkeypatch.setattr(mixture, "MAX_DRAWS", 3)
    monkeypatch.setattr(single_model, "reconstruct_trajectory", counted)
    with pytest.raises(NumericalError, match="generation failed after 3 attempts"):
        generate_drawn(model, make_procs(), np.random.default_rng(19))
    assert len(draws) == 3


def test_a_plain_value_error_in_a_draw_is_not_redrawn(monkeypatch):
    # only an InvalidDeviation or a NumericalError is drawn again; any other
    # exception is a defect and passes through on the first draw
    calls = []

    def broken(model, size, rng):
        calls.append(model)
        raise ValueError("a defect")

    monkeypatch.setattr(single_model, "sample", broken)
    with pytest.raises(ValueError, match="a defect") as err:
        generate_drawn(ground_truth_model(), make_procs(),
                       np.random.default_rng(20))
    assert type(err.value) is ValueError
    assert len(calls) == 1


def test_conditional_sampler_is_built_once():
    model = ground_truth_model()
    sampler = model.final_approach_conditional
    generate_drawn(model, make_procs(), np.random.default_rng(20))
    assert model.final_approach_conditional is sampler


def test_generate_reproducible_for_fixed_seed():
    model = ground_truth_model()
    _, times1, points1, components1 = generate_drawn(
        model, make_procs(), np.random.default_rng(12))
    _, times2, points2, components2 = generate_drawn(
        model, make_procs(), np.random.default_rng(12))
    assert np.array_equal(times1, times2)
    assert np.array_equal(points1, points2)
    assert components1 == components2


def test_transit_time_scales_linearly_with_procedure_length():
    model = zero_cov_model()
    short = make_procs()
    long_proc = rv_procedure("RVLONG", length=40000.0)
    # same sampled (tau_1, tau_2); doubled-length procedure
    long = [long_proc], [1.0], iap_procedure()
    _, t_short, _, _ = generate_drawn(model, short, np.random.default_rng(13))
    _, t_long, _, _ = generate_drawn(model, long, np.random.default_rng(13))
    rv_mean = model.radar_vector_model.components[0].mean
    ratio = long_proc.total_distance / rv_procedure().total_distance
    expected = rv_mean[0] / rv_mean[1] * long_proc.total_distance
    assert t_long[T_V - 1] == pytest.approx(expected, rel=1e-12)
    assert t_long[T_V - 1] == pytest.approx(
        t_short[T_V - 1] * ratio, rel=1e-12)


def test_end_to_end_distribution_matches_ground_truth():
    gt = ground_truth_model()
    procs = make_procs()
    # "actual" trajectories straight from the ground-truth generator
    rng = np.random.default_rng(14)
    actual = [generate_drawn(gt, procs, rng)[2] for _ in range(1000)]
    # training datasets drawn from the ground-truth deviation mixtures
    rv_data, _ = sample(gt.radar_vector_model, 2000,
                        np.random.default_rng(15))
    fa_data, _ = sample(gt.final_approach_model, 2000,
                        np.random.default_rng(16))
    model = SingleTrajectoryModel(
        radar_vector_model=fit_segment(rv_data, "radar_vector", 2, 4, seed=1)[0],
        final_approach_model=fit_segment(fa_data, "final_approach", 2, 4,
                                         seed=1)[0],
        n_overlap=N_OV)
    rng = np.random.default_rng(17)
    synthetic = [generate_drawn(model, procs, rng)[2] for _ in range(1000)]

    for axis in range(3):
        a = np.concatenate([points[:, axis] for points in actual])
        s = np.concatenate([points[:, axis] for points in synthetic])
        ha, hs = histogram_pair(a, s)
        assert js_divergence(ha, hs) <= 0.05


def test_model_dimension_validation():
    model = zero_cov_model()
    rv, fa = model.radar_vector_model, model.final_approach_model
    # a dimension that is not 3T+2
    short = MixtureModel(components=[GaussianComponent(
        weight=1.0, mean=np.zeros(DIM_F - 1),
        cov_factor=np.zeros((DIM_F - 1, 0)))])
    with pytest.raises(ValueError, match=re.escape(
            f"final-approach model dimension {DIM_F - 1} != 3*T_f+2 for any T_f")):
        SingleTrajectoryModel(radar_vector_model=rv, final_approach_model=short,
                              n_overlap=N_OV)
    tiny = MixtureModel(components=[GaussianComponent(
        weight=1.0, mean=np.zeros(1), cov_factor=np.zeros((1, 0)))])
    with pytest.raises(ValueError, match=re.escape(
            "radar-vector model dimension 1 != 3*T_v+2 for any T_v")):
        SingleTrajectoryModel(radar_vector_model=tiny, final_approach_model=fa,
                              n_overlap=N_OV)
    # n_overlap out of range for the T read from the dimensions
    with pytest.raises(ValueError, match=r"n_overlap must be in \[1, T_f\)"):
        SingleTrajectoryModel(radar_vector_model=rv, final_approach_model=fa,
                              n_overlap=T_F)
    with pytest.raises(ValueError, match="n_overlap cannot exceed T_v"):
        SingleTrajectoryModel(radar_vector_model=fa, final_approach_model=rv,
                              n_overlap=T_F + 1)
    assert SingleTrajectoryModel(radar_vector_model=rv, final_approach_model=fa,
                                 n_overlap=T_F - 1).n_overlap == T_F - 1
