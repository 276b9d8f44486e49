"""Gaussian mixture core: EM, PPCA, low-rank approximation, conditioning."""

import numpy as np
import pytest

from trafgen.errors import DataError
from trafgen.mixture import (ConditionalMixture, GaussianComponent,
                             MixtureModel, compress_model, condition, em_fit, load_model, log_likelihood,
                             low_rank_approx, model_to_dict,
                             ppca_fit, sample, sample_many, save_model,
                             select_rank)

from oracles import condition_dense, mc_conditional_moments


def single_gaussian(mean, cov, weight=1.0, kind="generic"):
    cov = np.asarray(cov, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(cov)
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return GaussianComponent(weight=weight, mean=np.asarray(mean, dtype=float),
                             cov_factor=factor)


def two_component_model(mu0, cov0, mu1, cov1, w0=0.5, kind="generic"):
    return MixtureModel(components=[
        single_gaussian(mu0, cov0, weight=w0),
        single_gaussian(mu1, cov1, weight=1.0 - w0),
    ], segment_kind=kind)


# ---------------------------------------------------------------------------
# em_fit

def test_em_single_component_is_sample_mle():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(500, 3)) @ np.diag([1.0, 2.0, 0.5]) + [1.0, -2.0, 0.3]
    fit = em_fit(data, 1, seed=0, reg=0.0)
    comp = fit.model.components[0]
    assert np.allclose(comp.mean, data.mean(axis=0), atol=1e-9)
    centered = data - data.mean(axis=0)
    expected_cov = centered.T @ centered / len(data)
    assert np.allclose(comp.covariance(), expected_cov, atol=1e-8)
    assert comp.weight == 1.0


def test_em_regularization_appears_in_covariance():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(200, 2))
    reg = 0.5
    fit = em_fit(data, 1, seed=0, reg=reg)
    centered = data - data.mean(axis=0)
    expected = centered.T @ centered / len(data) + reg * np.eye(2)
    assert np.allclose(fit.model.components[0].covariance(), expected, atol=1e-8)


def test_em_recovers_well_separated_components():
    rng = np.random.default_rng(42)
    mu_a, mu_b = np.array([0.0, 0.0, 0.0]), np.array([6.0, 6.0, 6.0])
    data = np.vstack([
        rng.normal(size=(1000, 3)) + mu_a,
        rng.normal(size=(1000, 3)) + mu_b,
    ])
    fit = em_fit(data, 2, seed=7)
    means = fit.model.means()
    order = np.argsort(means[:, 0])
    assert np.linalg.norm(means[order[0]] - mu_a) < 0.1
    assert np.linalg.norm(means[order[1]] - mu_b) < 0.1
    assert fit.model.weights == pytest.approx([0.5, 0.5], abs=0.05)


def test_em_log_likelihood_monotone():
    rng = np.random.default_rng(3)
    data = np.vstack([rng.normal(size=(150, 4)),
                      rng.normal(size=(150, 4)) + 2.0])
    fit = em_fit(data, 3, seed=5)
    diffs = np.diff(fit.log_likelihoods)
    assert np.all(diffs >= -1e-9)


def test_em_rejects_bad_input():
    data = np.zeros((3, 2))
    with pytest.raises(ValueError):
        em_fit(data, 4)
    data = np.full((10, 2), np.nan)
    with pytest.raises(ValueError):
        em_fit(data, 1)


def test_em_deterministic_for_fixed_seed():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(300, 3))
    fit1 = em_fit(data, 2, seed=11)
    fit2 = em_fit(data, 2, seed=11)
    for c1, c2 in zip(fit1.model.components, fit2.model.components):
        assert np.array_equal(c1.mean, c2.mean)
        assert np.array_equal(c1.cov_factor, c2.cov_factor)
        assert c1.weight == c2.weight


# ---------------------------------------------------------------------------
# log_likelihood

def test_log_likelihood_standard_normal_at_zero():
    model = MixtureModel(components=[single_gaussian([0.0], [[1.0]])])
    value = log_likelihood(model, np.array([[0.0]]))
    assert value == pytest.approx(np.log(1.0 / np.sqrt(2.0 * np.pi)), abs=1e-12)


def test_log_likelihood_additive_over_duplicated_data():
    rng = np.random.default_rng(2)
    model = two_component_model([0.0, 0.0], np.eye(2), [3.0, 1.0],
                                [[2.0, 0.3], [0.3, 1.0]])
    data = rng.normal(size=(40, 2))
    single = log_likelihood(model, data)
    doubled = log_likelihood(model, np.vstack([data, data]))
    assert doubled == pytest.approx(2.0 * single, rel=1e-12)


def test_log_likelihood_midpoint_matches_hand_sum():
    model = two_component_model([-1.0], [[1.0]], [1.0], [[1.0]])
    # x = 0 sits symmetrically between the two unit-variance components
    density = 0.5 * (np.exp(-0.5) / np.sqrt(2 * np.pi)) * 2.0
    value = log_likelihood(model, np.array([[0.0]]))
    assert value == pytest.approx(np.log(density), abs=1e-12)


def test_log_likelihood_dimension_mismatch():
    model = MixtureModel(components=[single_gaussian([0.0], [[1.0]])])
    with pytest.raises(ValueError):
        log_likelihood(model, np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# low_rank_approx

def random_psd(rng, n, rank=None):
    rank = rank or n
    root = rng.normal(size=(n, rank))
    return root @ root.T


def test_low_rank_full_rank_reproduces_input():
    rng = np.random.default_rng(4)
    cov = random_psd(rng, 6)
    factor = low_rank_approx(cov, 6)
    assert np.linalg.norm(factor @ factor.T - cov) < 1e-9


def test_low_rank_axis_aligned():
    factor = low_rank_approx(np.diag([4.0, 1.0]), 1)
    assert np.allclose(factor @ factor.T, np.diag([4.0, 0.0]), atol=1e-12)


def test_low_rank_error_matches_eckart_young():
    rng = np.random.default_rng(5)
    cov = random_psd(rng, 5)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    factor = low_rank_approx(cov, 3)
    frob = np.linalg.norm(factor @ factor.T - cov)
    assert frob == pytest.approx(np.sqrt(np.sum(eigvals[3:] ** 2)), abs=1e-9)


def test_low_rank_rejects_bad_rank_and_asymmetry():
    with pytest.raises(ValueError):
        low_rank_approx(np.eye(3), 4)
    with pytest.raises(ValueError):
        low_rank_approx(np.array([[1.0, 0.5], [0.0, 1.0]]), 1)


# ---------------------------------------------------------------------------
# ppca_fit

def test_ppca_noise_free_subspace():
    rng = np.random.default_rng(6)
    latent = rng.normal(size=(400, 2))
    mixing = rng.normal(size=(5, 2))
    data = latent @ mixing.T + np.array([1.0, 0.0, -2.0, 3.0, 0.5])
    fit = ppca_fit(data, 2)
    assert fit.noise_var < 1e-9
    centered = data - data.mean(axis=0)
    sample_cov = centered.T @ centered / len(data)
    assert np.linalg.norm(fit.weights @ fit.weights.T - sample_cov) < 1e-6


def test_ppca_noise_var_is_mean_discarded_eigenvalue():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(300, 6)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.2])
    fit = ppca_fit(data, 2)
    centered = data - data.mean(axis=0)
    eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered / len(data)))
    assert fit.noise_var == pytest.approx(np.mean(eigvals[:4]), abs=1e-9)


def test_ppca_two_dim_discards_smaller_eigenvalue():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(500, 2)) @ np.array([[2.0, 0.0], [0.0, 0.7]])
    fit = ppca_fit(data, 1)
    centered = data - data.mean(axis=0)
    eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered / len(data)))
    assert fit.noise_var == pytest.approx(eigvals[0], abs=1e-12)


def test_ppca_marginal_covariance_keeps_top_eigenvalues():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(400, 7)) @ rng.normal(size=(7, 7))
    fit = ppca_fit(data, 3)
    centered = data - data.mean(axis=0)
    sample_eigs = np.sort(np.linalg.eigvalsh(centered.T @ centered / len(data)))
    model_cov = fit.weights @ fit.weights.T + fit.noise_var * np.eye(7)
    model_eigs = np.sort(np.linalg.eigvalsh(model_cov))
    assert np.allclose(model_eigs[-3:], sample_eigs[-3:], atol=1e-8)


def test_ppca_rejects_full_rank_request():
    with pytest.raises(ValueError):
        ppca_fit(np.zeros((10, 3)), 3)


# ---------------------------------------------------------------------------
# select_rank

def rank5_data(rng, m=3000, n=30, noise=0.3):
    latent = rng.normal(size=(m, 5))
    mixing = rng.normal(size=(n, 5)) * 2.0
    return latent @ mixing.T + noise * rng.normal(size=(m, n))


def test_select_rank_recovers_generating_rank():
    rng = np.random.default_rng(10)
    data = rank5_data(rng)
    result = select_rank(data, range(1, 12), seed=0)
    assert abs(result.rank - 5) <= 1
    assert len(result.curve) == 11


def test_select_rank_singleton_grid():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(200, 6))
    result = select_rank(data, [3], seed=0)
    assert result.rank == 3


def test_select_rank_curve_rises_then_falls():
    rng = np.random.default_rng(12)
    data = rank5_data(rng)
    result = select_rank(data, range(1, 12), seed=0)
    lls = [ll for _, ll in result.curve]
    peak = int(np.argmax(lls))
    # unimodal shape up to noise: increases into the peak, decreases well after
    assert all(np.diff(lls[:peak + 1]) > 0)
    assert lls[-1] < lls[peak]


def test_select_rank_degenerate_split():
    with pytest.raises(DataError):
        select_rank(np.zeros((4, 3)), [1], holdout_fraction=0.9)


# ---------------------------------------------------------------------------
# condition

def test_condition_block_diagonal_independence():
    cov = np.zeros((4, 4))
    cov[:2, :2] = [[2.0, 0.5], [0.5, 1.0]]
    cov[2:, 2:] = [[1.5, -0.2], [-0.2, 0.8]]
    model = MixtureModel(components=[single_gaussian([1.0, 2.0, 3.0, 4.0], cov)])
    conditioned = condition(model, [0, 1], [10.0, -10.0])
    comp = conditioned.components[0]
    assert np.allclose(comp.mean, [3.0, 4.0], atol=1e-9)
    assert np.allclose(comp.covariance(), cov[2:, 2:], atol=1e-9)


def test_condition_bivariate_normal():
    rho = 0.8
    model = MixtureModel(components=[
        single_gaussian([0.0, 0.0], [[1.0, rho], [rho, 1.0]])])
    conditioned = condition(model, [0], [1.0])
    comp = conditioned.components[0]
    assert comp.mean[0] == pytest.approx(rho, abs=1e-9)
    assert comp.covariance()[0, 0] == pytest.approx(1.0 - rho ** 2, abs=1e-9)


def test_condition_weights_sum_to_one_and_means_match_mc_oracle():
    rng = np.random.default_rng(13)
    cov0 = random_psd(rng, 4) + 0.5 * np.eye(4)
    cov1 = random_psd(rng, 4) + 0.5 * np.eye(4)
    model = two_component_model([0.0, 0.0, 0.0, 0.0], cov0,
                                [2.0, -1.0, 1.0, 0.5], cov1, w0=0.4)
    observed_idx = [0, 2]
    observed_vals = [0.8, -0.3]
    conditioned = condition(model, observed_idx, observed_vals)
    assert sum(c.weight for c in conditioned.components) == pytest.approx(1.0)

    weights_mc, weight_se, mean_mc, mean_se = mc_conditional_moments(
        model, observed_idx, observed_vals, 1_000_000,
        np.random.default_rng(99))
    analytic_weights = np.array([c.weight for c in conditioned.components])
    analytic_mean = sum(c.weight * c.mean for c in conditioned.components)
    # 3 standard errors plus a small allowance for the kernel smoothing bias
    assert np.all(np.abs(analytic_weights - weights_mc)
                  <= 3.0 * weight_se + 0.01)
    assert np.all(np.abs(analytic_mean - mean_mc) <= 3.0 * mean_se + 0.01)


def test_condition_input_validation():
    model = MixtureModel(components=[single_gaussian([0.0, 0.0], np.eye(2))])
    with pytest.raises(ValueError):
        condition(model, [], [])
    with pytest.raises(ValueError):
        condition(model, [0, 0], [1.0, 2.0])
    with pytest.raises(ValueError):
        condition(model, [0, 1], [1.0, 2.0])  # nothing left to sample
    with pytest.raises(ValueError):
        condition(model, [5], [1.0])


@pytest.mark.parametrize("n_overlap", [1, 10])
def test_conditional_mixture_matches_dense_conditioning_bitwise(n_overlap):
    # final-approach shape at paper size: n = 3 * 150 + 2, K = 3, PPCA rank 16
    rng = np.random.default_rng(n_overlap)
    n = 452
    base = rng.normal(scale=50.0, size=n)
    model = MixtureModel(components=[
        GaussianComponent(weight=w, mean=base + rng.normal(scale=5.0, size=n),
                          cov_factor=rng.normal(scale=10.0, size=(n, 16)),
                          noise_var=4.0)
        for w in (0.5, 0.3, 0.2)])
    idx = np.arange(2, 2 + 3 * n_overlap)
    sampler = ConditionalMixture(model, idx)
    for _ in range(3):
        vals = base[idx] + rng.normal(scale=10.0, size=idx.size)
        weights, means, factors = condition_dense(model, idx, vals)
        for conditioned in (sampler(vals), condition(model, idx, vals)):
            assert conditioned.dimension == n - idx.size
            assert np.array_equal(conditioned.weights, weights)
            for comp, mean, factor in zip(conditioned.components, means,
                                          factors):
                assert np.array_equal(comp.mean, mean)
                assert np.array_equal(comp.cov_factor, factor)
                assert comp.noise_var == 0.0


def test_conditional_mixture_checks_value_count():
    model = MixtureModel(components=[single_gaussian([0.0, 0.0], np.eye(2))])
    sampler = ConditionalMixture(model, [0])
    with pytest.raises(ValueError):
        sampler([1.0, 2.0])


# ---------------------------------------------------------------------------
# sampling

def test_sample_degenerate_component_returns_mean():
    mean = np.array([3.0, -1.0, 2.0])
    comp = GaussianComponent(weight=1.0, mean=mean,
                             cov_factor=np.zeros((3, 0)))
    model = MixtureModel(components=[comp])
    for seed in range(5):
        draw, idx = sample(model, seed)
        assert np.array_equal(draw, mean)
        assert idx == 0


def test_sample_standard_normal_moments():
    model = MixtureModel(components=[single_gaussian([0.0], [[1.0]])])
    draws, _ = sample_many(model, 100_000, np.random.default_rng(21))
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.03


def test_sample_component_frequencies_match_weights():
    weights = np.array([0.2, 0.5, 0.3])
    comps = [single_gaussian([float(i)], [[0.1]], weight=w)
             for i, w in enumerate(weights)]
    model = MixtureModel(components=comps)
    n = 100_000
    _, indices = sample_many(model, n, np.random.default_rng(22))
    freqs = np.bincount(indices, minlength=3) / n
    sigma = np.sqrt(weights * (1 - weights) / n)
    assert np.all(np.abs(freqs - weights) <= 3.0 * sigma)


def test_sample_noise_var_contributes():
    comp = GaussianComponent(weight=1.0, mean=np.zeros(2),
                             cov_factor=np.zeros((2, 0)), noise_var=4.0)
    model = MixtureModel(components=[comp])
    draws, _ = sample_many(model, 50_000, np.random.default_rng(23))
    assert np.allclose(draws.var(axis=0), 4.0, atol=0.15)


# ---------------------------------------------------------------------------
# compression and serialization

def test_compress_model_keeps_top_eigenvalues():
    rng = np.random.default_rng(14)
    cov = random_psd(rng, 6) + 0.1 * np.eye(6)
    model = MixtureModel(components=[single_gaussian(np.zeros(6), cov)])
    compressed = compress_model(model, 2)
    comp = compressed.components[0]
    orig_eigs = np.sort(np.linalg.eigvalsh(cov))
    new_eigs = np.sort(np.linalg.eigvalsh(comp.covariance()))
    assert np.allclose(new_eigs[-2:], orig_eigs[-2:], atol=1e-9)
    assert comp.noise_var == pytest.approx(np.mean(orig_eigs[:-2]), abs=1e-9)
    assert comp.cov_factor.shape == (6, 2)


def test_model_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    model = two_component_model([0.0, 1.0], random_psd(rng, 2) + np.eye(2),
                                [5.0, -2.0], random_psd(rng, 2) + np.eye(2),
                                w0=0.3, kind="final_approach")
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert again.segment_kind == model.segment_kind
    for c1, c2 in zip(model.components, again.components):
        assert c1.weight == c2.weight
        assert np.array_equal(c1.mean, c2.mean)
        assert np.array_equal(c1.cov_factor, c2.cov_factor)


def test_model_format_tag_checked(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": "other/9", "components": []}', encoding="utf-8")
    with pytest.raises(DataError, match="unsupported format 'other/9'"):
        load_model(path)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        MixtureModel(components=[
            single_gaussian([0.0], [[1.0]], weight=0.4),
            single_gaussian([1.0], [[1.0]], weight=0.4),
        ])


def test_effective_covariance_psd():
    rng = np.random.default_rng(16)
    for _ in range(10):
        cov = random_psd(rng, 5)
        comp = single_gaussian(np.zeros(5), cov)
        eigs = np.linalg.eigvalsh(comp.covariance())
        assert eigs.min() >= -1e-9 * max(eigs.max(), 1.0)
