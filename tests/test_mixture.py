"""Gaussian mixture core: EM, PPCA compression, conditioning."""

import json
import logging

import numpy as np
import pytest

from trafgen import mixture
from trafgen.errors import DataError, NumericalError
from trafgen.mixture import (ConditionalMixture, GaussianComponent,
                             MixtureModel, compress_model, em_fit, load_model,
                             sample, save_model, select_rank)

from conftest import assert_bitwise, peak_traced_bytes, ppca
from oracles import (compress_model_dense, condition_dense, dense_covariance,
                     em_fit_dense, em_fit_full_loop, logsumexp,
                     mc_conditional_moments, model_to_dict,
                     select_rank_per_rank)


def single_gaussian(mean, cov, weight=1.0):
    cov = np.asarray(cov, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(cov)
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return GaussianComponent(weight=weight, mean=np.asarray(mean, dtype=float),
                             cov_factor=factor)


def two_component_model(mu0, cov0, mu1, cov1, w0=0.5):
    return MixtureModel(components=[
        single_gaussian(mu0, cov0, weight=w0),
        single_gaussian(mu1, cov1, weight=1.0 - w0),
    ])


# ---------------------------------------------------------------------------
# log-sum-exp: numpy's logaddexp.reduce against scipy's logsumexp

def test_logaddexp_is_within_four_ulp_of_scipy_logsumexp():
    """The error is counted in ulp of the largest of |largest entry|,
    |result| and log(entry count), the bound on log of the shifted sum, so
    that a result near 0 from a top entry of 0 is not scored in its own
    tiny ulp."""
    rng = np.random.default_rng(7)
    for size in range(1, 13):
        a = rng.normal(size=(3000, size)) * 10.0 ** rng.uniform(-2, 4, (3000, 1))
        a[1::3] = np.round(a[1::3])  # ties at the maximum
        a[2::3][rng.random((1000, size)) < 0.3] = -np.inf
        got, want = np.logaddexp.reduce(a, axis=1), logsumexp(a, axis=1)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(got[~finite], want[~finite])
        top = np.max(a[finite], axis=1)
        scale = np.maximum.reduce([np.abs(top), np.abs(want[finite]),
                                   np.full(top.size, np.log(size))])
        assert np.all(np.abs(got[finite] - want[finite]) <= 4 * np.spacing(scale))


@pytest.mark.parametrize("row", [
    [-np.inf, -np.inf],  # all -inf: log 0
    [np.inf, 0.0],       # +inf wins
    [-np.inf, np.inf],
    [3.0],
])
def test_logaddexp_edge_rows_equal_scipy(row):
    a = np.array(row)
    assert_bitwise(np.logaddexp.reduce(a), logsumexp(a))


# ---------------------------------------------------------------------------
# em_fit

def test_em_single_component_is_sample_mle():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(500, 3)) @ np.diag([1.0, 2.0, 0.5]) + [1.0, -2.0, 0.3]
    fit = em_fit(data, 1, seed=0)
    comp = fit.model.components[0]
    assert np.allclose(comp.mean, data.mean(axis=0), atol=1e-9)
    centered = data - data.mean(axis=0)
    expected_cov = centered.T @ centered / len(data)
    assert np.allclose(comp.cov_factor @ comp.cov_factor.T, expected_cov,
                       atol=1e-8)
    assert comp.weight == 1.0


def test_em_regularization_appears_in_covariance():
    # reg = 1e-6 times the mean data variance, and at least 1e-12
    rng = np.random.default_rng(1)
    data = 1e3 * rng.normal(size=(200, 2))
    reg = 1e-6 * float(np.mean(np.var(data, axis=0)))
    comp = em_fit(data, 1, seed=0).model.components[0]
    assert comp.noise_var == reg
    centered = data - data.mean(axis=0)
    expected = centered.T @ centered / len(data) + reg * np.eye(2)
    assert (np.linalg.norm(dense_covariance(comp) - expected)
            <= 1e-12 * np.linalg.norm(expected))
    assert em_fit(1e-7 * data, 1, seed=0).model.components[0].noise_var == 1e-12


def test_em_recovers_well_separated_components():
    rng = np.random.default_rng(42)
    mu_a, mu_b = np.array([0.0, 0.0, 0.0]), np.array([6.0, 6.0, 6.0])
    data = np.vstack([
        rng.normal(size=(1000, 3)) + mu_a,
        rng.normal(size=(1000, 3)) + mu_b,
    ])
    fit = em_fit(data, 2, seed=7)
    means = np.stack([c.mean for c in fit.model.components])
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
    with pytest.raises(DataError):
        em_fit(data, 4)
    data = np.full((10, 2), np.nan)
    with pytest.raises(DataError, match="data contains non-finite values"):
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


def mixed_rows(rng, m, n, k, scale):
    centres = rng.normal(scale=scale, size=(k, n)) + 5.0
    mixing = rng.normal(size=(n, n)) / np.sqrt(n)
    return centres[rng.integers(k, size=m)] + rng.normal(size=(m, n)) @ mixing


@pytest.mark.parametrize("m, n, k, scale, ranks", [
    (24, 200, 2, 3.0, (5, 30)),   # thin SVD of Z; rank 30 exceeds its 24 columns
    (400, 12, 3, 0.6, (5, 11)),   # eigh of Z^T Z
], ids=["rows_below_dim", "rows_above_dim"])
def test_em_and_compression_match_dense_oracle(m, n, k, scale, ranks):
    data = mixed_rows(np.random.default_rng(34), m, n, k, scale)
    fit = em_fit(data, k, seed=3)
    ref = em_fit_dense(data, k, seed=3)
    assert len(fit.log_likelihoods) == len(ref.log_likelihoods)
    assert np.array_equal(fit.labels, ref.labels)
    assert np.allclose(fit.log_likelihoods, ref.log_likelihoods,
                       rtol=1e-9, atol=0.0)
    assert np.allclose(np.stack([c.mean for c in fit.model.components]),
                       np.stack([c.mean for c in ref.model.components]),
                       rtol=1e-12, atol=0.0)
    for comp in fit.model.components:
        assert comp.cov_factor.shape == (n, min(m, n))
    for rank in ranks:
        pairs = zip(compress_model(fit.model, rank).components,
                    compress_model_dense(ref.model, rank).components)
        for comp, oracle in pairs:
            assert comp.cov_factor.shape == (n, rank)
            expected = dense_covariance(oracle)
            assert (np.linalg.norm(dense_covariance(comp) - expected)
                    <= 1e-9 * np.linalg.norm(expected))


@pytest.mark.parametrize("shape", ["hard", "soft", "sliver"])
def test_em_skips_the_m_step_of_repeated_responsibilities(monkeypatch, shape):
    rng = np.random.default_rng(37)
    if shape == "hard":  # rows < dims: the first E-step repeats k-means
        data = mixed_rows(rng, 24, 200, 3, 3.0)
    elif shape == "soft":
        data = mixed_rows(rng, 400, 12, 3, 0.6)
    else:  # two distinct rows and three clusters: an empty k-means cluster
        data = rng.normal(size=(2, 200))[np.arange(24) % 2]
    calls = []
    m_step = mixture._m_step
    monkeypatch.setattr(mixture, "_m_step",
                        lambda *args: calls.append(1) or m_step(*args))
    fit = em_fit(data, 3, seed=3)
    ref = em_fit_full_loop(data, 3, seed=3)

    history = fit.log_likelihoods
    if shape == "hard":
        assert len(calls) == 1
        assert len(history) == 2 and history[0] == history[1]
    else:  # the initial M-step and one after every E-step but the last
        assert len(calls) == len(history) > 1
    assert_bitwise(fit.labels, ref.labels)
    assert_bitwise(np.array(history), np.array(ref.log_likelihoods))
    assert len(fit.model.components) == len(ref.model.components)
    for comp, want in zip(fit.model.components, ref.model.components):
        for name in ("weight", "mean", "cov_factor", "noise_var"):
            assert_bitwise(getattr(comp, name), getattr(want, name))


def test_em_at_iteration_cap_warns_once(monkeypatch, caplog):
    rng = np.random.default_rng(35)
    data = np.vstack([rng.normal(size=(100, 3)), rng.normal(size=(100, 3)) + 2.0])
    with caplog.at_level(logging.WARNING, logger="trafgen.mixture"):
        em_fit(data, 2, seed=0)
    assert caplog.records == []  # a converging fit logs nothing

    monkeypatch.setattr(mixture, "EM_MAX_ITER", 1)
    with caplog.at_level(logging.WARNING, logger="trafgen.mixture"):
        fit = em_fit(data, 2, seed=0)
    assert len(fit.log_likelihoods) == 1
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "iteration cap 1 " in caplog.records[0].getMessage()
    assert "relative log-likelihood gain nan" in caplog.records[0].getMessage()


def test_em_and_rank_selection_form_no_n_by_n_matrix():
    # the radar-vector shape at paper size: 24 flights, n = 3 * 350 + 2
    m, n = 24, 1052
    rng = np.random.default_rng(36)
    data = rng.normal(size=(m, 8)) @ rng.normal(size=(8, n)) \
        + 0.1 * rng.normal(size=(m, n))

    def learn():
        fit = em_fit(data, 2, seed=0)
        select_rank(data, [1, 2, 4, 8, 16], seed=0)
        return fit

    peak, fit = peak_traced_bytes(learn)
    assert len(fit.model.components) == 2
    assert peak < n * n * 8


@pytest.mark.parametrize("k", [2, 3])
def test_em_holds_about_four_copies_of_the_data(k):
    # corpus-2k's radar-vector shape. Each component is centred into one
    # reused (m, n) buffer and its residual squared in place: traced 4.2-4.3x
    # the rows, where a fresh centred and weighted copy per component and
    # step held 5.2-5.3x
    rng = np.random.default_rng(37)
    data = rng.normal(size=(2000, 122)) * rng.uniform(0.1, 100.0, size=122)
    peak, fit = peak_traced_bytes(lambda: em_fit(data, k, seed=1))
    assert len(fit.log_likelihoods) > 2  # more than a hard fit's one M-step
    assert peak <= 4.6 * data.nbytes


# ---------------------------------------------------------------------------
# PPCA compression of one covariance

def random_psd(rng, n, rank=None):
    rank = rank or n
    root = rng.normal(size=(n, rank))
    return root @ root.T


def compress_one(cov, rank):
    """The compressed component of a one-component, zero-mean model of ``cov``."""
    model = MixtureModel(components=[single_gaussian(np.zeros(len(cov)), cov)])
    return compress_model(model, rank).components[0]


def test_low_rank_full_rank_reproduces_input():
    # a rank at least the covariance's own reproduces it
    rng = np.random.default_rng(4)
    cov = random_psd(rng, 6, rank=5)
    comp = compress_one(cov, 5)
    assert np.linalg.norm(dense_covariance(comp) - cov) < 1e-9


def test_low_rank_axis_aligned():
    comp = compress_one(np.diag([4.0, 1.0]), 1)
    assert np.allclose(comp.cov_factor @ comp.cov_factor.T, np.diag([3.0, 0.0]),
                       atol=1e-12)
    assert comp.noise_var == pytest.approx(1.0, abs=1e-12)


def test_low_rank_error_matches_eckart_young():
    # W W^T + sigma^2 I keeps the top eigenvalues and puts sigma^2, the mean
    # of the rest, in their place
    rng = np.random.default_rng(5)
    cov = random_psd(rng, 5)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    comp = compress_one(cov, 3)
    frob = np.linalg.norm(dense_covariance(comp) - cov)
    assert frob == pytest.approx(
        np.sqrt(np.sum((eigvals[3:] - comp.noise_var) ** 2)), abs=1e-9)


# ---------------------------------------------------------------------------
# PPCA of data rows

def test_ppca_noise_free_subspace():
    rng = np.random.default_rng(6)
    latent = rng.normal(size=(400, 2))
    mixing = rng.normal(size=(5, 2))
    data = latent @ mixing.T + np.array([1.0, 0.0, -2.0, 3.0, 0.5])
    fit = ppca(data, 2)
    assert fit.noise_var < 1e-9
    centered = data - data.mean(axis=0)
    sample_cov = centered.T @ centered / len(data)
    assert np.linalg.norm(fit.cov_factor @ fit.cov_factor.T - sample_cov) < 1e-6


def test_ppca_noise_var_is_mean_discarded_eigenvalue():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(300, 6)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.2])
    fit = ppca(data, 2)
    centered = data - data.mean(axis=0)
    eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered / len(data)))
    assert fit.noise_var == pytest.approx(np.mean(eigvals[:4]), abs=1e-9)


def test_ppca_two_dim_discards_smaller_eigenvalue():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(500, 2)) @ np.array([[2.0, 0.0], [0.0, 0.7]])
    fit = ppca(data, 1)
    centered = data - data.mean(axis=0)
    eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered / len(data)))
    assert fit.noise_var == pytest.approx(eigvals[0], abs=1e-12)


def test_ppca_marginal_covariance_keeps_top_eigenvalues():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(400, 7)) @ rng.normal(size=(7, 7))
    fit = ppca(data, 3)
    centered = data - data.mean(axis=0)
    sample_eigs = np.sort(np.linalg.eigvalsh(centered.T @ centered / len(data)))
    model_eigs = np.sort(np.linalg.eigvalsh(dense_covariance(fit)))
    assert np.allclose(model_eigs[-3:], sample_eigs[-3:], atol=1e-8)


def test_ppca_fewer_rows_than_dimensions_matches_dense_oracle():
    m, n, rank = 15, 60, 4
    rng = np.random.default_rng(37)
    data = rng.normal(size=(m, 6)) @ rng.normal(size=(6, n)) \
        + 0.2 * rng.normal(size=(m, n))
    fit = ppca(data, rank)
    centered = data - data.mean(axis=0)
    sample_cov = centered.T @ centered / m
    eigvals, eigvecs = np.linalg.eigh(sample_cov)
    assert abs(fit.noise_var - np.mean(eigvals[:n - rank])) <= 1e-9 * eigvals[-1]
    top = eigvecs[:, n - rank:]
    expected = (top * (eigvals[n - rank:] - fit.noise_var)) @ top.T \
        + fit.noise_var * np.eye(n)
    model_cov = dense_covariance(fit)
    assert np.linalg.norm(model_cov - expected) <= 1e-9 * np.linalg.norm(expected)
    # a rank beyond the m rows pads W with zero columns and keeps no noise
    wide = ppca(data, 20)
    assert wide.cov_factor.shape == (n, 20)
    assert not wide.cov_factor[:, m:].any() and wide.noise_var == 0.0
    assert (np.linalg.norm(dense_covariance(wide) - sample_cov)
            <= 1e-12 * np.linalg.norm(sample_cov))


def test_ppca_rejects_full_rank_request():
    with pytest.raises(DataError):
        ppca(np.zeros((10, 3)), 3)


# ---------------------------------------------------------------------------
# select_rank

def rank5_data(rng, m=3000, n=30, noise=0.3):
    latent = rng.normal(size=(m, 5))
    mixing = rng.normal(size=(n, 5)) * 2.0
    return latent @ mixing.T + noise * rng.normal(size=(m, n))


def test_select_rank_recovers_generating_rank():
    rng = np.random.default_rng(10)
    data = rank5_data(rng)
    rank, curve = select_rank(data, range(1, 12), seed=0)
    assert abs(rank - 5) <= 1
    assert len(curve) == 11


def test_select_rank_singleton_grid():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(200, 6))
    rank, _ = select_rank(data, [3], seed=0)
    assert rank == 3


def test_select_rank_curve_rises_then_falls():
    rng = np.random.default_rng(12)
    data = rank5_data(rng)
    _, curve = select_rank(data, range(1, 12), seed=0)
    lls = [ll for _, ll in curve]
    peak = int(np.argmax(lls))
    # unimodal shape up to noise: increases into the peak, decreases well after
    assert all(np.diff(lls[:peak + 1]) > 0)
    assert lls[-1] < lls[peak]


@pytest.mark.parametrize("deficient", [False, True],
                         ids=["rank_5", "rank_deficient"])
def test_select_rank_matches_per_rank_oracle(deficient, monkeypatch):
    rng = np.random.default_rng(32)
    if deficient:  # rank 3 in 12 coordinates: ranks >= 3 leave sigma^2 ~ 0
        data, grid = rng.normal(size=(60, 3)) @ rng.normal(size=(3, 12)), [1, 2, 3, 6]
    else:
        data, grid = rank5_data(rng, m=400), list(range(1, 12))
    attempts, noise_vars = [], []
    factor = np.linalg.cholesky
    log_density = mixture._spectral_log_density

    def counting_cholesky(*args, **kwargs):
        attempts.append(1)
        return factor(*args, **kwargs)

    def recording_log_density(proj, resid_sq, eigvals, noise_var, n):
        noise_vars.append(noise_var)
        return log_density(proj, resid_sq, eigvals, noise_var, n)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(mixture, "_spectral_log_density", recording_log_density)
    selected, selected_curve = select_rank(data, grid, seed=4)
    rank, curve = select_rank_per_rank(data, grid, seed=4)
    assert selected == rank
    assert [k for k, _ in selected_curve] == grid
    assert np.allclose([ll for _, ll in selected_curve], [ll for _, ll in curve],
                       rtol=1e-6 if deficient else 1e-9, atol=0.0)
    assert attempts == []  # scored in the eigenbasis, no Cholesky
    # sigma^2 is floored at 1e-10 trace / n of the training sample covariance
    perm = np.random.default_rng(4).permutation(len(data))
    train = data[perm[round(0.2 * len(data)):]]
    centered = train - train.mean(axis=0)
    floor = 1e-10 * np.sum(centered ** 2) / len(train) / data.shape[1]
    floored = [k for k, noise in zip(grid, noise_vars)
               if noise == pytest.approx(floor, rel=1e-9)]
    assert floored == ([3, 6] if deficient else [])
    assert min(noise_vars) >= floor * (1 - 1e-9)


def test_select_rank_decomposes_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    data = rank5_data(np.random.default_rng(33), m=300)
    select_rank(data, range(1, 12), seed=0)
    assert calls == [(30, 30)]


def test_select_rank_degenerate_split():
    # two rows leave no held-out row at the 80/20 split
    with pytest.raises(DataError):
        select_rank(np.zeros((2, 3)), [1])
    # four rows hold out one and leave three to train, too few for rank 3
    with pytest.raises(DataError):
        select_rank(np.zeros((4, 5)), [3])


# ---------------------------------------------------------------------------
# condition

def test_condition_block_diagonal_independence():
    cov = np.zeros((4, 4))
    cov[:2, :2] = [[2.0, 0.5], [0.5, 1.0]]
    cov[2:, 2:] = [[1.5, -0.2], [-0.2, 0.8]]
    model = MixtureModel(components=[single_gaussian([1.0, 2.0, 3.0, 4.0], cov)])
    conditioned = ConditionalMixture(model, [0, 1])([10.0, -10.0])
    comp = conditioned.components[0]
    assert np.allclose(comp.mean, [3.0, 4.0], atol=1e-9)
    assert np.allclose(dense_covariance(comp), cov[2:, 2:], atol=1e-9)


def test_condition_bivariate_normal():
    rho = 0.8
    model = MixtureModel(components=[
        single_gaussian([0.0, 0.0], [[1.0, rho], [rho, 1.0]])])
    conditioned = ConditionalMixture(model, [0])([1.0])
    comp = conditioned.components[0]
    assert comp.mean[0] == pytest.approx(rho, abs=1e-9)
    assert dense_covariance(comp)[0, 0] == pytest.approx(1.0 - rho ** 2, abs=1e-9)


def test_condition_weights_sum_to_one_and_means_match_mc_oracle():
    rng = np.random.default_rng(13)
    cov0 = random_psd(rng, 4) + 0.5 * np.eye(4)
    cov1 = random_psd(rng, 4) + 0.5 * np.eye(4)
    model = two_component_model([0.0, 0.0, 0.0, 0.0], cov0,
                                [2.0, -1.0, 1.0, 0.5], cov1, w0=0.4)
    observed_idx = [0, 2]
    observed_vals = [0.8, -0.3]
    conditioned = ConditionalMixture(model, observed_idx)(observed_vals)
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
        ConditionalMixture(model, [])
    with pytest.raises(ValueError):
        ConditionalMixture(model, [0, 0])
    with pytest.raises(ValueError):
        ConditionalMixture(model, [0, 1])  # nothing left to sample
    with pytest.raises(ValueError):
        ConditionalMixture(model, [5])


def paper_final_approach_model(seed):
    """Final-approach shape at paper size: n = 3 * 150 + 2, K = 3, PPCA rank 16."""
    rng = np.random.default_rng(seed)
    n = 452
    base = rng.normal(scale=50.0, size=n)
    return base, MixtureModel(components=[
        GaussianComponent(weight=w, mean=base + rng.normal(scale=5.0, size=n),
                          cov_factor=rng.normal(scale=10.0, size=(n, 16)),
                          noise_var=4.0)
        for w in (0.5, 0.3, 0.2)])


@pytest.mark.parametrize("n_overlap", [1, 10])
def test_conditional_mixture_matches_dense_conditioning_bitwise(n_overlap):
    # the factored conditional agrees with the dense one to rounding
    base, model = paper_final_approach_model(n_overlap)
    rng = np.random.default_rng(100 + n_overlap)
    n = model.dimension
    idx = np.arange(2, 2 + 3 * n_overlap)
    sampler = ConditionalMixture(model, idx)
    for _ in range(3):
        vals = base[idx] + rng.normal(scale=10.0, size=idx.size)
        weights, means, factors = condition_dense(model, idx, vals)
        conditioned = sampler(vals)
        assert conditioned.dimension == n - idx.size
        assert np.allclose(conditioned.weights, weights, rtol=0.0, atol=1e-12)
        for comp, model_comp, mean, factor in zip(
                conditioned.components, model.components, means, factors):
            assert (np.linalg.norm(comp.mean - mean)
                    <= 1e-10 * np.linalg.norm(mean))
            dense = factor @ factor.T
            assert (np.linalg.norm(dense_covariance(comp) - dense)
                    <= 1e-10 * np.linalg.norm(dense))
            assert comp.noise_var == model_comp.noise_var
            assert comp.cov_factor.shape == (n - idx.size, 16)


def test_conditional_mixture_draws_match_dense_moments():
    base, model = paper_final_approach_model(7)
    idx = np.arange(2, 5)
    vals = base[idx] + 5.0
    weights, means, factors = condition_dense(model, idx, vals)
    mean = sum(w * m for w, m in zip(weights, means))
    cov = sum(w * (f @ f.T + np.outer(m - mean, m - mean))
              for w, m, f in zip(weights, means, factors))
    size = 100_000
    draws, _ = sample(ConditionalMixture(model, idx)(vals), size,
                      np.random.default_rng(8))
    sd = np.sqrt(np.diag(cov))
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= 3.0 * sd / np.sqrt(size))
    # SE of a sample covariance entry under normality: sqrt((c_ij^2 + c_ii c_jj) / N)
    cols = np.arange(0, model.dimension - idx.size, 37)
    sub = cov[np.ix_(cols, cols)]
    sample_cov = np.cov(draws[:, cols], rowvar=False)
    se = np.sqrt((sub ** 2 + np.outer(np.diag(sub), np.diag(sub))) / size)
    assert np.all(np.abs(sample_cov - sub) <= 5.0 * se)


def test_conditional_mixture_forms_no_dense_matrix():
    base, model = paper_final_approach_model(9)
    n = model.dimension
    idx = np.arange(2, 5)

    def build_and_call():
        return ConditionalMixture(model, idx)(base[idx])

    peak, _ = peak_traced_bytes(build_and_call)
    assert peak < n * n * 8


def test_conditional_mixture_warns_when_noise_is_floored(caplog):
    rng = np.random.default_rng(10)
    factor = rng.normal(size=(6, 2))
    model = MixtureModel(components=[
        GaussianComponent(weight=0.5, mean=np.zeros(6), cov_factor=factor,
                          noise_var=1.0),
        GaussianComponent(weight=0.5, mean=np.ones(6), cov_factor=factor,
                          noise_var=0.0)])
    with caplog.at_level(logging.WARNING, logger="trafgen.mixture"):
        sampler = ConditionalMixture(model, [0, 1, 2])
    floored = [r for r in caplog.records if "floor" in r.getMessage()]
    assert len(floored) == 1 and "[1]" in floored[0].getMessage()
    conditioned = sampler([0.5, 0.5, 0.5])
    # the free block keeps each component's own noise
    assert [c.noise_var for c in conditioned.components] == [1.0, 0.0]
    assert np.all(np.isfinite(conditioned.weights))

    caplog.clear()
    unfloored = MixtureModel(components=[
        GaussianComponent(weight=1.0, mean=np.zeros(6), cov_factor=factor,
                          noise_var=1.0)])
    with caplog.at_level(logging.WARNING, logger="trafgen.mixture"):
        ConditionalMixture(unfloored, [0, 1, 2])
    assert caplog.records == []


def test_conditional_mixture_raises_when_no_component_explains_the_observation():
    """Zero factor rows and zero noise on the observed block give x_a off
    the means zero density under every component: a NumericalError, not
    the prior weights."""
    rng = np.random.default_rng(12)
    factor = rng.normal(size=(5, 2))
    factor[:3] = 0.0
    model = MixtureModel(components=[
        GaussianComponent(weight=0.4, mean=np.zeros(5), cov_factor=factor),
        GaussianComponent(weight=0.6, mean=np.ones(5), cov_factor=factor)])
    sampler = ConditionalMixture(model, [0, 1, 2])
    with pytest.raises(NumericalError, match="conditioning weights are not finite"):
        sampler([0.5, 0.5, 0.5])


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
        (draw,), (idx,) = sample(model, 1, seed)
        assert np.array_equal(draw, mean)
        assert idx == 0


def test_sample_standard_normal_moments():
    model = MixtureModel(components=[single_gaussian([0.0], [[1.0]])])
    draws, _ = sample(model, 100_000, np.random.default_rng(21))
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.03


def test_sample_component_frequencies_match_weights():
    weights = np.array([0.2, 0.5, 0.3])
    comps = [single_gaussian([float(i)], [[0.1]], weight=w)
             for i, w in enumerate(weights)]
    model = MixtureModel(components=comps)
    n = 100_000
    _, indices = sample(model, n, np.random.default_rng(22))
    freqs = np.bincount(indices, minlength=3) / n
    sigma = np.sqrt(weights * (1 - weights) / n)
    assert np.all(np.abs(freqs - weights) <= 3.0 * sigma)


def test_sample_noise_var_contributes():
    comp = GaussianComponent(weight=1.0, mean=np.zeros(2),
                             cov_factor=np.zeros((2, 0)), noise_var=4.0)
    model = MixtureModel(components=[comp])
    draws, _ = sample(model, 50_000, np.random.default_rng(23))
    assert np.allclose(draws.var(axis=0), 4.0, atol=0.15)


# ---------------------------------------------------------------------------
# compression and serialization

def test_compress_model_keeps_top_eigenvalues():
    rng = np.random.default_rng(14)
    cov = random_psd(rng, 6) + 0.1 * np.eye(6)
    comp = compress_one(cov, 2)
    orig_eigs = np.sort(np.linalg.eigvalsh(cov))
    new_eigs = np.sort(np.linalg.eigvalsh(dense_covariance(comp)))
    assert np.allclose(new_eigs[-2:], orig_eigs[-2:], atol=1e-9)
    assert comp.noise_var == pytest.approx(np.mean(orig_eigs[:-2]), abs=1e-9)
    assert comp.cov_factor.shape == (6, 2)


def test_model_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    model = two_component_model([0.0, 1.0], random_psd(rng, 2) + np.eye(2),
                                [5.0, -2.0], random_psd(rng, 2) + np.eye(2),
                                w0=0.3)
    path = tmp_path / "model.json"
    save_model(model, path, "final_approach")
    again = load_model(path, "final_approach")
    assert json.loads(path.read_text(encoding="utf-8"))["segment_kind"] == \
        "final_approach"
    for c1, c2 in zip(model.components, again.components):
        assert c1.weight == c2.weight
        assert np.array_equal(c1.mean, c2.mean)
        assert np.array_equal(c1.cov_factor, c2.cov_factor)


@pytest.mark.parametrize("rank", [0, 16])
@pytest.mark.parametrize("n_components", [1, 2, 3])
def test_model_file_is_the_whole_document_dumps(tmp_path, n_components, rank):
    rng = np.random.default_rng(10 * n_components + rank)
    n = 24
    edge = [-0.0, 5e-324, 1e308, 2.0, -7.0]
    components = []
    # the weights are np.float64, every noise_var an integral float
    for i, weight in enumerate(rng.dirichlet(np.ones(n_components))):
        mean = rng.normal(size=n)
        mean[:len(edge)] = edge
        factor = rng.normal(size=(n, rank))
        factor[:len(edge)] = np.array(edge)[:, None]
        components.append(GaussianComponent(weight, mean, factor,
                                            noise_var=float(i) + 0.25 * rank))
    model = MixtureModel(components=components)
    path = tmp_path / "model.json"
    save_model(model, path, "radar_vector")
    assert path.read_bytes() == json.dumps(model_to_dict(model, "radar_vector"),
                                           sort_keys=True).encode()


def test_non_finite_model_value_fails_the_write(tmp_path):
    path = tmp_path / "model_rv.json"
    model = MixtureModel(components=[single_gaussian([0.0, 1.0], np.eye(2))])
    save_model(model, path, "radar_vector")
    saved = path.read_bytes()
    model.components[0].noise_var = np.inf
    with pytest.raises(NumericalError, match=f"{path}: cannot write the model"):
        save_model(model, path, "radar_vector")
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == ["model_rv.json"]


def test_model_writer_holds_one_array_at_a_time(tmp_path):
    # a paper-size radar-vector model: K = 2, n = 3*350 + 2, rank 16
    rng = np.random.default_rng(16)
    n, rank = 1052, 16
    model = MixtureModel(components=[GaussianComponent(
        0.5, rng.normal(size=n), rng.normal(size=(n, rank)), 0.1)
        for _ in range(2)])
    whole, text = peak_traced_bytes(
        lambda: json.dumps(model_to_dict(model, "radar_vector"), sort_keys=True))
    path = tmp_path / "model.json"
    chunked, _ = peak_traced_bytes(lambda: save_model(model, path, "radar_vector"))
    assert path.read_text(encoding="utf-8") == text
    assert chunked < 0.6 * whole, (chunked, whole)


def test_model_format_tag_checked(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": "other/9", "components": []}', encoding="utf-8")
    with pytest.raises(DataError, match="unsupported format 'other/9'"):
        load_model(path, "radar_vector")


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
        eigs = np.linalg.eigvalsh(dense_covariance(comp))
        assert eigs.min() >= -1e-9 * max(eigs.max(), 1.0)
