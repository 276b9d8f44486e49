"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The end-to-end criteria drive the real CLI commands on a synthetic
ground-truth corpus.
"""

import time

import numpy as np
import pytest

from trafgen import metrics
from trafgen.cli import run as cli_run
from trafgen.metrics import (extract_variables, histogram_pair, js_divergence,
                             loss_of_separation_count, silhouette_scores,
                             silhouette_sweep)
from trafgen.mixture import (ConditionalMixture, GaussianComponent,
                             MixtureModel, compress_model, em_fit, sample,
                             select_rank)
from trafgen.multi_model import (SceneParams, _block, _delta_index,
                                 assemble_scene_params, extract_pairs,
                                 generate_scene, train_pairwise)
from trafgen.preprocess import build_deviation_vector, dtw_distances
from trafgen.units import FT_TO_M, NM_TO_M

import corpus
from conftest import one_deviation, ppca, rebuild_one
from oracles import dense_covariance, dtw_brute_force, mc_conditional_moments, \
    psd_factor, scene_covariance, silhouette_brute_force


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. DTW oracle equivalence

def test_criterion_01_dtw_matches_exhaustive_enumeration():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(1000):
        m, n = rng.integers(1, 7, size=2)
        dims = int(rng.integers(1, 4))
        a = rng.normal(scale=rng.uniform(0.5, 20.0), size=(m, dims))
        b = rng.normal(scale=rng.uniform(0.5, 20.0), size=(n, dims))
        assert dtw_distances(a[None], b[None])[0, 0] == pytest.approx(
            dtw_brute_force(a, b), rel=1e-12, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"dtw equals exhaustive enumeration on 1000 pairs "
              f"({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 2. Conditional-Gaussian correctness (Eq. 9 analog)

def random_mixture(rng, n_components, dim):
    comps = []
    weights = rng.dirichlet(np.ones(n_components) * 4.0)
    for j in range(n_components):
        mean = rng.normal(scale=2.0, size=dim)
        root = rng.normal(size=(dim, dim))
        cov = root @ root.T / dim + 0.3 * np.eye(dim)
        eigvals, eigvecs = np.linalg.eigh(cov)
        comps.append(GaussianComponent(
            weight=float(weights[j]), mean=mean,
            cov_factor=eigvecs * np.sqrt(eigvals)))
    return MixtureModel(components=comps)


def test_criterion_02_conditional_matches_monte_carlo():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    checked = 0
    for case in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(3, 7))
        model = random_mixture(rng, k, n)
        n_obs = int(rng.integers(1, n - 1))
        observed_idx = np.sort(rng.choice(n, size=n_obs, replace=False))
        anchor, _ = sample(model, 1, rng)
        observed_vals = anchor[0, observed_idx]

        conditioned = ConditionalMixture(model, observed_idx)(observed_vals)
        analytic_w = np.array([c.weight for c in conditioned.components])
        analytic_mean = sum(c.weight * c.mean for c in conditioned.components)

        mc_w, w_se, mc_mean, mean_se = mc_conditional_moments(
            model, observed_idx, observed_vals, 1_000_000,
            np.random.default_rng(1000 + case))
        scale = np.std(sample(model, 2000,
                              np.random.default_rng(2))[0], axis=0)
        b_scale = np.delete(scale, observed_idx)
        assert np.all(np.abs(analytic_w - mc_w) <= 3.0 * w_se + 0.015)
        assert np.all(np.abs(analytic_mean - mc_mean)
                      <= 3.0 * mean_se + 0.02 * b_scale)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(2, f"conditional weights/means match the Monte-Carlo oracle on "
              f"{checked} mixtures ({elapsed:.0f} s)")


# ---------------------------------------------------------------------------
# 3. EM monotonicity and recovery

def test_criterion_03_em_monotone_and_recovers_means():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    mu_a = np.zeros(3)
    mu_b = np.full(3, 6.0)  # 6 sigma apart at unit variance
    data = np.vstack([rng.normal(size=(1000, 3)) + mu_a,
                      rng.normal(size=(1000, 3)) + mu_b])
    fit = em_fit(data, 2, seed=42)
    assert np.all(np.diff(fit.log_likelihoods) >= -1e-9)
    means = np.stack([c.mean for c in fit.model.components])
    order = np.argsort(means[:, 0])
    assert np.linalg.norm(means[order[0]] - mu_a) < 0.1
    assert np.linalg.norm(means[order[1]] - mu_b) < 0.1
    # a handful of further fits, all monotone
    for seed in range(5):
        small = rng.normal(size=(200, 4)) + rng.integers(0, 3) * 1.5
        other = em_fit(small, 3, seed=seed)
        assert np.all(np.diff(other.log_likelihoods) >= -1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, f"EM log-likelihood monotone on every fit; 6-sigma means "
              f"recovered within 0.1 ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 4. PPCA closed form and Eckart-Young

def test_criterion_04_ppca_closed_form_and_eckart_young():
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(3, 21))
        m = n + int(rng.integers(10, 200))
        data = rng.normal(size=(m, n)) @ rng.normal(size=(n, n))
        rank = int(rng.integers(1, n))
        fit = ppca(data, rank)  # compress_model of the sample covariance
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / m
        lam = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert fit.noise_var == pytest.approx(float(np.mean(lam[rank:])),
                                              abs=1e-9)
        # W W^T + sigma^2 I keeps the top-k eigenvalues of C and replaces
        # the rest by sigma^2: the Eckart-Young truncation plus the noise
        frob = np.linalg.norm(dense_covariance(fit) - cov)
        assert frob == pytest.approx(
            np.sqrt(np.sum((lam[rank:] - fit.noise_var) ** 2)), abs=1e-9)
    report(4, "sigma^2 equals the mean discarded eigenvalue and the rank-k "
              "error ||W W^T + sigma^2 I - C|| matches the discarded spectrum "
              "on 50 random matrices")


# ---------------------------------------------------------------------------
# 5. Rank-selection shape

def test_criterion_05_rank_selection_recovers_rank_five():
    start = time.monotonic()
    rng = np.random.default_rng(505)
    latent = rng.normal(size=(3000, 5))
    mixing = rng.normal(size=(30, 5)) * 2.0
    data = latent @ mixing.T + 0.3 * rng.normal(size=(3000, 30))
    rank, curve = select_rank(data, range(1, 13), seed=7)
    assert abs(rank - 5) <= 1
    lls = np.array([ll for _, ll in curve])
    peak = int(np.argmax(lls))
    assert np.all(np.diff(lls[:peak + 1]) > 0)   # rises into the peak
    assert lls[-1] < lls[peak]                   # falls away after it
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(5, f"held-out curve unimodal, selected rank {rank} "
              f"(true 5) ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 6. Silhouette sweep and brute-force equality

def test_criterion_06_silhouette_sweep_and_brute_force():
    rng = np.random.default_rng(606)
    for k_true in (2, 6):
        offsets = rng.normal(scale=40.0, size=(k_true, 4))
        data = np.vstack([rng.normal(size=(150, 4)) + off for off in offsets])
        n_components, _ = silhouette_sweep(data, list(range(2, 9)), seed=3)
        assert n_components == k_true
    for seed in range(3):
        r = np.random.default_rng(seed)
        data = r.normal(size=(500, 3))
        labels = r.integers(0, 4, size=500)
        assert silhouette_scores(data, [labels])[0] == pytest.approx(
            silhouette_brute_force(data, labels), abs=1e-10)
    report(6, "sweep recovers K in {2, 6}; silhouette equals O(m^2) brute "
              "force at m = 500")


# ---------------------------------------------------------------------------
# 7. Deviation-vector round trip

def test_criterion_07_round_trip_exactness():
    rng = np.random.default_rng(707)
    for _ in range(1000):
        t_len = int(rng.integers(3, 12))
        base = rng.normal(scale=5000.0, size=(t_len, 3)).cumsum(axis=0)
        times = np.sort(rng.uniform(0.0, 900.0, size=t_len))
        times[0] = 0.0
        times += np.arange(t_len) * 1e-3
        points = base + rng.normal(scale=400.0, size=(t_len, 3))
        tau = one_deviation(times, points, base)
        _, rec_points = rebuild_one(tau, base)
        # d' = tau_2: times against a procedure as long as the flight, the
        # flight's own polyline; the points do not depend on d'
        rec_times, _ = rebuild_one(tau, points)
        assert np.allclose(rec_points, points, atol=1e-9, rtol=0.0)
        assert rec_times[-1] == pytest.approx(tau[0], abs=1e-9)
        # explicit rescaling check against the formula, d' = 2.5 tau_2
        scaled_times, _ = rebuild_one(tau, 2.5 * points)
        expected = tau[0] / tau[1] * (2.5 * tau[1])
        assert scaled_times[-1] == pytest.approx(expected, abs=1e-9)
    report(7, "build/reconstruct is an exact inverse at d' = tau_2 for 1000 "
              "random trajectories; transit rescaling matches the formula")


# ---------------------------------------------------------------------------
# 8 + 11. End-to-end pipeline fidelity and CLI determinism

PIPELINE_OUTPUTS = (
    "rv_dataset.npy", "fa_dataset.npy", "rv_dataset.meta.json",
    "fa_dataset.meta.json", "ingest_report.json", "selection_report.json",
    "model_rv.json", "model_fa.json", "train_log.json",
    "model_pairwise.json", "trajectories.csv", "trajectories.meta.json",
    "scenes.csv", "scenes.meta.json",
)

PIPELINE_COMMANDS = (
    ["ingest"], ["select"], ["train"], ["train-pairwise"],
    ["generate", "--count", "1000"],
    ["generate-scenes", "--count", "5", "--aircraft", "2"],
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    config_path = corpus.write_corpus(base, n_flights=2000, seed=1)
    start = time.monotonic()
    for args in PIPELINE_COMMANDS:
        assert cli_run(["--config", str(config_path), *args]) == 0, args
    elapsed = time.monotonic() - start
    return base, config_path, elapsed


def test_criterion_08_end_to_end_distributional_fidelity(pipeline):
    base, config_path, pipeline_elapsed = pipeline
    holdout = corpus.generate_actual(1000, seed=77)
    actual_scenes = [[(times, points)] for _, times, points, _ in holdout]
    from trafgen.cli import read_trajectory_file
    synthetic_scenes = read_trajectory_file(base / "out" / "trajectories.csv")
    assert len(synthetic_scenes) == 1000

    vars_actual = extract_variables(actual_scenes)
    vars_synth = extract_variables(synthetic_scenes)
    divergences = {}
    for name in ("x_east", "y_north", "horizontal_speed"):
        a = vars_actual[name]
        s = vars_synth[name]
        ha, hs = histogram_pair(a, s)
        divergences[name] = js_divergence(ha, hs)
        assert divergences[name] <= 0.05, (name, divergences[name])
    assert pipeline_elapsed < 600.0
    pretty = ", ".join(f"{k}={v:.4f}" for k, v in divergences.items())
    report(8, f"pipeline JS divergences {pretty} all <= 0.05 "
              f"(pipeline {pipeline_elapsed:.0f} s)")


def test_criterion_11_cli_determinism(pipeline):
    base, config_path, _ = pipeline
    out = base / "out"
    before = {name: (out / name).read_bytes() for name in PIPELINE_OUTPUTS}
    for args in PIPELINE_COMMANDS:
        assert cli_run(["--config", str(config_path), *args]) == 0, args
    for name, blob in before.items():
        assert (out / name).read_bytes() == blob, name
    report(11, f"all {len(PIPELINE_COMMANDS)} commands rerun byte-identical "
               f"across {len(PIPELINE_OUTPUTS)} output files")


# ---------------------------------------------------------------------------
# 9. Multi-aircraft assembly

def consistent_pairwise_model(t_len=3, seed=0, weights=(1.0,)):
    d = 3 * t_len + 2
    comps = []
    rng = np.random.default_rng(seed)
    for w in weights:
        mean = np.concatenate([
            np.concatenate([[300.0, 9000.0], np.zeros(3 * t_len)]),
            [120.0],
            np.concatenate([[310.0, 9000.0], np.zeros(3 * t_len)]),
        ])
        block = rng.normal(scale=2.0, size=(d, 3))
        factor = np.zeros((2 * d + 1, 4))
        factor[:d, :3] = block
        factor[d + 1:, :3] = block
        factor[d, 3] = 4.0
        comps.append(GaussianComponent(weight=float(w), mean=mean,
                                       cov_factor=factor, noise_var=1.0))
    return MixtureModel(components=comps), d


def test_criterion_09_assembly_psd_marginals_and_selection():
    # (a) PSD with bounded diagonal-block drift
    model, d = consistent_pairwise_model(seed=11, weights=(0.5, 0.5))
    models = {("P", "P"): model}
    for seed in range(3):
        params = assemble_scene_params(models, ["P", "P", "P"], rng=seed)
        eigs = np.linalg.eigvalsh(scene_covariance(params))
        assert eigs.min() >= -1e-9 * max(eigs.max(), 1.0)
        assert all(drift <= 0.05 for drift in params.block_drift)

    # (b) K=1 scene marginals reproduce pairwise moments over 1e4 scenes
    k1_model, d = consistent_pairwise_model(seed=12, weights=(1.0,))
    models = {("P", "P"): k1_model}
    params = assemble_scene_params(models, ["P", "P"], rng=0)
    u = np.linspace(0.0, 1.0, 3)
    proc_points = np.column_stack([-9000.0 * (1.0 - u), np.zeros(3), np.zeros(3)])
    rng = np.random.default_rng(99)
    n_scenes = 10_000
    draws = np.empty((n_scenes, 2 * d + 1))
    for i in range(n_scenes):
        trajectories, deltas = generate_scene(params, np.stack([proc_points] * 2), rng)
        (tau1, tau2), rejected = build_deviation_vector(
            *map(np.stack, zip(*trajectories)), proc_points)
        assert rejected == {}
        draws[i] = np.concatenate([tau1, deltas, tau2])
    comp = k1_model.components[0]
    variances = np.diag(dense_covariance(comp))
    se = np.sqrt(variances / n_scenes)
    mean_err = np.abs(draws.mean(axis=0) - comp.mean)
    # transit times are rescaled by sampled tau_2/d', a ~0.3% effect;
    # compare the delta and deviation coordinates strictly
    check = np.ones(2 * d + 1, dtype=bool)
    for idx in (0, 1, d + 1, d + 2):
        check[idx] = False
    assert np.all(mean_err[check] <= 3.0 * se[check] + 1e-9)
    assert mean_err[d] <= 3.0 * se[d]  # the inter-arrival time slot

    # (c) component selection matches brute force on 2-component fixtures
    two, d2 = consistent_pairwise_model(seed=13, weights=(0.6, 0.4))
    models = {("P", "P"): two}
    params = assemble_scene_params(models, ["P", "P", "P"], rng=5)
    covs = [dense_covariance(c) for c in two.components]
    a_blk, b_blk = slice(0, d2), slice(d2 + 1, 2 * d2 + 1)
    j0 = params.provenance["pair_0_1"]
    d_adj = [np.linalg.norm(c[a_blk, a_blk] - covs[j0][b_blk, b_blk])
             for c in covs]
    assert params.provenance["pair_1_2"] == int(np.argmin(d_adj))
    j1 = params.provenance["pair_1_2"]
    d_cross = [np.linalg.norm(c[a_blk, a_blk] - covs[j0][a_blk, a_blk])
               + np.linalg.norm(c[b_blk, b_blk] - covs[j1][b_blk, b_blk])
               for c in covs]
    assert params.provenance["cross_0_2"] == int(np.argmin(d_cross))
    report(9, "assembled covariance PSD (drift <= 5%), K=1 scene marginals "
              "match pairwise moments over 10^4 scenes, selection matches "
              "brute force")


# ---------------------------------------------------------------------------
# 10. Separation semantics and the pairwise-vs-independent comparison

def parallel_pair_scene(horizontal_nm, vertical_ft, n=12):
    times = np.arange(n) * 10.0
    a = (times, np.column_stack([80.0 * times, np.zeros(n), np.zeros(n)]))
    b = (times, np.column_stack([80.0 * times,
                                 np.full(n, horizontal_nm * NM_TO_M),
                                 np.full(n, vertical_ft * FT_TO_M)]))
    return [a, b]


def test_criterion_10_separation_semantics_and_model_comparison(monkeypatch):
    assert loss_of_separation_count([parallel_pair_scene(2.9, 1500.0)])[0] == 0
    assert loss_of_separation_count([parallel_pair_scene(2.9, 500.0)])[0] == 1
    assert loss_of_separation_count([parallel_pair_scene(3.5, 500.0)])[0] == 0

    # monotone in both minima on single-dip geometry, where runs of
    # violating samples cannot merge
    rng = np.random.default_rng(1001)
    dip_scenes = []
    for _ in range(20):
        n = 30
        times = np.arange(n) * 10.0
        gap = np.abs(np.linspace(-8000.0, 8000.0, n)) + rng.uniform(0, 2000)
        a = (times, np.column_stack([np.zeros(n), np.zeros(n), np.zeros(n)]))
        b = (times, np.column_stack([np.zeros(n), gap,
                                     np.full(n, rng.uniform(0, 250.0))]))
        dip_scenes.append([a, b])

    def count_under(horizontal_min_nm, vertical_min_ft):
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "HORIZONTAL_MIN_NM", horizontal_min_nm)
            patch.setattr(metrics, "VERTICAL_MIN_FT", vertical_min_ft)
            return loss_of_separation_count(dip_scenes)[0]

    base_count = count_under(3.0, 1000.0)
    for stricter in ((4.0, 1000.0), (3.0, 2000.0), (4.5, 2500.0)):
        assert count_under(*stricter) >= base_count

    # correlated pairwise model vs independent single-trajectory baseline
    taus, names, times, proc_points = corpus.make_intrail_records(
        400, rho=0.95, seed=2024)
    groups = extract_pairs(taus, names, times, window=180.0)
    pairwise_models = train_pairwise(groups, 1, rank=8, seed=0)
    assert ("INTRAIL", "INTRAIL") in pairwise_models

    n_scenes, n_aircraft = 300, 3
    rng = np.random.default_rng(31)
    multi_scenes = []
    for _ in range(n_scenes):
        params = assemble_scene_params(pairwise_models,
                                       ["INTRAIL"] * n_aircraft, rng)
        trajectories, _ = generate_scene(
            params, np.stack([proc_points] * n_aircraft), rng)
        multi_scenes.append(trajectories)

    # independent baseline: single-trajectory mixture, deltas from the
    # pairwise delta marginal, no cross-aircraft covariance
    single_fit = em_fit(taus, 1, seed=0)
    single_model = compress_model(single_fit.model, 8)
    pair_comp = pairwise_models[("INTRAIL", "INTRAIL")].components[0]
    d = taus.shape[1]
    delta_mean = pair_comp.mean[d]
    delta_var = dense_covariance(pair_comp)[d, d]
    dim = n_aircraft * d + n_aircraft - 1
    mean = np.zeros(dim)
    cov = np.zeros((dim, dim))
    comp = single_model.components[0]
    for i in range(n_aircraft):
        blk = _block(i, d)
        mean[blk] = comp.mean
        cov[blk, blk] = dense_covariance(comp)
    for i in range(n_aircraft - 1):
        q = _delta_index(i, d)
        mean[q] = delta_mean
        cov[q, q] = delta_var
    # the same distribution in factored form: identity bases, no noise
    independent_params = SceneParams(
        mean=mean, bases=[np.eye(d), np.eye(1)] * (n_aircraft - 1) + [np.eye(d)],
        factor=psd_factor(cov), noise=[0.0] * (2 * n_aircraft - 1),
        procedure_sequence=["INTRAIL"] * n_aircraft, provenance={})
    rng = np.random.default_rng(32)
    single_scenes = []
    for _ in range(n_scenes):
        trajectories, _ = generate_scene(independent_params,
                                         np.stack([proc_points] * n_aircraft), rng)
        single_scenes.append(trajectories)

    multi_los, _ = loss_of_separation_count(multi_scenes)
    single_los, _ = loss_of_separation_count(single_scenes)
    assert multi_los <= single_los
    report(10, f"rule fixtures and monotonicity hold; correlated pairwise "
               f"scenes yield {multi_los} LoS events vs {single_los} for "
               f"independent generation")
