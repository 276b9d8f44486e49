"""Pairwise extraction/training and multi-aircraft scene assembly."""

import logging

import numpy as np
import pytest

from trafgen import mixture, multi_model
from trafgen.errors import DataError, NumericalError
from trafgen.mixture import GaussianComponent, MixtureModel
from trafgen.multi_model import (SceneParams, assemble_scene_params,
                                 extract_pairs, generate_scene, train_pairwise,
                                 _block, _delta_index, _scene_parts)
from trafgen.preprocess import path_length

from conftest import peak_traced_bytes
from oracles import (assemble_scene_dense, dense_covariance,
                     extract_pairs_sorted, repair_psd_dense, scene_covariance)

T_SEG = 3
D = 3 * T_SEG + 2  # per-aircraft deviation dimension
PAIR_DIM = 2 * D + 1


def arrivals(times, procs=None, seed=0):
    """Deviation rows, procedure names and arrival times of a few arrivals."""
    rng = np.random.default_rng(seed)
    taus = np.column_stack([
        np.full(len(times), 300.0), np.full(len(times), 9000.0),
        rng.normal(scale=50.0, size=(len(times), 3 * T_SEG))])
    return taus, procs or ["P"] * len(times), np.asarray(times, dtype=float)


# ---------------------------------------------------------------------------
# extract_pairs

def test_window_filters_pairs():
    groups = extract_pairs(*arrivals([0.0, 100.0, 400.0]), window=180.0)
    pairs = groups[("P", "P")]
    assert pairs.shape == (1, PAIR_DIM)
    assert pairs[0, D] == 100.0


def test_successive_pairs_share_the_middle_flight():
    taus, procs, times = arrivals([0.0, 100.0, 200.0])
    pairs = extract_pairs(taus, procs, times, window=180.0)[("P", "P")]
    assert pairs[:, D].tolist() == [100.0, 100.0]
    assert np.array_equal(pairs[0, D + 1:], pairs[1, :D])


def test_pair_count_matches_brute_force():
    rng = np.random.default_rng(1)
    times = np.sort(rng.uniform(0.0, 5000.0, size=50))
    procs = rng.choice(["P", "Q"], size=50).tolist()
    window = 180.0
    groups = extract_pairs(*arrivals(times, procs), window=window)
    total = sum(len(v) for v in groups.values())
    expected = sum(1 for i in range(49) if times[i + 1] - times[i] <= window)
    assert total == expected
    # grouping key is (first procedure, second procedure), first lands first
    for (p1, p2), pairs in groups.items():
        assert p1 in ("P", "Q") and p2 in ("P", "Q")
        assert np.all((0.0 <= pairs[:, D]) & (pairs[:, D] <= window))


def test_pairwise_sample_vector_layout():
    taus = np.stack([np.arange(D, dtype=float), np.arange(D, dtype=float) + 100.0])
    # given out of arrival order: the later arrival's row comes second
    pairs = extract_pairs(taus[::-1], ["P", "P"], [57.0, 50.0])[("P", "P")]
    assert pairs.shape == (1, PAIR_DIM)
    assert pairs[0, D] == 7.0
    assert np.array_equal(pairs[0, :D], taus[0])
    assert np.array_equal(pairs[0, D + 1:], taus[1])


@pytest.mark.parametrize("seed", range(5))
def test_extract_pairs_matches_sorted_record_oracle(seed):
    rng = np.random.default_rng(seed)
    n, window = 80, 180.0
    # whole-second gaps: many repeated arrival times, and the first gap is
    # exactly the window, so it is kept
    gaps = rng.choice([0.0, 60.0, 120.0, 240.0], size=n - 1)
    gaps[0] = window
    times = np.concatenate([[1000.0], 1000.0 + np.cumsum(gaps)])
    order = rng.permutation(n)
    taus, procs, times = arrivals(times[order],
                                  rng.choice(["P", "Q"], size=n).tolist(), seed)
    assert len(np.unique(times)) < n
    groups = extract_pairs(taus, procs, times, window=window)
    expected = extract_pairs_sorted(list(zip(procs, times.tolist(), taus)),
                                    window=window)
    assert list(groups) == list(expected)
    for key, pairs in expected.items():
        assert np.array_equal(groups[key], pairs), key
    assert np.any(np.concatenate([g[:, D] for g in groups.values()]) == window)


# ---------------------------------------------------------------------------
# train_pairwise

def correlated_pair_samples(n, rho, seed=0):
    """Pair rows whose transit times are correlated with coefficient rho."""
    rng = np.random.default_rng(seed)
    base = np.concatenate([[300.0, 9000.0], np.zeros(3 * T_SEG)])
    out = np.empty((n, PAIR_DIM))
    for row in out:
        a = rng.normal()
        b = rng.normal()
        tau1 = base + rng.normal(scale=5.0, size=D)
        tau2 = base + rng.normal(scale=5.0, size=D)
        tau1[0] = 300.0 + 30.0 * a
        tau2[0] = 300.0 + 30.0 * (rho * a + np.sqrt(1 - rho ** 2) * b)
        row[:] = np.concatenate([tau1, [rng.uniform(60, 160)], tau2])
    return out


def test_single_procedure_trains_one_combination():
    groups = {("P", "P"): correlated_pair_samples(60, 0.5)}
    models = train_pairwise(groups, 1, rank=4, seed=0)
    assert set(models) == {("P", "P")}
    assert models[("P", "P")].dimension == PAIR_DIM


def test_cross_correlation_recovered():
    rho = 0.6
    groups = {("P", "P"): correlated_pair_samples(3000, rho, seed=2)}
    models = train_pairwise(groups, 1, rank=6, seed=0)
    cov = dense_covariance(models[("P", "P")].components[0])
    i, j = 0, D + 1  # transit-time coordinates of the two aircraft
    fitted_rho = cov[i, j] / np.sqrt(cov[i, i] * cov[j, j])
    assert abs(fitted_rho - rho) < 0.1


def test_undersized_group_skipped_with_warning(caplog):
    groups = {
        ("P", "P"): correlated_pair_samples(60, 0.5),
        ("P", "Q"): correlated_pair_samples(3, 0.5, seed=3),
    }
    with caplog.at_level(logging.WARNING):
        models = train_pairwise(groups, 1, rank=4, seed=0)
    assert set(models) == {("P", "P")}
    assert any("skipping" in message for message in caplog.messages)


def test_train_pairwise_forms_no_n_by_n_matrix():
    # one pair group at paper size: 6 rows of 2 * (3 * 350 + 2) + 1 = 2105
    d = 1052
    n = 2 * d + 1
    rng = np.random.default_rng(38)
    data = 100.0 + rng.normal(size=(6, n))
    peak, models = peak_traced_bytes(
        lambda: train_pairwise({("P", "P"): data}, 1, rank=8, seed=0))
    # six rows give a factor six wide: rank 8 pads it with two zero columns
    factor = models[("P", "P")].components[0].cov_factor
    assert factor.shape == (n, 8)
    assert np.all(factor[:, 6:] == 0.0)
    assert peak < n * n * 8


# ---------------------------------------------------------------------------
# assemble_scene_params

def pair_component(weight, scale, cross=0.0, mean_shift=0.0, seed=0):
    """Pairwise component with controllable block structure."""
    rng = np.random.default_rng(seed)
    mean = np.concatenate([
        np.concatenate([[300.0 + mean_shift, 9000.0], np.zeros(3 * T_SEG)]),
        [120.0],
        np.concatenate([[320.0 + mean_shift, 9000.0], np.zeros(3 * T_SEG)]),
    ])
    factor = rng.normal(scale=scale, size=(PAIR_DIM, 3))
    if cross:
        factor[:, 0] = 0.0
        factor[0, 0] = cross
        factor[D + 1, 0] = cross
    return GaussianComponent(weight=weight, mean=mean, cov_factor=factor,
                             noise_var=1.0)


def consistent_pair_component(weight=1.0, scale=2.0, delta_coupling=3.0, seed=0):
    """Exchangeable pairwise component: both aircraft share the factor rows.

    Assemblies built from it stay PSD, so the repair step is a no-op and the
    placed blocks survive exactly.
    """
    rng = np.random.default_rng(seed)
    mean = np.concatenate([
        np.concatenate([[300.0, 9000.0], np.zeros(3 * T_SEG)]),
        [120.0],
        np.concatenate([[300.0, 9000.0], np.zeros(3 * T_SEG)]),
    ])
    block = rng.normal(scale=scale, size=(D, 3))
    factor = np.zeros((PAIR_DIM, 4))
    factor[:D, :3] = block
    factor[D + 1:, :3] = block
    factor[D, 3] = delta_coupling
    return GaussianComponent(weight=weight, mean=mean, cov_factor=factor,
                             noise_var=1.0)


def k1_models(scale=2.0, seed=0):
    comp = consistent_pair_component(scale=scale, seed=seed)
    return {("P", "P"): MixtureModel(components=[comp])}


def test_k1_assembly_blocks_equal_component_blocks():
    models = k1_models()
    comp_cov = dense_covariance(models[("P", "P")].components[0])
    comp_mean = models[("P", "P")].components[0].mean
    params = assemble_scene_params(models, ["P", "P", "P"], rng=0)
    cov = scene_covariance(params)
    a_blk = slice(0, D)
    b_blk = slice(D + 1, 2 * D + 1)
    assert params.mean.shape == (3 * D + 2,)
    # aircraft 1 keeps the step-1 values for mean and diagonal block
    assert np.allclose(params.mean[:2 * D + 1], comp_mean, atol=1e-9)
    assert np.allclose(params.mean[_block(2, D)], comp_mean[b_blk], atol=1e-9)
    assert np.allclose(cov[:D, :D], comp_cov[a_blk, a_blk], atol=1e-8)
    assert np.allclose(cov[_block(2, D), _block(2, D)], comp_cov[b_blk, b_blk],
                       atol=1e-8)
    # cross block between aircraft 0 and 2 comes from the step-3 component
    assert np.allclose(cov[_block(0, D), _block(2, D)], comp_cov[a_blk, b_blk],
                       atol=1e-8)
    assert params.provenance == {"pair_0_1": 0, "pair_1_2": 0, "cross_0_2": 0}


def test_n2_scene_is_just_a_sampled_component():
    models = k1_models()
    comp = models[("P", "P")].components[0]
    params = assemble_scene_params(models, ["P", "P"], rng=1)
    assert np.allclose(params.mean, comp.mean, atol=1e-12)
    assert np.allclose(scene_covariance(params), dense_covariance(comp), atol=1e-8)


def test_unobservable_delta_cross_covariances_are_zero():
    cov = scene_covariance(
        assemble_scene_params(k1_models(), ["P", "P", "P"], rng=0))
    d12 = _delta_index(0, D)
    d23 = _delta_index(1, D)
    blk3 = _block(2, D)
    assert np.allclose(cov[d12, blk3], 0.0)
    assert np.allclose(cov[d12, d23], 0.0)
    assert np.allclose(cov[_block(0, D), d23], 0.0)


def test_selection_matches_brute_force_on_two_component_models():
    comps = [pair_component(0.55, 1.0, seed=4), pair_component(0.45, 3.0, seed=5)]
    model = MixtureModel(components=comps)
    models = {("P", "P"): model}
    rng_seed = 7
    params = assemble_scene_params(models, ["P", "P", "P"], rng=rng_seed)

    # replicate the selection with explicit argmin loops
    a_blk = slice(0, D)
    b_blk = slice(D + 1, 2 * D + 1)
    j0 = params.provenance["pair_0_1"]
    covs = [dense_covariance(c) for c in comps]
    target22 = covs[j0][b_blk, b_blk]
    d2 = [np.linalg.norm(c[a_blk, a_blk] - target22) for c in covs]
    expected_j2 = int(np.argmin(d2))
    assert params.provenance["pair_1_2"] == expected_j2
    target11 = covs[j0][a_blk, a_blk]
    target33 = covs[expected_j2][b_blk, b_blk]
    d3 = [np.linalg.norm(c[a_blk, a_blk] - target11)
          + np.linalg.norm(c[b_blk, b_blk] - target33) for c in covs]
    assert params.provenance["cross_0_2"] == int(np.argmin(d3))


def test_assembled_covariance_is_psd_with_bounded_block_drift():
    # near-consistent components: small per-component perturbations
    comps = []
    for seed, weight in ((8, 0.5), (9, 0.5)):
        base = consistent_pair_component(weight=weight, scale=2.0, seed=seed)
        comps.append(base)
    models = {("P", "P"): MixtureModel(components=comps)}
    for seed in range(5):
        params = assemble_scene_params(models, ["P", "P", "P"], rng=seed)
        cov = scene_covariance(params)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-9 * max(eigs.max(), 1.0)
        assert np.allclose(cov, cov.T)
        assert all(d <= 0.05 for d in params.block_drift)


def test_incompatible_components_repair_and_report(caplog):
    comps = [pair_component(0.5, 1.5, cross=4.0, seed=8),
             pair_component(0.5, 2.5, cross=-4.0, seed=9)]
    models = {("P", "P"): MixtureModel(components=comps)}
    with caplog.at_level(logging.WARNING):
        params = assemble_scene_params(models, ["P", "P", "P"], rng=1)
    eigs = np.linalg.eigvalsh(scene_covariance(params))
    assert eigs.min() >= -1e-9 * max(eigs.max(), 1.0)
    if any(d > 0.05 for d in params.block_drift):
        assert any("PSD repair" in message for message in caplog.messages)


def random_pair_models(rank, seed, n_components=3):
    """Unrelated random components for every combination of procedures P, Q."""
    rng = np.random.default_rng(seed)
    mean = pair_component(1.0, 1.0).mean
    models = {}
    for key in (("P", "P"), ("P", "Q"), ("Q", "P"), ("Q", "Q")):
        models[key] = MixtureModel(components=[
            GaussianComponent(weight=1.0 / n_components, mean=mean,
                              cov_factor=rng.normal(scale=2.0,
                                                    size=(PAIR_DIM, rank)),
                              noise_var=0.5)
            for _ in range(n_components)])
    return models


def test_selection_matches_brute_force_at_four_aircraft():
    sequence = ["P", "Q", "Q", "P"]
    a_blk, b_blk = slice(0, D), slice(D + 1, 2 * D + 1)
    chosen = set()
    for seed in range(4):
        models = random_pair_models(3, seed=20 + seed, n_components=3)
        params = assemble_scene_params(models, sequence, rng=seed)
        prov = params.provenance
        covs = {key: [dense_covariance(c) for c in model.components]
                for key, model in models.items()}

        # replicate the selection with explicit argmin loops; each aircraft's
        # diagonal block comes from the adjacent pair that placed it
        placed = [covs[("P", "Q")][prov["pair_0_1"]][a_blk, a_blk]]
        for k in range(3):
            key = (sequence[k], sequence[k + 1])
            if k > 0:
                dists = [np.linalg.norm(c[a_blk, a_blk] - placed[k])
                         for c in covs[key]]
                assert prov[f"pair_{k}_{k + 1}"] == int(np.argmin(dists))
            placed.append(covs[key][prov[f"pair_{k}_{k + 1}"]][b_blk, b_blk])
        for i, k in ((0, 2), (0, 3), (1, 3)):
            dists = [np.linalg.norm(c[a_blk, a_blk] - placed[i])
                     + np.linalg.norm(c[b_blk, b_blk] - placed[k])
                     for c in covs[(sequence[i], sequence[k])]]
            assert prov[f"cross_{i}_{k}"] == int(np.argmin(dists))
        chosen.add(tuple(prov[name] for name in
                         ("pair_2_3", "cross_0_2", "cross_0_3", "cross_1_3")))
    assert len(chosen) > 1  # the fixtures do not always pick one component


# (N, rank): rank 12 >= D, and (4, 6) places 3 x 6 >= D factor columns in
# each inner aircraft's block, so there the basis spans the whole block
@pytest.mark.parametrize("n_aircraft, rank",
                         [(2, 3), (3, 3), (3, 12), (4, 3), (4, 6)])
def test_low_rank_repair_matches_dense_eigh(n_aircraft, rank):
    models = random_pair_models(rank, seed=10 * n_aircraft + rank)
    repaired_any = False
    for seed in range(4):
        sequence = ["P", "Q", "Q", "P"][:n_aircraft]
        params = assemble_scene_params(models, sequence, rng=seed)
        dense = assemble_scene_dense(models, sequence, rng=seed)
        assert np.array_equal(dense.assembled, dense.assembled.T)
        expected, drift = repair_psd_dense(dense.assembled, dense.blocks)
        assert np.allclose(scene_covariance(params), expected, rtol=1e-10)
        assert np.allclose(params.block_drift, drift, rtol=1e-10)
        repaired_any |= max(drift) > 0
    # a scene of two aircraft is one component's covariance, already PSD
    assert repaired_any == (n_aircraft > 2)


def test_low_rank_repair_returns_psd_input_unchanged():
    for n_aircraft in (2, 3, 4):
        params = assemble_scene_params(k1_models(), ["P"] * n_aircraft, rng=0)
        dense = assemble_scene_dense(k1_models(), ["P"] * n_aircraft, rng=0)
        assert params.block_drift == [0.0] * n_aircraft
        assert dense.covariance is dense.assembled
        assert np.allclose(scene_covariance(params), dense.assembled,
                           rtol=1e-12, atol=1e-12)


def test_factored_scene_matches_dense_assembly():
    rng = np.random.default_rng(40)
    worst_cov = worst_drift = 0.0
    clipped = 0
    for trial in range(120):
        n_components = 1 + trial % 3
        models = random_pair_models((3, 6, 12)[trial // 3 % 3],
                                    seed=100 + trial, n_components=n_components)
        sequence = rng.choice(["P", "Q"], size=2 + trial % 4).tolist()
        params = assemble_scene_params(models, sequence, rng=trial)
        dense = assemble_scene_dense(models, sequence, rng=trial)
        assert params.provenance == dense.provenance
        worst_cov = max(worst_cov,
                        np.linalg.norm(scene_covariance(params) - dense.covariance)
                        / np.linalg.norm(dense.covariance))
        worst_drift = max(worst_drift, np.max(np.abs(
            np.subtract(params.block_drift, dense.block_drift))))
        if max(dense.block_drift) > 0:
            clipped += 1
        else:  # a PSD assembly reads exactly zero
            assert params.block_drift == [0.0] * len(sequence)
    assert worst_cov <= 1e-10
    assert worst_drift <= 1e-12
    assert clipped > 60  # most of these unrelated random scenes are clipped


def test_scene_draws_match_oracle_moments():
    models = random_pair_models(3, seed=41, n_components=2)
    sequence = ["P", "Q", "Q"]
    params = assemble_scene_params(models, sequence, rng=2)
    dense = assemble_scene_dense(models, sequence, rng=2)
    assert max(params.block_drift) > 0.05  # the repair fired
    n = 200_000
    z = np.random.default_rng(42).standard_normal((n, params.mean.size))
    draws = np.concatenate(_scene_parts(params, z), axis=1)
    cov = dense.covariance
    var = np.diag(cov)
    assert np.all(np.abs(draws.mean(axis=0) - dense.mean)
                  <= 3.0 * np.sqrt(var / n))
    se_cov = np.sqrt((np.outer(var, var) + cov ** 2) / n)
    assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) <= 5.0 * se_cov)


def test_scene_assembly_forms_no_dense_scene_matrix():
    # a K = 1, rank-8 pair model at paper size: d = 3 * 350 + 2
    d, n_aircraft = 1052, 4
    rng = np.random.default_rng(43)
    mean = np.zeros(2 * d + 1)
    mean[[0, 1, d, d + 1, d + 2]] = 300.0, 9000.0, 120.0, 300.0, 9000.0
    comp = GaussianComponent(weight=1.0, mean=mean,
                             cov_factor=rng.normal(size=(2 * d + 1, 8)),
                             noise_var=0.5)
    models = {("P", "P"): MixtureModel(components=[comp])}
    u = np.linspace(0.0, 1.0, 350)
    proc_points = np.column_stack([-9000.0 * (1.0 - u), np.zeros(350),
                                   400.0 * (1.0 - u)])

    def scene():
        params = assemble_scene_params(models, ["P"] * n_aircraft, rng=0)
        return generate_scene(params, np.stack([proc_points] * n_aircraft), rng=1)

    peak, (trajectories, _) = peak_traced_bytes(scene)
    assert len(trajectories) == n_aircraft
    dim = n_aircraft * d + n_aircraft - 1
    assert peak < dim * dim * 8 / 10


def test_missing_combination_is_named():
    with pytest.raises(DataError) as err:
        assemble_scene_params(k1_models(), ["P", "Q", "P"], rng=0)
    assert "Q" in str(err.value)


# ---------------------------------------------------------------------------
# generate_scene

def scene_procedures(n):
    """The procedural points (n, T_SEG, 3) of n aircraft on one procedure."""
    u = np.linspace(0.0, 1.0, T_SEG)
    points = np.column_stack([-9000.0 * (1.0 - u), np.zeros(T_SEG),
                              400.0 * (1.0 - u)])
    return np.stack([points] * n)


def zero_cov_params(n_aircraft):
    d = D
    dim = n_aircraft * d + n_aircraft - 1
    mean = np.zeros(dim)
    for i in range(n_aircraft):
        blk = _block(i, d)
        mean[blk.start] = 300.0 + 10.0 * i     # transit time
        mean[blk.start + 1] = 9000.0           # distance
    for i in range(n_aircraft - 1):
        mean[_delta_index(i, d)] = 90.0
    # empty bases and zero noise: the covariance is zero
    sizes = [d, 1] * (n_aircraft - 1) + [d]
    return SceneParams(mean=mean, bases=[np.zeros((s, 0)) for s in sizes],
                       factor=np.zeros((0, 0)), noise=[0.0] * len(sizes),
                       procedure_sequence=["P"] * n_aircraft, provenance={})


def test_zero_covariance_scene_equals_mean_scene():
    params = zero_cov_params(3)
    trajectories, deltas = generate_scene(params, scene_procedures(3), rng=0)
    assert np.array_equal(deltas, [90.0, 90.0])
    proc_points = scene_procedures(1)[0]
    for i, (times, points) in enumerate(trajectories):
        assert np.allclose(points, proc_points, atol=1e-9)
        expected_transit = (300.0 + 10.0 * i) / 9000.0 * path_length(proc_points)
        assert times[-1] - times[0] == pytest.approx(expected_transit)


def test_arrival_time_bookkeeping_is_exact():
    comps = [pair_component(1.0, 2.0, cross=3.0, seed=10)]
    models = {("P", "P"): MixtureModel(components=comps)}
    rng = np.random.default_rng(11)
    for _ in range(10):
        params = assemble_scene_params(models, ["P", "P", "P"], rng)
        trajectories, deltas = generate_scene(params, scene_procedures(3), rng)
        ends = [times[-1] for times, _ in trajectories]
        gaps = np.diff(ends)
        assert np.allclose(gaps, deltas, atol=1e-9)
        assert trajectories[0][0][0] == 0.0


def test_delta_moments_match_monte_carlo():
    comps = [pair_component(1.0, 2.0, cross=3.0, seed=12)]
    models = {("P", "P"): MixtureModel(components=comps)}
    params = assemble_scene_params(models, ["P", "P"], rng=0)
    d12 = _delta_index(0, D)
    mean_true = params.mean[d12]
    var_true = scene_covariance(params)[d12, d12]
    rng = np.random.default_rng(13)
    n = 10_000
    draws = np.array([
        generate_scene(params, scene_procedures(2), rng)[1][0]
        for _ in range(n)
    ])
    se_mean = np.sqrt(var_true / n)
    assert abs(draws.mean() - mean_true) <= 3.0 * se_mean
    se_var = var_true * np.sqrt(2.0 / (n - 1))
    assert abs(draws.var(ddof=1) - var_true) <= 3.0 * se_var


def test_negative_delta_exhausts_retries():
    params = zero_cov_params(2)
    params.mean[_delta_index(0, D)] = -50.0  # deterministic negative gap
    with pytest.raises(NumericalError) as err:
        generate_scene(params, scene_procedures(2), rng=0)
    assert str(err.value) == ("scene sampling failed after 10 attempts; last "
                              "cause: negative inter-arrival time -50 s")


def test_scene_rejection_names_the_first_invalid_aircraft():
    params = zero_cov_params(3)
    params.mean[_block(1, D).start + 1] = 0.0   # aircraft 1: no distance
    params.mean[_block(2, D).start] = -1.0      # aircraft 2: negative transit
    with pytest.raises(NumericalError) as err:
        generate_scene(params, scene_procedures(3), rng=0)
    assert str(err.value) == ("scene sampling failed after 10 attempts; last "
                              "cause: total_distance must be positive")


def test_scene_generation_stops_after_max_draws(monkeypatch):
    params = zero_cov_params(2)
    params.mean[_delta_index(0, D)] = -50.0  # deterministic negative gap
    draws = []

    def counted(params, z):
        draws.append(z)
        return _scene_parts(params, z)

    monkeypatch.setattr(mixture, "MAX_DRAWS", 3)
    monkeypatch.setattr(multi_model, "_scene_parts", counted)
    with pytest.raises(NumericalError,
                       match="scene sampling failed after 3 attempts"):
        generate_scene(params, scene_procedures(2), rng=0)
    assert len(draws) == 3


def test_a_plain_value_error_in_a_scene_draw_is_not_redrawn(monkeypatch):
    calls = []

    def broken(params, z):
        calls.append(z)
        raise ValueError("a defect")

    monkeypatch.setattr(multi_model, "_scene_parts", broken)
    with pytest.raises(ValueError, match="a defect"):
        generate_scene(zero_cov_params(2), scene_procedures(2), rng=0)
    assert len(calls) == 1


def test_scene_generation_deterministic():
    comps = [pair_component(1.0, 2.0, seed=14)]
    models = {("P", "P"): MixtureModel(components=comps)}
    out = []
    for _ in range(2):
        rng = np.random.default_rng(15)
        params = assemble_scene_params(models, ["P", "P", "P"], rng)
        trajectories, _ = generate_scene(params, scene_procedures(3), rng)
        out.append(trajectories)
    for (times1, points1), (times2, points2) in zip(out[0], out[1]):
        assert np.array_equal(times1, times2)
        assert np.array_equal(points1, points2)


def test_stack_pairs_shape():
    taus, _, times = arrivals([0.0, 90.0, 150.0, 500.0, 560.0, 600.0])
    procs = ["P", "Q", "P", "P", "Q", "Q"]
    groups = extract_pairs(taus, procs, times, window=180.0)
    assert {key: pairs.shape for key, pairs in groups.items()} == {
        ("P", "Q"): (2, PAIR_DIM), ("Q", "P"): (1, PAIR_DIM),
        ("Q", "Q"): (1, PAIR_DIM)}
    assert groups[("P", "Q")][:, D].tolist() == [90.0, 60.0]
