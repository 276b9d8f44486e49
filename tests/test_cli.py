"""CLI pipeline: commands, file formats, determinism, and exit codes."""

import argparse
import ast
import dataclasses
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trafgen import (_files, cli, mixture, multi_model, preprocess,
                     procedures, single_model)
from trafgen.cli import (EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                         RunConfig, read_deviation_dataset,
                         read_trajectory_file, run, substream)
from trafgen.errors import DataError
from trafgen.ingest import enu_to_wgs84
from trafgen.mixture import GaussianComponent, MixtureModel, save_model

import conftest
import corpus
from conftest import assert_bitwise, resample_one
from oracles import dtw_loop, model_to_dict, write_trajectory_csv_rows


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once; tests assert on its outputs."""
    base = tmp_path_factory.mktemp("corpus")
    config_path = corpus.write_corpus(base, n_flights=60, seed=0)
    for args in (["ingest"], ["select"], ["train"], ["train-pairwise"],
                 ["generate", "--count", "25"],
                 ["generate-scenes", "--count", "4", "--aircraft", "2"]):
        code = run(["--config", str(config_path), *args])
        assert code == EXIT_OK, args
    return base, config_path


def read_bytes(path: Path) -> bytes:
    return path.read_bytes()


# ---------------------------------------------------------------------------
# pipeline outputs

def test_ingest_outputs(pipeline):
    base, _ = pipeline
    out = base / "out"
    rv, rv_meta = read_deviation_dataset(out / "rv_dataset.npy")
    fa, fa_meta = read_deviation_dataset(out / "fa_dataset.npy")
    assert rv.shape == (60, 3 * corpus.T_V + 2)
    assert fa.shape == (60, 3 * corpus.T_F + 2)
    assert len(rv_meta["rows"]) == 60
    assert {row["procedure"] for row in rv_meta["rows"]} <= {"RV_WEST", "RV_SOUTH"}
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["arrivals_retained"] == 60
    assert report["parse_errors"] == []


def test_ingest_rerun_is_byte_identical(pipeline):
    base, config_path = pipeline
    out = base / "out"
    before = {name: read_bytes(out / name)
              for name in ("rv_dataset.npy", "fa_dataset.npy",
                           "rv_dataset.meta.json", "ingest_report.json")}
    assert run(["--config", str(config_path), "ingest"]) == EXIT_OK
    for name, blob in before.items():
        assert read_bytes(out / name) == blob, name


def test_selection_report_covers_grids(pipeline):
    base, _ = pipeline
    report = json.loads((base / "out" / "selection_report.json").read_text())
    for segment in ("radar_vector", "final_approach"):
        entry = report[segment]
        assert [k for k, _ in entry["silhouette_curve"]] == [2, 3, 4]
        assert [k for k, _ in entry["rank_curve"]] == [1, 2, 4, 6, 8]
        assert entry["n_components"] in (2, 3, 4)
        assert entry["rank"] in (1, 2, 4, 6, 8)


def test_selection_picks_generating_component_count(tmp_path):
    """Clean two-component deviation data: the report must choose K=2."""
    from trafgen.cli import write_deviation_dataset
    from trafgen.mixture import sample

    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    gt = corpus.ground_truth_model()
    out = tmp_path / "out"
    for model, name, kind, t_len in (
            (gt.radar_vector_model, "rv_dataset.npy", "radar_vector", corpus.T_V),
            (gt.final_approach_model, "fa_dataset.npy", "final_approach",
             corpus.T_F)):
        data, _ = sample(model, 400, np.random.default_rng(1))
        rows = [{"flight_id": f"S{i}", "procedure": "RV_WEST",
                 "arrival_time": 100.0 * i} for i in range(len(data))]
        write_deviation_dataset(out / name, data, kind, t_len, rows)
    assert run(["--config", str(config_path), "select"]) == EXIT_OK
    report = json.loads((out / "selection_report.json").read_text())
    assert report["radar_vector"]["n_components"] == 2
    assert report["final_approach"]["n_components"] == 2


def test_training_log_monotone_log_likelihood(pipeline):
    base, _ = pipeline
    log = json.loads((base / "out" / "train_log.json").read_text())
    for segment in ("radar_vector", "final_approach"):
        lls = log[segment]["log_likelihoods"]
        assert len(lls) >= 2
        assert np.all(np.diff(lls) >= -1e-9)


def test_model_files_are_compact_sorted_key_json(pipeline):
    base, _ = pipeline
    for name in ("model_rv.json", "model_fa.json", "model_pairwise.json"):
        text = (base / "out" / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True), name


def test_model_files_record_their_segment_kind(pipeline):
    out = pipeline[0] / "out"
    for name, kind in (("model_rv.json", "radar_vector"),
                       ("model_fa.json", "final_approach")):
        doc = json.loads((out / name).read_text(encoding="utf-8"))
        assert doc["segment_kind"] == kind
    doc = json.loads((out / "model_pairwise.json").read_text(encoding="utf-8"))
    assert {m["segment_kind"] for m in doc["models"].values()} == {"pairwise"}


def test_train_rerun_identical_models(pipeline):
    base, config_path = pipeline
    out = base / "out"
    before = read_bytes(out / "model_rv.json")
    assert run(["--config", str(config_path), "train"]) == EXIT_OK
    assert read_bytes(out / "model_rv.json") == before


@pytest.mark.parametrize("command, outputs", [
    ("select", ["selection_report.json"]),
    ("train", ["model_rv.json", "model_fa.json", "train_log.json"]),
    ("train-pairwise", ["model_pairwise.json", "train_pairwise_log.json"]),
], ids=["select", "train", "train_pairwise"])
def test_train_rejects_dataset_of_another_length(tmp_path, capsys, command,
                                                 outputs):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0,
                                      explicit_choice=True)
    out = tmp_path / "out"
    rng = np.random.default_rng(0)
    rows = [{"flight_id": f"S{i}", "procedure": "RV_WEST",
             "arrival_time": 100.0 * i} for i in range(20)]
    # T_v one sample short of the config's t_v; T_f as configured
    cli.write_deviation_dataset(out / "rv_dataset.npy",
                                rng.normal(size=(20, 3 * (corpus.T_V - 1) + 2)),
                                "radar_vector", corpus.T_V - 1, rows)
    cli.write_deviation_dataset(out / "fa_dataset.npy",
                                rng.normal(size=(20, 3 * corpus.T_F + 2)),
                                "final_approach", corpus.T_F, rows)
    assert run(["--config", str(config_path), command]) == EXIT_DATA
    width = 3 * (corpus.T_V - 1) + 2
    assert (f"data error: {out / 'rv_dataset.npy'}: dataset width {width} != "
            f"3*T_v+2 = {3 * corpus.T_V + 2}") in capsys.readouterr().err
    for name in outputs:
        assert not (out / name).exists(), name


def test_train_names_final_approach_dataset_of_another_length(tmp_path, capsys):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0,
                                      explicit_choice=True)
    out = tmp_path / "out"
    rng = np.random.default_rng(0)
    rows = [{"flight_id": f"S{i}", "procedure": "RV_WEST",
             "arrival_time": 100.0 * i} for i in range(20)]
    cli.write_deviation_dataset(out / "rv_dataset.npy",
                                rng.normal(size=(20, 3 * corpus.T_V + 2)),
                                "radar_vector", corpus.T_V, rows)
    # ingested at a longer t_f than the config now names
    t_f = corpus.T_F + 10
    cli.write_deviation_dataset(out / "fa_dataset.npy",
                                rng.normal(size=(20, 3 * t_f + 2)),
                                "final_approach", t_f, rows)
    before = sorted(p.name for p in out.iterdir())
    assert run(["--config", str(config_path), "train"]) == EXIT_DATA
    assert (f"data error: {out / 'fa_dataset.npy'}: dataset width "
            f"{3 * t_f + 2} != 3*T_f+2 = {3 * corpus.T_F + 2}"
            in capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == before
    # a meta whose T disagrees with the dataset's own columns
    meta_path = out / "fa_dataset.meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["T"] = corpus.T_F
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    assert run(["--config", str(config_path), "train"]) == EXIT_DATA
    assert (f"data error: {out / 'fa_dataset.npy'}: dataset width "
            f"{3 * t_f + 2} != 3*T+2 = {3 * corpus.T_F + 2}"
            in capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == before


# the segment kind of model_<name>.json
KINDS = {"rv": "radar_vector", "fa": "final_approach"}


@pytest.mark.parametrize("segment", ["rv", "fa"])
def test_generate_rejects_model_of_another_length(tmp_path, capsys, segment):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    lengths = {"rv": corpus.T_V, "fa": corpus.T_F}
    lengths[segment] += 1  # trained at one sample more than the config names
    for name, length in lengths.items():
        dim = 3 * length + 2
        save_model(MixtureModel(components=[GaussianComponent(
            weight=1.0, mean=np.ones(dim), cov_factor=np.zeros((dim, 1)),
            noise_var=1.0)]), out / f"model_{name}.json", KINDS[name])
    before = sorted(p.name for p in out.iterdir())
    assert run(["--config", str(config_path), "generate",
                "--count", "3"]) == EXIT_DATA
    symbol = {"rv": "T_v", "fa": "T_f"}[segment]
    expected = 3 * (lengths[segment] - 1) + 2
    assert (f"data error: {out / f'model_{segment}.json'}: model dimension "
            f"{expected + 3} != 3*{symbol}+2 = {expected}"
            in capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == before
    # a dimension that is 3T+2 for no T
    dim = expected + 1
    save_model(MixtureModel(components=[GaussianComponent(
        weight=1.0, mean=np.ones(dim), cov_factor=np.zeros((dim, 1)),
        noise_var=1.0)]), out / f"model_{segment}.json", KINDS[segment])
    assert run(["--config", str(config_path), "generate",
                "--count", "3"]) == EXIT_DATA
    assert (f"data error: {out / f'model_{segment}.json'}: model dimension "
            f"{dim} != 3*{symbol}+2 = {expected}" in capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == before


def test_generated_trajectories_file(pipeline):
    base, _ = pipeline
    scenes = read_trajectory_file(base / "out" / "trajectories.csv")
    assert len(scenes) == 25
    for scene in scenes:
        times, points = scene[0]
        assert points.shape == (corpus.T_V + corpus.T_F, 3)
        assert np.all(np.diff(times) > 0)
    meta = json.loads((base / "out" / "trajectories.meta.json").read_text())
    assert meta["count"] == 25
    used = {entry["procedure"] for entry in meta["trajectories"]}
    assert used <= {"RV_WEST", "RV_SOUTH"}


def test_generate_rerun_identical(pipeline):
    base, config_path = pipeline
    out = base / "out"
    before = read_bytes(out / "trajectories.csv")
    assert run(["--config", str(config_path), "generate",
                "--count", "25"]) == EXIT_OK
    assert read_bytes(out / "trajectories.csv") == before


def test_generate_count_zero_writes_header_only(tmp_path, pipeline):
    base, config_path = pipeline
    out_dir = tmp_path / "empty_out"
    # reuse trained models: copy them into the fresh out dir
    out_dir.mkdir()
    for name in ("model_rv.json", "model_fa.json"):
        (out_dir / name).write_bytes(read_bytes(base / "out" / name))
    code = run(["--config", str(config_path), "--out", str(out_dir),
                "generate", "--count", "0"])
    assert code == EXIT_OK
    lines = (out_dir / "trajectories.csv").read_text().splitlines()
    assert lines == ["traj_id,t,x,y,z"]


def test_degenerate_frequencies_pin_the_procedure(tmp_path):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    out = tmp_path / "out"
    gt = corpus.ground_truth_model()
    save_model(gt.radar_vector_model, out / "model_rv.json", "radar_vector")
    save_model(gt.final_approach_model, out / "model_fa.json", "final_approach")
    procs = procedures.load_procedures(tmp_path / "procedures.yaml")
    procs[0].frequency, procs[1].frequency = 1.0, 0.0
    procedures.save_procedures(procs, tmp_path / "procedures.yaml")
    assert run(["--config", str(config_path), "generate",
                "--count", "10"]) == EXIT_OK
    meta = json.loads((out / "trajectories.meta.json").read_text())
    assert [entry["procedure"] for entry in meta["trajectories"]] == [
        procs[0].name] * 10


def test_scene_outputs(pipeline):
    base, _ = pipeline
    scenes = read_trajectory_file(base / "out" / "scenes.csv")
    assert len(scenes) == 4
    assert all(len(scene) == 2 for scene in scenes)
    meta = json.loads((base / "out" / "scenes.meta.json").read_text())
    assert meta["aircraft_per_scene"] == 2
    assert all(len(s["inter_arrival_times"]) == 1 for s in meta["scenes"])
    assert all(s["inter_arrival_times"][0] >= 0.0 for s in meta["scenes"])


def test_scene_meta_records_block_drift(pipeline):
    base, _ = pipeline
    meta = json.loads((base / "out" / "scenes.meta.json").read_text())
    for scene in meta["scenes"]:
        drift = scene["block_drift"]
        assert len(drift) == meta["aircraft_per_scene"]
        assert all(value >= 0.0 for value in drift)


def test_evaluate_non_finite_speed_is_data_error(tmp_path, pipeline):
    base, config_path = pipeline
    # a repeated timestamp makes the step speed infinite
    bad = tmp_path / "bad.csv"
    bad.write_text("traj_id,t,x,y,z\n0,0.0,0.0,0.0,300.0\n"
                   "0,10.0,500.0,0.0,300.0\n0,10.0,900.0,0.0,300.0\n",
                   encoding="utf-8")
    code = run(["--config", str(config_path), "--out", str(tmp_path),
                "evaluate", "--actual", str(base / "out" / "trajectories.csv"),
                "--synthetic", str(bad)])
    assert code == EXIT_DATA
    assert not (tmp_path / "metrics_report.json").exists()


def test_evaluate_rejects_times_that_do_not_increase(tmp_path, capsys,
                                                    pipeline):
    base, config_path = pipeline
    bad = tmp_path / "bad.csv"
    bad.write_text("traj_id,t,x,y,z\n7,2.0,0.0,0.0,300.0\n"
                   "7,1.0,500.0,0.0,300.0\n7,3.0,900.0,0.0,300.0\n",
                   encoding="utf-8")
    code = run(["--config", str(config_path), "--out", str(tmp_path),
                "evaluate", "--actual", str(base / "out" / "trajectories.csv"),
                "--synthetic", str(bad)])
    assert code == EXIT_DATA
    assert (f"data error: {bad}: times of aircraft 7 do not strictly increase"
            in capsys.readouterr().err)
    assert not (tmp_path / "metrics_report.json").exists()


@pytest.mark.parametrize("bad_row, line", [("7,nan,500.0,0.0,300.0", 3),
                                           ("7,2.0,inf,0.0,300.0", 4)],
                         ids=["nan_time", "inf_x"])
def test_evaluate_rejects_non_finite_values(tmp_path, capsys, pipeline,
                                            bad_row, line):
    base, config_path = pipeline
    rows = ["7,0.0,0.0,0.0,300.0", "7,1.0,400.0,0.0,300.0",
            "7,3.0,900.0,0.0,300.0"]
    rows.insert(line - 2, bad_row)
    bad = tmp_path / "bad.csv"
    bad.write_text("traj_id,t,x,y,z\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code = run(["--config", str(config_path), "--out", str(tmp_path),
                "evaluate", "--actual", str(base / "out" / "trajectories.csv"),
                "--synthetic", str(bad)])
    assert code == EXIT_DATA
    assert (f"data error: {bad}:{line}: t, x, y and z must be finite"
            in capsys.readouterr().err)
    assert not (tmp_path / "metrics_report.json").exists()


def test_evaluate_self_comparison_is_zero(pipeline):
    base, config_path = pipeline
    traj_file = base / "out" / "trajectories.csv"
    code = run(["--config", str(config_path), "evaluate",
                "--actual", str(traj_file), "--synthetic", str(traj_file)])
    assert code == EXIT_OK
    report = json.loads((base / "out" / "metrics_report.json").read_text())
    for name in ("x_east", "y_north", "horizontal_speed"):
        assert report["variables"][name]["js_divergence"] == 0.0
    # single-trajectory files carry no closest-aircraft variable
    assert report["variables"]["closest_distance"] is None
    assert report["separation"]["actual_events"] == 0


def test_evaluate_disjoint_supports_near_one(tmp_path, pipeline):
    _, config_path = pipeline

    def write_traj(path, x0):
        lines = ["traj_id,t,x,y,z"]
        for i in range(10):
            lines.append(f"0,{10.0 * i!r},{x0 + 500.0 * i!r},0.0,300.0")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    near, far = tmp_path / "near.csv", tmp_path / "far.csv"
    write_traj(near, 0.0)
    write_traj(far, 1e6)
    code = run(["--config", str(config_path), "--out", str(tmp_path),
                "evaluate", "--actual", str(near), "--synthetic", str(far)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "metrics_report.json").read_text())
    assert report["variables"]["x_east"]["js_divergence"] > 0.99


INGEST_OUTPUTS = ("rv_dataset.npy", "fa_dataset.npy", "rv_dataset.meta.json",
                  "fa_dataset.meta.json", "ingest_report.json")


def loop_assign_procedures(points, proc_points):
    """Per-pair assignment with the textbook DTW loop."""
    return np.array([
        int(np.argmin([dtw_loop(p[:, :2], q[:, :2]) for q in proc_points]))
        for p in points])


def test_paper_dimension_ingest_matches_per_pair_loop(tmp_path, monkeypatch):
    dims = {"t_v": 350, "t_f": 150, "n_overlap": 10}
    config_path = corpus.write_corpus(tmp_path, n_flights=6, seed=4, **dims)
    batched, looped = tmp_path / "batched", tmp_path / "looped"
    assert run(["--config", str(config_path), "--out", str(batched),
                "ingest"]) == EXIT_OK
    monkeypatch.setattr(preprocess, "assign_procedures", loop_assign_procedures)
    assert run(["--config", str(config_path), "--out", str(looped),
                "ingest"]) == EXIT_OK
    for name in INGEST_OUTPUTS:
        assert (batched / name).read_bytes() == (looped / name).read_bytes(), name
    rv, meta = read_deviation_dataset(batched / "rv_dataset.npy")
    assert rv.shape == (6, 3 * 350 + 2)
    flown = [name for name, *_ in corpus.generate_actual(6, 4, **dims)]
    assert [row["procedure"] for row in meta["rows"]] == flown


@pytest.mark.parametrize("n_overlap", [1, 10])
def test_paper_dimension_pipeline_runs_through_evaluate(tmp_path, n_overlap):
    dims = {"t_v": 350, "t_f": 150, "n_overlap": n_overlap}
    # fixed k_* and rank_* in the config: train runs without select
    config_path = corpus.write_corpus(tmp_path, n_flights=24, seed=0,
                                      explicit_choice=True, **dims)
    actual = tmp_path / "actual.csv"
    _files.write_trajectory_csv(actual, ["traj_id"], [
        ((i,), times, points)
        for i, (_, times, points, _) in enumerate(
            corpus.generate_actual(10, 1, **dims))])
    out = tmp_path / "out"
    for args in (["ingest"], ["train"], ["generate", "--count", "10"],
                 ["evaluate", "--actual", str(actual),
                  "--synthetic", str(out / "trajectories.csv")]):
        assert run(["--config", str(config_path), *args]) == EXIT_OK, args
    report = json.loads((out / "metrics_report.json").read_text())
    js = [entry["js_divergence"] for entry in report["variables"].values()
          if entry is not None]
    assert len(js) == 3 and np.all(np.isfinite(js))


@pytest.mark.parametrize("seed", range(6))
def test_paper_overlap_generate_succeeds_on_every_corpus_seed(tmp_path, seed):
    config_path = corpus.write_corpus(tmp_path, n_flights=24, seed=seed,
                                      explicit_choice=True, t_v=350, t_f=150,
                                      n_overlap=10)
    for args in (["ingest"], ["train"], ["generate", "--count", "10"]):
        assert run(["--config", str(config_path), *args]) == EXIT_OK, args


def test_final_approach_rows_open_with_the_radar_vector_tail(tmp_path):
    t_v, t_f, n_ov = 350, 150, 10
    config_path = corpus.write_corpus(tmp_path, n_flights=6, seed=4, t_v=t_v,
                                      t_f=t_f, n_overlap=n_ov)
    assert run(["--config", str(config_path), "ingest"]) == EXIT_OK
    rv, rv_meta = read_deviation_dataset(tmp_path / "out" / "rv_dataset.npy")
    fa, _ = read_deviation_dataset(tmp_path / "out" / "fa_dataset.npy")
    names, rv_procs, _, _, iap_points = cli._load_procedural_trajectories(
        RunConfig.from_file(config_path))
    proc_points = dict(zip(names, rv_procs))
    for rv_row, fa_row, row in zip(rv, fa, rv_meta["rows"]):
        rv_points = rv_row[2:].reshape(t_v, 3) + proc_points[row["procedure"]]
        fa_points = fa_row[2:].reshape(t_f, 3) + iap_points
        # the last n_ov samples of the radar-vector part, the join included
        np.testing.assert_allclose(fa_points[:n_ov], rv_points[-n_ov:],
                                   rtol=0.0, atol=1e-6)


def write_enu_flight(lines, flight_id, t0, enu):
    lat, lon, alt = enu_to_wgs84(np.asarray(enu, dtype=float), corpus.AIRSPACE)
    for k, (la, lo, af) in enumerate(zip(lat, lon, alt)):
        lines.append(f"{flight_id},{t0 + 20.0 * k!r},{float(la)!r},"
                     f"{float(lo)!r},{float(af)!r}")


def straight_track(start, end, n=30):
    return np.linspace(start, end, n)


# the ingest report's exclusions, arrivals_retained, rv_rows and fa_rows; at
# n_overlap = 3, Z6's final-approach row opens with radar-vector samples, so
# its path length is positive and it is kept, and Z1 has no radar-vector part
# to open its final-approach row with
EXCLUSIONS = {
    1: (["Z2", "Z4", "Z8", "Z7", "Z6", "Z3", "Z1", "Z5"], 5, 4, 4),
    3: (["Z2", "Z4", "Z8", "Z7", "Z3", "Z1", "Z1", "Z5"], 6, 5, 4),
}


@pytest.mark.parametrize("n_overlap", [1, 3])
def test_ingest_exclusions_keep_flight_order(tmp_path, n_overlap):
    config_path = corpus.write_corpus(tmp_path, n_flights=3, seed=0,
                                      n_overlap=n_overlap)
    tracks = tmp_path / "tracks.csv"
    lines = tracks.read_text(encoding="utf-8").splitlines()
    # flies only the final approach: no radar-vector part
    write_enu_flight(lines, "Z1", 9000.0, straight_track(
        [8000.0, 8000.0, 450.0], [0.0, 0.0, 3.0]))
    write_enu_flight(lines, "Z2", 9500.0, straight_track(
        [-40000.0, 0.0, 3000.0], [40000.0, 0.0, 3000.0]))
    # first sample dated 1e19 s early: rebased to it, the later times round
    # to one value, so resampling rejects this flight and no other
    write_enu_flight(lines, "Z7", 9600.0, straight_track(
        [16000.0, 16000.0, 900.0], [0.0, 0.0, 3.0]))
    flight_id, _, rest = lines[-30].split(",", 2)
    lines[-30] = f"{flight_id},-1e19,{rest}"
    # straight in from due south: only the last sample is within 1 NM of
    # the approach path, so there is no final-approach part. It sits between
    # arrivals with both parts, so a wrong lead row for Z6 shows
    write_enu_flight(lines, "Z5", 9700.0, straight_track(
        [0.0, -20000.0, 3000.0], [0.0, 0.0, 3.0], n=10))
    # jumps onto the field from 2 km west and sits there: its final-approach
    # part has path length 0, which only the row built after resampling finds
    write_enu_flight(lines, "Z6", 9750.0, np.vstack([straight_track(
        [-20000.0, 0.0, 2000.0], [-2000.0, 0.0, 100.0]), [[0.0, 0.0, 3.0]] * 5]))
    # lands 1.9 NM southeast of the field, never on the approach path
    write_enu_flight(lines, "Z3", 10000.0, straight_track(
        [-30000.0, -20000.0, 2000.0], [2500.0, -2500.0, 3.0]))
    write_enu_flight(lines, "Z4", 10500.0, straight_track(
        [40000.0, 0.0, 3000.0], [-40000.0, 0.0, 3000.0]))
    # both points outside the 25 NM radius
    write_enu_flight(lines, "Z8", 11000.0, straight_track(
        [60000.0, 0.0, 3000.0], [50000.0, 0.0, 3000.0], n=2))
    tracks.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["--config", str(config_path), "ingest"]) == EXIT_OK
    out = tmp_path / "out"
    report = json.loads((out / "ingest_report.json").read_text())
    flights, retained, rv_count, fa_count = EXCLUSIONS[n_overlap]
    assert [e["flight"] for e in report["exclusions"]] == flights
    reasons = dict(zip(flights, [e["reason"] for e in report["exclusions"]]))
    assert reasons["Z2"] == reasons["Z4"] == "classified as overflight"
    assert reasons["Z8"] == "flight 'Z8': fewer than 2 points inside the airspace"
    assert reasons["Z7"] == "times must be strictly increasing"
    assert "never joins the final approach" in reasons["Z3"]
    assert reasons["Z5"] == "final-approach segment too short"
    if n_overlap == 1:
        assert reasons["Z6"] == "total_distance must be positive"
        assert reasons["Z1"] == "radar-vector segment too short"
    assert (report["arrivals_retained"], report["rv_rows"],
            report["fa_rows"]) == (retained, rv_count, fa_count)

    # each final-approach row opens with its radar-vector row's last points
    names, rv_points, _, iap_name, iap_points = cli._load_procedural_trajectories(
        RunConfig.from_file(config_path))
    proc_points = dict(zip([*names, iap_name], [*rv_points, iap_points]))
    points = {}
    for name in ("rv_dataset.npy", "fa_dataset.npy"):
        rows, meta = read_deviation_dataset(out / name)
        for row, entry in zip(rows, meta["rows"]):
            points.setdefault(entry["flight_id"], []).append(
                proc_points[entry["procedure"]] + row[2:].reshape(-1, 3))
    # the three corpus flights and, at n_overlap = 3, Z6 have both rows
    paired = {flight: both for flight, both in points.items() if len(both) == 2}
    assert len(paired) == 3 + (n_overlap == 3)
    assert ("Z6" in paired) == (n_overlap == 3)
    for rv, fa in paired.values():
        np.testing.assert_allclose(fa[:n_overlap], rv[-n_overlap:], rtol=0, atol=1e-6)


def test_resampling_rejects_only_the_faulty_parts(monkeypatch):
    parts = [(np.arange(n, dtype=float), np.arange(3.0 * n).reshape(n, 3))
             for n in [5, 9, 2, 5, 7, 4, 6, 3, 1, 3]]
    parts[2] = (np.array([0.0, 0.0]), np.zeros((2, 3)))
    parts[5] = (np.arange(4.0), np.full((4, 3), np.nan))
    parts[8] = (np.array([0.0]), np.zeros((1, 3)))
    parts[9] = (np.arange(3.0), np.zeros((2, 3)))
    times, values = [t for t, _ in parts], [v for _, v in parts]
    got_times, got, rejected = preprocess.pchip_resample(times, values, 7)
    assert rejected == {2: "times must be strictly increasing",
                        5: "`y` must contain only finite values.",
                        8: "need at least 2 samples",
                        9: "The length of `y` along `axis`=0 doesn't match "
                           "the length of `x`"}
    # each rejection is the message its row raises alone
    for row, message in rejected.items():
        assert preprocess.pchip_resample(*zip(parts[row]), 7)[2] == {0: message}
    assert np.isnan(got_times[list(rejected)]).all()
    assert np.isnan(got[list(rejected)]).all()
    kept = [row for row in range(len(parts)) if row not in rejected]
    for row in kept:
        for out, want in zip((got_times[row], got[row]),
                             resample_one(*parts[row], 7)):
            assert_bitwise(out, want)
    # chunks of at most 12 knots of 3 values give the rows of one chunk, bit
    # for bit
    monkeypatch.setattr(preprocess, "CHUNK_BYTES", 12 * 8 * (12 + 10 * 3))
    chunked = preprocess.pchip_resample(times, values, 7)
    assert chunked[2] == rejected
    for out, want in zip(chunked[:2], (got_times, got)):
        assert_bitwise(out, want)


def test_ingest_converts_each_flight_to_enu_once(tmp_path, monkeypatch):
    from trafgen import ingest
    config_path = corpus.write_corpus(tmp_path, n_flights=8, seed=2)
    calls = []
    original = ingest.flight_to_enu

    def counting(flights, config):
        calls.append([flight.id for flight in flights])
        return original(flights, config)

    for module in (ingest, cli):
        monkeypatch.setattr(module, "flight_to_enu", counting)
    assert run(["--config", str(config_path), "ingest"]) == EXIT_OK
    assert calls == [[f"AC{i:05d}" for i in range(8)]]


def test_parse_errors_are_logged_once_and_reported_in_full(tmp_path, caplog):
    config_path = corpus.write_corpus(tmp_path, n_flights=3, seed=0)
    tracks = tmp_path / "tracks.csv"
    with tracks.open("a", encoding="utf-8") as handle:
        for i in range(7):
            handle.write(f"BAD{i},{i}.0,95.0,-73.7,1000\n")
    with caplog.at_level(logging.WARNING, logger="trafgen.cli"):
        assert run(["--config", str(config_path), "ingest"]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
    errors = report["parse_errors"]
    assert len(errors) == 7 and all("lat 95.0" in e for e in errors)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "7 records rejected" in message
    assert all(e in message for e in errors[:5])
    assert not any(e in message for e in errors[5:])


@pytest.mark.parametrize("key_columns, keys", [
    (["traj_id"], [(0,), (17,)]),
    (["scene_id", "aircraft_idx"], [(0, 0), (0, 1), (3, 2)]),
], ids=["one_key", "two_keys"])
def test_trajectory_writer_matches_csv_writer_bytes(tmp_path, key_columns, keys):
    special = [-0.0, 5e-324, 1e300, np.inf, -np.inf, 3.0, -120.0, 0.1, 1e-7]
    rows = []
    for n, key in enumerate(keys):
        values = np.roll(special, n)
        rows.append((key, np.arange(len(special)) * 2.0 + n,
                     np.column_stack([values, -values, np.roll(values, 1)])))
    got, want = tmp_path / "bulk.csv", tmp_path / "rows.csv"
    _files.write_trajectory_csv(got, key_columns, rows)
    write_trajectory_csv_rows(want, key_columns, rows)
    assert got.read_bytes() == want.read_bytes()
    text = want.read_bytes()
    assert text.endswith(b"\r\n")
    assert all(v in text for v in (b",-0.0,", b",5e-324,", b",1e+300,", b",-inf,"))


def test_failed_writes_leave_the_previous_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "trajectories.csv"
    _files.write_trajectory_csv(path, ["traj_id"],
                                [((0,), [0.0, 1.0], [(1.0, 2.0, 3.0)] * 2)])
    good = path.read_bytes()
    # the second trajectory has 2-D points: the write fails after one row
    with pytest.raises(ValueError):
        _files.write_trajectory_csv(path, ["traj_id"],
                                    [((0,), [0.0], [(4.0, 5.0, 6.0)]),
                                     ((1,), [0.0], [(7.0, 8.0)])])
    assert path.read_bytes() == good

    data_path = tmp_path / "rv_dataset.npy"
    cli.write_deviation_dataset(data_path, np.ones((2, 5)), "radar_vector", 1,
                                [{"flight_id": "a"}, {"flight_id": "b"}])
    data, meta = data_path.read_bytes(), data_path.with_suffix(".meta.json").read_bytes()
    ragged = np.array([[1.0] * 5, [2.0, 2.0, "x", 2.0, 2.0]], dtype=object)
    with pytest.raises((TypeError, ValueError)):
        cli.write_deviation_dataset(data_path, ragged, "radar_vector", 1, [])
    with pytest.raises(TypeError):
        _files.write_json(data_path.with_suffix(".meta.json"), {"rows": object()})
    assert data_path.read_bytes() == data
    assert data_path.with_suffix(".meta.json").read_bytes() == meta

    # model and procedure files are written chunk by chunk: a write that
    # fails after its first chunk (a full disk) must not truncate the old file
    model_path = tmp_path / "model_rv.json"
    save_model(corpus.ground_truth_model().radar_vector_model, model_path,
               "radar_vector")
    procedure_path = tmp_path / "nominal_paths.yaml"
    procedures.save_procedures(corpus.gt_procedures(), procedure_path)
    saved = {p: p.read_bytes() for p in (model_path, procedure_path)}

    def fail_after_first_chunk(path, chunks):
        def first_then_fault():
            yield next(iter(chunks))
            raise OSError("no space left on device")
        _files.write_text(path, first_then_fault())

    with monkeypatch.context() as patch:
        for module in (mixture, procedures):
            patch.setattr(module, "write_text", fail_after_first_chunk)
        with pytest.raises(OSError):
            save_model(corpus.ground_truth_model().final_approach_model,
                       model_path, "final_approach")
        with pytest.raises(OSError):
            procedures.save_procedures(corpus.gt_procedures()[:1],
                                       procedure_path)
    for target, blob in saved.items():
        assert target.read_bytes() == blob, target.name
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "model_rv.json", "nominal_paths.yaml", "rv_dataset.meta.json",
        "rv_dataset.npy", "trajectories.csv"]


@pytest.mark.parametrize("key_columns, keys, times", [
    (["traj_id"], (1,), [0.0, 1.0, 1.0]),
    (["scene_id", "aircraft_idx"], (0, 1), [0.0, 2.0, 1.0]),
], ids=["trajectory_repeated_time", "scene_decreasing_time"])
def test_trajectory_writer_rejects_times_that_do_not_increase(
        tmp_path, key_columns, keys, times):
    path = tmp_path / "out.csv"
    first = ((0,) * len(key_columns), [0.0, 1.0, 2.0], [(1.0, 2.0, 3.0)] * 3)
    _files.write_trajectory_csv(path, key_columns, [first])
    good = path.read_bytes()
    with pytest.raises(ValueError, match=re.escape(
            f"times of aircraft {'/'.join(map(str, keys))} "
            "do not strictly increase")):
        _files.write_trajectory_csv(path, key_columns,
                                    [first, (keys, times, [(4.0, 5.0, 6.0)] * 3)])
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_evaluate_scene_file_has_closest_distance(pipeline):
    base, config_path = pipeline
    scene_file = base / "out" / "scenes.csv"
    code = run(["--config", str(config_path), "evaluate",
                "--actual", str(scene_file), "--synthetic", str(scene_file)])
    assert code == EXIT_OK
    report = json.loads((base / "out" / "metrics_report.json").read_text())
    assert report["variables"]["closest_distance"] is not None
    assert report["variables"]["closest_distance"]["js_divergence"] == 0.0


def test_review_paths_writes_kept_subset(pipeline):
    base, config_path = pipeline
    code = run(["--config", str(config_path), "review-paths", "--k", "2",
                "--keep", "0"])
    assert code == EXIT_OK
    from trafgen.procedures import load_procedures
    kept = load_procedures(base / "out" / "nominal_paths.yaml")
    assert len(kept) == 1
    assert kept[0].kind.value == "radar_vector"
    assert len(kept[0].waypoints) == 25


def test_review_paths_drops_the_tracks_ingest_excludes(tmp_path, caplog):
    # Z7 as in test_ingest_exclusions_keep_flight_order: its first sample
    # dated 1e19 s early leaves times that resampling rejects
    runs = {}
    for name in ("with_z7", "without_z7"):
        config_path = corpus.write_corpus(tmp_path / name, n_flights=12, seed=0)
        if name == "with_z7":
            tracks = tmp_path / name / "tracks.csv"
            lines = tracks.read_text(encoding="utf-8").splitlines()
            write_enu_flight(lines, "Z7", 9600.0, straight_track(
                [16000.0, 16000.0, 900.0], [0.0, 0.0, 3.0]))
            flight_id, _, rest = lines[-30].split(",", 2)
            lines[-30] = f"{flight_id},-1e19,{rest}"
            tracks.write_text("\n".join(lines) + "\n", encoding="utf-8")
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="trafgen.cli"):
            assert run(["--config", str(config_path), "ingest"]) == EXIT_OK
            assert run(["--config", str(config_path), "review-paths",
                        "--k", "2"]) == EXIT_OK
        runs[name] = [r.getMessage() for r in caplog.records
                      if r.levelno == logging.WARNING]
    report = json.loads(
        (tmp_path / "with_z7" / "out" / "ingest_report.json").read_text())
    assert {"flight": "Z7", "reason": "times must be strictly increasing"} \
        in report["exclusions"]
    assert runs == {"with_z7": ["review-paths: 1 arrivals dropped: Z7: times "
                                "must be strictly increasing"],
                    "without_z7": []}
    paths = [(tmp_path / name / "out" / "nominal_paths.yaml").read_bytes()
             for name in runs]
    assert paths[0] == paths[1]


# ---------------------------------------------------------------------------
# exit codes and errors

def write_small_datasets(out, n=20):
    rng = np.random.default_rng(0)
    rows = [{"flight_id": f"S{i}", "procedure": "RV_WEST",
             "arrival_time": 100.0 * i} for i in range(n)]
    for name, kind, t_len in (("rv_dataset.npy", "radar_vector", corpus.T_V),
                              ("fa_dataset.npy", "final_approach", corpus.T_F)):
        cli.write_deviation_dataset(out / name,
                                    rng.normal(size=(n, 3 * t_len + 2)),
                                    kind, t_len, rows)


def edit_json(path, edit):
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def truncate(path):
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:len(text) // 2], encoding="utf-8")


def selection_report(rv_n_components):
    """A damage that writes a selection report whose radar-vector
    n_components is the given value."""
    return lambda path: path.write_text(json.dumps({
        "radar_vector": {"n_components": rv_n_components, "rank": 2},
        "final_approach": {"n_components": 2, "rank": 2}}), encoding="utf-8")


@pytest.mark.parametrize("target, damage, command", [
    ("selection_report.json",
     lambda path: path.write_text('{"radar_vector": ', encoding="utf-8"),
     ["train"]),
    ("selection_report.json", selection_report(2.9), ["train"]),
    ("selection_report.json", selection_report("2"), ["train"]),
    ("selection_report.json", selection_report(True), ["train"]),
    ("rv_dataset.meta.json",
     lambda path: edit_json(path, lambda doc: doc.pop("T")), ["select"]),
    ("model_rv.json", truncate, ["generate", "--count", "1"]),
    ("model_pairwise.json",
     lambda path: path.write_text(json.dumps({
         "format": "trafgen-pairwise/1", "segment": "final_approach",
         "models": {}}), encoding="utf-8"),
     ["generate-scenes", "--count", "1"]),
], ids=["broken_json", "float_choice", "text_choice", "bool_choice",
        "meta_without_T", "truncated_model", "fa_pairwise"])
def test_malformed_files_exit_2_and_name_their_path(tmp_path, capsys, target,
                                                     damage, command):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    out = tmp_path / "out"
    write_small_datasets(out)
    gt = corpus.ground_truth_model()
    save_model(gt.radar_vector_model, out / "model_rv.json", "radar_vector")
    save_model(gt.final_approach_model, out / "model_fa.json", "final_approach")
    damage(out / target)
    assert run(["--config", str(config_path), *command]) == EXIT_DATA
    assert str(out / target) in capsys.readouterr().err


def test_selection_report_choices_must_be_json_integers(tmp_path, capsys):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    out = tmp_path / "out"
    write_small_datasets(out)
    selection_report(2.9)(out / "selection_report.json")
    assert run(["--config", str(config_path), "train"]) == EXIT_DATA
    assert (f"data error: {out / 'selection_report.json'}: malformed selection "
            "report: radar_vector n_components must be an integer, got 2.9\n"
            == capsys.readouterr().err)
    assert not (out / "model_rv.json").exists()


NON_FINITE = "component {} holds a non-finite value"


@pytest.mark.parametrize("target, edit, command, output, reason", [
    ("model_fa.json",
     lambda doc: doc["components"][0]["cov_factor"][0].__setitem__(0, np.nan),
     ["generate", "--count", "3"], "trajectories.csv", NON_FINITE.format(0)),
    ("model_rv.json",
     lambda doc: doc["components"][-1].__setitem__("noise_var", np.inf),
     ["generate", "--count", "3"], "trajectories.csv", NON_FINITE.format(1)),
    ("model_rv.json",
     lambda doc: doc["components"][-1].__setitem__("noise_var", 10 ** 400),
     ["generate", "--count", "3"], "trajectories.csv",
     "int too large to convert to float"),
    ("model_pairwise.json",
     lambda doc: next(iter(doc["models"].values()))["components"][0]["mean"]
     .__setitem__(0, np.nan),
     ["generate-scenes", "--count", "3"], "scenes.csv", NON_FINITE.format(0)),
    ("model_rv.json", lambda doc: doc["components"][0].__setitem__("weight", "1.0"),
     ["generate", "--count", "3"], "trajectories.csv",
     "component 0 holds '1.0', which is not a number"),
    ("model_rv.json",
     lambda doc: doc["components"][1].__setitem__("noise_var", True),
     ["generate", "--count", "3"], "trajectories.csv",
     "component 1 holds True, which is not a number"),
    ("model_fa.json",
     lambda doc: doc["components"][0]["mean"].__setitem__(5, "12.5"),
     ["generate", "--count", "3"], "trajectories.csv",
     "component 0 holds '12.5', which is not a number"),
    ("model_rv.json",
     lambda doc: doc.update(dimension=7, n_components=9, components=[
         {**doc["components"][0], "weight": 1.0}]),
     ["generate", "--count", "3"], "trajectories.csv",
     "headers n_components 9 and dimension 7 do not match the components: "
     "1 of dimension 122"),
], ids=["fa_factor_nan", "rv_noise_inf", "rv_noise_huge", "pairwise_mean_nan",
        "rv_weight_text", "rv_noise_bool", "fa_mean_text", "rv_headers"])
def test_non_finite_model_values_are_data_errors(tmp_path, capsys, pipeline,
                                                 target, edit, command, output,
                                                 reason):
    base, _ = pipeline
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    out = tmp_path / "out"
    out.mkdir()
    for name in ("model_rv.json", "model_fa.json", "model_pairwise.json"):
        (out / name).write_bytes((base / "out" / name).read_bytes())
    edit_json(out / target, edit)
    assert run(["--config", str(config_path), *command]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {out / target}: malformed " in err
    assert f" {reason}\n" in err
    assert not (out / output).exists()


@pytest.mark.parametrize("command, targets, module, fit", [
    ("train", ["model_rv.json", "model_fa.json"], cli, "compress_model"),
    ("train-pairwise", ["model_pairwise.json"], multi_model, "train_pairwise"),
], ids=["train", "pairwise"])
def test_non_finite_model_value_fails_before_a_file_is_replaced(
        tmp_path, capsys, monkeypatch, command, targets, module, fit):
    # a NaN fails the command, not the next read; the final-approach model,
    # which train writes second, and every pairwise model get one
    real_fit = getattr(module, fit)

    def fit_with_nan(*args, **kwargs):
        fitted = real_fit(*args, **kwargs)
        for model in fitted.values() if isinstance(fitted, dict) else [fitted]:
            if model.dimension != 3 * corpus.T_V + 2:  # not radar-vector
                model.components[0].mean[0] = np.nan
        return fitted

    monkeypatch.setattr(module, fit, fit_with_nan)
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0,
                                      explicit_choice=True)
    out = tmp_path / "out"
    write_small_datasets(out)
    for target in targets:
        (out / target).write_text('{"previous": true}', encoding="utf-8")
    before = sorted(p.name for p in out.iterdir())
    assert run(["--config", str(config_path), command]) == EXIT_NUMERICAL
    assert (f"numerical failure: {out / targets[-1]}: cannot write the model: "
            in capsys.readouterr().err)
    for target in targets:
        assert (out / target).read_text(encoding="utf-8") == '{"previous": true}'
    assert sorted(p.name for p in out.iterdir()) == before


def test_dataset_rows_must_match_their_meta(tmp_path, capsys):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    out = tmp_path / "out"
    write_small_datasets(out)
    meta_path = out / "rv_dataset.meta.json"
    # one meta row more than the data has
    edit_json(meta_path, lambda doc: doc["rows"].append(doc["rows"][-1]))
    assert run(["--config", str(config_path), "train-pairwise"]) == EXIT_DATA
    assert "20 rows, but its meta lists 21" in capsys.readouterr().err
    edit_json(meta_path, lambda doc: (doc["rows"].pop(),
                                      doc["rows"][3].pop("procedure")))
    assert run(["--config", str(config_path), "train-pairwise"]) == EXIT_DATA
    assert "row 3 lacks procedure" in capsys.readouterr().err


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """The deviation datasets of a 40-flight corpus, for input-fault cases."""
    base = tmp_path_factory.mktemp("ingested")
    config_path = corpus.write_corpus(base, n_flights=40, seed=0)
    assert run(["--config", str(config_path), "ingest"]) == EXIT_OK
    return base / "out"


def set_config_keys(config_path, **values):
    """Give each key its value, replacing the line that sets it, if any."""
    lines = [line for line in config_path.read_text(encoding="utf-8").splitlines()
             if line.partition("=")[0].strip() not in values]
    lines += [f"{key} = {value}" for key, value in values.items()]
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_rv_dataset(out, edit, **save):
    """Save ``edit(data)`` in place of the radar-vector dataset ``data``."""
    path = out / "rv_dataset.npy"
    np.save(path, edit(np.load(path)), **save)


def edit_rv_bytes(out, edit):
    """Replace the radar-vector dataset's bytes ``blob`` by ``edit(blob)``."""
    path = out / "rv_dataset.npy"
    path.write_bytes(edit(path.read_bytes()))


def nan_in_rv_dataset(out):
    path = out / "rv_dataset.npy"
    data = np.load(path)
    data[2, 5] = np.nan
    np.save(path, data)


def inf_in_rv_dataset(out):
    path = out / "rv_dataset.npy"
    data = np.load(path)
    data[6, 0] = -np.inf
    np.save(path, data)


def identical_rv_rows(out):
    edit_rv_dataset(out, lambda data: np.repeat(data[:1], len(data), axis=0))


def empty_rv_dataset(out):
    edit_rv_dataset(out, lambda data: data[:0])
    edit_json(out / "rv_dataset.meta.json", lambda doc: doc["rows"].clear())


def csv_rv_dataset(out):
    # the form of trafgen-deviations/1, under the .npy name
    path = out / "rv_dataset.npy"
    np.savetxt(path, np.load(path), delimiter=",", fmt="%.17g")


def huge_rv_header(out):
    # 400 GB claimed by a file of a few hundred bytes
    with open(out / "rv_dataset.npy", "wb") as handle:
        np.lib.format.write_array_header_1_0(handle, {
            "descr": "<f8", "fortran_order": False, "shape": (9999999999, 5)})
        handle.write(bytes(8))


def npz_rv_dataset(out):
    path = out / "rv_dataset.npy"
    data = np.load(path)
    with open(path, "wb") as handle:
        np.savez(handle, data)


def set_meta_row_3(**values):
    """A damage that gives row 3 of the radar-vector meta ``values``."""
    return lambda out: edit_json(out / "rv_dataset.meta.json",
                                 lambda doc: doc["rows"][3].update(values))


def set_meta_t(value):
    """A damage that sets the radar-vector meta's T to ``value``."""
    return lambda out: edit_json(out / "rv_dataset.meta.json",
                                 lambda doc: doc.update(T=value))


RV_DIM = 3 * corpus.T_V + 2
FA_DIM = 3 * corpus.T_F + 2
CHOSEN = {"k_rv": 2, "k_fa": 2, "rank_rv": 6, "rank_fa": 6}
NAN_AT_ROW_2 = "{out}/rv_dataset.npy: row 2: deviation values must be finite"
MALFORMED_RV = "{out}/rv_dataset.npy: malformed deviation dataset: "
META_ROW_3 = "{out}/rv_dataset.meta.json: malformed dataset meta: row 3: "
META_T = "{out}/rv_dataset.meta.json: malformed dataset meta: T must be an integer, got "


@pytest.mark.parametrize("command, keys, damage, message", [
    ("select", {"k_grid": "1,2"}, None, "silhouette sweep needs K >= 2"),
    ("select", {"k_grid": ""}, None, "component grid is empty"),
    ("select", {"k_grid": "2,100"}, None, "need at least 100 rows, got "),
    ("select", {"rank_grid": "1,500"}, None,
     f"grid ranks must be in [1, {RV_DIM - 1}]"),
    ("select", {"rank_grid": ""}, None, "rank grid is empty"),
    ("select", {}, nan_in_rv_dataset, NAN_AT_ROW_2),
    ("select", {}, inf_in_rv_dataset,
     "{out}/rv_dataset.npy: row 6: deviation values must be finite"),
    ("select", {}, identical_rv_rows, "silhouette needs at least 2 clusters"),
    ("select", {}, empty_rv_dataset, "{out}/rv_dataset.npy: dataset has no rows"),
    ("select", {}, lambda out: edit_rv_bytes(out, lambda blob: b""),
     MALFORMED_RV),
    ("select", {}, csv_rv_dataset, MALFORMED_RV),
    ("select", {}, lambda out: edit_rv_bytes(out, lambda blob: blob[:-8]),
     MALFORMED_RV),
    ("select", {}, npz_rv_dataset, MALFORMED_RV),
    ("select", {}, huge_rv_header, MALFORMED_RV + "its header claims shape "
     "(9999999999, 5) of float64, 399999999960 bytes, but 8 follow it"),
    # a corrupt header: numpy raises a tokenizer error, then a TypeError
    ("select", {}, lambda out: edit_rv_bytes(
        out, lambda blob: blob.replace(b"{'descr'", b"3'descr'", 1)),
     MALFORMED_RV),
    ("select", {}, lambda out: edit_rv_bytes(
        out, lambda blob: blob.replace(b" 'shape'", b"b'shape'", 1)),
     MALFORMED_RV),
    ("select", {}, lambda out: edit_rv_dataset(out, np.ravel),
     "{out}/rv_dataset.npy: expected a 2-D float64 array, got 1-D float64"),
    ("select", {},
     lambda out: edit_rv_dataset(out, lambda data: data.astype(np.int64)),
     "{out}/rv_dataset.npy: expected a 2-D float64 array, got 2-D int64"),
    ("select", {},
     lambda out: edit_rv_dataset(out, lambda data: data.astype(object),
                                 allow_pickle=True),
     MALFORMED_RV + "Object arrays cannot be loaded"),
    ("select", {},
     lambda out: edit_json(out / "rv_dataset.meta.json", lambda doc: doc.update(
         format="trafgen-deviations/1")),
     "{out}/rv_dataset.meta.json: malformed dataset meta: "
     "unsupported format 'trafgen-deviations/1'"),
    ("train", {**CHOSEN, "k_rv": 0}, None, "n_components must be >= 1"),
    ("train", {**CHOSEN, "k_rv": 100}, None, "need at least 100 rows, got "),
    ("train", {**CHOSEN, "rank_rv": 0}, None,
     f"rank must satisfy 1 <= rank < {RV_DIM}, got 0"),
    ("train", {**CHOSEN, "rank_rv": 9999}, None,
     f"rank must satisfy 1 <= rank < {RV_DIM}, got 9999"),
    ("train", CHOSEN, nan_in_rv_dataset, NAN_AT_ROW_2),
    ("train", {**CHOSEN, "k_fa": 100}, None, "need at least 100 rows, got "),
    ("train", {**CHOSEN, "rank_fa": 0}, None,
     f"rank must satisfy 1 <= rank < {FA_DIM}, got 0"),
    ("train-pairwise", {"k_pairwise": 0}, None, "n_components must be >= 1"),
    ("train-pairwise", {"rank_pairwise": 0}, None,
     f"rank must satisfy 1 <= rank < {2 * RV_DIM + 1}, got 0"),
    ("train-pairwise", {"rank_pairwise": 99999}, None,
     f"rank must satisfy 1 <= rank < {2 * RV_DIM + 1}, got 99999"),
    ("train-pairwise", {}, nan_in_rv_dataset, NAN_AT_ROW_2),
    ("train-pairwise", {}, empty_rv_dataset,
     "{out}/rv_dataset.npy: dataset has no rows"),
    ("train-pairwise", {}, set_meta_row_3(arrival_time="soon"),
     META_ROW_3 + "arrival_time must be a finite number, got 'soon'"),
    ("train-pairwise", {}, set_meta_row_3(arrival_time=float("nan")),
     META_ROW_3 + "arrival_time must be a finite number, got nan"),
    ("train-pairwise", {}, set_meta_row_3(arrival_time=float("-inf")),
     META_ROW_3 + "arrival_time must be a finite number, got -inf"),
    ("train-pairwise", {}, set_meta_row_3(arrival_time=True),
     META_ROW_3 + "arrival_time must be a finite number, got True"),
    ("train-pairwise", {}, set_meta_row_3(arrival_time=10**400),
     META_ROW_3 + "arrival_time must be a finite number, got " + "1" + "0" * 39),
    ("train-pairwise", {}, set_meta_row_3(procedure=["RV_WEST"]),
     META_ROW_3 + "procedure must be a string, got ['RV_WEST']"),
    ("train-pairwise", {}, set_meta_row_3(flight_id=7),
     META_ROW_3 + "flight_id must be a string, got 7"),
    ("select", {"seed": -3}, None,
     "{cfg}: malformed config file: seed must be at least 0, got -3"),
    ("select", {}, set_meta_t(40.9), META_T + "40.9"),
    ("select", {}, set_meta_t("40"), META_T + "'40'"),
    ("select", {}, set_meta_t(True), META_T + "True"),
], ids=["select_k_1", "select_k_empty", "select_k_100", "select_rank_500",
        "select_rank_empty", "select_nan", "select_inf", "select_identical_rows",
        "select_empty", "select_empty_file", "select_csv_text", "select_truncated",
        "select_npz", "select_huge_header", "select_header_syntax",
        "select_header_bytes_key",
        "select_1d", "select_int64", "select_object", "select_meta_format_1",
        "train_k_0", "train_k_100", "train_rank_0", "train_rank_9999",
        "train_nan", "train_k_fa_100", "train_rank_fa_0", "pairwise_k_0",
        "pairwise_rank_0", "pairwise_rank_99999", "pairwise_nan", "pairwise_empty",
        "meta_time_text", "meta_time_nan", "meta_time_inf", "meta_time_bool",
        "meta_time_huge_int", "meta_procedure_list", "meta_flight_id_number",
        "negative_config_seed", "meta_t_float", "meta_t_text", "meta_t_bool"])
def test_input_faults_are_data_errors(tmp_path, capsys, ingested, command,
                                      keys, damage, message):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    set_config_keys(config_path, **keys)
    out = tmp_path / "out"
    out.mkdir()
    for path in ingested.glob("*_dataset.*"):
        (out / path.name).write_bytes(path.read_bytes())
    if damage is not None:
        damage(out)
    before = sorted(p.name for p in out.iterdir())
    assert run(["--config", str(config_path), command]) == EXIT_DATA
    assert (f"data error: {message.format(cfg=config_path, out=out)}"
            in capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == before


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_internal_error_is_not_reported_as_data_error(tmp_path, monkeypatch,
                                                      error):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)

    def broken(config):
        raise error("internal")

    monkeypatch.setattr(cli, "cmd_select", broken)
    with pytest.raises(error, match="internal"):
        run(["--config", str(config_path), "select"])


def test_a_defect_inside_a_draw_is_a_traceback_not_exit_3(monkeypatch,
                                                          pipeline):
    _, config_path = pipeline

    def broken(model, size, rng):
        raise ValueError("a defect")

    monkeypatch.setattr(single_model, "sample", broken)
    with pytest.raises(ValueError, match="a defect"):
        run(["--config", str(config_path), "generate", "--count", "3"])


def test_usage_error_exit_code():
    assert run(["--config"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE


@pytest.mark.parametrize("args", [
    ["generate", "--count", "-3"],
    ["generate-scenes", "--count", "-1"],
    ["generate-scenes", "--count", "2", "--aircraft", "1"],
    ["review-paths", "--k", "0"],
    ["review-paths", "--k", "2", "--keep", "0,x"],
    ["review-paths", "--k", "2", "--keep", "0,,1"],
    ["review-paths", "--k", "2", "--keep", "-1"],
    ["review-paths", "--k", "2", "--keep", "0,0"],
], ids=["negative_count", "negative_scene_count", "one_aircraft", "zero_k",
        "keep_not_integer", "keep_empty_item", "keep_negative", "keep_repeated"])
def test_bad_flag_values_are_usage_errors(tmp_path, capsys, args):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    assert run(["--config", str(config_path), *args]) == EXIT_USAGE
    assert "error: argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_duplicate_config_key_is_data_error_naming_the_file(tmp_path, capsys):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    with config_path.open("a", encoding="utf-8") as handle:
        handle.write("seed = 5\n")
    assert run(["--config", str(config_path), "ingest"]) == EXIT_DATA
    assert f"{config_path}: malformed config file: " in capsys.readouterr().err
    with pytest.raises(DataError, match="duplicate key 'seed'"):
        RunConfig.from_file(config_path)


def test_duplicate_procedure_name_is_data_error_naming_the_file(tmp_path,
                                                               capsys):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    out = tmp_path / "out"
    gt = corpus.ground_truth_model()
    save_model(gt.radar_vector_model, out / "model_rv.json", "radar_vector")
    save_model(gt.final_approach_model, out / "model_fa.json", "final_approach")
    procs = procedures.load_procedures(tmp_path / "procedures.yaml")
    procs[1].name = procs[0].name
    procedures.save_procedures(procs, tmp_path / "procedures.yaml")
    assert run(["--config", str(config_path), "generate",
                "--count", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(tmp_path / "procedures.yaml") in err
    assert f"duplicate procedure names: ['{procs[0].name}']" in err
    assert not (out / "trajectories.csv").exists()


def _zero_frequencies(procs):
    for proc in procs:
        proc.frequency = 0.0
    return "frequencies must have a positive finite total"


def _overflowing_frequencies(procs):
    # each frequency is finite; their total is not
    for proc in procs:
        if proc.kind is procedures.ProcedureKind.RADAR_VECTOR:
            proc.frequency = 1.0e308
    return "frequencies must have a positive finite total"


def _nan_frequency(procs):
    procs[0].frequency = float("nan")
    return (f"malformed procedure file: procedure {procs[0].name!r}: "
            "frequency must be finite and nonnegative, got nan")


def _inf_frequency(procs):
    procs[1].frequency = float("inf")
    return (f"malformed procedure file: procedure {procs[1].name!r}: "
            "frequency must be finite and nonnegative, got inf")


def _repeated_waypoint(procs):
    procs[0].waypoints[1] = procs[0].waypoints[0]
    return f"procedure {procs[0].name!r} repeats a waypoint"


# the commands that read the procedure file, each with the models it reads
PROCEDURE_COMMANDS = pytest.mark.parametrize(
    "command", [["ingest"], ["generate", "--count", "1"],
                ["generate-scenes", "--count", "1"]],
    ids=["ingest", "generate", "generate_scenes"])
MODEL_FILES = ("model_fa.json", "model_pairwise.json", "model_rv.json")


def copy_models(pipeline, out):
    """The pipeline's model files, copied into ``out``, which is made."""
    out.mkdir()
    for name in MODEL_FILES:
        (out / name).write_bytes((pipeline[0] / "out" / name).read_bytes())


@pytest.mark.parametrize("defect", [_zero_frequencies, _overflowing_frequencies,
                                    _nan_frequency, _inf_frequency,
                                    _repeated_waypoint],
                         ids=["zero_frequencies", "overflowing_total",
                              "nan_frequency", "inf_frequency",
                              "repeated_waypoint"])
@PROCEDURE_COMMANDS
def test_unusable_procedures_are_data_errors_naming_the_file(
        tmp_path, capsys, pipeline, defect, command):
    config_path = corpus.write_corpus(tmp_path, n_flights=5, seed=0)
    out = tmp_path / "out"
    copy_models(pipeline, out)
    procs = procedures.load_procedures(tmp_path / "procedures.yaml")
    reason = defect(procs)
    procedures.save_procedures(procs, tmp_path / "procedures.yaml")
    assert run(["--config", str(config_path), *command]) == EXIT_DATA
    assert (f"data error: {tmp_path / 'procedures.yaml'}: {reason}"
            in capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == list(MODEL_FILES)


def _set(doc, keys, value):
    """Set ``doc[k0][k1]...`` to ``value``."""
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


@pytest.mark.parametrize("keys, value, reason", [
    (["frequency"], "0.65", "procedure 'RV_WEST': frequency '0.65' is not a number"),
    (["frequency"], True, "procedure 'RV_WEST': frequency True is not a number"),
    (["waypoints", 0, 0], "40.8",
     "procedure 'RV_WEST': latitude '40.8' is not a number"),
    (["waypoints", 0, 1], False,
     "procedure 'RV_WEST': longitude False is not a number"),
    (["name"], None, "procedure None: the name is not a string"),
], ids=["text_frequency", "bool_frequency", "text_latitude", "bool_longitude",
        "null_name"])
@PROCEDURE_COMMANDS
def test_procedure_values_must_be_numbers_and_names_strings(
        tmp_path, capsys, pipeline, keys, value, reason, command):
    import yaml
    config_path = corpus.write_corpus(tmp_path, n_flights=5, seed=0)
    copy_models(pipeline, tmp_path / "out")
    path = tmp_path / "procedures.yaml"
    docs = list(yaml.safe_load_all(path.read_text(encoding="utf-8")))
    _set(docs[0], keys, value)
    path.write_text(yaml.safe_dump_all(docs), encoding="utf-8")
    assert run(["--config", str(config_path), *command]) == EXIT_DATA
    assert (f"data error: {path}: malformed procedure file: {reason}\n"
            == capsys.readouterr().err)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == list(MODEL_FILES)


@pytest.mark.parametrize("position, reason", [
    ((95.0, None, None), "lat 95.0 outside [-90, 90]"),
    ((None, 200.0, None), "lon 200.0 outside [-180, 180]"),
    ((float("nan"), None, None), "lat nan outside [-90, 90]"),
    ((None, None, float("inf")), "alt inf must be finite"),
], ids=["lat_95", "lon_200", "nan_lat", "inf_alt"])
@PROCEDURE_COMMANDS
def test_waypoints_follow_the_track_coordinate_rule(
        tmp_path, capsys, pipeline, position, reason, command):
    # RV_WEST's second waypoint, (lat, lon) with no altitude, takes each
    # given value of (lat, lon, alt)
    import yaml
    config_path = corpus.write_corpus(tmp_path, n_flights=5, seed=0)
    copy_models(pipeline, tmp_path / "out")
    path = tmp_path / "procedures.yaml"
    docs = list(yaml.safe_load_all(path.read_text(encoding="utf-8")))
    assert docs[0]["name"] == "RV_WEST"
    waypoint = docs[0]["waypoints"][1] + [None]
    docs[0]["waypoints"][1] = [old if new is None else new
                               for new, old in zip(position, waypoint)]
    path.write_text(yaml.safe_dump_all(docs), encoding="utf-8")
    assert run(["--config", str(config_path), *command]) == EXIT_DATA
    assert (f"data error: {path}: malformed procedure file: procedure 'RV_WEST': "
            f"waypoint 1: {reason}\n" == capsys.readouterr().err)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == list(MODEL_FILES)


@pytest.mark.parametrize("command", [["ingest"], ["generate-scenes", "--count", "1"]],
                         ids=["ingest", "generate_scenes"])
def test_a_frequency_beyond_the_float_range_is_a_data_error(tmp_path, capsys,
                                                            pipeline, command):
    # beside _inf_frequency: a 400-digit integer, which float() cannot take
    config_path = corpus.write_corpus(tmp_path, n_flights=5, seed=0)
    out = tmp_path / "out"
    out.mkdir()
    model = pipeline[0] / "out" / "model_pairwise.json"
    (out / model.name).write_bytes(model.read_bytes())
    path = tmp_path / "procedures.yaml"
    text = path.read_text(encoding="utf-8")
    path.write_text(re.sub(r"frequency: \S+", f"frequency: {10 ** 400}", text,
                           count=1), encoding="utf-8")
    assert run(["--config", str(config_path), *command]) == EXIT_DATA
    assert (f"data error: {path}: malformed procedure file: int too large to "
            "convert to float\n" == capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == [model.name]


def scipy_modules_after(code: str) -> list:
    """Run ``code`` in a fresh interpreter; it prints JSON, which is returned."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


LOADED_SCIPY = ("sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.'))")


def test_cli_import_loads_no_scipy():
    code = f"import json, sys, trafgen.cli; print(json.dumps({LOADED_SCIPY}))"
    assert scipy_modules_after(code) == []


def test_the_model_modules_do_not_import_procedures():
    # generation takes procedural points as arrays, not procedure records
    code = ("import json, sys, trafgen.single_model, trafgen.multi_model; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('trafgen.'))))")
    loaded = scipy_modules_after(code)
    assert "trafgen.single_model" in loaded and "trafgen.multi_model" in loaded
    assert "trafgen.procedures" not in loaded


def test_no_command_needs_scipy(tmp_path):
    # every command runs in an interpreter where scipy cannot be imported
    # (its sys.modules entry is None), exits 0 and loads no scipy module
    config_path = corpus.write_corpus(tmp_path, n_flights=60, seed=0,
                                      explicit_choice=True)
    out = tmp_path / "out"
    stages = [["ingest"], ["review-paths", "--k", "2"], ["select"],
              ["train"], ["train-pairwise"], ["generate", "--count", "5"],
              ["generate-scenes", "--count", "2", "--aircraft", "2"]]
    for name in ("trajectories.csv", "scenes.csv"):
        synthetic = str(out / name)
        stages.append(["evaluate", "--actual", synthetic,
                       "--synthetic", synthetic])
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from trafgen.cli import run\n"
        "loaded = []\n"
        f"for args in {stages!r}:\n"
        f"    code = run(['--config', {str(config_path)!r}, *args])\n"
        f"    loaded.append([args[0], code, [m for m in {LOADED_SCIPY}\n"
        "                                    if sys.modules[m] is not None]])\n"
        "print(json.dumps(loaded))\n")
    loaded = scipy_modules_after(code)
    assert [entry[0] for entry in loaded] == [args[0] for args in stages]
    assert [entry[1:] for entry in loaded] == [[EXIT_OK, []]] * len(stages)


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env(**threads) -> dict:
    """This process's environment with trafgen's source on the path, no BLAS
    thread variable set, and then ``threads``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return {**env, "PYTHONPATH": str(src), **threads}


def test_cli_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # unpinned, one OpenBLAS thread against two or more moved the rv model,
    # the selection report, the train log and the trajectories here (at 120
    # flights they happened to agree)
    config_path = corpus.write_corpus(tmp_path, n_flights=200, seed=0)
    stages = [["ingest"], ["select"], ["train"], ["generate", "--count", "20"]]
    code = ("import sys\n"
            "from trafgen.cli import run\n"
            f"for args in {stages!r}:\n"
            f"    code = run(['--config', {str(config_path)!r},\n"
            "                '--out', sys.argv[1], *args])\n"
            "    assert code == 0, (args, code)\n")
    outputs = {}
    for threads in ("1", None, "2", "4"):
        env = blas_env() if threads is None else blas_env(
            OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"out-{threads}"
        subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                       check=True, capture_output=True)
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "trajectories.csv" in outputs["1"]
    for threads in (None, "2", "4"):
        assert outputs[threads].keys() == outputs["1"].keys()
        assert [name for name, data in outputs["1"].items()
                if outputs[threads][name] != data] == [], threads


def test_importing_numpy_first_leaves_the_environment_alone():
    code = ("import json, os, numpy\n"
            "before = dict(os.environ)\n"
            "import trafgen\n"
            "print(json.dumps([before == dict(os.environ),\n"
            "                  os.environ['OPENBLAS_NUM_THREADS']]))\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=blas_env(OPENBLAS_NUM_THREADS="4"), check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [True, "4"]


def test_importing_trafgen_first_pins_blas_to_one_thread():
    code = ("import json, os, trafgen, numpy\n"
            f"print(json.dumps([os.environ[k] for k in {BLAS_THREADS!r}]))\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=blas_env(**dict.fromkeys(BLAS_THREADS, "4")),
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == ["1", "1", "1"]


def test_in_process_cli_runs_are_pinned_as_the_command_is():
    # conftest imports trafgen before numpy, so run() here uses one BLAS
    # thread, as the trafgen command does
    assert not conftest.NUMPY_BEFORE_TRAFGEN
    assert [os.environ[k] for k in BLAS_THREADS] == ["1", "1", "1"]


def test_only_procedure_commands_load_yaml(tmp_path):
    # nor does a command that learns load numpy.ma (np.unique imports it),
    # where importing numpy does not load it already
    config_path = corpus.write_corpus(tmp_path, n_flights=60, seed=0,
                                      explicit_choice=True)
    for args in (["ingest"], ["train"], ["generate", "--count", "5"]):
        assert run(["--config", str(config_path), *args]) == EXIT_OK
    synthetic = str(tmp_path / "out" / "trajectories.csv")
    stages = [["select"], ["train"], ["train-pairwise"],
              ["evaluate", "--actual", synthetic, "--synthetic", synthetic]]
    loaded = "['yaml' in sys.modules, 'numpy.ma' in sys.modules]"
    code = (
        "import json, sys, numpy\n"
        "numpy_ma = 'numpy.ma' in sys.modules\n"
        "from trafgen.cli import run\n"
        f"loaded = [['import', 0, {loaded}]]\n"
        f"for args in {stages!r}:\n"
        f"    code = run(['--config', {str(config_path)!r}, *args])\n"
        f"    loaded.append([args[0], code, {loaded}])\n"
        "print(json.dumps([numpy_ma, loaded]))\n")
    numpy_ma, loaded = scipy_modules_after(code)
    assert [entry[:2] for entry in loaded] == [["import", 0]] + [
        [args[0], EXIT_OK] for args in stages]
    assert [yaml for _, _, (yaml, _) in loaded] == [False] * 5
    assert [ma for _, _, (_, ma) in loaded[:4]] == [numpy_ma] * 4


def test_module_entry_point_exit_codes(tmp_path):
    config_path = corpus.write_corpus(tmp_path, n_flights=5, seed=0)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def trafgen(*args):
        return subprocess.run([sys.executable, "-m", "trafgen", *args],
                              env=env, capture_output=True, text=True)

    bad = trafgen("--config", str(config_path), "generate", "--count", "-3")
    assert bad.returncode == EXIT_USAGE
    assert "error: argument --count" in bad.stderr
    ok = trafgen("--config", str(config_path), "ingest")
    assert ok.returncode == EXIT_OK, ok.stderr
    assert (tmp_path / "out" / "rv_dataset.npy").exists()


def test_unknown_command_is_usage_error(pipeline):
    _, config_path = pipeline
    assert run(["--config", str(config_path), "frobnicate"]) == EXIT_USAGE


def test_missing_dataset_exit_code_names_path(tmp_path, capsys):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    # no ingest ran: select must fail naming the dataset's meta, read first
    code = run(["--config", str(config_path), "select"])
    assert code == EXIT_DATA
    assert "rv_dataset.meta.json" in capsys.readouterr().err


def test_missing_config_file_is_data_error(tmp_path):
    assert run(["--config", str(tmp_path / "nope.cfg"), "ingest"]) == EXIT_DATA


def test_no_flight_reaches_iap_gives_empty_dataset_error(tmp_path, capsys):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    # arrivals that land 1.6 NM south of the field, far from the IAP path
    n = 30
    lines = ["id,time,lat,lon,alt"]
    for i in range(3):
        y = np.linspace(-40000.0, -3000.0, n)
        enu = np.column_stack([np.zeros(n), y, np.linspace(2000.0, 3.0, n)])
        lat, lon, alt = enu_to_wgs84(enu, corpus.AIRSPACE)
        for t, la, lo, af in zip(np.arange(n) * 20.0, lat, lon, alt):
            lines.append(f"X{i},{float(t + i * 700)!r},{float(la)!r},"
                         f"{float(lo)!r},{float(af)!r}")
    (tmp_path / "tracks.csv").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    code = run(["--config", str(config_path), "ingest"])
    assert code == EXIT_DATA
    assert "empty" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, pipeline):
    base, _ = pipeline
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    # degenerate pairwise model whose mean inter-arrival time is negative
    d = 3 * corpus.T_V + 2
    dim = 2 * d + 1
    mean = np.zeros(dim)
    mean[0] = mean[d + 1] = 300.0
    mean[1] = mean[d + 2] = 9000.0
    mean[d] = -50.0
    model_doc = {
        "format": "trafgen-mixture/1",
        "segment_kind": "pairwise",
        "n_components": 1,
        "dimension": dim,
        "components": [{
            "weight": 1.0,
            "mean": mean.tolist(),
            "cov_factor": [[] for _ in range(dim)],
            "noise_var": 0.0,
        }],
    }
    combos = ["RV_WEST|RV_WEST", "RV_WEST|RV_SOUTH",
              "RV_SOUTH|RV_WEST", "RV_SOUTH|RV_SOUTH"]
    doc = {
        "format": "trafgen-pairwise/1",
        "segment": "radar_vector",
        "models": {key: model_doc for key in combos},
    }
    (out / "model_pairwise.json").write_text(json.dumps(doc), encoding="utf-8")
    code = run(["--config", str(config_path), "generate-scenes",
                "--count", "1", "--aircraft", "2"])
    assert code == EXIT_NUMERICAL


def test_untrained_pair_combinations_are_named_before_sampling(tmp_path, capsys):
    # 20 flights leave some of the four procedure pairs under the minimum
    config_path = corpus.write_corpus(tmp_path, n_flights=20, seed=0)
    for args in (["ingest"], ["train-pairwise"]):
        assert run(["--config", str(config_path), *args]) == EXIT_OK
    out = tmp_path / "out"
    log = json.loads((out / "train_pairwise_log.json").read_text())
    missing = sorted(set(log["groups"]) - set(log["trained"]))
    assert missing and log["trained"]
    assert log["skipped"] == {key: log["groups"][key] for key in missing}
    # k_pairwise = 1 in the test corpus
    assert all(log["groups"][key] < multi_model.MIN_SAMPLES_PER_COMPONENT
               for key in missing)
    capsys.readouterr()
    code = run(["--config", str(config_path), "generate-scenes",
                "--count", "20", "--aircraft", "2"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert str(out / "model_pairwise.json") in err
    assert all(key in err for key in missing)
    assert not (out / "scenes.csv").exists()


def test_procedure_name_with_a_pipe_fails_train_pairwise(tmp_path, capsys):
    # a pairwise model key joins two procedure names with "|"
    config_path = corpus.write_corpus(tmp_path, n_flights=40, seed=0)
    yaml_path = tmp_path / "procedures.yaml"
    yaml_path.write_text(yaml_path.read_text(encoding="utf-8").replace(
        "RV_WEST", "RV|WEST"), encoding="utf-8")
    assert run(["--config", str(config_path), "ingest"]) == EXIT_OK
    out = tmp_path / "out"
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert run(["--config", str(config_path), "train-pairwise"]) == EXIT_DATA
    assert (f"data error: {out / 'rv_dataset.meta.json'}: procedure 'RV|WEST' "
            "contains '|', which joins pairwise model keys"
            in capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == before


@pytest.mark.parametrize("old, new", [("RV_WEST", "RV|WEST"),
                                      ("RV_WEST|RV_WEST", "RV_WEST")],
                         ids=["pipe_in_name", "one_name"])
def test_pairwise_key_must_join_two_names(tmp_path, capsys, pipeline, old, new):
    # every combination has a model, but some keys do not split in two
    base, _ = pipeline
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    yaml_path = tmp_path / "procedures.yaml"
    yaml_path.write_text(yaml_path.read_text(encoding="utf-8").replace(old, new),
                         encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    doc = json.loads((base / "out" / "model_pairwise.json").read_text(
        encoding="utf-8"))
    doc["models"] = {key.replace(old, new): model
                     for key, model in doc["models"].items()}
    (out / "model_pairwise.json").write_text(json.dumps(doc), encoding="utf-8")
    malformed = [key for key in doc["models"] if key.count("|") != 1]
    assert malformed
    assert run(["--config", str(config_path), "generate-scenes",
                "--count", "2", "--aircraft", "2"]) == EXIT_DATA
    assert (f"data error: {out / 'model_pairwise.json'}: malformed pairwise "
            f"model: key {malformed[0]!r} is not two procedure names joined "
            "by '|'" in capsys.readouterr().err)
    assert not (out / "scenes.csv").exists()


def test_pairwise_model_of_another_t_v_fails_before_any_draw(tmp_path, capsys):
    config_path = corpus.write_corpus(tmp_path, n_flights=60, seed=0)
    for args in (["ingest"], ["train-pairwise"]):
        assert run(["--config", str(config_path), *args]) == EXIT_OK
    text = config_path.read_text(encoding="utf-8")
    t_v = corpus.T_V + 10
    config_path.write_text(text.replace(f"t_v = {corpus.T_V}\n", f"t_v = {t_v}\n"),
                           encoding="utf-8")
    capsys.readouterr()
    code = run(["--config", str(config_path), "generate-scenes",
                "--count", "5", "--aircraft", "3"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    out = tmp_path / "out"
    assert str(out / "model_pairwise.json") in err
    assert f"[{2 * (3 * corpus.T_V + 2) + 1}]" in err
    assert f"2*(3*T_v+2)+1 = {2 * (3 * t_v + 2) + 1}" in err
    assert not (out / "scenes.csv").exists()
    # an odd dimension that is 2(3T+2)+1 for no T: the CLI names the file,
    # and the library refuses to assemble from it
    doc = json.loads((out / "model_pairwise.json").read_text(encoding="utf-8"))
    odd = MixtureModel(components=[GaussianComponent(
        weight=1.0, mean=np.ones(9), cov_factor=np.zeros((9, 1)), noise_var=1.0)])
    doc["models"] = {key: model_to_dict(odd, "pairwise") for key in doc["models"]}
    (out / "model_pairwise.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run(["--config", str(config_path), "generate-scenes",
                "--count", "5", "--aircraft", "3"]) == EXIT_DATA
    assert (f"data error: {out / 'model_pairwise.json'}: pairwise model "
            f"dimensions [9] != 2*(3*T_v+2)+1 = {2 * (3 * t_v + 2) + 1}"
            in capsys.readouterr().err)
    with pytest.raises(ValueError, match=re.escape(
            "pairwise model dimensions [9] != 2*(3*T+2)+1 for any T")):
        multi_model.assemble_scene_params({("A", "A"): odd}, ["A", "A"], 0)
    assert not (out / "scenes.csv").exists()


# ---------------------------------------------------------------------------
# config plumbing

def test_run_config_round_trip(tmp_path):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    cfg = RunConfig.from_file(config_path)
    assert cfg.t_v == corpus.T_V
    assert cfg.k_grid == [2, 3, 4]
    assert cfg.airspace.radius_nm == 25.0
    assert cfg.pairing_window_s == 180.0


# a value other than its default for every RunConfig field but airspace, in
# field order, and the value each is read as
NON_DEFAULT = {
    "tracks": ("in/t.csv", Path("in/t.csv")),
    "procedures": ("p.yaml", Path("p.yaml")),
    "out_dir": ("o", Path("o")), "t_v": ("12", 12), "t_f": ("7", 7),
    "n_overlap": ("3", 3), "k_grid": ("2, 5,", [2, 5]),
    "rank_grid": ("3,1", [3, 1]), "pairing_window_s": ("90.5", 90.5),
    "segment_threshold_nm": ("0.25", 0.25), "seed": ("4", 4),
    "k_rv": ("3", 3), "k_fa": ("5", 5), "rank_rv": ("2", 2),
    "rank_fa": ("6", 6), "k_pairwise": ("2", 2), "rank_pairwise": ("7", 7)}


def test_every_config_field_round_trips(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("origin_lat = 1\norigin_lon = 2\n" + "".join(
        f"{key} = {raw}\n" for key, (raw, _) in NON_DEFAULT.items()),
        encoding="utf-8")
    cfg = RunConfig.from_file(path)
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "airspace", *NON_DEFAULT]
    read = {key: getattr(cfg, key) for key in NON_DEFAULT}
    expected = {key: value for key, (_, value) in NON_DEFAULT.items()}
    for key in ("tracks", "procedures", "out_dir"):
        expected[key] = tmp_path / expected[key]
    assert read == expected
    assert [type(v) for v in read.values()] == [type(v) for v in expected.values()]
    default = RunConfig(airspace=cfg.airspace)
    assert [key for key in NON_DEFAULT
            if getattr(default, key) == expected[key]] == []


@pytest.mark.parametrize("keys, reason", [
    ({"t_v": "1.5"}, "invalid literal for int() with base 10: '1.5'"),
    ({"k_rv": "two"}, "invalid literal for int() with base 10: 'two'"),
    ({"pairing_window_s": "fast"}, "could not convert string to float: 'fast'"),
    ({"k_grid": "2,x"}, "invalid literal for int() with base 10: 'x'"),
    ({"radius_nm": "far"}, "could not convert string to float: 'far'"),
    ({"t_f": "late", "t_v": "early"},
     "invalid literal for int() with base 10: 'early'"),
    # the origin follows a track row's coordinate rule, so a longitude is
    # not wrapped around
    ({"origin_lat": "140.6413"}, "origin_lat 140.6413 outside [-90, 90]"),
    ({"origin_lon": "286.2219"}, "origin_lon 286.2219 outside [-180, 180]"),
    ({"origin_lat": "nan"}, "origin_lat must be finite, got nan"),
    ({"radius_nm": "nan"}, "radius_nm must be finite, got nan"),
    ({"origin_alt_ft": "inf"}, "origin_alt_ft must be finite, got inf"),
    ({"segment_threshold_nm": "nan"},
     "segment_threshold_nm must be finite and positive, got nan"),
    ({"segment_threshold_nm": "-1"},
     "segment_threshold_nm must be finite and positive, got -1.0"),
], ids=["int", "optional_int", "float", "int_list", "airspace_float",
        "first_bad_field", "origin_lat_range", "origin_lon_range",
        "nan_origin_lat", "nan_radius", "inf_origin_alt", "nan_threshold",
        "negative_threshold"])
def test_bad_config_values_are_data_errors(tmp_path, capsys, keys, reason):
    # Path fields take any string, so they have no bad value; two bad
    # values report the one whose field comes first
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    set_config_keys(config_path, **keys)
    assert run(["--config", str(config_path), "ingest"]) == EXIT_DATA
    assert (f"data error: {config_path}: malformed config file: {reason}\n"
            == capsys.readouterr().err)


def test_run_config_defaults_and_nonpositive_lengths(tmp_path, capsys):
    path = tmp_path / "minimal.cfg"
    path.write_text("origin_lat = 1\norigin_lon = 2\n", encoding="utf-8")
    cfg = RunConfig.from_file(path)
    assert (cfg.tracks, cfg.procedures, cfg.out_dir) == (
        tmp_path / "tracks.csv", tmp_path / "procedures.yaml", tmp_path / "out")
    assert (cfg.t_v, cfg.t_f, cfg.n_overlap) == (350, 150, 10)
    assert cfg.k_grid == [2, 3, 4, 5, 6] and cfg.seed == 0
    assert cfg.rank_rv is None and not hasattr(cfg, "pairwise_segment")
    path.write_text("origin_lat = 1\norigin_lon = 2\nn_overlap = 0\n",
                    encoding="utf-8")
    assert run(["--config", str(path), "ingest"]) == EXIT_DATA
    assert f"{path}: malformed config file: n_overlap must be in [1, T_f)" in \
        capsys.readouterr().err
    # ingest opens final-approach rows with n_overlap - 1 radar-vector samples
    path.write_text("origin_lat = 1\norigin_lon = 2\nt_f = 10\nn_overlap = 10\n",
                    encoding="utf-8")
    assert run(["--config", str(path), "ingest"]) == EXIT_DATA
    assert f"{path}: malformed config file: n_overlap must be in [1, T_f)" in \
        capsys.readouterr().err


def test_run_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("origin_lat = 1\norigin_lon = 2\nbogus = 3\n",
                    encoding="utf-8")
    with pytest.raises(Exception):
        RunConfig.from_file(path)


def test_threads_is_neither_a_config_key_nor_a_flag(tmp_path, capsys):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    # nor are --seed (the config's seed is the only seed) and review-paths
    # --samples (nominal paths take procedures.NOMINAL_SAMPLES)
    for args in (["--threads", "2", "ingest"], ["--seed", "1", "ingest"],
                 ["review-paths", "--k", "2", "--samples", "40"]):
        assert run(["--config", str(config_path), *args]) == EXIT_USAGE
    base = config_path.read_text(encoding="utf-8")
    # nor are the procedure-timing keys, which nothing reads, nor the field
    # that holds the airspace keys
    for key, value in (("threads", "2"), ("proximity_nm", "0.5"),
                       ("default_speed_kts", "140"), ("airspace", "1")):
        config_path.write_text(f"{base}{key} = {value}\n", encoding="utf-8")
        assert run(["--config", str(config_path), "ingest"]) == EXIT_DATA
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_substreams_are_stable_and_distinct():
    a1 = substream(7, "train").standard_normal(4)
    a2 = substream(7, "train").standard_normal(4)
    b = substream(7, "generate").standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_every_public_definition_is_used_or_documented():
    # a public module-level def or class that no other code in the package
    # names, and that README.md does not document, is dead API
    package = Path(cli.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    readme = Path(__file__).parents[1] / "README.md"
    named |= set(re.findall(r"\w+", readme.read_text(encoding="utf-8")))
    unused = [f"{module}:{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in named]
    assert unused == []


def test_every_config_key_is_documented():
    # the README's config reference names every key RunConfig.from_file reads
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    keys = [f.name for config in (RunConfig, cli.AirspaceConfig)
            for f in dataclasses.fields(config) if f.name != "airspace"]
    assert [key for key in keys if f"`{key}`" not in readme] == []


def test_every_flag_is_documented():
    # the README's CLI section names every long option of the parser and
    # its subcommands (argparse's own --help aside), and no `--flag` in
    # backticks that the parser lacks
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    parsers, flags = [cli._build_parser()], set()
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif action.dest != "help":
                flags.update(o for o in action.option_strings if o.startswith("--"))
    assert [flag for flag in sorted(flags)
            if not re.search(rf"(?<![\w-]){flag}(?![\w-])", section)] == []
    assert sorted(set(re.findall(r"`(--[\w-]+)", section)) - flags) == []


DIGESTED = ["eval_scenes/metrics_report.json", *(f"out/{name}" for name in (
    "fa_dataset.meta.json", "fa_dataset.npy", "ingest_report.json",
    "metrics_report.json", "model_fa.json", "model_pairwise.json",
    "model_rv.json", "nominal_paths.yaml", "rv_dataset.meta.json",
    "rv_dataset.npy", "scenes.csv", "scenes.meta.json",
    "selection_report.json", "train_log.json", "train_pairwise_log.json",
    "trajectories.csv", "trajectories.meta.json"))]


def test_artefact_digests_tool_runs_every_command():
    script = Path(__file__).resolve().parent / "artefact_digests.py"

    def digests():
        return subprocess.run(
            [sys.executable, str(script), "--flights", "40", "--count", "20",
             "--scenes", "2"], check=True, capture_output=True, text=True).stdout

    first = digests()
    lines = first.splitlines()
    commands = [line for line in lines if line.startswith("exit ")]
    assert len(commands) == 10
    # the last evaluates a ground truth with a bad row
    assert all(line.startswith("exit 0 ") for line in commands[:-1]), commands
    assert commands[-1].startswith("exit 2 ")
    digested = [line.split("  ", 1) for line in lines[len(commands):]]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _ in digested)
    assert [path for _, path in digested] == DIGESTED
    assert digests() == first
