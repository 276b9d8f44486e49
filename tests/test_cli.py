"""CLI pipeline: commands, file formats, determinism, and exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from trafgen.cli import (EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                         RunConfig, read_deviation_dataset,
                         read_trajectory_file, run, substream)
from trafgen.ingest import enu_to_wgs84

import corpus


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
    rv, rv_meta = read_deviation_dataset(out / "rv_dataset.csv")
    fa, fa_meta = read_deviation_dataset(out / "fa_dataset.csv")
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
              for name in ("rv_dataset.csv", "fa_dataset.csv",
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
    from trafgen.mixture import sample_many

    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    gt = corpus.ground_truth_model()
    out = tmp_path / "out"
    for model, name, t_len in (
            (gt.radar_vector_model, "rv_dataset.csv", corpus.T_V),
            (gt.final_approach_model, "fa_dataset.csv", corpus.T_F)):
        data, _ = sample_many(model, 400, np.random.default_rng(1))
        rows = [{"flight_id": f"S{i}", "procedure": "RV_WEST",
                 "arrival_time": 100.0 * i} for i in range(len(data))]
        write_deviation_dataset(out / name, data, model.segment_kind, t_len,
                                rows)
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


def test_train_rerun_identical_models(pipeline):
    base, config_path = pipeline
    out = base / "out"
    before = read_bytes(out / "model_rv.json")
    assert run(["--config", str(config_path), "train"]) == EXIT_OK
    assert read_bytes(out / "model_rv.json") == before


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


def test_ingest_threaded_matches_single_threaded(tmp_path):
    config_path = corpus.write_corpus(tmp_path, n_flights=30, seed=3)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["--config", str(config_path), "--out", str(out1),
                "ingest"]) == EXIT_OK
    assert run(["--config", str(config_path), "--out", str(out2),
                "--threads", "4", "ingest"]) == EXIT_OK
    for name in ("rv_dataset.csv", "fa_dataset.csv", "rv_dataset.meta.json",
                 "ingest_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


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
                "--samples", "40", "--keep", "0"])
    assert code == EXIT_OK
    from trafgen.procedures import load_procedures
    kept = load_procedures(base / "out" / "nominal_paths.yaml")
    assert len(kept) == 1
    assert kept[0].kind.value == "radar_vector"


# ---------------------------------------------------------------------------
# exit codes and errors

def test_usage_error_exit_code():
    assert run(["--config"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE


def test_unknown_command_is_usage_error(pipeline):
    _, config_path = pipeline
    assert run(["--config", str(config_path), "frobnicate"]) == EXIT_USAGE


def test_missing_dataset_exit_code_names_path(tmp_path, capsys):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    # no ingest ran: select must fail with the dataset path in the message
    code = run(["--config", str(config_path), "select"])
    assert code == EXIT_DATA
    assert "rv_dataset.csv" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# config plumbing

def test_run_config_round_trip(tmp_path):
    config_path = corpus.write_corpus(tmp_path, n_flights=0, seed=0)
    cfg = RunConfig.from_file(config_path)
    assert cfg.segment_length_rv == corpus.T_V
    assert cfg.component_grid == [2, 3, 4]
    assert cfg.airspace.radius_nm == 25.0
    assert cfg.pairing_window_s == 180.0


def test_run_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("origin_lat = 1\norigin_lon = 2\nbogus = 3\n",
                    encoding="utf-8")
    with pytest.raises(Exception):
        RunConfig.from_file(path)


def test_substreams_are_stable_and_distinct():
    a1 = substream(7, "train").standard_normal(4)
    a2 = substream(7, "train").standard_normal(4)
    b = substream(7, "generate").standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
