"""Tests of the benchmark itself: inputs, checks, tracing and start-up.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL = inputs.Spec(t_v=12, t_f=8, n_overlap=1, flights=40, holdout=20,
                    holdout_scenes=2, scene_aircraft=2, rank_grid="2,4", rank=4)


# ---------------------------------------------------------------------------
# inputs

def test_same_seed_gives_same_digests(tmp_path):
    first = inputs.build(tmp_path / "a", SMALL, seed=5)
    second = inputs.build(tmp_path / "b", SMALL, seed=5)
    other = inputs.build(tmp_path / "c", SMALL, seed=6)
    assert first["digests"] == second["digests"]
    assert first["procedure_of"] == second["procedure_of"]
    assert other["digests"]["tracks.csv"] != first["digests"]["tracks.csv"]
    assert set(first["digests"]) == {"procedures.yaml", "run.cfg", "tracks.csv",
                                     "truth_trajectories.csv", "truth_scenes.csv"}


def test_procedure_paths_match_trafgen(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from trafgen.ingest import AirspaceConfig
    from trafgen.procedures import build_procedural_trajectory, load_procedures

    config = AirspaceConfig(origin_lat=inputs.ORIGIN_LAT,
                            origin_lon=inputs.ORIGIN_LON,
                            origin_alt_ft=inputs.ORIGIN_ALT_FT, radius_nm=25.0)
    inputs.write_procedures(tmp_path / "procedures.yaml")
    waypoints = {**inputs.rv_waypoints(), inputs.IAP_NAME: inputs.IAP_ENU}
    for proc in load_procedures(tmp_path / "procedures.yaml"):
        for count in (12, 40, 350):
            theirs = build_procedural_trajectory(proc, count, config).points
            ours = inputs.procedure_path(waypoints[proc.name], count)
            # horizontally; trafgen's radar-vector altitudes follow the
            # earth's curvature below the reference point's tangent plane
            assert np.abs(theirs[:, :2] - ours[:, :2]).max() < 1.0


def test_final_approach_starts_where_the_radar_vector_ends():
    for t_v, t_f in ((40, 20), (350, 150)):
        for flight in inputs.make_flights(np.random.default_rng(2), 20, t_v, t_f):
            assert np.array_equal(flight.points[t_v - 1], flight.points[t_v])
            assert np.all(np.diff(flight.times) > 0)
            assert np.linalg.norm(flight.points[-1, :2]) < 100.0


def test_paper_models_have_documented_shapes(tmp_path):
    spec = inputs.Spec(t_v=30, t_f=12, n_overlap=3, paper_models=True)
    inputs.build(tmp_path, spec, seed=1)
    out = tmp_path / "out"
    assert checks.models(out, 30, 12) == []
    assert checks.pairwise(out, 30) == []
    doc = json.loads((out / "model_fa.json").read_text())
    assert doc["n_components"] == 3
    assert len(doc["components"][0]["cov_factor"][0]) == 16


# ---------------------------------------------------------------------------
# checks reject planted bad artefacts

def _trajectory_csv(path, trajectories):
    lines = ["traj_id,t,x,y,z"]
    for i, (times, points) in enumerate(trajectories):
        for t, (x, y, z) in zip(times, points):
            lines.append(f"{i},{t!r},{x!r},{y!r},{z!r}")
    path.write_text("\n".join(lines) + "\n")


def _straight(t_v, t_f, speed=70.0, step_s=10.0):
    times = np.arange(t_v + t_f) * step_s
    points = np.column_stack([times * speed, np.zeros_like(times),
                              np.zeros_like(times)])
    return times.tolist(), points.tolist()


def test_trajectory_check_accepts_a_good_file(tmp_path):
    path = tmp_path / "t.csv"
    _trajectory_csv(path, [_straight(5, 4), _straight(5, 4)])
    assert checks.trajectories(path, 2, 5, 4, 1) == []


def test_trajectory_check_rejects_time_going_back(tmp_path):
    times, points = _straight(5, 4)
    times[3], times[4] = times[4], times[3]
    path = tmp_path / "t.csv"
    _trajectory_csv(path, [(times, points)])
    assert any("rise" in p for p in checks.trajectories(path, 1, 5, 4, 1))


def test_trajectory_check_rejects_a_jump_back_at_the_join(tmp_path):
    times, points = _straight(5, 4)
    times[5] = times[4] + 1e-4       # a near-zero step across the join
    points[5] = points[2]            # that retraces two samples
    path = tmp_path / "t.csv"
    _trajectory_csv(path, [(times, points)])
    problems = checks.trajectories(path, 1, 5, 4, 3)
    assert any("join" in p for p in problems)


def test_trajectory_check_rejects_row_count_and_non_finite(tmp_path):
    times, points = _straight(5, 4)
    path = tmp_path / "t.csv"
    _trajectory_csv(path, [(times[:-1], points[:-1])])
    assert any("rows" in p for p in checks.trajectories(path, 1, 5, 4, 1))
    points[2][1] = float("nan")
    _trajectory_csv(path, [(times, points)])
    assert any("non-finite" in p for p in checks.trajectories(path, 1, 5, 4, 1))
    _trajectory_csv(path, [_straight(5, 4)])
    assert checks.trajectories(path, 2, 5, 4, 1)


def _component(dim, weight):
    return {"weight": weight, "mean": [0.0] * dim,
            "cov_factor": [[1.0]] * dim, "noise_var": 1.0}


def test_model_check_rejects_weights_dimension_and_nan():
    good = {"format": "trafgen-mixture/1",
            "components": [_component(5, 0.25), _component(5, 0.75)]}
    assert checks.mixture(good, 5, "m") == []
    assert checks.mixture(good, 8, "m")
    heavy = json.loads(json.dumps(good))
    heavy["components"][0]["weight"] = 0.5
    assert any("sum" in p for p in checks.mixture(heavy, 5, "m"))
    nan = json.loads(json.dumps(good))
    nan["components"][1]["mean"][2] = float("nan")
    assert any("non-finite" in p for p in checks.mixture(nan, 5, "m"))


def test_ingest_check_rejects_lost_flights_and_wrong_procedures(tmp_path):
    (tmp_path / "ingest_report.json").write_text(json.dumps(
        {"arrivals_retained": 2, "rv_rows": 2, "fa_rows": 2}))
    (tmp_path / "rv_dataset.meta.json").write_text(json.dumps({"rows": [
        {"flight_id": "A", "procedure": "P"}, {"flight_id": "B", "procedure": "P"}]}))
    assert checks.ingest(tmp_path, {"A": "P", "B": "P"}) == []
    assert any("wrong procedure" in p
               for p in checks.ingest(tmp_path, {"A": "P", "B": "Q"}))
    assert any("expected 3" in p
               for p in checks.ingest(tmp_path, {"A": "P", "B": "P", "C": "P"}))


def test_scene_check_rejects_negative_gaps_and_missing_rows(tmp_path):
    lines = ["scene_id,aircraft_idx,t,x,y,z"]
    for idx in range(2):
        lines += [f"0,{idx},{t}.0,1.0,2.0,3.0" for t in range(3)]
    (tmp_path / "scenes.csv").write_text("\n".join(lines) + "\n")
    meta = {"scenes": [{"inter_arrival_times": [40.0]}]}
    (tmp_path / "scenes.meta.json").write_text(json.dumps(meta))
    assert checks.scenes(tmp_path, 1, 2, 3) == []
    assert checks.scenes(tmp_path, 1, 2, 4)
    meta["scenes"][0]["inter_arrival_times"] = [-1.0]
    (tmp_path / "scenes.meta.json").write_text(json.dumps(meta))
    assert any("negative" in p for p in checks.scenes(tmp_path, 1, 2, 3))


def test_evaluation_check_rejects_out_of_range_and_over_limit(tmp_path):
    path = tmp_path / "metrics_report.json"
    report = {"variables": {"x_east": {"js_divergence": 0.01},
                            "closest_distance": None}}
    path.write_text(json.dumps(report))
    assert checks.evaluation(path, {"x_east": 0.05}) == []
    assert checks.evaluation(path, {"x_east": 0.001})
    assert checks.evaluation(path, {"y_north": 0.05})
    report["variables"]["x_east"]["js_divergence"] = 1.5
    path.write_text(json.dumps(report))
    assert any("outside" in p for p in checks.evaluation(path, {}))


def test_selection_check_rejects_choices_outside_the_grid(tmp_path):
    entry = {"n_components": 2, "rank": 4, "silhouette_curve": [[2, 0.3]],
             "rank_curve": [[4, -10.0]]}
    (tmp_path / "selection_report.json").write_text(json.dumps(
        {"radar_vector": entry, "final_approach": entry}))
    assert checks.selection(tmp_path, [2], [4]) == []
    assert checks.selection(tmp_path, [3], [4])


# ---------------------------------------------------------------------------
# tracing

def test_layer_metrics_self_time_subtracts_direct_children(tmp_path):
    spans = [["mixture.em_fit", 0.0, 10.0, None],
             ["cluster.kmeans", 1.0, 3.0, 0],
             ["mixture.psd_factor", 4.0, 5.0, 0],
             ["mixture.load_model", 11.0, 12.0, None]]
    path = tmp_path / "train.json"
    path.write_text(json.dumps({"stage": "train", "spans": spans,
                                "counts": {"mixture.em_fit.iterations": 7},
                                "absent": ["mixture.gone"]}))
    metrics, absent = tracer.layer_metrics([path], {"train": 15.0})
    assert metrics["mixture.em_fit.self_s"] == pytest.approx(7.0)
    assert metrics["cluster.kmeans.self_s"] == pytest.approx(2.0)
    assert metrics["mixture.em_fit.calls"] == 1
    assert metrics["cli.train.self_s"] == pytest.approx(4.0)
    assert metrics["mixture.em_fit.iterations"] == 7
    assert metrics["preprocess.dtw_distance.calls"] == 0
    assert absent == ["mixture.gone"]


def test_tracer_wraps_every_binding_and_reports_absent_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import trafgen.cli  # noqa: F401  (loads every trafgen module)
    import trafgen.mixture
    import trafgen.single_model

    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name == "trafgen" or name.startswith("trafgen.")}
    monkeypatch.delattr(trafgen.mixture, "select_rank")
    try:
        t = tracer.Tracer("generate")
        t.install()
        assert "mixture.select_rank" in t.absent
        assert trafgen.single_model.condition is trafgen.mixture.condition
        assert trafgen.mixture.condition.__wrapped__ is saved[
            "trafgen.mixture"]["condition"]
    finally:
        for name, attrs in saved.items():
            vars(sys.modules[name]).update(attrs)


def _run_stages(base: Path, trace_dir: Path | None) -> dict[str, bytes]:
    stages = [["ingest"], ["select"], ["train"], ["train-pairwise"],
              ["generate", "--count", "10"],
              ["generate-scenes", "--count", "2", "--aircraft", "2"],
              ["evaluate", "--actual", "truth_trajectories.csv",
               "--synthetic", "out/trajectories.csv"]]
    for args in stages:
        extra = [] if trace_dir is None else [
            "--trace", str(trace_dir / f"{args[0]}.json"), "--stage", args[0]]
        cmd = [sys.executable, str(BENCH / "stage.py"), "--src", str(ROOT / "src"),
               *extra, "--", "--config", "run.cfg", *args]
        subprocess.run(cmd, cwd=base, check=True, timeout=300)
    return {p.name: p.read_bytes() for p in (base / "out").iterdir()}


def test_traced_and_untraced_runs_write_identical_artefacts(tmp_path):
    inputs.build(tmp_path / "plain", SMALL, seed=3)
    shutil.copytree(tmp_path / "plain", tmp_path / "traced")
    (tmp_path / "spans").mkdir()
    plain = _run_stages(tmp_path / "plain", None)
    traced = _run_stages(tmp_path / "traced", tmp_path / "spans")
    assert len(plain) >= 10
    assert plain == traced
    spans = json.loads((tmp_path / "spans" / "generate.json").read_text())
    names = {s[0] for s in spans["spans"]}
    assert {"single_model.generate", "mixture.condition", "mixture.sample"} <= names


# ---------------------------------------------------------------------------
# entry point

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "corpus-2k", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_metric_lists_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(run.per_layer_units())
    assert {m["unit"] for m in doc["per_layer"]} <= set(run.per_layer_units().values())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert not set(run.KNOWN_DEFECTS) & set(run.WORKLOADS)
