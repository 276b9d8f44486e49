"""Correctness checks on the artefacts of each benchmarked stage.

Every check returns a list of problems; an empty list means the output
passed. A stage whose output has any problem counts as a failed operation.
The checks read files only and never import trafgen.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def ingest(out: Path, procedure_of: dict[str, str]) -> list[str]:
    """Every flight retained, each assigned the procedure that generated it."""
    problems = []
    report = _read_json(out / "ingest_report.json")
    n = len(procedure_of)
    for key in ("arrivals_retained", "rv_rows", "fa_rows"):
        if report[key] != n:
            problems.append(f"{key} = {report[key]}, expected {n}")
    rows = _read_json(out / "rv_dataset.meta.json")["rows"]
    wrong = [r["flight_id"] for r in rows
             if procedure_of.get(r["flight_id"]) != r["procedure"]]
    if wrong:
        problems.append(f"{len(wrong)} flights assigned the wrong procedure, "
                        f"first {wrong[0]}")
    return problems


def selection(out: Path, k_grid: list[int], rank_grid: list[int]) -> list[str]:
    problems = []
    report = _read_json(out / "selection_report.json")
    for segment in ("radar_vector", "final_approach"):
        entry = report.get(segment)
        if entry is None:
            problems.append(f"no {segment} selection")
            continue
        if entry["n_components"] not in k_grid or entry["rank"] not in rank_grid:
            problems.append(f"{segment} choice outside the grids")
        curves = entry["silhouette_curve"] + entry["rank_curve"]
        if not _finite([v for _, v in curves]):
            problems.append(f"{segment} curves are not finite")
    return problems


def mixture(doc: dict, dimension: int, name: str) -> list[str]:
    """Dimension, weights summing to 1 and finite values of one model."""
    problems = []
    comps = doc.get("components", [])
    if doc.get("format") != "trafgen-mixture/1" or not comps:
        return [f"{name}: not a trafgen-mixture/1 model"]
    weights = [c["weight"] for c in comps]
    if abs(sum(weights) - 1.0) > 1e-9:
        problems.append(f"{name}: weights sum to {sum(weights)!r}")
    for j, comp in enumerate(comps):
        mean = np.asarray(comp["mean"], dtype=float)
        factor = np.asarray(comp["cov_factor"], dtype=float)
        if mean.shape != (dimension,) or factor.ndim != 2 \
                or factor.shape[0] != dimension:
            problems.append(f"{name}[{j}]: dimension {mean.shape} / "
                            f"{factor.shape}, expected {dimension}")
        if not (_finite(mean) and _finite(factor) and _finite([comp["noise_var"]])
                and _finite(weights)):
            problems.append(f"{name}[{j}]: non-finite values")
    return problems


def models(out: Path, t_v: int, t_f: int) -> list[str]:
    return (mixture(_read_json(out / "model_rv.json"), 3 * t_v + 2, "model_rv")
            + mixture(_read_json(out / "model_fa.json"), 3 * t_f + 2, "model_fa"))


def pairwise(out: Path, t_v: int) -> list[str]:
    doc = _read_json(out / "model_pairwise.json")
    if doc.get("format") != "trafgen-pairwise/1" or not doc.get("models"):
        return ["model_pairwise: no trafgen-pairwise/1 models"]
    problems = []
    for key, model in doc["models"].items():
        problems += mixture(model, 2 * (3 * t_v + 2) + 1, f"pairwise {key}")
    return problems


def _read_rows(path: Path, key_columns: int) -> dict[tuple, np.ndarray]:
    """CSV rows grouped by their leading key columns, values as floats."""
    groups: dict[tuple, list] = defaultdict(list)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            groups[tuple(row[:key_columns])].append(
                [float(v) for v in row[key_columns:]])
    return {k: np.asarray(v) for k, v in groups.items()}


def trajectories(path: Path, count: int, t_v: int, t_f: int,
                 n_overlap: int) -> list[str]:
    """Row counts, rising times, finite values and a continuous join.

    A trajectory has T_v + T_f rows, or T_v + T_f - n_overlap + 1 when the
    overlap is emitted once. The step from its last radar-vector sample to
    its first final-approach sample may be no faster than its fastest other
    step.
    """
    problems = []
    groups = _read_rows(path, 1)
    if sorted(groups) != sorted((str(i),) for i in range(count)):
        problems.append(f"{len(groups)} trajectory ids, expected 0..{count - 1}")
    lengths = {t_v + t_f, t_v + t_f - n_overlap + 1}
    jumps = 0
    for (traj_id,), rows in groups.items():
        if len(rows) not in lengths:
            problems.append(f"trajectory {traj_id}: {len(rows)} rows")
            continue
        if not _finite(rows):
            problems.append(f"trajectory {traj_id}: non-finite values")
            continue
        dt = np.diff(rows[:, 0])
        if np.any(dt <= 0):
            problems.append(f"trajectory {traj_id}: times do not rise strictly")
            continue
        speed = np.linalg.norm(np.diff(rows[:, 1:3], axis=0), axis=1) / dt
        join = t_v - 1
        if speed[join] > np.delete(speed, join).max():
            jumps += 1
    if jumps:
        problems.append(f"{jumps} of {len(groups)} trajectories step faster "
                        "across the join than anywhere else")
    return problems


def scenes(out: Path, count: int, n_aircraft: int, t_v: int) -> list[str]:
    """Row counts match the request and no inter-arrival time is negative."""
    problems = []
    groups = _read_rows(out / "scenes.csv", 2)
    rows = sum(len(v) for v in groups.values())
    if rows != count * n_aircraft * t_v or len(groups) != count * n_aircraft:
        problems.append(f"{rows} scene rows in {len(groups)} tracks, expected "
                        f"{count * n_aircraft * t_v} in {count * n_aircraft}")
    if not all(_finite(v) for v in groups.values()):
        problems.append("scene values are not finite")
    meta = _read_json(out / "scenes.meta.json")["scenes"]
    if len(meta) != count:
        problems.append(f"{len(meta)} scenes in the sidecar, expected {count}")
    gaps = [g for scene in meta for g in scene["inter_arrival_times"]]
    if any(not math.isfinite(g) or g < 0 for g in gaps):
        problems.append("an inter-arrival time is negative or not finite")
    return problems


def evaluation(path: Path, limits: dict[str, float]) -> list[str]:
    """Every JS divergence in [0, 1]; named variables within their limits."""
    problems = []
    variables = _read_json(path)["variables"]
    for name, entry in variables.items():
        if entry is None:
            continue
        js = entry["js_divergence"]
        if not 0.0 <= js <= 1.0:
            problems.append(f"{name}: JS divergence {js!r} outside [0, 1]")
        elif name in limits and js > limits[name]:
            problems.append(f"{name}: JS divergence {js:.4f} > {limits[name]}")
    missing = [name for name in limits if variables.get(name) is None]
    if missing:
        problems.append(f"no divergence for {missing}")
    return problems
