"""Command-line front end for the ingest/select/train/generate/evaluate pipeline.

All randomness flows from the single configured seed through named
substreams, so every command is reproducible byte-for-byte given the same
config and inputs. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import metrics, multi_model, preprocess, procedures, single_model
from ._files import (json_int, read_deviation_dataset, read_json, read_keyvalue,
                     read_trajectory_file, write_deviation_dataset, write_json,
                     write_trajectory_csv)
from .errors import DataError, NumericalError
from .ingest import AirspaceConfig, FlightClass, classify_flight, flight_to_enu, \
    parse_tracks
from .mixture import (check_finite, compress_model, em_fit, load_model,
                      model_document, model_from_dict, save_model,
                      select_rank, substream, write_models)
from .units import NM_TO_M

logger = logging.getLogger(__name__)

PAIRWISE_FORMAT = "trafgen-pairwise/1"

# rejected track records quoted in the parse WARNING; the report lists all
MAX_LOGGED_PARSE_ERRORS = 5
_EMPTY_DATASET = "ingest produced an empty deviation dataset"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Run configuration

@dataclass
class RunConfig:
    """A run's settings; every field but ``airspace`` is the config key of
    that name, and ``airspace`` holds the keys of :class:`AirspaceConfig`."""

    airspace: AirspaceConfig
    tracks: Path = Path("tracks.csv")
    procedures: Path = Path("procedures.yaml")
    out_dir: Path = Path("out")
    t_v: int = 350
    t_f: int = 150
    n_overlap: int = 10
    k_grid: list[int] = field(default_factory=lambda: [2, 3, 4, 5, 6])
    rank_grid: list[int] = field(default_factory=lambda: [1, 2, 4, 8, 16])
    pairing_window_s: float = multi_model.DEFAULT_PAIRING_WINDOW_S
    segment_threshold_nm: float = 1.0
    seed: int = 0
    k_rv: int | None = None
    k_fa: int | None = None
    rank_rv: int | None = None
    rank_fa: int | None = None
    k_pairwise: int = 1
    rank_pairwise: int = 8

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Read a ``key = value`` config; paths are relative to its folder."""
        return read_keyvalue(path, "config file",
                             lambda values: cls._from_values(values, Path(path)))

    @classmethod
    def _from_values(cls, values: dict[str, str], path: Path) -> "RunConfig":
        # airspace keys are parsed in file order, the others in field order;
        # a missing origin_lat or origin_lon is a TypeError here
        airspace = AirspaceConfig(
            **_pop_fields(AirspaceConfig, values, list(values)))
        kwargs = _pop_fields(cls, values, [f.name for f in dataclass_fields(cls)])
        if values:
            raise DataError(f"{path}: unknown config keys: {sorted(values)}")
        cfg = cls(airspace=airspace, **kwargs)
        for name in ("tracks", "procedures", "out_dir"):
            setattr(cfg, name, path.parent / getattr(cfg, name))
        if cfg.seed < 0:
            raise ValueError(f"seed must be at least 0, got {cfg.seed}")
        single_model.check_segment_lengths(cfg.t_v, cfg.t_f, cfg.n_overlap)
        return cfg


# the parser of a config value, by the annotation of the field it sets
_PARSERS = {"Path": Path, "int": int, "int | None": int, "float": float,
            "list[int]": lambda raw: [int(v) for v in raw.split(",") if v.strip()]}


def _pop_fields(cls, values: dict[str, str], keys: list[str]) -> dict:
    """Each of ``keys`` that is in ``values`` and names a field of ``cls``
    with a parser, taken out of ``values`` and parsed, in the order given."""
    types = {f.name: f.type for f in dataclass_fields(cls)}
    return {key: _PARSERS[types[key]](values.pop(key)) for key in keys
            if key in values and types.get(key) in _PARSERS}


# ---------------------------------------------------------------------------
# Segments

@dataclass(frozen=True)
class _Segment:
    """One segment as the commands handle it: the kind its files and reports
    record, its files in the output directory, its length T with the symbol
    that messages use for it, and the config's component-count and rank
    overrides (None: read from ``selection_report.json``)."""

    kind: str
    dataset: Path
    model: Path
    length: int
    symbol: str
    n_components: int | None
    rank: int | None


def _segments(config: RunConfig) -> tuple[_Segment, _Segment]:
    """The radar-vector and the final-approach segment of ``config``."""
    out = config.out_dir
    return (_Segment("radar_vector", out / "rv_dataset.npy", out / "model_rv.json",
                     config.t_v, "T_v", config.k_rv, config.rank_rv),
            _Segment("final_approach", out / "fa_dataset.npy",
                     out / "model_fa.json", config.t_f, "T_f", config.k_fa,
                     config.rank_fa))


# ---------------------------------------------------------------------------
# Commands

def _load_procedural_trajectories(config: RunConfig) -> tuple[
        list[str], np.ndarray, list[float], str, np.ndarray]:
    """The radar-vector procedures' names, procedural points (R, T_v, 3) and
    frequencies scaled to sum to 1, and the IAP's name and points (T_f, 3)."""
    procs = procedures.load_procedures(config.procedures)
    rv_procs = [p for p in procs if p.kind is procedures.ProcedureKind.RADAR_VECTOR]
    iaps = [p for p in procs if p.kind is procedures.ProcedureKind.IAP]
    if not rv_procs:
        raise DataError(f"{config.procedures}: no radar-vector procedures")
    if len(iaps) != 1:
        raise DataError(f"{config.procedures}: expected exactly 1 IAP, "
                        f"found {len(iaps)}")
    try:  # a repeated waypoint
        rv_trajs = [procedures.build_procedural_trajectory(
            p, config.t_v, config.airspace) for p in rv_procs]
        iap = procedures.build_procedural_trajectory(iaps[0], config.t_f,
                                                     config.airspace)
    except ValueError as exc:
        raise DataError(f"{config.procedures}: {exc}") from exc
    total = float(sum(p.frequency for p in rv_procs))
    if not 0 < total < np.inf:
        raise DataError(f"{config.procedures}: frequencies must have a positive "
                        "finite total")
    return ([p.name for p in rv_procs], np.stack([t.points for t in rv_trajs]),
            [p.frequency / total for p in rv_procs], iaps[0].name, iap.points)


def _read_arrivals(config: RunConfig) -> tuple[list, list[str], list, list[dict]]:
    """The flights of the config's track file and its rejected records (one
    WARNING gives their count and the first few), the arrivals as (flight,
    ENU track), and an exclusion for every other flight.

    All flights are converted to ENU, then classified, in one call each; the
    tracks are reused.
    """
    flights, errors = parse_tracks(config.tracks)
    if errors:
        shown = errors[:MAX_LOGGED_PARSE_ERRORS]
        logger.warning("parse: %d records rejected; first %d: %s",
                       len(errors), len(shown), "; ".join(shown))
    tracks = flight_to_enu(flights, config.airspace)
    classes, rejected = classify_flight(tracks, config.airspace)
    arrivals, exclusions = [], []
    for row, (flight, track, kind) in enumerate(zip(flights, tracks, classes)):
        if kind is FlightClass.ARRIVAL:
            arrivals.append((flight, track))
        else:
            exclusions.append({"flight": flight.id, "reason": (
                f"classified as {kind.value}" if kind else
                f"flight {flight.id!r}: {rejected[row]}")})
    return flights, errors, arrivals, exclusions


def cmd_ingest(config: RunConfig) -> int:
    """Parse tracks, classify arrivals, segment, and write deviation datasets.

    Each step is one kernel call over all flights, over all arrivals, or
    over all parts of one segment: ENU conversion, classification,
    segmentation, resampling, procedure assignment (DTW) and deviation
    vectors. An arrival is excluded with the reason a kernel gives for the
    first of its rows that it rejects.
    """
    flights, parse_errors, arrivals, exclusions = _read_arrivals(config)
    if not arrivals:
        raise DataError("no arrival flights after classification")
    names, proc_points, _, iap_name, iap_points = _load_procedural_trajectories(config)

    # 1. split every arrival. The radar-vector part runs up TO the handoff
    # point; a final-approach row opens with the n_overlap - 1 radar-vector
    # samples before it and resamples the track FROM it, so its first
    # n_overlap samples are the tail generate conditions on
    n_lead = config.n_overlap - 1
    times, xyz = zip(*(track for _, track in arrivals))
    boundaries, failed = preprocess.segment_trajectory(
        xyz, iap_points, config.segment_threshold_nm * NM_TO_M)
    # the arrivals that have each part, as masks and as sorted ids
    has_rv = boundaries >= 1
    has_rv[list(failed)] = False  # a track that never joins has no part
    has_fa = ((np.array([len(t) for t in times]) - boundaries >= 2)
              & (has_rv | (n_lead == 0)))
    rv_ids, fa_ids = np.flatnonzero(has_rv), np.flatnonzero(has_fa)
    if not rv_ids.size or not fa_ids.size:
        raise DataError(_EMPTY_DATASET)

    # 2. resample each segment's parts in one call
    rv_times, rv_points, rv_rejected = preprocess.pchip_resample(
        [times[a][:boundaries[a] + 1] for a in rv_ids],
        [xyz[a][:boundaries[a] + 1] for a in rv_ids], config.t_v)
    fa_times, fa_points, fa_rejected = preprocess.pchip_resample(
        [times[a][boundaries[a]:] for a in fa_ids],
        [xyz[a][boundaries[a]:] for a in fa_ids], config.t_f - n_lead)

    # 3. final-approach rows of every part
    if n_lead:
        lead = np.searchsorted(rv_ids, fa_ids)
        fa_times = np.concatenate([rv_times[lead, -n_lead - 1:-1], fa_times], axis=1)
        fa_points = np.concatenate([rv_points[lead, -n_lead - 1:-1], fa_points],
                                   axis=1)
    fa_rows, fa_invalid = preprocess.build_deviation_vector(
        fa_times, fa_points, iap_points)
    # an arrival keeps its first failure
    for ids, rejected in ((rv_ids, rv_rejected), (fa_ids, fa_rejected),
                          (fa_ids, fa_invalid)):
        for row, message in rejected.items():
            failed.setdefault(int(ids[row]), message)

    # every exclusion in arrival order, then each part too short to resample
    exclusions += [{"flight": arrivals[a][0].id, "reason": failed[a]}
                   for a in sorted(failed)]
    exclusions += [{"flight": arrivals[a][0].id, "reason": f"{part} segment too short"}
                   for a in range(len(arrivals)) if a not in failed
                   for part, has in (("radar-vector", has_rv), ("final-approach", has_fa))
                   if not has[a]]
    rv_keep, fa_keep = (~np.isin(ids, list(failed)) for ids in (rv_ids, fa_ids))
    if not rv_keep.any() or not fa_keep.any():
        raise DataError(_EMPTY_DATASET)
    rv_ids, rv_times, rv_points = rv_ids[rv_keep], rv_times[rv_keep], rv_points[rv_keep]
    fa_ids, fa_rows = fa_ids[fa_keep], fa_rows[fa_keep]

    # 4. nearest radar-vector procedure of every part, in one call
    assigned = preprocess.assign_procedures(rv_points, proc_points)

    # 5. radar-vector deviations from the assigned procedures. Each part
    # runs from beyond the threshold to inside it, so none is rejected
    rv_rows, rejected = preprocess.build_deviation_vector(
        rv_times, rv_points, proc_points[assigned])
    if rejected:
        raise ValueError(f"radar-vector rows rejected: {rejected}")
    for segment, rows, ids, names in zip(
            _segments(config), (rv_rows, fa_rows), (rv_ids, fa_ids),
            ([names[j] for j in assigned.tolist()], [iap_name] * len(fa_ids))):
        write_deviation_dataset(segment.dataset, rows, segment.kind, segment.length, [
            {"flight_id": arrivals[a][0].id, "procedure": name,
             "arrival_time": float(arrivals[a][0].points[-1, 0])}
            for a, name in zip(ids.tolist(), names)])
    write_json(config.out_dir / "ingest_report.json", {
        "flights_parsed": len(flights), "parse_errors": parse_errors,
        "arrivals_retained": len(arrivals) - len(failed), "rv_rows": len(rv_ids),
        "fa_rows": len(fa_ids), "exclusions": exclusions})
    return EXIT_OK


def _seed(config: RunConfig, name: str) -> int:
    """An EM or sweep seed, drawn from the substream ``name`` of the config seed."""
    return int(substream(config.seed, name).integers(2 ** 31))


def _read_dataset(segment: _Segment) -> tuple[np.ndarray, dict]:
    """A segment's deviation dataset and meta; its width must be 3T+2."""
    data, meta = read_deviation_dataset(segment.dataset)
    preprocess.deviation_length(data.shape[1], "dataset width", segment.symbol,
                                expected=segment.length, path=segment.dataset)
    return data, meta


def cmd_select(config: RunConfig) -> int:
    """Run the silhouette and rank sweeps; write the model-selection report."""
    report = {}
    for segment in _segments(config):
        data, _ = _read_dataset(segment)
        seed = _seed(config, f"select-{segment.kind}")
        best_k, k_curve = metrics.silhouette_sweep(data, config.k_grid, seed=seed)
        rank, rank_curve = select_rank(data, config.rank_grid, seed=seed)
        report[segment.kind] = {
            "n_components": best_k,
            "silhouette_curve": [[k, s] for k, s in k_curve],
            "rank": rank,
            "rank_curve": [[k, ll] for k, ll in rank_curve],
        }
    write_json(config.out_dir / "selection_report.json", report)
    return EXIT_OK


def _chosen(config: RunConfig, segment: _Segment) -> tuple[int, int]:
    """(n_components, rank) for a segment from the config or the report."""
    explicit = (segment.n_components, segment.rank)
    if None not in explicit:
        return explicit
    reported = read_json(
        config.out_dir / "selection_report.json", "selection report",
        lambda report: [json_int(report[segment.kind][key], f"{segment.kind} {key}")
                        for key in ("n_components", "rank")])
    return tuple(r if e is None else e for e, r in zip(explicit, reported))


def cmd_train(config: RunConfig) -> int:
    """Fit the per-segment mixtures and write model files plus training logs.

    Both segments are read, checked, chosen, fitted, compressed and checked
    to be finite before anything is written, so a fault in either leaves
    every file as it was.
    Each segment's EM run is seeded from the substream ``train-<kind>`` of
    the config seed.
    """
    segments = _segments(config)
    data = [_read_dataset(segment)[0] for segment in segments]
    chosen = [_chosen(config, segment) for segment in segments]
    models, log = [], {}
    for segment, rows, (k, rank) in zip(segments, data, chosen):
        seed = _seed(config, f"train-{segment.kind}")
        fit = em_fit(rows, k, seed=seed)
        models.append(compress_model(fit.model, rank))
        log[segment.kind] = {"n_components": k, "rank": rank,
                             "log_likelihoods": fit.log_likelihoods}
    for segment, model in zip(segments, models):
        try:
            check_finite(model.components)
        except ValueError as exc:
            raise NumericalError(
                f"{segment.model}: cannot write the model: {exc}") from exc
    for segment, model in zip(segments, models):
        save_model(model, segment.model, segment.kind)
    write_json(config.out_dir / "train_log.json", log)
    return EXIT_OK


def cmd_train_pairwise(config: RunConfig) -> int:
    """Fit pairwise mixtures per radar-vector procedure combination."""
    segment = _segments(config)[0]
    data, meta = _read_dataset(segment)
    names = [row["procedure"] for row in meta["rows"]]
    joined = [name for name in names if "|" in name]
    if joined:  # a model's key joins its two procedure names with "|"
        raise DataError(f"{segment.dataset.with_suffix('.meta.json')}: procedure "
                        f"{joined[0]!r} contains '|', which joins pairwise model keys")
    groups = multi_model.extract_pairs(
        data, names, [row["arrival_time"] for row in meta["rows"]],
        config.pairing_window_s)
    if not groups:
        raise DataError("no arrival pairs inside the pairing window")
    seed = _seed(config, "train-pairwise")
    models = multi_model.train_pairwise(
        groups, config.k_pairwise, config.rank_pairwise, seed=seed)
    if not models:
        raise DataError("every pairwise group was under the sample minimum")
    write_models(config.out_dir / "model_pairwise.json", {
        "format": PAIRWISE_FORMAT, "segment": "radar_vector",
        "models": {f"{a}|{b}": model_document(m, "pairwise")
                   for (a, b), m in models.items()}})
    write_json(config.out_dir / "train_pairwise_log.json", {
        "groups": {f"{a}|{b}": len(v) for (a, b), v in groups.items()},
        "trained": sorted(f"{a}|{b}" for a, b in models),
        "skipped": {f"{a}|{b}": len(v) for (a, b), v in groups.items()
                    if (a, b) not in models},
    })
    return EXIT_OK


def cmd_generate(config: RunConfig, count: int) -> int:
    """Generate single trajectories from the trained per-segment models."""
    segments = _segments(config)
    models = [load_model(segment.model) for segment in segments]
    for segment, m in zip(segments, models):
        preprocess.deviation_length(m.dimension, "model dimension", segment.symbol,
                                    expected=segment.length, path=segment.model)
    model = single_model.SingleTrajectoryModel(*models, config.n_overlap)
    names, rv_points, probs, _, iap_points = _load_procedural_trajectories(config)
    rng = substream(config.seed, "generate")
    rows, meta = [], []
    for i in range(count):
        j = int(rng.choice(len(names), p=probs))
        times, points, components = single_model.generate(
            model, rv_points[j], iap_points, rng)
        rows.append(((i,), times, points))
        meta.append({"traj_id": i, "procedure": names[j],
                     "components": list(components)})
    write_trajectory_csv(config.out_dir / "trajectories.csv", ["traj_id"], rows)
    write_json(config.out_dir / "trajectories.meta.json",
               {"count": count, "seed": config.seed, "trajectories": meta})
    return EXIT_OK


def _pairwise_models(doc: dict) -> dict:
    if doc["segment"] != "radar_vector":
        raise ValueError(f"segment {doc['segment']!r} is not radar_vector")
    malformed = [key for key in doc["models"] if key.count("|") != 1]
    if malformed:
        raise ValueError(f"key {malformed[0]!r} is not two procedure names "
                         "joined by '|'")
    return {tuple(key.split("|")): model_from_dict(m)
            for key, m in doc["models"].items()}


def cmd_generate_scenes(config: RunConfig, count: int, n_aircraft: int) -> int:
    """Generate correlated multi-aircraft scenes from the pairwise models."""
    models = read_json(config.out_dir / "model_pairwise.json", "pairwise model",
                       _pairwise_models, tag=PAIRWISE_FORMAT)
    names, rv_points, probs, _, _ = _load_procedural_trajectories(config)
    # assembly reaches every ordered pair of a scene's procedures, adjacent
    # or not, so any two procedures that can be drawn need a model
    drawn = [name for name, p in zip(names, probs) if p > 0]
    missing = [f"{a}|{b}" for a in drawn for b in drawn if (a, b) not in models]
    if missing:
        raise DataError(f"{config.out_dir / 'model_pairwise.json'}: no pairwise "
                        f"model for procedure combinations {', '.join(missing)}")
    preprocess.deviation_length(
        sorted({model.dimension for model in models.values()}),
        "pairwise model dimensions", "T_v", pair=True, expected=config.t_v,
        path=config.out_dir / "model_pairwise.json")

    rng = substream(config.seed, "generate-scenes")
    scenes, meta = [], []
    for i in range(count):
        chosen = rng.choice(len(names), size=n_aircraft, p=probs)
        sequence = [names[j] for j in chosen]
        params = multi_model.assemble_scene_params(models, sequence, rng)
        trajectories, deltas = multi_model.generate_scene(params, rv_points[chosen], rng)
        scenes.append(trajectories)
        meta.append({
            "scene_id": i, "procedures": sequence,
            "components": params.provenance,
            "block_drift": params.block_drift,
            "inter_arrival_times": [float(v) for v in deltas],
        })
    write_trajectory_csv(
        config.out_dir / "scenes.csv", ["scene_id", "aircraft_idx"],
        (((scene_id, idx), times, points)
         for scene_id, scene in enumerate(scenes)
         for idx, (times, points) in enumerate(scene)))
    write_json(config.out_dir / "scenes.meta.json", {
        "count": count, "aircraft_per_scene": n_aircraft,
        "seed": config.seed, "scenes": meta})
    return EXIT_OK


def cmd_evaluate(config: RunConfig, actual_path: Path, synthetic_path: Path) -> int:
    """Compare an actual and a synthetic set; write the metrics report."""
    actual = read_trajectory_file(actual_path)
    synthetic = read_trajectory_file(synthetic_path)
    if not actual or not synthetic:
        raise DataError("both actual and synthetic sets must be nonempty")
    vars_actual = metrics.extract_variables(actual)
    vars_synth = metrics.extract_variables(synthetic)

    variables = {}
    for name, a in vars_actual.items():
        s = vars_synth[name]
        if a.size == 0 or s.size == 0:
            variables[name] = None
            continue
        hist_a, hist_s = metrics.histogram_pair(a, s)
        variables[name] = {
            "edges": hist_a.edges.tolist(),
            "actual_mass": hist_a.mass.tolist(),
            "synthetic_mass": hist_s.mass.tolist(),
            "js_divergence": metrics.js_divergence(hist_a, hist_s),
        }
    actual_events, actual_flags = metrics.loss_of_separation_count(actual)
    synthetic_events, synthetic_flags = metrics.loss_of_separation_count(synthetic)
    write_json(config.out_dir / "metrics_report.json", {
        "variables": variables,
        "separation": {
            "horizontal_min_nm": metrics.HORIZONTAL_MIN_NM,
            "vertical_min_ft": metrics.VERTICAL_MIN_FT,
            "actual_events": actual_events,
            "synthetic_events": synthetic_events,
            "actual_scenes_with_violation": int(np.sum(actual_flags)),
            "synthetic_scenes_with_violation": int(np.sum(synthetic_flags)),
        },
    })
    return EXIT_OK


def cmd_review_paths(config: RunConfig, k: int, keep: list[int] | None,
                     samples: int) -> int:
    """Extract nominal radar-vector paths and write the curated subset."""
    arrivals = _read_arrivals(config)[2]
    rng = substream(config.seed, "review-paths")
    paths, dropped = procedures.extract_nominal_paths(
        [track for _, track in arrivals], k, config.airspace, samples=samples,
        rng=rng)
    if dropped:
        logger.warning("review-paths: %d arrivals dropped: %s", len(dropped),
                       "; ".join(f"{arrivals[i][0].id}: {reason}"
                                 for i, reason in dropped.items()))
    if keep is not None:
        missing = [i for i in keep if not 0 <= i < len(paths)]
        if missing:
            raise DataError(f"--keep indices out of range: {missing}")
        paths = [paths[i] for i in keep]
    procedures.save_procedures(paths, config.out_dir / "nominal_paths.yaml")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point

def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _index_list(raw: str) -> list[int]:
    """argparse type of ``--keep``: comma-separated distinct indices >= 0."""
    items = raw.split(",")
    if not all(item.strip().isdecimal() for item in items):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated indices >= 0, got {raw!r}")
    indices = [int(item) for item in items]
    if len(set(indices)) != len(indices):
        raise argparse.ArgumentTypeError(f"repeated index in {raw!r}")
    return indices


def _build_parser() -> _Parser:
    parser = _Parser(prog="trafgen", description=__doc__)
    parser.add_argument("--config", required=True, help="run config file")
    parser.add_argument("--seed", type=_int_at_least(0),
                        help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest").set_defaults(call=lambda cfg, a: cmd_ingest(cfg))
    sub.add_parser("select").set_defaults(call=lambda cfg, a: cmd_select(cfg))
    sub.add_parser("train").set_defaults(call=lambda cfg, a: cmd_train(cfg))
    sub.add_parser("train-pairwise").set_defaults(
        call=lambda cfg, a: cmd_train_pairwise(cfg))
    p_gen = sub.add_parser("generate")
    p_gen.add_argument("--count", type=_int_at_least(0), required=True)
    p_gen.set_defaults(call=lambda cfg, a: cmd_generate(cfg, a.count))
    p_scenes = sub.add_parser("generate-scenes")
    p_scenes.add_argument("--count", type=_int_at_least(0), required=True)
    p_scenes.add_argument("--aircraft", type=_int_at_least(2), default=3)
    p_scenes.set_defaults(
        call=lambda cfg, a: cmd_generate_scenes(cfg, a.count, a.aircraft))
    p_eval = sub.add_parser("evaluate")
    p_eval.add_argument("--actual", required=True)
    p_eval.add_argument("--synthetic", required=True)
    p_eval.set_defaults(call=lambda cfg, a: cmd_evaluate(
        cfg, Path(a.actual), Path(a.synthetic)))
    p_review = sub.add_parser("review-paths")
    p_review.add_argument("--k", type=_int_at_least(1), required=True)
    p_review.add_argument("--keep", type=_index_list,
                          help="comma-separated path indices to keep")
    p_review.add_argument("--samples", type=_int_at_least(2), default=100)
    p_review.set_defaults(
        call=lambda cfg, a: cmd_review_paths(cfg, a.k, a.keep, a.samples))
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        config = RunConfig.from_file(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.out_dir = Path(args.out)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        return args.call(config, args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    sys.exit(run())


if __name__ == "__main__":
    main()
