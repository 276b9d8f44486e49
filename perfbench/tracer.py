"""Timing wrappers installed on trafgen's public functions from outside it.

:meth:`Tracer.install` replaces every binding of each listed function across
the loaded ``trafgen`` modules (``condition`` is bound in both ``mixture``
and ``single_model``, for example) with a wrapper that records a span: name,
start, end, parent span and stage id. Spans stay in memory and are written
out once, when the stage ends. :func:`layer_metrics` turns the span files of
one pass into per-layer self times, call counts and counters.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> public functions timed in that module
WRAPPED = {
    "cli": ("read_deviation_dataset", "write_deviation_dataset",
            "read_trajectory_file"),
    "ingest": ("parse_tracks", "flight_to_enu", "classify_flight"),
    "procedures": ("load_procedures", "build_procedural_trajectory"),
    "preprocess": ("segment_trajectory", "pchip_resample", "assign_procedure",
                   "dtw_distance", "build_deviation_vector",
                   "reconstruct_trajectory"),
    "_cluster": ("kmeans",),
    "mixture": ("em_fit", "select_rank", "compress_model", "condition",
                "sample", "psd_factor", "save_model", "load_model"),
    "metrics": ("silhouette_sweep", "silhouette_score", "extract_variables",
                "histogram_pair", "js_divergence", "loss_of_separation_count"),
    "single_model": ("generate",),
    "multi_model": ("extract_pairs", "train_pairwise", "assemble_scene_params",
                    "generate_scene"),
}

STAGES = ("ingest", "select", "train", "train_pairwise", "generate",
          "generate_scenes", "evaluate", "evaluate_scenes")

COUNTERS = ("ingest.parse_tracks.rows", "preprocess.dtw_distance.cells",
            "mixture.em_fit.iterations", "mixture.em_fit.at_max_iter",
            "mixture.cholesky.attempts", "mixture.cholesky.failures",
            "metrics.histogram_pair.bins",
            "multi_model.assemble_scene_params.distinct_keys")

LATENCIES = (("mixture.condition", (50, 90)),
             ("single_model.generate", (50, 90)),
             ("multi_model.assemble_scene_params", (50,)),
             ("preprocess.dtw_distance", (50,)))


def span_name(module: str, fn: str) -> str:
    """Span and metric prefix of ``module.fn``; metric names start with a letter."""
    return f"{module.lstrip('_')}.{fn}"


def _parse_rows(result, args, kwargs) -> dict:
    flights, errors = result
    return {"ingest.parse_tracks.rows":
            sum(len(f.points) for f in flights) + len(errors)}


def _dtw_cells(result, args, kwargs) -> dict:
    return {"preprocess.dtw_distance.cells": len(args[0]) * len(args[1])}


def _em_iterations(result, args, kwargs) -> dict:
    iterations = len(result.log_likelihoods)
    return {"mixture.em_fit.iterations": iterations,
            "mixture.em_fit.at_max_iter":
            int(iterations >= kwargs.get("max_iter", 200))}


def _histogram_bins(result, args, kwargs) -> dict:
    return {"metrics.histogram_pair.bins": int(result[0].counts.size)}


# counters read off a wrapped call's arguments and result
_COUNT_HOOKS = {
    "ingest.parse_tracks": _parse_rows,
    "preprocess.dtw_distance": _dtw_cells,
    "mixture.em_fit": _em_iterations,
    "metrics.histogram_pair": _histogram_bins,
}


class Tracer:
    """Collects spans and counters for one stage process."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.scene_keys: set[tuple] = set()
        self.absent: list[str] = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        hook = _COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else None])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                for key, value in hook(result, args, kwargs).items():
                    self.counts[key] += value
            if name == "multi_model.assemble_scene_params":
                self.scene_keys.add((tuple(result.procedure_sequence),
                                     result.provenance["pair_0_1"]))
            return result

        return wrapper

    def _counted_cholesky(self, fn):
        import numpy as np

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["mixture.cholesky.attempts"] += 1
            try:
                return fn(*args, **kwargs)
            except np.linalg.LinAlgError:
                self.counts["mixture.cholesky.failures"] += 1
                raise

        return wrapper

    def install(self) -> None:
        """Rebind every listed function in every loaded trafgen module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "trafgen"
                                         or name.startswith("trafgen."))]
        replacements = {}
        for module_name, functions in WRAPPED.items():
            module = sys.modules.get(f"trafgen.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                name = span_name(module_name, fn_name)
                if not callable(original):
                    self.absent.append(name)
                    continue
                replacements[id(original)] = (original, self.span(name, original))
        mixture = sys.modules.get("trafgen.mixture")
        cholesky = getattr(mixture, "cholesky", None)
        if callable(cholesky):
            replacements[id(cholesky)] = (cholesky,
                                          self._counted_cholesky(cholesky))
        else:
            self.absent.append("mixture.cholesky")
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def dump(self, path: Path) -> None:
        """Write spans and counters as JSON."""
        counts = dict(self.counts)
        counts["multi_model.assemble_scene_params.distinct_keys"] = \
            len(self.scene_keys)
        path.write_text(json.dumps({"stage": self.stage, "spans": self.spans,
                                    "counts": counts, "absent": self.absent}),
                        encoding="utf-8")


# ---------------------------------------------------------------------------
# Aggregation over the span files of one traced pass

def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(trace_files: list[Path], walls: dict[str, float],
                  ) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from span files; also the absent function names.

    Self time is a span's duration minus the time its direct children cover.
    A stage's own self time is its process wall time, from ``walls``, minus
    the time its top-level spans cover: start-up, argument handling and
    private file writing. Every listed metric is present; functions that
    never ran report zero.
    """
    out: dict[str, float] = {}
    for module, functions in WRAPPED.items():
        for fn in functions:
            out[f"{span_name(module, fn)}.self_s"] = 0.0
            out[f"{span_name(module, fn)}.calls"] = 0
    for stage in STAGES:
        out[f"cli.{stage}.self_s"] = 0.0
    for key in COUNTERS:
        out[key] = 0
    durations: dict[str, list[float]] = defaultdict(list)
    samples_in_generate = 0
    absent: set[str] = set()
    for path in trace_files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        absent.update(doc["absent"])
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        top_level = 0.0
        for name, start, end, parent in spans:
            if parent is None:
                top_level += end - start
            else:
                child_time[parent] += end - start
        out[f"cli.{doc['stage']}.self_s"] = walls[doc["stage"]] - top_level
        for i, (name, start, end, parent) in enumerate(spans):
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            out[f"{name}.calls"] += 1
            durations[name].append(end - start)
            if (name == "mixture.sample" and parent is not None
                    and spans[parent][0] == "single_model.generate"):
                samples_in_generate += 1
        for key, value in doc["counts"].items():
            out[key] += value
    generate_calls = out["single_model.generate.calls"]
    out["single_model.generate.samples_per_call"] = (
        samples_in_generate / generate_calls if generate_calls else 0.0)
    for name, pcts in LATENCIES:
        for pct in pcts:
            out[f"{name}.p{pct}_ms"] = 1000.0 * _percentile(durations[name], pct)
    return out, sorted(absent)
