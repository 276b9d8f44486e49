"""trafgen benchmark: real CLI stages on seeded inputs, one process each.

    python3 perfbench/run.py --workload corpus-2k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The benchmark writes its inputs
(see ``inputs.py``) under ``.perfbench_work/<workload>/``, then runs the
workload's stages one after another, each as its own process with a memory
bound, in a closed loop with one client. It runs at least one pass, and
starts another only while that pass should end within ``--seconds``.
Every stage's output is checked (``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the benchmark runs one more pass
with timing wrappers installed from outside the program (``tracer.py``) and
reports the per-layer metrics instead. Everything else it prints is a human
readable report; ``result.json`` in the work directory holds all of it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
from stage import MEM_BOUND_MB  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170.0
CORPUS_JS_LIMIT = {"x_east": 0.05, "y_north": 0.05, "horizontal_speed": 0.05}


@dataclass(frozen=True)
class Stage:
    """One CLI invocation: its metric id, arguments and output check."""

    id: str
    args: Callable[[Path], list[str]]
    check: Callable[["Workload", Path, dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: inputs.Spec
    stages: tuple[Stage, ...]
    js_limits: dict = field(default_factory=dict)


def _grid(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _learning_stages() -> tuple[Stage, ...]:
    return (
        Stage("ingest", lambda b: ["ingest"],
              lambda w, b, m: checks.ingest(b / "out", m["procedure_of"])),
        Stage("select", lambda b: ["select"],
              lambda w, b, m: checks.selection(b / "out", inputs.K_GRID,
                                               _grid(w.spec.rank_grid))),
        Stage("train", lambda b: ["train"],
              lambda w, b, m: checks.models(b / "out", w.spec.t_v, w.spec.t_f)),
        Stage("train_pairwise", lambda b: ["train-pairwise"],
              lambda w, b, m: checks.pairwise(b / "out", w.spec.t_v)),
    )


def _generation_stages(count: int, scenes: int, aircraft: int) -> tuple[Stage, ...]:
    return (
        Stage("generate", lambda b: ["generate", "--count", str(count)],
              lambda w, b, m: checks.trajectories(
                  b / "out" / "trajectories.csv", count, w.spec.t_v,
                  w.spec.t_f, w.spec.n_overlap)),
        Stage("generate_scenes",
              lambda b: ["generate-scenes", "--count", str(scenes),
                         "--aircraft", str(aircraft)],
              lambda w, b, m: checks.scenes(b / "out", scenes, aircraft,
                                            w.spec.t_v)),
        Stage("evaluate",
              lambda b: ["evaluate", "--actual", str(b / "truth_trajectories.csv"),
                         "--synthetic", str(b / "out" / "trajectories.csv")],
              lambda w, b, m: checks.evaluation(b / "out" / "metrics_report.json",
                                                w.js_limits)),
    )


EVALUATE_SCENES = Stage(
    "evaluate_scenes",
    lambda b: ["--out", str(b / "eval_scenes"), "evaluate",
               "--actual", str(b / "truth_scenes.csv"),
               "--synthetic", str(b / "out" / "scenes.csv")],
    lambda w, b, m: checks.evaluation(
        b / "eval_scenes" / "metrics_report.json", {}))

WORKLOADS = {w.name: w for w in (
    Workload("corpus-2k",
             inputs.Spec(t_v=40, t_f=20, n_overlap=1, flights=2000,
                         holdout=1000),
             _learning_stages() + _generation_stages(1000, 5, 2),
             js_limits=CORPUS_JS_LIMIT),
    Workload("paper-learn",
             inputs.Spec(t_v=350, t_f=150, n_overlap=10, flights=24,
                         rank_grid="4,8,16", rank=16),
             _learning_stages()),
    # n_overlap is 1, not the paper's 10: see KNOWN_DEFECTS
    Workload("paper-generate",
             inputs.Spec(t_v=350, t_f=150, n_overlap=1, holdout=30,
                         holdout_scenes=1, scene_aircraft=3, paper_models=True),
             _generation_stages(30, 1, 3) + (EVALUATE_SCENES,)),
)}

# Workloads that fail at this commit, so not benchmarked; a fix turns their
# failed operations into successes. At n_overlap = 10 `generate` stitches
# the final approach onto the last 10 radar-vector positions, so every
# trajectory jumps back across the join, and `evaluate` on those
# trajectories runs out of memory building histograms over the jump speeds.
KNOWN_DEFECTS = {w.name: w for w in (
    Workload("paper-stitch",
             inputs.Spec(t_v=350, t_f=150, n_overlap=10, holdout=30,
                         paper_models=True),
             tuple(s for s in _generation_stages(30, 0, 0)
                   if s.id != "generate_scenes")),
)}

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, functions in tracer.WRAPPED.items():
        for fn in functions:
            units[f"{tracer.span_name(module, fn)}.self_s"] = "s"
            units[f"{tracer.span_name(module, fn)}.calls"] = "count"
    for stage in tracer.STAGES:
        units[f"cli.{stage}.self_s"] = "s"
        units[f"cli.{stage}.wall_s"] = "s"
        units[f"cli.{stage}.peak_rss_mb"] = "MB"
        units[f"cli.{stage}.bytes_written"] = "bytes"
    for key in tracer.COUNTERS:
        units[key] = "count"
    units["single_model.generate.samples_per_call"] = "count"
    for name, pcts in tracer.LATENCIES:
        for pct in pcts:
            units[f"{name}.p{pct}_ms"] = "ms"
    units["trace.overhead_s"] = "s"
    units["ops.failed_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Running stages

@dataclass
class Op:
    stage: str
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    bytes_written: int
    digests: dict[str, str]
    problems: list[str]

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _snapshot(base: Path) -> dict[Path, tuple[int, int]]:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in base.rglob("*") if p.is_file()}


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its resource usage; kill it after ``timeout``."""
    box = []
    waiter = threading.Thread(
        target=lambda: box.append((*os.wait4(proc.pid, 0), time.perf_counter())))
    waiter.start()
    waiter.join(timeout)
    if waiter.is_alive():
        proc.kill()
        waiter.join()
    _, status, usage, end = box[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, end


def _stage_command(src: Path, extra: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "stage.py"), "--src", str(src), *extra]


def run_stage(workload: Workload, stage: Stage, base: Path, src: Path,
              manifest: dict, deadline: float, trace_file: Path | None) -> Op:
    before = _snapshot(base)
    extra = []
    if trace_file is not None:
        extra = ["--trace", str(trace_file), "--stage", stage.id]
    cmd = _stage_command(src, [*extra, "--", "--config", "run.cfg",
                               *stage.args(base)])
    log_path = base.parent / f"{stage.id}.log"
    with log_path.open("w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=base, stdout=log, stderr=subprocess.STDOUT)
        code, usage, end = _wait(proc, max(deadline - start, 1.0))
    after = _snapshot(base)
    written = sorted(p for p, state in after.items() if before.get(p) != state)
    problems = []
    if code != 0:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit code {code}: {' '.join(tail)}")
    else:
        try:
            problems = stage.check(workload, base, manifest)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    return Op(stage=stage.id, wall_s=end - start, exit_code=code,
              peak_rss_mb=usage.ru_maxrss / 1024.0,
              bytes_written=sum(after[p][0] for p in written),
              digests={str(p.relative_to(base)): inputs.sha256(p)
                       for p in written},
              problems=problems)


def run_pass(workload: Workload, base: Path, src: Path, manifest: dict,
             deadline: float, trace_dir: Path | None = None) -> list[Op]:
    ops = []
    for stage in workload.stages:
        trace_file = None if trace_dir is None else trace_dir / f"{stage.id}.json"
        ops.append(run_stage(workload, stage, base, src, manifest, deadline,
                             trace_file))
    return ops


def probe(src: Path, cwd: Path) -> dict:
    """Start the program once; return its environment facts."""
    out = subprocess.run(_stage_command(src, ["--probe"]), cwd=cwd,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def setup(workload: Workload, seed: int, work: Path, src: Path):
    """Write the inputs once, then start the program ``SETUP_REPEATS`` times.

    Returns (input writing time, program start times, manifest, program
    facts, input directory). Only the start times are the program's own.
    """
    base = work / "inputs"
    start = time.perf_counter()
    manifest = inputs.build(base, workload.spec, seed)
    inputs_s = time.perf_counter() - start
    starts = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        facts = probe(src, base)
        starts.append(time.perf_counter() - start)
    return inputs_s, starts, manifest, facts, base


# ---------------------------------------------------------------------------
# Reporting

def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def print_table(title: str, rows: dict[str, tuple[dict, str]]) -> None:
    print(f"\n{title}")
    for name, (stats, unit) in rows.items():
        print(f"  {name:52s} {stats['median']:14.6g} {unit:6s} "
              f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n {stats['n']}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="trafgen benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted({**WORKLOADS, **KNOWN_DEFECTS}))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "trafgen" / "cli.py").is_file():
        print(f"error: no trafgen sources under {src}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    workload = {**WORKLOADS, **KNOWN_DEFECTS}[args.workload]
    work = root / ".perfbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    inputs_s, setup_times, manifest, facts, base = setup(workload, args.seed,
                                                         work, src)

    # a further pass starts only while it should end within --seconds
    passes: list[list[Op]] = []
    loop_end = time.perf_counter() + args.seconds
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(workload, base, src, manifest, deadline))
        now = time.perf_counter()
        if now + (now - pass_start) > min(loop_end, deadline - 60.0):
            break
    ops = [op for p in passes for op in p]
    for op in passes[-1]:
        reference = next(o for o in passes[0] if o.stage == op.stage)
        if not op.failed and op.digests != reference.digests:
            op.problems.append("artefacts differ from the first pass")

    stage_stats = {stage.id: summary([p[i].wall_s for p in passes])
                   for i, stage in enumerate(workload.stages)}
    pipeline = [sum(op.wall_s for op in p) for p in passes]
    end_to_end = {
        "setup_s": summary(setup_times),
        "pipeline_s": summary(pipeline),
        "peak_rss_mb": summary([max(op.peak_rss_mb for op in p) for p in passes]),
    }

    layer = None
    absent: list[str] = []
    if args.trace:
        trace_dir = work / "trace"
        trace_dir.mkdir()
        traced = run_pass(workload, base, src, manifest, deadline, trace_dir)
        ops += traced
        for op, reference in zip(traced, passes[0]):
            if not op.failed and op.digests != reference.digests:
                op.problems.append("traced artefacts differ from untraced ones")
        layer, absent = tracer.layer_metrics(
            sorted(trace_dir.glob("*.json")), {op.stage: op.wall_s for op in traced})
        for i, stage in enumerate(workload.stages):
            layer[f"cli.{stage.id}.wall_s"] = stage_stats[stage.id]["median"]
            layer[f"cli.{stage.id}.peak_rss_mb"] = statistics.median(
                p[i].peak_rss_mb for p in passes)
            layer[f"cli.{stage.id}.bytes_written"] = passes[0][i].bytes_written
        for stage in tracer.STAGES:
            for key in ("wall_s", "peak_rss_mb", "bytes_written"):
                layer.setdefault(f"cli.{stage}.{key}", 0)
        layer["trace.overhead_s"] = (sum(op.wall_s for op in traced)
                                     - end_to_end["pipeline_s"]["median"])

    failed = sum(op.failed for op in ops)
    if layer is not None:
        layer["ops.failed_ratio"] = failed / len(ops)
    report = {
        "workload": workload.name, "seed": args.seed,
        "commit": git_commit(root),
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    **facts},
        "inputs": manifest["digests"], "inputs_s": inputs_s,
        "mem_bound_mb": MEM_BOUND_MB,
        "passes": len(passes),
        "end_to_end": end_to_end,
        "stages": stage_stats,
        "ops": [op.__dict__ for op in ops],
        "per_layer": layer, "absent": absent,
    }
    (work / "result.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"trafgen benchmark: workload {workload.name}, seed {args.seed}, "
          f"commit {report['commit']}")
    print(f"machine: {json.dumps(report['machine'])}")
    print(f"inputs written in {inputs_s:.3f} s: " + ", ".join(
        f"{k} {v[:16]}" for k, v in manifest["digests"].items()))
    print(f"passes {len(passes)}, operations {len(ops)}, failed {failed}")
    for op in ops:
        for problem in op.problems:
            print(f"  FAILED {op.stage}: {problem}")
    print_table("stage wall time", {k: (v, "s") for k, v in stage_stats.items()})
    print_table("end to end", {k: (v, END_TO_END[k]) for k, v in end_to_end.items()})
    if layer is not None:
        if absent:
            print(f"\nabsent functions: {', '.join(absent)}")
        units = per_layer_units()
        print_table("per layer (traced pass)",
                    {k: (summary([float(layer[k])]), units[k]) for k in units})
        metrics = {k: {"value": float(layer[k]), "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": end_to_end[k]["median"], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
