"""Print a sha256 for every artefact of one pipeline run on a test corpus.

    python tests/artefact_digests.py [--root CHECKOUT] [--flights 300]
        [--seed 0] [--t-v 40] [--t-f 20] [--n-overlap 1]
        [--count 200] [--scenes 20] [--aircraft 3]

Writes a corpus and a held-out ground-truth set into a temporary directory,
appends to the corpus's ``tracks.csv`` a fixed set of rows that the track
parser rejects or drops (so ``ingest_report.json`` records their messages
and line numbers), writes ``bad_truth.csv``, the ground truth plus a row
whose ``t`` is not a number, then runs the trafgen found under
``CHECKOUT/src`` (default: this checkout) on it: ingest, select, train,
train-pairwise, generate, generate-scenes, evaluate on the trajectories,
evaluate on the scenes, review-paths ``--k 3``, and evaluate on
``bad_truth.csv``, which exits 2 with the bad row's message. The corpus is built by
``CHECKOUT/tests/corpus.py``, so each checkout builds it with its own code
and the script works across changes of trafgen's library API. It prints each command's exit code with a digest of
its standard error, then one ``<sha256>  <path>`` line per output file.
Every path is relative to the run directory, so the output depends only on
the program and the arguments. Running the script against two checkouts with the same
arguments and diffing the output shows whether a change keeps every
artefact byte-identical. Needs only the standard library and numpy, besides
trafgen's own dependencies.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_truth(path: Path, trajectories) -> None:
    """The held-out set, written with the csv module, not trafgen's writer."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["traj_id", "t", "x", "y", "z"])
        for i, traj in enumerate(trajectories):
            # a (procedure, times, points, components) tuple, or a record
            # with times and points from a checkout that predates it
            times, points = (traj[1:3] if isinstance(traj, tuple)
                             else (traj.times, traj.points))
            for t, (x, y, z) in zip(times.tolist(), points.tolist()):
                writer.writerow([i, repr(t), repr(x), repr(y), repr(z)])


def _append_bad_rows(path: Path) -> None:
    """Append rows that the track parser rejects or drops."""
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        first_id, first_time = handle.readline().split(",")[:2]
    with open(path, "a", newline="", encoding="utf-8") as handle:
        handle.write(
            "BAD1,0.0,95.0,-73.7,1000\n"                  # latitude out of range
            "BAD1,1.0,40.6,-73.7\n"                       # no alt
            "BAD1,2.0,40.6,-73.7,1O00\n"                  # not a number
            "\n"                                          # blank
            f"{first_id},{first_time},40.0,-73.0,999\n"   # a repeated timestamp
            "BAD2,3.0,40.6,-73.7,1000\r\n")               # CRLF; one point only


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="checkout whose src/trafgen runs")
    parser.add_argument("--flights", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    parser.add_argument("--t-v", type=int, default=40)
    parser.add_argument("--t-f", type=int, default=20)
    parser.add_argument("--n-overlap", type=int, default=1)
    parser.add_argument("--count", type=int, default=200,
                        help="trajectories to generate, and held-out ones")
    parser.add_argument("--scenes", type=int, default=20)
    parser.add_argument("--aircraft", type=int, default=3)
    args = parser.parse_args()

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import corpus  # noqa: E402 -- the chosen checkout's, on its own trafgen
    from trafgen.cli import run  # noqa: E402

    dims = {"t_v": args.t_v, "t_f": args.t_f, "n_overlap": args.n_overlap}
    commands = [
        ["ingest"], ["select"], ["train"], ["train-pairwise"],
        ["generate", "--count", str(args.count)],
        ["generate-scenes", "--count", str(args.scenes),
         "--aircraft", str(args.aircraft)],
        ["evaluate", "--actual", "truth.csv",
         "--synthetic", "out/trajectories.csv"],
        ["--out", "eval_scenes", "evaluate", "--actual", "truth.csv",
         "--synthetic", "out/scenes.csv"],
        ["review-paths", "--k", "3"],
        ["evaluate", "--actual", "bad_truth.csv",
         "--synthetic", "out/trajectories.csv"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        corpus.write_corpus(base, n_flights=args.flights, seed=args.seed, **dims)
        _append_bad_rows(base / "tracks.csv")
        _write_truth(base / "truth.csv", corpus.generate_actual(
            args.count, args.seed + 1000, **dims))
        (base / "bad_truth.csv").write_bytes(
            (base / "truth.csv").read_bytes() + b"0,abc,0.0,0.0,0.0\r\n")
        inputs = set(base.rglob("*"))
        cwd = os.getcwd()
        os.chdir(base)
        try:
            for command in commands:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = run(["--config", "run.cfg", *command])
                print(f"exit {code}  stderr {_sha256(err.getvalue().encode())[:16]}"
                      f"  {' '.join(command)}")
        finally:
            os.chdir(cwd)
        for path in sorted(p for p in base.rglob("*")
                           if p.is_file() and p not in inputs):
            print(f"{_sha256(path.read_bytes())}  {path.relative_to(base)}")


if __name__ == "__main__":
    main()
