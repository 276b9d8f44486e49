"""Measure generated scenes against a correlated in-trail truth.

    python tests/scene_gate.py [--root CHECKOUT] [--rho 0.95] [--rank 8]
        [--t 12,350] [--scenes 400]

For truth seeds 0, 1 and 2, K = 1 and 2 pair components, each segment
length T and N = 3 and 6 aircraft, trains pair models with the trafgen found
under ``CHECKOUT/src`` on ``corpus.make_intrail_records`` (an AR(1) chain of
transit times with correlation rho; 4,000 rows at T = 12, else 1,000), draws
``--scenes`` scenes, and compares them with as many held-out truth scenes of
N consecutive arrivals (truth seed + 100). Prints one JSON line per cell:
the lag-1 ... N-1 correlations of the aircraft's transit times in the
generated and the truth scenes, the JS divergences of x, y, horizontal
speed and closest distance, the share of scenes with a loss of separation
on each side, and the milliseconds per generated scene. Running it against
two checkouts with the same arguments compares their scene generators on
the same truth (ROADMAP item 19's adoption gate).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
TRAIN_ROWS = {12: 4000}
DEFAULT_TRAIN_ROWS = 1000
PAIRING_WINDOW_S = 180.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="checkout whose src/ and tests/ are measured")
    parser.add_argument("--rho", type=float, default=0.95)
    parser.add_argument("--rank", type=int, default=8)
    parser.add_argument("--t", default="12,350", help="segment lengths T")
    parser.add_argument("--scenes", type=int, default=400)
    args = parser.parse_args()
    sys.path[:0] = [str(args.root / "src"), str(args.root / "tests")]
    import corpus
    from trafgen import metrics, multi_model
    from trafgen.preprocess import reconstruct_trajectory

    def truth_scenes(seed, t, n):
        taus, _, arrivals, points = corpus.make_intrail_records(
            n * args.scenes, rho=args.rho, seed=seed, segment_samples=t)
        times, rebuilt = reconstruct_trajectory(taus, points)
        times = times + (arrivals - times[:, -1])[:, None]
        return [[(times[i] - times[s, 0], rebuilt[i]) for i in range(s, s + n)]
                for s in range(0, n * args.scenes, n)]

    def lags(scenes):
        transit = np.array([[t[-1] - t[0] for t, _ in scene] for scene in scenes])
        corr = np.corrcoef(transit, rowvar=False)
        return [round(float(np.mean(np.diagonal(corr, k))), 4)
                for k in range(1, len(corr))]

    def compare(truth, synthetic):
        a, b = metrics.extract_variables(truth), metrics.extract_variables(synthetic)
        out = {name: metrics.js_divergence(*metrics.histogram_pair(a[name], b[name]))
               for name in ("x_east", "y_north", "horizontal_speed",
                            "closest_distance")}
        out["los_share_truth"] = float(np.mean(metrics.loss_of_separation_count(truth)[1]))
        out["los_share"] = float(np.mean(metrics.loss_of_separation_count(synthetic)[1]))
        return out

    for t in (int(v) for v in args.t.split(",")):
        for k in (1, 2):
            for seed in (0, 1, 2):
                taus, names, arrivals, points = corpus.make_intrail_records(
                    TRAIN_ROWS.get(t, DEFAULT_TRAIN_ROWS), rho=args.rho,
                    seed=seed, segment_samples=t)
                models = multi_model.train_pairwise(
                    multi_model.extract_pairs(taus, names, arrivals, PAIRING_WINDOW_S),
                    k, rank=args.rank, seed=seed)
                for n in (3, 6):
                    truth = truth_scenes(seed + 100, t, n)
                    rng = np.random.default_rng(seed)
                    sequence, proc_points = names[:1] * n, np.stack([points] * n)
                    synthetic = []
                    start = time.perf_counter()
                    for _ in range(args.scenes):
                        params = multi_model.assemble_scene_params(models, sequence, rng)
                        synthetic.append(
                            multi_model.generate_scene(params, proc_points, rng)[0])
                    ms = (time.perf_counter() - start) / args.scenes * 1e3
                    print(json.dumps({
                        "T": t, "K": k, "seed": seed, "N": n, "ms_per_scene": ms,
                        "lags": lags(synthetic), "truth_lags": lags(truth),
                        **compare(truth, synthetic)}), flush=True)


if __name__ == "__main__":
    main()
