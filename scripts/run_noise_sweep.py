#!/usr/bin/env python3
"""Sweep the noise presets over seeded random scenarios and report how
well classification recovers the ground-truth action sequences.

Example:
    python3 scripts/run_noise_sweep.py --scenarios 200 --seed 1000
"""

import argparse
import time

from tracereplay.classify import classify_trace
from tracereplay.config import DEVICE_PRESETS
from tracereplay.metrics import evaluate_batch
from tracereplay.synth import NOISE_PRESETS, noise_preset, random_scenario, synthesize_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--device", default="nexus5", choices=sorted(DEVICE_PRESETS))
    parser.add_argument("--presets", nargs="*", default=sorted(NOISE_PRESETS))
    args = parser.parse_args()

    profile = DEVICE_PRESETS[args.device]
    print(f"{args.scenarios} scenarios on {profile.name} "
          f"({profile.screen_width}x{profile.screen_height} @ {profile.fps}fps)\n")
    header = f"{'preset':18s} {'mean_lev':>9s} {'mean_lcs':>9s} " \
             f"{'precision':>10s} {'recall':>8s} {'exact':>7s} {'time':>7s}"
    print(header)
    print("-" * len(header))
    for preset in args.presets:
        start = time.perf_counter()
        pairs = {}  # scenario seed -> (pred, truth)
        exact = 0
        for seed in range(args.seed, args.seed + args.scenarios):
            scenario = random_scenario(profile, seed=seed)
            noise = noise_preset(preset, seed=seed + 4000)
            trace, truth = synthesize_trace(scenario, noise)
            pred = classify_trace(trace).symbols(extended=True)
            pairs[str(seed)] = (pred, truth)
            exact += pred == truth
        elapsed = time.perf_counter() - start
        report = evaluate_batch(pairs)
        print(
            f"{preset:18s} {report.mean_levenshtein:9.3f} "
            f"{report.mean_lcs_ratio:9.4f} {report.mean_macro_precision:10.4f} "
            f"{report.mean_macro_recall:8.4f} {exact:4d}/{args.scenarios:<3d}"
            f"{elapsed:6.1f}s"
        )


if __name__ == "__main__":
    main()
