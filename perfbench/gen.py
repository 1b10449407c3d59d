"""Write a workload's recordings and their manifest into a directory.

Runs as its own process so that the generator's time and memory
(numpy, scenario objects) are never counted by the measured process,
which only reads the trace bytes written here.

    python3 perfbench/gen.py --workload batch-30s --seed 1 --out DIR [--smoke]

The manifest (`manifest.json`) lists, per recording, the trace file,
its sha256, its detection and frame counts and the ground-truth symbol
sequence taken from the scenario (never from the classifier).
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from tracereplay.config import DEVICE_PRESETS
from tracereplay.model import serialize_trace
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

from workloads import DEVICE, NOISE, WORKLOADS, noise_seed, scenario_seed, sized


def generate(workload_name: str, seed: int, out: Path, smoke: bool) -> None:
    workload = sized(workload_name, smoke)
    profile = DEVICE_PRESETS[DEVICE]
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for index in range(workload.recordings):
        scenario = random_scenario(
            profile, seed=scenario_seed(seed, index), n_actions=workload.actions
        )
        trace, truth = synthesize_trace(
            scenario, noise_preset(NOISE, seed=noise_seed(seed, index))
        )
        data = serialize_trace(trace)
        name = f"r{index:04d}"
        (out / f"{name}.json").write_bytes(data)
        manifest.append(
            {
                "id": name,
                "file": f"{name}.json",
                "sha256": hashlib.sha256(data).hexdigest(),
                "detections": len(trace),
                "frames": trace.frame_count,
                "truth": list(truth),
            }
        )
    (out / "manifest.json").write_text(json.dumps(manifest))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, args.smoke)


if __name__ == "__main__":
    main()
