"""Benchmark for the tracereplay compiler, run from the repository root.

    python3 perfbench/run.py --workload batch-30s --seed 1 --seconds 50 --trace 0

Steps: generate the workload's recordings from `--seed` in a child
process, then compile them in this process (and, on cli-30s, through
`python -m tracereplay pipeline --dry-run` children) for `--seconds`,
checking every output and timing `import tracereplay` in a fresh
interpreter every few seconds along the way (`setup_s`). Prints a metric table, a JSON line with the
full report (input digests, versions, failures by stage and type) and,
last, one JSON line with `correct`, `attempted`, `failed` and the
metrics BENCHMARK.json lists: end-to-end ones with `--trace 0`,
per-layer ones with `--trace 1`. `--smoke` shrinks every size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import Clock, spawn_import
from workloads import CHILD_TIMEOUT_S, WORKLOADS, sized

HERE = Path(__file__).resolve().parent
#: Fresh interpreters run under `-X importtime` in a traced run.
IMPORTTIME_SPAWNS = 5
#: Recordings the CLI runs of cli-30s cycle through: few enough that
#: each is run several times, so that its fastest run can be kept.
CLI_RECORDINGS = 20
#: Timings (best of the run) scaled to the nominal machine; see speed.py.
TIMES = ("classify_p50_ms", "classify_p90_ms", "compile_p50_ms", "compile_p90_ms",
         "cli_p50_ms", "cli_p90_ms")
_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "tracereplay" / "__init__.py").is_file() or not spec_file.is_file():
        print("perfbench: run from the root of a tracereplay checkout "
              "(needs src/tracereplay and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    work = root / ".perfbench" / f"work-{os.getpid()}"
    try:
        return run(args, root, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root: Path, spec: dict, work: Path) -> int:
    workload = sized(args.workload, args.smoke)
    env = child_env(root)
    inputs = work / "inputs"
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload.name,
         "--seed", str(args.seed), "--out", str(inputs)] + ["--smoke"] * args.smoke,
        env=env, check=True, timeout=CHILD_TIMEOUT_S,
    )
    manifest = json.loads((inputs / "manifest.json").read_text())

    clock = Clock(env)
    startup = None
    if args.trace:
        startup = importtime(
            [spawn_import(env, ["-X", "importtime"]) for _ in range(IMPORTTIME_SPAWNS)]
        )

    sys.path.insert(0, str(root / "src"))
    import bench  # imports tracereplay, so only after the fresh-interpreter timings

    corpus = [
        bench.Recording(m["id"], inputs / m["file"], (inputs / m["file"]).read_bytes(),
                        m["detections"], tuple(m["truth"]))
        for m in manifest
    ]
    agent = None
    if workload.cli:
        agent_file = work / "agent.stub"
        agent_file.write_bytes(b"\x7fELF-stub")
        agent = str(agent_file)
    state = bench.Run(corpus, workload.flow, agent)
    start = perf_counter()
    deadline = start + args.seconds
    cli = {}
    layers = {}
    if args.trace:
        layers, tracer = bench.traced_layers(state, deadline)
        tracer.write(root / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.json")
        layers.update(startup)
    elif workload.cli:
        # The in-process passes check the CLI's output and give the
        # in-process metrics; the CLI runs give throughput and memory.
        runner = bench.Cli(state, corpus[:CLI_RECORDINGS], work / "cli-out", env)
        bench.interleave(state, runner, deadline, between=clock.tick)
        cli = runner.report()
    else:
        state.inprocess(deadline, between=clock.tick)
    measured_s = perf_counter() - start
    quality = state.quality()
    values = None
    if args.trace:
        listed = spec["per_layer"]
        # A layer a workload's flow never calls (from_json on cli-30s,
        # replay off cli-30s) spent no time and counted nothing there.
        chosen = {m["name"]: layers.get(m["name"], 0) for m in listed}
    else:
        clock.finish()
        raw = {**state.timings(), **cli}
        raw["setup_s"] = statistics.median(clock.setup_s)
        factor = clock.factor
        values = {
            "setup_s": clock.setup,
            **{k: scaled(raw[k], factor) for k in TIMES if k in raw},
            "detections_per_s": scaled(
                raw.get("cli_detections_per_s", raw["detections_per_s"]), 1 / factor),
            "compile_ok_ratio": quality["compile_ok_ratio"],
            "peak_rss_mb": cli.get("cli_peak_rss_mb",
                                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
            "lcs_ratio_mean": quality["lcs_ratio_mean"],
            "exact_ratio": quality["exact_ratio"],
        }
        listed = spec["end_to_end"]
        chosen = {m["name"]: values.get(m["name"]) for m in listed}
    metrics = {m["name"]: {"value": chosen[m["name"]], "unit": m["unit"]} for m in listed}

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "passes": state.passes,
        "values": values,
        "raw": raw if values else None,
        "speed": {"factor": clock.factor, "reference_ms_min": min(clock.reference_ms),
                  "reference_runs": len(clock.reference_ms),
                  "setup_s": clock.setup_s} if values else None,
        "per_layer": layers or None,
        "cli": cli or None,
        "failures": quality["failures"],
        "untyped": state.untyped,
        "problems": state.problems,
        "pins": pins(root, args.seed, manifest),
    }
    for name, metric in metrics.items():
        print(f"{name:48s} {fmt(metric['value']):>14s} {metric['unit']}")
    for name, value in (values or {}).items():
        if name not in metrics:
            print(f"{name:48s} {fmt(value):>14s} (reported, not in BENCHMARK.json)")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not state.problems,
        "attempted": quality["attempted"],
        "failed": quality["failed"],
        "metrics": metrics,
    }))
    return 0


def child_env(root: Path) -> dict:
    """Environment for children: the checkout's src first on the path,
    and no TRACEREPLAY_* settings from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRACEREPLAY_")}
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def importtime(outputs: list[str]) -> dict:
    """Medians of start-up costs from `-X importtime` (µs -> ms): the
    interpreter's own imports before the first line of user code,
    `import tracereplay`, and numpy within it."""
    interp, package, numpy = [], [], []
    for text in outputs:
        before, found = 0, {}
        for line in text.splitlines():
            match = _IMPORTTIME.match(line)
            if match is None:
                continue
            cumulative, indent, name = int(match[2]), match[3], match[4]
            if name not in found:
                found[name] = cumulative
            if not indent and "tracereplay" not in found:
                before += cumulative
        interp.append(before / 1000)
        package.append(found["tracereplay"] / 1000)
        numpy.append(found.get("numpy", 0) / 1000)
    return {
        "startup.interp_ms": statistics.median(interp),
        "startup.import_ms": statistics.median(package),
        "startup.numpy_import_ms": statistics.median(numpy),
    }


def pins(root: Path, seed: int, manifest: list[dict]) -> dict:
    """What the inputs and the environment were, so that a change to
    the generator shows as changed inputs rather than as a speed-up."""
    import numpy

    digests = [m["sha256"] for m in manifest]
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "inputs_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "inputs": [{"id": m["id"], "sha256": m["sha256"], "detections": m["detections"]}
                   for m in manifest],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def scaled(value, factor):
    return None if value is None else value * factor


def fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


if __name__ == "__main__":
    sys.exit(main())
