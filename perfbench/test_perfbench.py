"""Smoke tests of the benchmark harness: tiny sizes, so a broken harness
fails in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

from tracing import Span, layer_report  # noqa: E402

# long-40min is runnable by hand though BENCHMARK.json does not list it.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["long-40min"]


def smoke(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_listed_metric(workload, trace):
    report, last = result(smoke(workload, trace))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], report["problems"]
    assert last["attempted"] >= 1 and isinstance(last["failed"], int)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        metric = last["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)), m["name"]
    if trace:
        # Every layer on the workload's path was seen: only the read-back
        # (batch-30s only) and the dry-run replay (cli-30s only) may be absent.
        absent = {"cli-30s": {"classify.from_json.ms"},
                  "batch-30s": {"replay.push_and_replay.ms"},
                  "long-40min": {"classify.from_json.ms", "replay.push_and_replay.ms"}}
        for name, metric in last["metrics"].items():
            if name.endswith(".ms") and name.startswith(("model.", "segment.", "classify.",
                                                         "codegen.", "replay.")):
                assert (metric["value"] > 0) != (name in absent[workload]), name


def test_counts_quality_and_digests_repeat_for_a_seed():
    (a, a_last), (b, b_last) = result(smoke("batch-30s", 1)), result(smoke("batch-30s", 1))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {n: a_last["metrics"][n] for n in counts} == {n: b_last["metrics"][n] for n in counts}
    assert a["pins"]["inputs"] == b["pins"]["inputs"]
    assert a["failures"] == b["failures"]
    (c, c_last), (d, d_last) = result(smoke("cli-30s", 0)), result(smoke("cli-30s", 0))
    for key in ("compile_ok_ratio", "lcs_ratio_mean", "exact_ratio"):
        assert c["values"][key] == d["values"][key]
    assert (c_last["attempted"], c_last["failed"]) == (d_last["attempted"], d_last["failed"])
    other, _ = result(smoke("cli-30s", 0, seed=4))
    assert other["pins"]["inputs_sha256"] != c["pins"]["inputs_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("batch-30s", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_add_up_to_the_root():
    spans = [Span("root", 0, 0, None, 0, 100), Span("a", 0, 1, 0, 10, 40),
             Span("b", 0, 2, 1, 15, 25), Span("c", 0, 3, 0, 50, 90)]
    times, _ = layer_report(spans, {0})
    assert times == {"root.ms": 30 / 1e6, "a.ms": 20 / 1e6, "b.ms": 10 / 1e6, "c.ms": 40 / 1e6}
    spans.append(Span("d", 0, 4, 0, 80, 95))  # overlaps c
    with pytest.raises(ValueError):
        layer_report(spans, {0})


def test_benchmark_lcs_matches_brute_force():
    from bench import lcs_length

    rng = random.Random(0)
    for _ in range(200):
        a = [rng.choice("TLG") for _ in range(rng.randint(0, 6))]
        b = [rng.choice("TLG") for _ in range(rng.randint(0, 6))]
        best = 0
        for mask in range(1 << len(a)):
            sub = [x for i, x in enumerate(a) if mask >> i & 1]
            it = iter(b)
            if all(x in it for x in sub):
                best = max(best, len(sub))
        assert lcs_length(a, b) == best
