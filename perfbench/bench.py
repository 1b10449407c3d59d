"""Measurement loops for one workload: in-process compiles and CLI runs.

One client, closed loop: each recording is compiled only after the
previous one finished, in this process or in one child process at a
time. Every operation's outputs are checked; checks run outside the
timed sections.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracereplay import classify, codegen, metrics, model, replay, segment
from tracereplay.errors import TraceReplayError

from tracing import Tracer, layer_report, patched
from workloads import CHILD_TIMEOUT_S

#: A p90 is reported only from at least this many samples (10 beyond it).
MIN_SAMPLES = 100
#: Files `tracereplay pipeline` writes that are compared byte for byte.
OUTPUTS = ("classified.json", "script.log", "script.bin")


@dataclass
class Recording:
    id: str
    path: Path
    data: bytes
    detections: int
    truth: tuple[str, ...]


@dataclass
class Outcome:
    """What one compile produced, or where and how it failed."""

    classify_ns: int | None = None
    compile_ns: int | None = None
    op_ns: int | None = None  # whole operation, with the dry-run replay
    trace: model.DetectionTrace | None = None
    scenario: classify.ClassifiedScenario | None = None
    symbols: tuple[str, ...] | None = None
    script: codegen.SendEventScript | None = None
    outputs: dict[str, bytes] = field(default_factory=dict)
    failure: tuple[str, str] | None = None  # (stage, error type)
    detail: str = ""


class _NoSpan:
    """Stand-in for a span when the run is not traced."""

    counts: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


def _no_span(name):
    return _NO_SPAN


def compile_recording(rec: Recording, flow: str, agent: str | None,
                      tracer: Tracer | None = None) -> Outcome:
    """Trace bytes to a validated script, the way `flow` does it.

    Untraced, classification is one `classify_trace` call. Traced, it
    is the public functions `classify_trace` chains, each in its own
    span; the caller checks that both give the same scenario.
    """
    span = tracer.span if tracer else _no_span
    out = Outcome()
    stage = "parse"
    start = perf_counter_ns()
    with span("bench.compile"):
        try:
            with span("model.parse_trace") as s:
                trace = out.trace = model.parse_trace(rec.data)
                s.counts["detections"] = len(trace)
            stage = "classify"
            if tracer is None:
                scenario = classify.classify_trace(trace)
            else:
                scenario = _classify_traced(trace, span)
            with span("classify.to_json") as s:
                doc = scenario.to_json()
                s.counts["bytes"] = len(doc)
            out.scenario = scenario
            out.symbols = scenario.symbols(extended=True)
            out.outputs["classified.json"] = doc
            out.classify_ns = perf_counter_ns() - start
            if flow == "two-command":
                stage = "from_json"
                with span("classify.from_json"):
                    scenario = classify.ClassifiedScenario.from_json(doc)
            stage = "assemble"
            with span("codegen.assemble_script") as s:
                try:
                    script = codegen.assemble_script(scenario)
                except TraceReplayError as exc:
                    s.counts[f"failures.{type(exc).__name__}"] = 1
                    raise
                except Exception:
                    s.counts["failures.untyped"] = 1
                    raise
                s.counts["events"] = len(script.events)
            stage = "encode"
            with span("codegen.serialize_script") as s:
                log = codegen.serialize_script(script)
                s.counts["bytes"] = len(log)
            with span("codegen.translate_runnable") as s:
                runnable = codegen.translate_runnable(script)
                s.counts["bytes"] = len(runnable)
            out.compile_ns = perf_counter_ns() - start
            out.script = script
            out.outputs["script.log"] = log
            out.outputs["script.bin"] = runnable
            if agent is not None:
                stage = "replay"
                with span("replay.push_and_replay"):
                    replay.push_and_replay(
                        runnable, replay.MockTransport(),
                        replay.ReplayConfig(agent_path=agent),
                    )
            out.op_ns = perf_counter_ns() - start
        except TraceReplayError as exc:
            out.failure = (stage, type(exc).__name__)
            out.detail = str(exc)
        except Exception:  # a raw exception is a failed operation, listed by recording
            out.failure = (stage, "untyped")
            out.detail = traceback.format_exc(limit=4)
    return out


def _classify_traced(trace, span):
    with span("segment.segment_trace") as s:
        sequences = segment.segment_trace(trace)
        s.counts["sequences"] = len(sequences)
    actions = []
    for sequence in sequences:
        with span("classify.classify_action"):
            actions.append(classify.classify_action(sequence, trace.profile))
    with span("classify.filter_actions"):
        kept = classify.filter_actions(actions)
    with span("classify.identify_sfa_mfa") as s:
        scenario = classify.identify_sfa_mfa(kept, trace.profile)
        multi = sum(isinstance(i, classify.MultiFingerItem) for i in scenario.items)
        s.counts["sfa_items"] = len(scenario.items) - multi
        s.counts["mfa_items"] = multi
    return scenario


def check_outputs(out: Outcome, tracer: Tracer | None = None) -> list[str]:
    """Problems with a produced script: it must validate, and both
    encodings must decode back to the assembled events."""
    if out.script is None:
        return []
    span = tracer.span if tracer else _no_span
    problems = []
    with span("bench.check"):
        try:
            # Traced, this call is already wrapped in its own span (see traced_layers).
            codegen.validate_script(out.script)
            with span("codegen.parse_runnable"):
                events = codegen.parse_runnable(out.outputs["script.bin"])
            with span("codegen.parse_script"):
                parsed = codegen.parse_script(out.outputs["script.log"])
        except TraceReplayError as exc:
            return [f"{type(exc).__name__}: {exc}"]
    if events != list(out.script.events):
        problems.append("script.bin does not decode to the assembled events")
    if parsed != out.script:
        problems.append("script.log does not parse back to the assembled script")
    return problems


def lcs_length(a, b) -> int:
    """Longest common subsequence, kept apart from tracereplay.metrics
    so the yardstick does not come from the code under test."""
    row = [0] * (len(b) + 1)
    for x in a:
        diagonal = 0
        for j, y in enumerate(b):
            above = row[j + 1]
            row[j + 1] = diagonal + 1 if x == y else max(above, row[j])
            diagonal = above
    return row[-1]


def signature(out: Outcome) -> dict:
    """What a later operation on the same recording must reproduce."""
    return {
        "failure": out.failure,
        **{name: hashlib.sha256(data).hexdigest() for name, data in out.outputs.items()},
    }


def p50(samples):
    return statistics.median(samples) if samples else None


def p90(samples):
    if len(samples) < MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10)[8]


def best_ms(best: dict[str, int]) -> list[float]:
    return [ns / 1e6 for ns in best.values()]


class Run:
    """State of one workload run: per-recording best times, first-pass
    results and the problems the checks found.

    A recording's time is the fastest of its repeats in the run. Other
    tenants of a small machine slow it down for seconds at a time, and
    the fastest repeat is the one such a slowdown missed.
    """

    def __init__(self, corpus: list[Recording], flow: str, agent: str | None):
        self.corpus = corpus
        self.flow = flow
        self.agent = agent
        self.classify_ns: dict[str, int] = {}
        self.compile_ns: dict[str, int] = {}
        self.expected: dict[str, dict] = {}
        # Only symbols and failure: holding whole outcomes would inflate peak RSS.
        self.first: dict[str, tuple] = {}
        self.problems: list[str] = []
        self.untyped: list[dict] = []
        self.ops = 0
        self.traced_ms: list[float] = []
        self.untraced_ms: list[float] = []

    def problem(self, rec: Recording, text: str) -> None:
        self.problems.append(f"{rec.id}: {text}")

    def record(self, rec: Recording, out: Outcome, first: bool,
               tracer: Tracer | None = None) -> None:
        """Keep the best times, and check the outputs: fully on the first
        pass (and on every traced operation), later by comparing digests
        with the first pass."""
        for best, ns in ((self.classify_ns, out.classify_ns), (self.compile_ns, out.compile_ns)):
            if ns is not None:
                best[rec.id] = min(ns, best.get(rec.id, ns))
        if first or tracer is not None:
            for text in check_outputs(out, tracer):
                self.problem(rec, text)
        if first:
            self.first[rec.id] = (out.symbols or (), out.failure)
            self.expected[rec.id] = signature(out)
            if out.failure and out.failure[1] == "untyped":
                self.untyped.append(
                    {"recording": rec.id, "stage": out.failure[0], "error": out.detail}
                )
        elif signature(out) != self.expected[rec.id]:
            self.problem(rec, "outputs differ from the first pass")

    @property
    def passes(self) -> float:
        return self.ops / len(self.corpus)

    def step(self, tracer: Tracer | None = None) -> None:
        """Compile the next recording, pass after pass over the corpus."""
        n = len(self.corpus)
        rec = self.corpus[self.ops % n]
        if tracer is None:
            out = compile_recording(rec, self.flow, self.agent)
        else:
            tracer.op = self.ops
            out = self.traced_op(rec, tracer)
        self.record(rec, out, self.ops < n, tracer)
        self.ops += 1

    def inprocess(self, deadline: float, tracer: Tracer | None = None,
                  between=lambda: None) -> None:
        """Compile the corpus at least once, then until the deadline.
        `between` runs between operations."""
        while self.ops < len(self.corpus) or perf_counter() < deadline:
            between()
            self.step(tracer)

    def traced_op(self, rec: Recording, tracer: Tracer) -> Outcome:
        """A traced compile, then an untraced twin of the same recording."""
        out = compile_recording(rec, self.flow, self.agent, tracer)
        if out.scenario is not None and out.scenario != classify.classify_trace(out.trace):
            self.problem(rec, "traced classification differs from classify_trace")
        twin = compile_recording(rec, self.flow, self.agent)
        if signature(twin) != signature(out):
            self.problem(rec, "traced and untraced compiles differ")
        if out.op_ns is not None and twin.op_ns is not None:
            self.traced_ms.append(out.op_ns / 1e6)
            self.untraced_ms.append(twin.op_ns / 1e6)
        return out

    def timings(self) -> dict:
        """Percentiles over recordings of their best times, and
        detections per second of compile time over compiled recordings."""
        classify_ms, compile_ms = best_ms(self.classify_ns), best_ms(self.compile_ns)
        detections = sum(r.detections for r in self.corpus if r.id in self.compile_ns)
        seconds = sum(self.compile_ns.values()) / 1e9
        return {
            "classify_p50_ms": p50(classify_ms),
            "classify_p90_ms": p90(classify_ms),
            "compile_p50_ms": p50(compile_ms),
            "compile_p90_ms": p90(compile_ms),
            "detections_per_s": detections / seconds if seconds else None,
            "samples": {"classify": len(classify_ms), "compile": len(compile_ms)},
        }

    def quality(self) -> dict:
        """Recovery quality and compile outcomes over the first pass."""
        lcs, exact, failures = [], 0, {}
        for rec in self.corpus:
            # A recording that could not be classified predicted nothing.
            symbols, failure = self.first[rec.id]
            if failure:
                key = f"{failure[0]}.{failure[1]}"
                failures[key] = failures.get(key, 0) + 1
            ratio = lcs_length(symbols, rec.truth) / len(rec.truth)
            if ratio != metrics.lcs_ratio(symbols, rec.truth):
                self.problem(rec, "benchmark LCS disagrees with metrics.lcs_ratio")
            lcs.append(ratio)
            exact += symbols == rec.truth
        n = len(self.corpus)
        failed = sum(failures.values())
        return {
            "attempted": n,
            "failed": failed,
            "failures": failures,
            "compile_ok_ratio": (n - failed) / n,
            "lcs_ratio_mean": statistics.fmean(lcs),
            "exact_ratio": exact / n,
        }


def traced_layers(run: Run, deadline: float) -> tuple[dict, Tracer]:
    """Per-layer self times and counts from a traced in-process loop."""
    tracer = Tracer()
    internal = [
        # Calls public functions make internally get child spans too.
        (segment, "filter_confidence", tracer.wrap(
            "segment.filter_confidence", segment.filter_confidence,
            lambda args, kept: {"kept": len(kept), "dropped": len(args[0]) - len(kept)},
        )),
        (codegen, "validate_script", tracer.wrap(
            "codegen.validate_script", codegen.validate_script)),
        (replay, "parse_runnable", tracer.wrap(
            "codegen.parse_runnable", replay.parse_runnable)),
    ]
    with patched(internal):
        run.inprocess(deadline, tracer)
    n = len(run.corpus)
    times, counts = layer_report(tracer.spans, set(range(n)))
    traced, untraced = p50(run.traced_ms), p50(run.untraced_ms)
    times["trace.op_traced.ms"] = traced
    times["trace.op_untraced.ms"] = untraced
    times["trace.overhead.ms"] = (
        traced - untraced if traced is not None and untraced is not None else None
    )
    return {**times, **counts}, tracer


def run_cli(rec: Recording, out_dir: Path, env: dict) -> tuple[int, int, int, bytes]:
    """One `tracereplay pipeline --dry-run`: exit code, wall ns, peak RSS
    (KiB) of the child, and its stderr."""
    for name in OUTPUTS:
        (out_dir / name).unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "tracereplay", "pipeline", "--trace", str(rec.path),
           "--out-dir", str(out_dir), "--dry-run"]
    start = perf_counter_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
    # Reaped with wait4 rather than Popen.wait, for the child's own rusage.
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter_ns() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stderr.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return proc.returncode, wall, usage.ru_maxrss, stderr


class Cli:
    """CLI runs over a few recordings, compared with the in-process
    first pass of the same recording."""

    def __init__(self, run: Run, recordings: list[Recording], out_dir: Path, env: dict):
        self.run = run
        self.recordings = recordings
        self.out_dir = out_dir
        self.env = env
        out_dir.mkdir(parents=True, exist_ok=True)
        self.best: dict[str, int] = {}
        self.exit_codes: dict[str, int] = {}
        self.peak_kib = self.runs = 0

    def step(self) -> None:
        rec = self.recordings[self.runs % len(self.recordings)]
        code, wall, rss, stderr = run_cli(rec, self.out_dir, self.env)
        self.runs += 1
        self.exit_codes[str(code)] = self.exit_codes.get(str(code), 0) + 1
        self.peak_kib = max(self.peak_kib, rss)
        expected = self.run.expected[rec.id]
        if code == 0:
            self.best[rec.id] = min(wall, self.best.get(rec.id, wall))
            if expected["failure"]:
                self.run.problem(rec, f"CLI exit 0, in-process failed {expected['failure']}")
        elif expected["failure"] is None:
            self.run.problem(rec, f"CLI exit {code}, in-process compile succeeded")
        elif (expected["failure"][1] == "untyped") != (b"Traceback" in stderr):
            self.run.problem(rec, f"CLI exit {code} with stderr {stderr[:120]!r}")
        for name in OUTPUTS:
            path = self.out_dir / name
            got = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
            if got != expected.get(name):
                self.run.problem(rec, f"CLI {name} differs from the in-process bytes")

    def report(self) -> dict:
        detections = sum(r.detections for r in self.recordings if r.id in self.best)
        wall_ms = best_ms(self.best)
        seconds = sum(self.best.values()) / 1e9
        return {
            "cli_runs": self.runs,
            "cli_p50_ms": p50(wall_ms),
            "cli_p90_ms": p90(wall_ms),
            "cli_samples": len(wall_ms),
            "cli_exit_codes": self.exit_codes,
            "cli_detections_per_s": detections / seconds if seconds else None,
            "cli_peak_rss_mb": self.peak_kib / 1024,
        }


def interleave(run: Run, cli: Cli, deadline: float, between=lambda: None) -> None:
    """In-process operations and CLI runs, alternated so that each gets
    half of the time and both sample the whole run: a slow spell of the
    machine then hits both alike. Each side covers its recordings at
    least once; a recording's first CLI run waits for its in-process
    first pass, which it is compared with."""
    n, m = len(run.corpus), len(cli.recordings)
    spent_in = spent_cli = 0.0
    while run.ops < n or cli.runs < m or perf_counter() < deadline:
        between()
        in_needed, cli_needed = run.ops < n, cli.runs < m
        if cli_needed and cli.runs >= run.ops:
            use_cli = False
        elif in_needed != cli_needed:
            use_cli = cli_needed
        else:
            use_cli = spent_cli <= spent_in
        start = perf_counter()
        if use_cli:
            cli.step()
            spent_cli += perf_counter() - start
        else:
            run.step()
            spent_in += perf_counter() - start
