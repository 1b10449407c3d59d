"""Command-line entry point.

Subcommands mirror the pipeline stages: synthesize (scenario fixture ->
trace), classify (trace -> classified scenario), generate (classified
scenario -> log + runnable script), replay (runnable -> device),
evaluate (sequence files -> metrics), and pipeline (classify ->
generate -> optional replay). Exit codes: 0 success, 1 runtime failure,
2 input/config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Each command imports the modules it runs in its handler, so that a
# run loads no module it does not use.
from .config import Config, load_config, read_file
from .errors import (
    BoundsViolation,
    ConfigError,
    EmptyGroundTruth,
    InvalidScenario,
    MalformedJson,
    SchemaViolation,
    ScriptFormatError,
    TraceReplayError,
)

if TYPE_CHECKING:
    from .classify import ClassifiedScenario
    from .replay import ReplayReport

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2

_INPUT_ERRORS = (
    MalformedJson,
    SchemaViolation,
    BoundsViolation,
    InvalidScenario,
    ScriptFormatError,
    EmptyGroundTruth,
    ConfigError,
    OSError,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        _apply_overrides(config, args)
        config.validate()
        return args.handler(args, config)
    except _INPUT_ERRORS as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TraceReplayError as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracereplay",
        description="Compile touch-detection traces into replayable input scripts.",
    )
    parser.add_argument("--config", help="JSON configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="render a scenario fixture into a trace")
    p.add_argument("--scenario", required=True, help="scenario fixture JSON")
    p.add_argument("--noise", help="noise preset: clean | physical-device | emulator")
    p.add_argument("--seed", type=int, help="noise RNG seed")
    _common_flags(p)
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("classify", help="classify a detection trace")
    p.add_argument("--trace", required=True, help="detection trace JSON")
    _common_flags(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("generate", help="compile a classified scenario to scripts")
    p.add_argument("--scenario-file", required=True, help="classified scenario JSON")
    p.add_argument("--device-node", help="touch input device path on target")
    _common_flags(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("replay", help="push and run a runnable script")
    p.add_argument("--script", required=True, help="runnable script file")
    p.add_argument("--agent", help="local path of the replay agent binary")
    p.add_argument("--bridge", help="debug-bridge executable path")
    p.add_argument("--serial", help="target device serial")
    p.add_argument("--dry-run", action="store_true",
                   help="use an in-memory transport; no device interaction")
    _common_flags(p)
    p.set_defaults(handler=_cmd_replay)

    p = sub.add_parser("evaluate", help="score predicted vs ground-truth sequences")
    p.add_argument("--pred", required=True, help="predicted sequence file")
    p.add_argument("--truth", required=True, help="ground-truth sequence file")
    p.add_argument("--json-out", help="also write the report as JSON")
    _common_flags(p)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="classify, generate, optionally replay")
    p.add_argument("--trace", required=True, help="detection trace JSON")
    p.add_argument("--device-node", help="touch input device path on target")
    p.add_argument("--agent", help="local path of the replay agent binary")
    p.add_argument("--bridge", help="debug-bridge executable path")
    p.add_argument("--serial", help="target device serial")
    p.add_argument("--replay", action="store_true", help="replay after generating")
    p.add_argument("--dry-run", action="store_true",
                   help="with --replay: in-memory transport, no device calls")
    _common_flags(p)
    p.set_defaults(handler=_cmd_pipeline)

    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", help="output directory (default: out)")
    p.add_argument("--min-confidence", type=float,
                   help="detection confidence threshold (default 0.7)")
    p.add_argument("--extended", action="store_true", default=None,
                   help="finger-count-annotated symbols (G2, G3, ...)")
    p.add_argument("--duration-cutoff", action="store_true", default=None,
                   help="use the wall-clock tap cutoff for high-fps traces")


#: Command-line flag (argparse dest) -> the Config field it overrides.
_OVERRIDES = {
    "out_dir": "out_dir",
    "min_confidence": "min_confidence",
    "extended": "extended_alphabet",
    "duration_cutoff": "duration_based_cutoff",
    "seed": "seed",
    "noise": "noise_preset",
    "bridge": "bridge_path",
    "serial": "device_serial",
    "agent": "agent_path",
    "device_node": "device_node",
}


def _apply_overrides(config: Config, args) -> None:
    """Apply every flag that was given, empty values included: the
    config check rejects those rather than falling back silently."""
    for flag, key in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, key, value)


def _out_dir(config: Config) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_synthesize(args, config: Config) -> int:
    from . import metrics, synth  # the only command that needs numpy
    from .model import serialize_trace

    data = read_file("--scenario", args.scenario)
    scenario = synth.GroundTruthScenario.from_json(data)
    noise = synth.noise_preset(config.noise_preset, seed=config.seed)
    trace, symbols = synth.synthesize_trace(scenario, noise)
    if not config.extended_alphabet:
        symbols = metrics.collapse_finger_counts(symbols)
    out = _out_dir(config)
    (out / "trace.json").write_bytes(serialize_trace(trace))
    sid = Path(args.scenario).stem
    (out / "truth.txt").write_text(metrics.dump_sequence_file({sid: symbols}))
    print(f"wrote {out / 'trace.json'} ({len(trace)} detections)")
    print(f"wrote {out / 'truth.txt'} ({''.join(symbols) or '-'})")
    return EXIT_OK


def _cmd_classify(args, config: Config) -> int:
    _classify(args.trace, config)
    return EXIT_OK


def _classify(trace_path: str, config: Config) -> ClassifiedScenario:
    """Classify a trace file; write classified.json and predicted.txt."""
    from .classify import classify_trace
    from .metrics import dump_sequence_file
    from .model import parse_trace

    trace = parse_trace(read_file("--trace", trace_path))
    scenario = classify_trace(
        trace,
        min_confidence=config.min_confidence,
        duration_based_cutoff=config.duration_based_cutoff,
    )
    symbols = scenario.symbols(extended=config.extended_alphabet)
    out = _out_dir(config)
    (out / "classified.json").write_bytes(scenario.to_json())
    sid = Path(trace_path).stem
    (out / "predicted.txt").write_text(dump_sequence_file({sid: symbols}))
    print(f"wrote {out / 'classified.json'} ({len(scenario.items)} items)")
    print(f"wrote {out / 'predicted.txt'} ({''.join(symbols) or '-'})")
    return scenario


def _cmd_generate(args, config: Config) -> int:
    from .classify import ClassifiedScenario

    data = read_file("--scenario-file", args.scenario_file)
    return _generate(ClassifiedScenario.from_json(data), config)


def _generate(scenario: ClassifiedScenario, config: Config) -> int:
    from . import codegen

    script = codegen.assemble_script(scenario, device_node=config.device_node)
    out = _out_dir(config)
    (out / "script.log").write_bytes(codegen.serialize_script(script))
    (out / "script.bin").write_bytes(codegen.translate_runnable(script))
    print(f"wrote {out / 'script.log'} ({len(script.events)} events)")
    print(f"wrote {out / 'script.bin'}")
    return EXIT_OK


def _cmd_replay(args, config: Config) -> int:
    script = read_file("--script", args.script, text=False)
    report = _replay(script, args.dry_run, config)
    print(
        f"replay finished: exit={report.exit_code} "
        f"duration={report.duration_ms:.1f}ms calls={len(report.transcript)}"
    )
    return EXIT_OK


def _replay(script: bytes, dry_run: bool, config: Config) -> ReplayReport:
    from . import replay

    if dry_run:
        transport: replay.DeviceTransport = replay.MockTransport()
        agent_path = config.agent_path
        if agent_path is None:
            # No real binary needed for a dry run; stage a placeholder.
            placeholder = _out_dir(config) / "agent.stub"
            placeholder.write_bytes(b"\x7fELF-stub")
            agent_path = str(placeholder)
    else:
        if config.agent_path is None:
            raise ConfigError("replay requires --agent (or agent_path in config)")
        transport = replay.BridgeTransport(
            bridge_path=config.bridge_path, serial=config.device_serial
        )
        agent_path = config.agent_path
    cfg = replay.ReplayConfig(agent_path=agent_path, remote_dir=config.remote_dir)
    return replay.push_and_replay(script, transport, cfg)


def _cmd_evaluate(args, config: Config) -> int:
    from . import metrics

    pred = metrics.load_sequence_file(read_file("--pred", args.pred))
    truth = metrics.load_sequence_file(read_file("--truth", args.truth))
    missing = sorted(set(truth) - set(pred))
    if missing:
        raise SchemaViolation(f"prediction file missing scenarios: {missing}")
    ids = list(truth)
    report = metrics.evaluate_batch([(pred[sid], truth[sid]) for sid in ids], ids)
    print(report.format_table())
    if args.json_out:
        Path(args.json_out).write_bytes(report.to_json())
        print(f"wrote {args.json_out}")
    return EXIT_OK


def _cmd_pipeline(args, config: Config) -> int:
    scenario = _classify(args.trace, config)
    _generate(scenario, config)
    if args.replay or args.dry_run:
        script = (_out_dir(config) / "script.bin").read_bytes()
        report = _replay(script, args.dry_run, config)
        mode = "dry-run" if args.dry_run else "device"
        print(f"replay ({mode}): exit={report.exit_code} "
              f"calls={len(report.transcript)}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
