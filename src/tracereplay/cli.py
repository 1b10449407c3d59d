"""Command-line entry point.

Subcommands mirror the pipeline stages: synthesize (scenario fixture ->
trace), classify (trace -> classified scenario), generate (classified
scenario -> log + runnable script), replay (runnable -> device),
evaluate (sequence files -> metrics), and pipeline (classify ->
generate -> optional replay). Exit codes: 0 success; 1 device-side
failure, which is exactly a `TransportError` or `NonZeroExit`; 2 for
every other `TraceReplayError` and every `OSError` (input and config
errors, a scenario that cannot be compiled among them). `main` alone
maps a run's outcome to its exit code.

`run` is the process entry of `python -m tracereplay` and of the
`tracereplay` console script. A process runs one command and exits, so
`run` turns the cyclic garbage collector off, calls `main`, flushes
stdout and stderr, and ends with `os._exit`, which skips interpreter
teardown (freeing every object the run built). A usage error, an
uncaught exception or a flush that fails exits the ordinary way.
`main` and the library never touch the collector and never exit the
process; every file a command writes is closed before `main` returns.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

# Each command imports the modules it runs in its handler, so that a
# run loads no module it does not use.
from .config import Config, load_config, read_file
from .errors import (
    ConfigError,
    NonZeroExit,
    SchemaViolation,
    TraceReplayError,
    TransportError,
)

if TYPE_CHECKING:
    from .classify import ClassifiedScenario
    from .replay import ReplayReport

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2

#: The errors that exit EXIT_RUNTIME; every other error is an input error.
_RUNTIME_ERRORS = (TransportError, NonZeroExit)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Every setting flag given, empty values included: Config rejects those.
    flags = {name: value for name, value in vars(args).items()
             if name in Config._types and value is not None}
    try:
        args.handler(args, load_config(args.config, flags))
    except (TraceReplayError, OSError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_RUNTIME if isinstance(exc, _RUNTIME_ERRORS) else EXIT_INPUT
    return EXIT_OK


def run() -> NoReturn:
    """Run one command as this process's whole life (see the module
    docstring)."""
    gc.disable()  # a run builds few reference cycles; the exit reclaims them
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # missing, broken or closed
        sys.exit(code)
    os._exit(code)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracereplay",
        description="Compile touch-detection traces into replayable input scripts.",
    )
    parser.add_argument("--config", help="JSON configuration file")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


#: Each flag's argparse arguments. A flag that overrides a setting
#: stores into that `Config` field; the rest are command inputs.
_FLAGS = {
    "--scenario": dict(required=True, help="scenario fixture JSON"),
    "--trace": dict(required=True, help="detection trace JSON"),
    "--scenario-file": dict(required=True, help="classified scenario JSON"),
    "--script": dict(required=True, help="runnable script file"),
    "--pred": dict(required=True, help="predicted sequence file"),
    "--truth": dict(required=True, help="ground-truth sequence file"),
    "--json-out": dict(help="also write the report as JSON"),
    "--noise": dict(dest="noise_preset",
                    help="noise preset: clean | physical-device | emulator"),
    "--seed": dict(type=int, help="noise RNG seed"),
    "--device-node": dict(help="touch input device path on target"),
    "--agent": dict(dest="agent_path", help="local path of the replay agent binary"),
    "--bridge": dict(dest="bridge_path", help="debug-bridge executable path"),
    "--serial": dict(dest="device_serial", help="target device serial"),
    "--replay": dict(action="store_true", help="replay after generating"),
    "--dry-run": dict(action="store_true",
                      help="replay through an in-memory transport; no device calls"),
    "--out-dir": dict(help=f"output directory (default: {Config.out_dir})"),
    "--min-confidence": dict(
        type=float,
        help=f"detection confidence threshold (default {Config.min_confidence})"),
    "--extended": dict(dest="extended_alphabet", action="store_true", default=None,
                       help="finger-count-annotated symbols (G2, G3, ...)"),
    "--duration-cutoff": dict(dest="duration_based_cutoff", action="store_true",
                              default=None,
                              help="use the wall-clock tap cutoff for high-fps traces"),
}


def _out_dir(config: Config) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_synthesize(args, config: Config) -> None:
    from . import synth  # no other command loads the generator
    from .model import collapse_finger_counts, dump_sequence_file, serialize_trace

    data = read_file("--scenario", args.scenario)
    scenario = synth.GroundTruthScenario.from_json(data)
    noise = synth.noise_preset(config.noise_preset, seed=config.seed)
    trace, symbols = synth.synthesize_trace(scenario, noise)
    if not config.extended_alphabet:
        symbols = collapse_finger_counts(symbols)
    out = _out_dir(config)
    trace_file = out / "trace.json"
    trace_file.write_bytes(serialize_trace(trace))
    # Keyed by the trace file's stem, as `classify` keys its prediction.
    (out / "truth.txt").write_text(dump_sequence_file({trace_file.stem: symbols}))
    print(f"wrote {trace_file} ({len(trace)} detections)")
    print(f"wrote {out / 'truth.txt'} ({''.join(symbols) or '-'})")


def _classify(args, config: Config) -> ClassifiedScenario:
    """Classify the `--trace` file; write classified.json and predicted.txt."""
    from .classify import classify_trace
    from .model import dump_sequence_file, parse_trace

    trace = parse_trace(read_file("--trace", args.trace))
    scenario = classify_trace(trace, config.rules)
    symbols = scenario.symbols(extended=config.extended_alphabet)
    # Built first: an id the sequence file cannot hold writes no file.
    predicted = dump_sequence_file({Path(args.trace).stem: symbols})
    out = _out_dir(config)
    (out / "classified.json").write_bytes(scenario.to_json())
    (out / "predicted.txt").write_text(predicted)
    print(f"wrote {out / 'classified.json'} ({len(scenario.items)} items)")
    print(f"wrote {out / 'predicted.txt'} ({''.join(symbols) or '-'})")
    return scenario


def _cmd_generate(args, config: Config) -> None:
    from .classify import ClassifiedScenario

    data = read_file("--scenario-file", args.scenario_file)
    _generate(ClassifiedScenario.from_json(data), config)


def _generate(scenario: ClassifiedScenario, config: Config) -> bytes:
    """Write script.log and script.bin; return the runnable bytes."""
    from . import codegen

    script = codegen.assemble_script(scenario, device_node=config.device_node)
    out = _out_dir(config)
    (out / "script.log").write_bytes(codegen.serialize_script(script))
    runnable = codegen.translate_runnable(script)
    (out / "script.bin").write_bytes(runnable)
    print(f"wrote {out / 'script.log'} ({len(script.events)} events)")
    print(f"wrote {out / 'script.bin'}")
    return runnable


def _cmd_replay(args, config: Config) -> None:
    script = read_file("--script", args.script, text=False)
    report = _replay(script, args.dry_run, config)
    print(
        f"replay finished: exit={report.exit_code} "
        f"duration={report.duration_ms:.1f}ms calls={len(report.transcript)}"
    )


def _replay(script: bytes, dry_run: bool, config: Config) -> ReplayReport:
    from . import replay

    agent_path = config.agent_path
    if dry_run:
        transport: replay.DeviceTransport = replay.MockTransport()
        if agent_path is None:
            # No real binary needed for a dry run; stage a placeholder.
            placeholder = _out_dir(config) / "agent.stub"
            placeholder.write_bytes(b"\x7fELF-stub")
            agent_path = str(placeholder)
    elif agent_path is None:
        raise ConfigError("replay requires --agent (or agent_path in config)")
    else:
        transport = replay.BridgeTransport(
            bridge_path=config.bridge_path, serial=config.device_serial
        )
    cfg = replay.ReplayConfig(agent_path=agent_path, remote_dir=config.remote_dir)
    return replay.push_and_replay(script, transport, cfg)


def _cmd_evaluate(args, config: Config) -> None:
    from .metrics import evaluate_batch
    from .model import load_sequence_file

    pred = load_sequence_file(read_file("--pred", args.pred))
    truth = load_sequence_file(read_file("--truth", args.truth))
    missing = sorted(set(truth) - set(pred))
    if missing:
        raise SchemaViolation(f"prediction file missing scenarios: {missing}")
    report = evaluate_batch({sid: (pred[sid], truth[sid]) for sid in truth})
    print(report.format_table())
    if args.json_out:
        Path(args.json_out).write_bytes(report.to_json())
        print(f"wrote {args.json_out}")


def _cmd_pipeline(args, config: Config) -> None:
    script = _generate(_classify(args, config), config)
    if args.replay or args.dry_run:
        report = _replay(script, args.dry_run, config)
        mode = "dry-run" if args.dry_run else "device"
        print(f"replay ({mode}): exit={report.exit_code} "
              f"calls={len(report.transcript)}")


#: Command -> its help text, its handler and the flags it reads.
_COMMANDS = {
    "synthesize": ("render a scenario fixture into a trace", _cmd_synthesize,
                   ("--scenario", "--noise", "--seed", "--out-dir", "--extended")),
    "classify": ("classify a detection trace", _classify,
                 ("--trace", "--out-dir", "--min-confidence", "--extended",
                  "--duration-cutoff")),
    "generate": ("compile a classified scenario to scripts", _cmd_generate,
                 ("--scenario-file", "--device-node", "--out-dir")),
    "replay": ("push and run a runnable script", _cmd_replay,
               ("--script", "--agent", "--bridge", "--serial", "--dry-run",
                "--out-dir")),
    "evaluate": ("score predicted vs ground-truth sequences", _cmd_evaluate,
                 ("--pred", "--truth", "--json-out")),
    "pipeline": ("classify, generate, optionally replay", _cmd_pipeline,
                 ("--trace", "--device-node", "--agent", "--bridge", "--serial",
                  "--replay", "--dry-run", "--out-dir", "--min-confidence",
                  "--extended", "--duration-cutoff")),
}


if __name__ == "__main__":
    run()
