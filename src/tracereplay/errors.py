"""Exception hierarchy shared by all pipeline stages."""


class TraceReplayError(Exception):
    """Base class for every error raised by this package."""


class MalformedJson(TraceReplayError):
    """Input document is not syntactically valid JSON."""


class SchemaViolation(TraceReplayError):
    """Document parses but violates the schema or a field invariant."""


class BoundsViolation(TraceReplayError):
    """A bounding box falls outside the device screen rectangle."""


class InvalidScenario(TraceReplayError):
    """Ground-truth scenario violates its structural invariants."""


class SlotExhaustion(TraceReplayError):
    """More simultaneous contacts than the protocol's slot budget."""


class ScriptFormatError(TraceReplayError):
    """Serialized script (log or runnable bytes) cannot be parsed."""


class EmptyGroundTruth(TraceReplayError):
    """Metric requires a non-empty ground-truth sequence."""


class TransportError(TraceReplayError):
    """Device transport failed to push a file or run a command."""


class NonZeroExit(TraceReplayError):
    """Replay agent finished with a non-zero exit code."""

    def __init__(self, exit_code: int, output: str):
        super().__init__(f"replay agent exited with code {exit_code}")
        self.exit_code = exit_code
        self.output = output


class ConfigError(TraceReplayError):
    """Configuration file or CLI arguments are unusable."""
