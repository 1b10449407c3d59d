"""Compile touch-detection traces of screen recordings into replayable
device input scripts, plus the synthetic-trace generator and metrics
used to verify the pipeline end to end.
"""

from .classify import (
    ActionKind,
    AtomicAction,
    ClassifiedScenario,
    MultiFingerItem,
    SingleFingerItem,
    classify_action,
    classify_finger_count,
    classify_trace,
    filter_actions,
    identify_sfa_mfa,
)
from .codegen import (
    InputEvent,
    SendEventScript,
    assemble_script,
    parse_runnable,
    parse_script,
    serialize_script,
    translate_runnable,
    validate_script,
)
from .errors import TraceReplayError
from .metrics import (
    MetricsReport,
    evaluate_batch,
    lcs_ratio,
    levenshtein,
    precision_recall,
)
from .model import (
    DetectionTrace,
    DeviceProfile,
    Opacity,
    TouchDetection,
    parse_trace,
    serialize_trace,
)
from .replay import (
    BridgeTransport,
    DeviceTransport,
    MockTransport,
    ReplayConfig,
    ReplayReport,
    push_and_replay,
)
from .segment import TouchSequence, filter_confidence, segment_trace

__version__ = "0.1.0"

#: Generator names, re-exported on first use: only the synthetic-trace
#: generator needs numpy, so `import tracereplay` does not load it.
_SYNTH_NAMES = frozenset({
    "GroundTruthAction",
    "GroundTruthScenario",
    "NoiseModel",
    "noise_preset",
    "random_scenario",
    "synthesize_trace",
})


def __getattr__(name: str):
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
