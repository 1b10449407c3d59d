"""Compile touch-detection traces of screen recordings into replayable
device input scripts, plus the synthetic-trace generator and metrics
used to verify the pipeline end to end.

Every public name is loaded from its submodule on first use (PEP 562),
so `import tracereplay` imports no submodule, and only the synthetic-
trace generator loads numpy.
"""

__version__ = "0.1.0"

#: Each exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "classify": (
            "ActionKind", "AtomicAction", "ClassifiedScenario", "MultiFingerItem",
            "SingleFingerItem", "classify_action", "classify_finger_count",
            "classify_trace", "filter_actions", "identify_sfa_mfa",
        ),
        "codegen": (
            "InputEvent", "SendEventScript", "assemble_script", "parse_runnable",
            "parse_script", "serialize_script", "translate_runnable", "validate_script",
        ),
        "errors": ("TraceReplayError",),
        "metrics": (
            "MetricsReport", "evaluate_batch", "lcs_ratio", "levenshtein",
            "precision_recall",
        ),
        "model": (
            "DetectionTrace", "DeviceProfile", "Opacity", "TouchDetection",
            "parse_trace", "serialize_trace",
        ),
        "replay": (
            "BridgeTransport", "DeviceTransport", "MockTransport", "ReplayConfig",
            "ReplayReport", "push_and_replay",
        ),
        "segment": ("TouchSequence", "filter_confidence", "segment_trace"),
        "synth": (
            "GroundTruthAction", "GroundTruthScenario", "NoiseModel", "noise_preset",
            "random_scenario", "synthesize_trace",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
