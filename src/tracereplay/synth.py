"""Inverse pipeline: render ground-truth scenarios into detection traces.

Lets the segmenter, classifier, and codegen be verified round-trip
without a device or a detector. A scenario is a list of timed finger
paths; the synthesizer turns every path point into a high-opacity
detection, appends a low-opacity fade tail where each finger lifts, and
optionally corrupts the result with a seeded noise model.
"""

from __future__ import annotations

import json
from bisect import bisect
from itertools import accumulate
from math import cos, floor, hypot, inf, isfinite, log, log1p, pi, sin
from random import Random
from statistics import NormalDist

from .errors import InvalidScenario, SchemaViolation
from .model import (
    HIGH,
    KIND_SYMBOLS,
    LOW,
    DetectionTrace,
    DeviceProfile,
    Frozen,
    Symbols,
    TouchDetection,
    _int,
    _is_number,
    _require,
    gesture_symbol,
    load_document,
)

SCENARIO_SCHEMA_VERSION = 1

#: Rendered touch-indicator bounding-box edge length in pixels.
INDICATOR_SIZE = 40.0

#: Fraction of jitter variance that is a per-contact systematic offset.
#: Detector localization error is dominated by a bias that is stable for
#: one contact's visual appearance; only the remainder varies per frame.
JITTER_BIAS_VARIANCE = 0.8

#: Length of the low-opacity tail after a finger lift, in frames.
FADE_FRAMES = 3

#: How often `random_scenario` draws each kind of action (the shares sum
#: to 1), and where each kind's share of [0, 1) ends, but the last's.
_KIND_WEIGHTS = {"tap": 0.35, "long_tap": 0.15, "gesture": 0.30, "two_finger": 0.20}
_KINDS = tuple(_KIND_WEIGHTS)
_KIND_BOUNDS = tuple(accumulate(_KIND_WEIGHTS.values()))[:-1]

#: (frame, x, y) sample of one finger's position.
PathPoint = tuple[int, float, float]
_BAD_POINT = "paths must be lists of [frame, x, y] points"


class GroundTruthAction(Frozen):
    """One user action: one timed path per finger, the paths and each
    path a list or tuple, each point (frame, x, y) an integer frame (not
    a bool) and finite numbers x and y, stored as floats. The string
    kind applies to single-finger actions; any action with two or more
    fingers is a multi-fingered gesture downstream.
    """

    _fields = ("kind", "paths")

    def __init__(self, kind: str, paths: tuple[tuple[PathPoint, ...], ...]):
        _require(isinstance(paths, (list, tuple))
                 and all(isinstance(path, (list, tuple)) for path in paths), _BAD_POINT)
        if not isinstance(kind, str) or kind not in KIND_SYMBOLS:
            raise InvalidScenario(f"unknown action kind {kind!r}")
        paths = tuple(tuple(map(_point, path)) for path in paths)
        if not paths or any(not path for path in paths):
            raise InvalidScenario("action needs at least one non-empty path")
        if len(paths) > 10:
            raise InvalidScenario(f"at most 10 fingers supported, got {len(paths)}")
        for path in paths:
            frames = [p[0] for p in path]
            if any(b <= a for a, b in zip(frames, frames[1:])):
                raise InvalidScenario(
                    f"path frames must strictly increase, got {frames}"
                )
        self._set(kind, paths)

    @property
    def fingers(self) -> int:
        return len(self.paths)

    @property
    def start_frame(self) -> int:
        return min(path[0][0] for path in self.paths)

    @property
    def end_frame(self) -> int:
        return max(path[-1][0] for path in self.paths)

    @property
    def symbol(self) -> str:
        """Ground-truth action-type symbol (finger-count annotated)."""
        if self.fingers > 1:
            return gesture_symbol(self.fingers)
        return KIND_SYMBOLS[self.kind]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "paths": self.paths}  # tuples dump as arrays

    @classmethod
    def from_dict(cls, data: dict) -> "GroundTruthAction":
        if not isinstance(data, dict) or "kind" not in data or "paths" not in data:
            raise SchemaViolation("action must be an object with kind and paths")
        return cls(kind=data["kind"], paths=data["paths"])


class GroundTruthScenario(Frozen):
    """Chronological ground-truth actions, a list or tuple of
    GroundTruthAction, plus the DeviceProfile they target."""

    _fields = ("profile", "actions")

    def __init__(self, profile: DeviceProfile, actions: tuple[GroundTruthAction, ...]):
        _require(isinstance(profile, DeviceProfile), "profile must be a DeviceProfile")
        _require(isinstance(actions, (list, tuple))
                 and all(isinstance(a, GroundTruthAction) for a in actions),
                 "actions must be a list or tuple of GroundTruthAction")
        actions = tuple(actions)
        starts = [a.start_frame for a in actions]
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise InvalidScenario("actions must be ordered by start frame")
        slop = profile.touch_slop
        for action in actions:
            if action.kind in ("tap", "long_tap") and action.fingers == 1:
                (path,) = action.paths
                x0, y0 = path[0][1], path[0][2]
                for _, x, y in path:
                    if hypot(x - x0, y - y0) > slop:
                        raise InvalidScenario(
                            f"{action.kind} path wanders beyond touch slop"
                        )
        self._set(profile, actions)

    @property
    def symbols(self) -> Symbols:
        return tuple(a.symbol for a in self.actions)

    def to_json(self) -> bytes:
        doc = {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "device": self.profile.to_dict(),
            "actions": [a.to_dict() for a in self.actions],
        }
        return json.dumps(doc, indent=2).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes | str) -> "GroundTruthScenario":
        doc = load_document(data, SCENARIO_SCHEMA_VERSION, ("device", "actions"))
        if not isinstance(doc["actions"], list):
            raise SchemaViolation("actions must be a list")
        return cls(
            profile=DeviceProfile.from_dict(doc["device"]),
            actions=tuple(GroundTruthAction.from_dict(a) for a in doc["actions"]),
        )


class NoiseModel(Frozen):
    """Detector-imperfection model applied during synthesis.

    position_jitter_sigma is the total per-axis standard deviation of
    detection-center error; most of its variance is a per-contact bias
    (see JITTER_BIAS_VARIANCE). false_positive_rate is a per-frame
    probability of injecting a spurious short-lived detection;
    dropout_rate is a per-detection probability of the detector missing
    a real touch. Every lift leaves a FADE_FRAMES low-opacity tail.
    rng_seed seeds the noise generator: an integer in [0, 2**1000), which
    reads `seed` in its errors, as the flag and the config key do.
    """

    _fields = ("position_jitter_sigma", "false_positive_rate", "dropout_rate",
               "rng_seed")

    def __init__(self, position_jitter_sigma: float = 0.0,
                 false_positive_rate: float = 0.0, dropout_rate: float = 0.0,
                 rng_seed: int = 0):
        _require(_is_number(position_jitter_sigma) and position_jitter_sigma >= 0,
                 "position_jitter_sigma must be a number >= 0")
        _require(_is_number(false_positive_rate) and 0.0 <= false_positive_rate <= 1.0,
                 "false_positive_rate must be a number in [0, 1]")
        _require(_is_number(dropout_rate) and 0.0 <= dropout_rate <= 1.0,
                 "dropout_rate must be a number in [0, 1]")
        _int(rng_seed, "seed", 0)
        self._set(position_jitter_sigma, false_positive_rate, dropout_rate, rng_seed)


#: Calibration presets; "clean" is exact, the other two approximate the
#: detector-quality gap observed between physical devices and emulators.
NOISE_PRESETS = {
    "clean": NoiseModel(),
    "physical-device": NoiseModel(
        position_jitter_sigma=2.0, false_positive_rate=0.005, dropout_rate=0.01
    ),
    "emulator": NoiseModel(
        position_jitter_sigma=4.0, false_positive_rate=0.01, dropout_rate=0.03
    ),
}


def noise_preset(name: str, seed: int = 0) -> NoiseModel:
    if name not in NOISE_PRESETS:
        raise SchemaViolation(
            f"unknown noise preset {name!r}; options: {sorted(NOISE_PRESETS)}"
        )
    p = NOISE_PRESETS[name]
    return NoiseModel(p.position_jitter_sigma, p.false_positive_rate, p.dropout_rate,
                      seed)


def synthesize_trace(
    scenario: GroundTruthScenario,
    noise: NoiseModel | None = None,
) -> tuple[DetectionTrace, Symbols]:
    """Render a scenario into a detection trace.

    Returns the trace plus the scenario's action-type symbol sequence.
    Deterministic for identical (scenario, noise) inputs. With a
    zero-noise model every high-opacity detection center equals a path
    point exactly.
    """
    noise = noise or NoiseModel()
    rng = Random(noise.rng_seed)
    profile = scenario.profile
    sigma = noise.position_jitter_sigma
    bias_sigma = sigma * JITTER_BIAS_VARIANCE ** 0.5
    frame_sigma = sigma * (1.0 - JITTER_BIAS_VARIANCE) ** 0.5

    detections: list[TouchDetection] = []
    for action in scenario.actions:
        for path in action.paths:
            bias_x = _normal(rng) * bias_sigma
            bias_y = _normal(rng) * bias_sigma
            last_pos = None
            for f, x, y in path:
                cx = x + bias_x + _normal(rng) * frame_sigma
                cy = y + bias_y + _normal(rng) * frame_sigma
                confidence = rng.uniform(0.8, 1.0)
                dropped = rng.random() < noise.dropout_rate
                last_pos = (cx, cy)
                if not dropped:
                    detections.append(
                        _detection_at(profile, f, cx, cy, confidence, HIGH)
                    )
            lift_frame = path[-1][0]
            for k in range(1, FADE_FRAMES + 1):
                confidence = rng.uniform(0.75, 0.95)
                dropped = rng.random() < noise.dropout_rate
                if not dropped:
                    detections.append(
                        _detection_at(
                            profile, lift_frame + k, last_pos[0], last_pos[1],
                            confidence, LOW,
                        )
                    )

    span = 0
    if scenario.actions:
        span = max(a.end_frame for a in scenario.actions) + FADE_FRAMES + 1

    # Spurious detections: short-lived, positioned anywhere, confidence
    # low enough that only some survive the downstream 0.7 filter. Each
    # frame of the span starts one with probability false_positive_rate;
    # the frames between two starts are drawn at once, geometrically.
    half = INDICATOR_SIZE / 2.0
    rate = noise.false_positive_rate
    log_none = log1p(-rate) if rate < 1.0 else -inf  # log P(a frame starts none)
    f = -1  # the last frame that started one
    while rate:
        gap = log(1.0 - rng.random()) / log_none  # frames before the next start; may be inf
        if gap >= span - f - 1:
            break
        f += 1 + floor(gap)
        fx = rng.uniform(half, profile.screen_width - half)
        fy = rng.uniform(half, profile.screen_height - half)
        lifetime = _integer(rng, 1, 3)
        confidence = rng.uniform(0.5, 1.0)
        for k in range(lifetime):
            detections.append(
                _detection_at(profile, f + k, fx, fy, confidence, HIGH)
            )

    total = max(
        span, max((d.frame for d in detections), default=-1) + 1
    )
    trace = DetectionTrace(
        profile=profile, detections=tuple(detections), frame_count=total
    )
    return trace, scenario.symbols


def _detection_at(
    profile: DeviceProfile,
    frame: int,
    cx: float,
    cy: float,
    confidence: float,
    opacity: str,
) -> TouchDetection:
    """Build a detection whose bbox is centered on (cx, cy), kept on-screen."""
    size = INDICATOR_SIZE
    half = size / 2.0
    cx = min(max(cx, half), profile.screen_width - half)
    cy = min(max(cy, half), profile.screen_height - half)
    return TouchDetection(
        frame=frame,
        bbox=(cx - half, cy - half, size, size),
        confidence=confidence,
        opacity=opacity,
    )


def random_scenario(
    profile: DeviceProfile,
    seed: int,
    n_actions: int | None = None,
) -> GroundTruthScenario:
    """Draw a random but valid scenario: taps, long taps, gestures, and
    two-finger actions, in the proportions of `_KIND_WEIGHTS`, with
    inter-action gaps wide enough that fade tails never bridge adjacent
    actions. `seed`, and `n_actions` unless None, are ints in [0, 2**1000).
    """
    rng = Random(_int(seed, "seed", 0))
    n = _integer(rng, 5, 26) if n_actions is None else _int(n_actions, "n_actions", 0)
    margin = 60.0
    width, height = float(profile.screen_width), float(profile.screen_height)
    cursor = _integer(rng, 5, 20)
    actions: list[GroundTruthAction] = []

    for _ in range(n):
        choice = _KINDS[bisect(_KIND_BOUNDS, rng.random())]
        if choice == "tap":
            duration = _integer(rng, 5, 16)
            action = _stationary_action("tap", cursor, duration, rng, width, height, margin)
        elif choice == "long_tap":
            duration = _integer(rng, 25, 46)
            action = _stationary_action("long_tap", cursor, duration, rng, width, height, margin)
        elif choice == "gesture":
            duration = _integer(rng, 8, 41)
            action = _swipe_action(cursor, duration, rng, width, height, margin)
        else:
            duration = _integer(rng, 10, 31)
            action = _two_finger_action(cursor, duration, rng, width, height, margin)
        actions.append(action)
        cursor = action.end_frame + _integer(rng, 8, 25)

    return GroundTruthScenario(profile=profile, actions=tuple(actions))


def _point(point) -> PathPoint:
    """`point` as (frame, float(x), float(y)), if it is three values: an
    integer frame (not a bool) in [0, 2**1000), and finite numbers x and
    y."""
    try:
        frame, x, y = point
        if all(map(_is_number, (frame, x, y))) and isinstance(frame, int):
            if isfinite(x) and isfinite(y):
                return _int(frame, "frame", 0), float(x), float(y)
    except (OverflowError, TypeError, ValueError):  # no 3 values; a huge int
        pass
    raise SchemaViolation(_BAD_POINT)


def _integer(rng: Random, lo: int, hi: int) -> int:
    """A uniform draw from the integers in [lo, hi)."""
    return lo + floor((hi - lo) * rng.random())


_inv_cdf = NormalDist().inv_cdf


def _normal(rng: Random) -> float:
    """A standard normal draw: the inverse normal CDF of a draw in (0, 1)."""
    u = 0.0
    while not u:
        u = rng.random()
    return _inv_cdf(u)


def _stationary_action(kind, start, duration, rng, width, height, margin):
    x = rng.uniform(margin, width - margin)
    y = rng.uniform(margin, height - margin)
    path = tuple((start + k, x, y) for k in range(duration))
    return GroundTruthAction(kind=kind, paths=(path,))


def _swipe_action(start, duration, rng, width, height, margin):
    x0 = rng.uniform(margin, width - margin)
    y0 = rng.uniform(margin, height - margin)
    angle = rng.uniform(0.0, 2.0 * pi)
    length = rng.uniform(80.0, 400.0)
    x1 = min(max(x0 + length * cos(angle), margin), width - margin)
    y1 = min(max(y0 + length * sin(angle), margin), height - margin)
    # Re-aim at the far side if clamping collapsed the travel distance;
    # a swipe must wander well past the touch slop to stay a gesture.
    if ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5 < 60.0:
        x1 = margin if x0 > width / 2 else width - margin
        y1 = y0
    path = tuple(
        (start + k,
         x0 + (x1 - x0) * k / max(duration - 1, 1),
         y0 + (y1 - y0) * k / max(duration - 1, 1))
        for k in range(duration)
    )
    return GroundTruthAction(kind="gesture", paths=(path,))


def _two_finger_action(start, duration, rng, width, height, margin):
    # Wide enough inset that finger orbits (r <= 270px) never clamp.
    inset = margin + 280.0
    cx = rng.uniform(inset, width - inset)
    cy = rng.uniform(inset, height - inset)
    angle = rng.uniform(0.0, 2.0 * pi)
    ux, uy = cos(angle), sin(angle)
    r0 = rng.uniform(80.0, 150.0)
    if rng.random() < 0.25:
        r1 = r0  # two-finger tap: both fingers hold still
        duration = min(duration, 15)
    elif rng.random() < 0.5:
        r1 = r0 + rng.uniform(40.0, 120.0)  # spread
    else:
        r1 = max(r0 - rng.uniform(40.0, 120.0), 75.0)  # pinch
    paths = []
    for sign in (1.0, -1.0):
        path = []
        for k in range(duration):
            r = r0 + (r1 - r0) * k / max(duration - 1, 1)
            px = min(max(cx + sign * r * ux, margin), width - margin)
            py = min(max(cy + sign * r * uy, margin), height - margin)
            path.append((start + k, px, py))
        paths.append(tuple(path))
    return GroundTruthAction(kind="gesture", paths=tuple(paths))
