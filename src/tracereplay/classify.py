"""Action classification: Tap / LongTap / Gesture, then SFA/MFA grouping.

A segmented touch sequence is a Tap when every center stays within the
device touch slop of the first center and the active span (first touch
through last high-opacity touch) is at most 20 frames; a LongTap when it
is stationary but longer; a Gesture otherwise. Actions whose frames
mostly contain multiple simultaneous touches are regrouped into
multi-fingered actions via a chronological stack sweep, and each
multi-fingered group's finger count is the per-frame touch-count mode.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from enum import Enum
from typing import NamedTuple, Union

from .errors import SchemaViolation
from .model import (
    DetectionTrace,
    DeviceProfile,
    Frozen,
    Opacity,
    TouchDetection,
    _int_field,
    detections_json,
    device_json,
    json_array,
    load_document,
)
from .segment import MAX_DISCARD_FRAMES, MIN_CONFIDENCE, TouchSequence, segment_trace

CLASSIFIED_SCHEMA_VERSION = 1

#: A stationary press at most this many frames long is a Tap.
TAP_CUTOFF_FRAMES = 20

#: Wall-clock equivalent of the 20-frame cutoff at the 30fps baseline,
#: used when classifying high-fps traces with a duration-based cutoff.
TAP_CUTOFF_MS = 667.0

#: Actions with a smaller fraction of high-opacity touches are spurious.
MIN_HIGH_FRACTION = 0.1

#: Strictly more than this fraction of multi-touch frames marks a
#: potential multi-fingered action.
MULTI_TOUCH_GATE = 0.5


class ActionKind(Enum):
    TAP = "tap"
    LONG_TAP = "long_tap"
    GESTURE = "gesture"

    @property
    def symbol(self) -> str:
        return {"tap": "T", "long_tap": "L", "gesture": "G"}[self.value]


class AtomicAction(NamedTuple):
    """One finger's classified contiguous contact."""

    kind: ActionKind
    sequence: TouchSequence

    @property
    def start_frame(self) -> int:
        return self.sequence.start_frame

    @property
    def end_frame(self) -> int:
        return self.sequence.end_frame

    @property
    def active_end_frame(self) -> int:
        """Last high-opacity frame: the fade tail is not active contact."""
        return self.sequence.last_high_frame

    @property
    def active_frames(self) -> int:
        return self.active_end_frame - self.start_frame + 1

    @classmethod
    def from_dict(cls, data: dict) -> "AtomicAction":
        if not isinstance(data, dict) or "kind" not in data or "touches" not in data:
            raise SchemaViolation("action must be an object with kind and touches")
        try:
            kind = ActionKind(data["kind"])
        except ValueError:
            raise SchemaViolation(f"unknown action kind {data['kind']!r}") from None
        raw = data["touches"]
        if not isinstance(raw, list):
            raise SchemaViolation("action touches must be a list")
        # One walk loads the touches and checks what TouchSequence would:
        # frames strictly increase and the low-opacity touches are a suffix.
        touches = []
        previous, highs, valid = -1, None, True  # highs: index of the first low
        for touch in map(TouchDetection.from_dict, raw):
            valid = valid and touch.frame > previous
            previous = touch.frame
            if touch.opacity is Opacity.LOW:
                if highs is None:
                    highs = len(touches)
            elif highs is not None:
                valid = False
            touches.append(touch)
        touches = tuple(touches)
        if not (valid and touches):
            TouchSequence(touches=touches)  # raises the constructor's error
        return cls(
            kind=kind, sequence=TouchSequence._validated(touches, touches[:highs])
        )


class SingleFingerItem(NamedTuple):
    action: AtomicAction

    @property
    def start_frame(self) -> int:
        return self.action.start_frame

    @property
    def end_frame(self) -> int:
        return self.action.end_frame

    def symbol(self, extended: bool = False) -> str:
        return self.action.kind.symbol


class MultiFingerItem(NamedTuple):
    actions: tuple[AtomicAction, ...]
    finger_count: int

    @property
    def start_frame(self) -> int:
        return min(a.start_frame for a in self.actions)

    @property
    def end_frame(self) -> int:
        return max(a.end_frame for a in self.actions)

    def symbol(self, extended: bool = False) -> str:
        return f"G{self.finger_count}" if extended else "G"


ScenarioItem = Union[SingleFingerItem, MultiFingerItem]


class ClassifiedScenario(Frozen):
    """Chronological single- and multi-fingered actions of one trace."""

    _fields = ("profile", "items")

    def __init__(self, profile: DeviceProfile, items: tuple[ScenarioItem, ...]):
        items = tuple(items)
        starts = [item.start_frame for item in items]
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise SchemaViolation("scenario items must be ordered by start frame")
        self._set(profile, items)

    def symbols(self, extended: bool = False) -> tuple[str, ...]:
        return tuple(item.symbol(extended) for item in self.items)

    def to_json(self) -> bytes:
        """The classified.json document, laid out as json.dumps(indent=2)."""
        items = []
        for item in self.items:
            if isinstance(item, SingleFingerItem):
                items.append(
                    '    {\n      "type": "sfa",\n      "action": '
                    f"{_action_json(item.action, 3)}\n    }}"
                )
            else:
                actions = json_array(
                    ["        " + _action_json(a, 4) for a in item.actions], 3
                )
                items.append(
                    '    {\n      "type": "mfa",\n'
                    f'      "finger_count": {item.finger_count},\n'
                    f'      "actions": {actions}\n    }}'
                )
        return (
            f'{{\n  "schema_version": {CLASSIFIED_SCHEMA_VERSION},\n'
            f'  "device": {device_json(self.profile, 1)},\n'
            f'  "items": {json_array(items, 1)}\n}}'
        ).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes | str) -> "ClassifiedScenario":
        doc = load_document(data, CLASSIFIED_SCHEMA_VERSION, ("device", "items"))
        profile = DeviceProfile.from_dict(doc["device"])
        if not isinstance(doc["items"], list):
            raise SchemaViolation("items must be a list")
        items: list[ScenarioItem] = []
        for raw in doc["items"]:
            if not isinstance(raw, dict) or "type" not in raw:
                raise SchemaViolation("item must be an object with a type")
            if raw["type"] == "sfa":
                action = AtomicAction.from_dict(raw.get("action"))
                items.append(SingleFingerItem(action))
            elif raw["type"] == "mfa":
                raw_actions = raw.get("actions")
                if not isinstance(raw_actions, list):
                    raise SchemaViolation("mfa actions must be a list")
                actions = tuple(map(AtomicAction.from_dict, raw_actions))
                finger_count = _int_field(raw, "finger_count")
                items.append(
                    MultiFingerItem(actions=actions, finger_count=finger_count)
                )
            else:
                raise SchemaViolation(f"unknown item type {raw['type']!r}")
        # Checked after the walk, so that a defect in a later item is the
        # one reported, as it was before empty groups were rejected.
        if any(isinstance(item, MultiFingerItem) and not item.actions
               for item in items):
            raise SchemaViolation("mfa item must have at least one action")
        return cls(profile=profile, items=tuple(items))


def tap_cutoff_frames(profile: DeviceProfile, duration_based: bool = False) -> int:
    """Tap/LongTap frame cutoff; optionally rescaled for high-fps traces."""
    if duration_based:
        return max(round(profile.fps * TAP_CUTOFF_MS / 1000.0), 1)
    return TAP_CUTOFF_FRAMES


def classify_action(
    sequence: TouchSequence,
    profile: DeviceProfile,
    duration_based_cutoff: bool = False,
) -> AtomicAction:
    """Label one touch sequence as Tap, LongTap, or Gesture."""
    x0, y0 = sequence.touches[0].center
    stationary = all(
        math.hypot(t.center[0] - x0, t.center[1] - y0) <= profile.touch_slop
        for t in sequence.touches
    )
    if not stationary:
        kind = ActionKind.GESTURE
    else:
        cutoff = tap_cutoff_frames(profile, duration_based_cutoff)
        active = sequence.last_high_frame - sequence.start_frame + 1
        kind = ActionKind.TAP if active <= cutoff else ActionKind.LONG_TAP
    return AtomicAction(kind=kind, sequence=sequence)


def filter_actions(actions: list[AtomicAction]) -> list[AtomicAction]:
    """Drop mostly low-opacity actions and two-frame blips, keeping order."""
    kept = []
    for action in actions:
        touches = action.sequence.touches
        high_fraction = len(action.sequence.high_touches) / len(touches)
        span = action.end_frame - action.start_frame + 1
        if high_fraction >= MIN_HIGH_FRACTION and span > MAX_DISCARD_FRAMES:
            kept.append(action)
    return kept


def per_frame_touch_counts(actions: list[AtomicAction]) -> Counter:
    """Simultaneous touch count per frame over the retained actions."""
    return Counter([t.frame for a in actions for t in a.sequence.touches])


def group_overlapping(actions: list[AtomicAction]) -> list[list[AtomicAction]]:
    """Chronological stack sweep over frame-overlapping actions.

    Sorted by start frame, an action joins the group on top of the stack
    when its first frame precedes the last frame of any action already
    in that group; otherwise it opens a new group. Once a group is left
    behind it can never be rejoined (starts are sorted).
    """
    if not actions:
        return []
    ordered = sorted(
        actions,
        key=lambda a: (a.start_frame, a.end_frame, a.sequence.touches[0].center),
    )
    stack: list[list[AtomicAction]] = [[ordered[0]]]
    for action in ordered[1:]:
        top = stack[-1]
        if any(action.start_frame < member.end_frame for member in top):
            top.append(action)
        else:
            stack.append([action])
    return stack


def classify_finger_count(actions: list[AtomicAction]) -> int:
    """Mode of per-frame simultaneous-touch counts over the group's span.

    Robust against a stray short tap inflating the count; ties break
    toward the larger count.
    """
    if not actions:
        raise SchemaViolation("finger count of an empty group is undefined")
    counts = per_frame_touch_counts(actions)
    start = min(a.start_frame for a in actions)
    end = max(a.end_frame for a in actions)
    frequency = Counter(counts.get(f, 0) for f in range(start, end + 1))
    mode = max(frequency.items(), key=lambda kv: (kv[1], kv[0]))[0]
    return mode


def identify_sfa_mfa(
    actions: list[AtomicAction], profile: DeviceProfile
) -> ClassifiedScenario:
    """Partition classified actions into single- and multi-fingered items.

    An action whose own frame span is at most half multi-touch frames
    (measured against per-frame counts over all retained actions) is a
    single-fingered action outright; the rest are grouped by the stack
    sweep, with singleton groups demoted back to single-fingered.
    """
    ordered = sorted(
        actions,
        key=lambda a: (a.start_frame, a.end_frame, a.sequence.touches[0].center),
    )
    counts = per_frame_touch_counts(ordered)
    # bisect_right(multi_frames, f) counts the multi-touch frames up to f:
    # a prefix sum kept only at the frames where it grows.
    multi_frames = sorted([f for f, n in counts.items() if n >= 2])
    singles: list[AtomicAction] = []
    potential_multi: list[AtomicAction] = []
    for action in ordered:
        start, end = action.start_frame, action.end_frame
        multi = bisect_right(multi_frames, end) - bisect_left(multi_frames, start)
        if multi / (end - start + 1) > MULTI_TOUCH_GATE:
            potential_multi.append(action)
        else:
            singles.append(action)

    items: list[ScenarioItem] = [SingleFingerItem(a) for a in singles]
    for group in group_overlapping(potential_multi):
        if len(group) == 1:
            items.append(SingleFingerItem(group[0]))
        else:
            items.append(
                MultiFingerItem(
                    actions=tuple(group), finger_count=classify_finger_count(group)
                )
            )
    items.sort(key=lambda item: (item.start_frame, item.end_frame))
    return ClassifiedScenario(profile=profile, items=tuple(items))


def classify_trace(
    trace: DetectionTrace,
    min_confidence: float = MIN_CONFIDENCE,
    duration_based_cutoff: bool = False,
) -> ClassifiedScenario:
    """Full back half: segment, classify, filter, and regroup a trace."""
    sequences = segment_trace(trace, min_confidence)
    actions = [
        classify_action(s, trace.profile, duration_based_cutoff) for s in sequences
    ]
    return identify_sfa_mfa(filter_actions(actions), trace.profile)


def _action_json(action: AtomicAction, depth: int) -> str:
    """One action object opening at `depth` (its first line unindented)."""
    pad = "  " * (depth + 1)
    return (
        f'{{\n{pad}"kind": "{action.kind.value}",\n'
        f'{pad}"touches": {detections_json(action.sequence.touches, depth + 1)}'
        f'\n{"  " * depth}}}'
    )

