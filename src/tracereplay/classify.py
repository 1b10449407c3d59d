"""Action classification: "tap", "long_tap" or "gesture", then SFA/MFA grouping.

A segmented touch sequence is a Tap when every center stays within the
device touch slop of the first center and the active span (first touch
through last high-opacity touch) is at most 20 frames, or 667 ms when
the run's `model.Rules` has `duration_based_cutoff`; a LongTap when it
is stationary but longer; a Gesture otherwise. Actions whose frames
mostly contain multiple simultaneous touches are regrouped into
multi-fingered actions via a chronological stack sweep, and each
multi-fingered group's finger count is the per-frame touch-count mode.
Kinds and a scenario's symbols are spelled in `model`'s action-symbol alphabet.
A scenario's document, classified.json, is read at schema version 2 only;
each touch in it is a `[frame, x, y, w, h, confidence, opacity]` row.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import starmap

from .errors import SchemaViolation
from .model import (
    KIND_SYMBOLS,
    DetectionTrace,
    DeviceProfile,
    Frozen,
    Rules,
    Symbols,
    TouchDetection,
    _center,
    _detection,
    _int,
    _require,
    _tuple_of,
    _unchecked,
    collapse_finger_counts,
    device_json,
    gesture_symbol,
    json_array,
    load_document,
)
from .segment import TouchSequence, segment_trace

CLASSIFIED_SCHEMA_VERSION = 2

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


class AtomicAction(TouchSequence):
    """One finger's classified contact, of a `KIND_SYMBOLS` kind:
    a `TouchSequence`, with its checks, its derived `high_touches` and its frames."""

    _fields = ("kind", "touches")

    def __init__(self, kind: str, touches: tuple[TouchDetection, ...]):
        _require(isinstance(kind, str) and kind in KIND_SYMBOLS,
                 f"unknown action kind {kind!r}")
        sequence = TouchSequence(touches)
        self._set(kind, sequence.touches, high_touches=sequence.high_touches)

    def symbol(self) -> str:
        return KIND_SYMBOLS[self.kind]


class MultiFingerItem(Frozen):
    """One multi-fingered gesture: its fingers' actions and finger count,
    at most one finger per action."""

    _fields = ("actions", "finger_count")

    def __init__(self, actions: tuple[AtomicAction, ...], finger_count: int):
        actions = _tuple_of(actions, AtomicAction,
                            "mfa actions must be an iterable of AtomicAction")
        _require(actions, "mfa item must have at least one action")
        _int(finger_count, "finger_count", 1)
        _require(finger_count <= len(actions), f"finger_count {finger_count} "
                 f"exceeds the item's {len(actions)} actions")
        self._set(actions, finger_count)

    @property
    def start_frame(self) -> int:
        return min(a.start_frame for a in self.actions)

    @property
    def end_frame(self) -> int:
        return max(a.end_frame for a in self.actions)

    def symbol(self) -> str:
        return gesture_symbol(self.finger_count)


#: A single-fingered item is its action.
ScenarioItem = AtomicAction | MultiFingerItem


class ClassifiedScenario(Frozen):
    """Chronological single- and multi-fingered actions of one trace, one
    contact per action. The constructor checks the profile, the items' types
    and order, and the classifier's guarantees: each action has a high-opacity
    touch, and no detection (all four fields) belongs to two actions."""

    _fields = ("profile", "items")

    def __init__(self, profile: DeviceProfile, items: tuple[ScenarioItem, ...]):
        _require(isinstance(profile, DeviceProfile), "profile must be a DeviceProfile")
        items = _tuple_of(items, (AtomicAction, MultiFingerItem),
                          "scenario items must be AtomicActions or MultiFingerItems")
        starts = [item.start_frame for item in items]
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise SchemaViolation("scenario items must be ordered by start frame")
        actions = [action for item in items for action in (
            item.actions if isinstance(item, MultiFingerItem) else (item,))]
        _require(all(action.high_touches for action in actions),
                 "every scenario action needs a high-opacity touch")
        touches = [touch for action in actions for touch in action.touches]
        _require(len(set(touches)) == len(touches),
                 "scenario actions must not share a detection")
        self._set(profile, items)

    def symbols(self, extended: bool = False) -> Symbols:
        """The items' symbols; without `extended`, `G<n>` reads `G`."""
        symbols = tuple(item.symbol() for item in self.items)
        return symbols if extended else collapse_finger_counts(symbols)

    def to_json(self) -> bytes:
        """The classified.json document (schema version 2; see `_action_members`)."""
        items = []
        for item in self.items:
            if isinstance(item, AtomicAction):
                items.append(f'    {{"type": "sfa", {_action_members(item, 6)}}}')
            else:
                actions = ",\n".join(
                    [f"      {{{_action_members(a, 8)}}}" for a in item.actions])
                items.append(f'    {{"type": "mfa", "finger_count": {item.finger_count}, '
                             f'"actions": [\n{actions}]}}')
        return (
            f'{{\n  "schema_version": {CLASSIFIED_SCHEMA_VERSION},\n'
            f'  "device": {device_json(self.profile)},\n'
            f'  "items": {json_array(items)}\n}}'
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
                items.append(_read_action(raw))
            elif raw["type"] == "mfa":
                raw_actions = raw.get("actions")
                if not isinstance(raw_actions, list):
                    raise SchemaViolation("mfa actions must be a list")
                items.append(MultiFingerItem(map(_read_action, raw_actions),
                                             raw.get("finger_count")))
            else:
                raise SchemaViolation(f"unknown item type {raw['type']!r}")
        return cls(profile, items)


def classify_action(
    sequence: TouchSequence, profile: DeviceProfile, rules: Rules = Rules()
) -> AtomicAction:
    """Label one touch sequence as Tap, LongTap, or Gesture."""
    touches = sequence.touches
    x0, y0 = touches[0].center
    slop = profile.touch_slop
    stationary = all(
        math.hypot(x - x0, y - y0) <= slop for x, y in map(_center, touches)
    )
    if not stationary:
        kind = "gesture"
    else:
        cutoff = TAP_CUTOFF_FRAMES
        if rules.duration_based_cutoff:
            cutoff = max(round(profile.fps * TAP_CUTOFF_MS / 1000.0), 1)
        active = sequence.last_high_frame - sequence.start_frame + 1
        kind = "tap" if active <= cutoff else "long_tap"
    # The sequence was checked when it was built.
    return _unchecked(AtomicAction, kind=kind, touches=touches,
                      high_touches=sequence.high_touches)


def filter_actions(actions: list[AtomicAction]) -> list[AtomicAction]:
    """Drop mostly low-opacity actions, keeping order. (Segmentation has
    already discarded every sequence of two frames or fewer.)"""
    return [
        a for a in actions
        if len(a.high_touches) / len(a.touches) >= MIN_HIGH_FRACTION
    ]


def per_frame_touch_counts(actions: list[AtomicAction]) -> Counter:
    """Simultaneous touch count per frame over the retained actions."""
    return Counter([t.frame for a in actions for t in a.touches])


def _chronological(action: AtomicAction) -> tuple:
    """Sort key of actions: start frame, end frame, first center."""
    return (action.start_frame, action.end_frame, action.touches[0].center)


def group_overlapping(actions: list[AtomicAction]) -> list[list[AtomicAction]]:
    """Chronological stack sweep over frame-overlapping actions.

    Sorted by start frame, an action joins the group on top of the stack
    when its first frame precedes the last frame of any action already
    in that group; otherwise it opens a new group. Once a group is left
    behind it can never be rejoined (starts are sorted).
    """
    if not actions:
        return []
    ordered = sorted(actions, key=_chronological)
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
    return max(frequency.items(), key=lambda kv: (kv[1], kv[0]))[0]


def identify_sfa_mfa(
    actions: list[AtomicAction], profile: DeviceProfile
) -> ClassifiedScenario:
    """Partition classified actions into single- and multi-fingered items.

    An action whose own frame span is at most half multi-touch frames
    (measured against per-frame counts over all retained actions) is a
    single-fingered action outright; the rest are grouped by the stack
    sweep, with singleton groups demoted back to single-fingered.
    """
    ordered = sorted(actions, key=_chronological)
    counts = per_frame_touch_counts(ordered)
    # bisect_right(multi_frames, f) counts the multi-touch frames up to f:
    # a prefix sum kept only at the frames where it grows.
    multi_frames = sorted([f for f, n in counts.items() if n >= 2])
    items: list[ScenarioItem] = []
    potential_multi: list[AtomicAction] = []
    for action in ordered:
        start, end = action.start_frame, action.end_frame
        multi = bisect_right(multi_frames, end) - bisect_left(multi_frames, start)
        if multi / (end - start + 1) > MULTI_TOUCH_GATE:
            potential_multi.append(action)
        else:
            items.append(action)

    for group in group_overlapping(potential_multi):
        if len(group) == 1:
            items.append(group[0])
        else:
            items.append(MultiFingerItem(group, classify_finger_count(group)))
    items.sort(key=lambda item: (item.start_frame, item.end_frame))
    return ClassifiedScenario(profile, items)


def classify_trace(trace: DetectionTrace, rules: Rules = Rules()) -> ClassifiedScenario:
    """Full back half: segment, classify, filter, and regroup a trace by `rules`."""
    sequences = segment_trace(trace, rules)
    actions = [classify_action(s, trace.profile, rules) for s in sequences]
    return identify_sfa_mfa(filter_actions(actions), trace.profile)


def _action_members(action: AtomicAction, indent: int) -> str:
    """An action's `kind` and `touches` members, each touch a row
    `[frame, x, y, w, h, confidence, opacity]`, its floats written by
    `repr`, on a line of its own after `indent` spaces."""
    pad = " " * indent
    rows = f",\n{pad}".join([
        f'[{frame}, {x!r}, {y!r}, {w!r}, {h!r}, {confidence!r}, "{opacity}"]'
        for frame, (x, y, w, h), confidence, opacity, _ in action.touches
    ])
    return f'"kind": "{action.kind}", "touches": [\n{pad}{rows}]'


def _read_action(data: dict) -> AtomicAction:
    """The action of an SFA item or an MFA finger, each row built by
    `model._detection`. The first bad row decides the error: one that is
    not a list of 7 values, then one whose values are no detection."""
    if not isinstance(data, dict) or "kind" not in data or "touches" not in data:
        raise SchemaViolation("action must be an object with kind and touches")
    rows = data["touches"]
    _require(isinstance(rows, list), "action touches must be a list")
    try:
        touches = tuple(starmap(_detection, rows))
    except (TypeError, SchemaViolation):
        for row in rows:
            _require(type(row) is list and len(row) == 7, "touch must be a list "
                     f"[frame, x, y, w, h, confidence, opacity], got {row!r}")
            _detection(*row)
        raise
    return AtomicAction(data["kind"], touches)
