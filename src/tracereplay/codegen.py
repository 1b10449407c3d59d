"""Compile classified scenarios into timestamped kernel input events.

Both single- and multi-fingered actions are emitted with the Linux
multi-touch protocol type B (a single-fingered action simply occupies
one slot). Every sync window carries the timestamp of the video frame
it reproduces; sample spacing therefore equals 1000/fps ms.

Two on-disk forms exist:

* a human-readable log, one event per line::

      [<seconds>.<micros>] <device_node>: <type:hex4> <code:hex4> <value:hex8>

  preceded by ``#`` header lines carrying the device node and profile so
  the log round-trips losslessly;

* a compact runnable form consumed by the on-device replay agent: the
  8-byte magic ``V2SR\\x01\\x00\\x00\\x00`` followed by little-endian
  records ``(delta_us: u32, type: u16, code: u16, value: i32)``.
"""

from __future__ import annotations

import json
import math
import re
import struct
from functools import partial
from itertools import accumulate
from typing import NamedTuple

from .classify import ActionKind, ClassifiedScenario, SingleFingerItem
from .errors import OverlapConflict, ScriptFormatError, SlotExhaustion
from .model import DeviceProfile, valid_device_node

# Kernel input event vocabulary (multi-touch protocol type B).
EV_SYN = 0x0000
EV_KEY = 0x0001
EV_ABS = 0x0003
SYN_REPORT = 0x0000
BTN_TOUCH = 0x014A
ABS_MT_SLOT = 0x002F
ABS_MT_POSITION_X = 0x0035
ABS_MT_POSITION_Y = 0x0036
ABS_MT_TRACKING_ID = 0x0039
TRACKING_RELEASE = -1  # closes a contact

MAX_SLOTS = 10

DEFAULT_DEVICE_NODE = "/dev/input/event2"

RUNNABLE_MAGIC = b"V2SR\x01\x00\x00\x00"
_RECORD = struct.Struct("<IHHi")
# Field ranges of a runnable record.
_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
_I32_END = 1 << 31

_LOG_LINE = re.compile(
    r"^\[(\d+)\.(\d{6})\] (\S+): ([0-9a-f]{4}) ([0-9a-f]{4}) ([0-9a-f]{8})$"
)

#: "type code " log text of each (event type, code) pair the emitters use.
_TYPE_CODE_TEXT = {
    pair: "%04x %04x " % pair
    for pair in (
        (EV_SYN, SYN_REPORT),
        (EV_KEY, BTN_TOUCH),
        (EV_ABS, ABS_MT_SLOT),
        (EV_ABS, ABS_MT_TRACKING_ID),
        (EV_ABS, ABS_MT_POSITION_X),
        (EV_ABS, ABS_MT_POSITION_Y),
    )
}


class InputEvent(NamedTuple):
    """One kernel input event, timestamped from script start.

    A plain 4-tuple underneath: it compares equal to
    ``(timestamp_us, event_type, event_code, value)``.
    """

    timestamp_us: int
    event_type: int
    event_code: int
    value: int


#: InputEvent from one 4-tuple, built in C without the Python-level
#: ``__new__`` that ``InputEvent(...)`` runs.
_event = partial(tuple.__new__, InputEvent)


class SendEventScript(NamedTuple):
    """Replayable event stream plus the device it targets."""

    device_node: str
    events: tuple[InputEvent, ...]
    profile: DeviceProfile


def frame_offset_us(frames: int, fps: int) -> int:
    """Microseconds spanned by `frames` frames, rounded to the grid."""
    return round(frames * 1_000_000 / fps)


def _emit_sfa(action, profile, t0_us, slot, tracking_id):
    """Events for one single-fingered action from `t0_us`: one sample
    held for a tap or long tap, one per high-opacity touch for a
    gesture, and a release one frame after the last active frame."""
    fps = profile.fps
    start = action.start_frame
    x, y = _device_coords(action.sequence.touches[0].center, profile)
    events = [
        _event((t0_us, EV_ABS, ABS_MT_SLOT, slot)),
        _event((t0_us, EV_ABS, ABS_MT_TRACKING_ID, tracking_id)),
        _event((t0_us, EV_KEY, BTN_TOUCH, 1)),
        _event((t0_us, EV_ABS, ABS_MT_POSITION_X, x)),
        _event((t0_us, EV_ABS, ABS_MT_POSITION_Y, y)),
        _event((t0_us, EV_SYN, SYN_REPORT, 0)),
    ]
    if action.kind is ActionKind.GESTURE:
        append = events.append
        for touch in action.sequence.high_touches[1:]:
            t = t0_us + frame_offset_us(touch.frame - start, fps)
            x, y = _device_coords(touch.center, profile)
            append(_event((t, EV_ABS, ABS_MT_POSITION_X, x)))
            append(_event((t, EV_ABS, ABS_MT_POSITION_Y, y)))
            append(_event((t, EV_SYN, SYN_REPORT, 0)))
    t_end = t0_us + frame_offset_us(action.active_frames, fps)
    events += (
        _event((t_end, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE)),
        _event((t_end, EV_KEY, BTN_TOUCH, 0)),
        _event((t_end, EV_SYN, SYN_REPORT, 0)),
    )
    return events


def _emit_mfa(actions, profile, t0_us, first_tracking_id):
    """Events for a multi-fingered group from `t0_us`: one sync window
    per frame for every finger active in it; each finger opens with a
    fresh tracking id and closes in its last active frame's window."""
    fps = profile.fps
    fingers = sorted(
        actions,
        key=lambda a: (a.start_frame, a.sequence.touches[0].center),
    )
    group_start = min(a.start_frame for a in fingers)
    group_end = max(a.active_end_frame for a in fingers)
    touch_at = [
        {t.frame: t for t in a.sequence.high_touches} for a in fingers
    ]

    free_slots = list(range(MAX_SLOTS))
    slot_of: dict[int, int] = {}
    next_tid = first_tracking_id
    open_count = 0
    events: list[InputEvent] = []

    for frame in range(group_start, group_end + 1):
        t = t0_us + frame_offset_us(frame - group_start, fps)
        window: list[InputEvent] = []
        append = window.append
        closing: list[int] = []
        for idx, finger in enumerate(fingers):
            touch = touch_at[idx].get(frame)
            if touch is None:
                continue
            if idx not in slot_of:
                if not free_slots:
                    raise SlotExhaustion(
                        f"more than {MAX_SLOTS} simultaneous fingers"
                    )
                slot_of[idx] = free_slots.pop(0)
                append(_event((t, EV_ABS, ABS_MT_SLOT, slot_of[idx])))
                append(_event((t, EV_ABS, ABS_MT_TRACKING_ID, next_tid)))
                next_tid += 1
                if open_count == 0:
                    append(_event((t, EV_KEY, BTN_TOUCH, 1)))
                open_count += 1
            else:
                append(_event((t, EV_ABS, ABS_MT_SLOT, slot_of[idx])))
            x, y = _device_coords(touch.center, profile)
            append(_event((t, EV_ABS, ABS_MT_POSITION_X, x)))
            append(_event((t, EV_ABS, ABS_MT_POSITION_Y, y)))
            if finger.active_end_frame == frame:
                closing.append(idx)
        for idx in closing:
            append(_event((t, EV_ABS, ABS_MT_SLOT, slot_of[idx])))
            append(_event((t, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE)))
            free_slots.append(slot_of.pop(idx))
            free_slots.sort()
            open_count -= 1
            if open_count == 0:
                append(_event((t, EV_KEY, BTN_TOUCH, 0)))
        if window:
            append(_event((t, EV_SYN, SYN_REPORT, 0)))
            events += window
    return events


def assemble_script(
    scenario: ClassifiedScenario, device_node: str = DEFAULT_DEVICE_NODE
) -> SendEventScript:
    """Compile scenario items chronologically into one event script.

    Items are anchored at their start frame's absolute time, so the gap
    between consecutive items equals their frame gap at 1000/fps ms per
    frame. Raises OverlapConflict when an item would begin before the
    previous item's contact closed, in frames or in the (separately
    rounded) microseconds of its first and the release's events.
    """
    profile = scenario.profile
    events: list[InputEvent] = []
    next_tid = 1
    prev_end_frame: float | None = None
    prev_end_us = 0
    prev_desc = ""
    for item in scenario.items:
        t0_us = frame_offset_us(item.start_frame, profile.fps)
        if prev_end_frame is not None and item.start_frame < prev_end_frame:
            raise OverlapConflict(
                f"item at frame {item.start_frame} starts before {prev_desc} "
                f"releases at frame {prev_end_frame}"
            )
        if t0_us < prev_end_us:
            raise OverlapConflict(
                f"item at frame {item.start_frame} starts at {t0_us}us, before "
                f"{prev_desc} releases at {prev_end_us}us"
            )
        emitted = len(events)
        if isinstance(item, SingleFingerItem):
            events.extend(
                _emit_sfa(item.action, profile, t0_us, 0, next_tid)
            )
            next_tid += 1
            prev_end_frame = item.start_frame + item.action.active_frames
            prev_desc = f"single-finger item at frame {item.start_frame}"
        else:
            events.extend(_emit_mfa(list(item.actions), profile, t0_us, next_tid))
            next_tid += len(item.actions)
            prev_end_frame = max(a.active_end_frame for a in item.actions)
            prev_desc = f"multi-finger item at frame {item.start_frame}"
        if len(events) > emitted:
            prev_end_us = events[-1][0]  # the item's last window: its release
    script = SendEventScript(
        device_node=device_node, events=tuple(events), profile=profile
    )
    validate_script(script)
    return script


def validate_script(script: SendEventScript) -> None:
    """Check protocol well-formedness; raises ScriptFormatError.

    Verifies the device node (see `valid_device_node`), that every
    event fits a runnable record (type and code in u16, value in i32,
    timestamps non-decreasing from 0 in steps of at most u32
    microseconds), balanced open/close per tracking id, slot-state
    consistency, on-screen coordinates, and paired touch-button
    transitions. Both encoders accept every script of integer events
    that passes.
    """
    if not valid_device_node(script.device_node):
        raise ScriptFormatError(
            f"device node must be non-empty ASCII without whitespace, "
            f"got {script.device_node!r}"
        )
    # Coordinates past i32 cannot be encoded, however large the screen.
    x_end = min(script.profile.screen_width, _I32_END)
    y_end = min(script.profile.screen_height, _I32_END)
    open_tids: dict[int, int] = {}  # slot -> tracking id
    seen_tids: set[int] = set()
    current_slot = 0
    last_t = 0
    btn_downs = btn_ups = opens = closes = 0
    # Each branch checks the ranges its own tests do not already imply.
    for t, etype, code, value in script.events:
        if t != last_t:
            if not last_t < t <= last_t + _U32_MAX:
                raise _step_error(t, last_t)
            last_t = t
        if etype == EV_ABS:
            if code == ABS_MT_POSITION_X:
                if not 0 <= value < x_end:
                    raise ScriptFormatError(f"x={value} off screen")
            elif code == ABS_MT_POSITION_Y:
                if not 0 <= value < y_end:
                    raise ScriptFormatError(f"y={value} off screen")
            elif code == ABS_MT_SLOT:
                if not 0 <= value < MAX_SLOTS:
                    raise ScriptFormatError(f"slot {value} out of range")
                current_slot = value
            elif code == ABS_MT_TRACKING_ID:
                if value == TRACKING_RELEASE:
                    if current_slot not in open_tids:
                        raise ScriptFormatError(
                            f"release on empty slot {current_slot}"
                        )
                    del open_tids[current_slot]
                    closes += 1
                else:
                    _check_record(etype, code, value)
                    if current_slot in open_tids:
                        raise ScriptFormatError(
                            f"slot {current_slot} opened twice"
                        )
                    if value in seen_tids:
                        raise ScriptFormatError(f"tracking id {value} reused")
                    open_tids[current_slot] = value
                    seen_tids.add(value)
                    opens += 1
            else:
                _check_record(etype, code, value)
        elif etype == EV_SYN and code == SYN_REPORT and value == 0:
            pass
        elif etype == EV_KEY and code == BTN_TOUCH:
            _check_record(etype, code, value)
            if value == 1:
                btn_downs += 1
            else:
                btn_ups += 1
        else:
            _check_record(etype, code, value)
    if open_tids:
        raise ScriptFormatError(f"contacts left open: {sorted(open_tids.values())}")
    if opens != closes:
        raise ScriptFormatError(f"{opens} opens vs {closes} closes")
    if btn_downs != btn_ups:
        raise ScriptFormatError(f"{btn_downs} touch-downs vs {btn_ups} touch-ups")


def _step_error(t: int, last_t: int) -> ScriptFormatError:
    if t < last_t:
        return ScriptFormatError(f"timestamp decreases at {t}us")
    return ScriptFormatError(
        f"timestamp step {t - last_t}us at {t}us exceeds u32"
    )


def _check_record(etype: int, code: int, value: int) -> None:
    """Raise ScriptFormatError unless a runnable record can hold the
    event's type, code and value."""
    if not 0 <= etype <= _U16_MAX:
        raise ScriptFormatError(f"event type {etype} outside u16")
    if not 0 <= code <= _U16_MAX:
        raise ScriptFormatError(f"event code {code} outside u16")
    if not -_I32_END <= value < _I32_END:
        raise ScriptFormatError(f"event value {value} outside i32")


def serialize_script(script: SendEventScript) -> bytes:
    """Write the human-readable log form; inverse of parse_script."""
    node = script.device_node
    lines = [
        "# tracereplay-log 1",
        f"# device_node: {node}",
        f"# profile: {json.dumps(script.profile.to_dict(), sort_keys=True)}",
    ]
    append = lines.append
    type_code = _TYPE_CODE_TEXT
    prefix_t = None
    # Events of one sync window share their timestamp, hence the prefix.
    for t, etype, code, value in script.events:
        if t != prefix_t:
            prefix_t = t
            prefix = "[%d.%06d] %s: " % (t // 1_000_000, t % 1_000_000, node)
        try:
            text = type_code[etype, code]
        except KeyError:  # outside the vocabulary the emitters use
            text = "%04x %04x " % (etype, code)
        append("%s%s%08x" % (prefix, text, value & 0xFFFFFFFF))
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_script(data: bytes | str) -> SendEventScript:
    """Parse the log form back into a script; raises ScriptFormatError."""
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ScriptFormatError(f"log is not ASCII: {exc}") from None
    elif not data.isascii():
        # `\d` would match any Unicode digit, and int() would read it.
        raise ScriptFormatError("log is not ASCII")
    device_node = None
    profile = None
    events: list[InputEvent] = []
    append = events.append
    for raw in data.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# device_node: "):
                device_node = line[len("# device_node: "):]
            elif line.startswith("# profile: "):
                try:
                    doc = json.loads(line[len("# profile: "):])
                except json.JSONDecodeError as exc:
                    raise ScriptFormatError(
                        f"bad profile header: {exc}"
                    ) from None
                profile = DeviceProfile.from_dict(doc)
            continue
        match = _LOG_LINE.match(line)
        if match is None:
            raise ScriptFormatError(f"bad log line: {line!r}")
        secs, micros, node, etype, code, value = match.groups()
        if device_node is None:
            device_node = node
        elif node != device_node:
            raise ScriptFormatError(f"device node changed mid-log: {node!r}")
        raw_value = int(value, 16)
        if raw_value >= 1 << 31:
            raw_value -= 1 << 32
        append(
            _event((
                int(secs) * 1_000_000 + int(micros),
                int(etype, 16),
                int(code, 16),
                raw_value,
            ))
        )
    if device_node is None or profile is None:
        raise ScriptFormatError("log missing device_node/profile headers")
    return SendEventScript(
        device_node=device_node, events=tuple(events), profile=profile
    )


def translate_runnable(script: SendEventScript) -> bytes:
    """Write the compact delta-timestamped form for the replay agent."""
    chunks = [RUNNABLE_MAGIC]
    append = chunks.append
    pack = _RECORD.pack
    prev = 0
    for t, etype, code, value in script.events:
        delta = t - prev
        if delta < 0:
            raise ScriptFormatError(
                f"timestamps must be non-decreasing, got step {delta}us"
            )
        prev = t
        append(pack(delta, etype, code, value))
    return b"".join(chunks)


def parse_runnable(data: bytes) -> list[InputEvent]:
    """Parse runnable bytes back into events with absolute timestamps."""
    if len(data) < len(RUNNABLE_MAGIC) or not data.startswith(RUNNABLE_MAGIC):
        raise ScriptFormatError("bad runnable magic")
    body = memoryview(data)[len(RUNNABLE_MAGIC):]
    if len(body) % _RECORD.size != 0:
        raise ScriptFormatError(
            f"runnable body length {len(body)} not a record multiple"
        )
    if not body:
        return []
    deltas, types, codes, values = zip(*_RECORD.iter_unpack(body))
    return list(map(_event, zip(accumulate(deltas), types, codes, values)))


def _device_coords(
    center: tuple[float, float], profile: DeviceProfile
) -> tuple[int, int]:
    """Round a center half-up to device pixels, clamped on-screen."""
    x = min(max(math.floor(center[0] + 0.5), 0), profile.screen_width - 1)
    y = min(max(math.floor(center[1] + 0.5), 0), profile.screen_height - 1)
    return x, y
