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
from dataclasses import dataclass

from .classify import ActionKind, AtomicAction, ClassifiedScenario, SingleFingerItem
from .errors import OverlapConflict, ScriptFormatError, SlotExhaustion
from .model import DeviceProfile

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

_LOG_LINE = re.compile(
    r"^\[(\d+)\.(\d{6})\] (\S+): ([0-9a-f]{4}) ([0-9a-f]{4}) ([0-9a-f]{8})$"
)


@dataclass(frozen=True)
class InputEvent:
    """One kernel input event, timestamped from script start."""

    timestamp_us: int
    event_type: int
    event_code: int
    value: int

    @property
    def timestamp_ms(self) -> float:
        return self.timestamp_us / 1000.0


@dataclass(frozen=True)
class SendEventScript:
    """Replayable event stream plus the device it targets."""

    device_node: str
    events: tuple[InputEvent, ...]
    profile: DeviceProfile


def frame_offset_us(frames: int, fps: int) -> int:
    """Microseconds spanned by `frames` frames, rounded to the grid."""
    return round(frames * 1_000_000 / fps)


def emit_sfa_events(
    action: AtomicAction,
    profile: DeviceProfile,
    t0_ms: float = 0.0,
    slot: int = 0,
    tracking_id: int = 1,
) -> list[InputEvent]:
    """Events for a single-fingered action starting at t0.

    Taps and long taps hold one coordinate sample for their active
    duration; gestures get one sample per high-opacity touch. The
    contact closes one frame interval after its last active frame.
    """
    return _emit_sfa(action, profile, round(t0_ms * 1000.0), slot, tracking_id)


def emit_mfa_events(
    actions: list[AtomicAction],
    profile: DeviceProfile,
    t0_ms: float = 0.0,
    first_tracking_id: int = 1,
) -> list[InputEvent]:
    """Events for a multi-fingered action group starting at t0.

    Each output frame interleaves slot-select plus coordinates for every
    finger active in that frame inside one sync window. A finger's
    contact opens with a fresh tracking id at its first frame and closes
    in the window of its last active frame, so one finger may continue
    after another ends.
    """
    return _emit_mfa(actions, profile, round(t0_ms * 1000.0), first_tracking_id)


def _emit_sfa(action, profile, t0_us, slot, tracking_id):
    fps = profile.fps
    start = action.start_frame
    x, y = _device_coords(action.sequence.touches[0].center, profile)
    events = [
        InputEvent(t0_us, EV_ABS, ABS_MT_SLOT, slot),
        InputEvent(t0_us, EV_ABS, ABS_MT_TRACKING_ID, tracking_id),
        InputEvent(t0_us, EV_KEY, BTN_TOUCH, 1),
        InputEvent(t0_us, EV_ABS, ABS_MT_POSITION_X, x),
        InputEvent(t0_us, EV_ABS, ABS_MT_POSITION_Y, y),
        InputEvent(t0_us, EV_SYN, SYN_REPORT, 0),
    ]
    if action.kind is ActionKind.GESTURE:
        for touch in action.sequence.high_touches[1:]:
            t = t0_us + frame_offset_us(touch.frame - start, fps)
            x, y = _device_coords(touch.center, profile)
            events.extend(
                [
                    InputEvent(t, EV_ABS, ABS_MT_POSITION_X, x),
                    InputEvent(t, EV_ABS, ABS_MT_POSITION_Y, y),
                    InputEvent(t, EV_SYN, SYN_REPORT, 0),
                ]
            )
    t_end = t0_us + frame_offset_us(action.active_frames, fps)
    events.extend(
        [
            InputEvent(t_end, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE),
            InputEvent(t_end, EV_KEY, BTN_TOUCH, 0),
            InputEvent(t_end, EV_SYN, SYN_REPORT, 0),
        ]
    )
    return events


def _emit_mfa(actions, profile, t0_us, first_tracking_id):
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
                window.append(InputEvent(t, EV_ABS, ABS_MT_SLOT, slot_of[idx]))
                window.append(InputEvent(t, EV_ABS, ABS_MT_TRACKING_ID, next_tid))
                next_tid += 1
                if open_count == 0:
                    window.append(InputEvent(t, EV_KEY, BTN_TOUCH, 1))
                open_count += 1
            else:
                window.append(InputEvent(t, EV_ABS, ABS_MT_SLOT, slot_of[idx]))
            x, y = _device_coords(touch.center, profile)
            window.append(InputEvent(t, EV_ABS, ABS_MT_POSITION_X, x))
            window.append(InputEvent(t, EV_ABS, ABS_MT_POSITION_Y, y))
            if finger.active_end_frame == frame:
                closing.append(idx)
        for idx in closing:
            window.append(InputEvent(t, EV_ABS, ABS_MT_SLOT, slot_of[idx]))
            window.append(
                InputEvent(t, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE)
            )
            free_slots.append(slot_of.pop(idx))
            free_slots.sort()
            open_count -= 1
            if open_count == 0:
                window.append(InputEvent(t, EV_KEY, BTN_TOUCH, 0))
        if window:
            window.append(InputEvent(t, EV_SYN, SYN_REPORT, 0))
            events.extend(window)
    return events


def assemble_script(
    scenario: ClassifiedScenario,
    profile: DeviceProfile | None = None,
    device_node: str = DEFAULT_DEVICE_NODE,
    prologue: tuple[InputEvent, ...] = (),
    epilogue: tuple[InputEvent, ...] = (),
) -> SendEventScript:
    """Compile scenario items chronologically into one event script.

    Items are anchored at their start frame's absolute time, so the gap
    between consecutive items equals their frame gap at 1000/fps ms per
    frame. Raises OverlapConflict when an item would begin before the
    previous item's contact closed.

    Devices running older platform versions sometimes need extra raw
    instructions around a scenario; `prologue` and `epilogue` events
    (empty by default) are spliced in verbatim before and after the
    compiled items and must respect the script's time ordering.
    """
    profile = profile or scenario.profile
    events: list[InputEvent] = list(prologue)
    next_tid = 1
    prev_end_frame: float | None = None
    prev_desc = ""
    for item in scenario.items:
        t0_us = frame_offset_us(item.start_frame, profile.fps)
        if prev_end_frame is not None and item.start_frame < prev_end_frame:
            raise OverlapConflict(
                f"item at frame {item.start_frame} starts before {prev_desc} "
                f"releases at frame {prev_end_frame}"
            )
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
    events.extend(epilogue)
    script = SendEventScript(
        device_node=device_node, events=tuple(events), profile=profile
    )
    validate_script(script)
    return script


def validate_script(script: SendEventScript) -> None:
    """Check protocol well-formedness; raises ScriptFormatError.

    Verifies non-decreasing timestamps, balanced open/close per tracking
    id, slot-state consistency, on-screen coordinates, and paired
    touch-button transitions.
    """
    width = script.profile.screen_width
    height = script.profile.screen_height
    open_tids: dict[int, int] = {}  # slot -> tracking id
    seen_tids: set[int] = set()
    current_slot = 0
    last_t = 0
    btn_downs = btn_ups = opens = closes = 0
    for event in script.events:
        if event.timestamp_us < last_t:
            raise ScriptFormatError(
                f"timestamp decreases at {event.timestamp_us}us"
            )
        last_t = event.timestamp_us
        if event.event_type == EV_ABS:
            if event.event_code == ABS_MT_SLOT:
                if not 0 <= event.value < MAX_SLOTS:
                    raise ScriptFormatError(f"slot {event.value} out of range")
                current_slot = event.value
            elif event.event_code == ABS_MT_TRACKING_ID:
                if event.value == TRACKING_RELEASE:
                    if current_slot not in open_tids:
                        raise ScriptFormatError(
                            f"release on empty slot {current_slot}"
                        )
                    del open_tids[current_slot]
                    closes += 1
                else:
                    if current_slot in open_tids:
                        raise ScriptFormatError(
                            f"slot {current_slot} opened twice"
                        )
                    if event.value in seen_tids:
                        raise ScriptFormatError(
                            f"tracking id {event.value} reused"
                        )
                    open_tids[current_slot] = event.value
                    seen_tids.add(event.value)
                    opens += 1
            elif event.event_code == ABS_MT_POSITION_X:
                if not 0 <= event.value < width:
                    raise ScriptFormatError(f"x={event.value} off screen")
            elif event.event_code == ABS_MT_POSITION_Y:
                if not 0 <= event.value < height:
                    raise ScriptFormatError(f"y={event.value} off screen")
        elif event.event_type == EV_KEY and event.event_code == BTN_TOUCH:
            if event.value == 1:
                btn_downs += 1
            else:
                btn_ups += 1
    if open_tids:
        raise ScriptFormatError(f"contacts left open: {sorted(open_tids.values())}")
    if opens != closes:
        raise ScriptFormatError(f"{opens} opens vs {closes} closes")
    if btn_downs != btn_ups:
        raise ScriptFormatError(f"{btn_downs} touch-downs vs {btn_ups} touch-ups")


def serialize_script(script: SendEventScript) -> bytes:
    """Write the human-readable log form; inverse of parse_script."""
    lines = [
        "# tracereplay-log 1",
        f"# device_node: {script.device_node}",
        f"# profile: {json.dumps(script.profile.to_dict(), sort_keys=True)}",
    ]
    for event in script.events:
        secs, micros = divmod(event.timestamp_us, 1_000_000)
        lines.append(
            f"[{secs}.{micros:06d}] {script.device_node}: "
            f"{event.event_type:04x} {event.event_code:04x} "
            f"{event.value & 0xFFFFFFFF:08x}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_script(data: bytes | str) -> SendEventScript:
    """Parse the log form back into a script."""
    if isinstance(data, bytes):
        data = data.decode("ascii")
    device_node = None
    profile = None
    events: list[InputEvent] = []
    for raw in data.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# device_node: "):
                device_node = line[len("# device_node: "):]
            elif line.startswith("# profile: "):
                profile = DeviceProfile.from_dict(
                    json.loads(line[len("# profile: "):])
                )
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
        events.append(
            InputEvent(
                timestamp_us=int(secs) * 1_000_000 + int(micros),
                event_type=int(etype, 16),
                event_code=int(code, 16),
                value=raw_value,
            )
        )
    if device_node is None or profile is None:
        raise ScriptFormatError("log missing device_node/profile headers")
    return SendEventScript(
        device_node=device_node, events=tuple(events), profile=profile
    )


def translate_runnable(script: SendEventScript) -> bytes:
    """Write the compact delta-timestamped form for the replay agent."""
    chunks = [RUNNABLE_MAGIC]
    prev = 0
    for event in script.events:
        delta = event.timestamp_us - prev
        if delta < 0:
            raise ScriptFormatError(
                f"timestamps must be non-decreasing, got step {delta}us"
            )
        prev = event.timestamp_us
        chunks.append(
            _RECORD.pack(delta, event.event_type, event.event_code, event.value)
        )
    return b"".join(chunks)


def parse_runnable(data: bytes) -> list[InputEvent]:
    """Parse runnable bytes back into events with absolute timestamps."""
    if len(data) < len(RUNNABLE_MAGIC) or not data.startswith(RUNNABLE_MAGIC):
        raise ScriptFormatError("bad runnable magic")
    body = data[len(RUNNABLE_MAGIC):]
    if len(body) % _RECORD.size != 0:
        raise ScriptFormatError(
            f"runnable body length {len(body)} not a record multiple"
        )
    events = []
    t = 0
    for offset in range(0, len(body), _RECORD.size):
        delta, etype, code, value = _RECORD.unpack_from(body, offset)
        t += delta
        events.append(
            InputEvent(timestamp_us=t, event_type=etype, event_code=code, value=value)
        )
    return events


def _device_coords(
    center: tuple[float, float], profile: DeviceProfile
) -> tuple[int, int]:
    """Round a center half-up to device pixels, clamped on-screen."""
    x = min(max(math.floor(center[0] + 0.5), 0), profile.screen_width - 1)
    y = min(max(math.floor(center[1] + 0.5), 0), profile.screen_height - 1)
    return x, y
