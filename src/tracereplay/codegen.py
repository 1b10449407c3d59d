"""Compile classified scenarios into timestamped kernel input events.

Scenario items become contacts of the Linux multi-touch protocol type B,
one per finger; contacts down at the same time hold separate slots,
whichever items they come from. The sync window of video frame f is at
`frame_offset_us(f, fps)`, and every contact is released in the window
of the frame after its last active frame.

Compiling is two steps. `plan_contacts` makes every decision and states
the contacts, in the shape the script check `validate_events` decodes:
``(tracking_id, slot, open_us, release_us, samples)``. `assemble_script`
only writes them as events, so the two are exact inverses.

Two on-disk forms exist:

* a human-readable log, one event per line::

      [<seconds>.<micros>] <device_node>: <type:hex4> <code:hex4> <value:hex8>

  preceded by ``#`` header lines (version, device node, profile) so
  the log round-trips losslessly;

* a compact runnable form consumed by the on-device replay agent: the
  8-byte magic ``V2SR\\x01\\x00\\x00\\x00`` followed by little-endian
  records ``(delta_us: u32, type: u16, code: u16, value: i32)``. An idle
  gap between touches longer than a delta holds is split by empty
  ``SYN_REPORT`` windows, up to `MAX_IDLE_REPORTS` of them.

A script is checked once, where it is made: `SendEventScript`'s
constructor runs `validate_script`, and both encoders write every
script it accepts.
"""

from __future__ import annotations

import json
import re
import struct
from itertools import accumulate
from math import floor
from typing import TYPE_CHECKING

from .errors import ScriptFormatError, SlotExhaustion
from .model import (
    DEFAULT_DEVICE_NODE, DeviceProfile, Frozen, _frame_and_center, _overlap_runs,
    decode_json, valid_device_node,
)

if TYPE_CHECKING:
    from .classify import ClassifiedScenario

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

#: Most empty reports that split one idle gap (about 50 days at u32 us
#: each); a longer gap raises ScriptFormatError.
MAX_IDLE_REPORTS = 1000

RUNNABLE_MAGIC = b"V2SR\x01\x00\x00\x00"
#: The first non-blank line of every log; `parse_script` reads no other.
LOG_HEADER = "# tracereplay-log 1"
_RECORD = struct.Struct("<IHHi")
# Field ranges of a runnable record.
_U32_MAX = 0xFFFFFFFF
_I32_END = 1 << 31

#: One event line of the log; `parse_script` compiles it, not every import.
_LOG_LINE = r"^\[(\d+)\.(\d{6})\] (\S+): ([0-9a-f]{4}) ([0-9a-f]{4}) ([0-9a-f]{8})$"

#: "type code " log text of each (event type, code) pair of the vocabulary.
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


class SendEventScript(Frozen):
    """Replayable event stream plus the device it targets.

    Each event is a plain tuple ``(timestamp_us, event_type, event_code,
    value)`` of ints, timestamped from script start. The constructor,
    which assembled, parsed and hand-built scripts all go through, is
    the whole check: `validate_script`.
    """

    _fields = ("device_node", "events", "profile")

    def __init__(self, device_node: str, events: tuple, profile: DeviceProfile):
        self._set(device_node, tuple(events), profile)
        validate_script(self)


def frame_offset_us(frames: int, fps: int) -> int:
    """Microseconds from script start to frame `frames`' window: the grid.
    At most `model.MAX_FPS` frames per second, each frame has its own time."""
    return round(frames * 1_000_000 / fps)


def plan_contacts(scenario: ClassifiedScenario) -> list[list[tuple]]:
    """The contacts `assemble_script` writes, cluster by cluster, each in
    `validate_events`' shape ``(tracking_id, slot, open_us, release_us,
    samples)``, one ``(t_us, x, y)`` per sample. Flattened, it is what
    `validate_events` returns for the script.

    One contact per action, each with a high-opacity touch (see
    `ClassifiedScenario`): an SFA's is its first touch, plus its later
    high touches for a gesture; an MFA finger's is its high touches.
    Every contact is released one frame after its last high (active)
    frame. The clusters are the runs of `model._overlap_runs` over the
    items' [start frame, last release frame) spans: an item that starts
    in the cluster's last release frame opens a new cluster. Tracking
    ids count up from 1, in each cluster
    by first frame, then first center. A contact opens in the lowest
    slot free at its first frame; a slot released in that frame is still
    held. Each sample and release is at its frame's `frame_offset_us`,
    each center rounded half-up to device pixels, on-screen. Raises
    ScriptFormatError when the idle gap before a cluster needs more than
    MAX_IDLE_REPORTS empty reports (see `assemble_script`), and
    SlotExhaustion when a contact opens while all MAX_SLOTS slots are held.
    """
    from .classify import AtomicAction  # not at module level: `replay` needs none

    # One (item start, release, contact) span per contact. A release falls
    # after its item's start, so an item's contacts land in one run.
    spans = []
    for item in scenario.items:
        if isinstance(item, AtomicAction):
            fingers = [(item, item.high_touches if item.kind == "gesture"
                        else item.high_touches[:1])]
        else:
            fingers = [(action, action.high_touches) for action in item.actions]
        for action, touches in fingers:
            release = action.last_high_frame + 1
            spans.append((item.start_frame, release, (release, touches)))
    profile = scenario.profile
    fps = profile.fps
    max_x, max_y = profile.screen_width - 1, profile.screen_height - 1
    plan = []
    tid = 0  # the last tracking id given
    t = 0  # the last window's time
    for contacts in _overlap_runs(spans):
        contacts.sort(key=lambda c: _frame_and_center(c[1][0]))
        held = [-1] * MAX_SLOTS  # each slot's last release frame
        planned = []
        for release, touches in contacts:
            first = touches[0].frame
            slot = next((slot for slot, until in enumerate(held) if until < first), None)
            if slot is None:
                raise SlotExhaustion(f"more than {MAX_SLOTS} contacts down at frame {first}")
            held[slot] = release
            # Every touch lies on the screen: only its last half pixel clamps.
            samples = [(frame_offset_us(frame, fps), min(floor(cx + 0.5), max_x),
                        min(floor(cy + 0.5), max_y))
                       for frame, _, _, _, (cx, cy) in touches]
            open_us, release_us = samples[0][0], frame_offset_us(release, fps)
            if not planned and (open_us - t - 1) // _U32_MAX > MAX_IDLE_REPORTS:
                raise ScriptFormatError(f"idle gap before frame {first} needs more "
                                        f"than {MAX_IDLE_REPORTS} empty reports")
            tid += 1
            planned.append((tid, slot, open_us, release_us, samples))
            t = max(t, release_us)
        plan.append(planned)
    return plan


def assemble_script(
    scenario: ClassifiedScenario, device_node: str = DEFAULT_DEVICE_NODE
) -> SendEventScript:
    """Compile scenario items into one type-B event script: emit the
    contacts of `plan_contacts`, which raises its errors.

    Each cluster is one sweep over its contacts' samples and releases,
    one sync window per timestamp; in a window, samples come before
    releases. A contact's first sample opens it (`ABS_MT_SLOT`, then its
    tracking id); its later samples and its release select its slot
    first only when the cluster holds more than one contact.
    `BTN_TOUCH` goes down with the first contact open and up with the
    last. A cluster whose first window lies more than u32 microseconds
    after the last window is preceded by an empty report every u32
    microseconds.
    """
    events = []
    t = 0  # timestamp of the last window
    for contacts in plan_contacts(scenario):
        marks = []
        for tid, slot, open_us, release_us, samples in contacts:
            marks += [(t_us, 0, tid, slot, open_us, x, y) for t_us, x, y in samples]
            marks.append((release_us, 1, tid, slot, None, None, None))
        # By time, samples before releases, then id; no two marks tie.
        marks.sort()
        multi = len(contacts) > 1
        # No contact is down between clusters: empty reports split an idle
        # step longer than a runnable delta holds.
        while marks[0][0] - t > _U32_MAX:
            t += _U32_MAX
            events.append((t, EV_SYN, SYN_REPORT, 0))
        t = marks[0][0]
        down = 0
        for t_us, is_release, tid, slot, open_us, x, y in marks:
            if t_us != t:
                events.append((t, EV_SYN, SYN_REPORT, 0))
                t = t_us
            if t_us == open_us:  # the contact's first sample opens it
                events.append((t, EV_ABS, ABS_MT_SLOT, slot))
                events.append((t, EV_ABS, ABS_MT_TRACKING_ID, tid))
                if not down:
                    events.append((t, EV_KEY, BTN_TOUCH, 1))
                down += 1
            elif multi:
                events.append((t, EV_ABS, ABS_MT_SLOT, slot))
            if is_release:
                events.append((t, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE))
                down -= 1
                if not down:
                    events.append((t, EV_KEY, BTN_TOUCH, 0))
            else:
                events.append((t, EV_ABS, ABS_MT_POSITION_X, x))
                events.append((t, EV_ABS, ABS_MT_POSITION_Y, y))
        events.append((t, EV_SYN, SYN_REPORT, 0))
    return SendEventScript(device_node, events, scenario.profile)


def validate_script(script: SendEventScript) -> None:
    """Check the device node (see `valid_device_node`), the profile and,
    by `validate_events` on the profile's screen, the events; raises
    ScriptFormatError."""
    if not valid_device_node(script.device_node):
        raise ScriptFormatError(
            f"device node must be non-empty ASCII without whitespace, "
            f"got {script.device_node!r}"
        )
    profile = script.profile
    if not isinstance(profile, DeviceProfile):
        raise ScriptFormatError(f"profile must be a DeviceProfile, got {profile!r}")
    # Coordinates past i32 cannot be encoded, however large the screen.
    validate_events(script.events, min(profile.screen_width, _I32_END),
                    min(profile.screen_height, _I32_END))


def validate_events(events, x_end: int = _I32_END, y_end: int = _I32_END) -> list:
    """Check a sequence of events; raises ScriptFormatError.

    Every event must be a tuple of 4 ints in the type-B vocabulary the
    emitter writes (`(EV_SYN, SYN_REPORT, 0)`, `(EV_KEY, BTN_TOUCH, 0
    or 1)`, `ABS_MT_SLOT` in [0, MAX_SLOTS), `ABS_MT_TRACKING_ID` -1 or
    in [0, 2**31), `ABS_MT_POSITION_X` in [0, x_end) and `_Y` in [0,
    y_end)), with timestamps non-decreasing from 0 in steps of at most
    u32 microseconds. The walk keeps the protocol's state: each tracking
    id opens once in an empty slot and closes, a position needs an open
    contact in its slot, and the touch button alternates from up, goes
    down only as the first contact opens and up as the last one closes.
    A window, closed by `SYN_REPORT`, holds one timestamp and at most one
    x and one y per contact; at its `SYN_REPORT` each contact has both or
    neither, and the button is down exactly when a contact is open. A
    device reports only the contacts open at `SYN_REPORT`: a contact is
    placed in the window that opens it, not in the one that releases it.
    The last window ends in `SYN_REPORT`, with no contact left open.
    Returns the contacts in open order, each `(tracking_id, slot,
    open_us, release_us, samples)`, one `(t_us, x, y)` per window placing it.
    """
    decoded = {}  # tracking id -> [id, slot, open us, release us, samples, x, y]
    open_in = {}  # slot -> its open contact
    placed = []  # contacts opened or given an x or y (None until given) in this window
    current_slot = 0
    last_t = 0
    button = False
    in_window = False
    for event in events:
        try:
            t, etype, code, value = event
        except (TypeError, ValueError):
            raise _outside_vocabulary(event) from None
        if (type(event) is not tuple or type(t) is not int or type(etype) is not int
                or type(code) is not int or type(value) is not int):
            raise _outside_vocabulary(event)
        if t != last_t:
            if t < last_t:
                raise ScriptFormatError(f"timestamp decreases at {t}us")
            if t > last_t + _U32_MAX:
                raise ScriptFormatError(
                    f"timestamp step {t - last_t}us at {t}us exceeds u32"
                )
            if in_window:
                raise ScriptFormatError(f"window at {last_t}us holds an event at {t}us")
            last_t = t
        in_window = True
        # Each code belongs to one event type.
        if (code == ABS_MT_POSITION_X or code == ABS_MT_POSITION_Y) and etype == EV_ABS:
            axis = code - ABS_MT_POSITION_X
            if not 0 <= value < (y_end if axis else x_end):
                raise ScriptFormatError(f"{'xy'[axis]}={value} off screen")
            contact = open_in.get(current_slot)
            if contact is None:
                raise ScriptFormatError(f"position for empty slot {current_slot} at {t}us")
            if contact[5 + axis] is not None:
                raise ScriptFormatError(f"two positions in one window at {t}us")
            if contact[6 - axis] is None and contact[4]:  # one just opened is listed
                placed.append(contact)
            contact[5 + axis] = value
        elif code == SYN_REPORT and etype == EV_SYN and value == 0:
            if button != bool(open_in):
                raise ScriptFormatError(f"BTN_TOUCH stale at {t}us")
            for contact in placed:
                tid, _, _, _, samples, x, y = contact
                if x is None and y is None:
                    raise ScriptFormatError(f"contact {tid} opened without a position at {t}us")
                if x is None or y is None:
                    raise ScriptFormatError(f"half a position at {t}us")
                samples.append((t, x, y))
                contact[5] = contact[6] = None
            placed.clear()
            in_window = False
        elif code == ABS_MT_SLOT and etype == EV_ABS:
            if not 0 <= value < MAX_SLOTS:
                raise ScriptFormatError(f"slot {value} out of range")
            current_slot = value
        elif code == ABS_MT_TRACKING_ID and etype == EV_ABS:
            if value == TRACKING_RELEASE:
                contact = open_in.pop(current_slot, None)
                if contact is None:
                    raise ScriptFormatError(f"release on empty slot {current_slot}")
                if contact[5] is not None or contact[6] is not None:
                    raise ScriptFormatError(
                        f"contact {contact[0]} placed in its release window at {t}us")
                contact[3] = t
            else:
                if not 0 <= value < _I32_END:
                    raise ScriptFormatError(f"tracking id {value} out of range")
                if current_slot in open_in:
                    raise ScriptFormatError(f"slot {current_slot} opened twice")
                if value in decoded:
                    raise ScriptFormatError(f"tracking id {value} reused")
                open_in[current_slot] = decoded[value] = [
                    value, current_slot, t, None, [], None, None]
                placed.append(decoded[value])
        elif code == BTN_TOUCH and etype == EV_KEY and 0 <= value <= 1:
            if button == value:
                raise ScriptFormatError(f"BTN_TOUCH {value} at {t}us repeats its state")
            if len(open_in) != value:  # down with the first contact, up with none
                raise ScriptFormatError(
                    f"BTN_TOUCH {value} at {t}us with {len(open_in)} contacts open")
            button = not button
        else:
            raise _outside_vocabulary(event)
    if in_window:
        raise ScriptFormatError("last window has no SYN_REPORT")
    if open_in:
        raise ScriptFormatError(
            f"contacts left open: {sorted(c[0] for c in open_in.values())}")
    return [tuple(contact[:5]) for contact in decoded.values()]


def _outside_vocabulary(event) -> ScriptFormatError:
    return ScriptFormatError(f"event {event!r} outside the type-B vocabulary")


def serialize_script(script: SendEventScript) -> bytes:
    """Write the human-readable log form; inverse of parse_script."""
    node = script.device_node
    lines = [
        LOG_HEADER,
        f"# device_node: {node}",
        f"# profile: {json.dumps(script.profile.to_dict(), sort_keys=True)}",
    ]
    prefix_t = None
    # Events of one sync window share their timestamp, hence the prefix.
    for t, etype, code, value in script.events:
        if t != prefix_t:
            prefix_t = t
            prefix = "[%d.%06d] %s: " % (t // 1_000_000, t % 1_000_000, node)
        lines.append(
            "%s%s%08x" % (prefix, _TYPE_CODE_TEXT[etype, code], value & 0xFFFFFFFF))
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_script(data: bytes | str) -> SendEventScript:
    """Parse the log form, bytes or str, back into a script; raises
    ScriptFormatError."""
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ScriptFormatError(f"log is not ASCII: {exc}") from None
    elif not isinstance(data, str):
        raise ScriptFormatError(f"log must be bytes or str, got {type(data).__name__}")
    elif not data.isascii():
        # `\d` would match any Unicode digit, and int() would read it.
        raise ScriptFormatError("log is not ASCII")
    lines = data.splitlines()
    if next(filter(None, map(str.rstrip, lines)), None) != LOG_HEADER:
        raise ScriptFormatError(f"log must start with {LOG_HEADER!r}")
    device_node = profile = None
    events = []
    log_line = re.compile(_LOG_LINE)
    for raw in lines:
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):  # a header may repeat what was read, not change it
            if line.startswith("# device_node: "):
                node = line[len("# device_node: "):]
                if device_node not in (None, node):
                    raise ScriptFormatError(f"device node changed mid-log: {node!r}")
                device_node = node
            elif line.startswith("# profile: "):
                header = DeviceProfile.from_dict(decode_json(
                    line[len("# profile: "):], ScriptFormatError, "bad profile header"))
                if profile not in (None, header):
                    raise ScriptFormatError(f"profile changed mid-log: {header!r}")
                profile = header
            continue
        match = log_line.match(line)
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
        try:
            seconds = int(secs)
        except ValueError:  # more digits than int() converts
            raise ScriptFormatError(f"log timestamp has {len(secs)} digits") from None
        events.append((
            seconds * 1_000_000 + int(micros),
            int(etype, 16),
            int(code, 16),
            raw_value,
        ))
    if device_node is None or profile is None:
        raise ScriptFormatError("log missing device_node/profile headers")
    return SendEventScript(
        device_node=device_node, events=tuple(events), profile=profile
    )


def translate_runnable(script: SendEventScript) -> bytes:
    """Write the compact delta-timestamped form for the replay agent."""
    chunks = [RUNNABLE_MAGIC]
    prev = 0
    for t, etype, code, value in script.events:
        chunks.append(_RECORD.pack(t - prev, etype, code, value))
        prev = t
    return b"".join(chunks)


def parse_runnable(data: bytes) -> list[tuple[int, int, int, int]]:
    """Parse runnable bytes (or a bytearray) back into events with
    absolute timestamps; raises ScriptFormatError."""
    if not isinstance(data, (bytes, bytearray)):
        raise ScriptFormatError(
            f"runnable must be bytes or bytearray, got {type(data).__name__}")
    if not data.startswith(RUNNABLE_MAGIC):
        raise ScriptFormatError("bad runnable magic")
    body = memoryview(data)[len(RUNNABLE_MAGIC):]
    if len(body) % _RECORD.size != 0:
        raise ScriptFormatError(
            f"runnable body length {len(body)} not a record multiple"
        )
    if not body:
        return []
    deltas, types, codes, values = zip(*_RECORD.iter_unpack(body))
    return list(zip(accumulate(deltas), types, codes, values))
