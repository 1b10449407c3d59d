"""Type-B checker: decode a runnable script by multi-touch slot semantics.

In the Linux multi-touch protocol type B
(`Documentation/input/multi-touch-protocol.rst`), `ABS_MT_SLOT` selects
a slot, `ABS_MT_TRACKING_ID` >= 0 opens a contact in the selected slot
and -1 releases it, positions update the selected slot's contact, and
`SYN_REPORT` closes a window, whose report holds only the contacts
still open. `decode_type_b` replays a stream under those rules, and
`check_type_b` compares the contacts it finds in `script.bin`, with
their times, with the ones the scenario describes, worked out here
without calling codegen. The decoder shares no code with codegen's
script check, `validate_events`, and is its oracle.
"""

from __future__ import annotations

import math
from collections import Counter

from tracereplay.classify import AtomicAction
from tracereplay.codegen import (
    ABS_MT_POSITION_X,
    ABS_MT_POSITION_Y,
    ABS_MT_SLOT,
    ABS_MT_TRACKING_ID,
    BTN_TOUCH,
    EV_ABS,
    EV_KEY,
    EV_SYN,
    MAX_SLOTS,
    SYN_REPORT,
    TRACKING_RELEASE,
    parse_runnable,
)


def scenario_contacts(scenario):
    """(first frame, release frame, touches) of each contact in the
    scenario: an SFA is one contact (its first touch, plus its later
    high-opacity touches for a gesture); each MFA finger with a
    high-opacity touch is one contact of those touches. Every contact
    is released the frame after its last active frame."""
    contacts = []
    for item in scenario.items:
        if isinstance(item, AtomicAction):
            touches = item.touches[:1]
            if item.kind == "gesture":
                touches += item.high_touches[1:]
            contacts.append(
                (item.start_frame, item.last_high_frame + 1, touches)
            )
        else:
            contacts += [
                (a.start_frame, a.last_high_frame + 1, a.high_touches)
                for a in item.actions
                if a.high_touches
            ]
    return contacts


def peak_contacts(scenario) -> int:
    """Most contacts whose frames, first to release, share one frame."""
    changes = Counter()
    for first, release, _ in scenario_contacts(scenario):
        changes[first] += 1
        changes[release + 1] -= 1
    peak = held = 0
    for frame in sorted(changes):
        held += changes[frame]
        peak = max(peak, held)
    return peak


def frame_us(frame: int, fps: int) -> int:
    """The time of a frame from script start, rounded to microseconds."""
    return round(frame * 1_000_000 / fps)


def device_point(center, profile) -> tuple[int, int]:
    """A center rounded half-up to device pixels and clamped on-screen."""
    x = min(max(math.floor(center[0] + 0.5), 0), profile.screen_width - 1)
    y = min(max(math.floor(center[1] + 0.5), 0), profile.screen_height - 1)
    return x, y


def decode_type_b(events) -> dict[int, tuple[list[tuple[int, int, int]], int]]:
    """Assert that `events` are a well-formed type-B stream; return each
    tracking id's samples, one `(t_us, x, y)` per window that gives it a
    position, and its release time.

    Checks that each tracking id opens once and closes once, that no
    slot is opened while its contact is open, that `BTN_TOUCH` goes
    down as the first contact opens and up as the last one releases,
    and that every window ends in `SYN_REPORT` at one timestamp, with
    the button down exactly when a contact is open and each contact
    given both or neither of one x and one y. A contact must be given a
    position in the window that opens it, and none in the window that
    releases it, which the report would not show.
    """
    slot = 0
    open_in = {}  # slot -> tracking id
    samples: dict[int, list[tuple[int, int, int]]] = {}
    released = {}  # tracking id -> release time
    window = {}  # tracking id -> {position code: value} in this window
    opened = set()  # the tracking ids opened in this window
    window_t = None
    button = False
    for t, etype, code, value in events:
        if window_t is None:
            window_t = t
        assert t == window_t, f"window at {window_t}us holds an event at {t}us"
        if (etype, code) == (EV_ABS, ABS_MT_SLOT):
            assert 0 <= value < MAX_SLOTS, f"slot {value} out of range"
            slot = value
        elif (etype, code) == (EV_ABS, ABS_MT_TRACKING_ID):
            if value == TRACKING_RELEASE:
                assert slot in open_in, f"release of empty slot {slot} at {t}us"
                tid = open_in.pop(slot)
                assert tid not in window, (
                    f"contact {tid} placed in its release window at {t}us")
                released[tid] = t
            else:
                assert slot not in open_in, f"open slot {slot} reused at {t}us"
                assert value not in samples, f"tracking id {value} opened twice"
                open_in[slot] = value
                samples[value] = []
                opened.add(value)
        elif etype == EV_ABS and code in (ABS_MT_POSITION_X, ABS_MT_POSITION_Y):
            assert slot in open_in, f"position for empty slot {slot} at {t}us"
            position = window.setdefault(open_in[slot], {})
            assert code not in position, f"two positions in one window at {t}us"
            position[code] = value
        elif (etype, code) == (EV_KEY, BTN_TOUCH):
            if value:
                assert not button and len(open_in) == 1, (
                    f"BTN_TOUCH down with {len(open_in)} open at {t}us")
            else:
                assert button and not open_in, (
                    f"BTN_TOUCH up with {len(open_in)} open at {t}us")
            button = bool(value)
        else:
            assert (etype, code, value) == (EV_SYN, SYN_REPORT, 0), (
                f"unexpected event {(etype, code, value)} at {t}us")
            assert button == bool(open_in), f"BTN_TOUCH stale at {t}us"
            for tid, position in window.items():
                assert len(position) == 2, f"half a position at {t}us"
                samples[tid].append(
                    (t, position[ABS_MT_POSITION_X], position[ABS_MT_POSITION_Y])
                )
            unplaced = opened - window.keys()
            assert not unplaced, f"contact {min(unplaced)} opened without a position at {t}us"
            window, opened, window_t = {}, set(), None
    assert window_t is None, "last window has no SYN_REPORT"
    assert not open_in, f"contacts left open: {sorted(open_in.values())}"
    return {tid: (samples[tid], released[tid]) for tid in samples}


def samples_by_id(contacts) -> dict[int, tuple[list[tuple[int, int, int]], int]]:
    """The contacts codegen's `validate_events` returns, as `decode_type_b`
    returns them: each tracking id's samples and release time, in open
    order."""
    return {tid: (samples, release) for tid, _, _, release, samples in contacts}


def _points(contacts: Counter) -> Counter:
    """The (x, y) samples of each of a Counter's `(samples, release)`."""
    return Counter(tuple((x, y) for _, x, y in samples)
                   for samples, _ in contacts.elements())


def check_type_b(runnable: bytes, scenario) -> dict:
    """Assert that `runnable` decodes (see `decode_type_b`) to exactly
    the scenario's contacts: first that their samples are the scenario
    contacts' device-rounded centers, then that each sample lies at its
    touch's frame time and each release at the time of the contact's
    release frame. Return what `decode_type_b` returns."""
    contacts = decode_type_b(parse_runnable(runnable))
    profile = scenario.profile
    want = Counter(
        (tuple((frame_us(touch.frame, profile.fps), *device_point(touch.center, profile))
               for touch in touches), frame_us(release, profile.fps))
        for _, release, touches in scenario_contacts(scenario)
    )
    got = Counter((tuple(samples), release) for samples, release in contacts.values())
    want_points, got_points = _points(want), _points(got)
    assert got_points == want_points, (
        f"samples differ: extra {got_points - want_points}, "
        f"missing {want_points - got_points}")
    assert got == want, f"timing differs: extra {got - want}, missing {want - got}"
    return contacts
