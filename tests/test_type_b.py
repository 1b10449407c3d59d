"""Compile totality, and the script check, judged by the type-B
decoder in `type_b.py`.

Every classified trace, synthesized or drawn as dense noise, compiles
to a script the decoder accepts, or raises SlotExhaustion, and only
when the scenario itself holds more than MAX_SLOTS contacts at once.
So does every hand-built scenario that `ClassifiedScenario` accepts,
with one contact per action; it rejects exactly the hand-built items
that give one detection to two actions or an action no high-opacity
touch. The decoder is first shown to reject each kind of defect it
claims to catch, and codegen's `validate_events` rejects exactly the
streams the decoder rejects.
"""

from __future__ import annotations

import struct
from itertools import combinations
from math import cos, pi, sin
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracereplay.classify import (
    AtomicAction,
    ClassifiedScenario,
    MultiFingerItem,
    classify_action,
    classify_trace,
)
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
    RUNNABLE_MAGIC,
    SYN_REPORT,
    TRACKING_RELEASE,
    assemble_script,
    translate_runnable,
    validate_events,
)
from tracereplay.errors import SchemaViolation, ScriptFormatError, SlotExhaustion
from tracereplay.model import (
    HIGH,
    KIND_SYMBOLS,
    LOW,
    DetectionTrace,
    DeviceProfile,
    TouchDetection,
    parse_trace,
    serialize_trace,
)
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

from conftest import make_sequence
from type_b import check_type_b, decode_type_b, peak_contacts, samples_by_id

PROFILE = DeviceProfile(name="nexus5", screen_width=1080, screen_height=1920, fps=30)


def two_taps():
    """Two overlapping taps: contacts 1 and 2 in slots 0 and 1."""
    first = classify_action(make_sequence(0, 10, 100, 100), PROFILE)
    second = classify_action(make_sequence(4, 10, 600, 600), PROFILE)
    return ClassifiedScenario(PROFILE, (first, second))


def test_checker_accepts_two_overlapping_taps():
    scenario = two_taps()
    contacts = check_type_b(translate_runnable(assemble_script(scenario)), scenario)
    # Each tap's one sample at its first frame's time, and its release
    # one frame after its last: frames 10 and 14.
    assert contacts == {1: ([(0, 100, 100)], 333333),
                        2: ([(133333, 600, 600)], 466667)}


def test_script_check_returns_the_contacts():
    # Each tap's one sample in its first frame's window, released one
    # frame after its last (frames 10 and 14), in slots 0 and 1.
    events = assemble_script(two_taps()).events
    assert validate_events(events) == [
        (1, 0, 0, 333333, [(0, 100, 100)]),
        (2, 1, 133333, 466667, [(133333, 600, 600)]),
    ]


def _first(events, code, value=None):
    return next(i for i, (_, _, c, v) in enumerate(events)
                if c == code and value in (None, v))


def _with_value(event, value):
    t, etype, code, _ = event
    return t, etype, code, value


def _drop_first_btn_up(events):
    del events[_first(events, BTN_TOUCH, 0)]


def _second_opens_in_first_slot(events):
    i = _first(events, ABS_MT_TRACKING_ID, 2) - 1
    events[i] = _with_value(events[i], 0)


def _second_reuses_first_id(events):
    i = _first(events, ABS_MT_TRACKING_ID, 2)
    events[i] = _with_value(events[i], 1)


def _wrong_coordinate(events):
    i = _first(events, ABS_MT_POSITION_X)
    events[i] = _with_value(events[i], events[i][3] + 1)


def _drop_last_release(events):
    i = max(i for i, (_, _, code, value) in enumerate(events)
            if code == ABS_MT_TRACKING_ID and value < 0)
    del events[i - 1:i + 1]  # its slot selection and the release


def _first_window_ends_1us_late(events):
    i = _first(events, SYN_REPORT)
    t, *rest = events[i]
    events[i] = (t + 1, *rest)


def _last_window_1us_late(events):
    # The second tap's release window (slot, release, button, report),
    # 1 us off its frame's time.
    events[-4:] = [(t + 1, *rest) for t, *rest in events[-4:]]


def _first_tap_placed_as_it_releases(events):
    i = _first(events, ABS_MT_TRACKING_ID, TRACKING_RELEASE)
    t = events[i][0]
    events[i:i] = [(t, EV_ABS, ABS_MT_POSITION_X, 100), (t, EV_ABS, ABS_MT_POSITION_Y, 100)]


def _second_tap_opens_unplaced(events):
    i = _first(events, ABS_MT_TRACKING_ID, 2)
    del events[i + 1:i + 3]  # its x and y


@pytest.mark.parametrize("defect, message", [
    (_drop_first_btn_up, "BTN_TOUCH stale"),
    (_second_opens_in_first_slot, "open slot 0 reused"),
    (_second_reuses_first_id, "tracking id 1 opened twice"),
    (_wrong_coordinate, r"samples differ: extra Counter\(\{\(\(101, 100\),\)"),
    (_drop_last_release, "BTN_TOUCH up with 1 open"),
    (_first_window_ends_1us_late, "window at 0us holds an event at 1us"),
    (_last_window_1us_late, r"timing differs: extra Counter\(\{\(\(\(133333, 600, 600\),\), "
     r"466668\)"),
    (_first_tap_placed_as_it_releases, "contact 1 placed in its release window at 333333us"),
    (_second_tap_opens_unplaced, "contact 2 opened without a position"),
])
def test_checker_rejects(defect, message):
    scenario = two_taps()
    events = list(assemble_script(scenario).events)
    defect(events)
    with pytest.raises(AssertionError, match=message):
        check_type_b(_runnable(events), scenario)


def test_empty_window_changes_no_contact():
    # An empty report, as codegen writes to split a long idle gap, closes
    # a window that holds no event: the contacts decode the same.
    scenario = two_taps()
    events = list(assemble_script(scenario).events)
    i = _first(events, SYN_REPORT)
    t = events[i][0]
    with_empty = [(0, EV_SYN, SYN_REPORT, 0), *events[:i + 1],
                  (t + 1, EV_SYN, SYN_REPORT, 0), *events[i + 1:]]
    assert (check_type_b(_runnable(with_empty), scenario)
            == check_type_b(_runnable(events), scenario))


def test_checker_accepts_a_tap_past_the_u32_step():
    tap = classify_action(make_sequence(129_600, 8, 300, 420), PROFILE)
    scenario = ClassifiedScenario(PROFILE, (tap,))
    contacts = check_type_b(translate_runnable(assemble_script(scenario)), scenario)
    # Frames 129,600 and 129,608 at 30 fps.
    assert contacts == {1: ([(4_320_000_000, 300, 420)], 4_320_266_667)}


def _runnable(events):
    """The runnable form of events that `SendEventScript` may reject,
    packed here so that the checker still sees them."""
    data, prev = bytearray(RUNNABLE_MAGIC), 0
    for t, etype, code, value in events:
        data += struct.pack("<IHHi", t - prev, etype, code, value)
        prev = t
    return bytes(data)


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["clean", "physical-device", "emulator"]))
@settings(max_examples=60, deadline=None)
def test_every_classified_trace_compiles_or_exhausts_slots(seed, preset):
    truth = random_scenario(PROFILE, seed=seed, n_actions=25)
    trace, _ = synthesize_trace(truth, noise_preset(preset, seed=seed))
    scenario = classify_trace(trace)
    try:
        script = assemble_script(scenario)
    except SlotExhaustion:
        assert peak_contacts(scenario) > MAX_SLOTS
        return
    check_type_b(translate_runnable(script), scenario)


# --- the script check agrees with the decoder ---

#: The vocabulary's events, in range, that a stream's edits insert.
_EVENTS = (
    (EV_SYN, SYN_REPORT, 0), (EV_KEY, BTN_TOUCH, 0), (EV_KEY, BTN_TOUCH, 1),
    *((EV_ABS, ABS_MT_SLOT, slot) for slot in range(3)),
    *((EV_ABS, ABS_MT_TRACKING_ID, tid) for tid in (TRACKING_RELEASE, 1, 2, 3)),
    (EV_ABS, ABS_MT_POSITION_X, 7), (EV_ABS, ABS_MT_POSITION_Y, 9),
)


@st.composite
def type_b_streams(draw):
    """Streams in the type-B vocabulary and its ranges: 1-5 windows that
    open, move or release contacts in slots 0-2, each window at the last
    one's timestamp or 1 us later, a window that releases what is still
    open, then up to three edits. An edit inserts a vocabulary event,
    deletes an event, or nudges one event and every later one 1 us
    later."""
    held = {}  # the slots whose contact is open, in the order they opened
    next_tid, t = 1, 0
    events = []
    for _ in range(draw(st.integers(1, 5))):
        t += draw(st.integers(0, 1))
        for slot in draw(st.lists(st.integers(0, 2), max_size=3, unique=True)):
            events.append((t, EV_ABS, ABS_MT_SLOT, slot))
            if slot in held and draw(st.booleans()):
                del held[slot]
                events.append((t, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE))
                if not held:
                    events.append((t, EV_KEY, BTN_TOUCH, 0))
                continue
            if slot not in held:
                held[slot] = True
                events.append((t, EV_ABS, ABS_MT_TRACKING_ID, next_tid))
                next_tid += 1
                if len(held) == 1:
                    events.append((t, EV_KEY, BTN_TOUCH, 1))
            events.append((t, EV_ABS, ABS_MT_POSITION_X, draw(st.integers(0, 9))))
            events.append((t, EV_ABS, ABS_MT_POSITION_Y, draw(st.integers(0, 9))))
        events.append((t, EV_SYN, SYN_REPORT, 0))
    if held:
        for slot in held:
            events += [(t, EV_ABS, ABS_MT_SLOT, slot),
                       (t, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE)]
        events += [(t, EV_KEY, BTN_TOUCH, 0), (t, EV_SYN, SYN_REPORT, 0)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(events)))
        edit = draw(st.sampled_from(["insert", "delete", "nudge"]))
        if edit == "insert":
            at = events[i - 1][0] if i else 0
            events.insert(i, (at, *draw(st.sampled_from(_EVENTS))))
        elif events[i:]:
            if edit == "delete":
                del events[i]
            else:
                events[i:] = [(at + 1, *rest) for at, *rest in events[i:]]
    return events


def _decoded(check, events):
    """What `check` returns for `events`, or None if it rejects them."""
    try:
        return check(events)
    except (AssertionError, ScriptFormatError):
        return None


_OPEN = [(0, EV_ABS, ABS_MT_SLOT, 0), (0, EV_ABS, ABS_MT_TRACKING_ID, 1),
         (0, EV_KEY, BTN_TOUCH, 1)]
_CLOSE = [(3, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE),
          (3, EV_KEY, BTN_TOUCH, 0), (3, EV_SYN, SYN_REPORT, 0)]


@given(type_b_streams())
# One stream of each kind a window or button rule rejects: a window of
# two timestamps, two x for one contact in a window, an x without a y, a
# button still up at the first report, a button that goes down only once
# a second contact is open, a contact placed in its release window, and
# one opened without a position.
@example([*_OPEN, (0, EV_ABS, ABS_MT_POSITION_X, 5), (3, EV_ABS, ABS_MT_POSITION_Y, 5),
          (3, EV_SYN, SYN_REPORT, 0), *_CLOSE])
@example([*_OPEN, (0, EV_ABS, ABS_MT_POSITION_X, 5), (0, EV_ABS, ABS_MT_POSITION_X, 6),
          (0, EV_ABS, ABS_MT_POSITION_Y, 5), (0, EV_SYN, SYN_REPORT, 0), *_CLOSE])
@example([*_OPEN, (0, EV_ABS, ABS_MT_POSITION_X, 5), (0, EV_SYN, SYN_REPORT, 0),
          *_CLOSE])
@example([*_OPEN[:2], (0, EV_SYN, SYN_REPORT, 0), (3, EV_KEY, BTN_TOUCH, 1),
          (3, EV_SYN, SYN_REPORT, 0), (6, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE),
          (6, EV_KEY, BTN_TOUCH, 0), (6, EV_SYN, SYN_REPORT, 0)])
@example([*_OPEN[:2], (0, EV_ABS, ABS_MT_SLOT, 1), (0, EV_ABS, ABS_MT_TRACKING_ID, 2),
          (0, EV_KEY, BTN_TOUCH, 1), (0, EV_SYN, SYN_REPORT, 0),
          (3, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE), (3, EV_ABS, ABS_MT_SLOT, 0),
          *_CLOSE])
@example([*_OPEN, (0, EV_ABS, ABS_MT_POSITION_X, 5), (0, EV_ABS, ABS_MT_POSITION_Y, 6),
          (0, EV_SYN, SYN_REPORT, 0), (3, EV_ABS, ABS_MT_POSITION_X, 7),
          (3, EV_ABS, ABS_MT_POSITION_Y, 8), *_CLOSE])
@example([*_OPEN, (0, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE),
          (0, EV_KEY, BTN_TOUCH, 0), (0, EV_SYN, SYN_REPORT, 0)])
@settings(max_examples=400, deadline=None)
def test_script_check_rejects_what_the_decoder_rejects(events):
    contacts = _decoded(validate_events, events)
    samples = _decoded(decode_type_b, events)
    assert (contacts is None) == (samples is None)
    if contacts is not None:  # both decode the same samples, in open order
        assert list(samples_by_id(contacts).items()) == list(samples.items())


# --- dense traces ---

_W, _H = PROFILE.screen_width, PROFILE.screen_height
_HALF = 20.0  # half a touch indicator's edge


@st.composite
def dense_traces(draw):
    """Detection traces no scenario renders: 1-16 fingers, each a random
    walk of 0-30 px steps from its own start frame, with random
    confidence. Half the traces are noisy, with about a fifth of the
    touches low-opacity, a quarter below 0.7 confidence and two fifths
    missing; the other half are whole, all high and at least 0.7, so
    their fingers, starting in the first 10 frames and lasting up to 45,
    sometimes hold 11 or more long contacts down at once."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    noisy = draw(st.booleans())
    low_share, min_confidence, missing = (0.2, 0.6, 0.4) if noisy else (0.0, 0.7, 0.0)
    detections = []
    end = 0
    for _ in range(draw(st.integers(1, 16))):
        start, length = draw(st.integers(0, 10)), draw(st.integers(1, 45))
        end = max(end, start + length)
        x, y = rng.uniform(_HALF, _W - _HALF), rng.uniform(_HALF, _H - _HALF)
        for frame in range(start, start + length):
            step, angle = rng.uniform(0, 30), rng.uniform(0, 2 * pi)
            x = min(max(x + step * cos(angle), _HALF), _W - _HALF)
            y = min(max(y + step * sin(angle), _HALF), _H - _HALF)
            if rng.random() < missing:
                continue
            opacity = LOW if rng.random() < low_share else HIGH
            detections.append(TouchDetection(
                frame, (x - _HALF, y - _HALF, 2 * _HALF, 2 * _HALF),
                rng.uniform(min_confidence, 1.0), opacity))
    return DetectionTrace(PROFILE, detections, end + draw(st.integers(0, 3)))


def _long_fingers(count):
    """`count` fingers held high and still for 30 frames, 90 px apart."""
    return DetectionTrace(PROFILE, [
        TouchDetection(frame, (50.0 + 90.0 * k, 500.0, 40.0, 40.0), 0.9, HIGH)
        for frame in range(30) for k in range(count)
    ], 30)


@given(dense_traces())
@example(_long_fingers(MAX_SLOTS))
@example(_long_fingers(MAX_SLOTS + 1))
@settings(max_examples=60, deadline=None)
def test_every_dense_trace_compiles_or_exhausts_slots(trace):
    assert parse_trace(serialize_trace(trace)) == trace
    classified = classify_trace(trace)
    scenario = ClassifiedScenario.from_json(classified.to_json())
    assert scenario == classified
    try:
        script = assemble_script(scenario)
    except SlotExhaustion:
        assert peak_contacts(scenario) > MAX_SLOTS
        return
    check_type_b(translate_runnable(script), scenario)


# --- one detection, one action: hand-built scenarios ---

#: Touch centers an adversarial action picks from: few, so that actions
#: meet on one detection, and sizes and opacity that make distinct
#: detections at one center.
_CENTERS = ((300.0, 400.0), (320.0, 520.0), (700.0, 400.0), (700.0, 900.0))


def _touch(frame, center, size, opacity):
    (x, y), side = _CENTERS[center], (40.0, 20.0)[size]
    return TouchDetection(frame=frame, bbox=(x - side / 2, y - side / 2, side, side),
                          confidence=0.9, opacity=opacity)


@st.composite
def adversarial_actions(draw):
    """One action over 1-6 frames from frame 0-10, each touch at one of
    `_CENTERS` in one of two sizes, ending in a fade of its last 0-5
    touches; about one action in ten is all fade."""
    start, count = draw(st.integers(0, 10)), draw(st.integers(1, 6))
    fade = count if draw(st.integers(0, 9)) == 9 else draw(st.integers(0, count - 1))
    touches = [_touch(start + k, draw(st.integers(0, 3)), draw(st.integers(0, 1)),
                      HIGH if k < count - fade else LOW) for k in range(count)]
    return AtomicAction(draw(st.sampled_from(list(KIND_SYMBOLS))), touches)


@st.composite
def adversarial_items(draw):
    """1-5 SFAs and MFA items (1-3 fingers) in start order, drawn with no
    filter: actions may share a detection at any position, in one item
    or in two, and an MFA's fingers interleave with the SFAs."""
    items = []
    for _ in range(draw(st.integers(1, 5))):
        fingers = draw(st.lists(adversarial_actions(), min_size=1, max_size=3))
        if draw(st.booleans()):
            items.append(fingers[0])
        else:
            items.append(MultiFingerItem(
                fingers, draw(st.integers(1, len(fingers)))))
    return sorted(items, key=lambda item: item.start_frame)


def _gesture(frames, centers):
    return AtomicAction("gesture", [_touch(f, c, 0, HIGH) for f, c in zip(frames, centers)])


@given(adversarial_items())
# Two gestures that share their frame-4 detection, first touches at frames 0 and 2.
@example([_gesture(range(5), [0, 0, 0, 0, 1]), _gesture(range(2, 7), [2, 2, 1, 2, 2])])
# An SFA that is all fade, and an MFA of two fingers, one of them all fade.
@example([AtomicAction("tap", [_touch(f, 0, 0, LOW) for f in range(5)])])
@example([MultiFingerItem((_gesture(range(5), [0, 1, 0, 1, 0]), AtomicAction(
    "tap", [_touch(f, 2, 0, LOW) for f in range(5)])), 2)])
@settings(max_examples=300, deadline=None)
def test_scenario_takes_one_contact_per_action(items):
    """The scenario rejects exactly the items in which two actions hold
    one detection (all four fields equal) or an action has no high touch;
    what it takes compiles to one contact per action, unless more than
    MAX_SLOTS contacts are down at once."""
    actions = [a for item in items for a in getattr(item, "actions", (item,))]
    touches = [(i, t) for i, a in enumerate(actions) for t in a.touches]
    shared = any(i != j and t[:4] == u[:4]
                 for (i, t), (j, u) in combinations(touches, 2))
    faded = any(all(t.opacity != HIGH for t in a.touches) for a in actions)
    if shared or faded:
        with pytest.raises(SchemaViolation):
            ClassifiedScenario(PROFILE, items)
        return
    scenario = ClassifiedScenario(PROFILE, items)
    try:
        script = assemble_script(scenario)
    except SlotExhaustion:
        assert peak_contacts(scenario) > MAX_SLOTS
        return
    assert len(check_type_b(translate_runnable(script), scenario)) == len(actions)
