"""Compile totality, judged by the type-B checker in `type_b.py`.

Every classified trace compiles to a script the checker accepts, or
raises SlotExhaustion, and only when the scenario itself holds more
than MAX_SLOTS contacts at once. The checker is first shown to reject
each kind of defect it claims to catch.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereplay.classify import (
    ClassifiedScenario,
    classify_action,
    classify_trace,
)
from tracereplay.codegen import (
    ABS_MT_POSITION_X,
    ABS_MT_TRACKING_ID,
    BTN_TOUCH,
    EV_SYN,
    MAX_SLOTS,
    RUNNABLE_MAGIC,
    SYN_REPORT,
    assemble_script,
    translate_runnable,
)
from tracereplay.errors import SlotExhaustion
from tracereplay.model import DeviceProfile
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

from conftest import make_sequence
from type_b import check_type_b, peak_contacts

PROFILE = DeviceProfile(name="nexus5", screen_width=1080, screen_height=1920, fps=30)


def two_taps():
    """Two overlapping taps: contacts 1 and 2 in slots 0 and 1."""
    first = classify_action(make_sequence(0, 10, 100, 100), PROFILE)
    second = classify_action(make_sequence(4, 10, 600, 600), PROFILE)
    return ClassifiedScenario(PROFILE, (first, second))


def test_checker_accepts_two_overlapping_taps():
    scenario = two_taps()
    samples = check_type_b(translate_runnable(assemble_script(scenario)), scenario)
    assert samples == {1: [(100, 100)], 2: [(600, 600)]}


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


@pytest.mark.parametrize("defect, message", [
    (_drop_first_btn_up, "BTN_TOUCH stale"),
    (_second_opens_in_first_slot, "open slot 0 reused"),
    (_second_reuses_first_id, "tracking id 1 opened twice"),
    (_wrong_coordinate, r"samples differ: extra Counter\(\{\(\(101, 100\),\)"),
    (_drop_last_release, "BTN_TOUCH up with 1 open"),
    (_first_window_ends_1us_late, "window at 0us holds an event at 1us"),
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
    samples = check_type_b(translate_runnable(assemble_script(scenario)), scenario)
    assert samples == {1: [(300, 420)]}


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
