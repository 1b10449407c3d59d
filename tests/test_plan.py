"""The emitter and the script check are exact inverses.

`plan_contacts` states the contacts `assemble_script` writes, cluster by
cluster, in the shape `validate_events` decodes. For every scenario the
tests draw, hand-built or classified, the script check decodes from the
emitted events exactly the flattened plan; where the plan raises, the
emitter raises the same error. Four cases pin the rules the plan holds
by example: the slot a contact opening in another's release frame
takes, an MFA whose fingers never overlap, a cluster that starts in the
last one's release frame, and a one-finger MFA.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereplay.classify import (
    AtomicAction,
    ClassifiedScenario,
    MultiFingerItem,
    classify_action,
    classify_trace,
)
from tracereplay.codegen import (
    ABS_MT_SLOT,
    BTN_TOUCH,
    SYN_REPORT,
    assemble_script,
    frame_offset_us,
    plan_contacts,
    validate_events,
)
from tracereplay.errors import SchemaViolation, TraceReplayError
from tracereplay.model import parse_trace
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

from conftest import make_sequence
from test_codegen_oracle import mfa_items, overlapping_items
from test_encoding import scenarios
from test_golden import PRESETS, SEEDS, case_trace
from test_type_b import PROFILE, adversarial_items


def assert_inverse(scenario):
    """Assert that the script check decodes the flattened plan from the
    emitted events, or that both raise one error; return the plan and
    the events, or None."""
    try:
        plan = plan_contacts(scenario)
    except TraceReplayError as exc:
        with pytest.raises(type(exc)) as caught:
            assemble_script(scenario)
        assert str(caught.value) == str(exc)
        return None
    events = assemble_script(scenario).events
    assert validate_events(events) == [contact for cluster in plan for contact in cluster]
    return plan, events


def _scenario(*items):
    return ClassifiedScenario(PROFILE, sorted(items, key=lambda item: item.start_frame))


def _tap(start, frames, x, y=500.0):
    return classify_action(make_sequence(start, frames, x, y), PROFILE)


def _us(frame):
    return frame_offset_us(frame, PROFILE.fps)


# --- every strategy ---


@given(adversarial_items())
@settings(max_examples=200, deadline=None)
def test_hand_built_adversarial_items(items):
    try:
        scenario = ClassifiedScenario(PROFILE, items)
    except SchemaViolation:  # two actions share a detection, or one is all fade
        return
    assert_inverse(scenario)


@given(st.one_of(overlapping_items(), mfa_items().map(lambda item: [item])))
@settings(max_examples=200, deadline=None)
def test_overlapping_items(items):
    assert_inverse(_scenario(*items))


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_drawn_scenarios(scenario):
    assert_inverse(scenario)


@given(st.integers(0, 2**32 - 1), st.sampled_from(PRESETS))
@settings(max_examples=60, deadline=None)
def test_classified_traces(seed, preset):
    truth = random_scenario(PROFILE, seed=seed, n_actions=25)
    trace, _ = synthesize_trace(truth, noise_preset(preset, seed=seed))
    assert_inverse(classify_trace(trace))


def test_golden_cases():
    compiled = sum(
        assert_inverse(classify_trace(parse_trace(case_trace(seed, preset)))) is not None
        for preset in PRESETS for seed in SEEDS
    )
    assert compiled >= 40


# --- the plan's rules, by example ---


def test_a_contact_opening_in_a_release_frame_takes_another_slot():
    # A long press holds slot 0 over frames 0-29; a tap over frames 2-9
    # holds slot 1 and is released in frame 10, the frame a third tap
    # opens in: that slot is still held, so the third tap takes slot 2.
    scenario = _scenario(_tap(0, 30, 100.0), _tap(2, 8, 300.0), _tap(10, 5, 500.0))
    (plan,), _ = assert_inverse(scenario)
    assert [contact[:4] for contact in plan] == [
        (1, 0, _us(0), _us(30)), (2, 1, _us(2), _us(10)), (3, 2, _us(10), _us(15))]


def test_an_mfa_whose_fingers_never_overlap_is_one_cluster():
    # The second finger opens after the first is released: both take
    # slot 0, and the button goes up and down again inside the cluster.
    # The cluster holds two contacts, so each of the five samples and the
    # release of each finger selects its slot.
    item = MultiFingerItem((_tap(0, 5, 100.0), _tap(8, 5, 300.0)), 2)
    (plan,), events = assert_inverse(_scenario(item))
    assert [contact[:4] for contact in plan] == [
        (1, 0, _us(0), _us(5)), (2, 0, _us(8), _us(13))]
    assert [value for _, _, code, value in events if code == BTN_TOUCH] == [1, 0, 1, 0]
    assert sum(code == ABS_MT_SLOT for _, _, code, _ in events) == 2 * 6


def test_an_item_starting_in_a_release_frame_opens_a_new_cluster():
    # The first tap is released in frame 5, where the second starts: two
    # clusters, each one contact in slot 0, and two windows at one time.
    first, second = _tap(0, 5, 100.0), _tap(5, 5, 300.0)
    plan, events = assert_inverse(_scenario(first, second))
    assert [[contact[:4] for contact in cluster] for cluster in plan] == [
        [(1, 0, _us(0), _us(5))], [(2, 0, _us(5), _us(10))]]
    assert sum(code == SYN_REPORT and t == _us(5) for t, _, code, _ in events) == 2


def test_a_one_finger_mfa_plans_like_its_gesture():
    # One finger's contact is its high touches, as a gesture's is: the
    # same plan and events, and one slot selection, where it opens.
    touches = make_sequence(3, 6, 200.0, 400.0, fade_frames=2, dx=15.0).touches
    gesture = AtomicAction("gesture", touches)
    mfa = assert_inverse(_scenario(MultiFingerItem((gesture,), 1)))
    assert mfa == assert_inverse(_scenario(gesture))
    (plan,), events = mfa
    assert [len(samples) for *_, samples in plan] == [6]
    assert sum(code == ABS_MT_SLOT for _, _, code, _ in events) == 1
