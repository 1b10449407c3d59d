"""Differential test of the multi-touch gate, which counts an action's
multi-touch frames by bisecting the sorted multi-touch frames, against
the per-action frame loop it replaced.

`_oracle_identify_sfa_mfa` is the previous `classify.identify_sfa_mfa`,
copied unchanged apart from its name: it counts each action's
multi-touch frames by walking every frame of its span. Both must give
the same scenario, and the same classified.json bytes, for actions from
noisy synthetic traces and for hand-built spans with empty frames
between them, starting at frame 0 or ending at the last touched frame.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tracereplay.classify import (
    MULTI_TOUCH_GATE,
    ActionKind,
    AtomicAction,
    ClassifiedScenario,
    MultiFingerItem,
    ScenarioItem,
    SingleFingerItem,
    classify_action,
    classify_finger_count,
    filter_actions,
    group_overlapping,
    identify_sfa_mfa,
    per_frame_touch_counts,
)
from tracereplay.model import DeviceProfile
from tracereplay.segment import segment_trace
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

from conftest import make_sequence

PROFILE = DeviceProfile(name="d", screen_width=1080, screen_height=1920, fps=30)


# --- the previous partition, copied unchanged apart from its name ---


def _oracle_identify_sfa_mfa(
    actions: list[AtomicAction], profile: DeviceProfile
) -> ClassifiedScenario:
    ordered = sorted(
        actions,
        key=lambda a: (a.start_frame, a.end_frame, a.sequence.touches[0].center),
    )
    counts = per_frame_touch_counts(ordered)
    singles: list[AtomicAction] = []
    potential_multi: list[AtomicAction] = []
    for action in ordered:
        span = range(action.start_frame, action.end_frame + 1)
        multi = sum(1 for f in span if counts.get(f, 0) >= 2)
        if multi / len(span) > MULTI_TOUCH_GATE:
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


# --- the comparison ---


def assert_same_partition(actions: list[AtomicAction], profile: DeviceProfile):
    got = identify_sfa_mfa(actions, profile)
    expected = _oracle_identify_sfa_mfa(actions, profile)
    assert got == expected
    assert got.to_json() == expected.to_json()


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(["emulator", "physical-device"]),
    seed=st.integers(0, 10_000),
    n_actions=st.integers(1, 12),
)
def test_noisy_traces_partition_like_oracle(preset, seed, n_actions):
    scenario = random_scenario(PROFILE, seed=seed, n_actions=n_actions)
    trace, _ = synthesize_trace(scenario, noise_preset(preset, seed=seed))
    actions = [classify_action(s, PROFILE) for s in segment_trace(trace)]
    assert_same_partition(filter_actions(actions), PROFILE)


# One finger's press: start frame, frames held, x position.
presses = st.lists(
    st.tuples(st.integers(0, 60), st.integers(1, 25), st.integers(0, 5)),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(presses=presses, from_zero=st.booleans())
def test_hand_built_spans_partition_like_oracle(presses, from_zero):
    if from_zero and presses:
        presses[0] = (0, *presses[0][1:])
    actions = [
        AtomicAction(ActionKind.TAP, make_sequence(start, n, 100.0 + 150.0 * x, 300.0))
        for start, n, x in presses
    ]
    assert_same_partition(actions, PROFILE)


def test_spans_at_frame_zero_and_at_the_last_frame():
    def press(start, length, x):
        return AtomicAction(ActionKind.GESTURE, make_sequence(start, length, x, 500.0))

    # Each block has one long press that is multi-touch in 4 of its 6
    # frames: one frame fewer and it is a single-fingered action.
    actions = [
        press(0, 6, 100.0), press(0, 4, 300.0), press(0, 4, 500.0),  # from frame 0
        # frames 6..19 have no touches
        press(20, 6, 100.0), press(22, 4, 300.0), press(22, 4, 500.0),  # to the last
    ]
    assert_same_partition(actions, PROFILE)
    assert_same_partition(actions[3:], PROFILE)
    assert [type(item) for item in identify_sfa_mfa(actions, PROFILE).items] == [
        MultiFingerItem, MultiFingerItem,
    ]
    assert_same_partition([], PROFILE)
