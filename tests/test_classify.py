import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereplay.classify import (
    AtomicAction,
    ClassifiedScenario,
    MultiFingerItem,
    classify_action,
    classify_finger_count,
    classify_trace,
    filter_actions,
    group_overlapping,
    identify_sfa_mfa,
)
from tracereplay.model import (
    HIGH,
    KIND_SYMBOLS,
    LOW,
    DetectionTrace,
    DeviceProfile,
    Rules,
    collapse_finger_counts,
    dump_sequence_file,
    load_sequence_file,
)
from tracereplay.segment import TouchSequence
from tracereplay.synth import (
    NoiseModel,
    noise_preset,
    random_scenario,
    synthesize_trace,
)

from conftest import make_sequence, make_touch


def interval_action(start, end, x=100.0, y=100.0, kind="gesture"):
    """Stationary action occupying frames start..end (for grouping tests)."""
    seq = make_sequence(start, end - start + 1, x, y)
    return AtomicAction(kind=kind, touches=seq.touches)


class TestClassifyAction:
    def test_short_stationary_press_is_tap(self, profile):
        seq = make_sequence(0, 10, 300, 300, fade_frames=3)
        action = classify_action(seq, profile)
        assert action.kind == "tap"
        assert action.last_high_frame - action.start_frame + 1 == 10

    def test_long_stationary_press_is_long_tap(self, profile):
        seq = make_sequence(0, 25, 300, 300)
        assert classify_action(seq, profile).kind == "long_tap"

    def test_drifting_press_is_gesture(self, profile):
        # 15 frames drifting ~40px rightward exceeds the 8px slop.
        seq = make_sequence(0, 15, 300, 300, dx=40 / 14)
        assert classify_action(seq, profile).kind == "gesture"

    def test_cutoff_boundary(self, profile):
        # 20 high frames is still a tap; 21 is a long tap.
        tap = make_sequence(0, 20, 300, 300)
        long_tap = make_sequence(0, 21, 300, 300)
        assert classify_action(tap, profile).kind == "tap"
        assert classify_action(long_tap, profile).kind == "long_tap"

    def test_fade_excluded_from_duration(self, profile):
        # 19 high + 5 low frames: active span 19 <= 20, still a tap.
        seq = make_sequence(0, 19, 300, 300, fade_frames=5)
        assert classify_action(seq, profile).kind == "tap"

    def test_slop_boundary(self, profile):
        exactly = make_sequence(0, 10, 300, 300)
        exactly = type(exactly)(
            touches=exactly.touches[:-1] + (make_touch(9, 308, 300),)
        )
        beyond = type(exactly)(
            touches=exactly.touches[:-1] + (make_touch(9, 309, 300),)
        )
        assert classify_action(exactly, profile).kind == "tap"
        assert classify_action(beyond, profile).kind == "gesture"

    def test_duration_based_cutoff_scales_with_fps(self, profile):
        profile60 = DeviceProfile(name="d", screen_width=1080,
                                  screen_height=1920, fps=60)
        duration = Rules(duration_based_cutoff=True)

        def kinds(device, *rules):
            return [classify_action(make_sequence(0, n, 300, 300), device, *rules).kind
                    for n in (20, 21, 30, 40, 41)]

        # 20 frames by default; 667 ms is 40 frames at 60 fps and 20 at 30 fps.
        assert kinds(profile60) == kinds(profile60, Rules()) == ["tap"] + ["long_tap"] * 4
        assert kinds(profile60, duration) == ["tap"] * 4 + ["long_tap"]
        assert kinds(profile, duration) == kinds(profile) == ["tap"] + ["long_tap"] * 4


class TestFilterActions:
    def test_all_low_removed(self, profile):
        touches = tuple(
            make_touch(f, 100, 100, opacity=LOW) for f in range(12)
        )
        action = AtomicAction(kind="tap", touches=touches)
        assert filter_actions([action]) == []

    def test_mostly_high_retained(self, profile):
        seq = make_sequence(0, 11, 100, 100, fade_frames=1)
        action = classify_action(seq, profile)
        assert filter_actions([action]) == [action]

    def test_two_frame_action_removed(self, profile):
        # Segmentation discards a run of two frames before classify sees
        # it; filter_actions tests only the high-opacity fraction.
        touches = (make_touch(3, 100, 100), make_touch(4, 100, 100))
        assert classify_trace(DetectionTrace(profile, touches, 6)).items == ()
        action = interval_action(0, 1)
        assert filter_actions([action]) == [action]

    def test_order_preserved(self, profile):
        a = classify_action(make_sequence(0, 5, 100, 100), profile)
        b = classify_action(make_sequence(20, 5, 200, 200), profile)
        assert filter_actions([a, b]) == [a, b]


class TestGroupOverlapping:
    def test_joins_when_start_precedes_group_end(self):
        a = interval_action(1, 20)
        b = interval_action(2, 17, x=300)
        c = interval_action(3, 20, x=500)
        groups = group_overlapping([a, b, c])
        assert groups == [[a, b, c]]

    def test_new_group_when_disjoint(self):
        a = interval_action(1, 20)
        b = interval_action(2, 17, x=300)
        c = interval_action(3, 20, x=500)
        d = interval_action(70, 92, x=700)
        groups = group_overlapping([a, b, c, d])
        assert groups == [[a, b, c], [d]]

    def test_equal_start_and_end_is_not_overlap(self):
        a = interval_action(0, 10)
        b = interval_action(10, 20, x=300)
        assert group_overlapping([a, b]) == [[a], [b]]

    def test_input_order_irrelevant(self):
        a = interval_action(1, 20)
        b = interval_action(15, 40, x=300)
        c = interval_action(60, 80, x=500)
        assert group_overlapping([c, a, b]) == group_overlapping([a, b, c])


def oracle_groups(actions):
    """Union-find over all pairs: edge when the later-starting action's
    first frame precedes the earlier one's last frame."""
    n = len(actions)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            first, second = actions[i], actions[j]
            if second.start_frame < first.start_frame:
                first, second = second, first
            if second.start_frame < first.end_frame:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    components = {}
    for i in range(n):
        components.setdefault(find(i), set()).add(id(actions[i]))
    return {frozenset(c) for c in components.values()}


class TestGroupingOracle:
    def test_matches_interval_overlap_components(self):
        rng = random.Random(2024)
        for _ in range(500):
            n = rng.randrange(1, 11)
            actions = []
            for k in range(n):
                start = rng.randrange(0, 100)
                length = rng.randrange(1, 40)
                actions.append(interval_action(start, start + length, x=100 + 10 * k))
            got = {
                frozenset(id(a) for a in group)
                for group in group_overlapping(actions)
            }
            assert got == oracle_groups(actions)


class TestFingerCount:
    def test_stray_tap_does_not_inflate(self):
        # Three fingers across 6 frames plus a 1-frame stray on one
        # frame: per-frame counts (3,3,3,3,4,3)... the mode stays 3.
        fingers = [interval_action(0, 5, x=100 + 200 * k) for k in range(3)]
        stray = AtomicAction(kind="tap", touches=(make_touch(4, 900, 1500),))
        assert classify_finger_count(fingers + [stray]) == 3

    def test_uniform_two(self):
        fingers = [interval_action(0, 9, x=100), interval_action(0, 9, x=500)]
        assert classify_finger_count(fingers) == 2

    def test_tie_breaks_toward_larger(self):
        # Counts 1,1,2,2 over four frames: tie between 1 and 2 -> 2.
        a = interval_action(0, 3, x=100)
        b = interval_action(2, 3, x=500)
        assert classify_finger_count([a, b]) == 2


class TestIdentifySfaMfa:
    def test_disjoint_taps_are_sfas(self, profile):
        actions = [
            classify_action(make_sequence(s, 6, 100 + s, 100), profile)
            for s in (0, 20, 40)
        ]
        scenario = identify_sfa_mfa(actions, profile)
        assert all(isinstance(i, AtomicAction) for i in scenario.items)
        assert scenario.symbols() == ("T", "T", "T")

    def test_fast_typing_stays_sfa(self, profile):
        # Two taps sharing 30% of their frames: each action's
        # multi-touch fraction is 0.3 <= 0.5, so both stay SFAs.
        a = classify_action(make_sequence(0, 10, 100, 100), profile)
        b = classify_action(make_sequence(7, 10, 600, 100), profile)
        scenario = identify_sfa_mfa([a, b], profile)
        assert scenario.symbols() == ("T", "T")

    def test_exactly_half_is_sfa(self, profile):
        # 10-frame actions overlapping on exactly 5 frames: fraction is
        # exactly 0.5, which does not exceed the strict gate.
        a = classify_action(make_sequence(0, 10, 100, 100), profile)
        b = classify_action(make_sequence(5, 10, 600, 100), profile)
        scenario = identify_sfa_mfa([a, b], profile)
        assert all(isinstance(i, AtomicAction) for i in scenario.items)

    def test_majority_overlap_becomes_mfa(self, profile):
        a = classify_action(make_sequence(0, 10, 100, 100), profile)
        b = classify_action(make_sequence(1, 10, 600, 100), profile)
        scenario = identify_sfa_mfa([a, b], profile)
        assert len(scenario.items) == 1
        item = scenario.items[0]
        assert isinstance(item, MultiFingerItem)
        assert item.finger_count == 2
        assert scenario.symbols(extended=True) == ("G2",)
        assert scenario.symbols() == ("G",)

    def test_stray_kept_inside_mfa(self, profile):
        fingers = [
            classify_action(make_sequence(0, 20, 100 + 300 * k, 100), profile)
            for k in range(2)
        ]
        stray = classify_action(make_sequence(8, 4, 900, 1500), profile)
        scenario = identify_sfa_mfa(fingers + [stray], profile)
        (item,) = scenario.items
        assert isinstance(item, MultiFingerItem)
        assert len(item.actions) == 3  # the stray is retained, not deleted
        assert item.finger_count == 2

    def test_partition_and_order_stability(self, profile):
        actions = [
            classify_action(make_sequence(40, 10, 100, 100), profile),
            classify_action(make_sequence(0, 10, 200, 200), profile),
            classify_action(make_sequence(1, 10, 600, 600), profile),
        ]
        scenario = identify_sfa_mfa(actions, profile)
        flattened = []
        for item in scenario.items:
            if isinstance(item, AtomicAction):
                flattened.append(item)
            else:
                flattened.extend(item.actions)
        assert sorted(map(id, flattened)) == sorted(map(id, actions))
        permuted = identify_sfa_mfa(list(reversed(actions)), profile)
        assert permuted.symbols(extended=True) == scenario.symbols(extended=True)
        starts = [i.start_frame for i in scenario.items]
        assert starts == sorted(starts)


class TestActionIsASequence:
    """An action is a `TouchSequence` with a kind: the sequence's check,
    derived attributes and frames, and `==`, `hash` and `repr` over the
    kind and the touches."""

    @given(
        st.sampled_from(list(KIND_SYMBOLS)),
        st.lists(st.sampled_from([HIGH, LOW]), min_size=1, max_size=12),
    )
    def test_equality_hash_and_repr(self, kind, opacities):
        opacities.sort(key=lambda o: o is LOW)
        touches = tuple(
            make_touch(f, 100, 100, opacity=o) for f, o in enumerate(opacities)
        )
        action = AtomicAction(kind, touches)
        sequence = TouchSequence(touches)
        assert isinstance(action, TouchSequence)
        assert action.high_touches == sequence.high_touches
        assert action.last_high_frame == sequence.last_high_frame
        assert action.end_frame == len(touches) - 1
        assert action == AtomicAction(kind, list(touches))
        assert hash(action) == hash(AtomicAction(kind, touches))
        assert repr(action) == f"AtomicAction(kind={kind!r}, touches={touches!r})"
        assert action != sequence
        other = next(k for k in KIND_SYMBOLS if k != kind)
        assert action != AtomicAction(other, touches)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_classified_actions_equal_checked_ones(self, seed):
        # classify_action builds its action without the constructor.
        profile = DeviceProfile(name="d", screen_width=1080,
                                screen_height=1920, fps=30)
        scenario = random_scenario(profile, seed=seed)
        trace, _ = synthesize_trace(scenario, noise_preset("emulator", seed=seed))
        for item in classify_trace(trace).items:
            for action in getattr(item, "actions", (item,)):
                checked = AtomicAction(action.kind, action.touches)
                assert action == checked
                assert action.high_touches == checked.high_touches


class TestScenarioSerialization:
    def test_json_round_trip(self, profile):
        scenario = random_scenario(profile, seed=8, n_actions=6)
        trace, _ = synthesize_trace(scenario, NoiseModel())
        classified = classify_trace(trace)
        restored = ClassifiedScenario.from_json(classified.to_json())
        assert restored == classified


class TestZeroNoiseRoundTrip:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symbols_and_finger_counts_recovered(self, seed):
        profile = DeviceProfile(name="d", screen_width=1080,
                                screen_height=1920, fps=30)
        scenario = random_scenario(profile, seed=seed, n_actions=6)
        trace, truth = synthesize_trace(scenario, NoiseModel())
        classified = classify_trace(trace)
        assert classified.symbols(extended=True) == truth

    @pytest.mark.parametrize("fingers", [3, 4, 10])
    def test_higher_finger_counts_recovered(self, profile, fingers):
        import math

        from tracereplay.synth import GroundTruthAction, GroundTruthScenario

        paths = []
        for k in range(fingers):
            angle = 2 * math.pi * k / fingers
            path = tuple(
                (t, 540.0 + (150.0 + 4.0 * t) * math.cos(angle),
                 960.0 + (150.0 + 4.0 * t) * math.sin(angle))
                for t in range(15)
            )
            paths.append(path)
        scenario = GroundTruthScenario(
            profile=profile,
            actions=(GroundTruthAction(kind="gesture", paths=tuple(paths)),),
        )
        trace, truth = synthesize_trace(scenario, NoiseModel())
        classified = classify_trace(trace)
        assert classified.symbols(extended=True) == truth == (f"G{fingers}",)


class TestSymbolAlphabet:
    """Ground truth and predictions share `model`'s one alphabet."""

    @pytest.mark.parametrize("preset", ["clean", "physical-device", "emulator"])
    @pytest.mark.parametrize("seed", range(4))
    def test_emitted_symbols_survive_sequence_files(self, profile, preset, seed):
        scenario = random_scenario(profile, seed=seed)
        trace, truth = synthesize_trace(scenario, noise_preset(preset, seed=seed))
        classified = classify_trace(trace)
        predicted = classified.symbols(extended=True)
        assert classified.symbols() == collapse_finger_counts(predicted)
        sequences = {
            "truth": truth,
            "truth-basic": collapse_finger_counts(truth),
            "predicted": predicted,
            "predicted-basic": classified.symbols(),
        }
        assert load_sequence_file(dump_sequence_file(sequences)) == sequences
