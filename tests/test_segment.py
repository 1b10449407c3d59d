import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereplay.classify import classify_trace
from tracereplay.errors import BoundsViolation, SchemaViolation
from tracereplay.model import HIGH, LOW, DetectionTrace, DeviceProfile, Rules
from tracereplay.segment import TouchSequence, filter_confidence, segment_trace
from tracereplay.synth import NoiseModel, random_scenario, synthesize_trace

from conftest import make_touch


def make_trace(profile, touches, frame_count=None):
    frames = max((t.frame for t in touches), default=-1)
    return DetectionTrace(
        profile=profile,
        detections=tuple(touches),
        frame_count=frame_count or frames + 1,
    )


PROFILE = DeviceProfile(name="nexus5", screen_width=1080, screen_height=1920, fps=30)


def segment(touches):
    """Sequences of hand-built touches, at the default 8 px touch slop."""
    return segment_trace(make_trace(PROFILE, touches))


H, L = HIGH, LOW


def sequence(frames, opacities=None):
    opacities = opacities or [H] * len(frames)
    return TouchSequence(
        touches=tuple(make_touch(f, 0, 0, opacity=o) for f, o in zip(frames, opacities))
    )


class TestTouchSequence:
    def test_frames_must_increase(self):
        with pytest.raises(
            SchemaViolation, match=r"^sequence frames must strictly increase: \[3, 3\]$"
        ):
            sequence([3, 3])

    def test_low_must_be_suffix(self):
        with pytest.raises(
            SchemaViolation,
            match="^high-opacity touch after a low-opacity one; fades must be a suffix$",
        ):
            sequence([0, 1, 2], [H, L, H])

    def test_frame_order_error_wins_over_a_later_fade_defect(self):
        # The walk meets the fade defect (third touch) before the order
        # defect (fourth touch); the order error is still the one raised.
        with pytest.raises(
            SchemaViolation,
            match=r"^sequence frames must strictly increase: \[0, 1, 2, 1\]$",
        ):
            sequence([0, 1, 2, 1], [H, L, H, H])

    def test_empty(self):
        with pytest.raises(SchemaViolation, match="^touch sequence cannot be empty$"):
            sequence([])


class TestDetectionTrace:
    def test_first_misplaced_detection_in_frame_order_decides(self):
        # Frame 7 lies past frame_count (SchemaViolation) but frame 5,
        # later in the input, is off-screen and comes first by frame.
        with pytest.raises(BoundsViolation, match=r"\(frame 5\)$"):
            make_trace(PROFILE, [make_touch(7, 100, 100), make_touch(5, 1075, 100)],
                       frame_count=6)

    def test_unsorted_input_is_sorted_stably(self):
        touches = [make_touch(6, 100, 100), make_touch(4, 200, 100),
                   make_touch(6, 300, 100), make_touch(4, 400, 100)]
        trace = make_trace(PROFILE, touches)
        assert trace.detections == tuple(sorted(touches, key=lambda d: d.frame))
        assert [d.center[0] for d in trace.detections] == [200, 400, 100, 300]


@given(
    st.lists(st.sampled_from([HIGH, LOW]), min_size=1, max_size=12)
)
def test_high_touches_is_the_opacity_filter(opacities):
    # Any valid sequence: the highs first, then the fade suffix.
    opacities.sort(key=lambda o: o is LOW)
    touches = tuple(
        make_touch(f, 100, 100, opacity=o) for f, o in enumerate(opacities)
    )
    seq = TouchSequence(touches=touches)
    highs = tuple(t for t in touches if t.opacity is HIGH)
    assert seq.high_touches == highs
    assert seq.last_high_frame == (highs[-1].frame if highs else 0)
    assert seq == TouchSequence(touches=list(touches))
    assert hash(seq) == hash(TouchSequence(touches=touches))
    assert repr(seq) == f"TouchSequence(touches={touches!r})"


class TestFilterConfidence:
    def test_boundary_is_kept(self, profile):
        touches = [
            make_touch(0, 100, 100, confidence=0.9),
            make_touch(1, 100, 100, confidence=0.69),
            make_touch(2, 100, 100, confidence=0.7),
        ]
        kept = filter_confidence(make_trace(profile, touches))
        assert [d.confidence for d in kept.detections] == [0.9, 0.7]

    def test_empty_trace(self, profile):
        trace = make_trace(profile, [], frame_count=0)
        assert len(filter_confidence(trace)) == 0

    def test_identity_at_full_confidence(self, profile):
        touches = [make_touch(f, 100, 100, confidence=1.0) for f in range(5)]
        trace = make_trace(profile, touches)
        assert filter_confidence(trace) == trace

    @pytest.mark.parametrize("stage", [filter_confidence, segment_trace, classify_trace])
    @pytest.mark.parametrize(
        "threshold", [float("nan"), float("inf"), -float("inf"), -0.1, 1.5, "0.5",
                      None, True],
        ids=["nan", "inf", "-inf", "-0.1", "1.5", "str", "None", "True"])
    def test_threshold_outside_0_to_1_rejected(self, profile, stage, threshold):
        # A threshold reaches each stage only through `Rules`, whose
        # constructor is its one check.
        trace, _ = synthesize_trace(random_scenario(profile, seed=1), NoiseModel())
        message = f"min_confidence must be a finite number in [0, 1], got {threshold!r}"
        with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
            stage(trace, Rules(threshold))

    @pytest.mark.parametrize("stage", [filter_confidence, segment_trace, classify_trace])
    def test_threshold_0_and_1_accepted(self, profile, stage):
        trace, _ = synthesize_trace(random_scenario(profile, seed=1), NoiseModel())
        for threshold in (0, 1, 0.0, 1.0):
            stage(trace, Rules(threshold))
        assert len(filter_confidence(trace, Rules(0))) == len(trace)
        assert len(filter_confidence(trace, Rules(1))) == sum(
            d.confidence == 1.0 for d in trace.detections)


class TestGroupConsecutive:
    """Runs of consecutive non-empty frames: an empty frame closes every
    chain, and a run of two frames or fewer yields no sequence."""

    def test_gap_splits_groups(self):
        touches = [make_touch(f, 100, 100) for f in (3, 4, 5, 9, 10, 11, 12)]
        sequences = segment(touches)
        assert [(s.start_frame, s.end_frame) for s in sequences] == [(3, 5), (9, 12)]

    def test_two_frame_run_discarded(self):
        touches = [make_touch(f, 100, 100) for f in (3, 4)]
        assert segment(touches) == []
        # A run of two frames is dropped even between longer runs.
        touches = [make_touch(f, 100, 100) for f in (0, 1, 2, 4, 5, 7, 8, 9)]
        sequences = segment(touches)
        assert [(s.start_frame, s.end_frame) for s in sequences] == [(0, 2), (7, 9)]

    def test_grouping_by_frame_adjacency_not_touch_count(self):
        # Frame 4 holds two touches; the run still spans frames 3-5, so
        # the finger at (100, 100) links through it.
        touches = [
            make_touch(3, 100, 100),
            make_touch(4, 100, 100),
            make_touch(4, 500, 500),
            make_touch(5, 100, 100),
        ]
        sequences = segment(touches)
        assert [s.touches for s in sequences] == [
            (touches[0], touches[1], touches[3])
        ]


class TestSegmentActions:
    """Linking and fade cutting, through segment_trace."""

    def test_single_finger_no_branching(self):
        touches = [make_touch(f, 100, 100) for f in range(10)]
        sequences = segment(touches)
        assert len(sequences) == 1
        assert len(sequences[0].touches) == 10

    def test_interior_low_splits(self):
        # High 0..4, low on 5, high 6..11: the low node closes the first
        # action and the rest becomes a separate one.
        touches = [make_touch(f, 100, 100) for f in range(5)]
        touches.append(make_touch(5, 100, 100, opacity=LOW))
        touches += [make_touch(f, 100, 100) for f in range(6, 12)]
        sequences = segment(touches)
        assert [(s.start_frame, s.end_frame) for s in sequences] == [(0, 5), (6, 11)]
        assert sequences[0].touches[-1].opacity is LOW

    def test_low_run_stays_with_earlier_piece(self):
        touches = [make_touch(f, 100, 100) for f in range(4)]
        touches += [
            make_touch(4, 100, 100, opacity=LOW),
            make_touch(5, 100, 100, opacity=LOW),
        ]
        touches += [make_touch(f, 100, 100) for f in range(6, 10)]
        sequences = segment(touches)
        assert [(s.start_frame, s.end_frame) for s in sequences] == [(0, 5), (6, 9)]
        assert len(sequences[0].high_touches) == 4

    def test_short_pieces_discarded_after_split(self):
        touches = [make_touch(f, 100, 100) for f in range(3)]
        touches.append(make_touch(3, 100, 100, opacity=LOW))
        touches += [make_touch(f, 100, 100) for f in (4, 5)]  # 2-frame remainder
        sequences = segment(touches)
        assert [(s.start_frame, s.end_frame) for s in sequences] == [(0, 3)]

    def test_nearest_candidate_wins(self):
        # Two fingers far apart: each successor joins its own trajectory.
        touches = []
        for f in range(6):
            touches.append(make_touch(f, 100 + 5 * f, 100))
            touches.append(make_touch(f, 800 - 5 * f, 900))
        sequences = segment(touches)
        assert len(sequences) == 2
        assert all(len(s.touches) == 6 for s in sequences)

    def test_equidistant_low_links_to_older_action(self):
        # Action A (frames 0..2, ends with a lifting touch) and action B
        # (frames 1..4, starting one frame later). A's last node sits
        # exactly between A's and B's frame-1 positions, so distance
        # cannot decide; its low opacity links it back to A.
        a0 = make_touch(0, 100, 100)
        a1 = make_touch(1, 100, 100)
        b1 = make_touch(1, 140, 100)
        lift = make_touch(2, 120, 100, opacity=LOW)
        b2 = make_touch(2, 180, 100)
        b3 = make_touch(3, 220, 100)
        b4 = make_touch(4, 260, 100)
        sequences = segment([a0, a1, b1, lift, b2, b3, b4])
        assert len(sequences) == 2
        seq_a = next(s for s in sequences if s.start_frame == 0)
        seq_b = next(s for s in sequences if s is not seq_a)
        assert seq_a.end_frame == 2
        assert seq_a.touches[-1].opacity is LOW
        assert seq_a.touches[-1].center == (120.0, 100.0)
        assert (seq_b.start_frame, seq_b.end_frame) == (1, 4)
        assert all(t.opacity is HIGH for t in seq_b.touches)

    def test_surplus_touch_starts_new_sequence(self):
        touches = [make_touch(f, 100, 100) for f in range(6)]
        touches += [make_touch(f, 700, 900) for f in range(3, 6)]
        sequences = segment(touches)
        assert [(s.start_frame, len(s.touches)) for s in sequences] == [(0, 6), (3, 3)]

    def test_unmatched_sequence_closes_at_gap(self):
        # Finger A vanishes at frame 3 while finger B continues; A's
        # chain closes and is discarded (2 frames), B survives.
        touches = [make_touch(f, 100, 100) for f in (0, 1)]
        touches += [make_touch(f, 700, 900) for f in range(0, 6)]
        sequences = segment(touches)
        assert [(s.start_frame, len(s.touches)) for s in sequences] == [(0, 6)]

    def test_partition_accounts_for_every_touch(self):
        touches = [make_touch(f, 100, 100) for f in range(5)]
        touches.append(make_touch(5, 100, 100, opacity=LOW))
        touches += [make_touch(f, 100, 100) for f in (6, 7)]
        touches += [make_touch(f, 600, 600) for f in range(2, 9)]
        sequences = segment(touches)
        kept = sum(len(s.touches) for s in sequences)
        assert kept <= len(touches)
        # Discarded remainder is exactly the 2-frame piece at (100,100).
        assert len(touches) - kept == 2


@st.composite
def two_finger_groups(draw):
    """Two well-separated stationary fingers with arbitrary overlap."""
    start_a = draw(st.integers(0, 5))
    len_a = draw(st.integers(3, 12))
    start_b = draw(st.integers(0, 10))
    len_b = draw(st.integers(3, 12))
    touches = [make_touch(start_a + k, 100, 100) for k in range(len_a)]
    touches += [make_touch(start_b + k, 800, 1500) for k in range(len_b)]
    return touches, (start_a, len_a), (start_b, len_b)


class TestSegmentProperties:
    @given(two_finger_groups())
    @settings(max_examples=60)
    def test_two_finger_extents_recovered(self, data):
        touches, (sa, la), (sb, lb) = data
        # Only applicable when the fingers overlap in time: without an
        # overlap (and without fade tails) adjacent contacts merge, by
        # design of the lone-touch linking rule.
        if sb > sa + la - 1 or sa > sb + lb - 1:
            return
        sequences = segment(touches)
        extents = sorted((s.start_frame, s.end_frame) for s in sequences)
        expected = sorted(
            (s, s + n - 1) for s, n in ((sa, la), (sb, lb))
        )
        assert extents == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_zero_noise_round_trip_extents(self, seed):
        from tracereplay.model import DeviceProfile

        profile = DeviceProfile(name="d", screen_width=1080,
                                screen_height=1920, fps=30)
        scenario = random_scenario(profile, seed=seed, n_actions=4)
        trace, _ = synthesize_trace(scenario, NoiseModel())
        sequences = segment_trace(trace)
        truth_paths = sorted(
            (path[0][0], path[-1][0])
            for action in scenario.actions
            for path in action.paths
        )
        got = sorted((s.start_frame, s.last_high_frame) for s in sequences)
        assert got == truth_paths
