import random
import re
from functools import partial

import pytest

from tracereplay.classify import (
    ClassifiedScenario,
    MultiFingerItem,
    classify_action,
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
    LOG_HEADER,
    MAX_SLOTS,
    SYN_REPORT,
    TRACKING_RELEASE,
    SendEventScript,
    assemble_script,
    frame_offset_us,
    parse_runnable,
    parse_script,
    serialize_script,
    translate_runnable,
    validate_events,
    validate_script,
)
from tracereplay.errors import SchemaViolation, ScriptFormatError, SlotExhaustion
from tracereplay.model import DeviceProfile

from conftest import UNDECODABLE_JSON, make_sequence, make_touch


def coordinate_samples(events):
    """(t_us, x, y) per sync window that carries coordinates."""
    samples = []
    x = y = None
    for t, etype, code, value in events:
        if etype == EV_ABS and code == ABS_MT_POSITION_X:
            x = value
        elif etype == EV_ABS and code == ABS_MT_POSITION_Y:
            y = value
        elif etype == EV_SYN and x is not None:
            samples.append((t, x, y))
            x = y = None
    return samples


def releases(events):
    """The release events, each a (t_us, type, code, value) tuple."""
    return [e for e in events if e[2:] == (ABS_MT_TRACKING_ID, TRACKING_RELEASE)]


def values_of(events, code):
    """The value of each event with event code `code`, in order."""
    return [value for _, _, c, value in events if c == code]


def opens(events):
    """(t_us, tracking id) of each contact opened, in order."""
    return [(t, value) for t, _, code, value in events
            if code == ABS_MT_TRACKING_ID and value != TRACKING_RELEASE]


def sfa_events(action, profile):
    """Events of a scenario holding the one single-fingered `action`."""
    scenario = ClassifiedScenario(profile, (action,))
    return assemble_script(scenario).events


def mfa_events(actions, profile):
    """Events of a scenario holding one multi-fingered item of `actions`."""
    item = MultiFingerItem(actions=tuple(actions), finger_count=len(actions))
    return assemble_script(ClassifiedScenario(profile, (item,))).events


class TestEmitSfa:
    def test_tap_shape(self, profile):
        action = classify_action(make_sequence(0, 10, 540, 960), profile)
        events = sfa_events(action, profile)
        samples = coordinate_samples(events)
        assert samples == [(0, 540, 960)]
        ((t_end, *_),) = releases(events)
        assert t_end == 333333  # 10 frames at 30fps
        kinds = [(etype, code) for _, etype, code, _ in events[:3]]
        assert kinds == [(EV_ABS, ABS_MT_SLOT), (EV_ABS, ABS_MT_TRACKING_ID),
                        (EV_KEY, BTN_TOUCH)]

    def test_long_tap_holds_one_sample(self, profile):
        action = classify_action(make_sequence(0, 25, 200, 400), profile)
        events = sfa_events(action, profile)
        assert len(coordinate_samples(events)) == 1
        ((t_end, *_),) = releases(events)
        assert t_end == 833333  # 25 frames

    def test_gesture_one_sample_per_touch(self, profile):
        action = classify_action(make_sequence(0, 5, 100, 100, dx=30), profile)
        events = sfa_events(action, profile)
        samples = coordinate_samples(events)
        assert len(samples) == 5
        deltas = [b[0] - a[0] for a, b in zip(samples, samples[1:])]
        assert all(abs(d - 1_000_000 / 30) <= 500 for d in deltas)

    def test_fade_tail_not_sampled(self, profile):
        action = classify_action(
            make_sequence(0, 5, 100, 100, dx=30, fade_frames=3), profile
        )
        events = sfa_events(action, profile)
        assert len(coordinate_samples(events)) == 5
        ((t_end, *_),) = releases(events)
        assert t_end == frame_offset_us(5, 30)

    def test_t0_offsets_everything(self, profile):
        # An action at frame 30 starts one second into the script.
        action = classify_action(make_sequence(30, 10, 540, 960), profile)
        events = sfa_events(action, profile)
        assert events[0][0] == 1_000_000
        ((t_end, *_),) = releases(events)
        assert t_end == 1_000_000 + frame_offset_us(10, 30)


class TestEmitMfa:
    def two_finger(self, profile, frames_a=30, frames_b=30):
        a = classify_action(make_sequence(0, frames_a, 200, 500, dx=4), profile)
        b = classify_action(make_sequence(0, frames_b, 800, 1500, dx=-4), profile)
        return [a, b]

    def test_pinch_slots_and_close_time(self, profile):
        events = mfa_events(self.two_finger(profile), profile)
        slots = set(values_of(events, ABS_MT_SLOT))
        assert slots == {0, 1}
        syn_count = sum(1 for _, etype, _, _ in events if etype == EV_SYN)
        assert syn_count == 31  # one interleaved window per frame, then the release
        ends = releases(events)
        assert len(ends) == 2
        assert {t for t, _, _, _ in ends} == {frame_offset_us(30, 30)}
        assert frame_offset_us(30, 30) == 1_000_000  # the frame after the last

    def test_finger_continues_after_other_ends(self, profile):
        events = mfa_events(self.two_finger(profile, 30, 21), profile)
        ends = sorted(t for t, _, _, _ in releases(events))
        assert ends[0] == frame_offset_us(21, 30)
        assert ends[1] == frame_offset_us(30, 30)
        # Coordinates continue past the first release.
        later = [e for e in events
                 if e[0] > ends[0] and e[2] == ABS_MT_POSITION_X]
        assert later

    def test_btn_touch_spans_whole_group(self, profile):
        events = mfa_events(self.two_finger(profile, 30, 21), profile)
        btns = [(t, value) for t, _, code, value in events if code == BTN_TOUCH]
        assert [value for _, value in btns] == [1, 0]
        assert btns[1][0] == frame_offset_us(30, 30)

    def test_degenerate_single_action_matches_sfa_samples(self, profile):
        action = classify_action(make_sequence(0, 8, 100, 100, dx=25), profile)
        sfa_samples = coordinate_samples(sfa_events(action, profile))
        mfa_samples = coordinate_samples(mfa_events([action], profile))
        assert sfa_samples == mfa_samples

    def test_slot_exhaustion(self, profile):
        fingers = [
            classify_action(make_sequence(0, 10, 60 + 90 * k, 500), profile)
            for k in range(11)
        ]
        with pytest.raises(SlotExhaustion):
            mfa_events(fingers, profile)

    def test_slot_reuse_after_release(self, profile):
        # Finger B starts after finger A already ended within one group
        # window held open by finger C; A's slot is recycled.
        c = classify_action(make_sequence(0, 40, 900, 1800, dx=2), profile)
        a = classify_action(make_sequence(0, 10, 100, 100), profile)
        b = classify_action(make_sequence(20, 10, 100, 100), profile)
        # assemble_script validates: open/open without release would fail.
        events = mfa_events([c, a, b], profile)
        assert set(values_of(events, ABS_MT_SLOT)) == {0, 1}


class TestAssemble:
    def scenario_of(self, profile, items):
        return ClassifiedScenario(profile=profile, items=tuple(items))

    def test_gap_between_taps(self, profile):
        first = classify_action(make_sequence(10, 10, 100, 100), profile)
        second = classify_action(make_sequence(70, 10, 600, 600), profile)
        scenario = self.scenario_of(profile, [first, second])
        script = assemble_script(scenario)
        begins = [t for t, _ in opens(script.events)]
        assert begins[1] - begins[0] == 2_000_000

    def test_empty_scenario(self, profile):
        script = assemble_script(self.scenario_of(profile, []))
        assert script.events == ()

    def test_single_mfa_equals_emitter_output(self, profile):
        # The emitter's output for an item at frame 5 is its output for
        # the same item at frame 0, each window moved five frames on
        # the one grid.
        def events_from(start):
            a = classify_action(make_sequence(start, 20, 200, 500, dx=5), profile)
            b = classify_action(make_sequence(start, 20, 800, 1500, dx=-5), profile)
            return mfa_events([a, b], profile)

        def five_frames_on(t):
            return frame_offset_us(round(t * 30 / 1_000_000) + 5, 30)

        assert events_from(5) == tuple(
            (five_frames_on(t), *rest) for t, *rest in events_from(0)
        )

    def test_overlapping_sfas_share_one_timeline(self, profile):
        # The second tap starts while the first is down: two fingers at
        # once, in slots 0 and 1, under one BTN_TOUCH down/up pair.
        first = classify_action(make_sequence(0, 10, 100, 100), profile)
        second = classify_action(make_sequence(7, 10, 600, 600), profile)
        scenario = self.scenario_of(profile, [first, second])
        events = assemble_script(scenario).events
        assert opens(events) == [(0, 1), (frame_offset_us(7, 30), 2)]
        slots = values_of(events, ABS_MT_SLOT)
        assert sorted(set(slots)) == [0, 1]
        btns = [(t, value) for t, _, code, value in events if code == BTN_TOUCH]
        assert btns == [(0, 1), (frame_offset_us(17, 30), 0)]
        ends = [t for t, _, _, _ in releases(events)]
        assert ends == [frame_offset_us(10, 30), frame_offset_us(17, 30)]

    def test_item_in_mfa_release_window(self, profile):
        # An item that starts in the frame whose window releases an MFA
        # opens after that window, at the release's time.
        def scenario(mfa_start, tap_start):
            a = classify_action(make_sequence(mfa_start, 3, 200, 500), profile)
            b = classify_action(make_sequence(mfa_start, 3, 800, 1500), profile)
            tap = classify_action(make_sequence(tap_start, 5, 500, 900), profile)
            return self.scenario_of(
                profile,
                [MultiFingerItem((a, b), finger_count=2), tap],
            )

        def release_and_tap_windows(script):
            events = script.events
            mfa_release = releases(events)[1]
            tap_open = next(e for e in events if e[2:] == (ABS_MT_TRACKING_ID, 3))
            # The release's window closes before the tap's opens.
            syn = next(i for i in range(events.index(mfa_release), len(events))
                       if events[i][1] == EV_SYN)
            assert events.index(tap_open) > syn
            return mfa_release[0], tap_open[0]

        # Frames 0-2, released at frame 3, then a tap at frame 3: both
        # at 100,000 us.
        assert release_and_tap_windows(assemble_script(scenario(0, 3))) == (
            frame_offset_us(3, 30), frame_offset_us(3, 30)) == (100000, 100000)
        # Frames 2-4, released at frame 5, then a tap at frame 5: both at
        # frame 5's time on the one grid, 166,667 us.
        assert release_and_tap_windows(assemble_script(scenario(2, 5))) == (
            166667, 166667)

    def test_more_than_max_slots_overlapping_sfas(self, profile):
        taps = [
            classify_action(make_sequence(k, 15, 60 + 90 * k, 500), profile)
            for k in range(11)
        ]
        with pytest.raises(SlotExhaustion, match="at frame 10"):
            assemble_script(self.scenario_of(profile, taps))
        # Ten at once fit.
        assemble_script(self.scenario_of(profile, taps[:10]))

    def test_one_action_mfa_selects_its_slot_once(self, profile):
        # A group of one finger is one contact: like an SFA, it writes
        # ABS_MT_SLOT only when it opens, and releases one frame after its
        # last active frame.
        action = classify_action(make_sequence(0, 6, 100, 100, dx=25), profile)
        events = mfa_events([action], profile)
        assert [e for e in events if e[2] == ABS_MT_SLOT] == [
            (0, EV_ABS, ABS_MT_SLOT, 0)]
        ((t_end, *_),) = releases(events)
        assert t_end == frame_offset_us(6, 30)
        assert len(coordinate_samples(events)) == 6

    def test_mfa_finger_without_high_touch_is_rejected(self, profile):
        # A finger that is all fade would be no contact: the scenario,
        # which holds one contact per action, takes no such action.
        faded = make_sequence(0, 0, 500, 500, fade_frames=4)
        a = classify_action(make_sequence(0, 10, 100, 100), profile)
        b = classify_action(make_sequence(0, 10, 800, 800), profile)
        ghost = classify_action(faded, profile)
        tap = classify_action(make_sequence(20, 5, 300, 300), profile)
        with pytest.raises(SchemaViolation,
                           match="every scenario action needs a high-opacity touch"):
            self.scenario_of(profile, [
                MultiFingerItem((a, ghost, b), finger_count=3), tap,
            ])

    def test_tracking_ids_unique(self, profile):
        a = classify_action(make_sequence(0, 10, 100, 100), profile)
        b = classify_action(make_sequence(30, 10, 200, 200), profile)
        c = classify_action(make_sequence(30, 10, 700, 700), profile)
        scenario = self.scenario_of(
            profile, [a, MultiFingerItem(actions=(b, c), finger_count=2)]
        )
        script = assemble_script(scenario)
        tids = [tid for _, tid in opens(script.events)]
        assert len(tids) == len(set(tids)) == 3


class TestCoordinateRounding:
    def test_half_up_and_clamped(self, profile):
        action = classify_action(
            type(make_sequence(0, 1, 0, 0))(
                touches=tuple(make_touch(f, 100.5, 200.4) for f in range(5))
            ),
            profile,
        )
        events = sfa_events(action, profile)
        samples = coordinate_samples(events)
        assert samples[0][1:] == (101, 200)

    def test_edge_center_stays_on_screen(self, profile):
        # bbox flush against the right edge: center 1060 -> fine; the
        # clamp only matters for centers at the very last half pixel.
        touches = tuple(make_touch(f, 1060, 1900) for f in range(5))
        action = classify_action(
            type(make_sequence(0, 1, 0, 0))(touches=touches), profile
        )
        events = sfa_events(action, profile)
        for _, x, y in coordinate_samples(events):
            assert 0 <= x < profile.screen_width
            assert 0 <= y < profile.screen_height


class TestSerialization:
    def build_script(self, profile, seed=0):
        rng = random.Random(seed)
        items = []
        cursor = rng.randrange(0, 10)
        for _ in range(rng.randrange(1, 6)):
            frames = rng.randrange(5, 30)
            x = rng.uniform(60, 1000)
            y = rng.uniform(60, 1800)
            dx = rng.uniform(-3, 3)
            action = classify_action(
                make_sequence(cursor, frames, x, y, dx=dx), profile
            )
            items.append(action)
            cursor += frames + rng.randrange(2, 10)
        return assemble_script(
            ClassifiedScenario(profile=profile, items=tuple(items))
        )

    def test_log_line_grammar(self, profile):
        action = classify_action(make_sequence(0, 5, 100, 100), profile)
        script = assemble_script(
            ClassifiedScenario(profile=profile, items=(action,))
        )
        lines = serialize_script(script).decode().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "[0.000000] /dev/input/event2: 0003 002f 00000000"
        assert body[1] == "[0.000000] /dev/input/event2: 0003 0039 00000001"
        # tracking release serializes as two's-complement ffffffff
        assert any(l.endswith("0003 0039 ffffffff") for l in body)

    def test_log_round_trip_randomized(self, profile):
        for seed in range(25):
            script = self.build_script(profile, seed)
            assert parse_script(serialize_script(script)) == script

    def test_runnable_round_trip_randomized(self, profile):
        for seed in range(25):
            script = self.build_script(profile, seed)
            events = parse_runnable(translate_runnable(script))
            assert tuple(events) == script.events

    def test_runnable_magic_checked(self):
        with pytest.raises(ScriptFormatError):
            parse_runnable(b"NOPE\x00\x00\x00\x00" + b"\x00" * 12)

    @pytest.mark.parametrize("data", ["V2SR", None], ids=["str", "none"])
    def test_runnable_of_another_type(self, data):
        with pytest.raises(ScriptFormatError, match="^runnable must be bytes or "
                           "bytearray, got "):
            parse_runnable(data)

    def test_runnable_truncated_record(self, profile):
        script = self.build_script(profile, 1)
        data = translate_runnable(script)
        with pytest.raises(ScriptFormatError):
            parse_runnable(data[:-3])

    def test_bad_log_line(self):
        with pytest.raises(ScriptFormatError):
            parse_script("# tracereplay-log 1\ngarbage here\n")


class TestValidateScript:
    """The constructor runs `validate_script` on every script."""

    def test_rejects_unbalanced_contact(self, profile):
        events = (
            (0, EV_ABS, ABS_MT_SLOT, 0),
            (0, EV_ABS, ABS_MT_TRACKING_ID, 1),
            (0, EV_KEY, BTN_TOUCH, 1),
            (0, EV_ABS, ABS_MT_POSITION_X, 5),
            (0, EV_ABS, ABS_MT_POSITION_Y, 5),
            (0, EV_SYN, SYN_REPORT, 0),
        )
        with pytest.raises(ScriptFormatError, match=r"^contacts left open: \[1\]$"):
            SendEventScript(device_node="/dev/x", events=events, profile=profile)

    def test_rejects_decreasing_time(self, profile):
        events = (
            (100, EV_ABS, ABS_MT_TRACKING_ID, 1),
            (50, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE),
        )
        with pytest.raises(ScriptFormatError, match="^timestamp decreases at 50us$"):
            SendEventScript(device_node="/dev/x", events=events, profile=profile)

    def test_rejects_off_screen_coordinate(self, profile):
        events = (
            (0, EV_ABS, ABS_MT_TRACKING_ID, 1),
            (0, EV_ABS, ABS_MT_POSITION_X, 5000),
            (0, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE),
        )
        with pytest.raises(ScriptFormatError, match="^x=5000 off screen$"):
            SendEventScript(device_node="/dev/x", events=events, profile=profile)


def two_fingers(profile):
    """A two-finger item held for frames 0-2: contacts 1 and 2 open in
    slots 0 and 1 in the first window and release in the last, frame 3's
    at 100,000 us."""
    a = classify_action(make_sequence(0, 3, 200, 500), profile)
    b = classify_action(make_sequence(0, 3, 800, 1500), profile)
    item = MultiFingerItem((a, b), finger_count=2)
    return assemble_script(ClassifiedScenario(profile, (item,)))


def _index(events, code, value=None, nth=0):
    """Index of the `nth` event with `code` (and `value`, if given)."""
    return [i for i, (_, _, c, v) in enumerate(events)
            if c == code and value in (None, v)][nth]


def _set_value(events, i, value):
    t, etype, code, _ = events[i]
    events[i] = (t, etype, code, value)


def _first_y_at_screen_height(events):
    _set_value(events, _index(events, ABS_MT_POSITION_Y), 1920)


def _first_slot_past_max(events):
    _set_value(events, _index(events, ABS_MT_SLOT), 10)


def _second_release_in_first_slot(events):
    _set_value(events, _index(events, ABS_MT_TRACKING_ID, TRACKING_RELEASE, 1) - 1, 0)


def _second_open_in_first_slot(events):
    _set_value(events, _index(events, ABS_MT_TRACKING_ID, 2) - 1, 0)


def _second_open_takes_first_id(events):
    _set_value(events, _index(events, ABS_MT_TRACKING_ID, 2), 1)


def _drop_btn_up(events):
    del events[_index(events, BTN_TOUCH, 0)]


def _drop_last_sync(events):
    del events[-1]


def _btn_up_before_down(events):
    down, up = _index(events, BTN_TOUCH, 1), _index(events, BTN_TOUCH, 0)
    _set_value(events, down, 0)
    _set_value(events, up, 1)


def _btn_down_twice(events):
    i = _index(events, BTN_TOUCH, 1)
    events.insert(i, events[i])


def _first_position_in_empty_slot_5(events):
    events.insert(_index(events, ABS_MT_POSITION_X), (0, EV_ABS, ABS_MT_SLOT, 5))


def _btn_down_before_first_open(events):
    down = events.pop(_index(events, BTN_TOUCH, 1))
    events.insert(_index(events, ABS_MT_TRACKING_ID), down)


def _btn_up_before_last_release(events):
    up = events.pop(_index(events, BTN_TOUCH, 0))
    events.insert(_index(events, ABS_MT_TRACKING_ID, TRACKING_RELEASE, -1), up)


def _first_y_1us_late(events):
    i = _index(events, ABS_MT_POSITION_Y)
    events[i] = (1, *events[i][1:])


def _first_x_twice(events):
    i = _index(events, ABS_MT_POSITION_X)
    events.insert(i, events[i])


def _drop_first_y(events):
    del events[_index(events, ABS_MT_POSITION_Y)]


def _btn_down_one_window_late(events):
    down = events.pop(_index(events, BTN_TOUCH, 1))
    events.insert(_index(events, SYN_REPORT) + 1, (33333, *down[1:]))


def _btn_down_after_second_open(events):
    down = events.pop(_index(events, BTN_TOUCH, 1))
    events.insert(_index(events, ABS_MT_TRACKING_ID, 2) + 1, down)


def _last_window_at_0us(events):
    events[-1] = (0, *events[-1][1:])


def _first_timestamp_half_a_microsecond(events):
    events[0] = (0.5, *events[0][1:])


def _first_event_without_value(events):
    events[0] = events[0][:3]


def _first_sync_as_relative_axis(events):
    i = _index(events, SYN_REPORT)
    t, _, code, value = events[i]
    events[i] = (t, 2, code, value)  # EV_REL


def _btn_down_with_value_2(events):
    _set_value(events, _index(events, BTN_TOUCH, 1), 2)


def _first_open_takes_id_minus_2(events):
    _set_value(events, _index(events, ABS_MT_TRACKING_ID, 1), -2)


def _first_finger_placed_as_it_releases(events):
    i = _index(events, ABS_MT_TRACKING_ID, TRACKING_RELEASE)
    t = events[i][0]
    events[i:i] = [(t, EV_ABS, ABS_MT_POSITION_X, 5), (t, EV_ABS, ABS_MT_POSITION_Y, 5)]


def _second_opens_without_position(events):
    i = _index(events, ABS_MT_TRACKING_ID, 2)
    del events[i + 1:i + 3]  # its x and y


def _no_profile(events):
    return {"profile": None}


def _last_line_on_other_node(lines):
    lines[-1] = lines[-1].replace("/dev/input/event2", "/dev/input/event3")


def _node_header_mid_log(lines):
    # Half the event lines on event2, then a header naming event7 and the
    # other half on event7: read as one event7 script, it would not
    # serialize back to these lines.
    half = 3 + (len(lines) - 3) // 2
    lines[half:] = ["# device_node: /dev/input/event7"] + [
        line.replace("/dev/input/event2", "/dev/input/event7") for line in lines[half:]]


def _second_profile_header_at_60fps(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("# profile: "))
    lines.insert(i + 1, lines[i].replace('"fps": 30', '"fps": 60'))


def _drop_profile_header(lines):
    lines.remove(next(line for line in lines if line.startswith("# profile: ")))


def _last_line_5000s_in(lines):
    lines[-1] = "[5000.000000]" + lines[-1].split("]", 1)[1]


def _first_release_line_twice(lines):
    i = next(i for i, line in enumerate(lines) if line.endswith(" 0039 ffffffff"))
    lines.insert(i, lines[i])


@pytest.mark.parametrize("defect, decoder, message", [
    (_first_y_at_screen_height, validate_script, "y=1920 off screen"),
    (_first_slot_past_max, validate_script, "slot 10 out of range"),
    (_second_release_in_first_slot, validate_script, "release on empty slot 0"),
    (_second_open_in_first_slot, validate_script, "slot 0 opened twice"),
    (_second_open_takes_first_id, validate_script, "tracking id 1 reused"),
    (_drop_btn_up, validate_script, "BTN_TOUCH stale at 100000us"),
    (_drop_last_sync, validate_script, "last window has no SYN_REPORT"),
    (_btn_up_before_down, validate_script, "BTN_TOUCH 0 at 0us repeats its state"),
    (_btn_down_twice, validate_script, "BTN_TOUCH 1 at 0us repeats its state"),
    (_first_position_in_empty_slot_5, validate_script,
     "position for empty slot 5 at 0us"),
    (_btn_down_before_first_open, validate_script,
     "BTN_TOUCH 1 at 0us with 0 contacts open"),
    (_btn_up_before_last_release, validate_script,
     "BTN_TOUCH 0 at 100000us with 1 contacts open"),
    (_first_y_1us_late, validate_script, "window at 0us holds an event at 1us"),
    (_first_x_twice, validate_script, "two positions in one window at 0us"),
    (_drop_first_y, validate_script, "half a position at 0us"),
    (_btn_down_one_window_late, validate_script, "BTN_TOUCH stale at 0us"),
    (_btn_down_after_second_open, validate_script,
     "BTN_TOUCH 1 at 0us with 2 contacts open"),
    (_last_window_at_0us, validate_script, "timestamp decreases at 0us"),
    (_first_timestamp_half_a_microsecond, validate_script,
     "event (0.5, 3, 47, 0) outside the type-B vocabulary"),
    (_first_event_without_value, validate_script,
     "event (0, 3, 47) outside the type-B vocabulary"),
    (_first_sync_as_relative_axis, validate_script,
     "event (0, 2, 0, 0) outside the type-B vocabulary"),
    (_btn_down_with_value_2, validate_script,
     "event (0, 1, 330, 2) outside the type-B vocabulary"),
    (_first_open_takes_id_minus_2, validate_script, "tracking id -2 out of range"),
    (_first_finger_placed_as_it_releases, validate_script,
     "contact 1 placed in its release window at 100000us"),
    (_second_opens_without_position, validate_script,
     "contact 2 opened without a position at 0us"),
    (_no_profile, validate_script, "profile must be a DeviceProfile, got None"),
    (_last_line_on_other_node, parse_script,
     "device node changed mid-log: '/dev/input/event3'"),
    (_node_header_mid_log, parse_script,
     "device node changed mid-log: '/dev/input/event7'"),
    (_second_profile_header_at_60fps, parse_script,
     "profile changed mid-log: DeviceProfile(name='nexus5', screen_width=1080, "
     "screen_height=1920, fps=60, touch_slop=8)"),
    (_drop_profile_header, parse_script, "log missing device_node/profile headers"),
    (_last_line_5000s_in, parse_script,
     "timestamp step 4999900000us at 5000000000us exceeds u32"),
    (_first_release_line_twice, parse_script, "release on empty slot 0"),
], ids=lambda case: getattr(case, "__name__", None))
def test_decoder_rejects(profile, defect, decoder, message):
    """One change to `two_fingers`' events, and the exact message of
    `validate_script`, which the constructor runs; or one change to the
    lines of its log, and the exact message of parse_script."""
    script = two_fingers(profile)
    if decoder is parse_script:
        lines = serialize_script(script).decode("ascii").splitlines()
        defect(lines)
        build = partial(parse_script, "\n".join(lines))
    else:
        events = list(script.events)
        fields = dict(device_node=script.device_node, events=events,
                      profile=script.profile)
        fields.update(defect(events) or {})  # a defect may replace a field
        build = partial(SendEventScript, **fields)
    with pytest.raises(ScriptFormatError, match=f"^{re.escape(message)}$"):
        build()


class TestEventTuples:
    def test_script_and_decoders_hold_plain_tuples(self, profile):
        action = classify_action(make_sequence(0, 5, 100, 100, dx=30), profile)
        script = assemble_script(
            ClassifiedScenario(profile=profile, items=(action,))
        )
        assert type(script.events) is tuple
        for events in (script.events, parse_runnable(translate_runnable(script)),
                       parse_script(serialize_script(script)).events):
            assert all(type(e) is tuple for e in events)


class TestRecordRanges:
    """The constructor rejects what a runnable record cannot hold, so
    both encoders write every script it accepts."""

    def compile(self, profile, *events):
        return SendEventScript("/dev/input/event2", events, profile)

    @pytest.mark.parametrize("event", [
        (0, EV_SYN, SYN_REPORT, 2**31),
        (0, EV_SYN, SYN_REPORT, -(2**31) - 1),
        (0, EV_KEY, BTN_TOUCH, 2**31),
        (0, 0x10000, 0, 0),
        (0, -1, 0, 0),
        (0, EV_ABS, 0x10000, 0),
        (0, EV_SYN, -1, 0),
        (2**32, EV_SYN, SYN_REPORT, 0),
        (-1, EV_SYN, SYN_REPORT, 0),
    ], ids=["value-above-i32", "value-below-i32", "btn-value-above-i32",
            "type-above-u16", "negative-type", "code-above-u16",
            "negative-code", "first-step-above-u32", "negative-timestamp"])
    def test_out_of_range_event_rejected(self, profile, event):
        with pytest.raises(ScriptFormatError):
            self.compile(profile, event)

    def test_step_above_u32_rejected_mid_script(self, profile):
        with pytest.raises(ScriptFormatError, match="exceeds u32"):
            self.compile(profile, (5, EV_SYN, SYN_REPORT, 0),
                         (5 + 2**32, EV_SYN, SYN_REPORT, 0))

    def test_tracking_id_above_i32_rejected(self, profile):
        with pytest.raises(ScriptFormatError,
                           match="^tracking id 2147483648 out of range$"):
            self.compile(profile, (0, EV_ABS, ABS_MT_TRACKING_ID, 2**31))

    def test_coordinate_above_i32_rejected_on_any_screen(self):
        huge = DeviceProfile(name="wall", screen_width=2**40,
                             screen_height=2**40, fps=30)
        # One contact placed as it opens and released in the next window,
        # so only the coordinate is at fault.
        opened = ((0, EV_ABS, ABS_MT_TRACKING_ID, 1), (0, EV_KEY, BTN_TOUCH, 1))
        closed = ((0, EV_SYN, SYN_REPORT, 0),
                  (0, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE),
                  (0, EV_KEY, BTN_TOUCH, 0), (0, EV_SYN, SYN_REPORT, 0))
        y = (0, EV_ABS, ABS_MT_POSITION_Y, 0)
        self.compile(huge, *opened, (0, EV_ABS, ABS_MT_POSITION_X, 2**31 - 1), y, *closed)
        with pytest.raises(ScriptFormatError, match="^x=2147483648 off screen$"):
            self.compile(huge, *opened, (0, EV_ABS, ABS_MT_POSITION_X, 2**31), y, *closed)

    def test_window_of_equal_but_distinct_timestamps_accepted(self):
        # Each event's timestamp is its own int object, equal in value.
        t = [int("4000000000") for _ in range(6)]
        u = [int("4000033333") for _ in range(3)]
        assert t[0] is not t[1]
        window = [(t[0], EV_ABS, ABS_MT_SLOT, 0), (t[1], EV_ABS, ABS_MT_TRACKING_ID, 1),
                  (t[2], EV_KEY, BTN_TOUCH, 1), (t[3], EV_ABS, ABS_MT_POSITION_X, 5),
                  (t[4], EV_ABS, ABS_MT_POSITION_Y, 5), (t[5], EV_SYN, SYN_REPORT, 0)]
        closing = [(u[0], EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE),
                   (u[1], EV_KEY, BTN_TOUCH, 0), (u[2], EV_SYN, SYN_REPORT, 0)]
        validate_events(window + closing)
        window[3] = (int("4000000001"), *window[3][1:])
        with pytest.raises(ScriptFormatError, match="^window at 4000000000us holds "
                           "an event at 4000000001us$"):
            validate_events(window + closing)

    def test_edges_of_each_range_encode(self, profile):
        """Two steps of u32 microseconds, the last slot, the largest
        tracking id and the last pixel of each axis."""
        opened, released = 2**32 - 1, 2**33 - 2
        script = self.compile(
            profile,
            (opened, EV_ABS, ABS_MT_SLOT, MAX_SLOTS - 1),
            (opened, EV_ABS, ABS_MT_TRACKING_ID, 2**31 - 1),
            (opened, EV_KEY, BTN_TOUCH, 1),
            (opened, EV_ABS, ABS_MT_POSITION_X, 1079),
            (opened, EV_ABS, ABS_MT_POSITION_Y, 1919),
            (opened, EV_SYN, SYN_REPORT, 0),
            (released, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE),
            (released, EV_KEY, BTN_TOUCH, 0),
            (released, EV_SYN, SYN_REPORT, 0),
        )
        assert parse_runnable(translate_runnable(script)) == list(script.events)
        assert parse_script(serialize_script(script)) == script


class TestIdleGap:
    """A step longer than a runnable delta holds, before a cluster's
    first window, is split by empty reports every u32 microseconds."""

    U32 = 2**32 - 1

    def compile(self, profile, *starts):
        taps = [classify_action(make_sequence(start, 8, 300, 420), profile)
                for start in starts]
        return assemble_script(ClassifiedScenario(profile, taps))

    @pytest.mark.parametrize("starts, idle_from", [
        ((129_600,), 0),  # the one tap 72 minutes in
        ((10, 129_010), 600_000),  # after the first tap's release, frame 18
    ], ids=["late-first-tap", "taps-far-apart"])
    def test_long_idle_gap_compiles_and_round_trips(self, profile, starts, idle_from):
        script = self.compile(profile, *starts)
        stamps = [t for t, *_ in script.events]
        assert max(b - a for a, b in zip([0, *stamps], stamps)) <= self.U32
        assert [t for t, _ in opens(script.events)] == [
            frame_offset_us(start, profile.fps) for start in starts]
        # The one empty report: a SYN_REPORT that follows no other event
        # of its window.
        empty = [event for event, before in zip(script.events, [None, *script.events])
                 if event[1:] == (EV_SYN, SYN_REPORT, 0)
                 and (before is None or before[1:3] == (EV_SYN, SYN_REPORT))]
        assert empty == [(idle_from + self.U32, EV_SYN, SYN_REPORT, 0)]
        assert parse_runnable(translate_runnable(script)) == list(script.events)
        assert parse_script(serialize_script(script)) == script

    def test_gap_past_max_idle_reports_is_rejected(self, profile):
        with pytest.raises(ScriptFormatError, match="needs more than 1000 empty reports"):
            self.compile(profile, 10**300)


class TestDeviceNode:
    @pytest.mark.parametrize("node", ["", "/dev/a b", "/dev/é", "\t",
                                      "/dev/x\n", "/dev/\x1c"])
    def test_bad_node_rejected(self, profile, node):
        with pytest.raises(ScriptFormatError, match="device node"):
            assemble_script(ClassifiedScenario(profile, ()), device_node=node)

    def test_any_other_ascii_node_round_trips(self, profile):
        action = classify_action(make_sequence(0, 5, 100, 100), profile)
        scenario = ClassifiedScenario(profile, (action,))
        for node in ["/dev/input/event2", "x", "a:b", "[0.1]", "#", "/dev/\x00"]:
            script = assemble_script(scenario, device_node=node)
            assert parse_script(serialize_script(script)) == script


#: A log without its version line, which parses once that line heads it.
LOG_BODY = (
    b"# device_node: /dev/input/event2\n"
    b'# profile: {"fps": 30, "height": 1920, "name": "d", "touch_slop": 8, "width": 1080}\n'
    b"[0.000000] /dev/input/event2: 0000 0000 00000000\n"
)


class TestParseScriptErrors:
    @pytest.mark.parametrize("data", [
        b"# tracereplay-log 1\n# profile: {bad\n",
        b"\xff\n",
        "# tracereplay-log 1\n# profile: [1, 2\n",
        b"# tracereplay-log 2\n" + LOG_BODY,
        LOG_BODY,
        *(f"{LOG_HEADER}\n# profile: {doc}\n" for doc in UNDECODABLE_JSON.values()),
        f"{LOG_HEADER}\n[{'9' * 5000}.000000] /dev/x: 0000 0000 00000000\n",
        5,
        bytearray(LOG_HEADER.encode("ascii") + b"\n" + LOG_BODY),
    ], ids=["bad-profile-json", "not-ascii", "truncated-profile", "version-2-header",
            "no-header", *(f"{name}-profile" for name in UNDECODABLE_JSON),
            "timestamp-past-int-digit-limit", "int", "bytearray"])
    def test_typed_error(self, data):
        with pytest.raises(ScriptFormatError):
            parse_script(data)

    def test_log_body_parses_under_its_header(self):
        script = parse_script(b"\n# tracereplay-log 1\n" + LOG_BODY)
        assert script.events == ((0, 0, 0, 0),)

    def test_non_ascii_digit_in_str_log_rejected(self, profile):
        # A str regex reads any Unicode digit as a digit, and int() too.
        action = classify_action(make_sequence(0, 5, 100, 100), profile)
        scenario = ClassifiedScenario(profile, (action,))
        log = serialize_script(assemble_script(scenario)).decode("ascii")
        with pytest.raises(ScriptFormatError, match="not ASCII"):
            parse_script(log.replace("[0.", "[\u0660.", 1))
