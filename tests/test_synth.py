import json
import math
import time

import pytest

from tracereplay.errors import InvalidScenario, SchemaViolation
from tracereplay.model import HIGH, LOW
from tracereplay.synth import (
    GroundTruthAction,
    GroundTruthScenario,
    NoiseModel,
    noise_preset,
    random_scenario,
    synthesize_trace,
)


def tap_action(start, frames, x, y):
    path = tuple((start + k, float(x), float(y)) for k in range(frames))
    return GroundTruthAction(kind="tap", paths=(path,))


def pinch_action(start, frames, cx, cy, r0=100.0, r1=180.0):
    paths = []
    for sign in (1.0, -1.0):
        path = tuple(
            (start + k, cx + sign * (r0 + (r1 - r0) * k / (frames - 1)), cy)
            for k in range(frames)
        )
        paths.append(path)
    return GroundTruthAction(kind="gesture", paths=tuple(paths))


class TestScenarioModel:
    def test_path_frames_must_increase(self):
        with pytest.raises(InvalidScenario):
            GroundTruthAction(kind="tap", paths=(((5, 1.0, 1.0), (5, 1.0, 1.0)),))

    def test_tap_confined_to_slop(self, profile):
        path = ((0, 100.0, 100.0), (1, 100.0, 100.0), (2, 130.0, 100.0))
        with pytest.raises(InvalidScenario):
            GroundTruthScenario(
                profile=profile,
                actions=(GroundTruthAction(kind="tap", paths=(path,)),),
            )

    def test_actions_ordered_by_start(self, profile):
        with pytest.raises(InvalidScenario):
            GroundTruthScenario(
                profile=profile,
                actions=(tap_action(50, 5, 100, 100), tap_action(10, 5, 200, 200)),
            )

    def test_symbols(self, profile):
        scenario = GroundTruthScenario(
            profile=profile,
            actions=(tap_action(0, 8, 100, 100), pinch_action(30, 12, 500, 800)),
        )
        assert scenario.symbols == ("T", "G2")

    def test_json_round_trip(self, profile):
        scenario = GroundTruthScenario(
            profile=profile,
            actions=(tap_action(0, 8, 100, 100), pinch_action(30, 12, 500, 800)),
        )
        assert GroundTruthScenario.from_json(scenario.to_json()) == scenario

    def test_records_keep_eq_hash_and_repr(self, profile):
        # What the frozen dataclasses these records were gave.
        tap = GroundTruthAction("tap", (((0, 1, 2),),))
        assert repr(tap) == "GroundTruthAction(kind='tap', paths=(((0, 1.0, 2.0),),))"
        assert tap == GroundTruthAction(kind="tap", paths=[[(0, 1, 2.0)]])
        with pytest.raises(SchemaViolation):  # a frame is an int, never coerced
            GroundTruthAction(kind="tap", paths=[[(0.0, 1, 2.0)]])
        assert hash(tap) == hash(("tap", (((0, 1.0, 2.0),),)))
        assert tap != GroundTruthAction("long_tap", tap.paths)
        assert tap != ("tap", tap.paths)
        scenario = GroundTruthScenario(profile, [tap])
        assert repr(scenario) == (
            "GroundTruthScenario(profile=DeviceProfile(name='nexus5', "
            "screen_width=1080, screen_height=1920, fps=30, touch_slop=8), "
            f"actions=({tap!r},))"
        )
        assert hash(scenario) == hash((profile, (tap,)))
        assert scenario == GroundTruthScenario(profile=profile, actions=(tap,))
        assert scenario != GroundTruthScenario(profile, ())
        for record, field in ((tap, "kind"), (scenario, "actions")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        for seed in range(5):
            scenario = random_scenario(profile, seed=seed)
            loaded = GroundTruthScenario.from_json(scenario.to_json())
            assert loaded == scenario and hash(loaded) == hash(scenario)
            assert repr(loaded) == repr(scenario)


class TestNoiseModel:
    def test_rates_validated(self):
        with pytest.raises(SchemaViolation):
            NoiseModel(false_positive_rate=1.5)

    def test_keeps_eq_hash_and_repr(self):
        noise = noise_preset("emulator", seed=5)
        assert repr(noise) == ("NoiseModel(position_jitter_sigma=4.0, "
                               "false_positive_rate=0.01, dropout_rate=0.03, rng_seed=5)")
        assert noise == NoiseModel(4.0, 0.01, 0.03, 5)
        assert hash(noise) == hash((4.0, 0.01, 0.03, 5))
        assert noise != NoiseModel(4.0, 0.01, 0.03, 6)
        assert NoiseModel() == noise_preset("clean") == NoiseModel(rng_seed=0)
        with pytest.raises(AttributeError):
            noise.rng_seed = 6

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "1", None])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(SchemaViolation, match="^field 'seed' must be "):
            NoiseModel(rng_seed=seed)
        with pytest.raises(SchemaViolation, match="^field 'seed' must be "):
            noise_preset("emulator", seed=seed)

    def test_unknown_preset(self):
        with pytest.raises(SchemaViolation):
            noise_preset("pristine")


CEILING = 2**1000


class TestIntegerCeiling:
    """Path frames, seeds and action counts are checked like every other
    integer field: each lies in [0, 2**1000)."""

    def test_path_frame_just_under_the_ceiling_round_trips(self, profile):
        scenario = GroundTruthScenario(profile, (tap_action(CEILING - 2, 2, 100, 100),))
        assert scenario.actions[0].end_frame == CEILING - 1
        loaded = GroundTruthScenario.from_json(scenario.to_json())
        assert loaded == scenario

    @pytest.mark.parametrize("frame, got", [(CEILING, ""), (-1, ", got -1")],
                             ids=["2**1000", "-1"])
    def test_path_frame_out_of_range(self, profile, frame, got):
        message = f"field 'frame' must be in [0, 2**1000){got}"
        with pytest.raises(SchemaViolation) as caught:
            GroundTruthAction(kind="tap", paths=(((frame, 1.0, 2.0),),))
        assert str(caught.value) == message
        doc = json.dumps({"schema_version": 1, "device": profile.to_dict(),
                          "actions": [{"kind": "tap", "paths": [[[frame, 1.0, 2.0]]]}]})
        with pytest.raises(SchemaViolation) as caught:
            GroundTruthScenario.from_json(doc)
        assert str(caught.value) == message

    def test_seeds_just_under_the_ceiling(self, profile):
        noise = NoiseModel(dropout_rate=0.1, rng_seed=CEILING - 1)
        assert noise_preset("emulator", seed=CEILING - 1).rng_seed == CEILING - 1
        scenario = random_scenario(profile, seed=CEILING - 1, n_actions=2)
        assert len(scenario.actions) == 2
        trace, _ = synthesize_trace(scenario, noise)
        assert trace == synthesize_trace(scenario, noise)[0]

    @pytest.mark.parametrize("value, got", [(CEILING, ""), (-1, ", got -1")],
                             ids=["2**1000", "-1"])
    def test_seeds_and_action_count_out_of_range(self, profile, value, got):
        for key, build in (
            ("seed", lambda: NoiseModel(rng_seed=value)),
            ("seed", lambda: noise_preset("clean", seed=value)),
            ("seed", lambda: random_scenario(profile, seed=value)),
            ("n_actions", lambda: random_scenario(profile, seed=1, n_actions=value)),
        ):
            with pytest.raises(SchemaViolation) as caught:
                build()
            assert str(caught.value) == f"field '{key}' must be in [0, 2**1000){got}"


class TestSynthesize:
    def test_single_tap_zero_noise(self, profile):
        # 10-frame tap at (100, 200) plus a 3-frame low-opacity tail at
        # the lift position.
        scenario = GroundTruthScenario(
            profile=profile, actions=(tap_action(5, 10, 100, 200),)
        )
        trace, symbols = synthesize_trace(scenario, NoiseModel())
        assert symbols == ("T",)
        highs = [d for d in trace.detections if d.opacity is HIGH]
        lows = [d for d in trace.detections if d.opacity is LOW]
        assert [d.frame for d in highs] == list(range(5, 15))
        assert [d.frame for d in lows] == [15, 16, 17]
        assert all(d.center == (100.0, 200.0) for d in trace.detections)

    def test_empty_scenario_no_noise(self, profile):
        scenario = GroundTruthScenario(profile=profile, actions=())
        trace, symbols = synthesize_trace(scenario, NoiseModel())
        assert len(trace) == 0
        assert symbols == ()

    def test_pinch_has_two_highs_per_frame(self, profile):
        scenario = GroundTruthScenario(
            profile=profile, actions=(pinch_action(0, 20, 500, 900),)
        )
        trace, _ = synthesize_trace(scenario, NoiseModel())
        per_frame = {}
        for d in trace.detections:
            if d.opacity is HIGH:
                per_frame[d.frame] = per_frame.get(d.frame, 0) + 1
        assert per_frame == {f: 2 for f in range(20)}

    def test_deterministic(self, profile):
        scenario = random_scenario(profile, seed=42)
        noise = noise_preset("emulator", seed=99)
        first, _ = synthesize_trace(scenario, noise)
        second, _ = synthesize_trace(scenario, noise)
        assert first == second

    def test_zero_noise_faithful(self, profile):
        scenario = random_scenario(profile, seed=3)
        trace, _ = synthesize_trace(scenario, NoiseModel())
        truth_points = {
            (f, x, y)
            for action in scenario.actions
            for path in action.paths
            for f, x, y in path
        }
        for d in trace.detections:
            if d.opacity is HIGH:
                f, (x, y) = d.frame, d.center
                assert (f, x, y) in truth_points

    def test_false_positive_count_within_binomial_bounds(self, profile):
        # One Bernoulli injection per frame of the trace's span, which one
        # tap ending at frame 19,996 stretches to 20,000 frames (its fade
        # included). Each false positive has its own position; the tap's
        # detections, all at (300, 300), are left out of the count.
        frames = 20000
        rate = 0.01
        scenario = GroundTruthScenario(
            profile=profile, actions=(tap_action(19_990, 7, 300, 300),)
        )
        trace, _ = synthesize_trace(
            scenario, NoiseModel(false_positive_rate=rate, rng_seed=11)
        )
        assert trace.frame_count == frames
        contacts = {d.center for d in trace.detections} - {(300.0, 300.0)}
        mean = frames * rate
        bound = 3 * math.sqrt(frames * rate * (1 - rate))
        assert abs(len(contacts) - mean) <= bound

    def test_false_positive_gaps_keep_the_per_frame_rate(self, profile):
        # The draw skips the frames between two false positives at once;
        # their count over 100,000 frames must still be Binomial(n, rate).
        frames, rate = 100_000, 0.01
        scenario = GroundTruthScenario(
            profile=profile, actions=(tap_action(frames - 4, 1, 300, 300),)
        )
        trace, _ = synthesize_trace(
            scenario, NoiseModel(false_positive_rate=rate, rng_seed=5)
        )
        assert trace.frame_count == frames
        onsets = len({d.center for d in trace.detections} - {(300.0, 300.0)})
        assert abs(onsets - frames * rate) <= 5 * math.sqrt(frames * rate * (1 - rate))

    def test_rate_one_starts_a_false_positive_on_every_frame(self, profile):
        # A tap at frame 96 and its fade span frames 0-99.
        scenario = GroundTruthScenario(profile=profile, actions=(tap_action(96, 1, 300, 300),))
        trace, _ = synthesize_trace(scenario, NoiseModel(false_positive_rate=1))
        onsets = {d.center for d in trace.detections} - {(300.0, 300.0)}
        assert len(onsets) == 100

    def test_far_tap_costs_no_time_per_frame(self, profile):
        # Without false positives nothing is drawn per frame of the span.
        scenario = GroundTruthScenario(
            profile=profile, actions=(tap_action(10**9, 1, 300, 300),)
        )
        start = time.perf_counter()
        trace, _ = synthesize_trace(scenario, noise_preset("clean"))
        assert time.perf_counter() - start < 1.0
        assert (len(trace), trace.frame_count) == (4, 10**9 + 4)

    def test_dropout_removes_detections(self, profile):
        scenario = GroundTruthScenario(
            profile=profile, actions=(tap_action(0, 100, 300, 300),)
        )
        full, _ = synthesize_trace(scenario, NoiseModel(rng_seed=1))
        thinned, _ = synthesize_trace(
            scenario, NoiseModel(dropout_rate=0.3, rng_seed=1)
        )
        assert len(thinned) < len(full)


class TestRandomScenario:
    def test_valid_and_deterministic(self, profile):
        a = random_scenario(profile, seed=17)
        b = random_scenario(profile, seed=17)
        assert a == b
        assert 5 <= len(a.actions) <= 25

    def test_respects_action_count(self, profile):
        assert len(random_scenario(profile, seed=5, n_actions=12).actions) == 12

    def test_gaps_exceed_fade_tail(self, profile):
        scenario = random_scenario(profile, seed=23)
        for prev, nxt in zip(scenario.actions, scenario.actions[1:]):
            assert nxt.start_frame - prev.end_frame > 4
