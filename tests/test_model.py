import copy
import inspect
import json
import pickle

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from tracereplay.classify import (
    AtomicAction,
    ClassifiedScenario,
    MultiFingerItem,
)
from tracereplay.codegen import LOG_HEADER, frame_offset_us, parse_script
from tracereplay.errors import (
    BoundsViolation,
    MalformedJson,
    SchemaViolation,
    TraceReplayError,
)
from tracereplay.model import (
    HIGH,
    LOW,
    MAX_FPS,
    MIN_CONFIDENCE,
    MIN_FPS,
    DetectionTrace,
    DeviceProfile,
    Rules,
    TouchDetection,
    load_document,
    parse_trace,
    serialize_trace,
)
from tracereplay.segment import TouchSequence
from tracereplay.synth import (
    GroundTruthAction,
    GroundTruthScenario,
    NoiseModel,
    random_scenario,
    synthesize_trace,
)

from conftest import UNDECODABLE_JSON, make_sequence, make_touch, row


def trace_doc(detections, width=1080, height=1920, fps=30, frame_count=100):
    return {
        "schema_version": 1,
        "device": {"name": "nexus5", "width": width, "height": height, "fps": fps},
        "frame_count": frame_count,
        "detections": detections,
    }


def det(frame, confidence=0.9, bbox=(100, 100, 40, 40), opacity="high"):
    return {
        "frame": frame,
        "bbox": list(bbox),
        "confidence": confidence,
        "opacity": opacity,
    }


class TestDeviceProfile:
    def test_valid(self):
        p = DeviceProfile(name="d", screen_width=1080, screen_height=1920, fps=30)
        assert p.touch_slop == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"screen_width": 0},
            {"screen_height": -1},
            {"fps": 29},
            {"touch_slop": 0},
        ],
    )
    def test_invariants(self, kwargs):
        base = dict(name="d", screen_width=1080, screen_height=1920, fps=30)
        base.update(kwargs)
        with pytest.raises(SchemaViolation):
            DeviceProfile(**base)


class TestTouchDetection:
    def test_center_is_bbox_center(self):
        d = TouchDetection(frame=0, bbox=(10, 20, 40, 60), confidence=0.8,
                           opacity=HIGH)
        assert d.center == (30.0, 50.0)

    def test_confidence_range(self):
        with pytest.raises(SchemaViolation):
            TouchDetection(frame=0, bbox=(0, 0, 1, 1), confidence=1.3,
                           opacity=HIGH)

    def test_negative_frame(self):
        with pytest.raises(SchemaViolation):
            TouchDetection(frame=-1, bbox=(0, 0, 1, 1), confidence=0.5,
                           opacity=HIGH)


    @pytest.mark.parametrize("bbox", [
        (float("nan"), 0, 1, 1), (0, float("nan"), 1, 1), (0, 0, float("nan"), 1),
        (float("inf"), 0, 1, 1), (0, 0, 1, float("inf")), (10**400, 0, 1, 1),
    ], ids=["nan-x", "nan-y", "nan-w", "inf-x", "inf-h", "huge-int-x"])
    def test_non_finite_bbox_rejected(self, bbox):
        with pytest.raises(SchemaViolation):
            TouchDetection(frame=0, bbox=bbox, confidence=0.5, opacity=HIGH)

    @pytest.mark.parametrize("confidence", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "huge-int"])
    def test_non_finite_confidence_rejected(self, confidence):
        with pytest.raises(SchemaViolation):
            TouchDetection(frame=0, bbox=(0, 0, 1, 1), confidence=confidence,
                           opacity=HIGH)


class TestCachedCenter:
    """`center` is computed once when a detection is built, by every
    construction path, and is not part of the detection's identity."""

    @given(
        st.integers(0, 500), st.integers(0, 1000), st.integers(1, 80),
        st.integers(1, 80), st.floats(0, 1),
    )
    def test_every_construction_path_agrees(self, x, y, w, h, confidence):
        doc = {"frame": 3, "bbox": [x, y, w, h], "confidence": confidence,
               "opacity": "high"}
        floats = dict(doc, bbox=[float(v) for v in doc["bbox"]])
        fast = TouchDetection.from_dict(floats)  # all-float fast path
        checked = TouchDetection.from_dict(doc)  # integer coordinates
        built = TouchDetection(frame=3, bbox=(x, y, w, h), confidence=confidence,
                               opacity=HIGH)
        expected = (x + w / 2.0, y + h / 2.0)
        assert fast == checked == built
        assert fast.center == checked.center == built.center == expected
        assert all(type(v) is float for v in built.center)
        # classified.json, and the generator's placement of a tap there.
        profile = DeviceProfile(name="d", screen_width=1080, screen_height=1920,
                                fps=30)
        item = AtomicAction("tap", (built,))
        (loaded,) = ClassifiedScenario.from_json(
            ClassifiedScenario(profile=profile, items=(item,)).to_json()
        ).items
        (from_json,) = loaded.touches
        assert from_json == built and from_json.center == expected
        tap = GroundTruthAction(kind="tap", paths=(((3, *expected),),))
        trace, _ = synthesize_trace(GroundTruthScenario(profile, (tap,)))
        assert trace.detections
        for d in (fast, checked, built, from_json, *trace.detections):
            assert type(d) is TouchDetection
            bx, by, bw, bh = d.bbox
            assert d.center == (bx + bw / 2.0, by + bh / 2.0)

    def test_constructor_recomputes_center(self):
        d = make_touch(0, 100, 200)
        moved = TouchDetection(frame=d.frame, bbox=(0.0, 0.0, 10.0, 30.0),
                               confidence=d.confidence, opacity=d.opacity)
        assert moved.center == (5.0, 15.0)
        later = TouchDetection(frame=7, bbox=d.bbox, confidence=d.confidence,
                               opacity=d.opacity)
        assert later.center == d.center == (100.0, 200.0)
        with pytest.raises(TypeError):
            TouchDetection(frame=0, bbox=d.bbox, confidence=d.confidence,
                           opacity=d.opacity, center=(0.0, 0.0))

    def test_center_not_in_init_eq_hash_or_repr(self):
        d = make_touch(4, 100, 200)
        assert list(inspect.signature(TouchDetection).parameters) == [
            "frame", "bbox", "confidence", "opacity",
        ]
        fields = dict(frame=4, bbox=d.bbox, confidence=0.9, opacity=HIGH)
        with pytest.raises(TypeError):
            TouchDetection(**fields, center=d.center)
        assert repr(d) == (
            "TouchDetection(frame=4, bbox=(80.0, 180.0, 40.0, 40.0), "
            "confidence=0.9, opacity='high')"
        )
        # Equal, and hashed equal, exactly when the four fields are equal.
        for same in (TouchDetection(**fields), TouchDetection.from_dict(
                dict(fields, bbox=list(d.bbox), opacity="high"))):
            assert same == d and hash(same) == hash(d)
        for change in (dict(frame=5), dict(confidence=0.8),
                       dict(opacity=LOW),
                       dict(bbox=(79.0, 179.0, 42.0, 42.0))):  # the same center
            assert TouchDetection(**dict(fields, **change)) != d

    def test_namedtuple_helpers_check_and_derive_center(self):
        d = make_touch(4, 100, 200)
        moved = d._replace(bbox=(0.0, 0.0, 10.0, 30.0))
        assert type(moved) is TouchDetection
        assert moved.center == (5.0, 15.0)
        assert moved == TouchDetection(frame=4, bbox=(0.0, 0.0, 10.0, 30.0),
                                       confidence=0.9, opacity=HIGH)
        for bad in (dict(frame=-1), dict(confidence=1.5),
                    dict(bbox=(0.0, 0.0, 0.0, 30.0))):
            with pytest.raises(SchemaViolation):
                d._replace(**bad)
        with pytest.raises(TypeError):
            d._replace(center=(0.0, 0.0))
        assert TouchDetection._make((4, d.bbox, 0.9, HIGH)) == d
        with pytest.raises(SchemaViolation):
            TouchDetection._make((4, d.bbox, 1.5, HIGH))
        with pytest.raises(TypeError):  # no center to take over
            TouchDetection._make((4, (0.0, 0.0, 10.0, 30.0), 0.9, HIGH,
                                  d.center))
        for same in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert type(same) is TouchDetection and same == d


def test_records_reject_assignment(profile):
    d = make_touch(4, 100, 200)
    trace = DetectionTrace(profile=profile, detections=(d,), frame_count=10)
    sequence = make_sequence(4, 3, 100, 200)
    scenario = ClassifiedScenario(profile=profile, items=())
    for record, field in ((profile, "fps"), (d, "frame"), (d, "center"),
                          (trace, "detections"), (sequence, "high_touches"),
                          (scenario, "items"), (Rules(), "min_confidence")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is not None


class TestRules:
    def test_defaults_are_the_papers(self):
        rules = Rules()
        assert (rules.min_confidence, rules.duration_based_cutoff) == (MIN_CONFIDENCE, False)
        assert rules == Rules(0.7, False) and hash(rules) == hash(Rules(0.7))
        assert repr(Rules(0.5, True)) == (
            "Rules(min_confidence=0.5, duration_based_cutoff=True)")

    @pytest.mark.parametrize("flag", [0, 1, None, "yes"])
    def test_duration_based_cutoff_must_be_a_bool(self, flag):
        with pytest.raises(SchemaViolation) as caught:
            Rules(duration_based_cutoff=flag)
        assert str(caught.value) == f"duration_based_cutoff must be a bool, got {flag!r}"


class TestParseTrace:
    def test_three_detections_round_trip(self):
        doc = trace_doc([det(4), det(5), det(6)])
        trace = parse_trace(json.dumps(doc))
        assert len(trace) == 3
        assert [d.frame for d in trace.detections] == [4, 5, 6]

    def test_confidence_out_of_range_rejected(self):
        doc = trace_doc([det(4, confidence=1.3)])
        with pytest.raises(SchemaViolation):
            parse_trace(json.dumps(doc))

    def test_unsorted_input_is_sorted(self):
        doc = trace_doc([det(6), det(4), det(5)])
        trace = parse_trace(json.dumps(doc))
        assert [d.frame for d in trace.detections] == [4, 5, 6]

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    def test_non_finite_bbox_rejected(self, index, bad):
        bbox = ["100.0", "100.0", "40.0", "40.0"]
        bbox[index] = bad
        text = json.dumps(trace_doc([det(4)])).replace(
            "[100, 100, 40, 40]", "[" + ", ".join(bbox) + "]"
        )
        with pytest.raises(SchemaViolation):
            parse_trace(text)

    @pytest.mark.parametrize("bad", ["NaN", "1" + "0" * 400], ids=["nan", "huge-int"])
    def test_non_finite_confidence_rejected(self, bad):
        text = json.dumps(trace_doc([det(4)])).replace("0.9", bad)
        with pytest.raises(SchemaViolation):
            parse_trace(text)

    def test_schema_error_wins_over_earlier_off_screen_box(self):
        # Every detection's own fields are checked before placement.
        doc = trace_doc([det(4, bbox=(1070, 100, 40, 40)), det(5, confidence="0.9")])
        with pytest.raises(SchemaViolation):
            parse_trace(json.dumps(doc))

    def test_first_misplaced_detection_in_frame_order_decides(self):
        # Frame 7 lies past frame_count (SchemaViolation) but frame 5,
        # later in the document, is off-screen and comes first by frame.
        doc = trace_doc([det(7), det(5, bbox=(1070, 100, 40, 40))], frame_count=6)
        with pytest.raises(BoundsViolation):
            parse_trace(json.dumps(doc))

    def test_negative_frame_count_is_reported_before_a_bad_detection(self):
        # The constructor checks frame_count before it loads a detection.
        doc = trace_doc([det(4, opacity="medium")], frame_count=-1)
        with pytest.raises(SchemaViolation) as caught:
            parse_trace(json.dumps(doc))
        assert str(caught.value) == "field 'frame_count' must be in [0, 2**1000), got -1"

    def test_malformed_json(self):
        with pytest.raises(MalformedJson):
            parse_trace(b"{not json")

    @pytest.mark.parametrize("doc", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON)
    def test_undecodable_json(self, doc):
        for data in (doc, doc.encode("utf-8")):
            with pytest.raises(MalformedJson, match="^invalid JSON: "):
                load_document(data, 1, ())

    @pytest.mark.parametrize("read", [
        parse_trace, ClassifiedScenario.from_json, GroundTruthScenario.from_json,
    ], ids=["trace", "classified", "ground-truth"])
    @pytest.mark.parametrize("data", [5, None, [b"{}"]], ids=["int", "none", "list"])
    def test_reader_given_no_document(self, read, data):
        # Every JSON reader decodes through model.decode_json.
        with pytest.raises(MalformedJson, match="^invalid JSON: the JSON object must "
                           "be str, bytes or bytearray, not "):
            read(data)

    @pytest.mark.parametrize("document, version, expected", [
        ("trace", True, 1), ("trace", 1.0, 1),
        ("classified", True, 2), ("classified", 1.0, 2), ("classified", 2.0, 2),
        ("ground-truth", True, 1), ("ground-truth", 1.0, 1),
    ])
    def test_schema_version_must_be_an_int(self, document, version, expected):
        # `True == 1` and `1.0 == 1`, but only an int is a version. The
        # classified.json rows are v1's objects, which `True` once let in.
        touches = [det(f) for f in range(3)]
        read, doc = {
            "trace": (parse_trace, trace_doc(touches)),
            "classified": (ClassifiedScenario.from_json, {
                "device": trace_doc([])["device"],
                "items": [{"type": "sfa", "action": {"kind": "tap", "touches": touches}}],
            }),
            "ground-truth": (GroundTruthScenario.from_json, json.loads(
                GroundTruthScenario(GROUND_TRUTH_PROFILE, ()).to_json())),
        }[document]
        doc["schema_version"] = version
        with pytest.raises(SchemaViolation) as caught:
            read(json.dumps(doc))
        assert str(caught.value) == (
            f"unsupported schema_version {version!r}, expected {expected}")

    def test_bytearray_is_read_as_utf8(self):
        # json.loads alone would also detect UTF-16 and UTF-32 in a bytearray.
        data = json.dumps(trace_doc([det(4)])).encode("utf-16")
        with pytest.raises(MalformedJson, match="^invalid JSON: 'utf-8' codec"):
            parse_trace(bytearray(data))
        assert len(parse_trace(bytearray(data.decode("utf-16").encode()))) == 1

    def test_bbox_outside_screen(self):
        doc = trace_doc([det(4, bbox=(1070, 100, 40, 40))])
        with pytest.raises(BoundsViolation):
            parse_trace(json.dumps(doc))

    def test_frame_beyond_frame_count(self):
        doc = trace_doc([det(101)])
        with pytest.raises(SchemaViolation):
            parse_trace(json.dumps(doc))

    @pytest.mark.parametrize("key", ["schema_version", "device", "frame_count",
                                     "detections"])
    def test_missing_top_level_field(self, key):
        doc = trace_doc([det(4)])
        del doc[key]
        with pytest.raises(SchemaViolation):
            parse_trace(json.dumps(doc))

    @pytest.mark.parametrize("detection, message", [
        *[(dict.fromkeys(set(det(4)) - {key}, 0), f"detection missing field '{key}'")
          for key in ("frame", "bbox", "confidence", "opacity")],
        ({}, "detection missing field 'frame'"),
        ([4], "detection must be an object"), ("x", "detection must be an object"),
        (None, "detection must be an object"),
    ], ids=["no-frame", "no-bbox", "no-confidence", "no-opacity", "empty", "list",
            "string", "null"])
    def test_detection_shape_is_checked_first(self, detection, message):
        with pytest.raises(SchemaViolation) as caught:
            parse_trace(json.dumps(trace_doc([detection])))
        assert str(caught.value) == message

    def test_bad_opacity_value(self):
        doc = trace_doc([det(4, opacity="medium")])
        with pytest.raises(SchemaViolation):
            parse_trace(json.dumps(doc))

    def test_round_trip_identity(self, profile):
        trace = DetectionTrace(
            profile=profile,
            detections=(
                make_touch(3, 100, 200),
                make_touch(4, 101, 201, opacity=LOW, confidence=0.75),
            ),
            frame_count=10,
        )
        assert parse_trace(serialize_trace(trace)) == trace


def first_misplaced(detections, frame_count, width, height):
    """Brute-force oracle of the placement check: (error type, message)
    of the first misplaced detection by (frame, input index), its frame
    checked before its bbox and both before its being equal to an
    earlier detection; None when every detection is in place."""
    ordered = [d for _, d in sorted(enumerate(detections),
                                    key=lambda p: (p[1].frame, p[0]))]
    for i, d in enumerate(ordered):
        if d.frame >= frame_count:
            return SchemaViolation, (
                f"detection frame {d.frame} >= frame_count {frame_count}")
        x, y, w, h = d.bbox
        if x < 0 or y < 0 or x + w > width or y + h > height:
            return BoundsViolation, (
                f"bbox {d.bbox} outside {width}x{height} screen (frame {d.frame})")
        if any(d == earlier for earlier in ordered[:i]):
            return SchemaViolation, f"frame {d.frame} holds one detection twice"
    return None


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(-5, 190),
                          st.integers(-5, 290)), max_size=12),
       st.integers(0, 8))
@example([(5, 190, 10)], 3)  # past frame_count and off screen: the frame decides
@example([(4, 10, 10), (4, -1, 10), (4, 190, 10), (2, 10, 10)], 8)
# One box twice in frame 3, another box between the two copies.
@example([(3, 10, 10), (3, 50, 10), (2, 10, 10), (3, 10, 10)], 8)
def test_placement_check_matches_oracle(placements, frame_count):
    # Shuffled detections on a 200x300 screen, each 20x20 at (x, y).
    profile = DeviceProfile(name="d", screen_width=200, screen_height=300, fps=30)
    detections = [TouchDetection(frame, (float(x), float(y), 20.0, 20.0), 0.9,
                                 HIGH)
                  for frame, x, y in placements]
    want = first_misplaced(detections, frame_count, 200, 300)
    if want is None:
        trace = DetectionTrace(profile, detections, frame_count)
        # A stable sort: the very detection objects, ties in input order.
        expected = sorted(detections, key=lambda d: d.frame)
        assert len(trace.detections) == len(expected)
        assert all(a is b for a, b in zip(trace.detections, expected))
    else:
        with pytest.raises(want[0]) as caught:
            DetectionTrace(profile, detections, frame_count)
        assert type(caught.value) is want[0]
        assert str(caught.value) == want[1]


#: A valid value of each constructor argument of a one-detection trace.
VALID_ARGUMENTS = {
    "name": st.text(max_size=8), "width": st.integers(100, 3000),
    "height": st.integers(100, 3000), "fps": st.integers(30, 240),
    "touch_slop": st.integers(1, 20), "frame": st.integers(0, 50),
    "x": st.floats(0, 50), "y": st.floats(0, 50), "w": st.floats(1, 50),
    "h": st.floats(1, 50), "confidence": st.floats(0, 1),
    "opacity": st.sampled_from([HIGH, LOW]), "frame_count": st.integers(51, 100),
}
ANY_VALUE = st.one_of(st.integers(-3, 3000), st.booleans(), st.floats(),
                      st.text(max_size=4), st.sampled_from([HIGH, LOW]))
VALID = dict(name="d", width=1080, height=1920, fps=30, touch_slop=8, frame=3,
             x=100.0, y=100.0, w=40.0, h=40.0, confidence=0.9,
             opacity=HIGH, frame_count=10)
#: An int with more digits than `str` writes (or `repr`, so test ids
#: spell it out).
TOO_LONG = 10**5000


def case_id(change: dict) -> str:
    """`repr(change)`, with TOO_LONG as `10**5000`."""
    return "{%s}" % ", ".join(
        f"{key!r}: {'10**5000' if value is TOO_LONG else repr(value)}"
        for key, value in change.items()
    )


#: Arguments of the wrong type, from which `serialize_trace` would write
#: a trace that `parse_trace` rejects, and the error the constructor
#: raises for each: the JSON reader's message where it has one.
UNWRITABLE = [
    (dict(opacity="HIGH"), "opacity must be 'high' or 'low', got 'HIGH'"),
    (dict(frame=True), "field 'frame' must be an integer, got True"),
    (dict(frame=3.5), "field 'frame' must be an integer, got 3.5"),
    (dict(frame_count=2.5), "field 'frame_count' must be an integer, got 2.5"),
    (dict(frame_count=True), "field 'frame_count' must be an integer, got True"),
    (dict(name=5), "device name must be a string"),
    (dict(width=True), "field 'width' must be an integer, got True"),
    (dict(width=1080.5), "field 'width' must be an integer, got 1080.5"),
    (dict(fps=30.0), "field 'fps' must be an integer, got 30.0"),
    (dict(touch_slop=2.5), "field 'touch_slop' must be an integer, got 2.5"),
    (dict(frame=TOO_LONG), "field 'frame' must be in [0, 2**1000)"),
]


@st.composite
def replaced_arguments(draw, valid, any_value):
    """Arguments drawn from `valid`, a strategy per argument, with up to
    three replaced by a draw from `any_value`."""
    args = draw(st.fixed_dictionaries(valid))
    keys = draw(st.lists(st.sampled_from(list(valid)), max_size=3, unique=True))
    for key in keys:
        args[key] = draw(any_value)
    return args


def build_trace(args):
    profile = DeviceProfile(args["name"], args["width"], args["height"], args["fps"],
                            args["touch_slop"])
    bbox = (args["x"], args["y"], args["w"], args["h"])
    detection = TouchDetection(args["frame"], bbox, args["confidence"],
                               args["opacity"])
    return DetectionTrace(profile, (detection,), args["frame_count"])


def with_unwritable_examples(test):
    for change, _ in UNWRITABLE:
        test = example(dict(VALID, **change))(test)
    return test


#: A valid value of each argument of the ground-truth constructors: the
#: two points of a one-finger action, a noise model, a random scenario.
GROUND_TRUTH_ARGUMENTS = {
    "kind": st.sampled_from(["tap", "long_tap", "gesture"]),
    "frame": st.integers(0, 50), "x": st.floats(0, 1000), "y": st.floats(0, 1000),
    "last_frame": st.integers(51, 100), "last_x": st.floats(0, 1000),
    "last_y": st.floats(0, 1000), "position_jitter_sigma": st.floats(0, 8),
    "false_positive_rate": st.floats(0, 1), "dropout_rate": st.floats(0, 1),
    "rng_seed": st.integers(0, 2**40), "seed": st.integers(0, 2**40),
    "n_actions": st.none() | st.integers(0, 4),
}
VALID_GROUND_TRUTH = dict(kind="gesture", frame=3, x=100.0, y=100.0, last_frame=9,
                          last_x=300.0, last_y=100.0, position_jitter_sigma=2.0,
                          false_positive_rate=0.01, dropout_rate=0.01, rng_seed=1,
                          seed=2, n_actions=3)
#: Arguments the ground-truth constructors reject; before they were the
#: whole check, each was coerced, crashed or gave an empty scenario.
REJECTED_GROUND_TRUTH = [
    dict(kind=[]), dict(frame=1.9), dict(frame=True), dict(frame=0.0), dict(x="a"),
    dict(x=float("nan")), dict(x=float("inf")), dict(position_jitter_sigma="a"),
    dict(dropout_rate=None), dict(rng_seed=-1), dict(rng_seed=1.5), dict(seed=-1),
    dict(seed=1.5), dict(n_actions="3"), dict(n_actions=-3), dict(last_frame=TOO_LONG),
]
GROUND_TRUTH_ANY_VALUE = st.one_of(ANY_VALUE, st.none(),
                                   st.lists(st.integers(), max_size=3))
GROUND_TRUTH_PROFILE = DeviceProfile("d", 1080, 1920, 30)
#: The scenario each drawn noise model is synthesized over.
NOISY_SCENARIO = random_scenario(GROUND_TRUTH_PROFILE, seed=0, n_actions=3)


def action_scenario(args):
    path = ((args["frame"], args["x"], args["y"]),
            (args["last_frame"], args["last_x"], args["last_y"]))
    return GroundTruthScenario(GROUND_TRUTH_PROFILE,
                               (GroundTruthAction(args["kind"], (path,)),))


def drawn_scenario(args):
    return random_scenario(GROUND_TRUTH_PROFILE, args["seed"], args["n_actions"])


def noise_model(args):
    return NoiseModel(args["position_jitter_sigma"], args["false_positive_rate"],
                      args["dropout_rate"], args["rng_seed"])


def with_rejected_ground_truth_examples(test):
    for change in REJECTED_GROUND_TRUTH:
        test = example(dict(VALID_GROUND_TRUTH, **change))(test)
    # Two points further apart than a float's square can hold.
    return example(dict(VALID_GROUND_TRUTH, kind="tap", x=-1e200, last_x=1e200))(test)


_NO_ITEMS = "scenario items must be AtomicActions or MultiFingerItems"
_NO_TOUCHES = "touches must be an iterable of TouchDetection"
_TAP = AtomicAction("tap", make_sequence(0, 5, 100, 100).touches)
_OTHER_TAP = AtomicAction("tap", make_sequence(0, 5, 300, 100).touches)


def _scenario_of(item):
    return ClassifiedScenario(GROUND_TRUTH_PROFILE, (item,))


class TestConstructorIsTheCheck:
    """A trace or a scenario the constructors accept comes back unchanged
    through its JSON writer and reader."""

    @seed(20261019)
    @settings(max_examples=300, deadline=None)
    @given(replaced_arguments(VALID_ARGUMENTS, ANY_VALUE))
    @with_unwritable_examples
    def test_a_built_trace_is_rejected_or_round_trips(self, args):
        try:
            trace = build_trace(args)
        except (SchemaViolation, BoundsViolation):
            return
        assert parse_trace(serialize_trace(trace)) == trace

    @pytest.mark.parametrize("change, message", UNWRITABLE,
                             ids=[case_id(change) for change, _ in UNWRITABLE])
    def test_unwritable_argument_is_rejected_at_construction(self, change, message):
        build_trace(VALID)
        with pytest.raises(SchemaViolation) as caught:
            build_trace(dict(VALID, **change))
        assert str(caught.value) == message

    @seed(20261019)
    @settings(max_examples=300, deadline=None)
    @given(replaced_arguments(GROUND_TRUTH_ARGUMENTS, GROUND_TRUTH_ANY_VALUE))
    @with_rejected_ground_truth_examples
    def test_ground_truth_is_rejected_or_round_trips(self, args):
        for build in (action_scenario, drawn_scenario):
            try:
                scenario = build(args)
            except TraceReplayError:
                continue
            loaded = GroundTruthScenario.from_json(scenario.to_json())
            assert loaded == scenario
            assert (hash(loaded), repr(loaded)) == (hash(scenario), repr(scenario))
        try:
            noise = noise_model(args)
            trace, _ = synthesize_trace(NOISY_SCENARIO, noise)
        except TraceReplayError:
            return
        assert parse_trace(serialize_trace(trace)) == trace

    @pytest.mark.parametrize("change", REJECTED_GROUND_TRUTH, ids=case_id)
    def test_ground_truth_argument_is_rejected(self, change):
        # Each argument is read by one constructor, which must reject it.
        rejected = []
        for build in (action_scenario, drawn_scenario, noise_model):
            build(VALID_GROUND_TRUTH)
            try:
                build(dict(VALID_GROUND_TRUTH, **change))
            except TraceReplayError:
                rejected.append(build)
        assert len(rejected) == 1

    @pytest.mark.parametrize("build, message", [
        (lambda: GroundTruthAction("tap", 5), "paths must be lists of [frame, x, y] points"),
        (lambda: GroundTruthAction("tap", (5,)),
         "paths must be lists of [frame, x, y] points"),
        (lambda: GroundTruthAction("tap", None),
         "paths must be lists of [frame, x, y] points"),
        (lambda: GroundTruthScenario(GROUND_TRUTH_PROFILE, (1,)),
         "actions must be a list or tuple of GroundTruthAction"),
        (lambda: GroundTruthScenario(GROUND_TRUTH_PROFILE, 5),
         "actions must be a list or tuple of GroundTruthAction"),
        (lambda: GroundTruthScenario(None, ()), "profile must be a DeviceProfile"),
    ], ids=["paths-int", "path-int", "paths-none", "action-int", "actions-int",
            "profile-none"])
    def test_ground_truth_argument_of_wrong_shape(self, build, message):
        with pytest.raises(SchemaViolation) as caught:
            build()
        assert str(caught.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: DetectionTrace(None, (), 10), "profile must be a DeviceProfile"),
        (lambda: DetectionTrace(GROUND_TRUTH_PROFILE, 5, 10),
         "detections must be an iterable of TouchDetection"),
        (lambda: DetectionTrace(GROUND_TRUTH_PROFILE, (1,), 10),
         "detections must be an iterable of TouchDetection"),
        (lambda: ClassifiedScenario(None, ()), "profile must be a DeviceProfile"),
        (lambda: ClassifiedScenario(GROUND_TRUTH_PROFILE, 5), _NO_ITEMS),
        (lambda: ClassifiedScenario(GROUND_TRUTH_PROFILE, (1,)), _NO_ITEMS),
        (lambda: _scenario_of(AtomicAction("TAP", _TAP.touches)),
         "unknown action kind 'TAP'"),
        (lambda: _scenario_of(AtomicAction("tap", (make_touch(1, 9, 9),) * 2)),
         "sequence frames must strictly increase: [1, 1]"),
        (lambda: _scenario_of(AtomicAction("tap", (
            make_touch(0, 9, 9, opacity=LOW), make_touch(1, 9, 9)))),
         "high-opacity touch after a low-opacity one; fades must be a suffix"),
        (lambda: _scenario_of(AtomicAction("tap", ())),
         "touch sequence cannot be empty"),
        (lambda: _scenario_of(AtomicAction("tap", (1,))), _NO_TOUCHES),
        (lambda: _scenario_of(MultiFingerItem((1,), 1)),
         "mfa actions must be an iterable of AtomicAction"),
        (lambda: _scenario_of(MultiFingerItem((), 1)),
         "mfa item must have at least one action"),
        (lambda: _scenario_of(MultiFingerItem((_TAP,), 0)),
         "field 'finger_count' must be in [1, 2**1000), got 0"),
        (lambda: _scenario_of(MultiFingerItem((_TAP,), 1.0)),
         "field 'finger_count' must be an integer, got 1.0"),
        (lambda: _scenario_of(MultiFingerItem((_TAP, _OTHER_TAP), 3)),
         "finger_count 3 exceeds the item's 2 actions"),
        (lambda: _scenario_of(MultiFingerItem((_TAP, _TAP), 2)),
         "scenario actions must not share a detection"),
        (lambda: ClassifiedScenario(GROUND_TRUTH_PROFILE, (_TAP, _TAP)),
         "scenario actions must not share a detection"),
        (lambda: TouchSequence((1,)), _NO_TOUCHES),
        (lambda: TouchSequence(5), _NO_TOUCHES),
        (lambda: TouchSequence(None), _NO_TOUCHES),
    ], ids=["trace-profile-none", "detections-int", "detection-int",
            "scenario-profile-none", "items-int", "item-int", "action-kind-str",
            "action-frames-repeat", "action-high-after-low", "action-no-touches",
            "action-touch-int", "mfa-action-int", "mfa-no-action",
            "mfa-zero-fingers", "mfa-float-fingers", "mfa-more-fingers-than-actions",
            "mfa-action-twice", "sfa-action-twice", "sequence-touch-int", "sequence-int", "sequence-none"])
    def test_trace_and_scenario_argument_of_wrong_shape(self, build, message):
        with pytest.raises(SchemaViolation) as caught:
            build()
        assert str(caught.value) == message

    def test_mfa_actions_list_is_stored_as_a_tuple(self):
        item = MultiFingerItem([_TAP], 1)
        assert item.actions == (_TAP,) and type(item.actions) is tuple
        assert _scenario_of(item).items == (item,)

    def test_bbox_or_confidence_that_is_no_number(self):
        for change, message in (
            (dict(confidence="high"), "confidence must be a number"),
            (dict(x=LOW), "bbox must be a list of 4 numbers, got "
                          "('low', 100.0, 40.0, 40.0)"),
            (dict(w=""), "bbox must be a list of 4 numbers, got (100.0, 100.0, '', 40.0)"),
        ):
            with pytest.raises(SchemaViolation) as caught:
                build_trace(dict(VALID, **change))
            assert str(caught.value) == message

    @pytest.mark.parametrize("opacity", ["HIGH", "Low", "", None, 1, True, [HIGH]])
    def test_opacity_gives_the_readers_message(self, opacity):
        message = f"opacity must be 'high' or 'low', got {opacity!r}"
        with pytest.raises(SchemaViolation) as built:
            TouchDetection(0, (10.0, 10.0, 40.0, 40.0), 0.9, opacity)
        with pytest.raises(SchemaViolation) as read:
            TouchDetection.from_dict(det(0, opacity=opacity))
        assert str(built.value) == str(read.value) == message

    @pytest.mark.parametrize("kind", ["TAP", "longtap", "", None, 1, ["tap"]])
    def test_action_kind_gives_the_readers_message(self, kind):
        doc = json.loads(_scenario_of(_TAP).to_json())
        doc["items"][0]["kind"] = kind
        with pytest.raises(SchemaViolation) as built:
            AtomicAction(kind, _TAP.touches)
        with pytest.raises(SchemaViolation) as read:
            ClassifiedScenario.from_json(json.dumps(doc))
        assert str(built.value) == str(read.value) == f"unknown action kind {kind!r}"

    @pytest.mark.parametrize("word", [HIGH, LOW])
    def test_opacity_is_stored_as_the_constant(self, word):
        spelled = "".join([word[:2], word[2:]])  # equal, but another object
        assert spelled == word and spelled is not word
        # The constructor, and the reader's checked and fast paths.
        for detection in (TouchDetection(0, (10.0, 10.0, 40.0, 40.0), 0.9, spelled),
                          TouchDetection.from_dict(det(0, opacity=spelled)),
                          TouchDetection.from_dict(det(0, bbox=(10.0, 10.0, 40.0, 40.0),
                                                       opacity=spelled))):
            assert detection.opacity is word

    @pytest.mark.parametrize("fields, message", [
        ((("1", "2", "3", "4"), "0.9"),
         "bbox must be a list of 4 numbers, got ('1', '2', '3', '4')"),
        (((100.0, "100", 40.0, 40.0), 0.9),
         "bbox must be a list of 4 numbers, got (100.0, '100', 40.0, 40.0)"),
        (((100.0, 100.0, True, 40.0), 0.9),
         "bbox must be a list of 4 numbers, got (100.0, 100.0, True, 40.0)"),
        (((100.0, 100.0, 40.0, 40.0), "0.9"), "confidence must be a number"),
        (((100.0, 100.0, 40.0, 40.0), True), "confidence must be a number"),
        (((100.0, 100.0, 40.0), 0.9),
         "bbox must be a list of 4 numbers, got (100.0, 100.0, 40.0)"),
    ], ids=["all-str", "y-str", "w-bool", "confidence-str", "confidence-bool",
            "three-entries"])
    def test_detection_field_of_wrong_type_or_length(self, fields, message):
        # Numbers only: the constructor converts no string and no bool.
        bbox, confidence = fields
        with pytest.raises(SchemaViolation) as caught:
            TouchDetection(0, bbox, confidence, HIGH)
        assert str(caught.value) == message


#: Each integer field of a trace, by its JSON key, and the least value
#: it takes; every one lies below CEILING.
INTEGER_FIELDS = {"width": 1, "height": 1, "fps": 30, "touch_slop": 1, "frame": 0,
                  "frame_count": 0}
CEILING = 2**1000
#: Finite bboxes whose center overflows: the first takes the checked
#: path of `from_dict`, the second its fast path (its entries sum finite).
CENTER_OVERFLOWS = [(1.7e308, 100.0, 1.7e308, 40.0), (1.7e308, -1e308, 1e308, 40.0)]


def trace_json(args) -> str:
    """The trace document of `build_trace(args)`."""
    return json.dumps({
        "schema_version": 1,
        "device": {"name": args["name"], "width": args["width"],
                   "height": args["height"], "fps": args["fps"],
                   "touch_slop": args["touch_slop"]},
        "frame_count": args["frame_count"],
        "detections": [{"frame": args["frame"],
                        "bbox": [args["x"], args["y"], args["w"], args["h"]],
                        "confidence": args["confidence"],
                        "opacity": args["opacity"]}],
    })


def classified_json(touch, finger_count=2) -> str:
    """A classified.json document of one MFA item: two actions, each
    `touch`, a trace detection object, as its one row."""
    action = {"kind": "tap", "touches": [row(touch)]}
    return json.dumps({
        "schema_version": 2,
        "device": {"name": "d", "width": 1080, "height": 1920, "fps": 30},
        "items": [{"type": "mfa", "finger_count": finger_count,
                   "actions": [action, action]}],
    })


class TestIntegerCeiling:
    """Every integer field is checked once, to lie in [least, 2**1000),
    and fps at most MAX_FPS; below the ceiling `str` writes it and the
    floats derived from it stay finite. A detection's center must be finite too."""

    @pytest.mark.parametrize("key", INTEGER_FIELDS)
    def test_just_under_the_ceiling_round_trips(self, key):
        args = dict(VALID, frame_count=CEILING - 1)
        # The frame lies below frame_count, and fps at most at the grid's
        # bound (see `test_fps_past_the_grid_is_rejected`).
        args[key] = {"frame": CEILING - 2, "fps": MAX_FPS}.get(key, CEILING - 1)
        trace = build_trace(args)
        assert parse_trace(serialize_trace(trace)) == trace
        assert parse_trace(trace_json(args)) == trace

    @pytest.mark.parametrize("key", INTEGER_FIELDS)
    @pytest.mark.parametrize("value", [CEILING, 10**5000, -1, -(10**5000)],
                             ids=["2**1000", "10**5000", "-1", "-10**5000"])
    def test_out_of_range_is_rejected_naming_the_field(self, key, value):
        message = f"field '{key}' must be in [{INTEGER_FIELDS[key]}, 2**1000)"
        if -CEILING < value < CEILING:  # a value `str` may refuse goes unnamed
            message += f", got {value}"
        args = dict(VALID, **{key: value})
        for load in (build_trace, lambda args: parse_trace(trace_json(args))):
            if load is not build_trace and abs(value) > CEILING:
                continue  # past the decoder's digit limit: no JSON to read
            with pytest.raises(SchemaViolation) as caught:
                load(args)
            assert str(caught.value) == message

    def test_fps_past_the_grid_is_rejected(self):
        """Above MAX_FPS two frames could share a microsecond of the script
        grid: the device of every document refuses it, naming the bound."""
        device = {"name": "d", "width": 1080, "height": 1920, "fps": MAX_FPS + 1}
        readers = {
            parse_trace: {"schema_version": 1, "device": device, "frame_count": 1,
                          "detections": []},
            ClassifiedScenario.from_json: {"schema_version": 2, "device": device,
                                           "items": []},
            GroundTruthScenario.from_json: {"schema_version": 1, "device": device,
                                            "actions": []},
        }
        loads = [(read, json.dumps(doc)) for read, doc in readers.items()]
        loads.append((parse_script, f"{LOG_HEADER}\n# device_node: /dev/input/event2\n"
                                    f"# profile: {json.dumps(device)}\n"))
        loads.append((build_trace, dict(VALID, fps=MAX_FPS + 1)))
        for read, data in loads:
            with pytest.raises(SchemaViolation) as caught:
                read(data)
            assert str(caught.value) == "field 'fps' must be at most 1000000, got 1000001"

    def test_finger_count(self):
        touch = {"frame": 0, "bbox": [10.0, 10.0, 40.0, 40.0], "confidence": 0.9,
                 "opacity": "high"}
        # Below the ceiling, the count is checked against the item's actions.
        with pytest.raises(SchemaViolation) as caught:
            ClassifiedScenario.from_json(classified_json(touch, CEILING - 1))
        assert str(caught.value) == (
            f"finger_count {CEILING - 1} exceeds the item's 2 actions")
        for value, got in ((CEILING, ""), (0, ", got 0"), (-1, ", got -1")):
            with pytest.raises(SchemaViolation) as caught:
                ClassifiedScenario.from_json(classified_json(touch, value))
            assert str(caught.value) == (
                f"field 'finger_count' must be in [1, 2**1000){got}")

    @pytest.mark.parametrize("bbox", CENTER_OVERFLOWS, ids=["checked", "fast"])
    def test_center_must_be_finite(self, bbox):
        message = "bbox center must be finite"
        with pytest.raises(SchemaViolation, match=message):
            TouchDetection(0, bbox, 0.9, HIGH)
        # All floats try the fast path first; an int entry takes the checked one.
        for entries in (list(bbox), [int(v) if v == 40.0 else v for v in bbox]):
            touch = {"frame": 0, "bbox": entries, "confidence": 0.9, "opacity": "high"}
            for load in (TouchDetection.from_dict,
                         lambda t: parse_trace(json.dumps(trace_doc([t]))),
                         lambda t: ClassifiedScenario.from_json(classified_json(t))):
                with pytest.raises(SchemaViolation, match=message):
                    load(touch)


class TestFrameTime:
    """Every script timestamp comes from this one microsecond grid."""

    def test_one_frame_at_30fps_is_33ms(self):
        assert frame_offset_us(1, 30) == 33_333

    def test_origin(self):
        assert frame_offset_us(0, 30) == 0

    def test_one_second(self):
        assert frame_offset_us(60, 60) == 1_000_000

    # Every rate a profile takes, up to MAX_FPS, keeps frames apart; at
    # 2,000,000 fps frames 0-9 would share 5 timestamps.
    @given(st.integers(min_value=0, max_value=10**6),
           st.one_of(st.integers(min_value=30, max_value=240),
                     st.integers(min_value=MIN_FPS, max_value=MAX_FPS)))
    @example(10**6, MAX_FPS)
    def test_strictly_monotonic(self, frame, fps):
        assert frame_offset_us(frame + 1, fps) > frame_offset_us(frame, fps)
