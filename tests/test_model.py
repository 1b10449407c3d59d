import inspect
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracereplay.classify import ClassifiedScenario
from tracereplay.codegen import frame_offset_us
from tracereplay.errors import BoundsViolation, MalformedJson, SchemaViolation
from tracereplay.model import (
    DetectionTrace,
    DeviceProfile,
    Opacity,
    TouchDetection,
    parse_trace,
    serialize_trace,
)

from conftest import make_sequence, make_touch


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
                           opacity=Opacity.HIGH)
        assert d.center == (30.0, 50.0)

    def test_confidence_range(self):
        with pytest.raises(SchemaViolation):
            TouchDetection(frame=0, bbox=(0, 0, 1, 1), confidence=1.3,
                           opacity=Opacity.HIGH)

    def test_negative_frame(self):
        with pytest.raises(SchemaViolation):
            TouchDetection(frame=-1, bbox=(0, 0, 1, 1), confidence=0.5,
                           opacity=Opacity.HIGH)


    @pytest.mark.parametrize("bbox", [
        (float("nan"), 0, 1, 1), (0, float("nan"), 1, 1), (0, 0, float("nan"), 1),
        (float("inf"), 0, 1, 1), (0, 0, 1, float("inf")), (10**400, 0, 1, 1),
    ], ids=["nan-x", "nan-y", "nan-w", "inf-x", "inf-h", "huge-int-x"])
    def test_non_finite_bbox_rejected(self, bbox):
        with pytest.raises(SchemaViolation):
            TouchDetection(frame=0, bbox=bbox, confidence=0.5, opacity=Opacity.HIGH)

    @pytest.mark.parametrize("confidence", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "huge-int"])
    def test_non_finite_confidence_rejected(self, confidence):
        with pytest.raises(SchemaViolation):
            TouchDetection(frame=0, bbox=(0, 0, 1, 1), confidence=confidence,
                           opacity=Opacity.HIGH)


class TestCachedCenter:
    """`center` is computed once when a detection is built, by every
    construction path, and is not part of the detection's identity."""

    @given(
        st.integers(0, 500), st.integers(0, 1000), st.integers(1, 80),
        st.integers(1, 80), st.floats(0, 1),
    )
    def test_every_construction_path_agrees(self, x, y, w, h, confidence):
        doc = {"frame": 3, "bbox": [x, y, w, h], "confidence": confidence,
               "opacity": "low"}
        floats = dict(doc, bbox=[float(v) for v in doc["bbox"]])
        fast = TouchDetection.from_dict(floats)  # all-float fast path
        checked = TouchDetection.from_dict(doc)  # integer coordinates
        built = TouchDetection(frame=3, bbox=(x, y, w, h), confidence=confidence,
                               opacity=Opacity.LOW)
        expected = (x + w / 2.0, y + h / 2.0)
        assert fast == checked == built
        assert fast.center == checked.center == built.center == expected
        assert all(type(v) is float for v in built.center)

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
        assert repr(d) == (
            "TouchDetection(frame=4, bbox=(80.0, 180.0, 40.0, 40.0), "
            "confidence=0.9, opacity=<Opacity.HIGH: 'high'>)"
        )
        other = make_touch(4, 100, 200)
        object.__setattr__(other, "center", (0.0, 0.0))
        assert other == d
        assert hash(other) == hash(d) == hash((4, d.bbox, 0.9, Opacity.HIGH))


def test_records_reject_assignment(profile):
    d = make_touch(4, 100, 200)
    trace = DetectionTrace(profile=profile, detections=(d,), frame_count=10)
    sequence = make_sequence(4, 3, 100, 200)
    scenario = ClassifiedScenario(profile=profile, items=())
    for record, field in ((profile, "fps"), (d, "frame"), (d, "center"),
                          (trace, "detections"), (sequence, "high_touches"),
                          (scenario, "items")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is not None


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

    def test_malformed_json(self):
        with pytest.raises(MalformedJson):
            parse_trace(b"{not json")

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

    def test_bad_opacity_value(self):
        doc = trace_doc([det(4, opacity="medium")])
        with pytest.raises(SchemaViolation):
            parse_trace(json.dumps(doc))

    def test_round_trip_identity(self, profile):
        trace = DetectionTrace(
            profile=profile,
            detections=(
                make_touch(3, 100, 200),
                make_touch(4, 101, 201, opacity=Opacity.LOW, confidence=0.75),
            ),
            frame_count=10,
        )
        assert parse_trace(serialize_trace(trace)) == trace


class TestFrameTime:
    """Every script timestamp comes from this one microsecond grid."""

    def test_one_frame_at_30fps_is_33ms(self):
        assert frame_offset_us(1, 30) == 33_333

    def test_origin(self):
        assert frame_offset_us(0, 30) == 0

    def test_one_second(self):
        assert frame_offset_us(60, 60) == 1_000_000

    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=30, max_value=240))
    def test_strictly_monotonic(self, frame, fps):
        assert frame_offset_us(frame + 1, fps) > frame_offset_us(frame, fps)
