"""Properties of the trace loader and the document writers.

The trace writer must lay a trace out byte for byte as
`json.dumps(doc, indent=2)` does; the reference trace below is built
the way the encoder was fed before the schema-specific writers. The
classified.json writer must write the reference document's JSON value,
each touch row `json.dumps` would write on a line of its own.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereplay.classify import (
    AtomicAction,
    ClassifiedScenario,
    MultiFingerItem,
)
from tracereplay.errors import BoundsViolation, SchemaViolation
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

from conftest import distinct_detections

WIDTH, HEIGHT = 1080, 1920

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
#: A bbox the detection constructor accepts: its center is finite too.
bboxes = st.tuples(finite, finite, positive, positive).filter(
    lambda b: math.isfinite(b[0] + b[2] / 2.0) and math.isfinite(b[1] + b[3] / 2.0)
)
unit = st.floats(min_value=0.0, max_value=1.0)

profiles = st.builds(
    DeviceProfile,
    name=st.text(),
    screen_width=st.integers(1, 5000),
    screen_height=st.integers(1, 5000),
    fps=st.integers(30, 240),
    touch_slop=st.integers(1, 50),
)


def _touch_doc(t):
    return {
        "frame": t.frame,
        "bbox": list(t.bbox),
        "confidence": t.confidence,
        "opacity": t.opacity,
    }


def _touch_row(t):
    return [t.frame, *t.bbox, t.confidence, t.opacity]


def _action_doc(a):
    return {"kind": a.kind, "touches": [_touch_row(t) for t in a.touches]}


def reference_classified(scenario):
    """The classified.json document of `scenario`, as a JSON value."""
    items = []
    for item in scenario.items:
        if isinstance(item, AtomicAction):
            items.append({"type": "sfa", **_action_doc(item)})
        else:
            items.append({
                "type": "mfa",
                "finger_count": item.finger_count,
                "actions": [_action_doc(a) for a in item.actions],
            })
    return {"schema_version": 2, "device": scenario.profile.to_dict(), "items": items}


def assert_writes_reference_classified(scenario):
    """`to_json` writes the reference value, and each touch row as
    `json.dumps` writes it, on a line of its own, in order."""
    text = scenario.to_json().decode("utf-8")
    assert json.loads(text) == reference_classified(scenario)
    rows = [json.dumps(_touch_row(t)) for item in scenario.items
            for action in getattr(item, "actions", (item,)) for t in action.touches]
    # A row line opens with `[` and a digit: no other line of the document does.
    lines = [line.lstrip() for line in text.splitlines()]
    lines = [line for line in lines if line[:1] == "[" and line[1:2].isdigit()]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert line.startswith(row) and not line[len(row):].strip(",]}"), line


def reference_trace(trace):
    doc = {
        "schema_version": 1,
        "device": trace.profile.to_dict(),
        "frame_count": trace.frame_count,
        "detections": [_touch_doc(d) for d in trace.detections],
    }
    return json.dumps(doc, indent=2).encode("utf-8")


@st.composite
def actions(draw):
    start = draw(st.integers(0, 10_000))
    highs = draw(st.integers(1, 6))
    fades = draw(st.integers(0, 3))
    touches = tuple(
        TouchDetection(
            frame=start + k,
            bbox=draw(bboxes),
            confidence=draw(unit),
            opacity=HIGH if k < highs else LOW,
        )
        for k in range(highs + fades)
    )
    kind = draw(st.sampled_from(list(KIND_SYMBOLS)))
    return AtomicAction(kind=kind, touches=touches)


@st.composite
def multi_finger_items(draw):
    # Fingers start at distinct detections; at most one finger per action.
    fingers = tuple(draw(st.lists(actions(), min_size=1, max_size=3,
                                  unique_by=lambda a: a.touches[0])))
    return MultiFingerItem(fingers, draw(st.integers(1, len(fingers))))


items = st.one_of(actions(), multi_finger_items())


@st.composite
def scenarios(draw):
    drawn = distinct_detections(draw(st.lists(items, max_size=5)))
    drawn.sort(key=lambda item: item.start_frame)
    return ClassifiedScenario(profile=draw(profiles), items=tuple(drawn))


@st.composite
def traces(draw):
    frame_count = draw(st.integers(1, 500))
    detections = []
    for _ in range(draw(st.integers(0, 12))):
        w = draw(st.floats(min_value=1e-3, max_value=200.0))
        h = draw(st.floats(min_value=1e-3, max_value=200.0))
        detections.append(TouchDetection(
            frame=draw(st.integers(0, frame_count - 1)),
            bbox=(draw(st.floats(0.0, WIDTH - w)), draw(st.floats(0.0, HEIGHT - h)), w, h),
            confidence=draw(unit),
            opacity=draw(st.sampled_from([HIGH, LOW])),
        ))
    profile = DeviceProfile(name=draw(st.text()), screen_width=WIDTH,
                            screen_height=HEIGHT, fps=30)
    # A trace holds no detection twice.
    return DetectionTrace(profile=profile, detections=tuple(dict.fromkeys(detections)),
                          frame_count=frame_count)


class TestWriters:
    @given(scenarios())
    @settings(max_examples=100, deadline=None)
    def test_classified_json_equals_json_dumps(self, scenario):
        assert_writes_reference_classified(scenario)

    @pytest.mark.parametrize("name", ["nexus5", "Pixel «Ünïcødé» 手机", 'q"\\\n\x00'])
    def test_empty_scenario(self, name):
        profile = DeviceProfile(name=name, screen_width=WIDTH, screen_height=HEIGHT, fps=30)
        scenario = ClassifiedScenario(profile=profile, items=())
        assert_writes_reference_classified(scenario)
        assert ClassifiedScenario.from_json(scenario.to_json()) == scenario

    @given(traces())
    @settings(max_examples=100, deadline=None)
    def test_trace_json_equals_json_dumps(self, trace):
        assert serialize_trace(trace) == reference_trace(trace)

    @given(scenarios())
    @settings(max_examples=100, deadline=None)
    def test_classified_round_trip(self, scenario):
        assert ClassifiedScenario.from_json(scenario.to_json()) == scenario


class TestLoader:
    @given(traces())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, trace):
        assert parse_trace(serialize_trace(trace)) == trace

    @given(traces())
    @settings(max_examples=100, deadline=None)
    def test_integer_numbers_load_like_floats(self, trace):
        doc = json.loads(serialize_trace(trace))
        for d in doc["detections"]:
            d["bbox"] = [int(v) if v.is_integer() else v for v in d["bbox"]]
            d["confidence"] = int(d["confidence"]) if d["confidence"] in (0.0, 1.0) \
                else d["confidence"]
        assert parse_trace(json.dumps(doc)) == trace

    @pytest.mark.parametrize("fields, got", [
        ({}, "None"), ({"finger_count": True}, "True"),
        ({"finger_count": 2.0}, "2.0"),
    ], ids=["missing", "bool", "float"])
    def test_finger_count_must_be_an_integer(self, fields, got):
        touch = [0, 10.0, 10.0, 40.0, 40.0, 0.9, "high"]
        item = {"type": "mfa", **fields,
                "actions": [{"kind": "tap", "touches": [touch]}]}
        doc = {"schema_version": 2, "items": [item], "device": {
            "name": "n", "width": WIDTH, "height": HEIGHT, "fps": 30}}
        message = f"field 'finger_count' must be an integer, got {got}"
        with pytest.raises(SchemaViolation, match=message):
            ClassifiedScenario.from_json(json.dumps(doc))


# Detection-level defects and the error each one raised before the
# one-pass loader; "unsorted" is accepted and re-sorted.
def _missing_key(d, rnd):
    del d[rnd.choice(sorted(d))]


def _bool_frame(d, rnd):
    d["frame"] = rnd.choice([True, False])


def _string_number(d, rnd):
    if rnd.random() < 0.5:
        d["confidence"] = str(d["confidence"])
    else:
        i = rnd.randrange(4)
        d["bbox"][i] = str(d["bbox"][i])


def _off_screen(d, rnd):
    x, y, w, h = d["bbox"]
    if rnd.random() < 0.5:
        d["bbox"][0] = WIDTH - w + rnd.uniform(0.5, 100.0)
    else:
        d["bbox"][1] = -rnd.uniform(0.5, 100.0)


def _zero_width(d, rnd):
    d["bbox"][2] = 0.0


def _non_finite(d, rnd):
    d["bbox"][rnd.randrange(4)] = rnd.choice([float("nan"), float("inf"), -float("inf")])


SCHEMA_DEFECTS = [_missing_key, _bool_frame, _string_number, _zero_width, _non_finite]


@given(traces(), st.lists(st.tuples(st.integers(0, 100), st.integers(0, 5)), max_size=4),
       st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=200, deadline=None)
def test_mutated_documents_raise_the_same_error_type(trace, mutations, rnd, unsorted):
    doc = json.loads(serialize_trace(trace))
    dets = doc["detections"]
    if not dets:
        return
    schema = bounds = False
    mutated = set()
    for where, which in mutations:
        if where % len(dets) in mutated:
            continue  # one defect per detection, so none masks another
        mutated.add(where % len(dets))
        defect = (SCHEMA_DEFECTS + [_off_screen])[which]
        defect(dets[where % len(dets)], rnd)
        if defect is _off_screen:
            bounds = True
        else:
            schema = True
    detections = trace.detections
    if unsorted:
        dets.reverse()
        detections = detections[::-1]
    text = json.dumps(doc)
    if schema:
        # A detection's own defect wins over any placement defect.
        with pytest.raises(SchemaViolation):
            parse_trace(text)
    elif bounds:
        with pytest.raises(BoundsViolation):
            parse_trace(text)
    else:
        # Re-sorted stably, exactly as the validating constructor does.
        assert parse_trace(text) == DetectionTrace(
            profile=trace.profile, detections=detections, frame_count=trace.frame_count
        )
