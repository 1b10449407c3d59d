"""Differential tests of the classified.json loader.

`_oracle_from_json` and `_oracle_action_from_dict` are
`ClassifiedScenario.from_json` and `AtomicAction.from_dict` as they were
before each sequence was checked in the walk that loads it, copied
unchanged apart from their names and four changes. The kind check looks
the kind up in `KIND_SYMBOLS` where the old one built an `ActionKind`
enum member (the enum is gone; both reject the same values). They read
schema version 2, and no bool or float as a version: an SFA item holds
its action's `kind` and `touches` itself, and each touch is a
`[frame, x, y, w, h, confidence, opacity]` row that `_oracle_row` builds
through the `TouchDetection` constructor. An action's touches are read
before its kind, as the loader reads them. Mutated documents must load to the
same scenario, or raise the same error type with the same message. The
exceptions are the inputs the old loader crashed on with a raw
`TypeError`, `KeyError` or `ValueError`, containers that are not lists,
and a `finger_count` below 1 or above the item's number of actions,
which the old loader took: the loader now raises `SchemaViolation` for
all of them. Like the old loader, an MFA item checks its `finger_count`
as it is read, but after its actions: of an item with no action and a
bad finger count, the old loader reported the count and the new one
reports the empty item, which is what it reports once every finger
count is 1.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereplay.classify import (
    CLASSIFIED_SCHEMA_VERSION,
    AtomicAction,
    ClassifiedScenario,
    MultiFingerItem,
    classify_trace,
)
from tracereplay.errors import MalformedJson, SchemaViolation, TraceReplayError
from tracereplay.model import KIND_SYMBOLS, DeviceProfile, TouchDetection
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

from test_encoding import scenarios

PROFILE = DeviceProfile(name="d", screen_width=1080, screen_height=1920, fps=30)

#: The loader's message for a touch that is no row, with `{!r}` of it.
ROW_MESSAGE = "touch must be a list [frame, x, y, w, h, confidence, opacity], got {!r}"


# --- the previous loader, copied unchanged apart from names ---


def _oracle_row(row) -> TouchDetection:
    if not isinstance(row, list) or len(row) != 7:
        raise SchemaViolation(ROW_MESSAGE.format(row))
    frame, x, y, w, h, confidence, opacity = row
    return TouchDetection(frame, [x, y, w, h], confidence, opacity)


def _oracle_action_from_dict(data: dict) -> AtomicAction:
    if not isinstance(data, dict) or "kind" not in data or "touches" not in data:
        raise SchemaViolation("action must be an object with kind and touches")
    touches = tuple(_oracle_row(t) for t in data["touches"])
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in KIND_SYMBOLS:
        raise SchemaViolation(f"unknown action kind {kind!r}")
    return AtomicAction(kind=kind, touches=touches)


def _oracle_from_json(data: bytes | str) -> ClassifiedScenario:
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaViolation("top-level value must be an object")
    for key in ("schema_version", "device", "items"):
        if key not in doc:
            raise SchemaViolation(f"document missing field '{key}'")
    version = doc["schema_version"]
    if type(version) is not int or version != CLASSIFIED_SCHEMA_VERSION:
        raise SchemaViolation(
            f"unsupported schema_version {version!r}, expected 2"
        )
    profile = DeviceProfile.from_dict(doc["device"])
    items = []
    for raw in doc["items"]:
        if not isinstance(raw, dict) or "type" not in raw:
            raise SchemaViolation("item must be an object with a type")
        if raw["type"] == "sfa":
            items.append(_oracle_action_from_dict(raw))
        elif raw["type"] == "mfa":
            actions = tuple(_oracle_action_from_dict(a) for a in raw["actions"])
            items.append(
                MultiFingerItem(
                    actions=actions, finger_count=_oracle_int(raw, "finger_count")
                )
            )
        else:
            raise SchemaViolation(f"unknown item type {raw['type']!r}")
    return ClassifiedScenario(profile=profile, items=tuple(items))


def _oracle_int(data: dict, key: str) -> int:
    value = data.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaViolation(f"field '{key}' must be an integer, got {value!r}")
    return value


# --- documents and their mutations ---


@st.composite
def classified_traces(draw):
    """A classified synthetic recording: fades, MFA items, real frames."""
    seed = draw(st.integers(0, 2**32 - 1))
    scenario = random_scenario(PROFILE, seed=seed, n_actions=draw(st.integers(1, 6)))
    trace, _ = synthesize_trace(
        scenario, noise_preset(draw(st.sampled_from(["clean", "emulator"])), seed=seed)
    )
    return classify_trace(trace)


#: A schema version 1 touch, which is no row.
V1_TOUCH = {"frame": 0, "bbox": [10.0, 10.0, 40.0, 40.0], "confidence": 0.9,
            "opacity": "high"}

#: Values a mutation may put anywhere; `[]` also empties a list. A
#: 7-character string and a 7-key object unpack into seven values.
ODD_VALUES = [None, True, 0, -1, 3, 1.5, 2.0, "", "x", "low", "high", "tap", "mfa",
              "gesture", [], [1], {}, {"kind": "tap"}, V1_TOUCH, dict.fromkeys("abcdefg")]

#: Keys whose value the loader iterates: a non-list there is rejected.
LIST_KEYS = ("items", "actions", "touches")


def _nodes(value, path=()):
    """Every (path, container) in a JSON tree, the root first."""
    if isinstance(value, (dict, list)):
        yield path, value
        children = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in children:
            yield from _nodes(child, path + (key,))


def _mutate(doc, rnd) -> None:
    """One random defect: a key deleted, a value replaced, a list's
    elements swapped, duplicated or dropped, or a row's opacity flipped."""
    _, node = rnd.choice(list(_nodes(doc)))
    keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
    if not keys:
        return
    key = rnd.choice(keys)
    kind = rnd.randrange(5)
    if kind == 0 and isinstance(node, dict):
        del node[key]
    elif kind == 1:
        node[key] = rnd.choice(ODD_VALUES)
    elif kind == 2 and isinstance(node, list):
        other = rnd.randrange(len(node))
        node[key], node[other] = node[other], node[key]
    elif kind == 3 and isinstance(node, list):
        node.insert(key, json.loads(json.dumps(node[key])))
    elif isinstance(node, list) and node[-1] in ("high", "low"):
        node[-1] = "high" if node[-1] == "low" else "low"
    elif isinstance(node, list):
        del node[key]


def _has_non_list(doc) -> bool:
    return any(
        isinstance(node, dict) and key in node and not isinstance(node[key], list)
        for _, node in _nodes(doc)
        for key in LIST_KEYS
    )


def _has_finger_count_out_of_range(doc) -> bool:
    """An mfa item counts fewer than 1 finger, or more than its actions."""
    return any(
        isinstance(node, dict) and node.get("type") == "mfa"
        and type(node.get("finger_count")) is int
        and (node["finger_count"] < 1 or isinstance(node.get("actions"), list)
             and node["finger_count"] > len(node["actions"]))
        for _, node in _nodes(doc)
    )


def _counts_fixed(doc) -> str:
    """The document with the finger count of every mfa item set to 1."""
    doc = json.loads(json.dumps(doc))
    for _, node in _nodes(doc):
        if isinstance(node, dict) and node.get("type") == "mfa":
            node["finger_count"] = 1
    return json.dumps(doc)


def _outcome(load, text):
    try:
        return load(text)
    except TraceReplayError as exc:
        return type(exc), str(exc)


@given(st.one_of(classified_traces(), scenarios()),
       st.integers(0, 3), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_load_like_oracle(scenario, defects, rnd, as_bytes):
    doc = json.loads(scenario.to_json())
    for _ in range(defects):
        _mutate(doc, rnd)
    text = json.dumps(doc)
    if as_bytes:
        text = text.encode("utf-8")
    got = _outcome(ClassifiedScenario.from_json, text)
    try:
        want = _outcome(_oracle_from_json, text)
    except (TypeError, KeyError, ValueError):
        want = None  # the old loader crashed
    if want is None or _has_non_list(doc) or _has_finger_count_out_of_range(doc):
        assert isinstance(got, tuple) and got[0] is SchemaViolation, got
        return
    if (got != want and isinstance(want, tuple)
            and want[1].startswith("field 'finger_count'")):
        # An MFA item checks that it has an action before its finger count.
        assert got == _outcome(ClassifiedScenario.from_json, _counts_fixed(doc))
        return
    assert got == want
    if isinstance(want, ClassifiedScenario):
        assert got.to_json() == want.to_json()
        assert _high_touches(got) == _high_touches(want)


def _high_touches(scenario):
    return [
        action.high_touches
        for item in scenario.items
        for action in (
            item.actions if isinstance(item, MultiFingerItem) else (item,)
        )
    ]


def _doc(items):
    return json.dumps({
        "schema_version": 2,
        "device": PROFILE.to_dict(),
        "items": items,
    })


TOUCH = [0, 10.0, 10.0, 40.0, 40.0, 0.9, "high"]


@pytest.mark.parametrize("text", [
    _doc(5),
    _doc(None),
    _doc({}),
    _doc([{"type": "sfa"}]),
    _doc([{"type": "mfa", "finger_count": 2}]),
    _doc([{"type": "mfa", "actions": 3, "finger_count": 2}]),
    _doc([{"type": "mfa", "actions": [], "finger_count": 2}]),
    _doc([{"type": "sfa", "kind": "tap", "touches": 3}]),
    _doc([{"type": "sfa", "kind": "tap", "touches": "ab"}]),
    _doc([{"type": "sfa", "kind": "tap", "touches": [TOUCH, TOUCH]}]),
], ids=["int-items", "null-items", "object-items", "sfa-without-action",
        "mfa-without-actions", "int-actions", "empty-actions", "int-touches",
        "string-touches", "repeated-frame"])
def test_bad_structure_raises_schema_violation(text):
    with pytest.raises(SchemaViolation):
        ClassifiedScenario.from_json(text)


def test_finger_count_is_checked_in_document_order():
    # Each item checks itself as it is read: the first defect decides.
    action = {"kind": "tap", "touches": [TOUCH]}
    bad_count = {"type": "mfa", "finger_count": "2", "actions": [action]}
    bad_count_message = "^field 'finger_count' must be an integer, got '2'$"
    with pytest.raises(SchemaViolation, match=bad_count_message):
        ClassifiedScenario.from_json(_doc([bad_count]))
    with pytest.raises(SchemaViolation, match=bad_count_message):
        ClassifiedScenario.from_json(_doc([bad_count, {"type": "x"}]))
    with pytest.raises(SchemaViolation, match="^unknown item type 'x'$"):
        ClassifiedScenario.from_json(_doc([{"type": "x"}, bad_count]))


def test_bytes_that_are_not_utf8_raise_malformed_json():
    with pytest.raises(MalformedJson):
        ClassifiedScenario.from_json(_doc([]).encode("utf-8").replace(b"d", b"\xff"))


# --- one check of a detection's seven values, in both document shapes ---

#: Values that no field takes: bools, strings, nulls, the non-finite
#: floats, and ints past 2**1000.
WRONG = st.one_of(st.booleans(), st.text(max_size=2), st.none(),
                  st.sampled_from([math.nan, math.inf, -math.inf,
                                   2**1000, 10**400, -(2**1000)]))
#: Per field, in row order: values it takes, floats and ints alike.
GOOD = [st.one_of(st.integers(0, 40), st.just(2**1000 - 1))]
GOOD += [st.one_of(st.floats(-50.0, 2000.0), st.integers(-50, 2000))] * 2
GOOD += [st.one_of(st.floats(1e-3, 100.0), st.integers(1, 100), st.just(5e-324))] * 2
GOOD += [st.one_of(st.floats(0.0, 1.0), st.integers(0, 1)), st.sampled_from(["high", "low"])]
#: Per field, values it does not take: sizes at or below zero,
#: confidence outside [0, 1], a bad opacity, and a center that overflows.
BAD = [st.one_of(st.integers(-3, -1), st.floats(), WRONG)]
BAD += [st.one_of(st.sampled_from([1.7e308, -1.7e308]), WRONG)] * 2
BAD += [st.one_of(st.floats(-5.0, 0.0), st.sampled_from([0, 1.7e308]), WRONG)] * 2
BAD += [st.one_of(st.sampled_from([-0.1, 1.5, -1, 2]), WRONG),
        st.one_of(st.sampled_from(["HIGH", "Low", "", "medium"]), WRONG)]


@st.composite
def seven_values(draw):
    """A row's values, none, one or two of them replaced by a bad one."""
    values = [draw(field) for field in GOOD]
    for i in draw(st.lists(st.integers(0, 6), max_size=2)):
        values[i] = draw(BAD[i])
    return values


def _built(read, data):
    try:
        return read(data)
    except SchemaViolation as exc:
        return str(exc)


def _row_touches(rows):
    """The touches of `rows`, one SFA's, as `from_json` reads them, or its error."""
    loaded = _built(ClassifiedScenario.from_json,
                    _doc([{"type": "sfa", "kind": "gesture", "touches": rows}]))
    return loaded if isinstance(loaded, str) else loaded.items[0].touches


@given(seven_values())
@settings(max_examples=400, deadline=None)
def test_trace_object_and_row_are_one_check(values):
    """The seven values as a trace detection object and as a classified.json
    row build equal detections, or raise the same message."""
    values = json.loads(json.dumps(values))
    obj = dict(zip(("frame", "bbox", "confidence", "opacity"),
                   (values[0], values[1:5], *values[5:])))
    want = _built(TouchDetection.from_dict, obj)
    got = _row_touches([values])
    if isinstance(want, str):
        assert got == want
        return
    if want.opacity == "low":
        # A lone fade is no action; after a lead touch it is one.
        assert got == "every scenario action needs a high-opacity touch"
        if want.frame == 0:
            return
        lead = [want.frame - 1, 10.0, 10.0, 40.0, 40.0, 0.9, "high"]
        got = _row_touches([lead, values])[1:]
    else:
        got = got[:1]
    assert got == (want,)
    (touch,) = got
    assert type(touch) is TouchDetection and touch.opacity is want.opacity
    assert touch.center == want.center
    assert all(type(v) is float for v in (*touch.bbox, touch.confidence, *touch.center))


@pytest.mark.parametrize("bad", [
    V1_TOUCH, [0, 10.0, 10.0, 40.0, 40.0, 0.9], [0, 10.0, 10.0, 40.0, 40.0, 0.9, "high", 1],
    [], "gesture", dict.fromkeys("abcdefg"), None, 5,
], ids=["v1-touch", "six-values", "eight-values", "empty", "seven-characters",
        "seven-keys", "null", "int"])
def test_touch_that_is_no_row_raises_schema_violation(bad):
    assert _row_touches([bad]) == ROW_MESSAGE.format(bad)
    # The first bad row decides: a row after it, or a defect in an earlier one.
    assert _row_touches([TOUCH, bad, [1, 10.0, 10.0, 40.0, 40.0, 0.9, "medium"]]) == (
        ROW_MESSAGE.format(bad))
    assert _row_touches([[0, 10.0, 10.0, 40.0, 40.0, 2.0, "high"], bad]) == (
        "confidence must be in [0, 1], got 2.0")
