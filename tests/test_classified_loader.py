"""Differential test of the classified.json loader.

`_oracle_from_json` and `_oracle_action_from_dict` are
`ClassifiedScenario.from_json` and `AtomicAction.from_dict` as they were
before each sequence was checked in the walk that loads it, copied
unchanged apart from their names and the kind check, which looks the
kind up in `KIND_SYMBOLS` where the old one built an `ActionKind` enum
member (the enum is gone; both reject the same values). Mutated documents must load to the
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


# --- the previous loader, copied unchanged apart from names ---


def _oracle_action_from_dict(data: dict) -> AtomicAction:
    if not isinstance(data, dict) or "kind" not in data or "touches" not in data:
        raise SchemaViolation("action must be an object with kind and touches")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in KIND_SYMBOLS:
        raise SchemaViolation(f"unknown action kind {kind!r}")
    touches = tuple(TouchDetection.from_dict(t) for t in data["touches"])
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
    if doc["schema_version"] != CLASSIFIED_SCHEMA_VERSION:
        raise SchemaViolation(
            f"unsupported schema_version {doc['schema_version']!r}"
        )
    profile = DeviceProfile.from_dict(doc["device"])
    items = []
    for raw in doc["items"]:
        if not isinstance(raw, dict) or "type" not in raw:
            raise SchemaViolation("item must be an object with a type")
        if raw["type"] == "sfa":
            items.append(_oracle_action_from_dict(raw["action"]))
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


#: Values a mutation may put anywhere; `[]` also empties a list.
ODD_VALUES = [None, True, 0, -1, 3, 1.5, "", "x", "low", "high", "tap", "mfa",
              [], [1], {}, {"kind": "tap"}]

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
    elements swapped, duplicated or dropped, or an opacity flipped."""
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
    elif isinstance(node, dict) and "opacity" in node:
        node["opacity"] = "high" if node["opacity"] == "low" else "low"
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
        "schema_version": 1,
        "device": PROFILE.to_dict(),
        "items": items,
    })


TOUCH = {"frame": 0, "bbox": [10.0, 10.0, 40.0, 40.0], "confidence": 0.9,
         "opacity": "high"}


@pytest.mark.parametrize("text", [
    _doc(5),
    _doc(None),
    _doc({}),
    _doc([{"type": "sfa"}]),
    _doc([{"type": "mfa", "finger_count": 2}]),
    _doc([{"type": "mfa", "actions": 3, "finger_count": 2}]),
    _doc([{"type": "mfa", "actions": [], "finger_count": 2}]),
    _doc([{"type": "sfa", "action": {"kind": "tap", "touches": 3}}]),
    _doc([{"type": "sfa", "action": {"kind": "tap", "touches": "ab"}}]),
    _doc([{"type": "sfa", "action": {"kind": "tap", "touches": [TOUCH, TOUCH]}}]),
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
