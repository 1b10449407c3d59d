"""Device profile, detection-trace data model and action-symbol alphabet.

A detection trace is the boundary object between the upstream
touch-detection stage and this pipeline: one entry per detected touch
indicator, carrying the video frame index, bounding box, detector
confidence, and a binary opacity class (a low-opacity indicator marks a
finger lifting off the screen).

Trace JSON schema (version 1)::

    {
      "schema_version": 1,
      "device": {"name": str, "width": int, "height": int, "fps": int,
                 "touch_slop": int (optional, default 8)},
      "frame_count": int,
      "detections": [
        {"frame": int, "bbox": [x, y, w, h],
         "confidence": float, "opacity": "high" | "low"}
      ]
    }

All downstream logic works with the bbox center point only.

A detection (`TouchDetection`) is a tuple `(frame, bbox, confidence,
opacity, center)`, its opacity the trace's word (`HIGH` or `LOW`) and
`center` derived from `bbox`. Both documents' readers build each one by
`_detection`: in C, with one `tuple.__new__` after its own checks. The loops
over every detection read its fields through C getters, by position or name.
The other records are `Frozen` objects.

The module is also the one home of the action-symbol alphabet that truth
(`synth`) and predictions (`classify`) are spelled in, and of the
sequence files (`truth.txt`, `predicted.txt`) that carry them.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from collections.abc import Iterable
from operator import itemgetter

from .errors import BoundsViolation, MalformedJson, SchemaViolation, TraceReplayError

TRACE_SCHEMA_VERSION = 1

#: Minimum supported recording rate in frames per second.
MIN_FPS = 30

#: Maximum recording rate: on the microsecond grid of script times
#: (`codegen.frame_offset_us`) each frame keeps a timestamp of its own.
MAX_FPS = 1_000_000

#: Default pixel radius a press may wander and still count as a tap.
DEFAULT_TOUCH_SLOP = 8

#: Detections below this confidence are dropped before linking (`segment`).
MIN_CONFIDENCE = 0.7

#: The touch input device a script writes to when none is given.
DEFAULT_DEVICE_NODE = "/dev/input/event2"


#: The two opacity classes of a detection, spelled as in a trace.
HIGH, LOW = "high", "low"

#: Every integer field lies below this; see `_int`.
_INT_CEILING = 2**1000
_tuple_new = tuple.__new__


class Frozen:
    """Base of every record the package checks, ground truth and event
    scripts included: `==`, `hash` and `repr` over the fields named in
    `_fields`, in order, and no assignment once built. Field reads are
    plain `__dict__` reads. A subclass's `__init__` is its whole check,
    types included, so that a record it accepts survives its writers and
    readers, if it has them; it sets the fields with `_set`. `_unchecked`
    fills one from fields already checked."""

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _set(self, *values, **derived) -> None:
        """Set the fields to `values`, in order, then each attribute in
        `derived`, which takes no part in `==`, `hash` or `repr`."""
        self.__dict__.update(zip(self._fields, values), **derived)

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DeviceProfile(Frozen):
    """Static facts about the recording device: `screen_width`,
    `screen_height` and `touch_slop` integers >= 1, each below 2**1000
    (see `_int`), and `fps` an integer in [`MIN_FPS`, `MAX_FPS`]. Every
    document's device (trace, classified.json, ground truth, log header)
    is built here, so each one is held to these bounds."""

    _fields = ("name", "screen_width", "screen_height", "fps", "touch_slop")

    def __init__(self, name: str, screen_width: int, screen_height: int, fps: int,
                 touch_slop: int = DEFAULT_TOUCH_SLOP):
        _require(isinstance(name, str), "device name must be a string")
        _int(screen_width, "width", 1)
        _int(screen_height, "height", 1)
        _int(fps, "fps", MIN_FPS)
        _require(fps <= MAX_FPS, f"field 'fps' must be at most {MAX_FPS}, got {fps}")
        _int(touch_slop, "touch_slop", 1)
        self._set(name, screen_width, screen_height, fps, touch_slop)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "width": self.screen_width,
            "height": self.screen_height,
            "fps": self.fps,
            "touch_slop": self.touch_slop,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceProfile":
        _require(isinstance(data, dict), "device must be an object")
        for key in ("name", "width", "height", "fps"):
            _require(key in data, f"device missing field '{key}'")
        return cls(data["name"], data["width"], data["height"], data["fps"],
                   data.get("touch_slop", DEFAULT_TOUCH_SLOP))


class Rules(Frozen):
    """The rules a run may change, each defaulting to the paper's:
    `min_confidence`, a finite number in [0, 1], filters detections in
    `segment`; `duration_based_cutoff`, a bool, makes `classify`'s tap
    cutoff 667 ms, not 20 frames. The constructor is the one check of both."""

    _fields = ("min_confidence", "duration_based_cutoff")

    def __init__(self, min_confidence: float = MIN_CONFIDENCE,
                 duration_based_cutoff: bool = False):
        # The range check is false for NaN and the infinities too.
        _require(_is_number(min_confidence) and 0.0 <= min_confidence <= 1.0,
                 f"min_confidence must be a finite number in [0, 1], "
                 f"got {min_confidence!r}")
        _require(isinstance(duration_based_cutoff, bool),
                 f"duration_based_cutoff must be a bool, got {duration_based_cutoff!r}")
        self._set(min_confidence, duration_based_cutoff)


class TouchDetection(
    namedtuple("TouchDetection", ("frame", "bbox", "confidence", "opacity", "center"))
):
    """One detected touch indicator in one video frame.

    A plain 5-tuple underneath, `(frame, bbox, confidence, opacity,
    center)`, that compares equal to the plain tuple. `bbox` is (x, y,
    w, h) in pixels. `center`, the canonical touch coordinate (the bbox
    center), is derived from `bbox` when the detection is built, so it
    is no constructor argument, never changes what `==` means and is
    left out of `repr`. The constructor checks every field: `opacity` a
    string equal to `HIGH` or `LOW`, stored as that constant, `frame` an
    integer in [0, 2**1000) (see `_int`), `bbox` (4 of them) and
    `confidence` numbers, never bools or strings, stored as floats,
    finite and in range, and the center finite. Every detection is built
    by it or by `_detection`, which runs the same checks.
    """

    __slots__ = ()

    def __new__(cls, frame: int, bbox: tuple[float, float, float, float],
                confidence: float, opacity: str):
        if not isinstance(opacity, str) or opacity not in (HIGH, LOW):
            raise SchemaViolation(f"opacity must be 'high' or 'low', got {opacity!r}")
        opacity = HIGH if opacity == HIGH else LOW
        _int(frame, "frame", 0)
        if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4
                and all(map(_is_number, bbox))):
            raise SchemaViolation(f"bbox must be a list of 4 numbers, got {bbox!r}")
        _require(_is_number(confidence), "confidence must be a number")
        try:
            bbox = tuple(map(float, bbox))
            confidence = float(confidence)
        except OverflowError:
            message = f"bbox or confidence out of float range (frame {frame})"
            raise SchemaViolation(message) from None
        if not all(map(math.isfinite, bbox)):
            raise SchemaViolation(f"bbox entries must be finite, got {bbox}")
        x, y, w, h = bbox
        center = x + w / 2.0, y + h / 2.0
        if not all(map(math.isfinite, center)):
            raise SchemaViolation(f"bbox center must be finite, got {bbox}")
        if w <= 0 or h <= 0:
            raise SchemaViolation(f"bbox size must be > 0, got {bbox}")
        if not 0.0 <= confidence <= 1.0:
            raise SchemaViolation(f"confidence must be in [0, 1], got {confidence}")
        return _tuple_new(cls, (frame, bbox, confidence, opacity, center))

    # The namedtuple helpers would build a tuple without the checks, or
    # keep a `center` that no longer matches `bbox`: both go through
    # the constructor instead, and pickling passes it the four fields.

    @classmethod
    def _make(cls, fields) -> "TouchDetection":
        """A detection from `(frame, bbox, confidence, opacity)`."""
        return cls(*fields)

    def _replace(self, **changes) -> "TouchDetection":
        """A copy with `changes` applied; `center` follows `bbox`."""
        return type(self)(**dict(zip(self._fields, self[:4]), **changes))

    def __getnewargs__(self) -> tuple:
        return self[:4]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(frame={self[0]!r}, bbox={self[1]!r}, "
            f"confidence={self[2]!r}, opacity={self[3]!r})"
        )

    @classmethod
    def from_dict(cls, data: dict) -> "TouchDetection":
        """Validate one trace detection object and build it: by
        `_detection` when its bbox is a list of 4, else by the constructor."""
        try:
            frame, bbox = data["frame"], data["bbox"]
            confidence, opacity = data["confidence"], data["opacity"]
        except KeyError as key:  # the first one missing, quoted
            raise SchemaViolation(f"detection missing field {key}") from None
        except TypeError:
            raise SchemaViolation("detection must be an object") from None
        if type(bbox) is list and len(bbox) == 4:
            x, y, w, h = bbox
            return _detection(frame, x, y, w, h, confidence, opacity)
        return cls(frame, bbox, confidence, opacity)


def _detection(frame, x, y, w, h, confidence, opacity) -> TouchDetection:
    """The detection of the seven values that a trace detection object and
    a classified.json row both spell: the one check of both documents. The
    common case (float numbers, finite, in range) is checked here once and
    built in C, by one `tuple.__new__`; anything else, e.g. integer
    coordinates, by the constructor, which checks it again."""
    if (
        type(frame) is int and 0 <= frame < _INT_CEILING
        and type(x) is type(y) is type(w) is type(h) is type(confidence) is float
        and w > 0.0 and h > 0.0 and 0.0 <= confidence <= 1.0
        and (opacity == HIGH or opacity == LOW)
        # A finite center has finite entries; an overflow falls through.
        and math.isfinite((cx := x + w / 2.0) + (cy := y + h / 2.0))
    ):
        return _tuple_new(TouchDetection, (
            frame, (x, y, w, h), confidence, HIGH if opacity == HIGH else LOW, (cx, cy),
        ))
    return TouchDetection(frame, [x, y, w, h], confidence, opacity)


#: Getters of `TouchDetection` fields by position, for the loops that
#: read one or two fields of every detection, e.g. the placement check
#: (`DetectionTrace`) and the grouping key of detections (`segment`).
_frame = itemgetter(0)
_frame_and_bbox = itemgetter(0, 1)
_opacity = itemgetter(3)
_center = itemgetter(4)
_frame_and_center = itemgetter(0, 4)


class DetectionTrace(Frozen):
    """All detections of one recording, sorted by value: by frame, then
    bbox, confidence and opacity, so the input's order decides nothing.

    The constructor is the whole check: the profile must be a
    `DeviceProfile`, `frame_count` an integer in [0, 2**1000), and the
    detections an iterable of distinct `TouchDetection`s, each before
    `frame_count` and inside the profile's screen. It sorts them, then
    raises for the first misplaced (its frame checked before its bbox)
    or repeated one, which is equal to its neighbour.
    """

    _fields = ("profile", "detections", "frame_count")

    def __init__(self, profile: DeviceProfile, detections: Iterable[TouchDetection],
                 frame_count: int):
        _require(isinstance(profile, DeviceProfile), "profile must be a DeviceProfile")
        # Before `detections`, which may be a lazy loader, is consumed.
        _int(frame_count, "frame_count", 0)
        detections = _tuple_of(detections, TouchDetection,
                               "detections must be an iterable of TouchDetection")
        width, height = profile.screen_width, profile.screen_height
        detections = tuple(sorted(detections))
        for i, (frame, bbox) in enumerate(map(_frame_and_bbox, detections)):
            if frame >= frame_count:
                raise SchemaViolation(
                    f"detection frame {frame} >= frame_count {frame_count}"
                )
            _check_on_screen(frame, bbox, width, height)
            if i and detections[i] == detections[i - 1]:
                raise SchemaViolation(f"frame {frame} holds one detection twice")
        self._set(profile, detections, frame_count)

    def __len__(self) -> int:
        return len(self.detections)


def _check_on_screen(frame: int, bbox: tuple, width: int, height: int) -> None:
    """Raise BoundsViolation unless `bbox`, of a detection in `frame`, lies
    inside a `width` x `height` screen: the one placement check of a
    trace's detections and a classified scenario's touches."""
    x, y, w, h = bbox
    if x < 0.0 or y < 0.0 or x + w > width or y + h > height:
        raise BoundsViolation(f"bbox {bbox} outside {width}x{height} screen (frame {frame})")


def parse_trace(data: bytes | str) -> DetectionTrace:
    """Parse a trace JSON document and validate all invariants.

    Raises MalformedJson on syntax errors, SchemaViolation on missing
    or out-of-range fields, BoundsViolation on off-screen boxes. Only
    the document's shape (an object with its keys, a detection list) is
    checked here; the device by `DeviceProfile.from_dict`, each
    detection by `TouchDetection.from_dict`, and `frame_count` (its type,
    then its range), then placement and order, by the `DetectionTrace`
    constructor.
    """
    doc = load_document(
        data, TRACE_SCHEMA_VERSION, ("device", "frame_count", "detections")
    )
    _require(isinstance(doc["detections"], list), "detections must be a list")

    profile = DeviceProfile.from_dict(doc["device"])
    return DetectionTrace(
        profile, map(TouchDetection.from_dict, doc["detections"]), doc["frame_count"]
    )


def load_document(data: bytes | str, version: int, fields: tuple[str, ...]) -> dict:
    """The JSON object of a versioned document this package reads.

    Raises MalformedJson unless `data` is UTF-8 JSON, SchemaViolation
    unless it is an object with every key in `fields` and a
    `schema_version` that is an int (no bool) equal to `version`.
    """
    doc = decode_json(data, MalformedJson, "invalid JSON")
    _require(isinstance(doc, dict), "top-level value must be an object")
    for key in ("schema_version", *fields):
        _require(key in doc, f"document missing field '{key}'")
    found = doc["schema_version"]
    _require(type(found) is int and found == version,
             f"unsupported schema_version {found!r}, expected {version}")
    return doc


def decode_json(data: bytes | str, error: type[TraceReplayError], what: str):
    """The value of JSON `data` (UTF-8 if bytes or a bytearray), or
    `error("<what>: <reason>")` for any decode failure, nesting past the
    recursion limit and huge ints too, and for `data` of another type."""
    try:
        return json.loads(
            data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data)
    # The decode errors are ValueErrors; json.loads raises TypeError only
    # for data of another type.
    except (RecursionError, TypeError, ValueError) as exc:
        raise error(f"{what}: {exc}") from None


def valid_device_node(node: str) -> bool:
    """True when `node` can name the device on every log line of a
    script: a non-empty ASCII string without whitespace."""
    return isinstance(node, str) and node.isascii() and node.split() == [node]


def serialize_trace(trace: DetectionTrace) -> bytes:
    """Serialize a trace to the JSON schema; inverse of parse_trace."""
    return (
        f'{{\n  "schema_version": {TRACE_SCHEMA_VERSION},\n'
        f'  "device": {device_json(trace.profile)},\n'
        f'  "frame_count": {trace.frame_count},\n'
        f'  "detections": {detections_json(trace.detections)}\n}}'
    ).encode("utf-8")


# Writers for the documents this package emits. Each lays its values
# out exactly as json.dumps(doc, indent=2) would for a member of the
# document's top-level object (depth 1, inside one container), without
# the encoder's per-value dispatch: strings through json.dumps, numbers
# through repr.


def json_array(elements: list[str]) -> str:
    """JSON array of already-encoded elements, each laid out at depth 2."""
    if not elements:
        return "[]"
    return "[\n" + ",\n".join(elements) + "\n  ]"


def device_json(profile: DeviceProfile) -> str:
    """The device object, opening at depth 1."""
    return json.dumps(profile.to_dict(), indent=2).replace("\n", "\n  ")


def detections_json(detections) -> str:
    """JSON array of detections, the array opening at depth 1."""
    # The text around each value, laid out for depth 1; an f-string joins
    # the pieces without parsing a format string once per detection.
    frame_key = '    {\n      "frame": '
    bbox_key = ',\n      "bbox": [\n        '
    comma = ",\n        "
    confidence_key = '\n      ],\n      "confidence": '
    opacity_key = ',\n      "opacity": "'
    end = '"\n    }'
    return json_array([
        f"{frame_key}{frame}{bbox_key}{x!r}{comma}{y!r}{comma}{w!r}{comma}{h!r}"
        f"{confidence_key}{confidence!r}{opacity_key}{opacity}{end}"
        for frame, (x, y, w, h), confidence, opacity, _ in detections
    ])


# The action-symbol alphabet: a letter per action kind; in the extended
# alphabet a multi-fingered gesture of n fingers is `G<n>`.

#: An action-type symbol sequence, e.g. ('T', 'G2', 'L').
Symbols = tuple[str, ...]

KIND_SYMBOLS = {"tap": "T", "long_tap": "L", "gesture": "G"}
_GESTURE = KIND_SYMBOLS["gesture"]
#: One symbol; `re` compiles it on first use, not on every import. The
#: finger count is what `gesture_symbol` writes: ASCII digits (`\d` would
#: take any Unicode digit), at least 1, without leading zeros.
_SYMBOL = rf"{_GESTURE}[1-9][0-9]*|[{''.join(KIND_SYMBOLS.values())}]"


def gesture_symbol(fingers: int) -> str:
    """The extended-alphabet symbol of a `fingers`-finger gesture (`G<n>`)."""
    return f"{_GESTURE}{fingers}"


def collapse_finger_counts(symbols: Symbols) -> Symbols:
    """Map extended symbols (G2, G3, ...) down to the basic alphabet."""
    return tuple(_GESTURE if s.startswith(_GESTURE) else s for s in symbols)


def parse_symbols(text: str) -> Symbols:
    """Tokenize a symbol string like 'TTG2G' into ('T','T','G2','G')."""
    text = text.strip()
    end = re.match(f"(?:{_SYMBOL})*", text).end()  # the longest run of symbols
    if end < len(text):
        raise SchemaViolation(f"invalid action symbol at {text[end:]!r}")
    return tuple(re.findall(_SYMBOL, text))


def load_sequence_file(text: str) -> dict[str, Symbols]:
    """Parse 'scenario_id SYMBOLS' lines; '#' lines are comments."""
    sequences: dict[str, Symbols] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SchemaViolation(
                f"line {number}: expected 'scenario_id SYMBOLS', got {raw!r}"
            )
        sid, symbols = parts
        if sid in sequences:
            raise SchemaViolation(f"line {number}: duplicate scenario id {sid!r}")
        sequences[sid] = () if symbols == "-" else parse_symbols(symbols)
    return sequences


def dump_sequence_file(sequences: dict[str, Symbols]) -> str:
    """The lines `load_sequence_file` reads back. Raises SchemaViolation
    for an id they cannot hold: empty, with whitespace or led by '#'."""
    for sid in sequences:
        _require(sid.split() == [sid] and not sid.startswith("#"),
                 f"scenario id {sid!r} must be non-empty, without whitespace "
                 f"or a leading '#'")
    # "-" marks an empty sequence so every scenario keeps its line.
    return "".join(
        f"{sid} {''.join(syms) or '-'}\n" for sid, syms in sequences.items()
    )


def _overlap_runs(spans: Iterable[tuple]) -> list[list]:
    """The values of `(start, end, value)` spans, given in start order, cut
    into runs that overlap in time: the chronological stack sweep. A span
    joins the open run when its start is strictly below the largest end in
    the run, and otherwise opens a new run, so a span that starts exactly
    where the run ends opens a new one. `classify` groups multi-fingered
    actions with it, and `codegen` clusters a script's contacts."""
    runs = []
    for start, stop, value in spans:
        if runs and start < end:
            runs[-1].append(value)
            end = max(end, stop)
        else:
            runs.append([value])
            end = stop
    return runs


def _unchecked(cls, **fields):
    """A `Frozen` record from fields that were already validated: its
    `__init__` does not run."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _tuple_of(values, types, message: str) -> tuple:
    """`values` as a tuple if it is an iterable of `types` (as `isinstance`
    takes them), else `SchemaViolation(message)`."""
    if isinstance(values, Iterable):
        values = tuple(values)
        if all(isinstance(value, types) for value in values):
            return values
    raise SchemaViolation(message)


def _int(value, key: str, low: int) -> int:
    """`value`, if it is an integer (a bool is none) with `low <= value <
    2**1000`: the check of each integer field, named by its JSON key.
    Below the ceiling (about 301 digits) `str` writes the value, and each
    float the pipeline derives from it stays finite."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaViolation(f"field '{key}' must be an integer, got {value!r}")
    if not low <= value < _INT_CEILING:
        # `str` may refuse a value past the ceiling, so that one goes unnamed.
        got = f", got {value}" if -_INT_CEILING < value < low else ""
        raise SchemaViolation(f"field '{key}' must be in [{low}, 2**1000){got}")
    return value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaViolation(message)
