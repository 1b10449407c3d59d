"""Device profile and detection-trace data model.

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
"""

from __future__ import annotations

import json
import math
from enum import Enum
from functools import lru_cache

from .errors import BoundsViolation, MalformedJson, SchemaViolation

TRACE_SCHEMA_VERSION = 1

#: Minimum supported recording rate in frames per second.
MIN_FPS = 30

#: Default pixel radius a press may wander and still count as a tap.
DEFAULT_TOUCH_SLOP = 8


class Opacity(Enum):
    HIGH = "high"
    LOW = "low"


#: JSON text of each opacity class, read by the writers without going
#: through the `Enum.value` descriptor once per detection.
_OPACITY_TEXT = {opacity: opacity.value for opacity in Opacity}

#: The members and the check the detection loader uses once per
#: detection, bound here so that it reads no class or module attribute.
_HIGH, _LOW = Opacity.HIGH, Opacity.LOW
_isfinite = math.isfinite
_setattr = object.__setattr__


class Record:
    """Base of the package's record classes: `==` and `repr` over the
    fields named in `_fields`, in order, and no hash. Instances keep a
    `__dict__`, so field reads are plain attribute reads."""

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


class Frozen(Record):
    """A hashable record that cannot be assigned to once built.

    A subclass's `__init__` checks its arguments and sets the fields
    with `_set`; `_unchecked` fills one from fields already checked.
    """

    def _set(self, *values, **derived) -> None:
        """Set the fields to `values`, in order, then each attribute in
        `derived`, which takes no part in `==`, `hash` or `repr`."""
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)
        for name, value in derived.items():
            _setattr(self, name, value)

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DeviceProfile(Frozen):
    """Static facts about the recording device."""

    _fields = ("name", "screen_width", "screen_height", "fps", "touch_slop")

    def __init__(self, name: str, screen_width: int, screen_height: int, fps: int,
                 touch_slop: int = DEFAULT_TOUCH_SLOP):
        if screen_width <= 0 or screen_height <= 0:
            raise SchemaViolation(
                f"screen size must be positive, got {screen_width}x{screen_height}"
            )
        if fps < MIN_FPS:
            raise SchemaViolation(f"fps must be >= {MIN_FPS}, got {fps}")
        if touch_slop <= 0:
            raise SchemaViolation(f"touch_slop must be positive, got {touch_slop}")
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
        _require(isinstance(data["name"], str), "device name must be a string")
        return cls(
            name=data["name"],
            screen_width=_int_field(data, "width"),
            screen_height=_int_field(data, "height"),
            fps=_int_field(data, "fps"),
            touch_slop=_int_field(data, "touch_slop") if "touch_slop" in data
            else DEFAULT_TOUCH_SLOP,
        )


class TouchDetection(Frozen):
    """One detected touch indicator in one video frame.

    `bbox` is (x, y, w, h) in pixels. `center`, the canonical touch
    coordinate (the bbox center), is computed once when the detection
    is built; it is derived from `bbox`, so it takes no part in
    construction, `==`, `hash` or `repr`.
    """

    _fields = ("frame", "bbox", "confidence", "opacity")

    def __init__(self, frame: int, bbox: tuple[float, float, float, float],
                 confidence: float, opacity: Opacity):
        try:
            bbox = tuple(float(v) for v in bbox)
            confidence = float(confidence)
        except OverflowError:
            raise SchemaViolation(
                f"bbox or confidence out of float range (frame {frame})"
            ) from None
        if frame < 0:
            raise SchemaViolation(f"frame must be non-negative, got {frame}")
        if len(bbox) != 4:
            raise SchemaViolation("bbox must have exactly 4 entries")
        if not all(map(math.isfinite, bbox)):
            raise SchemaViolation(f"bbox entries must be finite, got {bbox}")
        if bbox[2] <= 0 or bbox[3] <= 0:
            raise SchemaViolation(f"bbox size must be positive, got {bbox}")
        if not 0.0 <= confidence <= 1.0:
            raise SchemaViolation(f"confidence must be in [0, 1], got {confidence}")
        x, y, w, h = bbox
        self._set(frame, bbox, confidence, opacity, center=(x + w / 2.0, y + h / 2.0))

    @classmethod
    def from_dict(cls, data: dict) -> "TouchDetection":
        """Validate one JSON detection object and build it.

        The common case (float numbers, finite, in range) is checked
        here once and built without the constructor checking it again;
        anything else takes the field-by-field path, which raises the
        precise error or accepts e.g. integer coordinates.
        """
        try:
            frame, bbox = data["frame"], data["bbox"]
            confidence, opacity = data["confidence"], data["opacity"]
            x, y, w, h = bbox
        except (KeyError, TypeError, ValueError):
            return cls._from_dict_checked(data)
        if (
            type(bbox) is list
            and type(frame) is int and frame >= 0
            and type(x) is type(y) is type(w) is type(h) is type(confidence) is float
            and w > 0.0 and h > 0.0 and 0.0 <= confidence <= 1.0
            and _isfinite(x + y + w + h)
            and (opacity == "high" or opacity == "low")
        ):
            det = _new(cls)
            # One update call, not a write per key: the instance dict
            # then reads as fast as one the constructor filled.
            det.__dict__.update(
                frame=frame, bbox=(x, y, w, h), confidence=confidence,
                opacity=_HIGH if opacity == "high" else _LOW,
                center=(x + w / 2.0, y + h / 2.0),
            )
            return det
        return cls._from_dict_checked(data)

    @classmethod
    def _from_dict_checked(cls, data) -> "TouchDetection":
        _require(isinstance(data, dict), "detection must be an object")
        for key in ("frame", "bbox", "confidence", "opacity"):
            _require(key in data, f"detection missing field '{key}'")
        bbox = data["bbox"]
        _require(
            isinstance(bbox, list) and len(bbox) == 4
            and all(_is_number(v) for v in bbox),
            f"bbox must be a list of 4 numbers, got {bbox!r}",
        )
        _require(_is_number(data["confidence"]), "confidence must be a number")
        opacity = data["opacity"]
        _require(
            opacity in (Opacity.HIGH.value, Opacity.LOW.value),
            f"opacity must be 'high' or 'low', got {opacity!r}",
        )
        return cls(
            frame=_int_field(data, "frame"),
            bbox=tuple(bbox),
            confidence=data["confidence"],
            opacity=Opacity(opacity),
        )


class DetectionTrace(Frozen):
    """All detections of one recording, sorted by frame.

    The constructor re-sorts detections (stable) so the frame-order
    invariant always holds, and validates every bbox against the
    profile's screen rectangle.
    """

    _fields = ("profile", "detections", "frame_count")

    def __init__(self, profile: DeviceProfile, detections: tuple[TouchDetection, ...],
                 frame_count: int):
        ordered = tuple(sorted(detections, key=_frame))
        if frame_count < 0:
            raise SchemaViolation(f"frame_count must be >= 0, got {frame_count}")
        width, height = profile.screen_width, profile.screen_height
        for det in ordered:
            error = _placement_error(det, frame_count, width, height)
            if error is not None:
                raise error
        self._set(profile, ordered, frame_count)

    @classmethod
    def _validated(
        cls,
        profile: DeviceProfile,
        detections: tuple[TouchDetection, ...],
        frame_count: int,
    ) -> "DetectionTrace":
        """Build from detections already checked, placed and sorted."""
        return _unchecked(
            cls, profile=profile, detections=detections, frame_count=frame_count
        )

    def __len__(self) -> int:
        return len(self.detections)


def parse_trace(data: bytes | str) -> DetectionTrace:
    """Parse a trace JSON document and validate all invariants.

    Raises MalformedJson on syntax errors, SchemaViolation on missing
    or out-of-range fields, BoundsViolation on off-screen boxes.
    Detections are re-sorted by frame if the document is unsorted.
    """
    doc = load_document(
        data, TRACE_SCHEMA_VERSION, ("device", "frame_count", "detections")
    )
    _require(isinstance(doc["detections"], list), "detections must be a list")

    profile = DeviceProfile.from_dict(doc["device"])
    frame_count = _int_field(doc, "frame_count")
    _require(frame_count >= 0, f"frame_count must be >= 0, got {frame_count}")
    width, height = profile.screen_width, profile.screen_height

    # One pass. A detection's own fields are checked as it is built;
    # the first misplaced one in frame order is raised only once every
    # detection has passed its own checks.
    load = TouchDetection.from_dict
    detections = []
    misplaced = None
    previous = 0
    ordered = True
    for raw in doc["detections"]:
        det = load(raw)
        detections.append(det)
        frame = det.frame
        x, y, w, h = det.bbox
        if frame >= frame_count or x < 0.0 or y < 0.0 or x + w > width or y + h > height:
            if misplaced is None or frame < misplaced.frame:
                misplaced = det
        ordered = ordered and frame >= previous
        previous = frame
    if misplaced is not None:
        raise _placement_error(misplaced, frame_count, width, height)
    if not ordered:
        detections.sort(key=_frame)
    return DetectionTrace._validated(profile, tuple(detections), frame_count)


def load_document(data: bytes | str, version: int, fields: tuple[str, ...]) -> dict:
    """The JSON object of a versioned document this package reads.

    Raises MalformedJson unless `data` is UTF-8 JSON, SchemaViolation
    unless it is an object with `schema_version` equal to `version` and
    every key in `fields`.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedJson(f"input is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top-level value must be an object")
    for key in ("schema_version", *fields):
        _require(key in doc, f"document missing field '{key}'")
    _require(
        doc["schema_version"] == version,
        f"unsupported schema_version {doc['schema_version']!r}",
    )
    return doc


def valid_device_node(node: str) -> bool:
    """True when `node` can name the device on every log line of a
    script: a non-empty ASCII string without whitespace."""
    return isinstance(node, str) and node.isascii() and node.split() == [node]


def serialize_trace(trace: DetectionTrace) -> bytes:
    """Serialize a trace to the JSON schema; inverse of parse_trace."""
    return (
        f'{{\n  "schema_version": {TRACE_SCHEMA_VERSION},\n'
        f'  "device": {device_json(trace.profile, 1)},\n'
        f'  "frame_count": {trace.frame_count},\n'
        f'  "detections": {detections_json(trace.detections, 1)}\n}}'
    ).encode("utf-8")


# Writers for the documents this package emits. Each lays its values
# out exactly as json.dumps(doc, indent=2) would, at a fixed depth
# (number of enclosing containers), without the encoder's per-value
# dispatch: strings through json.dumps, numbers through repr.


def json_array(elements: list[str], depth: int) -> str:
    """JSON array of already-encoded elements, each laid out at depth + 1."""
    if not elements:
        return "[]"
    return "[\n" + ",\n".join(elements) + "\n" + "  " * depth + "]"


def device_json(profile: DeviceProfile, depth: int) -> str:
    pad = "  " * (depth + 1)
    return (
        f'{{\n{pad}"name": {json.dumps(profile.name)},\n'
        f'{pad}"width": {profile.screen_width},\n'
        f'{pad}"height": {profile.screen_height},\n'
        f'{pad}"fps": {profile.fps},\n'
        f'{pad}"touch_slop": {profile.touch_slop}\n{"  " * depth}}}'
    )


def detections_json(detections, depth: int) -> str:
    """JSON array of detections, the array opening at `depth`."""
    template = _detection_template(depth + 1)
    return json_array(
        [
            template % (d.frame, *d.bbox, d.confidence, _OPACITY_TEXT[d.opacity])
            for d in detections
        ],
        depth,
    )


@lru_cache(maxsize=8)
def _detection_template(depth: int) -> str:
    outer, inner, value = ("  " * n for n in (depth, depth + 1, depth + 2))
    return (
        f'{outer}{{\n{inner}"frame": %s,\n{inner}"bbox": [\n'
        + ",\n".join(f"{value}%r" for _ in range(4))
        + f'\n{inner}],\n{inner}"confidence": %r,\n{inner}"opacity": "%s"\n{outer}}}'
    )


def _unchecked(cls, **fields):
    """A `Frozen` record from fields that were already validated: its
    `__init__` does not run."""
    obj = _new(cls)
    obj.__dict__.update(fields)
    return obj


_new = object.__new__


def _frame(det: TouchDetection) -> int:
    return det.frame


def _placement_error(
    det: TouchDetection, frame_count: int, width: int, height: int
) -> SchemaViolation | BoundsViolation | None:
    """Why `det` cannot sit in a trace of this length and screen size."""
    if det.frame >= frame_count:
        return SchemaViolation(
            f"detection frame {det.frame} >= frame_count {frame_count}"
        )
    x, y, w, h = det.bbox
    if x < 0 or y < 0 or x + w > width or y + h > height:
        return BoundsViolation(
            f"bbox {det.bbox} outside {width}x{height} screen (frame {det.frame})"
        )
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int_field(data: dict, key: str) -> int:
    value = data.get(key)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"field '{key}' must be an integer, got {value!r}",
    )
    return value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaViolation(message)
