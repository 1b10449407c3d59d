"""Metamorphic properties: what a trace compiles to depends on its
detections, and on their frames and pixels only as far as it should.

1. **File order.** Any permutation of a trace's detections gives an
   equal `DetectionTrace` and byte-identical `trace.json` (written back
   by `serialize_trace`), `classified.json`, `script.log` and
   `script.bin`.
2. **Frame shift by k.** The symbols are equal, and so is the plan of
   `plan_contacts`, with each time moved from `frame_offset_us(f)` to
   `frame_offset_us(f + k)` and no pixel changed.
3. **Integer translation that stays on-screen.** The symbols are
   equal, and every planned pixel moves by (dx, dy).
4. **Concatenation after an empty frame.** The symbols of A, then an
   empty frame, then B are A's then B's. The plan is A's clusters, then
   B's, with B's tracking ids offset by A's contact count and its times
   shifted as in 2.

Two transformations are not invariances, so they are stated here and
not tested. A mirror image can link differently: a tie that neither
distance nor opacity breaks goes to the smaller x, then the smaller y.
A new frame rate moves every time on the microsecond grid, and with
`--duration-cutoff` the tap cutoff in frames as well.

Traces come from two places: the synthesized family under all three
noise presets, and a dense strategy whose frames hold up to three boxes
on a 3x2 grid of centers 10 px apart, so that boxes of two sizes often
share a center. The dense coordinates lie on a quarter-pixel grid, so
a translation by whole pixels is exact in floating point; a
synthesized trace's coordinates are arbitrary floats, so properties 2-4
run it on fixed seeds rather than drawn ones.
"""

from __future__ import annotations

import json
from math import ceil, floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracereplay.classify import ClassifiedScenario, classify_trace
from tracereplay.codegen import (
    assemble_script,
    frame_offset_us,
    plan_contacts,
    serialize_script,
    translate_runnable,
)
from tracereplay.config import DEVICE_PRESETS
from tracereplay.model import (
    HIGH,
    LOW,
    DetectionTrace,
    TouchDetection,
    parse_trace,
    serialize_trace,
)
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

PROFILE = DEVICE_PRESETS["nexus5"]
PRESETS = ("clean", "physical-device", "emulator")
#: The fixed seeds of the synthesized family in properties 2-4.
SEEDS = range(1, 9)


def trace_document(detections, frame_count: int) -> bytes:
    """A trace.json that lists `detections` in the order given."""
    return json.dumps({
        "schema_version": 1,
        "device": PROFILE.to_dict(),
        "frame_count": frame_count,
        "detections": [
            {"frame": frame, "bbox": list(bbox), "confidence": confidence,
             "opacity": opacity}
            for frame, bbox, confidence, opacity, _ in detections
        ],
    }).encode()


def compiled(document: bytes) -> tuple[bytes, bytes, bytes, bytes]:
    """trace.json written back, classified.json, script.log and
    script.bin, as the two-command flow writes them."""
    trace = parse_trace(document)
    classified = classify_trace(trace).to_json()
    script = assemble_script(ClassifiedScenario.from_json(classified))
    return (serialize_trace(trace), classified, serialize_script(script),
            translate_runnable(script))


def synthesized(seed: int, preset: str) -> DetectionTrace:
    scenario = random_scenario(PROFILE, seed=seed, n_actions=8)
    return synthesize_trace(scenario, noise_preset(preset, seed=seed))[0]


def box(frame, x, y, size, opacity=HIGH, confidence=0.9) -> TouchDetection:
    """The `size`-px square detection centered on (x, y)."""
    half = size / 2
    return TouchDetection(frame, (x - half, y - half, size, size), confidence, opacity)


@st.composite
def dense_traces(draw) -> DetectionTrace:
    """Up to 24 frames, some empty, each holding 1-3 boxes centered on a
    3x2 grid of centers 10 px apart, sized 20, 30 or 40 px, of mixed
    opacity and confidence (some below the 0.7 filter). The grid's
    origin lies on a quarter-pixel grid."""
    x0 = draw(st.integers(400 * 4, 600 * 4)) / 4
    y0 = draw(st.integers(800 * 4, 1000 * 4)) / 4
    detections = []
    for frame in range(draw(st.integers(1, 24))):
        if draw(st.integers(0, 6)) == 0:
            continue
        for _ in range(draw(st.integers(1, 3))):
            detections.append(box(
                frame,
                x0 + 10 * draw(st.integers(0, 2)),
                y0 + 10 * draw(st.integers(0, 1)),
                draw(st.sampled_from([20.0, 30.0, 40.0])),
                draw(st.sampled_from([HIGH, HIGH, LOW])),
                draw(st.sampled_from([0.65, 0.8, 0.9])),
            ))
    frame_count = max((d.frame for d in detections), default=-1) + 1
    return DetectionTrace(PROFILE, dict.fromkeys(detections),
                          frame_count + draw(st.integers(0, 3)))


@st.composite
def two_orders(draw, traces):
    """A trace's detections in its own order and in a drawn permutation,
    with its frame count."""
    trace = draw(traces)
    detections = list(trace.detections)
    return detections, draw(st.permutations(detections)), trace.frame_count


synthesized_traces = st.builds(synthesized, st.integers(0, 2**32 - 1),
                               st.sampled_from(PRESETS))

# Frame 0 holds a 20 px and a 40 px box that share the center (210, 200);
# frames 1-2 each hold one 40 px box centered on (200, 200). Which frame-0
# box starts the gesture once decided on the file's order.
SHARED_CENTER = [
    TouchDetection(0, (200.0, 190.0, 20.0, 20.0), 0.9, HIGH),
    TouchDetection(0, (190.0, 180.0, 40.0, 40.0), 0.9, HIGH),
    TouchDetection(1, (180.0, 180.0, 40.0, 40.0), 0.9, HIGH),
    TouchDetection(2, (180.0, 180.0, 40.0, 40.0), 0.9, HIGH),
]


# --- 1. file order ---


@given(st.one_of(two_orders(dense_traces()), two_orders(synthesized_traces)))
@example((SHARED_CENTER, [SHARED_CENTER[1], SHARED_CENTER[0], *SHARED_CENTER[2:]], 3))
@settings(max_examples=150, deadline=None)
def test_file_order_decides_nothing(orders):
    ordered, shuffled, frame_count = orders
    first = trace_document(ordered, frame_count)
    second = trace_document(shuffled, frame_count)
    assert compiled(first) == compiled(second)
    assert parse_trace(first) == parse_trace(second)
    assert DetectionTrace(PROFILE, ordered, frame_count) == DetectionTrace(
        PROFILE, shuffled, frame_count)


def test_the_shared_center_compiles_to_one_gesture():
    # The gesture starts at the frame-0 box first in value order, the
    # 40 px one, though the file lists the 20 px one first.
    scenario = classify_trace(DetectionTrace(PROFILE, SHARED_CENTER, 3))
    (gesture,) = scenario.items
    assert gesture.touches == (SHARED_CENTER[1], *SHARED_CENTER[2:])


# --- 2-4. shift, translation and concatenation, on the plan ---


def symbols_and_plan(trace: DetectionTrace):
    scenario = classify_trace(trace)
    return scenario.symbols(extended=True), plan_contacts(scenario)


def moved(trace: DetectionTrace, frames: int = 0, dx: int = 0, dy: int = 0):
    """`trace` with every detection `frames` later and (dx, dy) px over."""
    return DetectionTrace(PROFILE, [
        TouchDetection(frame + frames, (x + dx, y + dy, w, h), confidence, opacity)
        for frame, (x, y, w, h), confidence, opacity, _ in trace.detections
    ], trace.frame_count + frames)


def shifted_plan(plan, frames: int, span: int, ids: int = 0):
    """`plan` with each time moved `frames` frames later on the grid and
    each tracking id `ids` higher; its times lie in frames [0, span]."""
    fps = PROFILE.fps
    later = {frame_offset_us(f, fps): frame_offset_us(f + frames, fps)
             for f in range(span + 1)}
    return [
        [(tid + ids, slot, later[open_us], later[release_us],
          [(later[t], x, y) for t, x, y in samples])
         for tid, slot, open_us, release_us, samples in cluster]
        for cluster in plan
    ]


def assert_frame_shift(trace: DetectionTrace, frames: int):
    symbols, plan = symbols_and_plan(trace)
    assert symbols_and_plan(moved(trace, frames)) == (
        symbols, shifted_plan(plan, frames, trace.frame_count))


def assert_translation(trace: DetectionTrace, pick):
    """Translate by (dx, dy), each chosen by `pick(low, high)` from the
    whole pixels that keep every box on-screen."""
    boxes = [bbox for _, bbox, _, _, _ in trace.detections]
    dx = pick(ceil(-min(x for x, _, _, _ in boxes)),
              floor(PROFILE.screen_width - max(x + w for x, _, w, _ in boxes)))
    dy = pick(ceil(-min(y for _, y, _, _ in boxes)),
              floor(PROFILE.screen_height - max(y + h for _, y, _, h in boxes)))
    symbols, plan = symbols_and_plan(trace)
    assert symbols_and_plan(moved(trace, dx=dx, dy=dy)) == (symbols, [
        [(tid, slot, open_us, release_us, [(t, x + dx, y + dy) for t, x, y in samples])
         for tid, slot, open_us, release_us, samples in cluster]
        for cluster in plan
    ])


def assert_concatenation(a: DetectionTrace, b: DetectionTrace):
    # B starts after A's last frame and one empty frame.
    start = a.frame_count + 1
    joined = DetectionTrace(PROFILE, a.detections + moved(b, start).detections,
                            start + b.frame_count)
    symbols_a, plan_a = symbols_and_plan(a)
    symbols_b, plan_b = symbols_and_plan(b)
    contacts_a = sum(map(len, plan_a))
    assert symbols_and_plan(joined) == (
        symbols_a + symbols_b,
        plan_a + shifted_plan(plan_b, start, b.frame_count, contacts_a))


@given(dense_traces(), st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_frame_shift_moves_only_times(trace, frames):
    assert_frame_shift(trace, frames)


@given(dense_traces(), st.data())
@settings(max_examples=100, deadline=None)
def test_translation_moves_only_pixels(trace, data):
    if trace.detections:
        assert_translation(trace, lambda low, high: data.draw(st.integers(low, high)))


@given(dense_traces(), dense_traces())
@settings(max_examples=100, deadline=None)
def test_concatenation_after_an_empty_frame(a, b):
    assert_concatenation(a, b)


@pytest.mark.parametrize("preset", PRESETS)
def test_synthesized_family(preset):
    traces = [synthesized(seed, preset) for seed in SEEDS]
    for trace, after in zip(traces, traces[1:] + traces[:1]):
        assert_frame_shift(trace, 37)
        assert_translation(trace, min)
        assert_translation(trace, max)
        assert_concatenation(trace, after)
