"""Differential test of one-pass segmentation against the group-by-group
pipeline it replaced.

The `_oracle_*` functions are that pipeline, copied unchanged from the
previous segment.py apart from their names: the filtered trace is cut
into maximal runs of consecutive non-empty frames (`FrameGroup`), runs
of two frames or fewer are dropped, and each run is linked, cut at
fades and sorted on its own before the runs' sequences are sorted
together. Generated traces must segment into exactly the same
sequences, detection for detection, with the same high-opacity prefix.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereplay import segment
from tracereplay.model import (
    DEFAULT_TOUCH_SLOP,
    HIGH,
    LOW,
    MIN_CONFIDENCE,
    DetectionTrace,
    DeviceProfile,
    Rules,
    TouchDetection,
)
from tracereplay.segment import (
    MAX_DISCARD_FRAMES,
    TouchSequence,
    filter_confidence,
    segment_trace,
)
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

PROFILE = DeviceProfile(name="d", screen_width=1080, screen_height=1920, fps=30)
SIZE = 40.0


# --- the previous pipeline, copied unchanged apart from names ---

_frame = attrgetter("frame")
_center = attrgetter("center")


@dataclass(frozen=True)
class _OracleFrameGroup:
    """Detections occupying one run of consecutive non-empty frames."""

    detections: tuple[TouchDetection, ...]
    start_frame: int
    end_frame: int

    @property
    def span(self) -> int:
        return self.end_frame - self.start_frame + 1


def _oracle_group_consecutive(trace: DetectionTrace) -> list[_OracleFrameGroup]:
    """Group detections into maximal runs of consecutive non-empty frames.

    Runs spanning two frames or fewer are discarded as spurious.
    """
    detections = trace.detections  # sorted by frame
    groups: list[_OracleFrameGroup] = []
    start = 0
    for i in range(1, len(detections) + 1):
        if i < len(detections) and detections[i].frame <= detections[i - 1].frame + 1:
            continue
        first, last = detections[start].frame, detections[i - 1].frame
        if last - first + 1 > MAX_DISCARD_FRAMES:
            groups.append(
                _OracleFrameGroup(
                    detections=detections[start:i], start_frame=first, end_frame=last
                )
            )
        start = i
    return groups


def _oracle_segment_actions(
    group: _OracleFrameGroup, touch_slop: int = DEFAULT_TOUCH_SLOP
) -> list[TouchSequence]:
    """Split one frame group into per-finger touch sequences.

    `touch_slop` doubles as the distance tie tolerance: two candidate
    links count as equally near when their distances differ by less.
    """
    chains = _oracle_link_chains(group, tie_tolerance=float(touch_slop))
    sequences: list[TouchSequence] = []
    for chain in chains:
        for piece in _oracle_split_at_fades(chain):
            if piece[-1].frame - piece[0].frame + 1 > MAX_DISCARD_FRAMES:
                sequences.append(TouchSequence(touches=tuple(piece)))
    sequences.sort(key=lambda s: (s.start_frame, s.touches[0].center))
    return sequences


def _oracle_segment_trace(trace: DetectionTrace, rules: Rules = Rules()) -> list[TouchSequence]:
    """Full front half: filter, group, and segment a trace."""
    filtered = filter_confidence(trace, rules)
    sequences: list[TouchSequence] = []
    for group in _oracle_group_consecutive(filtered):
        sequences.extend(_oracle_segment_actions(group, trace.profile.touch_slop))
    sequences.sort(key=lambda s: (s.start_frame, s.touches[0].center))
    return sequences


def _oracle_link_chains(
    group: _OracleFrameGroup, tie_tolerance: float
) -> list[list[TouchDetection]]:
    detections = sorted(group.detections, key=_frame)  # stable: keeps in-frame order
    i = bisect_left(detections, group.start_frame, key=_frame)
    end = bisect_right(detections, group.end_frame, key=_frame)

    open_chains: list[list[TouchDetection]] = []
    done: list[list[TouchDetection]] = []
    previous = group.start_frame - 1
    while i < end:
        frame = detections[i].frame
        j = i + 1
        while j < end and detections[j].frame == frame:
            j += 1
        if frame != previous + 1:
            # An empty frame in between: every finger has lifted.
            done.extend(open_chains)
            open_chains = []
        previous = frame
        if j == i + 1 and len(open_chains) == 1:
            # A lone touch continues the lone open chain: no pair search.
            open_chains[0].append(detections[i])
            i = j
            continue
        touches = sorted(detections[i:j], key=_center)
        i = j
        links = _oracle_greedy_match(open_chains, touches, tie_tolerance)
        matched_chains = {ci for ci, _ in links}
        matched_touches = {ti for _, ti in links}
        for ci, ti in links:
            open_chains[ci].append(touches[ti])
        # A finger with no touch this frame has lifted: close its chain.
        still_open = []
        for ci, chain in enumerate(open_chains):
            if ci in matched_chains:
                still_open.append(chain)
            else:
                done.append(chain)
        open_chains = still_open
        for ti, touch in enumerate(touches):
            if ti not in matched_touches:
                open_chains.append([touch])
    done.extend(open_chains)
    done.sort(key=lambda c: (c[0].frame, c[0].center))
    return done


def _oracle_greedy_match(
    chains: list[list[TouchDetection]],
    touches: list[TouchDetection],
    tie_tolerance: float,
) -> list[tuple[int, int]]:
    """Repeatedly link the globally nearest open-chain/touch pair."""
    free_chains = set(range(len(chains)))
    free_touches = set(range(len(touches)))
    links: list[tuple[int, int]] = []
    while free_chains and free_touches:
        pairs = [
            (_oracle_distance(chains[ci][-1].center, touches[ti].center), ci, ti)
            for ci in free_chains
            for ti in free_touches
        ]
        best = min(p[0] for p in pairs)
        tied = [p for p in pairs if p[0] - best < tie_tolerance]
        if len(tied) == 1:
            _, ci, ti = tied[0]
        else:
            _, ci, ti = _oracle_break_tie(tied, chains, touches)
        links.append((ci, ti))
        free_chains.discard(ci)
        free_touches.discard(ti)
    return links


def _oracle_break_tie(tied, chains, touches):
    # A lifting (low-opacity) touch terminates the oldest still-high
    # trajectory; anything left breaks on smaller x, then smaller y.
    fades = [
        p
        for p in tied
        if touches[p[2]].opacity is LOW
        and chains[p[1]][-1].opacity is HIGH
    ]
    if fades:
        return min(
            fades,
            key=lambda p: (
                chains[p[1]][0].frame,
                chains[p[1]][-1].center,
                touches[p[2]].center,
            ),
        )
    return min(
        tied,
        key=lambda p: (chains[p[1]][-1].center, touches[p[2]].center),
    )


def _oracle_split_at_fades(
    chain: list[TouchDetection],
) -> list[list[TouchDetection]]:
    """Cut after every low-opacity run followed by a high-opacity touch."""
    pieces: list[list[TouchDetection]] = []
    start = 0
    for i in range(1, len(chain)):
        if chain[i - 1].opacity is LOW and chain[i].opacity is HIGH:
            pieces.append(chain[start:i])
            start = i
    pieces.append(chain[start:])
    return pieces


def _oracle_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


# --- generators ---


@st.composite
def fingers(draw, first_frame=0):
    """Detections of 1-3 fingers starting near `first_frame`.

    Centers sit on a 10 px grid and move 0, 10 or 20 px a frame, so
    equal-distance ties (within the 8 px tolerance) and crossing paths
    are common. Each finger may end in a low-opacity fade, carry
    interior low runs, and lose frames to dropouts. A finger may trace
    the previous finger's path, so two touches share a center in one
    frame (told apart by their confidence; a trace holds no detection
    twice, so `traces` leaves out an equal copy). Some confidences fall
    below the filter threshold, which opens more gaps.
    """
    touches = []
    path = None
    for _ in range(draw(st.integers(1, 3))):
        if path is None or not draw(st.booleans()):
            path = (
                first_frame + draw(st.integers(0, 8)),
                *(draw(st.integers(40, 50)) * 10.0 for _ in "xy"),
                *(draw(st.sampled_from([-20.0, -10.0, 0.0, 10.0, 20.0])) for _ in "xy"),
            )
        # else: this finger traces the previous one's path exactly.
        start, x, y, dx, dy = path
        length = draw(st.integers(1, 14))
        fade = draw(st.integers(0, 3))
        lows = draw(st.sets(st.integers(0, length - 1), max_size=2))
        dropped = draw(st.sets(st.integers(0, length - 1), max_size=3))
        confidence = draw(st.sampled_from([0.65, 0.75, 0.8, 0.9]))
        for k in range(length):
            if k in dropped:
                continue
            low = k >= length - fade or k in lows
            touches.append(
                TouchDetection(
                    frame=start + k,
                    bbox=(x + dx * k - SIZE / 2, y + dy * k - SIZE / 2, SIZE, SIZE),
                    confidence=confidence,
                    opacity=LOW if low else HIGH,
                )
            )
    return touches


@st.composite
def traces(draw):
    """1-3 bursts of fingers, overlapping, adjacent or apart, in any
    detection order, on a profile whose touch slop is 1, 8 or 15 px."""
    touches = []
    first_frame = 0
    for _ in range(draw(st.integers(1, 3))):
        touches += draw(fingers(first_frame))
        first_frame += draw(st.integers(0, 24))
    slop = draw(st.sampled_from([1, DEFAULT_TOUCH_SLOP, 15]))
    profile = DeviceProfile(
        name="d", screen_width=1080, screen_height=1920, fps=30, touch_slop=slop
    )
    return DetectionTrace(
        profile=profile,
        detections=tuple(draw(st.permutations(list(dict.fromkeys(touches))))),
        frame_count=max((t.frame for t in touches), default=0) + 1,
    )


def _ids(chains):
    return [[id(t) for t in chain] for chain in chains]


def _runs(detections):
    """Every maximal run of consecutive non-empty frames, short or not."""
    runs = []
    for det in detections:
        if runs and det.frame <= runs[-1][-1].frame + 1:
            runs[-1].append(det)
        else:
            runs.append([det])
    return [
        _OracleFrameGroup(tuple(run), run[0].frame, run[-1].frame) for run in runs
    ]


def _assert_same_sequences(got, want):
    assert got == want
    assert _ids(s.touches for s in got) == _ids(s.touches for s in want)
    assert _ids(s.high_touches for s in got) == _ids(s.high_touches for s in want)


# --- properties ---


@given(traces(), st.sampled_from([MIN_CONFIDENCE, 0.8]))
@settings(max_examples=400, deadline=None)
def test_link_chains_matches_oracle(trace, min_confidence):
    # One pass over the filtered trace links what the old pipeline
    # linked run by run, in the same order.
    detections = filter_confidence(trace, Rules(min_confidence)).detections
    tolerance = float(trace.profile.touch_slop)
    want = [
        chain
        for run in _runs(detections)
        for chain in _oracle_link_chains(run, tolerance)
    ]
    assert _ids(segment._link_chains(detections, tolerance)) == _ids(want)


@given(traces(), st.sampled_from([MIN_CONFIDENCE, 0.8]))
@settings(max_examples=400, deadline=None)
def test_segment_trace_matches_oracle(trace, min_confidence):
    _assert_same_sequences(
        segment_trace(trace, Rules(min_confidence)),
        _oracle_segment_trace(trace, Rules(min_confidence)),
    )


@given(st.integers(0, 2**32 - 1), st.sampled_from(["physical-device", "emulator"]))
@settings(max_examples=40, deadline=None)
def test_noisy_synthetic_traces_match_oracle(seed, preset):
    scenario = random_scenario(PROFILE, seed=seed, n_actions=8)
    trace, _ = synthesize_trace(scenario, noise_preset(preset, seed=seed))
    _assert_same_sequences(segment_trace(trace), _oracle_segment_trace(trace))


# --- two-by-two frames, by hand ---


def _touch(frame, x, y, low=False, confidence=0.9):
    return TouchDetection(
        frame=frame,
        bbox=(x - SIZE / 2, y - SIZE / 2, SIZE, SIZE),
        confidence=confidence,
        opacity=LOW if low else HIGH,
    )


# Each case: one tuple of (x, y[, low[, confidence]]) touches per frame,
# how often `_break_tie` runs (once when the last frame's near-ties fall
# in both matchings, else never), and each chain's centers as linked.
TWO_BY_TWO = {
    "near-ties only in the straight matching": (
        [((100, 100), (300, 100)), ((105, 100), (297, 100))],
        0,
        [[(100, 100), (105, 100)], [(300, 100), (297, 100)]],
    ),
    "near-ties only in the crossed matching": (
        [((100, 200), (120, 100)), ((115, 200), (110, 100))],
        0,
        [[(100, 200), (115, 200)], [(120, 100), (110, 100)]],
    ),
    "equal distances in one matching": (
        [((100, 100), (300, 100)), ((104, 100), (304, 100))],
        0,
        [[(100, 100), (104, 100)], [(300, 100), (304, 100)]],
    ),
    "equal distances in both matchings": (
        [((100, 100), (120, 100)), ((110, 95), (110, 105))],
        1,
        [[(100, 100), (110, 95)], [(120, 100), (110, 105)]],
    ),
    # The lifting touch (106, 100) goes to the older chain, where the
    # x/y rule alone would give it the newer one: the crossed matching.
    "the fade rule decides": (
        [((100, 100),), ((100, 100), (110, 100)), ((104, 100), (106, 100, True))],
        1,
        [[(100, 100), (100, 100), (106, 100)], [(110, 100), (104, 100)]],
    ),
    # The newer chain ends left of the older one, so the x/y rule gives
    # it the left touch: the crossed matching.
    "the x/y rule decides": (
        [((110, 100),), ((110, 100), (100, 100)), ((104, 100), (106, 100))],
        1,
        [[(110, 100), (110, 100), (106, 100)], [(100, 100), (104, 100)]],
    ),
    "two touches sharing one center": (
        [((100, 100), (120, 100)), ((110, 100, False, 0.9), (110, 100, False, 0.8))],
        1,
        [[(100, 100), (110, 100)], [(120, 100), (110, 100)]],
    ),
    "two chains sharing one center": (
        [((100, 100, False, 0.9), (100, 100, False, 0.8)), ((103, 100), (120, 100))],
        1,
        [[(100, 100), (103, 100)], [(100, 100), (120, 100)]],
    ),
}


@pytest.mark.parametrize("frames, tie_breaks, centers",
                         TWO_BY_TWO.values(), ids=TWO_BY_TWO)
def test_two_by_two_frame_matches_oracle(monkeypatch, frames, tie_breaks, centers):
    # Only a last frame whose near-ties span both matchings reaches the
    # tie rules; elsewhere the nearest links decide the matching alone.
    break_tie = segment._break_tie
    calls = []

    def counted(*args):
        calls.append(args)
        return break_tie(*args)

    monkeypatch.setattr(segment, "_break_tie", counted)
    detections = tuple(
        _touch(frame, *touch) for frame, touches in enumerate(frames) for touch in touches
    )
    tolerance = float(DEFAULT_TOUCH_SLOP)
    got = segment._link_chains(detections, tolerance)
    want = [chain for run in _runs(detections) for chain in _oracle_link_chains(run, tolerance)]
    assert _ids(got) == _ids(want)
    assert [[t.center for t in chain] for chain in got] == centers
    assert len(calls) == tie_breaks
