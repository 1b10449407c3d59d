"""Differential test of grouping, linking and fade splitting against
reference implementations.

The `_oracle_*` functions are these stages as they were before the
lone-touch shortcut and the slice-based frame walks: `by_frame` dicts,
a greedy pair search on every frame, and a look-ahead fade splitter.
Generated frame groups and traces must link to exactly the same chains,
detection for detection, and segment into the same sequences.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from tracereplay import segment
from tracereplay.model import DetectionTrace, DeviceProfile, Opacity, TouchDetection
from tracereplay.segment import (
    MAX_DISCARD_FRAMES,
    FrameGroup,
    segment_actions,
    segment_trace,
)
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

PROFILE = DeviceProfile(name="d", screen_width=1080, screen_height=1920, fps=30)
SIZE = 40.0


# --- reference stages, copied unchanged from the previous segment.py ---


def _oracle_group_consecutive(trace: DetectionTrace) -> list[FrameGroup]:
    """Group detections into maximal runs of consecutive non-empty frames.

    Runs spanning two frames or fewer are discarded as spurious.
    """
    by_frame: dict[int, list[TouchDetection]] = {}
    for det in trace.detections:
        by_frame.setdefault(det.frame, []).append(det)

    groups: list[FrameGroup] = []
    frames = sorted(by_frame)
    run: list[int] = []
    for frame in frames:
        if run and frame != run[-1] + 1:
            _oracle_close_run(groups, run, by_frame)
            run = []
        run.append(frame)
    _oracle_close_run(groups, run, by_frame)
    return groups


def _oracle_close_run(groups, run, by_frame):
    if not run or run[-1] - run[0] + 1 <= MAX_DISCARD_FRAMES:
        return
    detections = tuple(d for f in run for d in by_frame[f])
    groups.append(
        FrameGroup(detections=detections, start_frame=run[0], end_frame=run[-1])
    )


def _oracle_link_chains(
    group: FrameGroup, tie_tolerance: float
) -> list[list[TouchDetection]]:
    by_frame: dict[int, list[TouchDetection]] = {}
    for det in group.detections:
        by_frame.setdefault(det.frame, []).append(det)

    open_chains: list[list[TouchDetection]] = []
    done: list[list[TouchDetection]] = []
    for frame in range(group.start_frame, group.end_frame + 1):
        touches = sorted(by_frame.get(frame, ()), key=lambda t: t.center)
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
        if touches[p[2]].opacity is Opacity.LOW
        and chains[p[1]][-1].opacity is Opacity.HIGH
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
    current: list[TouchDetection] = []
    for i, touch in enumerate(chain):
        current.append(touch)
        nxt = chain[i + 1] if i + 1 < len(chain) else None
        if (
            touch.opacity is Opacity.LOW
            and nxt is not None
            and nxt.opacity is Opacity.HIGH
        ):
            pieces.append(current)
            current = []
    if current:
        pieces.append(current)
    return pieces


def _oracle_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


@contextmanager
def _oracle_stages():
    with patch.multiple(
        segment,
        group_consecutive=_oracle_group_consecutive,
        _link_chains=_oracle_link_chains,
        _split_at_fades=_oracle_split_at_fades,
    ):
        yield


# --- generators ---


@st.composite
def fingers(draw):
    """Detections of 1-3 fingers, in generation order.

    Centers sit on a 10 px grid and move 0, 10 or 20 px a frame, so
    equal-distance ties (within the 8 px tolerance) and crossing paths
    are common. Each finger may end in a low-opacity fade, carry
    interior low runs, and lose frames to dropouts. A finger may trace
    the previous finger's path, so two touches share a center in one
    frame (told apart by their confidence).
    """
    touches = []
    path = None
    for _ in range(draw(st.integers(1, 3))):
        if path is None or not draw(st.booleans()):
            path = (
                draw(st.integers(0, 8)),
                *(draw(st.integers(40, 50)) * 10.0 for _ in "xy"),
                *(draw(st.sampled_from([-20.0, -10.0, 0.0, 10.0, 20.0])) for _ in "xy"),
            )
        # else: this finger traces the previous one's path exactly.
        start, x, y, dx, dy = path
        length = draw(st.integers(1, 14))
        fade = draw(st.integers(0, 3))
        lows = draw(st.sets(st.integers(0, length - 1), max_size=2))
        dropped = draw(st.sets(st.integers(0, length - 1), max_size=3))
        confidence = draw(st.sampled_from([0.75, 0.8, 0.9]))
        for k in range(length):
            if k in dropped:
                continue
            low = k >= length - fade or k in lows
            touches.append(
                TouchDetection(
                    frame=start + k,
                    bbox=(x + dx * k - SIZE / 2, y + dy * k - SIZE / 2, SIZE, SIZE),
                    confidence=confidence,
                    opacity=Opacity.LOW if low else Opacity.HIGH,
                )
            )
    return touches


@st.composite
def frame_groups(draw):
    """Hand-built groups: any detection order, gaps, and a frame range
    that may be wider or narrower than the detections'."""
    touches = draw(st.permutations(draw(fingers().filter(bool))))
    frames = [t.frame for t in touches]
    start = min(frames) + draw(st.integers(-2, 2))
    end = max(frames) + draw(st.integers(-2, 2))
    return FrameGroup(detections=tuple(touches), start_frame=start, end_frame=end)


def _ids(chains):
    return [[id(t) for t in chain] for chain in chains]


def _groups(groups):
    return [(g.start_frame, g.end_frame, _ids([g.detections])) for g in groups]


# --- properties ---


@given(frame_groups(), st.sampled_from([1.0, 8.0, 15.0]))
@settings(max_examples=400, deadline=None)
def test_link_chains_matches_oracle(group, tolerance):
    assert _ids(segment._link_chains(group, tolerance)) == _ids(
        _oracle_link_chains(group, tolerance)
    )


@given(frame_groups(), st.sampled_from([1, 8, 15]))
@settings(max_examples=300, deadline=None)
def test_segment_actions_matches_oracle(group, slop):
    got = segment_actions(group, slop)
    with _oracle_stages():
        want = segment_actions(group, slop)
    assert got == want
    assert _ids(s.touches for s in got) == _ids(s.touches for s in want)


@given(fingers(), st.sampled_from([0.7, 0.8]))
@settings(max_examples=300, deadline=None)
def test_segment_trace_matches_oracle(touches, min_confidence):
    trace = DetectionTrace(
        profile=PROFILE,
        detections=tuple(touches),
        frame_count=max((t.frame for t in touches), default=0) + 1,
    )
    assert _groups(segment.group_consecutive(trace)) == _groups(
        _oracle_group_consecutive(trace)
    )
    got = segment_trace(trace, min_confidence)
    with _oracle_stages():
        want = segment_trace(trace, min_confidence)
    assert got == want
    assert _ids(s.touches for s in got) == _ids(s.touches for s in want)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["physical-device", "emulator"]))
@settings(max_examples=40, deadline=None)
def test_noisy_synthetic_traces_match_oracle(seed, preset):
    scenario = random_scenario(PROFILE, seed=seed, n_actions=8)
    trace, _ = synthesize_trace(scenario, noise_preset(preset, seed=seed))
    got = segment_trace(trace)
    with _oracle_stages():
        want = segment_trace(trace)
    assert got == want
    assert _ids(s.touches for s in got) == _ids(s.touches for s in want)
