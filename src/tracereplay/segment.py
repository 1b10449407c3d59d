"""Confidence filtering, frame grouping, and per-finger segmentation.

Detections that survive the confidence filter are grouped into maximal
runs of consecutive non-empty frames, then each run is segmented into
per-finger touch sequences by linking touches frame to frame:

* a lone touch in the next frame continues the lone open sequence;
  this rule is applied directly, without a pair search;
* with several candidates, the spatially nearest pair links first
  (greedy over all open-sequence x touch pairs);
* when candidate distances are within a tie tolerance of each other, a
  low-opacity touch (a lifting finger) is linked to the oldest open
  sequence whose last touch is still high-opacity — it terminates that
  trajectory rather than the one that just started;
* any remaining tie breaks on smaller x, then smaller y.

After linking, chains are cut after every low-opacity run that is
followed by a high-opacity touch (the low run is the fade tail closing
the earlier action), and anything two frames or shorter is discarded.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import SchemaViolation
from .model import DEFAULT_TOUCH_SLOP, DetectionTrace, Opacity, TouchDetection

#: Detections below this confidence are dropped before grouping.
MIN_CONFIDENCE = 0.7

#: Groups and sequences spanning this many frames or fewer are discarded.
MAX_DISCARD_FRAMES = 2

_frame = attrgetter("frame")
_center = attrgetter("center")


@dataclass(frozen=True)
class FrameGroup:
    """Detections occupying one run of consecutive non-empty frames."""

    detections: tuple[TouchDetection, ...]
    start_frame: int
    end_frame: int

    @property
    def span(self) -> int:
        return self.end_frame - self.start_frame + 1


@dataclass(frozen=True)
class TouchSequence:
    """One finger's contiguous contact: one touch per consecutive frame.

    Low-opacity touches may only appear as a trailing fade suffix, so
    `high_touches`, worked out once when the sequence is built, is the
    prefix before the first low-opacity touch.
    """

    touches: tuple[TouchDetection, ...]
    high_touches: tuple[TouchDetection, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        touches = tuple(self.touches)
        object.__setattr__(self, "touches", touches)
        if not touches:
            raise SchemaViolation("touch sequence cannot be empty")
        frames = [t.frame for t in touches]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise SchemaViolation(f"sequence frames must strictly increase: {frames}")
        highs = next(
            (i for i, t in enumerate(touches) if t.opacity is Opacity.LOW), len(touches)
        )
        if any(t.opacity is Opacity.HIGH for t in touches[highs:]):
            raise SchemaViolation(
                "high-opacity touch after a low-opacity one; fades must be a suffix"
            )
        object.__setattr__(self, "high_touches", touches[:highs])

    @property
    def start_frame(self) -> int:
        return self.touches[0].frame

    @property
    def end_frame(self) -> int:
        return self.touches[-1].frame

    @property
    def last_high_frame(self) -> int:
        """Frame of the last high-opacity touch; start frame if none."""
        highs = self.high_touches
        return highs[-1].frame if highs else self.start_frame

    def __len__(self) -> int:
        return len(self.touches)


def filter_confidence(
    trace: DetectionTrace, min_confidence: float = MIN_CONFIDENCE
) -> DetectionTrace:
    """Drop detections whose confidence is strictly below the threshold."""
    kept = tuple(d for d in trace.detections if d.confidence >= min_confidence)
    # A subset of a validated, sorted trace needs no second validation.
    return DetectionTrace._validated(trace.profile, kept, trace.frame_count)


def group_consecutive(trace: DetectionTrace) -> list[FrameGroup]:
    """Group detections into maximal runs of consecutive non-empty frames.

    Runs spanning two frames or fewer are discarded as spurious.
    """
    detections = trace.detections  # sorted by frame
    groups: list[FrameGroup] = []
    start = 0
    for i in range(1, len(detections) + 1):
        if i < len(detections) and detections[i].frame <= detections[i - 1].frame + 1:
            continue
        first, last = detections[start].frame, detections[i - 1].frame
        if last - first + 1 > MAX_DISCARD_FRAMES:
            groups.append(
                FrameGroup(
                    detections=detections[start:i], start_frame=first, end_frame=last
                )
            )
        start = i
    return groups


def segment_actions(
    group: FrameGroup, touch_slop: int = DEFAULT_TOUCH_SLOP
) -> list[TouchSequence]:
    """Split one frame group into per-finger touch sequences.

    `touch_slop` doubles as the distance tie tolerance: two candidate
    links count as equally near when their distances differ by less.
    """
    chains = _link_chains(group, tie_tolerance=float(touch_slop))
    sequences: list[TouchSequence] = []
    for chain in chains:
        for piece in _split_at_fades(chain):
            if piece[-1].frame - piece[0].frame + 1 > MAX_DISCARD_FRAMES:
                sequences.append(TouchSequence(touches=tuple(piece)))
    sequences.sort(key=lambda s: (s.start_frame, s.touches[0].center))
    return sequences


def segment_trace(
    trace: DetectionTrace, min_confidence: float = MIN_CONFIDENCE
) -> list[TouchSequence]:
    """Full front half: filter, group, and segment a trace."""
    filtered = filter_confidence(trace, min_confidence)
    sequences: list[TouchSequence] = []
    for group in group_consecutive(filtered):
        sequences.extend(segment_actions(group, trace.profile.touch_slop))
    sequences.sort(key=lambda s: (s.start_frame, s.touches[0].center))
    return sequences


def _link_chains(
    group: FrameGroup, tie_tolerance: float
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
        links = _greedy_match(open_chains, touches, tie_tolerance)
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


def _greedy_match(
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
            (_distance(chains[ci][-1].center, touches[ti].center), ci, ti)
            for ci in free_chains
            for ti in free_touches
        ]
        best = min(p[0] for p in pairs)
        tied = [p for p in pairs if p[0] - best < tie_tolerance]
        if len(tied) == 1:
            _, ci, ti = tied[0]
        else:
            _, ci, ti = _break_tie(tied, chains, touches)
        links.append((ci, ti))
        free_chains.discard(ci)
        free_touches.discard(ti)
    return links


def _break_tie(tied, chains, touches):
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


def _split_at_fades(
    chain: list[TouchDetection],
) -> list[list[TouchDetection]]:
    """Cut after every low-opacity run followed by a high-opacity touch."""
    pieces: list[list[TouchDetection]] = []
    start = 0
    for i in range(1, len(chain)):
        if chain[i - 1].opacity is Opacity.LOW and chain[i].opacity is Opacity.HIGH:
            pieces.append(chain[start:i])
            start = i
    pieces.append(chain[start:])
    return pieces


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])

