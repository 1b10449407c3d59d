"""Confidence filtering and per-finger segmentation.

Detections that survive the confidence filter are linked frame to frame
into per-finger chains in one pass over the trace. A frame with no
detections closes every open chain (every finger has lifted); otherwise:

* a lone touch in the next frame continues the lone open chain;
  this rule is applied directly, without a pair search;
* with several candidates, the spatially nearest pair links first
  (greedy over all open-chain x touch pairs);
* when candidate distances are within a tie tolerance of each other, a
  low-opacity touch (a lifting finger) is linked to the oldest open
  chain whose last touch is still high-opacity — it terminates that
  trajectory rather than the one that just started;
* any remaining tie breaks on smaller x, then smaller y.

After linking, chains are cut after every low-opacity run that is
followed by a high-opacity touch (the low run is the fade tail closing
the earlier action), and anything two frames or shorter is discarded.
A run of two or fewer non-empty frames therefore never yields a
sequence.
"""

from __future__ import annotations

from itertools import groupby
from math import dist
from operator import attrgetter

from .errors import SchemaViolation
from .model import DetectionTrace, Frozen, Opacity, TouchDetection, _unchecked

#: Detections below this confidence are dropped before linking.
MIN_CONFIDENCE = 0.7

#: Sequences spanning this many frames or fewer are discarded.
MAX_DISCARD_FRAMES = 2

_frame = attrgetter("frame")
_center = attrgetter("center")
_opacity = attrgetter("opacity")


class TouchSequence(Frozen):
    """One finger's contiguous contact: one touch per consecutive frame.

    Low-opacity touches may only appear as a trailing fade suffix, so
    `high_touches`, worked out once when the sequence is built, is the
    prefix before the first low-opacity touch; like `center` on a
    detection, it takes no part in `==`, `hash` or `repr`.
    """

    _fields = ("touches",)

    def __init__(self, touches: tuple[TouchDetection, ...]):
        touches = tuple(touches)
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
        self._set(touches, high_touches=touches[:highs])

    @classmethod
    def _validated(cls, touches: tuple, high_touches: tuple) -> "TouchSequence":
        """Build from non-empty touches in strictly increasing frames whose
        fades are a suffix; `high_touches` is the part before the fades."""
        return _unchecked(cls, touches=touches, high_touches=high_touches)

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


def segment_trace(
    trace: DetectionTrace, min_confidence: float = MIN_CONFIDENCE
) -> list[TouchSequence]:
    """Full front half: filter, link, and cut a trace into sequences."""
    filtered = filter_confidence(trace, min_confidence)
    chains = _link_chains(filtered.detections, float(trace.profile.touch_slop))
    sequences: list[TouchSequence] = []
    for chain in chains:
        _split_at_fades(chain, sequences)
    sequences.sort(key=lambda s: (s.start_frame, s.touches[0].center))
    return sequences


def _link_chains(
    detections: tuple[TouchDetection, ...], tie_tolerance: float
) -> list[list[TouchDetection]]:
    """Link frame-sorted detections into per-finger chains; two links
    are equally near when their distances differ by < `tie_tolerance`."""
    open_chains: list[list[TouchDetection]] = []
    done: list[list[TouchDetection]] = []
    previous = -2
    for frame, in_frame in groupby(detections, _frame):
        touches = list(in_frame)
        if frame != previous + 1:
            # An empty frame in between: every finger has lifted.
            done += open_chains
            open_chains = []
        previous = frame
        if len(touches) == 1 and len(open_chains) == 1:
            # A lone touch continues the lone open chain: no pair search.
            open_chains[0].append(touches[0])
            continue
        touches.sort(key=_center)
        if not open_chains:
            open_chains = [[touch] for touch in touches]
            continue
        links = _greedy_match(open_chains, touches, tie_tolerance)
        for ci, ti in links:
            open_chains[ci].append(touches[ti])
        if len(links) < len(open_chains):
            # A finger with no touch this frame has lifted: close its chain.
            linked = {ci for ci, _ in links}
            still_open = []
            for ci, chain in enumerate(open_chains):
                (still_open if ci in linked else done).append(chain)
            open_chains = still_open
        if len(links) < len(touches):
            # A touch no chain took is a new finger.
            linked = {ti for _, ti in links}
            open_chains += [[t] for ti, t in enumerate(touches) if ti not in linked]
    done += open_chains
    done.sort(key=lambda c: (c[0].frame, c[0].center))
    return done


def _greedy_match(
    chains: list[list[TouchDetection]],
    touches: list[TouchDetection],
    tie_tolerance: float,
) -> list[tuple[int, int]]:
    """Repeatedly link the globally nearest open-chain/touch pair, from
    one distance table that drops a linked chain's and touch's rows."""
    pairs = [
        (dist(chain[-1].center, touch.center), ci, ti)
        for ci, chain in enumerate(chains)
        for ti, touch in enumerate(touches)
    ]
    links: list[tuple[int, int]] = []
    while pairs:
        if len(pairs) == 1:  # the last free pair: nothing to compare
            links.append(pairs[0][1:])
            break
        best = min(pairs)[0]
        tied = [p for p in pairs if p[0] - best < tie_tolerance]
        if len(tied) == 1:
            _, ci, ti = tied[0]
        else:
            _, ci, ti = _break_tie(tied, chains, touches)
        links.append((ci, ti))
        pairs = [p for p in pairs if p[1] != ci and p[2] != ti]
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
    chain: list[TouchDetection], sequences: list[TouchSequence]
) -> None:
    """Cut after every low-opacity run followed by a high-opacity touch,
    appending each piece longer than MAX_DISCARD_FRAMES to `sequences`.

    Each piece is a valid sequence as it is cut: the chain's frames
    strictly increase, and a piece's low-opacity touches are a suffix.
    """
    # Sentinels: every search for the next low, then high, touch succeeds.
    opacities = [*map(_opacity, chain), Opacity.LOW, Opacity.HIGH]
    end = len(chain)
    start = 0
    while start < end:
        low = min(opacities.index(Opacity.LOW, start), end)
        cut = min(opacities.index(Opacity.HIGH, low), end)
        if chain[cut - 1].frame - chain[start].frame + 1 > MAX_DISCARD_FRAMES:
            touches = tuple(chain[start:cut])
            sequences.append(
                TouchSequence._validated(touches, touches[: low - start])
            )
        start = cut
