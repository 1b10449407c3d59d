"""Confidence filtering and per-finger segmentation.

Detections at or above the `min_confidence` of the run's `model.Rules`
survive the confidence filter; they are linked frame to frame into
per-finger chains in one pass over the trace. A frame with no
detections closes every open chain (every finger has lifted); otherwise:

* a lone touch in the next frame continues the lone open chain;
  this rule is applied directly, without a pair search;
* with two open chains and two touches, the first link forces the
  second, so the result is the straight or the crossed matching; when
  every link within the tie tolerance of the nearest lies in one of
  them, that one is taken directly, and only near-ties in both go
  through the pair search and tie rules below;
* with several candidates, the spatially nearest pair links first
  (greedy over all open-chain x touch pairs);
* when candidate distances are within a tie tolerance of each other, a
  low-opacity touch (a lifting finger) is linked to the oldest open
  chain whose last touch is still high-opacity — it terminates that
  trajectory rather than the one that just started;
* any remaining tie breaks on smaller x, then smaller y.

After linking, chains are cut after every `LOW`-opacity run that is
followed by a `HIGH` touch (the low run is the fade tail closing the
earlier action), and anything two frames or shorter is discarded.
A run of two or fewer non-empty frames therefore never yields a
sequence.
"""

from __future__ import annotations

from itertools import groupby
from math import dist

from .errors import SchemaViolation
from .model import (
    HIGH, LOW, DetectionTrace, Frozen, Rules, TouchDetection, _center, _frame,
    _frame_and_center, _opacity, _tuple_of, _unchecked,
)

#: Sequences spanning this many frames or fewer are discarded.
MAX_DISCARD_FRAMES = 2


class TouchSequence(Frozen):
    """One finger's contact: touches in strictly increasing frames, gaps allowed.

    The constructor checks that the touches are `TouchDetection`s, then,
    in one walk, that they are not empty, that their frames strictly
    increase and that the low-opacity ones are a trailing fade suffix.
    `high_touches`, found in the same walk, is the prefix before the
    first low-opacity touch; like `center` on a detection, it is
    derived, so it takes no part in `==`, `hash` or `repr`. An
    `AtomicAction` (classify) is a sequence plus a kind, checked here.
    """

    _fields = ("touches",)

    def __init__(self, touches: tuple[TouchDetection, ...]):
        touches = _tuple_of(touches, TouchDetection,
                            "touches must be an iterable of TouchDetection")
        previous, highs, increasing, suffix = -1, None, True, True
        for i, touch in enumerate(touches):
            frame = touch.frame
            increasing = increasing and frame > previous
            previous = frame
            if touch.opacity == LOW:
                if highs is None:
                    highs = i
            elif highs is not None:
                suffix = False
        if not touches:
            raise SchemaViolation("touch sequence cannot be empty")
        if not increasing:
            frames = [t.frame for t in touches]
            raise SchemaViolation(f"sequence frames must strictly increase: {frames}")
        if not suffix:
            raise SchemaViolation(
                "high-opacity touch after a low-opacity one; fades must be a suffix"
            )
        self._set(touches, high_touches=touches[:highs])

    @property
    def start_frame(self) -> int:
        return self.touches[0].frame

    @property
    def end_frame(self) -> int:
        return self.touches[-1].frame

    @property
    def last_high_frame(self) -> int:
        """Last high-opacity (active) frame; the start frame if none."""
        highs = self.high_touches
        return highs[-1].frame if highs else self.start_frame


def filter_confidence(trace: DetectionTrace, rules: Rules = Rules()) -> DetectionTrace:
    """Drop detections whose confidence is strictly below `rules.min_confidence`."""
    min_confidence = rules.min_confidence
    kept = tuple([d for d in trace.detections if d.confidence >= min_confidence])
    # A subset of a validated, sorted trace needs no second validation.
    return _unchecked(
        DetectionTrace, profile=trace.profile, detections=kept,
        frame_count=trace.frame_count,
    )


def segment_trace(trace: DetectionTrace, rules: Rules = Rules()) -> list[TouchSequence]:
    """Full front half: filter by `rules`, link, and cut a trace into sequences."""
    filtered = filter_confidence(trace, rules)
    chains = _link_chains(filtered.detections, float(trace.profile.touch_slop))
    sequences: list[TouchSequence] = []
    for chain in chains:
        _split_at_fades(chain, sequences)
    sequences.sort(key=lambda s: _frame_and_center(s.touches[0]))
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
    done.sort(key=lambda c: _frame_and_center(c[0]))
    return done


def _greedy_match(
    chains: list[list[TouchDetection]],
    touches: list[TouchDetection],
    tie_tolerance: float,
) -> list[tuple[int, int]]:
    """Repeatedly link the globally nearest open-chain/touch pair, from
    one distance table that drops a linked chain's and touch's rows."""
    if len(chains) == 2 == len(touches):
        # The first link forces the second: when every near-tie lies in the
        # straight or in the crossed matching, the greedy returns that one.
        a, b = chains[0][-1].center, chains[1][-1].center
        c, d = touches[0].center, touches[1].center
        d00, d01, d10, d11 = dist(a, c), dist(a, d), dist(b, c), dist(b, d)
        best = min(d00, d01, d10, d11)
        straight = d00 - best < tie_tolerance or d11 - best < tie_tolerance
        crossed = d01 - best < tie_tolerance or d10 - best < tie_tolerance
        if straight != crossed:
            return [(0, 0), (1, 1)] if straight else [(0, 1), (1, 0)]
    pairs = [
        (dist(chain[-1].center, touch.center), ci, ti)
        for ci, chain in enumerate(chains)
        for ti, touch in enumerate(touches)
    ]
    links: list[tuple[int, int]] = []
    while pairs:
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
        if touches[p[2]].opacity == LOW
        and chains[p[1]][-1].opacity == HIGH
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
    opacities = [*map(_opacity, chain), LOW, HIGH]
    end = len(chain)
    start = 0
    while start < end:
        low = min(opacities.index(LOW, start), end)
        cut = min(opacities.index(HIGH, low), end)
        if chain[cut - 1].frame - chain[start].frame + 1 > MAX_DISCARD_FRAMES:
            touches = tuple(chain[start:cut])
            sequences.append(_unchecked(
                TouchSequence, touches=touches, high_touches=touches[: low - start]
            ))
        start = cut
