"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion. All seeds are fixed; every check is deterministic.
"""

import itertools
import random
import time

import pytest

from tracereplay.classify import (
    AtomicAction,
    ClassifiedScenario,
    MultiFingerItem,
    classify_action,
    classify_trace,
    group_overlapping,
    identify_sfa_mfa,
)
from tracereplay.codegen import (
    ABS_MT_POSITION_X,
    ABS_MT_POSITION_Y,
    ABS_MT_SLOT,
    ABS_MT_TRACKING_ID,
    EV_ABS,
    EV_SYN,
    TRACKING_RELEASE,
    assemble_script,
    parse_runnable,
    parse_script,
    serialize_script,
    translate_runnable,
    validate_script,
)
from tracereplay.metrics import lcs_length, lcs_ratio, levenshtein
from tracereplay.model import HIGH, LOW, DetectionTrace, DeviceProfile
from tracereplay.segment import TouchSequence, filter_confidence, segment_trace
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

from conftest import make_sequence, make_touch
from type_b import check_type_b

PROFILE = DeviceProfile(name="nexus5", screen_width=1080, screen_height=1920, fps=30)
N_SCENARIOS = 200
SCENARIO_SEED_BASE = 1000
NOISE_SEED_BASE = 5000


def report(criterion, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} ({name}): {status}  {detail}".rstrip())
    assert passed, f"criterion {criterion} ({name}) failed: {detail}"


def run_batch(preset_name):
    """(predicted symbols, true symbols, classified scenario) per trace."""
    results = []
    for i in range(N_SCENARIOS):
        scenario = random_scenario(PROFILE, seed=SCENARIO_SEED_BASE + i)
        noise = noise_preset(preset_name, seed=NOISE_SEED_BASE + i)
        trace, truth = synthesize_trace(scenario, noise)
        classified = classify_trace(trace)
        results.append((classified.symbols(extended=True), truth, classified))
    return results


class TestCriterion1ZeroNoiseRoundTrip:
    def test_exact_recovery_for_all_scenarios(self):
        start = time.perf_counter()
        results = run_batch("clean")
        elapsed = time.perf_counter() - start
        exact = sum(
            1
            for pred, truth, _ in results
            if levenshtein(pred, truth) == 0 and lcs_ratio(pred, truth) == 1.0
        )
        report(
            1,
            "zero-noise round trip",
            exact == N_SCENARIOS and elapsed < 10.0,
            f"{exact}/{N_SCENARIOS} exact, {elapsed:.2f}s (< 10s)",
        )


class TestCriterion2NoisyRobustness:
    def test_physical_device_preset(self):
        results = run_batch("physical-device")
        mean_lcs = sum(lcs_ratio(p, t) for p, t, _ in results) / len(results)
        report(
            2,
            "noisy robustness / physical-device",
            mean_lcs >= 0.90,
            f"mean lcs_ratio {mean_lcs:.4f} (>= 0.90)",
        )

    def test_emulator_preset(self):
        results = run_batch("emulator")
        mean_lcs = sum(lcs_ratio(p, t) for p, t, _ in results) / len(results)
        report(
            2,
            "noisy robustness / emulator",
            mean_lcs >= 0.80,
            f"mean lcs_ratio {mean_lcs:.4f} (>= 0.80)",
        )


class TestCriterion8CompileTotality:
    """Kept apart from criterion 1, so its timed loop does not assemble."""

    @pytest.mark.parametrize("preset", ["clean", "physical-device", "emulator"])
    def test_every_batch_trace_assembles(self, preset):
        """Every batch trace compiles to the scenario's contacts, each
        sample and release at its frame's time (see `check_type_b`)."""
        failures = []
        for i, (_, _, classified) in enumerate(run_batch(preset)):
            try:
                check_type_b(translate_runnable(assemble_script(classified)), classified)
            except Exception as exc:  # noqa: BLE001 - recorded as failure
                failures.append(f"{i}: {type(exc).__name__}: {exc}")
        report(
            8,
            f"compile totality / {preset}",
            not failures,
            f"{N_SCENARIOS - len(failures)}/{N_SCENARIOS} assemble, "
            f"failures: {failures[:3] if failures else 'none'}",
        )


def interval_action(start, end, x=100.0, y=100.0):
    """Interval stand-in: one touch at each end (grouping reads extents)."""
    touches = (make_touch(start, x, y),)
    if end > start:
        touches += (make_touch(end, x, y),)
    return AtomicAction(kind="gesture", touches=touches)


def oracle_partition(actions):
    """Connected components of the chronological frame-overlap graph:
    actions sorted by start, the later-starting one must begin strictly
    before the earlier one's last frame."""
    order = sorted(range(len(actions)),
                   key=lambda i: (actions[i].start_frame, actions[i].end_frame))
    parent = list(range(len(actions)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            earlier, later = actions[order[a]], actions[order[b]]
            if later.start_frame < earlier.end_frame:
                ri, rj = find(order[a]), find(order[b])
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(len(actions)):
        groups.setdefault(find(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}


class TestCriterion3GroupingOracle:
    def test_stack_equals_interval_overlap_oracle(self):
        rng = random.Random(77)
        mismatches = 0
        for _ in range(10_000):
            n = rng.randrange(1, 11)
            actions = []
            for k in range(n):
                start = rng.randrange(0, 120)
                length = rng.randrange(0, 40)
                actions.append(
                    interval_action(start, start + length, x=60.0 + 10.0 * k)
                )
            index_of = {id(a): i for i, a in enumerate(actions)}
            got = {
                frozenset(index_of[id(a)] for a in group)
                for group in group_overlapping(actions)
            }
            if got != oracle_partition(actions):
                mismatches += 1
        report(
            3,
            "stack grouping vs brute-force oracle",
            mismatches == 0,
            f"0 mismatches required, got {mismatches} over 10,000 instances",
        )


class TestCriterion4ThresholdBoundaries:
    def test_tap_cutoff_20_frames(self):
        tap = classify_action(make_sequence(0, 20, 300, 300), PROFILE)
        long_tap = classify_action(make_sequence(0, 21, 300, 300), PROFILE)
        report(
            "4a",
            "tap cutoff 20/21 frames",
            tap.kind == "tap" and long_tap.kind == "long_tap",
            f"20f -> {tap.kind}, 21f -> {long_tap.kind}",
        )

    def test_touch_slop_8px(self):
        at_slop = TouchSequence(
            tuple(make_touch(f, 300, 300) for f in range(9))
            + (make_touch(9, 308, 300),)
        )
        beyond = TouchSequence(
            tuple(make_touch(f, 300, 300) for f in range(9))
            + (make_touch(9, 309, 300),)
        )
        a = classify_action(at_slop, PROFILE)
        b = classify_action(beyond, PROFILE)
        report(
            "4b",
            "touch slop 8px boundary",
            a.kind == "tap" and b.kind == "gesture",
            f"8px -> {a.kind}, 9px -> {b.kind}",
        )

    def test_confidence_0_7(self):
        touches = [
            make_touch(0, 100, 100, confidence=0.9),
            make_touch(1, 100, 100, confidence=0.69),
            make_touch(2, 100, 100, confidence=0.7),
        ]
        trace = DetectionTrace(
            profile=PROFILE, detections=tuple(touches), frame_count=3
        )
        kept = [d.confidence for d in filter_confidence(trace).detections]
        report(
            "4c",
            "confidence 0.7 boundary",
            kept == [0.9, 0.7],
            f"kept {kept} from [0.9, 0.69, 0.7]",
        )

    def test_strict_50_percent_gate(self):
        # Exactly half multi-touch frames stays single-fingered; a
        # strict majority becomes multi-fingered.
        at_half = [
            classify_action(make_sequence(0, 10, 100, 100), PROFILE),
            classify_action(make_sequence(5, 10, 600, 100), PROFILE),
        ]
        over_half = [
            classify_action(make_sequence(0, 10, 100, 100), PROFILE),
            classify_action(make_sequence(1, 10, 600, 100), PROFILE),
        ]
        half_items = identify_sfa_mfa(at_half, PROFILE).items
        over_items = identify_sfa_mfa(over_half, PROFILE).items
        ok = all(isinstance(i, AtomicAction) for i in half_items) and [
            isinstance(i, MultiFingerItem) for i in over_items
        ] == [True]
        report(
            "4d",
            "strict 50% multi-touch gate",
            ok,
            f"50% -> {len(half_items)} SFAs, >50% -> 1 MFA",
        )

    def test_two_frame_discard(self):
        two = [make_touch(f, 100, 100) for f in (3, 4)]
        three = [make_touch(f, 100, 100) for f in (3, 4, 5)]
        trace2 = DetectionTrace(profile=PROFILE, detections=tuple(two),
                                frame_count=6)
        trace3 = DetectionTrace(profile=PROFILE, detections=tuple(three),
                                frame_count=6)
        runs2 = segment_trace(trace2)
        runs3 = segment_trace(trace3)
        items2 = classify_trace(trace2).items
        ok = runs2 == [] and len(runs3) == 1 and items2 == ()
        report(
            "4e",
            "<= 2 frame discard",
            ok,
            f"2-frame run kept: {bool(runs2)}, 3-frame kept: {bool(runs3)}, "
            f"2-frame action kept: {bool(items2)}",
        )


def random_classified_scenario(rng) -> ClassifiedScenario:
    """Valid scenario with non-overlapping emit windows, 1..4 fingers."""
    items = []
    cursor = rng.randrange(0, 12)
    for _ in range(rng.randrange(1, 8)):
        roll = rng.random()
        if roll < 0.6:  # single finger
            frames = rng.randrange(3, 35)
            x = rng.uniform(60, 1000)
            y = rng.uniform(60, 1850)
            dx = rng.uniform(-4, 4) if rng.random() < 0.5 else 0.0
            fade = rng.randrange(0, 4)
            action = classify_action(
                make_sequence(cursor, frames, x, y, dx=dx, fade_frames=fade),
                PROFILE,
            )
            items.append(action)
            end = cursor + action.last_high_frame - action.start_frame + 1
        else:  # multi finger, staggered windows allowed
            n_fingers = rng.randrange(2, 5)
            frames = rng.randrange(8, 30)
            fingers = []
            for k in range(n_fingers):
                stagger = rng.randrange(0, 3)
                length = max(frames - rng.randrange(0, 4) - stagger, 3)
                fingers.append(
                    classify_action(
                        make_sequence(
                            cursor + stagger,
                            length,
                            120.0 + 220.0 * k,
                            500.0 + 40.0 * k,
                            dx=rng.uniform(-3, 3),
                        ),
                        PROFILE,
                    )
                )
            items.append(
                MultiFingerItem(actions=tuple(fingers), finger_count=n_fingers)
            )
            end = max(f.last_high_frame for f in fingers)
        cursor = end + rng.randrange(2, 12)
    return ClassifiedScenario(profile=PROFILE, items=tuple(items))


def check_contact_cadence(script):
    """Per contact, consecutive coordinate samples sit one frame apart."""
    period = 1_000_000 / script.profile.fps
    slot = 0
    contact_of_slot = {}
    last_sample = {}  # contact id -> timestamp of its last coordinate window
    window_touched = {}
    for t_us, etype, code, value in script.events:
        if etype == EV_ABS and code == ABS_MT_SLOT:
            slot = value
        elif etype == EV_ABS and code == ABS_MT_TRACKING_ID:
            if value == TRACKING_RELEASE:
                contact_of_slot.pop(slot, None)
            else:
                contact_of_slot[slot] = value
        elif etype == EV_ABS and code in (
            ABS_MT_POSITION_X,
            ABS_MT_POSITION_Y,
        ):
            contact = contact_of_slot.get(slot)
            if contact is not None:
                window_touched[contact] = t_us
        elif etype == EV_SYN:
            for contact, t in window_touched.items():
                if contact in last_sample:
                    delta = t - last_sample[contact]
                    if abs(delta - period) > 500:
                        return False
                last_sample[contact] = t
            window_touched = {}
    return True


class TestCriterion5CodegenFuzz:
    def test_well_formed_and_lossless(self):
        rng = random.Random(4242)
        failures = []
        for i in range(1000):
            scenario = random_classified_scenario(rng)
            script = assemble_script(scenario)
            try:
                validate_script(script)  # balanced, monotone, on-screen
            except Exception as exc:  # noqa: BLE001 - recorded as failure
                failures.append(f"{i}: {exc}")
                continue
            if not check_contact_cadence(script):
                failures.append(f"{i}: cadence")
            if parse_script(serialize_script(script)) != script:
                failures.append(f"{i}: log round trip")
            if tuple(parse_runnable(translate_runnable(script))) != script.events:
                failures.append(f"{i}: runnable round trip")
        report(
            5,
            "codegen well-formedness fuzz",
            not failures,
            f"1000 scenarios, failures: {failures[:3] if failures else 'none'}",
        )


def brute_levenshtein(a, b):
    """Exhaustive iterative-deepening search over edit scripts (no
    memoization, no DP table): the distance is the smallest budget for
    which some insert/delete/substitute script transforms a into b."""
    m, n = len(a), len(b)

    def within(i, j, budget):
        while i < m and j < n and a[i] == b[j]:
            i += 1
            j += 1
        if budget < abs((m - i) - (n - j)):
            return False
        if i == m or j == n:
            return True  # only inserts/deletes remain, within budget
        return (
            within(i + 1, j + 1, budget - 1)
            or within(i + 1, j, budget - 1)
            or within(i, j + 1, budget - 1)
        )

    distance = abs(m - n)
    while not within(0, 0, distance):
        distance += 1
    return distance


def brute_lcs(a, b):
    """Exhaustive subsequence enumeration, longest first."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for k in range(len(short), 0, -1):
        for candidate in itertools.combinations(short, k):
            it = iter(long_)
            if all(s in it for s in candidate):
                return k
    return 0


class TestCriterion6MetricOracles:
    ALPHABET = ("T", "L", "G", "G2")

    def random_pair(self, rng):
        la, lb = rng.randrange(0, 13), rng.randrange(0, 13)
        a = tuple(rng.choices(self.ALPHABET, k=la))
        b = tuple(rng.choices(self.ALPHABET, k=lb))
        return a, b

    def test_dp_equals_oracles(self):
        rng = random.Random(271828)
        bad = 0
        for _ in range(5000):
            a, b = self.random_pair(rng)
            if levenshtein(a, b) != brute_levenshtein(a, b):
                bad += 1
            if lcs_length(a, b) != brute_lcs(a, b):
                bad += 1
        report(
            6,
            "metric DP vs exhaustive oracles",
            bad == 0,
            f"5000 pairs of length <= 12, {bad} mismatches",
        )

    def test_metric_axioms(self):
        rng = random.Random(314159)
        ok = True
        for _ in range(2000):
            a, b = self.random_pair(rng)
            c, _ = self.random_pair(rng)
            ok &= levenshtein(a, a) == 0
            ok &= levenshtein(a, b) == levenshtein(b, a)
            ok &= levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
            ok &= (a == b) == (levenshtein(a, b) == 0)
            if a:
                ok &= lcs_ratio(a, a) == 1.0
        report("6b", "metric axioms", ok, "identity/symmetry/triangle on 2000 triples")


class TestCriterion7Throughput:
    def test_three_minute_trace_under_one_second(self):
        # 3 minutes at 30fps = 5400 frames; ~36 actions of ~11 touches
        # plus fades lands near 500 detections.
        rng = random.Random(99)
        detections = []
        cursor = 10
        while cursor < 5200:
            frames = rng.randrange(6, 14)
            x = rng.uniform(60, 1000)
            y = rng.uniform(60, 1850)
            for k in range(frames):
                detections.append(make_touch(cursor + k, x, y, confidence=0.95))
            for k in range(3):
                detections.append(
                    make_touch(cursor + frames + k, x, y, opacity=LOW,
                               confidence=0.9)
                )
            cursor += frames + 3 + rng.randrange(120, 160)
        trace = DetectionTrace(
            profile=PROFILE, detections=tuple(detections), frame_count=5400
        )
        start = time.perf_counter()
        scenario = classify_trace(trace)
        elapsed = time.perf_counter() - start
        report(
            7,
            "5400-frame trace throughput",
            elapsed < 1.0 and len(scenario.items) > 0,
            f"{len(trace)} detections -> {len(scenario.items)} actions "
            f"in {elapsed * 1000:.0f}ms (< 1s)",
        )
