import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereplay.errors import EmptyGroundTruth, SchemaViolation
from tracereplay.metrics import (
    MetricsReport,
    evaluate_batch,
    lcs_length,
    lcs_ratio,
    levenshtein,
    precision_recall,
)
from tracereplay.model import (
    collapse_finger_counts,
    dump_sequence_file,
    gesture_symbol,
    load_sequence_file,
    parse_symbols,
)

ALPHABET = ("T", "L", "G", "G2", "G3")

symbols_st = st.lists(st.sampled_from(ALPHABET), max_size=12).map(tuple)


def brute_levenshtein(a, b):
    """Plain exhaustive recursion over suffix pairs. The cache only spares
    evaluating a pair twice; each value is still the recursion's."""

    @functools.cache
    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


def brute_lcs(a, b):
    """Exhaustive subsequence enumeration, longest first."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for k in range(len(short), -1, -1):
        for candidate in itertools.combinations(short, k):
            if is_subsequence(candidate, long_):
                return k
    return 0


def is_subsequence(sub, seq):
    it = iter(seq)
    return all(s in it for s in sub)


class TestParseSymbols:
    def test_basic(self):
        assert parse_symbols("TTG") == ("T", "T", "G")

    def test_extended(self):
        assert parse_symbols("TG2G10L") == ("T", "G2", "G10", "L")

    def test_invalid(self):
        with pytest.raises(SchemaViolation):
            parse_symbols("TXG")

    @pytest.mark.parametrize("digit", ["\u0662", "\uff12", "\u096a"],
                             ids=["arabic-indic", "fullwidth", "devanagari"])
    def test_finger_count_is_ascii_digits_only(self, digit):
        with pytest.raises(SchemaViolation):
            parse_symbols(f"G{digit}")
        with pytest.raises(SchemaViolation):
            load_sequence_file(f"a G{digit}T\n")

    @pytest.mark.parametrize("count", ["0", "02", "00", "010"])
    def test_finger_count_is_positive_without_leading_zeros(self, count):
        with pytest.raises(SchemaViolation):
            parse_symbols(f"G{count}")
        with pytest.raises(SchemaViolation):
            load_sequence_file(f"a G{count}T\n")

    def test_every_written_gesture_symbol_parses(self):
        for fingers in range(1, 101):
            symbol = gesture_symbol(fingers)
            assert parse_symbols(f"T{symbol}G") == ("T", symbol, "G")
        assert load_sequence_file("b G1T\n") == {"b": ("G1", "T")}

    def test_collapse(self):
        assert collapse_finger_counts(("T", "G2", "G", "L")) == ("T", "G", "G", "L")


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein(("T", "T", "G"), ("T", "T", "G")) == 0

    def test_single_deletion(self):
        assert levenshtein(("T", "T", "G"), ("T", "G")) == 1

    def test_empty_sides(self):
        assert levenshtein((), ("T", "G")) == 2
        assert levenshtein(("T",), ()) == 1

    @given(symbols_st, symbols_st)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, a, b):
        assert levenshtein(a, b) == brute_levenshtein(a, b)

    @given(symbols_st, symbols_st, symbols_st)
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, a, b, c):
        assert levenshtein(a, a) == 0
        assert levenshtein(a, b) == levenshtein(b, a)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
        if a != b:
            assert levenshtein(a, b) > 0


class TestLcs:
    def test_identical(self):
        assert lcs_ratio(("T", "G"), ("T", "G")) == 1.0

    def test_disjoint(self):
        assert lcs_ratio(("T", "T"), ("G", "G")) == 0.0

    def test_partial(self):
        # LCS(TGTG, TTG) = TTG
        assert lcs_length(("T", "G", "T", "G"), ("T", "T", "G")) == 3
        assert lcs_ratio(("T", "G", "T", "G"), ("T", "T", "G")) == 1.0
        assert lcs_ratio(("T", "G"), ("T", "T", "G")) == pytest.approx(2 / 3)

    def test_empty_truth_rejected(self):
        with pytest.raises(EmptyGroundTruth):
            lcs_ratio(("T",), ())

    @given(symbols_st, symbols_st)
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration(self, a, b):
        assert lcs_length(a, b) == brute_lcs(a, b)

    @given(symbols_st, symbols_st)
    @settings(max_examples=100, deadline=None)
    def test_monotone_under_matched_append(self, a, b):
        base = lcs_length(a, b)
        assert lcs_length(a + ("T",), b + ("T",)) == base + 1


class TestPrecisionRecall:
    def test_perfect(self):
        pred = ("T",) * 3 + ("G",) * 2
        per_type, macro_p, macro_r = precision_recall(pred, pred)
        assert macro_p == macro_r == 1.0
        assert all(s.precision == s.recall == 1.0 for s in per_type.values())

    def test_count_arithmetic(self):
        per_type, _, _ = precision_recall(("T", "T"), ("T", "T", "T"))
        assert per_type["T"].precision == 1.0
        assert per_type["T"].recall == pytest.approx(2 / 3)
        assert per_type["T"].tp + per_type["T"].fn == 3

    def test_type_only_in_pred(self):
        per_type, _, _ = precision_recall(("G",), ("T",))
        assert per_type["G"].precision == 0.0
        assert per_type["T"].recall == 0.0

    @given(symbols_st, symbols_st)
    @settings(max_examples=200)
    def test_matches_multiset_oracle(self, pred, truth):
        per_type, _, _ = precision_recall(pred, truth)
        for symbol, score in per_type.items():
            expected_tp = min(pred.count(symbol), truth.count(symbol))
            assert score.tp == expected_tp
            assert score.fp == pred.count(symbol) - expected_tp
            assert score.fn == truth.count(symbol) - expected_tp
            assert 0.0 <= score.precision <= 1.0
            assert 0.0 <= score.recall <= 1.0


class TestBatch:
    def test_identical_pair(self):
        report = evaluate_batch({"scn-1": (("T", "G"), ("T", "G"))})
        assert report.mean_levenshtein == 0
        assert report.mean_lcs_ratio == 1.0
        assert report.mean_macro_precision == 1.0
        assert report.mean_macro_recall == 1.0

    def test_mean_of_distances(self):
        scenarios = {
            "a": (("T", "G"), ("T", "G", "G")),          # distance 1
            "b": (("T",), ("G", "G", "T")),              # distance 2
        }
        report = evaluate_batch(scenarios)
        assert report.mean_levenshtein == 1.5

    def test_means_match_recomputation(self):
        scenarios = {
            "a": (("T", "G", "L"), ("T", "L")),
            "b": (("G",), ("G", "G2")),
            "c": ((), ("T",)),
        }
        report = evaluate_batch(scenarios)
        per = [MetricsReport.from_sequences(p, t) for p, t in scenarios.values()]
        assert report.mean_lcs_ratio == pytest.approx(
            sum(r.lcs_ratio for r in per) / len(per)
        )
        assert report.mean_levenshtein == pytest.approx(
            sum(r.levenshtein for r in per) / len(per)
        )

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyGroundTruth):
            evaluate_batch({})

    def test_empty_truth_names_its_scenario(self):
        scenarios = {"a": (("T",), ("T",)), "b": (("G",), ()), "c": ((), ())}
        with pytest.raises(EmptyGroundTruth,
                           match="^scenario 'b' has an empty ground truth$"):
            evaluate_batch(scenarios)

    def test_each_scenario_keeps_its_report(self):
        report = evaluate_batch({"b": (("G",), ("T",)), "a": (("T",), ("T",))})
        assert list(report.scenarios) == ["b", "a"]
        assert report.scenarios["a"] == MetricsReport.from_sequences(("T",), ("T",))
        assert list(report.to_dict()["scenarios"]) == ["b", "a"]
        assert report.mean_levenshtein == 0.5

    def test_table_contains_mean_row(self):
        report = evaluate_batch({"scn-1": (("T",), ("T",))})
        table = report.format_table()
        assert "scn-1" in table
        assert "MEAN" in table


class TestSequenceFiles:
    def test_round_trip(self):
        sequences = {"a": ("T", "G2", "L"), "b": (), "c": ("G",), "c#2": ("T",)}
        text = dump_sequence_file(sequences)
        assert load_sequence_file(text) == sequences

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nscn-1 TTG\n"
        assert load_sequence_file(text) == {"scn-1": ("T", "T", "G")}

    def test_duplicate_id_rejected(self):
        with pytest.raises(SchemaViolation):
            load_sequence_file("a T\na G\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(SchemaViolation):
            load_sequence_file("justonefield\n")

    @pytest.mark.parametrize("sid", ["", "my trace", "a\tb", "a\nb", "a\x1cb", "#t"],
                             ids=["empty", "space", "tab", "newline", "separator",
                                  "comment"])
    def test_id_the_reader_cannot_take_back_is_rejected(self, sid):
        with pytest.raises(SchemaViolation) as caught:
            dump_sequence_file({"a": ("T",), sid: ("T", "G")})
        assert str(caught.value) == (
            f"scenario id {sid!r} must be non-empty, without whitespace "
            f"or a leading '#'")
