"""Sequence metrics between predicted and ground-truth action types.

Scenarios are compared as symbol sequences over T (tap), L (long tap),
and G (gesture); multi-fingered actions use finger-count-annotated
symbols such as G2 in extended-alphabet mode. Levenshtein distance and
the LCS ratio measure ordered agreement; precision/recall treat the
sequences as order-agnostic bags of actions.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import NamedTuple

from .errors import EmptyGroundTruth, SchemaViolation

_SYMBOL = re.compile(r"G\d+|[TLG]")

Symbols = tuple[str, ...]


def parse_symbols(text: str) -> Symbols:
    """Tokenize a symbol string like 'TTG2G' into ('T','T','G2','G')."""
    symbols: list[str] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _SYMBOL.match(text, pos)
        if match is None:
            raise SchemaViolation(f"invalid action symbol at {text[pos:]!r}")
        symbols.append(match.group())
        pos = match.end()
    return tuple(symbols)


def collapse_finger_counts(symbols: Symbols) -> Symbols:
    """Map extended symbols (G2, G3, ...) down to the basic alphabet."""
    return tuple("G" if s.startswith("G") else s for s in symbols)


def levenshtein(pred: Symbols, truth: Symbols) -> int:
    """Unit-cost insert/delete/substitute edit distance."""
    if len(pred) < len(truth):
        pred, truth = truth, pred
    previous = list(range(len(truth) + 1))
    for i, a in enumerate(pred, start=1):
        current = [i]
        for j, b in enumerate(truth, start=1):
            cost = 0 if a == b else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def lcs_length(a: Symbols, b: Symbols) -> int:
    """Length of the longest common subsequence."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for x in a:
        current = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def lcs_ratio(pred: Symbols, truth: Symbols) -> float:
    """|LCS(pred, truth)| / |truth|."""
    if not truth:
        raise EmptyGroundTruth("lcs_ratio needs a non-empty ground truth")
    return lcs_length(pred, truth) / len(truth)


class TypeScore(NamedTuple):
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0


def precision_recall(
    pred: Symbols, truth: Symbols
) -> tuple[dict[str, TypeScore], float, float]:
    """Order-agnostic bag-of-actions scores per type plus macro averages.

    Per type, TP is the multiset intersection size; types absent from
    both sequences contribute nothing.
    """
    pred_counts = Counter(pred)
    truth_counts = Counter(truth)
    per_type: dict[str, TypeScore] = {}
    for symbol in sorted(set(pred_counts) | set(truth_counts)):
        tp = min(pred_counts[symbol], truth_counts[symbol])
        per_type[symbol] = TypeScore(
            tp=tp,
            fp=pred_counts[symbol] - tp,
            fn=truth_counts[symbol] - tp,
        )
    if per_type:
        macro_p = sum(s.precision for s in per_type.values()) / len(per_type)
        macro_r = sum(s.recall for s in per_type.values()) / len(per_type)
    else:
        macro_p = macro_r = 1.0
    return per_type, macro_p, macro_r


class MetricsReport(NamedTuple):
    levenshtein: int
    lcs_ratio: float
    per_type: dict[str, TypeScore]
    macro_precision: float
    macro_recall: float

    @classmethod
    def from_sequences(cls, pred: Symbols, truth: Symbols) -> "MetricsReport":
        per_type, macro_p, macro_r = precision_recall(pred, truth)
        return cls(
            levenshtein=levenshtein(pred, truth),
            lcs_ratio=lcs_ratio(pred, truth),
            per_type=per_type,
            macro_precision=macro_p,
            macro_recall=macro_r,
        )

    def to_dict(self) -> dict:
        return {
            "levenshtein": self.levenshtein,
            "lcs_ratio": self.lcs_ratio,
            "per_type": {
                symbol: {
                    "tp": s.tp,
                    "fp": s.fp,
                    "fn": s.fn,
                    "precision": s.precision,
                    "recall": s.recall,
                }
                for symbol, s in self.per_type.items()
            },
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
        }


class BatchReport(NamedTuple):
    ids: tuple[str, ...]
    reports: tuple[MetricsReport, ...]

    @property
    def mean_levenshtein(self) -> float:
        return sum(r.levenshtein for r in self.reports) / len(self.reports)

    @property
    def mean_lcs_ratio(self) -> float:
        return sum(r.lcs_ratio for r in self.reports) / len(self.reports)

    @property
    def mean_macro_precision(self) -> float:
        return sum(r.macro_precision for r in self.reports) / len(self.reports)

    @property
    def mean_macro_recall(self) -> float:
        return sum(r.macro_recall for r in self.reports) / len(self.reports)

    def to_dict(self) -> dict:
        return {
            "scenarios": {
                sid: r.to_dict() for sid, r in zip(self.ids, self.reports)
            },
            "mean_levenshtein": self.mean_levenshtein,
            "mean_lcs_ratio": self.mean_lcs_ratio,
            "mean_macro_precision": self.mean_macro_precision,
            "mean_macro_recall": self.mean_macro_recall,
        }

    def to_json(self) -> bytes:
        return json.dumps(self.to_dict(), indent=2).encode("utf-8")

    def format_table(self) -> str:
        """Aligned-column text table, one row per scenario plus the mean."""
        header = ("scenario", "lev", "lcs_ratio", "precision", "recall")
        rows = [header]
        for sid, r in zip(self.ids, self.reports):
            rows.append(
                (
                    sid,
                    str(r.levenshtein),
                    f"{r.lcs_ratio:.4f}",
                    f"{r.macro_precision:.4f}",
                    f"{r.macro_recall:.4f}",
                )
            )
        rows.append(
            (
                "MEAN",
                f"{self.mean_levenshtein:.2f}",
                f"{self.mean_lcs_ratio:.4f}",
                f"{self.mean_macro_precision:.4f}",
                f"{self.mean_macro_recall:.4f}",
            )
        )
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)


def evaluate_batch(pairs: list[tuple[Symbols, Symbols]], ids=None) -> BatchReport:
    """Score each (pred, truth) pair and aggregate the means."""
    if not pairs:
        raise EmptyGroundTruth("evaluate_batch needs at least one pair")
    ids = tuple(ids) if ids else tuple(f"pair-{i}" for i in range(len(pairs)))
    reports = tuple(MetricsReport.from_sequences(p, t) for p, t in pairs)
    return BatchReport(ids=ids, reports=reports)


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
    # "-" marks an empty sequence so every scenario keeps its line.
    return "".join(
        f"{sid} {''.join(syms) or '-'}\n" for sid, syms in sequences.items()
    )
