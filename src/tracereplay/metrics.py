"""Scores of predicted against ground-truth action-type sequences.

The sequences are spelled in `model`'s action-symbol alphabet, which
also reads and writes the sequence files. Levenshtein distance and the
LCS ratio measure ordered agreement; precision/recall treat the
sequences as order-agnostic bags of actions.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import NamedTuple

from .errors import EmptyGroundTruth
from .model import Symbols


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
        # precision_recall returns the last three fields, in order.
        return cls(levenshtein(pred, truth), lcs_ratio(pred, truth),
                   *precision_recall(pred, truth))

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "per_type": {
                symbol: {**s._asdict(), "precision": s.precision, "recall": s.recall}
                for symbol, s in self.per_type.items()
            },
        }


class BatchReport(NamedTuple):
    """Each scenario's report, keyed by its id, and the means over them."""

    scenarios: dict[str, MetricsReport]
    mean_levenshtein: float
    mean_lcs_ratio: float
    mean_macro_precision: float
    mean_macro_recall: float

    def to_dict(self) -> dict:
        scenarios = {sid: r.to_dict() for sid, r in self.scenarios.items()}
        return {**self._asdict(), "scenarios": scenarios}

    def to_json(self) -> bytes:
        return json.dumps(self.to_dict(), indent=2).encode("utf-8")

    def format_table(self) -> str:
        """Aligned-column text table, one row per scenario plus the mean."""
        header = ("scenario", "lev", "lcs_ratio", "precision", "recall")
        rows = [header]
        for sid, r in self.scenarios.items():
            rows.append(_table_row(sid, str(r.levenshtein), r.lcs_ratio,
                                   r.macro_precision, r.macro_recall))
        rows.append(_table_row(
            "MEAN", f"{self.mean_levenshtein:.2f}", self.mean_lcs_ratio,
            self.mean_macro_precision, self.mean_macro_recall,
        ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)


def _table_row(name: str, lev: str, *ratios: float) -> tuple[str, ...]:
    """A `format_table` row, each ratio to four decimal places."""
    return (name, lev, *(f"{ratio:.4f}" for ratio in ratios))


def evaluate_batch(scenarios: dict[str, tuple[Symbols, Symbols]]) -> BatchReport:
    """Score each scenario's (pred, truth) pair, keyed by scenario id, and
    aggregate the means. Raises EmptyGroundTruth, before scoring any, when
    there is no scenario or a scenario's truth is empty, naming it."""
    if not scenarios:
        raise EmptyGroundTruth("evaluate_batch needs at least one scenario")
    for sid, (_, truth) in scenarios.items():
        if not truth:
            raise EmptyGroundTruth(f"scenario {sid!r} has an empty ground truth")
    reports = {sid: MetricsReport.from_sequences(*p) for sid, p in scenarios.items()}
    means = [sum(getattr(r, field) for r in reports.values()) / len(reports)
             for field in ("levenshtein", "lcs_ratio",
                           "macro_precision", "macro_recall")]
    return BatchReport(reports, *means)
