"""Graded-relevance evaluation over annotated candidate pools.

Conventions follow the criminal-retrieval benchmarks this toolkit targets:
each query has a candidate pool of which only a small annotated subset
carries labels 0..3; metrics are computed over the annotated candidates
only, the top label (3) counts as relevant for the binary metrics (P@k,
MAP), and NDCG uses graded gains (linear by default, exponential as an
option), both against the pool-ideal DCG.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import QueryMismatch

RELEVANT_LABEL = 3

#: run: query_id -> ranked (case_id, score) pairs. qrels: query_id -> case_id -> label.
Run = Mapping[str, Sequence[tuple[str, float]]]
Qrels = Mapping[str, Mapping[str, int]]

GAIN_LINEAR = "linear"
GAIN_EXPONENTIAL = "exponential"


def gain_value(label: int, gain: str = GAIN_LINEAR) -> float:
    if gain == GAIN_LINEAR:
        return float(label)
    if gain == GAIN_EXPONENTIAL:
        return float(2 ** label - 1)
    raise ValueError(f"unknown gain convention: {gain!r}")


def restrict_to_annotated(ranking: Sequence[tuple[str, float]],
                          judged: Mapping[str, int]) -> list[str]:
    """The case ids of the ranked ``(case_id, score)`` pairs that are in the
    annotated pool, in ranking order."""
    return [case_id for case_id, _ in ranking if case_id in judged]


def precision_at_k(ranking_labels: Sequence[int], k: int) -> float:
    """Fraction of the top k that carries the relevant label.

    Ranks beyond the ranking length count as non-relevant: the divisor is
    always k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    top = ranking_labels[:k]
    return sum(1 for label in top if label == RELEVANT_LABEL) / k


def average_precision(ranking_labels: Sequence[int],
                      pool_labels: Sequence[int]) -> float:
    """Mean of precision-at-relevant-ranks over the pool's relevant count.

    The divisor is the number of relevant candidates in the annotated pool,
    not just those retrieved, so a truncated ranking is penalized. Queries
    with no relevant candidate score 0.
    """
    total_relevant = sum(1 for label in pool_labels if label == RELEVANT_LABEL)
    if total_relevant == 0:
        return 0.0
    hits = 0
    accumulated = 0.0
    for rank, label in enumerate(ranking_labels, start=1):
        if label == RELEVANT_LABEL:
            hits += 1
            accumulated += hits / rank
    return accumulated / total_relevant


def _left_sum(values: Iterable[float]) -> float:
    """The values added left to right. The built-in ``sum`` of floats is
    compensated from Python 3.12 on, so its last digits would depend on
    the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def dcg_at_k(labels: Sequence[int], k: int, gain: str = GAIN_LINEAR) -> float:
    return _left_sum(gain_value(label, gain) / math.log2(rank + 1)
                     for rank, label in enumerate(labels[:k], start=1))


def ndcg_at_k(ranking_labels: Sequence[int], pool_labels: Sequence[int],
              k: int, gain: str = GAIN_LINEAR) -> float:
    """DCG@k over the ideal DCG@k of the annotated pool; 0 when the pool
    has no gain at all."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ideal = sorted(pool_labels, reverse=True)
    idcg = dcg_at_k(ideal, k, gain)
    if idcg == 0.0:
        return 0.0
    return dcg_at_k(ranking_labels, k, gain) / idcg


P_KS = (5, 10)
NDCG_KS = (10, 20, 30)
METRIC_ORDER = (*(f"P@{k}" for k in P_KS), "MAP", *(f"NDCG@{k}" for k in NDCG_KS))


@dataclass
class MetricsReport:
    per_query: dict[str, dict[str, float]]
    macro: dict[str, float]
    missing: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "macro": self.macro,
            "per_query": self.per_query,
            "missing": self.missing,
            "warnings": self.warnings,
        }


def query_metrics(ranking: Sequence[tuple[str, float]], judged: Mapping[str, int], *,
                  gain: str = GAIN_LINEAR) -> tuple[dict[str, float], bool]:
    """Metrics for one query; second value flags an empty annotated ranking."""
    filtered = restrict_to_annotated(ranking, judged)
    labels = [judged[case_id] for case_id in filtered]
    pool_labels = list(judged.values())
    if not filtered:
        return dict.fromkeys(METRIC_ORDER, 0.0), True
    metrics: dict[str, float] = {}
    for k in P_KS:
        metrics[f"P@{k}"] = precision_at_k(labels, k)
    metrics["MAP"] = average_precision(labels, pool_labels)
    for k in NDCG_KS:
        metrics[f"NDCG@{k}"] = ndcg_at_k(labels, pool_labels, k, gain)
    return metrics, False


def evaluate_run(run: Run, qrels: Qrels, *,
                 gain: str = GAIN_LINEAR) -> MetricsReport:
    """Per-query metrics over the annotated pools plus unweighted macro means.

    Run queries lacking judgments are an error; judged queries absent from
    the run are reported as missing and left out of the averages rather
    than silently dropped.
    """
    unjudged = set(run) - set(qrels)
    if unjudged:
        raise QueryMismatch(unjudged)
    missing = sorted(set(qrels) - set(run))

    per_query: dict[str, dict[str, float]] = {}
    warnings: list[str] = []
    for query_id in sorted(set(qrels) & set(run)):
        metrics, empty = query_metrics(run[query_id], qrels[query_id], gain=gain)
        if empty:
            warnings.append(f"{query_id}: no annotated candidates in run")
        per_query[query_id] = metrics

    macro: dict[str, float] = {}
    if per_query:
        names = next(iter(per_query.values())).keys()
        for name in names:
            macro[name] = _left_sum(m[name] for m in per_query.values()) / len(per_query)
    return MetricsReport(per_query=per_query, macro=macro,
                         missing=missing, warnings=warnings)
