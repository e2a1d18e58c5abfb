"""Graded-relevance metrics against brute-force oracles."""

import math
import random

import pytest

from lexforge import evaluation
from lexforge.errors import QueryMismatch
from lexforge.evaluation import (
    GAIN_EXPONENTIAL,
    MetricsReport,
    average_precision,
    dcg_at_k,
    evaluate_run,
    ndcg_at_k,
    precision_at_k,
    query_metrics,
    restrict_to_annotated,
)

from oracles import ap_oracle, ndcg_oracle, precision_oracle


class TestRestrict:
    def test_drops_unannotated_keeps_order(self):
        judged = {f"c{i}": 3 for i in range(30)}
        ranking = [(f"c{i}", 100.0 - i) for i in range(100)]
        filtered = restrict_to_annotated(ranking, judged)
        assert filtered == [f"c{i}" for i in range(30)]

    def test_fully_annotated_unchanged(self):
        judged = {"a": 1, "b": 2}
        assert restrict_to_annotated([("b", 2.0), ("a", 1.0)], judged) == ["b", "a"]

    def test_empty_intersection_scores_zero_with_warning(self):
        metrics, empty = query_metrics([("x", 2.0), ("y", 1.0)], {"a": 3})
        assert empty
        assert all(v == 0.0 for v in metrics.values())


class TestPrecision:
    def test_examples(self):
        assert precision_at_k([3, 3, 0, 3, 1], 5) == pytest.approx(0.6)
        assert precision_at_k([3, 3, 3, 3, 3], 5) == 1.0

    def test_short_ranking_convention(self):
        # ranks beyond the ranking count as non-relevant
        assert precision_at_k([3], 5) == pytest.approx(0.2)
        assert precision_at_k([3], 5) == pytest.approx(precision_oracle([3], 5))

    def test_oracle_sweep(self):
        rng = random.Random(0)
        for _ in range(200):
            labels = [rng.randint(0, 3) for _ in range(rng.randint(0, 30))]
            for k in (1, 5, 10):
                assert precision_at_k(labels, k) == pytest.approx(
                    precision_oracle(labels, k))


class TestAveragePrecision:
    def test_worked_example(self):
        # labels [3,0,3] with 2 relevant in pool: (1/1 + 2/3)/2 = 5/6
        assert average_precision([3, 0, 3], [3, 0, 3]) == pytest.approx(5 / 6)

    def test_no_relevant(self):
        assert average_precision([0, 1, 2], [0, 1, 2]) == 0.0

    def test_single_relevant_at_top(self):
        assert average_precision([3], [3]) == 1.0

    def test_truncated_ranking_penalized(self):
        full = average_precision([3, 3], [3, 3])
        truncated = average_precision([3], [3, 3])
        assert truncated < full

    def test_oracle_sweep(self):
        rng = random.Random(1)
        for _ in range(200):
            pool = [rng.randint(0, 3) for _ in range(rng.randint(1, 30))]
            ranking = list(pool)
            rng.shuffle(ranking)
            assert average_precision(ranking, pool) == pytest.approx(
                ap_oracle(ranking, pool))


class TestNdcg:
    def test_perfect_ordering(self):
        pool = [3, 3, 2, 1, 0]
        ideal = sorted(pool, reverse=True)
        assert ndcg_at_k(ideal, pool, 5) == pytest.approx(1.0)

    def test_worked_example(self):
        ranking = [3, 2, 3, 0, 1]
        pool = [3, 3, 2, 1, 0]
        dcg = 3 + 2 / math.log2(3) + 3 / 2 + 0 + 1 / math.log2(6)
        idcg = 3 + 3 / math.log2(3) + 2 / 2 + 1 / math.log2(5) + 0
        expected = dcg / idcg
        assert dcg_at_k(ranking, 5) == pytest.approx(dcg, abs=1e-12)
        assert ndcg_at_k(ranking, pool, 5) == pytest.approx(expected, abs=1e-12)
        # value frozen from the oracle before wiring the implementation
        assert ndcg_at_k(ranking, pool, 5) == pytest.approx(0.9723642841729143, abs=1e-12)

    def test_all_zero_labels(self):
        assert ndcg_at_k([0, 0], [0, 0], 10) == 0.0

    def test_exponential_gain_option(self):
        ranking = [3, 1, 2]
        pool = [3, 2, 1]
        linear = ndcg_at_k(ranking, pool, 3)
        exponential = ndcg_at_k(ranking, pool, 3, gain=GAIN_EXPONENTIAL)
        assert linear != exponential
        assert exponential == pytest.approx(ndcg_oracle(ranking, pool, 3, True))

    def test_binary_labels_gain_conventions_agree(self):
        # with a single nonzero level the gain scaling cancels exactly
        rng = random.Random(2)
        for _ in range(50):
            pool = [rng.choice((0, 3)) for _ in range(rng.randint(1, 20))]
            ranking = list(pool)
            rng.shuffle(ranking)
            linear = ndcg_at_k(ranking, pool, 10)
            exponential = ndcg_at_k(ranking, pool, 10, gain=GAIN_EXPONENTIAL)
            assert linear == pytest.approx(exponential, abs=1e-12)

    def test_moving_a_three_up_improves(self):
        pool = [3, 2, 1, 0]
        worse = ndcg_at_k([2, 3, 1, 0], pool, 4)
        better = ndcg_at_k([3, 2, 1, 0], pool, 4)
        assert better > worse

    def test_oracle_sweep(self):
        rng = random.Random(3)
        for _ in range(200):
            pool = [rng.randint(0, 3) for _ in range(rng.randint(1, 30))]
            ranking = list(pool)
            rng.shuffle(ranking)
            for k in (5, 10, 30):
                assert ndcg_at_k(ranking, pool, k) == pytest.approx(
                    ndcg_oracle(ranking, pool, k), abs=1e-12)


def _identity_run(qrels):
    run = {}
    for qid, judged in qrels.items():
        ranked = sorted(judged, key=lambda c: (-judged[c], c))
        run[qid] = [(c, float(len(ranked) - i)) for i, c in enumerate(ranked)]
    return run


def _compensated_sum(values, start=0):
    """The built-in ``sum`` of Python 3.12 and later: ints added exactly,
    then floats with Neumaier's compensation, added in at the end."""
    total, comp = start, 0.0
    for value in values:
        if isinstance(total, int):
            total += value
            continue
        t = total + value
        comp += (total - t) + value if abs(total) >= abs(value) else (value - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


class TestEvaluateRun:
    def _qrels(self, n_queries=5, seed=0):
        rng = random.Random(seed)
        qrels = {}
        for q in range(n_queries):
            qid = f"q{q}"
            qrels[qid] = {f"{qid}-c{i}": rng.randint(0, 3) for i in range(30)}
            qrels[qid][f"{qid}-c0"] = 3  # at least one relevant
        return qrels

    def test_identity_run_all_ndcg_one(self):
        qrels = self._qrels()
        report = evaluate_run(_identity_run(qrels), qrels)
        for name, value in report.macro.items():
            if name.startswith("NDCG"):
                assert value == pytest.approx(1.0)

    def test_unjudged_query_raises(self):
        qrels = self._qrels(2)
        run = _identity_run(qrels)
        run["ghost"] = [("x", 1.0)]
        with pytest.raises(QueryMismatch):
            evaluate_run(run, qrels)

    def test_missing_query_reported_and_averaged_over_rest(self):
        qrels = self._qrels(3)
        run = _identity_run(qrels)
        del run["q1"]
        report = evaluate_run(run, qrels)
        assert report.missing == ["q1"]
        assert set(report.per_query) == {"q0", "q2"}
        for name, value in report.macro.items():
            expected = (report.per_query["q0"][name] + report.per_query["q2"][name]) / 2
            assert value == pytest.approx(expected)

    def test_macro_is_unweighted_mean(self):
        qrels = self._qrels(4, seed=9)
        run = _identity_run(qrels)
        # damage one query's ordering
        run["q0"] = list(reversed(run["q0"]))
        report = evaluate_run(run, qrels)
        for name in report.macro:
            values = [report.per_query[q][name] for q in sorted(report.per_query)]
            assert report.macro[name] == pytest.approx(sum(values) / len(values))

    def test_random_permutations_match_oracle(self):
        rng = random.Random(7)
        qrels = self._qrels(8, seed=7)
        for trial in range(50):
            run = {}
            for qid, judged in qrels.items():
                pool = list(judged) + [f"{qid}-extra{i}" for i in range(10)]
                rng.shuffle(pool)
                run[qid] = [(c, float(len(pool) - i)) for i, c in enumerate(pool)]
            report = evaluate_run(run, qrels)
            for qid, judged in qrels.items():
                ranked = [c for c, _ in run[qid] if c in judged]
                labels = [judged[c] for c in ranked]
                pool_labels = list(judged.values())
                assert report.per_query[qid]["P@5"] == pytest.approx(
                    precision_oracle(labels, 5))
                assert report.per_query[qid]["MAP"] == pytest.approx(
                    ap_oracle(labels, pool_labels))
                for k in (10, 20, 30):
                    assert report.per_query[qid][f"NDCG@{k}"] == pytest.approx(
                        ndcg_oracle(labels, pool_labels, k), abs=1e-12)

    def test_sums_run_left_to_right_whatever_the_builtin_sum(self, monkeypatch):
        """With Python 3.12's compensated ``sum`` in the module's namespace,
        every metric still equals the oracles' left-to-right sums bit for
        bit, so the metrics files do not depend on the interpreter."""
        rng = random.Random(11)
        qrels = self._qrels(40, seed=11)
        run = {}
        for qid, judged in qrels.items():
            pool = list(judged)
            rng.shuffle(pool)
            run[qid] = [(c, float(len(pool) - i)) for i, c in enumerate(pool)]
        monkeypatch.setattr(evaluation, "sum", _compensated_sum, raising=False)
        report = evaluate_run(run, qrels)
        want = {}
        for qid in sorted(qrels):
            labels, pool_labels = [qrels[qid][c] for c, _ in run[qid]], list(qrels[qid].values())
            want[qid] = {"P@5": precision_oracle(labels, 5), "P@10": precision_oracle(labels, 10),
                         "MAP": ap_oracle(labels, pool_labels),
                         **{f"NDCG@{k}": ndcg_oracle(labels, pool_labels, k)
                            for k in (10, 20, 30)}}
        assert report.per_query == want
        macro = {}
        for name in want["q0"]:
            total = 0.0
            for qid in want:
                total += want[qid][name]
            macro[name] = total / len(want)
        assert report.macro == macro
        assert any(_compensated_sum(m[name] for m in want.values()) / len(want) != macro[name]
                   for name in macro)

    def test_bit_stable(self):
        qrels = self._qrels(6, seed=4)
        run = _identity_run(qrels)
        a = evaluate_run(run, qrels).to_dict()
        b = evaluate_run(run, qrels).to_dict()
        assert a == b

    def test_values_in_unit_interval(self):
        qrels = self._qrels(6, seed=5)
        run = _identity_run(qrels)
        report = evaluate_run(run, qrels)
        for metrics in report.per_query.values():
            for value in metrics.values():
                assert 0.0 <= value <= 1.0
