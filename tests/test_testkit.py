"""Synthetic corpus and qrels fixtures: determinism and bookkeeping."""

import json
from collections import Counter

import pytest

from oracles import exclusion_oracle, qrels_oracle

from lexforge.corpus import case_text, case_to_record, PrisonTerm, TermKind
from lexforge.testkit import (
    SyntheticSpec,
    agreement_label,
    generate_corpus,
    generate_qrels,
    terms_match,
)


def _serialize(build):
    return json.dumps([case_to_record(d) for d in build.cases],
                      ensure_ascii=False, sort_keys=True)


class TestGenerateCorpus:
    def test_byte_identical_under_same_seed(self):
        spec = SyntheticSpec(n_cases=40, seed=12)
        assert _serialize(generate_corpus(spec)) == _serialize(generate_corpus(spec))

    def test_different_seed_differs(self):
        a = generate_corpus(SyntheticSpec(n_cases=40, seed=1))
        b = generate_corpus(SyntheticSpec(n_cases=40, seed=2))
        assert _serialize(a) != _serialize(b)

    def test_empty_spec(self):
        build = generate_corpus(SyntheticSpec(n_cases=0))
        assert build.cases == [] and build.truth == {}

    def test_every_charge_covered(self):
        spec = SyntheticSpec(n_cases=1000, charge_count=10, seed=5)
        build = generate_corpus(spec)
        counts = Counter(
            next(iter(t.elements.charges))
            for t in build.truth.values() if t.elements is not None)
        assert len(counts) == 10
        assert all(count >= 1 for count in counts.values())
        assert sum(counts.values()) == 1000

    def test_fact_length_floor(self, small_spec, small_build):
        exclusions = exclusion_oracle(small_build, small_spec)
        for doc in small_build.cases:
            if exclusions.get(doc.case_id) != "SHORT_FACT":
                continue
            assert len(doc.fact) < small_spec.min_fact_chars
        for doc in small_build.cases:
            if small_build.truth[doc.case_id].elements is not None:
                assert len(doc.fact) >= small_spec.min_fact_chars

    def test_unique_case_ids(self, small_build):
        ids = [d.case_id for d in small_build.cases]
        assert len(ids) == len(set(ids))

    def test_entities_recorded_appear_in_fact(self, small_build):
        for doc in small_build.cases:
            truth = small_build.truth[doc.case_id]
            if truth.elements is None:
                continue
            for surfaces in truth.entities.values():
                for surface in surfaces:
                    assert surface in doc.fact, (doc.case_id, surface)

    def test_case_text_joins_sections(self, small_build):
        doc = small_build.cases[0]
        text = case_text(doc)
        assert doc.fact in text and doc.reason in text and doc.judgment in text

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(charge_count=0)
        with pytest.raises(ValueError):
            SyntheticSpec(charge_count=99)


class TestAgreementLabel:
    def _el(self, mains, kind=TermKind.FIXED_TERM, months=24):
        from lexforge.corpus import LegalElements
        months = months if kind in (TermKind.FIXED_TERM, TermKind.DETENTION,
                                    TermKind.CONTROL) else 0
        return LegalElements(charges=frozenset({"x"}),
                             main_articles=frozenset(mains),
                             ancillary_articles=frozenset(),
                             prison_term=PrisonTerm(kind, months))

    def test_both_match(self):
        a = self._el({"264"}, months=24)
        b = self._el({"264"}, months=30)
        assert agreement_label(a, b) == 3

    def test_facts_only(self):
        a = self._el({"264"}, months=24)
        b = self._el({"264"}, months=60)
        assert agreement_label(a, b) == 2

    def test_circumstances_only(self):
        a = self._el({"264"}, months=24)
        b = self._el({"266"}, months=28)
        assert agreement_label(a, b) == 1

    def test_neither(self):
        a = self._el({"264"}, months=24)
        b = self._el({"266"}, months=120)
        assert agreement_label(a, b) == 0

    def test_terms_match_cross_kind_false(self):
        assert not terms_match(PrisonTerm(TermKind.LIFE),
                               PrisonTerm(TermKind.FIXED_TERM, 240))
        assert terms_match(PrisonTerm(TermKind.LIFE), PrisonTerm(TermKind.LIFE))


@pytest.fixture(scope="module")
def qrels_build(small_build):
    return generate_qrels(small_build, seed=2, n_queries=25)


class TestGenerateQrels:

    def test_pool_shapes(self, small_build, qrels_build):
        assert len(qrels_build.pools) == 25
        for qid, pool in qrels_build.pools.items():
            assert len(pool) == 100
            assert len(set(pool)) == 100
            assert len(qrels_build.labels[qid]) == 30
            assert set(qrels_build.labels[qid]) <= set(pool)

    def test_source_in_own_pool_with_label_three(self, qrels_build):
        for qid, source in qrels_build.sources.items():
            assert source in qrels_build.pools[qid]
            assert qrels_build.labels[qid][source] == 3

    def test_labels_match_agreement_rule(self, small_build, qrels_build):
        elements = small_build.elements()
        for qid, judged in qrels_build.labels.items():
            source = elements[qrels_build.sources[qid]]
            for case_id, label in judged.items():
                assert label == agreement_label(source, elements[case_id])

    def test_label_spread(self, qrels_build):
        counts = Counter(l for judged in qrels_build.labels.values()
                         for l in judged.values())
        for label in (0, 1, 2, 3):
            assert counts[label] > 0

    def test_deterministic(self, small_build):
        a = generate_qrels(small_build, seed=2, n_queries=10)
        b = generate_qrels(small_build, seed=2, n_queries=10)
        assert a.pools == b.pools and a.labels == b.labels and a.sources == b.sources

    @pytest.mark.parametrize("charge_count", [2, 10])
    def test_matches_plain_oracle(self, charge_count):
        build = generate_corpus(SyntheticSpec(n_cases=400, charge_count=charge_count,
                                              seed=charge_count))
        for seed in (2, 9):
            got = generate_qrels(build, seed=seed, n_queries=12)
            assert (got.pools, got.labels) == qrels_oracle(build, seed, 12)

    def test_needs_enough_cases(self):
        tiny = generate_corpus(SyntheticSpec(n_cases=30, seed=0))
        with pytest.raises(ValueError):
            generate_qrels(tiny, n_queries=5)
