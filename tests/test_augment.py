"""Element index, similarity, augmented-positive search and pair mixing."""

import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexforge.augment import (
    AugmentConfig,
    PAIR_AUGMENTED,
    PAIR_ORIGINAL,
    build_element_index,
    find_augmented_positive,
    mix_pairs,
    term_similarity,
)
from lexforge.corpus import LegalElements, PrisonTerm, TermKind
from lexforge.errors import MissingElements, NoMatch
from oracles import augmented_positive_oracle, element_score_oracle


def _el(main, ancillary=(), kind=TermKind.FIXED_TERM, months=12, charge="盗窃罪"):
    months = months if kind in (TermKind.FIXED_TERM, TermKind.DETENTION,
                                TermKind.CONTROL) else 0
    return LegalElements(
        charges=frozenset({charge}),
        main_articles=frozenset(main),
        ancillary_articles=frozenset(ancillary),
        prison_term=PrisonTerm(kind, months))


@dataclass
class _Query:
    query_id: str
    source_case_id: str


def _bucket_sizes(index):
    return {key: len(entries) for key, entries in index._buckets.items()}


class TestElementIndex:
    def test_bucket_shapes(self):
        corpus = {"c1": _el({"133"}), "c2": _el({"133"}), "c3": _el({"264"})}
        index = build_element_index(corpus)
        assert _bucket_sizes(index) == {("133",): 2, ("264",): 1}
        assert [e.case_id for e in index.bucket({"133"})] == ["c1", "c2"]

    def test_empty_corpus(self):
        index = build_element_index({})
        assert _bucket_sizes(index) == {} and index.bucket({"133"}) == []

    def test_key_is_order_independent(self):
        corpus = {"c1": _el({"133", "140"})}
        index = build_element_index(corpus)
        assert index.bucket({"140", "133"}) == index.bucket({"133", "140"})

    def test_bookkeeping_oracle(self, small_build):
        elements = small_build.elements()
        index = build_element_index(elements)
        expected = Counter(tuple(sorted(e.main_articles)) for e in elements.values())
        assert _bucket_sizes(index) == expected
        for key, count in expected.items():
            assert len(index.bucket(key)) == count


class TestTermSimilarity:
    def test_identical(self):
        a = PrisonTerm(TermKind.FIXED_TERM, 36)
        assert term_similarity(a, a) == 1.0

    def test_month_decay(self):
        a = PrisonTerm(TermKind.FIXED_TERM, 36)
        b = PrisonTerm(TermKind.FIXED_TERM, 60)
        assert term_similarity(a, b) == pytest.approx(math.exp(-1.0))

    def test_cross_kind_zero(self):
        assert term_similarity(PrisonTerm(TermKind.DEATH),
                               PrisonTerm(TermKind.FINE_ONLY)) == 0.0

    def test_life_death_affinity(self):
        assert term_similarity(PrisonTerm(TermKind.LIFE),
                               PrisonTerm(TermKind.DEATH)) == 0.25

    def test_non_month_kinds_match_exactly(self):
        assert term_similarity(PrisonTerm(TermKind.EXEMPT),
                               PrisonTerm(TermKind.EXEMPT)) == 1.0


class TestElementSimilarity:
    def test_identity(self):
        a = _el({"133"}, {"67"}, months=36)
        assert element_score_oracle(a, a, AugmentConfig()) == 1.0

    def test_hand_case(self):
        # ancillary {67} vs {72}: jaccard 0; same 36-month terms: sim 1;
        # equal weights -> 0.5, cross-checked by direct formula evaluation
        a = _el({"133"}, {"67"}, months=36)
        b = _el({"133"}, {"72"}, months=36)
        expected = (0.5 * 0.0 + 0.5 * math.exp(-0.0 / 24)) / 1.0
        assert element_score_oracle(a, b, AugmentConfig()) == pytest.approx(expected) == 0.5

    def test_floor(self):
        a = _el({"133"}, {"67"}, kind=TermKind.DEATH)
        b = _el({"133"}, {"72"}, kind=TermKind.FINE_ONLY)
        assert element_score_oracle(a, b, AugmentConfig()) == 0.0

    def test_symmetry_and_unit_range(self, small_build):
        elements = small_build.elements()
        index = build_element_index(elements)
        for key in sorted(_bucket_sizes(index))[:4]:
            bucket = index.bucket(key)[:8]
            for i, e1 in enumerate(bucket):
                for e2 in bucket[i:]:
                    s12 = element_score_oracle(e1.elements, e2.elements, AugmentConfig())
                    s21 = element_score_oracle(e2.elements, e1.elements, AugmentConfig())
                    assert s12 == s21
                    assert 0.0 <= s12 <= 1.0

    def test_equals_one_iff_both_match(self):
        a = _el({"133"}, {"67"}, months=36)
        near = _el({"133"}, {"67"}, months=37)
        assert element_score_oracle(a, near, AugmentConfig()) < 1.0
        diff_anc = _el({"133"}, {"68"}, months=36)
        assert element_score_oracle(a, diff_anc, AugmentConfig()) < 1.0

    def test_weights(self):
        a = _el({"133"}, {"67"}, months=36)
        b = _el({"133"}, {"72"}, months=36)
        only_term = AugmentConfig(weight_ancillary=0.0, weight_term=1.0)
        assert element_score_oracle(a, b, only_term) == 1.0
        only_anc = AugmentConfig(weight_ancillary=1.0, weight_term=0.0)
        assert element_score_oracle(a, b, only_anc) == 0.0


class TestFindAugmentedPositive:
    def test_worked_example(self):
        corpus = {
            "c1": _el({"133"}, {"67"}),
            "c2": _el({"133"}, {"67"}),
            "c3": _el({"133"}, {"72"}),
            "c4": _el({"264"}, {"67"}),
        }
        index = build_element_index(corpus)
        assert find_augmented_positive("c1", corpus["c1"], index) == "c2"

    def test_no_match(self):
        corpus = {"c1": _el({"133"}), "c2": _el({"264"})}
        index = build_element_index(corpus)
        with pytest.raises(NoMatch):
            find_augmented_positive("c1", corpus["c1"], index)

    def test_tie_break_smaller_id(self):
        corpus = {
            "c9": _el({"133"}, {"67"}),
            "c5": _el({"133"}, {"72"}),
            "c2": _el({"133"}, {"72"}),
        }
        index = build_element_index(corpus)
        for _ in range(3):
            assert find_augmented_positive("c9", corpus["c9"], index) == "c2"

    def test_exhaustive_scan_oracle(self, small_build):
        elements = small_build.elements()
        index = build_element_index(elements)
        cfg = AugmentConfig()
        for case_id in sorted(elements)[:60]:
            source = elements[case_id]
            best = find_augmented_positive(case_id, source, index, cfg)
            best_score = element_score_oracle(source, elements[best], cfg)
            for other_id, other in elements.items():
                if other_id == case_id:
                    continue
                if other.main_articles != source.main_articles:
                    continue
                score = element_score_oracle(source, other, cfg)
                assert score <= best_score + 1e-12
                if score == best_score:
                    assert best <= other_id

    def test_shared_charge_mode(self):
        corpus = {
            "c1": _el({"133"}, charge="交通肇事罪"),
            "c2": _el({"133", "140"}, charge="交通肇事罪"),
        }
        index = build_element_index(corpus)
        with pytest.raises(NoMatch):
            find_augmented_positive("c1", corpus["c1"], index)
        relaxed = AugmentConfig(match_mode="shared_charge")
        assert find_augmented_positive("c1", corpus["c1"], index, relaxed) == "c2"


def _answer(search, case_id, corpus, index, cfg):
    try:
        return search(case_id, corpus[case_id], index, cfg)
    except NoMatch:
        return NoMatch


_TERMS = [PrisonTerm(TermKind.FIXED_TERM, m) for m in (6, 12, 18, 24, 36)] + [
    PrisonTerm(TermKind.DETENTION, 3), PrisonTerm(TermKind.LIFE), PrisonTerm(TermKind.DEATH),
    PrisonTerm(TermKind.FINE_ONLY)]
_WEIGHTS = [0.0, 0.25, 0.5, 1.0, 3.0]

#: Few values per element, so signatures repeat, scores tie across groups
#: (12 months is as close to 6 as to 18) and buckets are often singletons.
_cases = st.dictionaries(
    st.integers(0, 40).map(lambda n: f"c{n}"),
    st.builds(lambda main, anc, term, charges: LegalElements(
                  charges=frozenset(charges), main_articles=frozenset(main),
                  ancillary_articles=frozenset(anc), prison_term=term),
              st.sampled_from([("133",), ("264",), ("133", "264")]),
              st.sets(st.sampled_from(["25", "52", "67", "72"]), max_size=2),
              st.sampled_from(_TERMS),
              st.sets(st.sampled_from(["盗窃罪", "诈骗罪", "抢劫罪"]), min_size=1, max_size=2)),
    min_size=1, max_size=16)
_configs = st.builds(
    lambda weights, mode: AugmentConfig(weight_ancillary=weights[0], weight_term=weights[1],
                                        match_mode=mode),
    st.tuples(st.sampled_from(_WEIGHTS), st.sampled_from(_WEIGHTS)).filter(any),
    st.sampled_from(["exact_main", "shared_charge"]))


class TestSignatureSearch:
    """The per-signature search against the linear scan it replaced."""

    @given(_cases, st.lists(_configs, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, corpus, configs):
        # one index for every config, as a memo keyed without it would fail
        index = build_element_index(corpus)
        for cfg in configs:
            for case_id in sorted(corpus, reverse=True):
                assert (_answer(find_augmented_positive, case_id, corpus, index, cfg)
                        == _answer(augmented_positive_oracle, case_id, corpus, index, cfg))

    def test_tie_across_groups_breaks_to_smallest_id(self):
        corpus = {
            "c3": _el({"133"}, {"67"}, months=12),
            "c9": _el({"133"}, {"67"}, months=6),
            "c1": _el({"133"}, {"67"}, months=18),
            "c7": _el({"133"}, {"67"}, months=18),
        }
        index = build_element_index(corpus)
        assert find_augmented_positive("c3", corpus["c3"], index) == "c1"

    def test_source_shares_its_signature_group(self):
        corpus = {"c1": _el({"133"}, {"67"}), "c2": _el({"133"}, {"67"}),
                  "c3": _el({"133"}, {"67"}), "c4": _el({"133"}, {"72"})}
        index = build_element_index(corpus)
        assert [find_augmented_positive(c, corpus[c], index) for c in corpus] == [
            "c2", "c1", "c1", "c1"]

    def test_second_leader_from_the_next_score_level(self):
        # the top level holds one id, so the second comes from the level
        # below it, where 6 and 18 months tie and the smaller id wins
        corpus = {
            "c5": _el({"133"}, {"67"}, months=12),
            "c9": _el({"133"}, {"67"}, months=18),
            "c3": _el({"133"}, {"67"}, months=6),
            "c1": _el({"133"}, {"67"}, months=36),
        }
        index = build_element_index(corpus)
        assert index.leaders(corpus["c5"], AugmentConfig()) == ["c5", "c3"]
        assert find_augmented_positive("c5", corpus["c5"], index) == "c3"
        # a source outside the index: its nearest case leads alone
        outside = _el({"133"}, {"67"}, months=20)
        assert index.leaders(outside, AugmentConfig()) == ["c9", "c5"]
        assert (find_augmented_positive("c0", outside, index)
                == augmented_positive_oracle("c0", outside, index, AugmentConfig()) == "c9")

    def test_index_reused_across_configs(self):
        corpus = {
            "src": _el({"133"}, {"67"}, months=12),
            "anc": _el({"133"}, {"67"}, months=120),
            "term": _el({"133"}, {"72"}, months=12),
        }
        index = build_element_index(corpus)
        only_anc = AugmentConfig(weight_ancillary=1.0, weight_term=0.0)
        only_term = AugmentConfig(weight_ancillary=0.0, weight_term=1.0)
        assert find_augmented_positive("src", corpus["src"], index, only_anc) == "anc"
        assert find_augmented_positive("src", corpus["src"], index, only_term) == "term"
        assert find_augmented_positive("src", corpus["src"], index, only_anc) == "anc"

    def test_counts_signatures_and_scores(self):
        corpus = {f"c{i}": _el({"133"}, {"67"} if i % 2 else {"72"}, months=12 + i % 3)
                  for i in range(30)}
        corpus["lone"] = _el({"500"})
        index = build_element_index(corpus)
        for case_id in sorted(corpus):
            _answer(find_augmented_positive, case_id, corpus, index, AugmentConfig())
        # bucket 133 has 6 signatures, each scored against each: 36 scores;
        # the lone bucket has one signature and one score
        assert (index.signatures, index.scores) == (7, 37)


class TestMixPairs:
    def _fixture(self, n=10):
        corpus = {f"c{i:02d}": _el({"133"}, {"67"}, months=12 + i) for i in range(n)}
        queries = [_Query(f"q{i:02d}", f"c{i:02d}") for i in range(n)]
        index = build_element_index(corpus)
        return queries, corpus, index

    def test_seventy_percent(self):
        queries, corpus, index = self._fixture(10)
        result = mix_pairs(queries, corpus, index, AugmentConfig(seed=1))
        assert len(result.pairs) == 10
        assert result.augmented_count == 7

    def test_floor_of_the_written_proportion(self):
        # 0.7 * 90 is 62.99999999999999 in floating point
        queries, corpus, index = self._fixture(90)
        result = mix_pairs(queries, corpus, index, AugmentConfig(seed=1))
        assert result.augmented_count == 63
        assert result.fallbacks == []

    def test_zero_proportion_all_original(self):
        queries, corpus, index = self._fixture(10)
        cfg = AugmentConfig(proportion_augmented=0.0)
        result = mix_pairs(queries, corpus, index, cfg)
        assert result.augmented_count == 0
        assert all(p.kind == PAIR_ORIGINAL and p.positive_case_id == q.source_case_id
                   for p, q in zip(result.pairs, queries))

    def test_full_proportion_with_no_match_falls_back(self):
        corpus = {f"c{i}": _el({"133"}, months=12 + i) for i in range(5)}
        corpus["lone"] = _el({"500"})
        queries = [_Query(f"q{i}", f"c{i}") for i in range(5)]
        queries.append(_Query("q-lone", "lone"))
        index = build_element_index(corpus)
        cfg = AugmentConfig(proportion_augmented=1.0)
        result = mix_pairs(queries, corpus, index, cfg)
        assert result.augmented_count == 5
        assert result.fallbacks == ["q-lone"]
        lone_pair = [p for p in result.pairs if p.query_id == "q-lone"][0]
        assert lone_pair.kind == PAIR_ORIGINAL and lone_pair.fallback

    def test_deterministic(self):
        queries, corpus, index = self._fixture(20)
        cfg = AugmentConfig(seed=77)
        a = mix_pairs(queries, corpus, index, cfg)
        b = mix_pairs(queries, corpus, index, cfg)
        assert [p.to_record() for p in a.pairs] == [p.to_record() for p in b.pairs]

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_exact_floor_counts(self, p, n):
        queries, corpus, index = self._fixture(n)
        cfg = AugmentConfig(proportion_augmented=p, seed=3)
        result = mix_pairs(queries, corpus, index, cfg)
        expected = int(Decimal(repr(p)) * n) if n > 1 else 0
        # a single-case bucket cannot augment; fixture has n>=2 per bucket
        if n == 1:
            assert result.augmented_count == 0
        else:
            assert result.augmented_count == expected
        assert len(result.pairs) == n

    def test_augmented_invariants(self, small_build):
        elements = small_build.elements()
        index = build_element_index(elements)
        queries = [_Query(f"q-{cid}", cid) for cid in sorted(elements)[:100]]
        result = mix_pairs(queries, elements, index, AugmentConfig(seed=5))
        by_id = {q.query_id: q.source_case_id for q in queries}
        for pair in result.pairs:
            source = elements[by_id[pair.query_id]]
            positive = elements[pair.positive_case_id]
            assert pair.positive_charges == positive.charges
            if pair.kind == PAIR_AUGMENTED:
                assert pair.positive_case_id != by_id[pair.query_id]
                assert positive.main_articles == source.main_articles

    def test_missing_source_raises(self):
        queries = [_Query("q1", "ghost")]
        with pytest.raises(MissingElements, match="query 'q1': source case 'ghost'"):
            mix_pairs(queries, {}, build_element_index({}), AugmentConfig())
