"""Parsing, element extraction, article classification and filtering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexforge.corpus import (
    ANCILLARY,
    MAIN,
    CaseDocument,
    CorpusFilterConfig,
    DocKind,
    Exclusion,
    LegalElements,
    PrisonTerm,
    REASON_EXTRACTION_FAILED,
    REASON_RULING,
    REASON_SHORT_FACT,
    TermKind,
    article_base,
    case_to_record,
    classify_article,
    elements_from_record,
    elements_to_record,
    extract_charges,
    extract_article_ids,
    extract_elements,
    filter_corpus,
    format_prison_term,
    parse_case,
    parse_prison_term,
)
from lexforge.errors import (
    ExtractionFailed,
    MalformedRecord,
    MissingField,
)
from lexforge.zhnum import int_to_numeral, numeral_to_int

from oracles import exclusion_oracle


class TestNumerals:
    @pytest.mark.parametrize("text,value", [
        ("三", 3), ("十", 10), ("十五", 15), ("二十", 20), ("两", 2),
        ("一百零一", 101), ("一百一十", 110), ("二百六十四", 264),
        ("一千零二", 1002), ("133", 133), ("0", 0),
    ])
    def test_parse(self, text, value):
        assert numeral_to_int(text) == value

    def test_roundtrip(self):
        for n in range(0, 1000):
            assert numeral_to_int(int_to_numeral(n)) == n

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            numeral_to_int("甲乙")


class TestParseCase:
    def test_roundtrip(self):
        doc = CaseDocument(case_id="c1", doc_kind=DocKind.JUDGMENT,
                           fact="事实" * 60, reason="理由", judgment="判决",
                           charge_labels=["盗窃罪"])
        assert parse_case(case_to_record(doc)) == doc

    def test_alias_keys(self):
        doc = parse_case({"id": "c1", "kind": "judgment", "fact": "x",
                          "reason": "r", "judgment": "j"})
        assert doc.case_id == "c1"
        assert doc.fact == "x" and doc.reason == "r" and doc.judgment == "j"
        # a numeric id is text; a missing section is empty
        doc = parse_case({"id": 7, "kind": "ruling", "fact": "经审理查明"})
        assert (doc.case_id, doc.doc_kind, doc.reason, doc.judgment) == (
            "7", DocKind.RULING, "", "")

    def test_missing_fact(self):
        with pytest.raises(MissingField) as err:
            parse_case({"id": "c1"})
        assert err.value.field == "fact"

    def test_missing_case_id(self):
        with pytest.raises(MissingField):
            parse_case({"fact": "x"})

    def test_ruling_passes_through(self):
        doc = parse_case({"id": "c2", "kind": "ruling", "fact": "x"})
        assert doc.doc_kind is DocKind.RULING

    def test_absent_sections_become_empty(self):
        doc = parse_case({"id": "c3", "fact": "x"})
        assert doc.reason == "" and doc.judgment == ""

    def test_malformed(self):
        with pytest.raises(MalformedRecord):
            parse_case("not a mapping")
        with pytest.raises(MalformedRecord):
            parse_case({"id": "c", "fact": "x", "kind": "appeal"})
        with pytest.raises(MalformedRecord):
            parse_case({"id": "c", "fact": 42})


class TestClassifyArticle:
    def test_paper_exemplars(self):
        assert classify_article("133") == MAIN
        assert classify_article("67") == ANCILLARY
        assert classify_article("50") == ANCILLARY

    def test_threshold_boundary_enumeration(self):
        # rule-table oracle: direct comparison against the boundary
        for n in range(1, 452):
            expected = ANCILLARY if n <= 101 else MAIN
            assert classify_article(str(n)) == expected

    def test_sub_article_uses_base(self):
        assert classify_article("133-1") == MAIN
        assert article_base("133-1") == 133

    def test_bad_ids(self):
        with pytest.raises(ValueError):
            classify_article("0")
        with pytest.raises(ValueError):
            classify_article("abc")


class TestPrisonTerm:
    @pytest.mark.parametrize("text,kind,months", [
        ("判处有期徒刑三年", TermKind.FIXED_TERM, 36),
        ("判处有期徒刑三年六个月", TermKind.FIXED_TERM, 42),
        ("判处有期徒刑十个月", TermKind.FIXED_TERM, 10),
        ("判处拘役四个月", TermKind.DETENTION, 4),
        ("判处管制一年", TermKind.CONTROL, 12),
        ("判处无期徒刑", TermKind.LIFE, 0),
        ("判处死刑，并处没收个人全部财产", TermKind.DEATH, 0),
        ("免予刑事处罚", TermKind.EXEMPT, 0),
        ("单处罚金人民币五千元", TermKind.FINE_ONLY, 0),
    ])
    def test_parse(self, text, kind, months):
        term = parse_prison_term(text)
        assert term == PrisonTerm(kind, months)

    def test_joinder_prefers_decided_term(self):
        text = "判处有期徒刑二年；数罪并罚，决定执行有期徒刑五年"
        assert parse_prison_term(text) == PrisonTerm(TermKind.FIXED_TERM, 60)

    def test_nothing_parseable(self):
        assert parse_prison_term("本判决为处理决定。") is None

    def test_format_parse_roundtrip(self):
        for months in range(1, 301):
            for kind in (TermKind.FIXED_TERM, TermKind.DETENTION, TermKind.CONTROL):
                term = PrisonTerm(kind, months)
                assert parse_prison_term("判处" + format_prison_term(term)) == term

    def test_structured_input(self):
        term = PrisonTerm.from_record({"kind": "fixed_term", "months": 36})
        assert term == PrisonTerm(TermKind.FIXED_TERM, 36)

    @pytest.mark.parametrize("value,message", [
        ("有期徒刑三年", "term must be a mapping, not str"),
        (36, "term must be a mapping, not int"),
        (None, "term must be a mapping, not NoneType"),
        ({"kind": "prison", "months": 3}, "'prison' is not a valid TermKind"),
        ({"kind": "fixed_term", "months": "three"}, "invalid literal"),
        ({"kind": "fixed_term", "months": 0}, "fixed_term requires months >= 1"),
    ])
    def test_malformed_term_is_a_malformed_record(self, value, message):
        with pytest.raises(MalformedRecord, match=message):
            PrisonTerm.from_record(value)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrisonTerm(TermKind.FIXED_TERM, 0)
        with pytest.raises(ValueError):
            PrisonTerm(TermKind.DEATH, 5)
        with pytest.raises(ValueError):
            PrisonTerm(TermKind.DETENTION, -1)


class TestExtraction:
    def _doc(self, reason, judgment):
        return CaseDocument(case_id="c", fact="x" * 120,
                            reason=reason, judgment=judgment)

    def test_traffic_case(self):
        doc = self._doc(
            "依照《中华人民共和国刑法》第一百三十三条、第六十七条第一款之规定，判决如下。",
            "被告人王某犯交通肇事罪，判处有期徒刑三年。")
        elements = extract_elements(doc)
        assert elements.main_articles == frozenset({"133"})
        assert elements.ancillary_articles == frozenset({"67"})
        assert elements.charges == frozenset({"交通肇事罪"})
        assert elements.prison_term == PrisonTerm(TermKind.FIXED_TERM, 36)

    def test_no_charge(self):
        doc = self._doc("依照《中华人民共和国刑法》第一百三十三条之规定。",
                        "本判决为处理决定，判处有期徒刑一年。")
        with pytest.raises(ExtractionFailed):
            extract_elements(doc)

    def test_no_article(self):
        doc = self._doc("本院认为事实清楚。", "被告人犯盗窃罪，判处拘役三个月。")
        with pytest.raises(ExtractionFailed):
            extract_elements(doc)

    def test_no_main_article(self):
        doc = self._doc("依照《中华人民共和国刑法》第六十七条之规定。",
                        "被告人犯盗窃罪，判处拘役三个月。")
        with pytest.raises(ExtractionFailed):
            extract_elements(doc)

    def test_no_term(self):
        doc = self._doc("依照《中华人民共和国刑法》第二百六十四条之规定。",
                        "被告人犯盗窃罪。")
        with pytest.raises(ExtractionFailed):
            extract_elements(doc)

    def test_multiple_charges(self):
        charges = extract_charges("被告人犯盗窃罪、故意伤害罪，数罪并罚。")
        assert charges == ["盗窃罪", "故意伤害罪"]

    def test_charge_pattern_ignores_generic_words(self):
        assert extract_charges("犯罪嫌疑人的行为构成犯罪。") == []

    def test_article_scan_skips_other_statutes(self):
        reason = ("依照《中华人民共和国刑事诉讼法》第二百条之规定，"
                  "依照《中华人民共和国刑法》第二百六十四条之规定判决。")
        assert extract_article_ids(reason) == ["264"]

    def test_sub_article(self):
        assert extract_article_ids(
            "依照《中华人民共和国刑法》第一百三十三条之一之规定。") == ["133-1"]

    def test_generator_inversion(self, small_spec, small_build):
        checked = 0
        for doc in small_build.cases:
            truth = small_build.truth[doc.case_id]
            if truth.elements is None:
                continue
            assert extract_elements(doc) == truth.elements
            checked += 1
        assert checked == small_spec.n_cases

    def test_disjoint_invariant(self):
        with pytest.raises(ValueError):
            LegalElements(charges=frozenset({"x"}),
                          main_articles=frozenset({"133"}),
                          ancillary_articles=frozenset({"133", "67"}),
                          prison_term=PrisonTerm(TermKind.LIFE))

    def test_elements_record_roundtrip(self, small_build):
        elements = small_build.elements()
        case_id = sorted(elements)[0]
        record = elements_to_record(case_id, elements[case_id])
        back_id, back = elements_from_record(record)
        assert back_id == case_id and back == elements[case_id]


class TestFilter:
    def _valid_doc(self, case_id="ok", fact_chars=150):
        return CaseDocument(
            case_id=case_id, fact="事" * fact_chars,
            reason="依照《中华人民共和国刑法》第二百六十四条、第六十七条之规定。",
            judgment="被告人犯盗窃罪，判处有期徒刑一年。")

    def test_ruling_excluded(self):
        doc = CaseDocument(case_id="r1", doc_kind=DocKind.RULING, fact="x" * 200)
        log = []
        out = list(filter_corpus([doc], on_exclude=log.append))
        assert out == []
        assert log == [Exclusion("r1", REASON_RULING)]

    def test_short_fact_boundary(self):
        log = []
        d99 = self._valid_doc("c99", 99)
        d100 = self._valid_doc("c100", 100)
        out = list(filter_corpus([d99, d100], on_exclude=log.append))
        assert [doc.case_id for doc, _ in out] == ["c100"]
        assert log[0].case_id == "c99" and log[0].reason == REASON_SHORT_FACT

    def test_char_count_not_bytes(self):
        # 99 CJK chars are 297 utf-8 bytes but still short
        log = []
        doc = self._valid_doc("cjk", 99)
        assert len(doc.fact.encode("utf-8")) > 100
        list(filter_corpus([doc], on_exclude=log.append))
        assert log[0].reason == REASON_SHORT_FACT

    def test_extraction_failure_excluded(self):
        doc = CaseDocument(case_id="bad", fact="x" * 150,
                           reason="无引用。", judgment="无结论。")
        log = []
        assert list(filter_corpus([doc], on_exclude=log.append)) == []
        assert log[0].reason == REASON_EXTRACTION_FAILED

    def test_count_oracle(self, small_spec, small_build):
        log = []
        admitted = list(filter_corpus(small_build.cases, on_exclude=log.append))
        spec = small_spec
        assert len(admitted) == spec.n_cases
        reasons = sorted(e.reason for e in log)
        assert reasons.count(REASON_RULING) == spec.n_rulings
        assert reasons.count(REASON_SHORT_FACT) == spec.n_short_facts
        assert reasons.count(REASON_EXTRACTION_FAILED) == spec.n_unextractable
        expected = exclusion_oracle(small_build, spec)
        assert {e.case_id: e.reason for e in log} == expected

    def test_idempotent(self, small_build):
        first = list(filter_corpus(small_build.cases))
        second = list(filter_corpus(doc for doc, _ in first))
        assert [d.case_id for d, _ in first] == [d.case_id for d, _ in second]
        assert [e for _, e in first] == [e for _, e in second]

    def test_admitted_invariants(self, small_build):
        for _, elements in filter_corpus(small_build.cases):
            assert elements.main_articles
            assert not (elements.main_articles & elements.ancillary_articles)
            assert elements.charges

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_min_fact_chars_property(self, n):
        doc = self._valid_doc("p", n)
        cfg = CorpusFilterConfig(min_fact_chars=15)
        admitted = list(filter_corpus([doc], cfg))
        assert bool(admitted) == (n >= 15)
