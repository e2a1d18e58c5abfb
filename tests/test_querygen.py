"""Prompt assembly, generation clients, tagging and anonymization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexforge import cli, fileio
from lexforge.corpus import CaseDocument
from lexforge.errors import GenerationFailed, QueryTooLong
from lexforge.querygen import (
    DEFAULT_BOILERPLATE_MARKERS,
    DEFAULT_MAX_QUERY_CHARS,
    OFFLINE_MAX_SENTENCES,
    OfflineTemplateClient,
    PatternTagger,
    RemoteGenerationClient,
    ReplacementDictionary,
    _DEFAULT_EXEMPLARS,
    _occurrences,
    anonymize,
    assemble_prompt,
    generate_query,
    generate_queries,
    select_exemplars,
    split_sentences,
    truncate_at_sentence,
)
from lexforge.seeds import derive_seed
from oracles import name_starts_oracle, surrogate_draw_oracle


class TestAssemblePrompt:
    def test_structure(self):
        ids = select_exemplars(1)
        messages = assemble_prompt("事实描述", ids)
        roles = [m["role"] for m in messages]
        assert roles == ["system", "user", "user", "assistant", "user",
                         "assistant", "user"]
        assert [m["content"] for m in messages[2:6]] == [
            text for i in ids for text in _DEFAULT_EXEMPLARS[i]]
        assert messages[-1]["content"] == "事实描述"

    def test_default_system_text(self):
        messages = assemble_prompt("事实", [0, 1])
        assert messages[0]["content"].startswith("As a legal expert")

    def test_deterministic_per_seed(self):
        assert select_exemplars(42) == select_exemplars(42)
        seeds = {tuple(select_exemplars(s)) for s in range(30)}
        assert len(seeds) > 1  # selection actually varies with the seed

    def test_empty_fact_rejected(self):
        with pytest.raises(ValueError):
            assemble_prompt("", [0, 1])


class _ScriptedClient:
    provenance = "remote_model"

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.calls = 0

    def complete(self, messages):
        self.calls += 1
        return self.outputs.pop(0) if self.outputs else ""


def _doc(fact=None):
    fact = fact or ("2016年3月4日，被告人张伟在临江市东湖区某仓库窃取财物。"
                    "案发后，张伟主动投案。")
    return CaseDocument(case_id="c1", fact=fact)


class TestGenerateQuery:
    def test_offline_template_is_reproducible_oracle(self, small_build):
        client = OfflineTemplateClient()
        doc = next(d for d in small_build.cases
                   if small_build.truth[d.case_id].elements is not None)
        record = generate_query(doc, client, seed=9)
        # independent re-derivation of the template rule
        kept = []
        for sentence in split_sentences(doc.fact):
            if any(m in sentence for m in DEFAULT_BOILERPLATE_MARKERS):
                continue
            kept.append(sentence)
            if len(kept) == OFFLINE_MAX_SENTENCES:
                break
        expected_raw = "".join(kept)
        anon, _ = anonymize(expected_raw, PatternTagger(),
                            ReplacementDictionary.default(),
                            derive_seed(9, "anonymize"))
        assert record.text == anon
        assert record.generator == "offline_template"

    def test_empty_output_thrice_fails(self):
        client = _ScriptedClient(["", "  ", ""])
        with pytest.raises(GenerationFailed):
            generate_query(_doc(), client, seed=0)
        assert client.calls == 3

    def test_retry_after_empty_then_success(self):
        client = _ScriptedClient(["", "被告人盗窃財物。"])
        record = generate_query(_doc(), client, seed=0)
        assert record.text

    def test_overlong_gets_one_reask_then_truncates(self):
        long_text = ("超长句子内容。" * 100)
        client = _ScriptedClient([long_text, long_text])
        record = generate_query(_doc(), client, seed=0, max_query_chars=50)
        assert client.calls == 2
        assert len(record.text) <= 50
        assert record.text.endswith("。")

    def test_overlong_without_boundary_raises(self):
        client = _ScriptedClient(["无标点" * 100, "无标点" * 100])
        with pytest.raises(QueryTooLong):
            generate_query(_doc(), client, seed=0, max_query_chars=50)

    def test_reask_accepted_when_short_enough(self):
        client = _ScriptedClient(["长内容。" * 50, "短描述。"])
        record = generate_query(_doc(), client, seed=0, max_query_chars=60)
        assert record.text.startswith("短描述")

    def test_length_invariant(self, small_build):
        client = OfflineTemplateClient()
        for doc in small_build.cases[:50]:
            record = generate_query(doc, client, seed=3)
            assert len(record.text) <= DEFAULT_MAX_QUERY_CHARS

    def test_record_roundtrip(self, tmp_path):
        # the pipeline reads back three fields of a query record
        client = OfflineTemplateClient()
        record = generate_query(_doc(), client, seed=5)
        fileio.write_jsonl(tmp_path / "q.jsonl", [record.to_record()])
        assert list(cli._queries(tmp_path / "q.jsonl")) == [
            (record.query_id, record.source_case_id, record.text)]
        written = record.to_record()["anonymization_log"]
        assert [e["surface"] for e in written] == [e.surface for e in record.anonymization_log]

    def test_amounts_survive_names_do_not(self):
        # construction-obstruction style fact: amounts are key legal elements
        fact = ("2016年7月20日，被告人张伟强在临江市东湖区某工地伙同他人商议阻挡施工，"
                "筹集阻工资金7万元，并纠集二十余名村民到场阻工，致使工地无法施工。"
                "经鉴定，阻工造成经济损失124530元。案发后，张伟强被公安机关抓获归案。")
        doc = CaseDocument(case_id="c9", fact=fact)
        record = generate_query(doc, OfflineTemplateClient(), seed=1)
        assert "7万元" in record.text
        assert "124530" in record.text
        assert "张伟强" not in record.text

    def test_parallel_map_matches_sequential(self, small_build):
        docs = small_build.cases[:12]
        client = OfflineTemplateClient()
        seq = generate_queries(docs, client, global_seed=4, max_in_flight=1)
        par = generate_queries(docs, client, global_seed=4, max_in_flight=4)
        assert [q.to_record() for q in seq] == [q.to_record() for q in par]

    def test_asymmetry(self, small_build):
        docs = [d for d in small_build.cases
                if small_build.truth[d.case_id].elements is not None][:100]
        queries = generate_queries(docs, OfflineTemplateClient(), global_seed=2)
        avg_query = sum(len(q.text) for q in queries) / len(queries)
        avg_fact = sum(len(d.fact) for d in docs) / len(docs)
        assert avg_query < 0.6 * avg_fact


class _FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers,
                              "timeout": timeout})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _ok_response(content="生成的查询。"):
    return _FakeResponse(payload={"choices": [{"message": {"content": content}}]})


class TestRemoteClient:
    def test_success(self):
        session = _FakeSession([_ok_response("你好")])
        client = RemoteGenerationClient("http://api.test/v1/chat", "m1",
                                        api_key="k", session=session, sleep=lambda s: None)
        assert client.complete([{"role": "user", "content": "hi"}]) == "你好"
        sent = session.requests[0]
        assert sent["json"]["model"] == "m1"
        assert sent["headers"]["Authorization"] == "Bearer k"

    def test_retries_on_server_error_with_backoff(self):
        import requests as _requests
        session = _FakeSession([
            _FakeResponse(status_code=503),
            _requests.ConnectionError("boom"),
            _ok_response("ok"),
        ])
        naps = []
        client = RemoteGenerationClient("http://api.test", "m", session=session,
                                        max_retries=3, backoff=0.5,
                                        sleep=naps.append)
        assert client.complete([]) == "ok"
        assert naps == [0.5, 1.0]  # exponential

    def test_gives_up_after_retries(self):
        session = _FakeSession([_FakeResponse(status_code=500)] * 3)
        client = RemoteGenerationClient("http://api.test", "m", session=session,
                                        max_retries=3, sleep=lambda s: None)
        with pytest.raises(GenerationFailed):
            client.complete([])

    def test_client_error_fails_fast(self):
        session = _FakeSession([_FakeResponse(status_code=401, text="denied")])
        client = RemoteGenerationClient("http://api.test", "m", session=session,
                                        sleep=lambda s: None)
        with pytest.raises(GenerationFailed):
            client.complete([])
        assert not session.responses  # only one request went out

    def test_bad_payload(self):
        session = _FakeSession([_FakeResponse(payload={"weird": True})])
        client = RemoteGenerationClient("http://api.test", "m", session=session,
                                        sleep=lambda s: None)
        with pytest.raises(GenerationFailed):
            client.complete([])


class TestAnonymize:
    def setup_method(self):
        self.tagger = PatternTagger()
        self.replacements = ReplacementDictionary.default()

    def test_person_replaced(self):
        text = "被告人张伟在现场逃离，张伟随后投案。"
        out, log = anonymize(text, self.tagger, self.replacements, seed=1)
        assert "张伟" not in out
        assert len({e.replacement for e in log if e.category == "person"}) == 1

    def test_no_entities_identity(self):
        text = "一段不含可识别要素的描述。"
        out, log = anonymize(text, self.tagger, self.replacements, seed=1)
        assert out == text and log == []

    def test_deterministic(self):
        text = "2015年1月2日，被告人李志强在云岭市持械伤人。"
        a = anonymize(text, self.tagger, self.replacements, seed=7)
        b = anonymize(text, self.tagger, self.replacements, seed=7)
        assert a == b

    def test_log_categories(self):
        text = "2015年1月2日，被告人王浩在临江市东湖区盛达商贸有限公司盗窃。"
        out, log = anonymize(text, self.tagger, self.replacements, seed=3)
        assert {e.category for e in log} == {"time", "person", "location", "company"}
        for entry in log:
            assert entry.surface not in out

    def test_residue_property(self, small_build):
        # deleting replacements from output and tagged spans from input
        # leaves identical residue text
        docs = small_build.cases[:40]
        for doc in docs:
            text = doc.fact
            out, log = anonymize(text, self.tagger, self.replacements, seed=11)
            in_residue = []
            cursor = 0
            for entry in log:
                in_residue.append(text[cursor:entry.start])
                cursor = entry.end
            in_residue.append(text[cursor:])
            out_residue = []
            cursor = 0
            for entry in log:
                out_start = entry.out_end - len(entry.replacement)
                out_residue.append(out[cursor:out_start])
                assert out[out_start:entry.out_end] == entry.replacement
                cursor = entry.out_end
            out_residue.append(out[cursor:])
            assert "".join(in_residue) == "".join(out_residue)

    def test_surrogate_never_contains_a_tagged_surface(self):
        # 吴志成 contains the tagged name 吴志, so it may not replace it
        replacements = ReplacementDictionary(pools={"person": ["吴志成", "周建国"]})
        for seed in range(20):
            out, log = anonymize("被告人吴志在现场。", self.tagger, replacements, seed)
            assert [e.replacement for e in log] == ["周建国"] and "吴志" not in out

    def test_placeholder_never_contains_a_tagged_surface(self):
        empty = ReplacementDictionary(pools={})
        assert empty.draw("person", None, frozenset({"乙1"})) == "某乙2"
        with pytest.raises(ValueError, match="every person placeholder"):
            empty.draw("person", None, frozenset({"某乙"}))

    @given(st.dictionaries(st.sampled_from(["person", "time"]),
                           st.lists(st.text(alphabet="吴志成周建国某乙1", min_size=1, max_size=4),
                                    max_size=8)),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_draw_equals_the_plain_filter(self, pools, data):
        replacements = ReplacementDictionary(pools=pools)
        members = [s for pool in pools.values() for s in pool]
        # several draws on one dictionary, as anonymize makes them
        for _ in range(3):
            category = data.draw(st.sampled_from(["person", "time", "company"]))
            cuts = st.sampled_from(members).flatmap(
                lambda s: st.tuples(st.just(s), st.integers(0, len(s)), st.integers(0, len(s)))
            ).map(lambda c: c[0][min(c[1:]):max(c[1:])]) if members else st.nothing()
            forbidden = data.draw(st.frozensets(
                st.one_of(cuts, st.text(alphabet="吴志成周建国某乙12", max_size=3)), max_size=5))
            seed = data.draw(st.integers(0, 2 ** 32))
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            try:
                got = replacements.draw(category, got_rng, forbidden)
            except ValueError as exc:
                got = str(exc)
            try:
                want = surrogate_draw_oracle(pools, category, want_rng, forbidden)
            except ValueError as exc:
                want = str(exc)
            assert got == want
            assert got_rng.getstate() == want_rng.getstate()

    def test_pools_are_frozen(self):
        given_pool = ["吴志成", "周建国"]
        replacements = ReplacementDictionary(pools={"person": given_pool})
        given_pool[:] = ["吴志"]
        assert replacements.pools["person"] == ("吴志成", "周建国")
        with pytest.raises(TypeError):
            replacements.pools["person"] = ("吴志",)
        assert replacements.draw("person", random.Random(0), frozenset({"吴志"})) == "周建国"

    def test_no_tagged_surface_survives(self, small_build):
        for doc in small_build.cases[:60]:
            spans = self.tagger.tag(doc.fact)
            out, _ = anonymize(doc.fact, self.tagger, self.replacements, seed=5)
            for span in spans:
                surface = doc.fact[span.start:span.end]
                assert surface not in out, (doc.case_id, surface, out)


class TestPatternTagger:
    def test_spans_sorted_disjoint_in_bounds(self, small_build):
        tagger = PatternTagger()
        for doc in small_build.cases[:80]:
            spans = tagger.tag(doc.fact)
            last_end = 0
            for span in spans:
                assert 0 <= span.start < span.end <= len(doc.fact)
                assert span.start >= last_end
                last_end = span.end

    @given(st.text(alphabet="张王李被告人某在于2016年月日市区一二三〇大厦。，", max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_text_never_breaks(self, text):
        spans = PatternTagger().tag(text)
        last_end = 0
        for span in spans:
            assert 0 <= span.start < span.end <= len(text)
            assert span.start >= last_end
            last_end = span.end


    @given(st.text(alphabet="某王.*+?[]()|\\^$", min_size=1, max_size=4),
           st.text(alphabet="某王.*+?[]()|\\^$a", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_name_search_equals_the_regex(self, name, text):
        assert list(_occurrences(name, text)) == name_starts_oracle(name, text)

    def test_overlapping_repeats_are_found_left_to_right(self):
        assert list(_occurrences("某某", "某某某")) == name_starts_oracle("某某", "某某某") == [0]
        assert list(_occurrences("某某", "某某某某某")) == [0, 2]


class TestTruncation:
    def test_truncate_at_sentence(self):
        text = "一句话。第二句话。第三句话。"
        assert truncate_at_sentence(text, 9) == "一句话。第二句话。"
        assert truncate_at_sentence(text, len(text)) == text

    def test_truncate_impossible(self):
        with pytest.raises(QueryTooLong):
            truncate_at_sentence("没有标点" * 20, 10)
