"""BM25 scoring, segmentation, truncation-max dense scoring and search."""

import math
import re
import zlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexforge import retrieval
from lexforge.cli import _search_run
from lexforge.errors import BadIndex, EmptyCorpus, LexforgeError, UnknownDoc, ZeroVector
from lexforge.retrieval import (
    Bm25Index,
    Bm25Params,
    Bm25Scorer,
    DenseScorer,
    SegmentConfig,
    bm25_score,
    dense_score,
    search,
    segment,
    tokenize_char_bigrams,
    tokenize_whitespace,
    unit_query,
)

from oracles import (
    bm25_build_oracle,
    bm25_counter_oracle,
    bm25_oracle,
    char_bigrams_oracle,
    embed_oracle,
    search_oracle,
    segment_count,
    window_oracle,
)


class TestTokenizers:
    def test_char_bigrams(self):
        assert tokenize_char_bigrams("abcd") == ["ab", "bc", "cd"]
        assert tokenize_char_bigrams("盗窃 财物") == ["盗窃", "窃财", "财物"]
        assert tokenize_char_bigrams("x") == ["x"]
        assert tokenize_char_bigrams("") == []

    @given(st.text(st.sampled_from("盗窃ab \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\u200b"),
                   max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_char_bigrams_skip_what_isspace_rejects(self, text):
        assert tokenize_char_bigrams(text) == char_bigrams_oracle(text)

    def test_whitespace(self):
        assert tokenize_whitespace("The Quick fox") == ["the", "quick", "fox"]


def _score(query, doc_id, index, params=Bm25Params()):
    """One document's score with the index's own statistics (corpus scope)."""
    [(_, score)] = Bm25Scorer([], params, index=index).score(query, {doc_id: ""})
    return score


class TestBm25:
    def test_single_doc_hand_value(self):
        # one doc, query term once, |d| = avgdl: score reduces to the idf,
        # ln(1 + 0.5/1.5) = ln(4/3)
        index = Bm25Index.build({"d1": "alpha beta gamma"}, "whitespace")
        score = _score("alpha", "d1", index)
        assert score == pytest.approx(math.log(4 / 3), abs=1e-12)
        assert score == pytest.approx(0.28768, abs=1e-5)

    def test_absent_term_contributes_zero(self):
        index = Bm25Index.build({"d1": "alpha beta"}, "whitespace")
        assert _score("zeta", "d1", index) == 0.0

    def test_k1_irrelevant_at_zero_tf(self):
        index = Bm25Index.build({"d1": "alpha"}, "whitespace")
        a = _score("missing", "d1", index, Bm25Params(k1=1.2))
        b = _score("missing", "d1", index, Bm25Params(k1=2.4))
        assert a == b == 0.0

    def test_five_doc_corpus_matches_formula(self):
        docs = {
            "d1": "the cat sat on the mat",
            "d2": "the dog chased the cat",
            "d3": "birds fly over the mat",
            "d4": "cat and dog and bird",
            "d5": "completely unrelated words here",
        }
        index = Bm25Index.build(docs, "whitespace")
        tokens = {d: tokenize_whitespace(t) for d, t in docs.items()}
        params = Bm25Params()
        for query in (["cat"], ["the", "cat"], ["dog", "mat", "bird"]):
            for doc_id in docs:
                expected = bm25_oracle(query, tokens, doc_id, params.k1, params.b)
                got = _score(" ".join(query), doc_id, index, params)
                assert got == pytest.approx(expected, abs=1e-9), (query, doc_id)

    def test_unknown_doc(self):
        index = Bm25Index.build({"d1": "x y"}, "whitespace")
        with pytest.raises(UnknownDoc):
            _score("x", "ghost", index)

    def test_monotonic_in_tf(self):
        # same doc length, increasing tf of the query term
        docs = {
            "a": "q x x x", "b": "q q x x", "c": "q q q x",
        }
        index = Bm25Index.build(docs, "whitespace")
        scores = [_score("q", d, index) for d in ("a", "b", "c")]
        assert scores[0] < scores[1] < scores[2]

    def test_idf_decreases_with_df(self):
        # the same document, and the same lengths, in both corpora
        rare = Bm25Index.build({"a": "q x", "b": "y z", "c": "w v"}, "whitespace")
        common = Bm25Index.build({"a": "q x", "b": "q z", "c": "q v"}, "whitespace")
        assert _score("q", "a", rare) > _score("q", "a", common) > 0.0

    def test_score_sums_the_weighted_terms(self):
        # |d| = avgdl and tf = 1: each term adds its weight; a repeat adds it
        # again and a term the document lacks adds nothing
        tf = {"x": 1, "y": 1}
        assert bm25_score([("x", 2.0)], tf, 2, 2.0) == 2.0
        assert bm25_score([("x", 2.0), ("z", 5.0), ("x", 2.0), ("y", 0.5)], tf, 2, 2.0) == 4.5

    def test_index_save_load(self, tmp_path):
        index = Bm25Index.build({"d1": "盗窃财物", "d2": "交通肇事"})
        path = tmp_path / "bm25.idx"
        assert index.save(path) == path.stat().st_size
        loaded = Bm25Index.load(path)
        _assert_same_index(loaded, index)
        assert _score("盗窃", "d1", loaded) == _score("盗窃", "d1", index)


def _stats(index):
    """Each document's (term, tf) sequence, the lengths and doc_freq, in order."""
    return ([(d, list(index.term_freqs(d).items())) for d in index.doc_ids],
            list(index.doc_lens.items()), list(index.doc_freq.items()))


def _assert_same_index(got, want):
    assert (got.tokenizer_name, got.terms, got.doc_ids) == (
        want.tokenizer_name, want.terms, want.doc_ids)
    assert (got.offsets, got.term_ids, got.tfs) == (want.offsets, want.term_ids, want.tfs)
    assert (_stats(got), got.n_docs, got.avgdl) == (_stats(want), want.n_docs, want.avgdl)


class TestBuild:
    """``Bm25Index.build`` keeps one string per distinct term; the statistics
    are those of the plain counting loop, and the saved file loads back as
    the same index."""

    @given(st.dictionaries(st.sampled_from([f"d{i}" for i in range(12)]),
                           st.text("盗窃抢劫财物 abAB", max_size=40), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_counting_loop(self, tmp_path_factory, corpus):
        tmp = tmp_path_factory.getbasetemp() / "build"
        tmp.mkdir(exist_ok=True)
        for name in ("char_bigram", "whitespace"):
            got = Bm25Index.build(corpus, name)
            term_freqs, doc_lens, doc_freq = bm25_build_oracle(corpus, name)
            assert _stats(got) == ([(d, list(tf.items())) for d, tf in term_freqs.items()],
                                   list(doc_lens.items()), list(doc_freq.items()))
            got.save(tmp / "got.idx")
            loaded = Bm25Index.load(tmp / "got.idx")
            _assert_same_index(loaded, got)
            query, pool = " ".join(got.terms[::2]), dict.fromkeys(got.doc_ids, "")
            assert (Bm25Scorer([], index=loaded).score(query, pool)
                    == Bm25Scorer([], index=got).score(query, pool))

    @pytest.mark.parametrize("name,texts,term", [
        ("char_bigram", ("被告人盗窃财物", "盗窃电动车"), "盗窃"),
        ("whitespace", ("Stole the car", "the bike was stolen"), "the")])
    def test_documents_share_one_string_per_term(self, tmp_path, name, texts, term):
        built = Bm25Index.build({"a": texts[0], "b": texts[1]}, name)
        built.save(tmp_path / "bm25.idx")
        for index in (built, Bm25Index.load(tmp_path / "bm25.idx")):
            keys = [next(k for k in index.term_freqs(d) if k == term) for d in ("a", "b")]
            assert keys[0] is keys[1]
            assert next(k for k in index.doc_freq if k == term) is keys[0]
        # the oracle's documents hold equal but distinct strings
        plain, _, _ = bm25_build_oracle({"a": texts[0], "b": texts[1]}, name)
        plain_keys = [next(k for k in plain[d] if k == term) for d in ("a", "b")]
        assert plain_keys[0] == plain_keys[1] and plain_keys[0] is not plain_keys[1]

    def test_file_layout(self, tmp_path):
        size = Bm25Index.build({"b": "y", "a": "x y x"}, "whitespace").save(tmp_path / "i")
        want = _layout(["a", "b"], ["x", "y"], [0, 2, 3], [0, 1, 1], [2, 1, 1])
        assert (tmp_path / "i").read_bytes() == want and size == len(want)

    def test_load_holds_no_copy_of_the_file(self, tmp_path, small_build):
        """Loading reads each section straight into its list or array, so
        its peak exceeds what the loaded index holds by less than a tenth
        of the file; holding the file's bytes too would add all of them."""
        import tracemalloc
        corpus = {c.case_id: c.fact + c.reason + c.judgment for c in small_build.cases}
        path = tmp_path / "bm25.idx"
        size = Bm25Index.build(corpus).save(path)
        tracemalloc.start()
        try:
            loaded = Bm25Index.load(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.n_docs == len(corpus)
        assert peak - held < size // 10

    def test_postings_take_3_bytes_each(self, tmp_path, small_build):
        """A char-bigram index holds each posting in 3 bytes, a 2-byte term
        id and a 1-byte tf, built or loaded; deleting a loaded index's two
        arrays frees those bytes and no more. Building it holds less than 4
        bytes a posting beyond what it returns, less than either array at
        4 bytes a value would take."""
        import tracemalloc
        corpus = {c.case_id: c.fact + c.reason + c.judgment for c in small_build.cases}
        tracemalloc.start()
        try:
            built = Bm25Index.build(corpus)
            held, peak = tracemalloc.get_traced_memory()
            postings = len(built.term_ids)
            built.save(tmp_path / "bm25.idx")
            loaded = Bm25Index.load(tmp_path / "bm25.idx")
            before = tracemalloc.get_traced_memory()[0]
            del loaded.term_ids, loaded.tfs
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert postings > 50_000
        assert (built.term_ids.itemsize, built.tfs.itemsize) == (2, 1)
        assert 3 * postings <= freed <= 3 * postings + 256
        assert peak - held < 4 * postings

    @pytest.mark.parametrize("corpus,widths", [
        ({"a": " ".join(f"t{i}" for i in range(70_000)), "b": "t5 t5 t69999 new"}, (4, 1)),
        ({"a": "x " * 256 + "y", "b": "y z"}, (1, 2)),
        ({"a": "x " * 65_535 + "y", "b": "x y"}, (1, 2)),
        ({"b": "x y", "a": "x " * 65_536 + "y"}, (1, 4)),
    ])
    def test_each_wider_width(self, tmp_path, corpus, widths):
        """More than 65,536 terms take 4-byte term ids, and a tf past 255 or
        65,535 takes 2 or 4 bytes; the index round-trips through its file,
        its postings are the counting loop's and its scores the plain
        counting path's."""
        built = Bm25Index.build(corpus, "whitespace")
        built.save(tmp_path / "bm25.idx")
        loaded = Bm25Index.load(tmp_path / "bm25.idx")
        _assert_same_index(loaded, built)
        term_freqs, doc_lens, doc_freq = bm25_build_oracle(corpus, "whitespace")
        assert _stats(loaded) == ([(d, list(tf.items())) for d, tf in term_freqs.items()],
                                  list(doc_lens.items()), list(doc_freq.items()))
        assert (loaded.term_ids.itemsize, loaded.tfs.itemsize) == widths
        for query in ("x y", "t5 t69999 new z", "y y t0"):
            assert (Bm25Scorer([], index=loaded).score(query, corpus)
                    == bm25_counter_oracle(query, corpus, corpus, "whitespace", Bm25Params()))

    @given(st.dictionaries(st.sampled_from([f"d{i}" for i in range(6)]),
                           st.lists(st.tuples(st.integers(0, 299),
                                              st.sampled_from([1, 2, 255, 256, 300])),
                                    max_size=12), max_size=6),
           st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_narrow_arrays_equal_the_counting_loop(self, tmp_path_factory, docs, block):
        """Built through blocks of a few entries, so that a later block can
        widen what earlier ones narrowed, the postings are the counting
        loop's, each array at the narrowest of 1, 2 and 4 bytes that holds
        its largest value, and they round-trip through the file."""
        corpus = {d: " ".join(f"t{t}" for t, repeat in tokens for _ in range(repeat))
                  for d, tokens in docs.items()}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(retrieval, "_BLOCK", block)
            built = Bm25Index.build(corpus, "whitespace")
        term_freqs, doc_lens, doc_freq = bm25_build_oracle(corpus, "whitespace")
        assert _stats(built) == ([(d, list(tf.items())) for d, tf in term_freqs.items()],
                                 list(doc_lens.items()), list(doc_freq.items()))
        tops = (len(doc_freq) - 1, max((max(tf.values()) for tf in term_freqs.values()
                                        if tf), default=0))
        assert [a.itemsize for a in (built.term_ids, built.tfs)] == [
            1 if top < 256 else 2 if top < 65_536 else 4 for top in tops]
        path = tmp_path_factory.getbasetemp() / "narrow.idx"
        built.save(path)
        _assert_same_index(Bm25Index.load(path), built)


def _layout(doc_ids, terms, offsets, term_ids, tfs, tokenizer="whitespace", version=2,
            widths=(1, 1)):
    """The bytes of an index file, spelled out section by section: the term
    ids and the tfs at ``widths`` bytes each, then the CRC-32 of the rest."""
    def u32(n):
        return n.to_bytes(4, "little")

    def texts(items):
        return b"".join(u32(len(t.encode())) + t.encode() for t in items)

    body = (b"LXBM25IX" + u32(version) + texts([tokenizer])
            + u32(len(doc_ids)) + texts(doc_ids) + u32(len(terms)) + texts(terms)
            + b"".join(n.to_bytes(8, "little") for n in offsets) + bytes(widths)
            + b"".join(n.to_bytes(widths[0], "little") for n in term_ids)
            + b"".join(n.to_bytes(widths[1], "little") for n in tfs))
    return body + u32(zlib.crc32(body))


#: A whole one-posting index, and the same with its CRC-32's low byte changed.
_ONE = _layout(["a"], ["x"], [0, 1], [0], [1])
_ONE_BAD_CRC = _ONE[:-4] + bytes([_ONE[-4] ^ 1]) + _ONE[-3:]
_REBUILD_V1 = "unsupported version 1; rebuild it with `lexforge index`"


class TestPoolScope:
    """A pool-scope scorer counts each pool's statistics over the pool's own
    candidates: its scores are those of a corpus-scope scorer over an index
    built from the pool alone."""

    @given(st.dictionaries(st.sampled_from([f"d{i}" for i in range(12)]),
                           st.text("盗窃抢劫财物 ab", max_size=30), max_size=12),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_a_build_over_the_pool(self, corpus, data):
        ids = st.lists(st.sampled_from(sorted(corpus)), max_size=20) if corpus else st.just([])
        pools = [{i: corpus[i] for i in data.draw(ids)}
                 for _ in range(data.draw(st.integers(1, 4)))]
        queries = data.draw(st.lists(st.text("盗窃抢劫财物 abx", max_size=12),
                                     min_size=len(pools), max_size=len(pools)))
        run = list(zip(queries, pools))
        real_build = Bm25Index.build.__func__
        for name in ("char_bigram", "whitespace"):
            with pytest.MonkeyPatch.context() as patch:
                # pool scope builds its union index with the default tokenizer
                patch.setattr(Bm25Index, "build", classmethod(
                    lambda cls, corpus, tokenizer_name=name: real_build(cls, corpus,
                                                                        tokenizer_name)))
                scorer = Bm25Scorer(run)
                assert scorer.index.tokenizer_name == name
                for query, pool in run:
                    want = Bm25Scorer([], index=Bm25Index.build(pool))
                    assert scorer.score(query, pool) == want.score(query, pool)


class TestIndexFile:
    """A file :meth:`Bm25Index.load` cannot take whole is a BadIndex that
    names it; nothing else escapes."""

    @given(st.dictionaries(st.sampled_from(["d1", "d2", "案3"]),
                           st.text("盗窃财物 ab", max_size=10), max_size=3),
           st.sampled_from(["char_bigram", "whitespace"]), st.integers(1, 255))
    @settings(max_examples=60, deadline=None)
    def test_every_truncation_and_byte_change(self, tmp_path_factory, corpus, name, mask):
        tmp = tmp_path_factory.getbasetemp() / "corrupt"
        tmp.mkdir(exist_ok=True)
        good, bad = tmp / "good.idx", tmp / "bad.idx"
        index = Bm25Index.build(corpus, name)
        index.save(good)
        raw = good.read_bytes()
        _assert_same_index(Bm25Index.load(good), index)
        for size in range(len(raw)):
            bad.write_bytes(raw[:size])
            with pytest.raises(BadIndex) as caught:
                Bm25Index.load(bad)
            assert str(caught.value).startswith(f"{bad}: ")
        for pos in range(len(raw)):
            bad.write_bytes(raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1:])
            with pytest.raises(BadIndex) as caught:
                Bm25Index.load(bad)
            assert str(caught.value).startswith(f"{bad}: ")

    @pytest.mark.parametrize("content,reason", [
        (b'{"tokenizer": "char_bigram", "doc_lens": {}, "term_freqs": {}}',
         "not a lexforge BM25 index; rebuild it with `lexforge index`"),
        # whatever follows the version, an index of another version is rebuilt
        (_layout(["a"], ["x"], [0, 1], [0], [1], version=1), _REBUILD_V1),
        (_layout(["a", "b"], ["x", "y"], [0, 2, 3], [0, 1, 1], [2, 1, 1], version=1),
         _REBUILD_V1),
        (_layout([], [], [0], [], [], tokenizer="abc", version=1), _REBUILD_V1),
        (_layout([], [], [0], [], [], version=3), "unsupported version 3"),
        (_layout([], [], [0], [], [], tokenizer="abc"), "unknown tokenizer 'abc'"),
        (_layout([], [], [0], [], [])[:20], "truncated in the tokenizer name"),
        (_layout(["b", "a"], ["x"], [0, 1, 2], [0, 0], [1, 1]),
         "the doc ids are not sorted and distinct"),
        (_layout(["a", "a"], ["x"], [0, 1, 2], [0, 0], [1, 1]),
         "the doc ids are not sorted and distinct"),
        (_layout(["a"], ["x", "x"], [0, 1], [0], [1]), "the terms are not distinct"),
        (_layout(["a"], ["é"], [0, 1], [0], [1]).replace("é".encode(), b"\xc3("),
         "the terms are not UTF-8"),
        (_layout(["a", "b"], ["x"], [1, 1, 2], [0, 0], [1, 1]),
         "the offsets do not start at 0 and never decrease"),
        (_layout(["a", "b"], ["x"], [0, 2, 1], [0, 0], [1, 1]),
         "the offsets do not start at 0 and never decrease"),
        (_layout(["a", "b"], ["x"], [0, 1, 1], [0, 0], [1, 1]),
         "the offsets end at 1 postings, but the 4 bytes between the widths and the "
         "checksum do not hold that many"),
        (_ONE + b"\x00", "the offsets end at 1 postings, but the 3 bytes between the "
         "widths and the checksum do not hold that many"),
        (_layout(["a"], ["x"], [0, 1], [0], [1], widths=(2, 4))[:-4],
         "the offsets end at 1 postings, but the 2 bytes between the widths and the "
         "checksum do not hold that many"),
        (_ONE[:-7], "truncated in the widths: needs 2 bytes at byte 60, the file ends at 61"),
        (_layout(["a"], [], [0, 0], [], [])[:-1],
         "truncated in the checksum: needs 4 bytes at byte 57, the file ends at 60"),
        (_layout(["a"], ["x"], [0, 1], [0], [1], widths=(3, 1)),
         "the term id width is 3, not 1, 2 or 4"),
        (_layout(["a"], [], [0, 0], [], [], widths=(2, 0)),
         "the tf width is 0, not 1, 2 or 4"),
        (_layout([], [], [0], [], [], widths=(0, 0)), "the term id width is 0, not 1, 2 or 4"),
        (_ONE_BAD_CRC, f"the CRC-32 is {int.from_bytes(_ONE_BAD_CRC[-4:], 'little'):08x}, "
         f"but the bytes before it give {zlib.crc32(_ONE[:-4]):08x}"),
        (_layout(["a"], ["x", "y"], [0, 1], [2], [1]), "a term id is 2, but there are 2 terms"),
        (_layout(["a"], ["x"], [0, 1], [0], [0]), "a tf is 0"),
    ])
    def test_reason(self, tmp_path, content, reason):
        path = tmp_path / "bm25.idx"
        path.write_bytes(content)
        with pytest.raises(BadIndex, match=re.escape(f"{path}: {reason}")):
            Bm25Index.load(path)


class TestSegment:
    def test_ceiling_arithmetic(self):
        cfg = SegmentConfig(max_len=2048, stride=2048)
        segments = segment("x" * 5000, cfg)
        assert [len(s) for s in segments] == [2048, 2048, 904]

    def test_short_text_identity(self):
        cfg = SegmentConfig(max_len=2048)
        assert segment("abc", cfg) == ["abc"]

    def test_overlapping_windows(self):
        cfg = SegmentConfig(max_len=2048, stride=1024)
        assert len(segment("x" * 4096, cfg)) == 3
        assert segment_count(4096, cfg) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            segment("", SegmentConfig())

    def test_replace_max_len_takes_the_default_stride(self):
        cfg = replace(SegmentConfig(), max_len=128)
        assert cfg == SegmentConfig(max_len=128) == SegmentConfig(max_len=128, stride=128)
        assert segment("x" * 300, cfg) == segment("x" * 300, SegmentConfig(max_len=128))
        assert [len(s) for s in segment("x" * 300, cfg)] == [128, 128, 44]
        assert replace(SegmentConfig(max_len=128, stride=64), max_len=256).step == 64

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            SegmentConfig(max_len=10, stride=11)
        with pytest.raises(ValueError):
            SegmentConfig(max_len=0)

    @given(st.integers(1, 500), st.integers(1, 80), st.integers(1, 80))
    @settings(max_examples=120, deadline=None)
    def test_window_enumeration_oracle(self, length, max_len, stride):
        if stride > max_len:
            stride = max_len
        cfg = SegmentConfig(max_len=max_len, stride=stride)
        text = "a" * length
        segments = segment(text, cfg)
        starts = window_oracle(length, max_len, stride)
        assert len(segments) == len(starts) == segment_count(length, cfg)
        for s, seg in zip(starts, segments):
            assert seg == text[s:s + max_len]

    @given(st.text(min_size=1, max_size=400), st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_concatenation_invariance(self, text, max_len):
        cfg = SegmentConfig(max_len=max_len)  # stride defaults to max_len
        assert "".join(segment(text, cfg)) == text


class _StubEmbedder:
    """Maps each text to a fixed vector via a lookup; dim 3. Its stream
    makes each text a chunk of its own."""

    dim = 3

    def __init__(self, table):
        self.table = table

    def embed(self, texts):
        return np.array([self.table[t] for t in texts], dtype=float)

    def embed_chunks(self, texts):
        return (self.embed([text]) for text in texts)


def _dense_score(query, text, embedder, cfg=SegmentConfig()):
    """The dense score of one candidate, from a scorer built for it alone."""
    pool = {"c": text}
    return DenseScorer([(query, pool)], embedder, cfg).score(query, pool)[0][1]


class TestDenseScore:
    def test_max_over_segments(self):
        cfg = SegmentConfig(max_len=2, stride=2)
        table = {
            "aa": [0.2, 1.0, 0.0], "bb": [0.9, 0.2, 0.0], "cc": [0.5, 0.5, 0.0],
        }
        query = np.array([1.0, 0.0, 0.0])
        cosines = {t: np.dot(v, query) / np.linalg.norm(v)
                   for t, v in table.items()}
        embedder = _StubEmbedder(table | {"q": query})
        score = _dense_score("q", "aabbcc", embedder, cfg)
        assert score == pytest.approx(max(cosines.values()))

    def test_single_segment_equals_cosine(self):
        embedder = _StubEmbedder({"ab": [1.0, 1.0, 0.0], "q": [1.0, 0.0, 0.0]})
        score = _dense_score("q", "ab", embedder, SegmentConfig(max_len=10))
        assert score == pytest.approx(1 / math.sqrt(2))

    def test_brute_force_oracle(self):
        from lexforge.training import ToyEmbedder
        rng = np.random.default_rng(8)
        embedder = ToyEmbedder(dim=12, hash_buckets=512, seed=3)
        alphabet = "某盗窃抢劫财物被告人驾驶车辆伤害现场证据一二三四五"
        for _ in range(40):
            length = int(rng.integers(20, 300))
            text = "".join(rng.choice(list(alphabet), size=length))
            query = "".join(rng.choice(list(alphabet), size=12))
            cfg = SegmentConfig(max_len=int(rng.integers(8, 64)),
                                stride=int(rng.integers(4, 8)))
            query_vec = embedder.embed([query])[0]
            got = _dense_score(query, text, embedder, cfg)
            best = -2.0
            for seg in segment(text, cfg):
                v = embedder.embed([seg])[0]
                best = max(best, float(np.dot(v, query_vec)
                                       / (np.linalg.norm(v) * np.linalg.norm(query_vec))))
            assert got == pytest.approx(best, abs=1e-12)

    @given(st.lists(st.floats(width=64), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_clamped_max_is_the_max_of_the_clipped_sims(self, sims):
        """``dense_score`` clamps the max of the window cosines; that is the
        max of the clipped cosines, NaN included."""
        # a one-column unit matrix against the query [1.0] gives sims exactly
        unit = np.array(sims).reshape(-1, 1)
        got = dense_score(np.array([1.0]), unit)
        want = float(np.clip(np.array(sims), -1.0, 1.0).max())
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert isinstance(got, float)

    def test_zero_query_rejected(self):
        embedder = _StubEmbedder({"ab": [1.0, 0.0, 0.0]})
        with pytest.raises(ZeroVector):
            unit_query(np.zeros(3))
        with pytest.raises(ZeroVector, match="query vector"):
            _dense_score("ab", "ab", _StubEmbedder({"ab": [0.0] * 3}))

    def test_zero_norm_query_fails_only_when_it_is_scored(self):
        """The scorer embeds every query of the run when it is built; a
        query of zero norm fails when its pool is scored, not before."""
        embedder = _StubEmbedder({"ab": [1.0, 0.0, 0.0], "q": [1.0, 1.0, 0.0],
                                  "z": [0.0, 0.0, 0.0]})
        pool = {"c1": "ab"}
        scorer = DenseScorer([("q", pool), ("z", pool), ("q", pool)], embedder,
                             SegmentConfig(max_len=2))
        assert search("q", pool, scorer, k=5) == [("c1", pytest.approx(1 / math.sqrt(2)))]
        with pytest.raises(ZeroVector, match="^query vector has zero norm$"):
            search("z", pool, scorer, k=5)

    def test_tail_too_short_to_featurize_is_skipped(self):
        from lexforge.training import ToyEmbedder
        embedder = ToyEmbedder(dim=12, hash_buckets=512, seed=3)
        rng = np.random.default_rng(5)
        text = "".join(rng.choice(list("某盗窃抢劫财物被告人驾驶车辆"), size=2049))
        windows = segment(text, SegmentConfig())
        assert [len(w) for w in windows] == [2048, 1]
        assert _dense_score("被告人盗窃财物", text, embedder) == _dense_score(
            "被告人盗窃财物", windows[0], embedder)

    def test_all_windows_zero_rejected(self):
        embedder = _StubEmbedder({"ab": [0.0, 0.0, 0.0], "c": [0.0, 0.0, 0.0],
                                  "q": [1.0, 1.0, 1.0]})
        with pytest.raises(ZeroVector, match="all 2 segments"):
            _dense_score("q", "abc", embedder, SegmentConfig(max_len=2))

    def test_zero_norm_candidate_fails_only_the_pools_that_hold_it(self):
        """The scorer is built over every pool of the run, the zero-norm
        candidate's included; only scoring a pool that holds it fails."""
        embedder = _StubEmbedder({"ab": [1.0, 0.0, 0.0], "cd": [0.0, 1.0, 0.0],
                                  "zz": [0.0, 0.0, 0.0], "q": [1.0, 1.0, 0.0]})
        cfg = SegmentConfig(max_len=2)
        first, second, third = {"c1": "ab"}, {"c1": "ab", "c2": "cd"}, {"c3": "zz", "c1": "ab"}
        scorer = DenseScorer([("q", first), ("q", second), ("q", third), ("q", first)],
                             embedder, cfg)
        assert search("q", first, scorer, k=5) == [("c1", pytest.approx(1 / math.sqrt(2)))]
        assert [cid for cid, _ in search("q", second, scorer, k=5)] == ["c1", "c2"]
        with pytest.raises(ZeroVector, match="^case 'c3': all 1 segments embed to zero norm$"):
            search("q", third, scorer, k=5)
        assert search("q", first, scorer, k=5) == [("c1", pytest.approx(1 / math.sqrt(2)))]


def _bm25(query, corpus, k):
    """Search one pool with pool statistics, as a run of one query does."""
    return search(query, corpus, Bm25Scorer([(query, corpus)]), k)


class TestSearch:
    def _corpus(self, n=100):
        return {f"c{i:03d}": f"词{i} " + "公共文本" * 3 for i in range(n)}

    def test_pool_of_100_top_30(self):
        corpus = self._corpus(100)
        results = _bm25("词5 公共", corpus, k=30)
        assert len(results) == 30
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)

    def test_k_clamps_to_pool(self):
        corpus = self._corpus(4)
        assert len(_bm25("词1", corpus, k=30)) == 4

    def test_tie_break_by_case_id(self):
        corpus = {"b": "same text", "a": "same text", "c": "same text"}
        scorer = Bm25Scorer([], index=Bm25Index.build(corpus, "whitespace"))
        results = search("same", corpus, scorer, k=3)
        assert [cid for cid, _ in results] == ["a", "b", "c"]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            _bm25("q", {}, k=1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            _bm25("q", {"a": "x"}, k=0)

    def test_deterministic_across_calls(self):
        corpus = self._corpus(50)
        a = _bm25("词7 公共文本", corpus, k=20)
        b = _bm25("词7 公共文本", corpus, k=20)
        assert a == b

    def test_dense_search(self):
        from lexforge.training import ToyEmbedder
        embedder = ToyEmbedder(dim=16, hash_buckets=1024, seed=0)
        corpus = {"c1": "被告人盗窃电动车", "c2": "被告人醉酒驾驶汽车",
                  "c3": "完全无关的内容文字"}
        scorer = DenseScorer([("盗窃电动车的案件", corpus)], embedder)
        results = search("盗窃电动车的案件", corpus, scorer, k=3)
        assert len(results) == 3
        assert results[0][0] == "c1"

    def test_prebuilt_index_reused(self):
        corpus = self._corpus(10)
        index = Bm25Index.build(corpus)
        direct = _bm25("词3", corpus, k=5)
        via_index = search("词3", corpus, Bm25Scorer([], index=index), k=5)
        assert direct == via_index

    def test_scope_follows_the_index(self):
        corpus = self._corpus(3)
        assert Bm25Scorer([("q", corpus)]).scope == "pool"
        assert Bm25Scorer([], index=Bm25Index.build(corpus)).scope == "corpus"


ALPHABET = "盗窃抢劫财物被告人驾驶 "


def _outcome(run_fn):
    """A run's result, or the type and message of the error it raised."""
    try:
        return run_fn()
    except LexforgeError as exc:
        return type(exc), str(exc)


@st.composite
def search_inputs(draw):
    texts = {f"c{i:02d}": draw(st.text(ALPHABET, min_size=1, max_size=30))
             for i in range(draw(st.integers(1, 10)))}
    queries = [(f"q{j}", draw(st.text(ALPHABET, min_size=1, max_size=10)))
               for j in range(draw(st.integers(1, 5)))]
    pools = None
    if draw(st.booleans()):
        # duplicates, overlap across pools, ids outside the corpus, queries without a pool
        ids = st.sampled_from(sorted(texts) + ["ghost-1", "ghost-2"])
        pools = {qid: draw(st.lists(ids, min_size=1, max_size=14))
                 for qid, _ in queries if draw(st.integers(0, 4))}
    max_len = draw(st.integers(2, 9))
    seg_cfg = SegmentConfig(max_len=max_len, stride=draw(st.integers(1, max_len)))
    return texts, queries, pools, draw(st.integers(1, 12)), seg_cfg


def _run(queries, texts, pools, *, scorer, k, bm25_params, index, embedder, seg_cfg,
         pools_path):
    """``cli._search_run`` with the scorer that ``search`` on the command
    line builds from the options ``oracles.search_oracle`` takes."""
    if scorer == "dense":
        scorer_for = partial(DenseScorer, embedder=embedder, seg_cfg=seg_cfg)
    else:
        scorer_for = partial(Bm25Scorer, params=bm25_params, index=index)
    return _search_run(queries, texts, pools, scorer_for, k=k, pools_path=pools_path)[0]


class TestSearchRun:
    """A run shares one scorer, with one index, or with its queries and
    each candidate's windows embedded once; the rankings are those of
    searching each query on its own (``oracles.search_oracle``)."""

    EMBEDDER_SEED = 4

    def _both(self, texts, queries, pools, **opts):
        opts = {"bm25_params": Bm25Params(), "index": None, "embedder": None,
                "seg_cfg": SegmentConfig(), "pools_path": "pools.jsonl"} | opts
        got = _outcome(lambda: _run(queries, texts, pools, **opts))
        want = _outcome(lambda: search_oracle(queries, texts, pools, **opts))
        return got, want

    @given(search_inputs())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_query_search(self, inputs):
        from lexforge.training import ToyEmbedder
        texts, queries, pools, k, seg_cfg = inputs
        runs = [
            {"scorer": "bm25"},
            {"scorer": "bm25", "index": Bm25Index.build(texts, "whitespace")},
            {"scorer": "dense", "seg_cfg": seg_cfg,
             "embedder": ToyEmbedder(dim=6, hash_buckets=64, seed=self.EMBEDDER_SEED)},
        ]
        for opts in runs:
            got, want = self._both(texts, queries, pools, k=k, **opts)
            assert got == want, opts["scorer"]

    def test_zero_norm_tail_and_all_zero_candidate(self):
        from lexforge.training import ToyEmbedder
        embedder = ToyEmbedder(dim=6, hash_buckets=64, seed=self.EMBEDDER_SEED)
        cfg = SegmentConfig(max_len=4)
        texts = {"long": "被告人盗窃财物驾驶抢", "tail": "被告人盗窃财物驾驶",
                 "short": "盗窃", "zero": "劫"}
        assert [len(w) for w in segment(texts["long"], cfg)] == [4, 4, 2]
        # the one-character tail has no bigram, so it embeds to zero norm
        assert [len(w) for w in segment(texts["tail"], cfg)] == [4, 4, 1]
        assert not embedder.embed(["驶"]).any()
        queries = [("q1", "盗窃财物"), ("q2", "驾驶")]
        pools = {"q1": ["long", "tail", "short"], "q2": ["tail", "long", "short", "long"]}
        got, want = self._both(texts, queries, pools, scorer="dense", k=5,
                               embedder=embedder, seg_cfg=cfg)
        assert got == want and len(got["q2"]) == 3
        pools["q2"].append("zero")
        got, want = self._both(texts, queries, pools, scorer="dense", k=5,
                               embedder=embedder, seg_cfg=cfg)
        assert got == want == (ZeroVector,
                               "query 'q2': case 'zero': all 1 segments embed to zero norm")
        # an empty text has no segment at all
        texts["empty"] = ""
        pools["q1"].append("empty")
        got, want = self._both(texts, queries, pools, scorer="dense", k=5,
                               embedder=embedder, seg_cfg=cfg)
        assert got == want == (ZeroVector, "query 'q1': case 'empty': the text is empty")

    @pytest.mark.parametrize("chunk_grams", [1, 30, 1 << 16])
    def test_dense_run_keeps_no_window_features(self, monkeypatch, chunk_grams):
        """The windows are embedded a featurization chunk at a time and only
        their unit rows are kept: the scorer holds the query vectors and
        those rows alone, and the embedder holds no per-text state."""
        from lexforge import training
        from lexforge.training import ToyEmbedder
        monkeypatch.setattr(training, "FEATURIZE_CHUNK", chunk_grams)
        embedder = ToyEmbedder(dim=6, hash_buckets=64, seed=self.EMBEDDER_SEED)
        state = set(vars(embedder))
        cfg = SegmentConfig(max_len=8, stride=4)
        texts = {f"c{i}": "被告人盗窃财物驾驶车辆" * (i + 1) for i in range(6)}
        texts["blank"] = " "
        queries = [("q0", "盗窃财物"), ("q1", "驾驶车辆"), ("q2", "抢劫")]
        pools = {"q0": sorted(set(texts) - {"blank"}), "q1": ["c1", "c3", "ghost", "c1"]}
        opts = {"scorer": "dense", "k": 4, "bm25_params": Bm25Params(), "index": None,
                "embedder": embedder, "seg_cfg": cfg, "pools_path": "pools.jsonl"}
        scorers = []

        def scorer_for(run):
            scorers.append(DenseScorer(run, embedder, cfg))
            return scorers[-1]

        run = _search_run(queries, texts, pools, scorer_for, k=4, pools_path="pools.jsonl")[0]
        assert run == search_oracle(queries, texts, pools, **opts)
        assert set(vars(embedder)) == state
        scorer, = scorers
        assert set(vars(scorer)) == {"seg_cfg", "_queries", "_windows"}
        assert list(scorer._queries) == ["盗窃财物", "驾驶车辆"]
        assert all(v.shape == (6,) for v in scorer._queries.values())
        assert sorted(scorer._windows) == sorted(texts[c] for c in pools["q0"])
        for text, rows in scorer._windows.items():
            assert rows.shape == (len(segment(text, cfg)), 6)
            assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)
        # a candidate whose windows all embed to zero fails as it does unshared
        pools["q1"].append("blank")
        got, want = self._both(texts, queries, pools, **opts)
        assert got == want == (ZeroVector,
                               "query 'q1': case 'blank': all 1 segments embed to zero norm")

    @pytest.mark.parametrize("chunk_grams", [1, 20, 40])
    def test_streamed_rows_equal_the_plain_embedding(self, monkeypatch, chunk_grams):
        """With featurization chunks smaller than a text, ``embed`` and the
        scorer's unit window rows equal the plain per-text embedding
        (``oracles.embed_oracle``) bit for bit: for a text longer than a
        chunk, for candidates whose windows straddle a chunk boundary, and
        around a candidate whose windows all embed to zero, which keeps no
        rows."""
        from lexforge import training
        from lexforge.training import ToyEmbedder
        monkeypatch.setattr(training, "FEATURIZE_CHUNK", chunk_grams)
        embedder = ToyEmbedder(dim=6, hash_buckets=64, seed=self.EMBEDDER_SEED)
        cfg = SegmentConfig(max_len=8, stride=4)
        texts = ["被告人盗窃财物驾驶车辆" * (i + 1) for i in range(3)]
        texts.insert(1, "劫")  # one window of one character: no n-gram
        windows = [w for text in texts for w in segment(text, cfg)]
        for batch in (windows, texts[-1:], texts + windows):
            want = np.array([embed_oracle(embedder, text) for text in batch])
            assert embedder.embed(batch).tobytes() == want.tobytes()
        assert 2 * len(texts[-1]) - 3 > chunk_grams  # the last text outgrows a chunk
        # some candidate's windows are split between two chunks
        counts = [len(segment(text, cfg)) for text in texts]
        bounds = np.cumsum([len(rows) for rows in embedder.embed_chunks(windows)])
        assert any(((end - n < bounds) & (bounds < end)).any()
                   for end, n in zip(np.cumsum(counts), counts))

        scorer = DenseScorer([("盗窃财物", {f"c{i}": t for i, t in enumerate(texts)})],
                             embedder, cfg)
        assert list(scorer._windows) == texts[:1] + texts[2:]
        for text, rows in scorer._windows.items():
            plain = np.array([embed_oracle(embedder, w) for w in segment(text, cfg)])
            norms = np.linalg.norm(plain, axis=1)
            assert rows.tobytes() == (plain[norms != 0] / norms[norms != 0, None]).tobytes()

    @pytest.mark.parametrize("alphabet", [
        "被告人盗窃财物驾驶车辆抢劫伤害现场",
        "".join(map(chr, range(0x4E00, 0x9FA5))),
    ], ids=["17-chars", "cjk-block"])
    def test_a_dense_run_holds_its_rows_and_one_chunk(self, alphabet):
        """A run whose windows hold 32 featurization chunks' worth of
        n-grams holds, beyond the unit rows the scorer keeps, less than one
        chunk's working arrays: about 100 bytes per n-gram. That holds for
        texts that draw on 17 characters, whose n-grams repeat, and for
        texts drawn from the whole CJK block, whose n-grams are nearly all
        distinct, so nothing the featurization keeps may grow with the
        distinct n-grams of the run."""
        import tracemalloc

        from lexforge.training import FEATURIZE_CHUNK, ToyEmbedder
        rng = np.random.default_rng(0)
        cfg = SegmentConfig(max_len=128, stride=64)
        texts = ["".join(rng.choice(list(alphabet), size=1024)) for _ in range(140)]
        assert sum(2 * len(w) - 3 for t in texts for w in segment(t, cfg)) > 32 * FEATURIZE_CHUNK
        embedder = ToyEmbedder(dim=64, hash_buckets=1 << 15, seed=1)
        embedder.weights  # drawn before the trace
        tracemalloc.start()
        try:
            scorer = DenseScorer([("被告人盗窃", {f"c{i}": t for i, t in enumerate(texts)})],
                                 embedder, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scorer._windows) == len(texts)
        kept = sum(rows.nbytes for rows in scorer._windows.values())
        assert peak - kept < FEATURIZE_CHUNK * 128

    def test_the_queries_are_embedded_in_one_call(self, monkeypatch):
        """The run's distinct queries, each once, in order of first
        appearance, are one ``embed`` call; no other call holds a query."""
        from lexforge.training import ToyEmbedder
        embedder = ToyEmbedder(dim=6, hash_buckets=64, seed=self.EMBEDDER_SEED)
        texts = {f"c{i}": "被告人盗窃财物" * (i + 1) for i in range(4)}
        queries = [("q0", "驾驶车辆"), ("q1", "抢劫财物"), ("q2", "驾驶车辆"), ("q3", "诈骗")]
        pools = {qid: sorted(texts) for qid, _ in queries}
        calls = []
        real_embed = embedder.embed
        monkeypatch.setattr(embedder, "embed", lambda batch: calls.append(list(batch))
                            or real_embed(batch))
        opts = {"k": 3, "bm25_params": Bm25Params(), "index": None, "embedder": embedder,
                "seg_cfg": SegmentConfig(max_len=8, stride=4), "pools_path": "pools.jsonl"}
        _run(queries, texts, pools, scorer="dense", **opts)
        distinct = ["驾驶车辆", "抢劫财物", "诈骗"]
        assert [call for call in calls if set(call) & set(distinct)] == [distinct]

    def test_each_candidate_work_is_done_once(self, monkeypatch):
        from lexforge.training import ToyEmbedder
        embedder = ToyEmbedder(dim=6, hash_buckets=64, seed=self.EMBEDDER_SEED)
        texts = {f"c{i}": "被告人盗窃财物" * (i + 1) for i in range(6)}
        queries = [(f"q{j}", "盗窃" * (j + 1)) for j in range(4)]
        pools = {qid: sorted(texts) for qid, _ in queries}
        builds, embedded, streamed = [], [], []
        real_build, real_embed = Bm25Index.build.__func__, embedder.embed
        real_stream = embedder.embed_chunks
        monkeypatch.setattr(Bm25Index, "build", classmethod(
            lambda cls, corpus, *a: builds.append(len(corpus)) or real_build(cls, corpus, *a)))
        monkeypatch.setattr(embedder, "embed",
                            lambda batch: embedded.extend(batch) or real_embed(batch))
        monkeypatch.setattr(embedder, "embed_chunks", lambda texts: real_stream(
            streamed.append(text) or text for text in texts))
        opts = {"k": 3, "bm25_params": Bm25Params(), "index": None,
                "embedder": embedder, "seg_cfg": SegmentConfig(max_len=8, stride=4),
                "pools_path": "pools.jsonl"}
        _run(queries, texts, pools, scorer="bm25", **opts)
        assert builds == [6]
        _run(queries, texts, pools, scorer="dense", **opts)
        windows = [w for t in texts.values() for w in segment(t, SegmentConfig(8, 4))]
        # the queries go through embed, which reads the stream, and every
        # window goes once through the stream itself
        assert embedded == [q for _, q in queries]
        assert streamed == embedded + windows

    def test_a_run_without_pools_walks_the_corpus_once(self):
        """Every query of a run without pools shares the one corpus mapping;
        the scorers walk it once, not once per query."""
        from lexforge.training import ToyEmbedder

        class Corpus(dict):
            walks = 0

            def items(self):
                Corpus.walks += 1
                return super().items()

            def values(self):
                Corpus.walks += 1
                return super().values()

        texts = Corpus({f"c{i}": "被告人盗窃财物" * (i + 1) for i in range(6)})
        queries = [(f"q{j}", "盗窃" * (j + 1)) for j in range(4)]
        Bm25Scorer([(q, texts) for _, q in queries])
        assert Corpus.walks == 1
        embedder = ToyEmbedder(dim=6, hash_buckets=64, seed=self.EMBEDDER_SEED)
        DenseScorer([(q, texts) for _, q in queries], embedder, SegmentConfig(max_len=8))
        assert Corpus.walks == 2
