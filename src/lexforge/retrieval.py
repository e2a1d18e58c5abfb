"""Candidate scoring and ranking.

Two scorers over a candidate pool: a BM25 lexical baseline with a pluggable
tokenizer (overlapping character bigrams by default, which needs no word
segmentation), and dense scoring that splits long candidates into windows,
scores each window against the query and keeps the maximum. Pools in the
target benchmarks are around a hundred candidates per query, so scoring is
exhaustive by design. A run over many pools shares per-candidate work: one
index tokenizes each candidate once (:meth:`Bm25Index.subset` gives each
pool its own statistics), and a window memo embeds each candidate once.
An index stores each distinct term once. Only the dense path imports numpy.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import EmptyCorpus, UnknownDoc, ZeroVector
from .fileio import atomic_write_text

if TYPE_CHECKING:
    import numpy as np

Tokenizer = Callable[[str], list[str]]


def tokenize_char_bigrams(text: str) -> list[str]:
    """Overlapping character bigrams over non-space characters."""
    compact = "".join(text.split())
    if len(compact) < 2:
        return [compact] if compact else []
    return [compact[i:i + 2] for i in range(len(compact) - 1)]


def tokenize_whitespace(text: str) -> list[str]:
    return text.lower().split()


TOKENIZERS: dict[str, Tokenizer] = {
    "char_bigram": tokenize_char_bigrams,
    "whitespace": tokenize_whitespace,
}


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError("k1 must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


class Bm25Index:
    """Immutable term statistics over a tokenized corpus."""

    def __init__(self, term_freqs: dict[str, dict[str, int]],
                 doc_lens: dict[str, int], tokenizer_name: str = "char_bigram"):
        self.term_freqs = term_freqs
        self.doc_lens = doc_lens
        self.tokenizer_name = tokenizer_name
        self.n_docs = len(term_freqs)
        self.avgdl = (sum(doc_lens.values()) / self.n_docs) if self.n_docs else 0.0
        self.doc_freq: dict[str, int] = {}
        for tf in term_freqs.values():
            for term in tf:
                self.doc_freq[term] = self.doc_freq.get(term, 0) + 1
        self._idf: dict[str, float] = {}

    @property
    def tokenizer(self) -> Tokenizer:
        return TOKENIZERS[self.tokenizer_name]

    @classmethod
    def build(cls, corpus: Mapping[str, str],
              tokenizer_name: str = "char_bigram") -> "Bm25Index":
        """Term frequencies per document, terms in order of first occurrence.

        Each distinct term is stored as one string object, shared by every
        document's frequency dict and by ``doc_freq``.
        """
        tokenize = TOKENIZERS[tokenizer_name]
        vocab: dict[str, str] = {}
        term_freqs: dict[str, dict[str, int]] = {}
        doc_lens: dict[str, int] = {}
        for doc_id in sorted(corpus):
            tokens = tokenize(corpus[doc_id])
            term_freqs[doc_id] = {vocab.setdefault(token, token): n
                                  for token, n in Counter(tokens).items()}
            doc_lens[doc_id] = len(tokens)
        return cls(term_freqs, doc_lens, tokenizer_name)

    def subset(self, doc_ids: Iterable[str]) -> "Bm25Index":
        """The index :meth:`build` would make from these documents alone.

        Term frequencies and lengths are shared with this index, not
        recomputed; the statistics are integer counts over the subset, so
        they equal a fresh build's exactly.
        """
        ids = sorted(set(doc_ids))
        try:
            term_freqs = {doc_id: self.term_freqs[doc_id] for doc_id in ids}
        except KeyError as exc:
            raise UnknownDoc(f"doc {exc.args[0]!r} not in index") from None
        return Bm25Index(term_freqs, {doc_id: self.doc_lens[doc_id] for doc_id in ids},
                         self.tokenizer_name)

    def idf(self, term: str) -> float:
        """Memoized: the index never changes after construction."""
        value = self._idf.get(term)
        if value is None:
            df = self.doc_freq.get(term, 0)
            value = 0.0 if df == 0 else math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
            self._idf[term] = value
        return value

    def save(self, path: str | Path) -> None:
        payload = {
            "tokenizer": self.tokenizer_name,
            "doc_lens": self.doc_lens,
            "term_freqs": self.term_freqs,
        }
        atomic_write_text(path, json.dumps(payload, ensure_ascii=False, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "Bm25Index":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(payload["term_freqs"], payload["doc_lens"], payload["tokenizer"])


def bm25_score(query_tokens: Sequence[str], doc_id: str, index: Bm25Index,
               params: Bm25Params = Bm25Params()) -> float:
    """Sum over query terms of idf · tf·(k1+1) / (tf + k1·(1-b+b·|d|/avgdl))."""
    try:
        tf = index.term_freqs[doc_id]
    except KeyError:
        raise UnknownDoc(f"doc {doc_id!r} not in index") from None
    dl = index.doc_lens[doc_id]
    norm = params.k1 * (1.0 - params.b + params.b * dl / index.avgdl) if index.avgdl else params.k1
    score = 0.0
    for term in query_tokens:
        f = tf.get(term, 0)
        if f == 0:
            continue
        score += index.idf(term) * f * (params.k1 + 1.0) / (f + norm)
    return score


# --------------------------------------------------------------------------
# Segment-and-max dense scoring
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentConfig:
    """Window length and stride, in characters.

    The window limit plays the role of a model's maximum input length; it
    is counted in characters here because token counts depend on an
    external tokenizer. ``stride`` defaults to ``max_len`` (non-overlapping
    windows that reassemble to the original text). ``step`` is the stride in
    effect and decides equality; ``stride`` keeps the value given, so a
    ``dataclasses.replace`` with a new ``max_len`` and no stride steps by
    the new length.
    """

    max_len: int = 2048
    stride: int | None = field(default=None, compare=False)
    step: int = field(init=False)

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len must be positive")
        step = self.max_len if self.stride is None else self.stride
        if step < 1 or step > self.max_len:
            raise ValueError("need 1 <= stride <= max_len")
        object.__setattr__(self, "step", step)


def segment(text: str, cfg: SegmentConfig = SegmentConfig()) -> list[str]:
    """Contiguous windows of at most max_len stepping by stride; tail included."""
    if not text:
        raise ValueError("text must be non-empty")
    starts = [0]
    while starts[-1] + cfg.max_len < len(text):
        starts.append(starts[-1] + cfg.step)
    return [text[s:s + cfg.max_len] for s in starts]


def _unit_windows(case_text: str, embedder, cfg: SegmentConfig, dim: int) -> np.ndarray:
    """The case's windows, embedded and scaled to unit norm, one per row.

    A window that embeds to zero norm (a tail too short to featurize) has no
    direction and is dropped; the case must have at least one other window.
    """
    import numpy as np

    segments = segment(case_text, cfg)
    vectors = np.asarray(embedder.embed(segments), dtype=np.float64)
    if vectors.shape[1] != dim:
        raise ValueError(f"embedder dimension {vectors.shape[1]} != query dimension {dim}")
    norms = np.linalg.norm(vectors, axis=1)
    nonzero = norms != 0.0
    if not nonzero.any():
        raise ZeroVector(f"all {len(segments)} segments embed to zero norm")
    return vectors[nonzero] / norms[nonzero, None]


def dense_score(query_vec: np.ndarray, case_text: str, embedder,
                cfg: SegmentConfig = SegmentConfig(), *,
                windows: dict[str, np.ndarray] | None = None) -> float:
    """Maximum cosine between the query vector and any window of the case.

    ``windows`` memoizes :func:`_unit_windows` by case text. One memo serves
    one embedder and one ``cfg``: a search run passes the same memo for
    every query, so each candidate is segmented and embedded once per run.
    """
    import numpy as np

    q = np.asarray(query_vec, dtype=np.float64)
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise ZeroVector("query vector has zero norm")
    memo = {} if windows is None else windows
    unit = memo.get(case_text)
    if unit is None:
        unit = memo[case_text] = _unit_windows(case_text, embedder, cfg, q.shape[0])
    sims = unit @ (q / qn)
    return float(np.clip(sims, -1.0, 1.0).max())


# --------------------------------------------------------------------------
# Search
# --------------------------------------------------------------------------

SCORER_BM25 = "bm25"
SCORER_DENSE = "dense"


def search(query: str, corpus: Mapping[str, str], scorer: str = SCORER_BM25,
           k: int = 30, *, bm25_params: Bm25Params = Bm25Params(),
           index: Bm25Index | None = None, embedder=None,
           seg_cfg: SegmentConfig = SegmentConfig(),
           windows: dict | None = None) -> list[tuple[str, float]]:
    """Exhaustively score the pool and return the top k.

    Ordering is by descending score with ties broken by ascending case id,
    so results are a pure function of the inputs. ``k`` larger than the
    pool returns the whole pool. BM25 takes idf and avgdl from ``index``
    when one is given, and otherwise from ``corpus``, the pool itself.
    Dense scoring memoizes each candidate's windows in ``windows`` when one
    is given (see :func:`dense_score`).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not corpus:
        raise EmptyCorpus("no candidates to score")

    if scorer == SCORER_BM25:
        idx = index if index is not None else Bm25Index.build(corpus)
        query_tokens = idx.tokenizer(query)
        scored = [(case_id, bm25_score(query_tokens, case_id, idx, bm25_params))
                  for case_id in corpus]
    elif scorer == SCORER_DENSE:
        if embedder is None:
            raise ValueError("dense scoring requires an embedder")
        query_vec = embedder.embed([query])[0]
        scored = [(case_id, dense_score(query_vec, corpus[case_id], embedder, seg_cfg,
                                        windows=windows))
                  for case_id in corpus]
    else:
        raise ValueError(f"unknown scorer: {scorer!r}")

    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]
