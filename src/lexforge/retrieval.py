"""Candidate scoring and ranking.

Two scorers over a candidate pool: a BM25 lexical baseline with a pluggable
tokenizer (overlapping character bigrams by default, which needs no word
segmentation), and dense scoring that splits long candidates into windows,
scores each window against the query and keeps the maximum (MaxP). Pools in
the target benchmarks are around a hundred candidates per query, so scoring
is exhaustive by design, and :func:`search` only ranks what a scorer gives.

A search run builds one scorer and shares each candidate's work across its
pools. :class:`Bm25Scorer` has one of two scopes for the collection
statistics: ``corpus``, from a corpus index such as a saved one, or
``pool``, where one index over the union of the run's pools tokenizes each
candidate once and each pool's statistics are counted over its own
candidates when it is scored. Either way a query's terms are weighted once
and :func:`bm25_score` sums them per candidate. :class:`DenseScorer` embeds
the run's queries in one call and each candidate's windows once, through
one stream that holds a featurization chunk at a time, and keeps the
vectors. An index stores each distinct term once and its postings in
flat arrays at the narrowest width that holds them, in memory and on disk
alike. Only the dense scorer imports numpy.
"""

from __future__ import annotations

import math
import operator
import os
import struct
import sys
import zlib
from array import array
from collections import Counter, defaultdict, deque
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

from .config import Bm25Params, SegmentConfig
from .errors import BadIndex, EmptyCorpus, UnknownDoc, ZeroVector
from .fileio import write_bytes

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


class Bm25Index:
    """Immutable term statistics over a tokenized corpus, in CSR postings.

    ``terms`` holds each distinct term once, in order of first occurrence.
    Row ``r`` of the postings is entries ``offsets[r]:offsets[r + 1]`` of the
    parallel arrays ``term_ids`` (indexes into ``terms``) and ``tfs``: each
    distinct term of one document with its count, in the document's order of
    first occurrence. ``doc_ids`` are the index's documents, sorted, and row
    ``r`` is document ``doc_ids[r]``. The term ids and the tfs are each
    held at 1, 2 or 4 bytes a value. The statistics are integer counts over
    the rows.
    """

    def __init__(self, tokenizer_name: str, terms: list[str], offsets: array,
                 term_ids: array, tfs: array, doc_ids: list[str]):
        self.tokenizer_name = tokenizer_name
        self.terms = terms
        self.offsets, self.term_ids, self.tfs = offsets, term_ids, tfs
        self.doc_ids = doc_ids
        self.n_docs = len(doc_ids)
        self._rows = {doc_id: row for row, doc_id in enumerate(doc_ids)}
        self.doc_lens = {doc_id: sum(tfs[offsets[row]:offsets[row + 1]])
                         for row, doc_id in enumerate(doc_ids)}
        self.avgdl = (sum(self.doc_lens.values()) / self.n_docs) if self.n_docs else 0.0
        self._decoded: dict[int, dict[str, int]] = {}

    @cached_property
    def doc_freq(self) -> dict[str, int]:
        """The number of the index's documents that hold each term, terms in
        order of first occurrence; counted over the postings on first use,
        so that scoring a few of the documents decodes only those."""
        return {self.terms[term_id]: n for term_id, n in Counter(self.term_ids).items()}

    @property
    def tokenizer(self) -> Tokenizer:
        return TOKENIZERS[self.tokenizer_name]

    @classmethod
    def build(cls, corpus: Mapping[str, str],
              tokenizer_name: str = "char_bigram") -> "Bm25Index":
        """Each document's term counts, appended to the postings in sorted
        id order; a term's id is its rank of first occurrence. The term ids
        and the tfs are each built at the narrowest width that holds them."""
        tokenize = TOKENIZERS[tokenizer_name]
        ids: defaultdict[str, int] = defaultdict(count().__next__)
        offsets, term_ids, tfs = array(_OFFSET, [0]), _NarrowArray(), _NarrowArray()
        doc_ids = sorted(corpus)
        for doc_id in doc_ids:
            counts = Counter(tokenize(corpus[doc_id]))
            term_ids.extend(map(ids.__getitem__, counts))
            tfs.extend(counts.values())
            offsets.append(offsets[-1] + len(counts))
        return cls(tokenizer_name, list(ids), offsets, term_ids.flush(), tfs.flush(), doc_ids)

    def term_freqs(self, doc_id: str) -> dict[str, int]:
        """The document's ``{term: tf}`` in first-occurrence order, decoded
        from its postings row on first use and memoized."""
        row = self._rows.get(doc_id)
        if row is None:
            raise UnknownDoc(f"case {doc_id!r} is not in the index")
        tf = self._decoded.get(row)
        if tf is None:
            start, end = self.offsets[row], self.offsets[row + 1]
            tf = self._decoded[row] = dict(zip(map(self.terms.__getitem__,
                                                   self.term_ids[start:end]),
                                               self.tfs[start:end]))
        return tf

    def save(self, path: str | Path) -> int:
        """Write the index to a versioned little-endian binary file; returns
        its size in bytes.

        Layout: 8-byte magic ``LXBM25IX``; the ``<I`` version; the tokenizer
        name; the doc ids and then the terms, each list a ``<I`` count of
        strings; then the postings: ``n_docs + 1`` ``<Q`` offsets, one width
        byte (1, 2 or 4) each for the term ids and the tfs, and as many term
        ids and then tfs, each at its width, as the last offset says; last,
        the ``<I`` CRC-32 (``zlib.crc32``) of every byte before it. Every
        string is UTF-8 preceded by its ``<I`` byte length.
        """
        parts = [_INDEX_MAGIC, _U32.pack(_INDEX_VERSION), _packed([self.tokenizer_name]),
                 _U32.pack(self.n_docs), _packed(self.doc_ids),
                 _U32.pack(len(self.terms)), _packed(self.terms),
                 _little_endian(self.offsets), bytes([self.term_ids.itemsize, self.tfs.itemsize]),
                 _little_endian(self.term_ids), _little_endian(self.tfs)]
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        return write_bytes(path, *parts, _U32.pack(crc))

    @classmethod
    def load(cls, path: str | Path) -> "Bm25Index":
        """Read an index :meth:`save` wrote, each section straight from the
        file into its list or array, so the file is never held whole. A file
        that is not one, or whose sections do not fit together, is a
        :class:`BadIndex` naming it."""
        with open(path, "rb") as fh:
            if fh.read(len(_INDEX_MAGIC)) != _INDEX_MAGIC:
                raise BadIndex(f"{path}: not a lexforge BM25 index; "
                               "rebuild it with `lexforge index`")
            try:
                return _read_index(fh, os.fstat(fh.fileno()).st_size)
            except ValueError as exc:
                raise BadIndex(f"{path}: {exc}") from None


#: Postings array types: ``_OFFSET`` holds an entry count, stored as ``<Q``;
#: a term id or a tf is held at one of ``_WIDTHS``, by its byte count.
_OFFSET = "Q"
_WIDTHS = {1: "B", 2: "H", 4: "I"}
_INDEX_MAGIC = b"LXBM25IX"
_INDEX_VERSION = 2
_U32 = struct.Struct("<I")
#: Entries :class:`_NarrowArray` takes in 4 bytes each before it narrows them.
_BLOCK = 1 << 12


def _byte(k: int, size: int) -> int:
    """The position of the k-th lowest byte in a native int of size bytes."""
    return k if sys.byteorder == "little" else size - 1 - k


def _resized(raw: bytes, size: int, width: int) -> bytearray:
    """The native unsigned ints of size bytes in raw at width bytes each,
    cut to their lowest bytes or padded with zeros, by one byte slice per
    byte kept."""
    out = bytearray(len(raw) // size * width)
    for k in range(min(size, width)):
        out[_byte(k, width)::width] = raw[_byte(k, size)::size]
    return out


class _NarrowArray:
    """An array of unsigned ints that :meth:`extend` keeps at the narrowest
    of 1, 2 and 4 bytes that holds them. Values go into a 4-byte block
    first, since an ``'I'`` array takes them about 3x faster than a ``'B'``
    or ``'H'`` one, whose setters parse each value; a full block is then
    narrowed by byte slices, and the array is widened only when a block
    needs it."""

    def __init__(self):
        self.values, self._block = array(_WIDTHS[1]), array(_WIDTHS[4])

    def extend(self, values: Iterable[int]) -> None:
        self._block.extend(values)
        if len(self._block) >= _BLOCK:
            self.flush()

    def flush(self) -> array:
        """Move the block into the array, and return the array."""
        raw, width = self._block.tobytes(), self.values.itemsize
        cut = _resized(raw, 4, width)
        # the values fit the width when padding them back gives the block
        while width < 4 and _resized(cut, width, 4) != raw:
            width *= 2
            cut = _resized(raw, 4, width)
        if width > self.values.itemsize:
            self.values = array(_WIDTHS[width], _resized(self.values.tobytes(),
                                                         self.values.itemsize, width))
        self.values.frombytes(cut)
        del self._block[:]
        return self.values


def _little_endian(values: array) -> memoryview:
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return memoryview(values)


def _packed(strings: Iterable[str]) -> bytearray:
    """Each string as UTF-8 after its ``<I`` byte length, in one buffer."""
    out = bytearray()
    for text in strings:
        raw = text.encode("utf-8")
        out += _U32.pack(len(raw))
        out += raw
    return out


def _read_index(fh: BinaryIO, size: int) -> Bm25Index:
    """Parse :meth:`Bm25Index.save`'s layout from the open file's position
    after the magic on, ``size`` being the file's length; raises ValueError
    naming the first section that does not fit. A section is read only once
    it is known to fit, and a short read is a truncation too. The CRC-32 is
    folded in as each section is read, so no copy of the file is held."""
    crc = zlib.crc32(_INDEX_MAGIC)

    def values(typecode: str, count: int, what: str) -> array:
        nonlocal crc
        pos, need = fh.tell(), count * array(typecode).itemsize
        out = array(typecode, [0]) * count if need <= size - pos else array(typecode)
        if fh.readinto(out) != need:
            raise ValueError(f"truncated in the {what}: needs {need} bytes at byte {pos}, "
                             f"the file ends at {size}")
        crc = zlib.crc32(out, crc)
        if sys.byteorder == "big":
            out.byteswap()
        return out

    def u32(what: str) -> int:
        return values(_WIDTHS[4], 1, what)[0]

    def strings(count: int, what: str) -> list[str]:
        try:
            return [str(values("B", u32(what), what), "utf-8") for _ in range(count)]
        except UnicodeDecodeError as exc:
            raise ValueError(f"the {what} are not UTF-8: {exc.reason}") from None

    version = u32("version")
    if version != _INDEX_VERSION:
        raise ValueError(f"unsupported version {version}; rebuild it with `lexforge index`")
    tokenizer_name, = strings(1, "tokenizer name")
    if tokenizer_name not in TOKENIZERS:
        raise ValueError(f"unknown tokenizer {tokenizer_name!r}")
    doc_ids = strings(u32("doc id count"), "doc ids")
    if any(map(operator.ge, doc_ids, doc_ids[1:])):
        raise ValueError("the doc ids are not sorted and distinct")
    terms = strings(u32("term count"), "terms")
    if len(set(terms)) != len(terms):
        raise ValueError("the terms are not distinct")
    offsets = values(_OFFSET, len(doc_ids) + 1, "offsets")
    if offsets[0] != 0 or any(map(operator.gt, offsets, offsets[1:])):
        raise ValueError("the offsets do not start at 0 and never decrease")
    widths = dict(zip(("term id", "tf"), values("B", 2, "widths")))
    for what, width in widths.items():
        if width not in _WIDTHS:
            raise ValueError(f"the {what} width is {width}, not 1, 2 or 4")
    left = max(size - fh.tell() - _U32.size, 0)
    postings, rest = divmod(left, sum(widths.values()))
    if rest or offsets[-1] != postings:
        raise ValueError(f"the offsets end at {offsets[-1]} postings, but the {left} bytes "
                         "between the widths and the checksum do not hold that many")
    term_ids = values(_WIDTHS[widths["term id"]], postings, "term ids")
    tfs = values(_WIDTHS[widths["tf"]], postings, "tfs")
    computed = crc  # before reading the trailer folds it in too
    stored = u32("checksum")
    if stored != computed:
        raise ValueError(f"the CRC-32 is {stored:08x}, but the bytes before it "
                         f"give {computed:08x}")
    if postings and max(term_ids) >= len(terms):
        raise ValueError(f"a term id is {max(term_ids)}, but there are {len(terms)} terms")
    if postings and min(tfs) < 1:
        raise ValueError("a tf is 0")
    return Bm25Index(tokenizer_name, terms, offsets, term_ids, tfs, doc_ids)


def _idf(n_docs: int, df: int) -> float:
    """The idf of a term that ``df`` of ``n_docs`` documents hold; 0 for none."""
    return 0.0 if df == 0 else math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def bm25_score(weighted: Sequence[tuple[str, float]], tf: Mapping[str, int], dl: int,
               avgdl: float, params: Bm25Params = Bm25Params()) -> float:
    """One candidate's score: the sum over the query's ``(term, idf)`` list of
    idf · tf·(k1+1) / (tf + k1·(1-b+b·|d|/avgdl)), where ``tf`` is the
    candidate's ``{term: count}`` and ``dl`` its length in tokens."""
    norm = params.k1 * (1.0 - params.b + params.b * dl / avgdl) if avgdl else params.k1
    score = 0.0
    for term, idf in weighted:
        f = tf.get(term, 0)
        if f == 0:
            continue
        score += idf * f * (params.k1 + 1.0) / (f + norm)
    return score


def _distinct_pools(run: Iterable[tuple[str, Mapping[str, str]]]) -> Iterable[Mapping[str, str]]:
    """Each pool object of the run once: without pools every query of a
    run shares the one corpus mapping."""
    return {id(pool): pool for _, pool in run}.values()


class Bm25Scorer:
    """BM25 over one index and one :class:`Bm25Params`, built once per run.

    The scope says where a pool's statistics (the document count, the mean
    document length and each query term's document frequency) come from.
    With ``index`` given (a corpus index, such as ``search --index`` loads)
    the scope is ``corpus``: every pool takes them from the indexed corpus.
    Without one it is ``pool``: the scorer builds one index over the union
    of the run's pools, so each candidate is tokenized once per run, and
    counts each pool's statistics over the pool's own candidates, so they
    equal those of an index built over the pool alone. ``run`` holds the
    run's (query, pool) pairs; only pool scope reads it.
    """

    def __init__(self, run: Iterable[tuple[str, Mapping[str, str]]],
                 params: Bm25Params = Bm25Params(), index: Bm25Index | None = None):
        self.params = params
        self.scope = "pool" if index is None else "corpus"
        if index is None:
            index = Bm25Index.build({cid: text for pool in _distinct_pools(run)
                                     for cid, text in pool.items()})
        self.index = index

    def __str__(self) -> str:
        """The name ``search --scorer`` gives and the run rows record."""
        return "bm25"

    def score(self, query: str, pool: Mapping[str, str]) -> list[tuple[str, float]]:
        """Each candidate of the pool with its score, in pool order. The
        query's terms are weighted once, in token order with repeats kept."""
        index = self.index
        query_tokens = index.tokenizer(query)
        tfs = [index.term_freqs(case_id) for case_id in pool]
        lens = [index.doc_lens[case_id] for case_id in pool]
        terms = dict.fromkeys(query_tokens)
        # a pool smaller than the union counts its own; an empty one scores nothing
        if self.scope == "pool" and 0 < len(pool) < index.n_docs:
            n_docs, avgdl = len(pool), sum(lens) / len(pool)
            doc_freq = {term: sum(term in tf for tf in tfs) for term in terms}
        else:
            n_docs, avgdl, doc_freq = index.n_docs, index.avgdl, index.doc_freq
        idf = {term: _idf(n_docs, doc_freq.get(term, 0)) for term in terms}
        weighted = [(term, idf[term]) for term in query_tokens]
        return [(case_id, bm25_score(weighted, tf, dl, avgdl, self.params))
                for case_id, tf, dl in zip(pool, tfs, lens)]


# --------------------------------------------------------------------------
# Segment-and-max dense scoring
# --------------------------------------------------------------------------

def segment(text: str, cfg: SegmentConfig = SegmentConfig()) -> list[str]:
    """Contiguous windows of at most max_len stepping by stride; tail included."""
    if not text:
        raise ValueError("text must be non-empty")
    starts = [0]
    while starts[-1] + cfg.max_len < len(text):
        starts.append(starts[-1] + cfg.step)
    return [text[s:s + cfg.max_len] for s in starts]


def unit_query(query_vec: np.ndarray) -> np.ndarray:
    """The query vector scaled to unit norm, as :func:`dense_score` takes it."""
    import numpy as np

    q = np.asarray(query_vec, dtype=np.float64)
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise ZeroVector("query vector has zero norm")
    return q / qn


def dense_score(query_unit: np.ndarray, windows: np.ndarray) -> float:
    """Maximum cosine between the query and any window of a candidate.

    ``query_unit`` comes from :func:`unit_query`; ``windows`` holds the
    candidate's windows embedded and scaled to unit norm, one per row, as a
    :class:`DenseScorer` keeps them.
    """
    best = float((windows @ query_unit).max())
    # clamping the max equals the max of the clamped sims; NaN passes through
    return -1.0 if best < -1.0 else 1.0 if best > 1.0 else best


class DenseScorer:
    """Segment-and-max dense scoring with one embedder and one
    :class:`SegmentConfig`, built once per run.

    ``run`` holds the run's (query, pool) pairs. Its distinct queries are
    embedded in one ``embed`` call, and the scorer keeps each one's vector.
    Each distinct candidate text of the pools is segmented once, and all
    their windows go through one ``embed_chunks`` stream, which holds one
    featurization chunk's features at a time; the scorer keeps each text's
    unit window rows alone. A window that embeds to zero norm (a tail too
    short to featurize) has no direction and is dropped. A query of zero
    norm, or a candidate left with no window, an empty one among them, is a
    :class:`ZeroVector` when a pool of it is scored.
    """

    def __init__(self, run: Sequence[tuple[str, Mapping[str, str]]], embedder,
                 seg_cfg: SegmentConfig = SegmentConfig()):
        import numpy as np

        self.seg_cfg = seg_cfg
        queries = list(dict.fromkeys(query for query, _ in run))
        self._queries = dict(zip(queries, np.asarray(embedder.embed(queries),
                                                     dtype=np.float64)))
        self._windows: dict[str, np.ndarray] = {}
        segmented: deque[tuple[str, int]] = deque()  # (text, windows) with rows to come

        def windows() -> Iterator[str]:
            texts = (text for pool in _distinct_pools(run) for text in pool.values())
            for text in dict.fromkeys(texts):
                if text:
                    segments = segment(text, seg_cfg)
                    segmented.append((text, len(segments)))
                    yield from segments

        rows = np.empty((0, embedder.dim))
        for vectors in embedder.embed_chunks(windows()):
            rows = np.concatenate([rows, vectors])
            while segmented and segmented[0][1] <= len(rows):
                text, n = segmented.popleft()
                norms = np.linalg.norm(rows[:n], axis=1)
                nonzero = norms != 0.0
                if nonzero.any():
                    self._windows[text] = rows[:n][nonzero] / norms[nonzero, None]
                rows = rows[n:]

    def __str__(self) -> str:
        """The name ``search --scorer`` gives and the run rows record."""
        return "dense"

    def score(self, query: str, pool: Mapping[str, str]) -> list[tuple[str, float]]:
        """Each candidate of the pool with its score, in pool order, for a
        query of the run."""
        query_unit = unit_query(self._queries[query])
        scored = []
        for case_id, text in pool.items():
            windows = self._windows.get(text)
            if windows is None:
                # no window has a direction; an empty text has no window
                raise ZeroVector(f"case {case_id!r}: " + (
                    f"all {len(segment(text, self.seg_cfg))} segments embed to zero norm"
                    if text else "the text is empty"))
            scored.append((case_id, dense_score(query_unit, windows)))
        return scored


# --------------------------------------------------------------------------
# Search
# --------------------------------------------------------------------------

#: The number of candidates :func:`search` returns when not told.
DEFAULT_K = 30


def search(query: str, pool: Mapping[str, str], scorer: Bm25Scorer | DenseScorer,
           k: int = DEFAULT_K) -> list[tuple[str, float]]:
    """The top ``k`` of the pool, ``{case id: text}``, by the scorer.

    Ordering is by descending score with ties broken by ascending case id,
    so results are a pure function of the inputs. ``k`` larger than the pool
    returns the whole pool.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not pool:
        raise EmptyCorpus("no candidates to score")
    scored = scorer.score(query, pool)
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]
