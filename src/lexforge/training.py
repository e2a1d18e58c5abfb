"""Contrastive dual-encoder training math.

Queries and candidates are encoded separately and scored by cosine
similarity. Training uses in-batch negatives: for each query the positives
of the other queries in the batch act as its negatives, and negatives that
share a charge with the query's own positive are masked out of the softmax
(they are false negatives, legally related to the query). Masking is an
additive large-negative surrogate before the softmax, which is numerically
identical to deleting those entries from the negative set.

The :class:`ToyEmbedder` is a desk-scale trainable encoder (hashed
character n-grams into a linear map); it exists to exercise the loss,
masking, batching and end-to-end trend checks, not to stand in for a
pre-trained model. Its one featurization path,
:meth:`ToyEmbedder._featurize_chunks`, takes a stream of texts in chunks of
about ``FEATURIZE_CHUNK`` n-grams. It encodes each chunk to UTF-8 once and
hashes every n-gram of the chunk in one vectorized pass of the table-driven
CRC-32 (Sarwate): the CRC of each (n - 1)-gram, extended by the bytes of
the next character, is the CRC of the n-gram that starts where it does, so
``zlib.crc32`` of every n-gram comes out with no table of grams met before.
It then finds each text's distinct buckets, in order of first occurrence,
with one sort. The result is bit-identical to hashing the n-grams of one
text at a time. A chunk comes out as two narrow arrays, its texts'
buckets and their raw counts, each in the narrowest unsigned dtype that
holds them. The path has two readers, and neither keeps state on the
embedder.
:meth:`ToyEmbedder.embed_chunks`, which :meth:`ToyEmbedder.embed` and dense
search read, decodes and embeds each chunk as it comes and keeps neither; a
:class:`FeatureStore`, which training reads, keeps the chunks' arrays as
they are, by slot. Both decode on read to an ``intp`` index and the float64
values ``1 + log(count)``, all the texts of a chunk or of a batch in one
pass.

Training reads a :class:`TrainingSet`, which the ``train`` stage builds as
it streams its inputs: the pairs as integer columns over one store, so that
no text outlives the featurization of its chunk and no object per pair or
per text is alive during the steps.

The seeded init is uniform on ``[-scale, scale)`` over the
``hash_buckets × dim`` weights, ``scale = 1 / sqrt(hash_buckets)``, and
each value is a stateless hash of the seed and its position (a
counter-based draw: Salmon et al., SC 2011). Value k, at row ``k // dim``
and column ``k % dim``, is SplitMix64's finalizer (Steele, Lea & Flood,
OOPSLA 2014) over ``seed + (k + 1) * 0x9E3779B97F4A7C15`` mod 2**64; its
top 53 bits times 2**-53 are then scaled as numpy's ``uniform`` scales
them, ``low + span * u``. So any set of rows is computed directly, a
block of ``INIT_CHUNK`` values at a time (:meth:`ToyEmbedder.weight_rows`).

The init is drawn lazily: an embedder given no weights draws the
whole matrix on the first read of :attr:`ToyEmbedder.weights`, and
:meth:`ToyEmbedder.weight_rows` can draw some rows of it without the rest.
Training works on a compact copy of the weights that holds only the rows
some text of the store reaches, drawn that way, and the store numbers its
buckets by those rows: embedding and Adam's moments cover those rows
alone, and each batch's gradient only the rows that batch touches, which
Adam reads block by block as zeros with the touched rows written in; the
backward pass writes it a weight column at a time, each column one
weighted ``np.bincount`` over the batch's entries in text order. That is
exact. A row no text reaches has zero gradient and zero moments at
every step, so the full-layout update would leave it unchanged bit for
bit; every other row sees the same operations in the same order in either
layout. Once the last step is done and the optimizer state is gone, the
caller's weights are drawn, if they were not yet, and get the trained rows
back.
"""

from __future__ import annotations

import os
import struct
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from random import Random

import numpy as np

from .config import LossConfig
from .errors import (
    BadCheckpoint,
    DegenerateRow,
    FeaturelessText,
    InsufficientData,
    NonFiniteLoss,
    ZeroVector,
)
from .fileio import write_bytes

#: Additive stand-in for minus infinity; underflows to exact zero softmax mass.
MASK_SURROGATE = -1.0e9


def cosine_matrix(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities; entry (i, j) in [-1, 1].

    Raises :class:`ZeroVector` naming the first offending row if any input
    vector has zero norm.
    """
    q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(candidates, dtype=np.float64)
    if q.ndim != 2 or c.ndim != 2 or q.shape[1] != c.shape[1]:
        raise ValueError(f"shape mismatch: {q.shape} vs {c.shape}")
    qn = np.linalg.norm(q, axis=1)
    cn = np.linalg.norm(c, axis=1)
    for label, norms in (("query", qn), ("candidate", cn)):
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ZeroVector(f"{label} row {int(zero[0])} has zero norm")
    sim = (q / qn[:, None]) @ (c / cn[:, None]).T
    np.clip(sim, -1.0, 1.0, out=sim)
    return sim


def false_negative_mask(positive_charges: Sequence[frozenset[str] | set[str]]) -> np.ndarray:
    """Boolean N×N mask of in-batch negatives sharing charges with the positive.

    ``mask[i][j]`` is True iff ``i != j`` and the charges of positive j
    intersect the charges of positive i. The diagonal is always False: a
    query's own positive is never masked. The mask is computed from the N×C
    charge-incidence matrix.
    """
    sets = [frozenset(s) for s in positive_charges]
    column = {charge: c for c, charge in enumerate(sorted(set().union(*sets)))}
    incidence = np.zeros((len(sets), len(column)), dtype=bool)
    for i, charges in enumerate(sets):
        incidence[i, [column[charge] for charge in charges]] = True
    mask = incidence @ incidence.T  # boolean matmul: any shared column
    np.fill_diagonal(mask, False)
    return mask


def in_batch_loss(sim: np.ndarray, mask: np.ndarray | None = None,
                  cfg: LossConfig = LossConfig()) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over each row with the diagonal as the positive.

    Returns ``(loss, grad)`` where loss is
    ``-(1/N) Σ_i log( exp(s_ii/τ) / Σ_{j unmasked or j=i} exp(s_ij/τ) )``
    and grad is its analytic gradient with respect to ``sim``. Masked
    entries are excluded from every denominator and receive exactly zero
    gradient. The mask argument alone decides masking: a mask given is
    applied, and ``None`` masks nothing.
    """
    s = np.asarray(sim, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("similarity matrix contains non-finite entries")
    n = s.shape[0]

    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != s.shape:
            raise ValueError(f"mask shape {m.shape} != sim shape {s.shape}")
        if m.diagonal().any():
            raise DegenerateRow("diagonal entries must never be masked")
        s = np.where(m, MASK_SURROGATE, s)

    logits = s / cfg.temperature
    row_max = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - row_max)
    denom = exp.sum(axis=1)
    log_denom = np.log(denom) + row_max[:, 0]
    losses = log_denom - logits.diagonal()
    loss = float(losses.mean())

    softmax = exp / denom[:, None]
    grad = (softmax - np.eye(n)) / (n * cfg.temperature)
    if mask is not None:
        grad[m] = 0.0
    return loss, grad


# --------------------------------------------------------------------------
# Toy embedder: hashed character n-grams through a trainable linear map
# --------------------------------------------------------------------------

#: N-grams per featurization chunk: a chunk's working arrays take about a
#: hundred bytes per n-gram, so a batch of any size holds about 2 MiB of
#: them at a time. A text with more n-grams than this is a chunk of its own.
FEATURIZE_CHUNK = 1 << 14

#: Values per block of the seeded init, rounded down to whole rows (at least
#: one): a block's working arrays take about 16 bytes per value, so
#: :meth:`ToyEmbedder.weight_rows` holds about 130 KiB beyond its output,
#: where one draw of a 2^15 x 64 matrix would hold 16 MiB temporaries.
INIT_CHUNK = 1 << 12

#: A seed is below this and not negative: the checkpoint header stores it as
#: an ``int64``.
SEED_END = 1 << 63

def _gram_buckets(occ_bucket: np.ndarray, joined: str, lens: np.ndarray,
                  per_n: list[np.ndarray], occ_start: np.ndarray, nmin: int, nmax: int,
                  hash_buckets: int) -> None:
    """Set ``occ_bucket[i]`` to the bucket of occurrence i among the n-grams
    of the texts ``joined`` holds back to back, ``lens`` long. Occurrences
    are numbered text by text, then n from ``nmin`` up, then position.
    ``per_n`` counts each text's grams of each n, and ``occ_start`` is the
    number of each text's first one.

    A gram's bucket is the CRC-32 of its UTF-8 bytes, ``zlib.crc32``,
    modulo ``hash_buckets``. ``joined`` is encoded once; each gram of n
    characters extends the running CRC of the (n - 1)-gram at its start by
    the bytes of its last character, one byte position at a time through
    the table, for every gram at once."""
    # strict UTF-8; the padding lets every character read 4 bytes from its offset
    data = np.frombuffer(joined.encode() + bytes(3), dtype=np.uint8)
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4")
    width = 1 + (cps > 0x7F) + (cps > 0x7FF) + (cps > 0xFFFF)  # UTF-8 bytes
    offset = np.cumsum(width) - width
    table = np.arange(256, dtype=np.uint32)  # Sarwate's table, reflected polynomial
    for _ in range(8):
        table = table >> 1 ^ (table & 1) * 0xEDB88320
    text_of = np.repeat(np.arange(len(lens)), lens)
    ends = np.cumsum(lens)
    room = ends[text_of] - np.arange(len(cps))  # characters left in the text
    # the n-gram at offset p has occurrence number base[text_of[p]] + p
    base = occ_start - (ends - lens)
    starts = np.arange(len(cps))
    crc = np.full(len(cps), 0xFFFFFFFF, dtype=np.uint32)
    for n in range(1, nmax + 1):
        if n > 1:
            keep = room[starts] >= n
            starts, crc = starts[keep], crc[keep]
        at, size = offset[starts + n - 1], width[starts + n - 1]
        for k in range(int(size.max(initial=0))):
            step = table[(crc ^ data[at + k]) & 0xFF] ^ (crc >> 8)
            crc = step if k == 0 else np.where(size > k, step, crc)
        if n >= nmin:
            occ_bucket[base[text_of[starts]] + starts] = (~crc).astype(np.int64) % hash_buckets
            base = base + per_n[n - nmin]


def _bucket_counts(occ_bucket: np.ndarray, per_text: np.ndarray, occ_start: np.ndarray,
                   hash_buckets: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The distinct buckets of a chunk's texts, text after text, each
    text's in order of first occurrence, with their raw counts; and the
    offset of each text's first entry, then the entry count. This is the
    compact form :class:`FeatureStore` keeps (see
    :func:`_decoded`). The buckets come in the narrowest unsigned dtype that
    holds ``hash_buckets - 1``, the counts in the narrowest one that holds
    the chunk's largest count. One sort of ``(text, bucket, occurrence)``
    keys puts each text's repeats of a bucket side by side, first
    occurrence first. The key fits 63 bits: a chunk of several texts holds
    at most ``FEATURIZE_CHUNK`` grams, and a bucket is below 2**32."""
    n_grams = len(occ_bucket)
    occ_bits = n_grams.bit_length()
    bucket_bits = (min(hash_buckets, 1 << 32) - 1).bit_length()
    key = np.repeat(np.cumsum(per_text > 0) - 1, per_text)  # among texts with grams
    key <<= bucket_bits
    key |= occ_bucket
    key <<= occ_bits
    key |= np.arange(n_grams)
    key.sort()
    group = key >> occ_bits
    head = np.ones(n_grams, dtype=bool)
    np.not_equal(group[1:], group[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    count_at = np.zeros(n_grams, dtype=np.int64)
    count_at[key[heads] & ((1 << occ_bits) - 1)] = np.diff(heads, append=n_grams)
    firsts = np.flatnonzero(count_at)  # text by text, in order of first occurrence
    idx = occ_bucket[firsts].astype(np.min_scalar_type(hash_buckets - 1))
    counts = count_at[firsts]
    counts = counts.astype(np.min_scalar_type(int(counts.max(initial=0))))
    return idx, counts, np.searchsorted(firsts, occ_start).tolist() + [len(firsts)]


def _decoded(entries: Sequence[tuple[np.ndarray, np.ndarray]], idx: np.ndarray,
             values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The features of compact entries (at least one): the buckets as
    ``intp`` and the damped counts ``1 + log(count)`` as float64. The
    entries are decoded together, in one pass, into the heads of ``idx``
    (``intp``) and ``values`` (float64), which hold at least as many
    entries; each text's features are views of them. The values are
    computed in place, with the same operations as the expression."""
    ends = list(accumulate(len(buckets) for buckets, _ in entries))
    idx, values = idx[:ends[-1]], values[:ends[-1]]
    np.concatenate([buckets for buckets, _ in entries], out=idx)
    np.concatenate([counts for _, counts in entries], out=values)
    np.log(values, out=values)
    values += 1.0
    return [(idx[a:b], values[a:b]) for a, b in zip([0, *ends], ends)]


class ToyEmbedder:
    """Hashed character n-gram featurizer followed by a linear map.

    An embedder holds its shape, its seed and its weights, and no per-text
    state. Featurization is deterministic (CRC32 bucket hashing, log-damped
    counts) and batched (:meth:`embed_chunks`); the only parameters are the
    ``hash_buckets × dim`` weights, initialized from a seeded uniform
    distribution unless ``weights`` are given. The seeded draw is made on
    the first read of :attr:`weights`, not before.
    """

    def __init__(self, dim: int = 64, hash_buckets: int = 1 << 15,
                 ngram_min: int = 2, ngram_max: int = 3, seed: int = 0,
                 weights: np.ndarray | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if hash_buckets < 1:
            raise ValueError("hash_buckets must be >= 1")
        if not 1 <= ngram_min <= ngram_max:
            raise ValueError("need 1 <= ngram_min <= ngram_max")
        if not 0 <= seed < SEED_END:
            raise ValueError(f"seed = {seed!r}: seed must be in [0, 2**63)")
        self.dim = dim
        self.hash_buckets = hash_buckets
        self.ngram_min = ngram_min
        self.ngram_max = ngram_max
        self.seed = seed
        if weights is not None and weights.shape != (hash_buckets, dim):
            raise ValueError(f"weights of shape {weights.shape} for {hash_buckets} "
                             f"buckets of dimension {dim}")
        self._weights = weights

    @property
    def weights(self) -> np.ndarray:
        """The weights; the seeded init is drawn whole on the first read."""
        if self._weights is None:
            self._weights = self.weight_rows(np.arange(self.hash_buckets))
        return self._weights

    def weight_rows(self, rows: np.ndarray) -> np.ndarray:
        """``weights[rows]`` for row ids in any order, without drawing the
        weights if they are not drawn yet. The seeded init's values are
        then computed for the rows asked for alone, a block of whole rows
        at a time, ``INIT_CHUNK`` values or one row, so the call holds its
        output and one block's working arrays, however many buckets there
        are. Value k of the init is weight ``k // dim``, ``k % dim`` (see
        the module docstring)."""
        if self._weights is not None:
            return self._weights[rows]
        scale = 1.0 / np.sqrt(self.hash_buckets)
        low, span = float(-scale), float(scale - -scale)
        per_block = max(1, INIT_CHUNK // self.dim)
        out = np.empty((len(rows), self.dim))
        for i in range(0, len(rows), per_block):
            # SplitMix64's finalizer over seed + (k + 1) * 0x9E3779B97F4A7C15
            # for each value k of the block; uint64 arithmetic wraps mod 2**64
            z = np.add.outer(np.asarray(rows[i:i + per_block], dtype=np.uint64) * self.dim,
                             np.arange(1, self.dim + 1, dtype=np.uint64))
            z *= 0x9E3779B97F4A7C15
            z += self.seed
            z ^= z >> 30
            z *= 0xBF58476D1CE4E5B9
            z ^= z >> 27
            z *= 0x94D049BB133111EB
            z ^= z >> 31
            z >>= 11
            # the top 53 bits times 2**-53, times span, plus low, in the
            # order of numpy's uniform
            block = out[i:i + per_block]
            block[...] = z
            block *= 1.0 / (1 << 53)
            block *= span
            block += low
        return out

    def features(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Sparse feature vector of a text: (bucket indices, damped counts).

        Let ``compact`` be the text without whitespace. Its features count
        the CRC32 buckets of ``compact[i:i + n]`` for each n from
        ``ngram_min`` to ``ngram_max`` and each i, as ``1 + log(count)``.
        The buckets are listed in order of first occurrence, with n
        outermost, which fixes the summation order of
        ``values @ weights[idx]``. One text is one chunk, decoded whole.
        """
        [(idx, counts, _)] = self._featurize_chunks([text])
        return _decoded([(idx, counts)], np.empty(len(idx), dtype=np.intp),
                        np.empty(len(idx)))[0]

    def _featurize_chunks(self, texts: Iterable[str]
                          ) -> Iterator[tuple[np.ndarray, np.ndarray, list[int]]]:
        """Compact features of the texts, chunk by chunk, as
        :func:`_bucket_counts` gives them for each chunk of about
        ``FEATURIZE_CHUNK`` n-grams. The texts are read as the chunks fill,
        so only one chunk's texts are held at a time, and a chunk's n-grams
        are hashed by :func:`_gram_buckets` with nothing kept from earlier
        chunks, so the output does not depend on how the texts fall into
        chunks."""
        chunk: list[str] = []
        grams = 0
        for text in texts:
            compact = "".join(text.split())
            count = sum(max(0, len(compact) - n + 1)
                        for n in range(self.ngram_min, self.ngram_max + 1))
            if chunk and grams + count > FEATURIZE_CHUNK:
                yield self._featurize_chunk(chunk)
                chunk, grams = [], 0
            chunk.append(compact)
            grams += count
        if chunk:
            yield self._featurize_chunk(chunk)

    def _featurize_chunk(self, compacts: list[str]) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Compact features of whitespace-free texts, one chunk of a batch."""
        lens = np.fromiter(map(len, compacts), dtype=np.int64, count=len(compacts))
        per_n = [np.maximum(lens - n + 1, 0) for n in range(self.ngram_min, self.ngram_max + 1)]
        per_text = np.sum(per_n, axis=0)
        occ_start = np.cumsum(per_text) - per_text
        occ_bucket = np.empty(int(per_text.sum()), dtype=np.int64)
        _gram_buckets(occ_bucket, "".join(compacts), lens, per_n, occ_start,
                      self.ngram_min, self.ngram_max, self.hash_buckets)
        return _bucket_counts(occ_bucket, per_text, occ_start, self.hash_buckets)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """The embedding of each text, one row per text, in order."""
        return np.concatenate([np.empty((0, self.dim)), *self.embed_chunks(texts)])

    def embed_chunks(self, texts: Iterable[str]) -> Iterator[np.ndarray]:
        """The embeddings of the texts, one array of rows per featurization
        chunk, in order. A chunk is decoded, embedded and dropped before the
        next is featurized, so the call holds one chunk's features and
        working arrays at a time, however long the stream. A row is
        ``values @ weights[idx]`` of the text's :meth:`features`, bit for
        bit. The chunk's texts gather their weight rows in turn into one
        scratch, as tall as the chunk's largest text."""
        for idx, counts, cuts in self._featurize_chunks(texts):
            # the decoded chunk is an argument, not a local, so that it is
            # freed before the next chunk is featurized
            yield _embedded(_decoded([(idx[a:b], counts[a:b]) for a, b in zip(cuts, cuts[1:])],
                                     np.empty(len(idx), dtype=np.intp), np.empty(len(idx))),
                            self.weights, np.empty((int(np.diff(cuts).max()), self.dim)))


def _embedded(feats: Sequence[tuple[np.ndarray, np.ndarray]], weights: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
    """Rows ``values @ weights[idx]`` of featurized texts; a text with no
    feature embeds to zeros. Each text's rows ``weights[idx]`` are gathered
    into the head of ``scratch``, a C-contiguous array with a row for each
    feature of the largest text."""
    out = np.zeros((len(feats), weights.shape[1]))
    for row, (idx, values) in enumerate(feats):
        if idx.size:
            # mode "clip" gathers straight into the scratch ("raise" gathers
            # into a copy first); every index is in range
            rows = np.take(weights, idx, axis=0, out=scratch[:len(idx)], mode="clip")
            out[row] = values @ rows
    return out


class FeatureStore:
    """The compact features of a sequence of texts, packed: the i-th text
    is slot i.

    The texts are featurized in one call, chunk by chunk
    (:meth:`ToyEmbedder._featurize_chunks`), and each chunk's bucket and
    count arrays are kept as they come, so a text is held only until its
    chunk is featurized, and the store holds two arrays per chunk, not two
    per text. Slot s's entries are ``offsets[s]`` to ``offsets[s + 1]`` of
    the chunks' entries laid end to end.

    The buckets are then renumbered in place to positions among
    :attr:`rows`, the buckets that some text reaches, in ascending order: a
    stored bucket b is bucket ``rows[b]`` of the embedder. A position is
    below ``hash_buckets``, so it fits the buckets' dtype.
    """

    def __init__(self, embedder: ToyEmbedder, texts: Iterable[str]):
        self._buckets: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        offsets, starts = array("q", [0]), array("q")
        for buckets, counts, cuts in embedder._featurize_chunks(texts):
            starts.append(offsets[-1])
            offsets.extend(starts[-1] + cut for cut in cuts[1:])
            self._buckets.append(buckets)
            self._counts.append(counts)
        self.offsets = np.array(offsets, dtype=np.int64)
        self._starts = np.array(starts, dtype=np.int64)  # each chunk's first entry
        reach = np.zeros(embedder.hash_buckets, dtype=bool)
        for buckets in self._buckets:
            reach[buckets] = True
        self.rows = np.flatnonzero(reach)
        position = np.zeros(embedder.hash_buckets, dtype=np.int64)
        position[self.rows] = np.arange(len(self.rows))
        for buckets in self._buckets:
            buckets[:] = position[buckets]

    def entries(self, slots: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """The compact entries of the slots, renumbered buckets and raw
        counts, as views of their chunks' arrays."""
        starts, ends = self.offsets[slots], self.offsets[slots + 1]
        chunks = self._starts.searchsorted(starts, side="right") - 1
        bases = self._starts[chunks]
        return [(self._buckets[c][a:b], self._counts[c][a:b]) for c, a, b in zip(
            chunks.tolist(), (starts - bases).tolist(), (ends - bases).tolist())]


_CKPT_MAGIC = b"LXTOYEMB"
_CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<IIIIIq")  # version, H, dim, nmin, nmax, seed


def save_checkpoint(embedder: ToyEmbedder, path: str | Path) -> None:
    """Write the embedder to a versioned little-endian binary file.

    Layout: 8-byte magic ``LXTOYEMB``; ``<IIIIIq`` header holding version,
    hash-bucket count, dimension, ngram_min, ngram_max and the init seed;
    then hash_buckets × dim float64 weights, row-major, little-endian. The
    weights are written from their own buffer when they are already C-order
    ``<f8``, so saving makes no copy of them.
    """
    header = _CKPT_HEADER.pack(_CKPT_VERSION, embedder.hash_buckets, embedder.dim,
                               embedder.ngram_min, embedder.ngram_max, embedder.seed)
    write_bytes(path, _CKPT_MAGIC + header, np.ascontiguousarray(embedder.weights, dtype="<f8"))


def load_checkpoint(path: str | Path) -> ToyEmbedder:
    """Read a checkpoint :func:`save_checkpoint` wrote, with the weights read
    straight into their array. A bad magic, a short header, another version,
    a header :class:`ToyEmbedder` rejects or a weight section of the wrong
    size is :class:`BadCheckpoint` naming the file."""
    with open(path, "rb") as fh:
        head = fh.read(len(_CKPT_MAGIC) + _CKPT_HEADER.size)
        if head[:len(_CKPT_MAGIC)] != _CKPT_MAGIC:
            raise BadCheckpoint(f"{path}: bad magic")
        try:
            version, buckets, dim, nmin, nmax, seed = _CKPT_HEADER.unpack_from(
                head, len(_CKPT_MAGIC))
        except struct.error as exc:
            raise BadCheckpoint(f"{path}: truncated header") from exc
        if version != _CKPT_VERSION:
            raise BadCheckpoint(f"{path}: unsupported version {version}")
        expected = buckets * dim * 8
        size = os.fstat(fh.fileno()).st_size - len(head)
        if size == expected:
            weights = np.empty((buckets, dim), dtype="<f8")
            size = fh.readinto(weights)
        if size != expected:
            raise BadCheckpoint(f"{path}: expected {expected} weight bytes, got {size}")
    try:
        return ToyEmbedder(dim=dim, hash_buckets=buckets, ngram_min=nmin, ngram_max=nmax,
                           seed=seed, weights=weights)
    except ValueError as exc:
        raise BadCheckpoint(f"{path}: {exc}") from None


# --------------------------------------------------------------------------
# Training loop
# --------------------------------------------------------------------------

class TrainingSet:
    """Query-positive pairs as columns over one :class:`FeatureStore`.

    Pair i's query is store slot ``queries[i]``, its positive slot
    ``positives[i]``, and the charges of its positive are
    ``charge_sets[charges[i]]``: a training set holds few distinct charge
    sets, and each is kept once. The columns are integer arrays, so the
    pairs hold no text and no object per pair.
    """

    def __init__(self, store: FeatureStore, queries: Iterable[int], positives: Iterable[int],
                 charges: Iterable[int], charge_sets: Iterable[frozenset[str]]):
        self.store = store
        self.queries, self.positives, self.charges = (
            np.array(column, dtype=np.intp) for column in (queries, positives, charges))
        self.charge_sets = list(charge_sets)

    def __len__(self) -> int:
        return len(self.queries)

    def slots(self, pairs: Sequence[int]) -> np.ndarray:
        """The store slots of the pairs' queries, then of their positives."""
        return np.concatenate([self.queries[pairs], self.positives[pairs]])


@dataclass(frozen=True)
class TrainSchedule:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2: in-batch negatives need two pairs")
        # zero is allowed: it trains without moving the parameters
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")


#: Elements per block of the Adam update: 512 rows of 64 float64 weights.
#: The five blocks one pass touches (params, m, v and two scratch, one of
#: which holds the gradient first) take 1.25 MiB, so they stay in a core's
#: L2 cache between the update's passes.
ADAM_BLOCK = 512 * 64
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
#: Share of the steps over which the learning rate warms up to its peak.
WARMUP_FRACTION = 0.1


class Adam:
    """Adaptive moment estimation, deterministic given the gradient stream.

    :meth:`step` takes the gradient as the rows a batch touched: sorted
    unique row ids and one gradient row each; every other row's gradient is
    +0.0. It updates ``m``, ``v`` and the parameters in place, one block of
    ``ADAM_BLOCK // dim`` rows at a time (at least one): the block's
    gradient is a scratch filled with 0.0 into which its touched rows are
    written through transposed views (so training's column-major gradient
    is read without a copy), and every element, touched or not, gets the
    floating-point operations of the textbook update in the same order, so
    it comes out bit for bit as ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + ((1-b2)*g)*g``, ``p -= (lr*m_hat) / (sqrt(v_hat) + eps)``.

    :func:`train_toy` keeps state only for the weight rows its texts reach.
    For any other row ``g = m = v = 0`` at every step, so ``m`` and ``v``
    stay 0, ``lr*m_hat / (sqrt(v_hat) + eps)`` is 0 and the update leaves
    the row as it was: dropping the row changes no result.
    """

    def __init__(self, shape: tuple[int, int]):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self._block_rows = max(1, ADAM_BLOCK // shape[1])
        # two scratch arrays of one block of rows each, or of all the rows
        size = min(self._block_rows, shape[0]) * shape[1]
        self._scratch = np.empty(size), np.empty(size)

    def step(self, params: np.ndarray, rows: np.ndarray, grad_rows: np.ndarray,
             lr: float) -> None:
        """One update; ``grad_rows[i]`` is the gradient of row ``rows[i]``,
        and ``rows`` is sorted and unique."""
        n, dim = self.m.shape
        if params.shape != self.m.shape or grad_rows.shape != (len(rows), dim):
            raise ValueError(f"params {params.shape} and {len(rows)} gradient rows "
                             f"{grad_rows.shape} do not fit the optimizer's shape "
                             f"{self.m.shape}")
        if not params.flags.c_contiguous:
            raise ValueError("params must be C-contiguous to be updated in place")
        self.t += 1
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        starts = range(0, n, self._block_rows)
        edges = np.searchsorted(rows, starts).tolist() + [len(rows)]
        for start, lo, hi in zip(starts, edges, edges[1:]):
            end = min(start + self._block_rows, n)
            pb, mb, vb = (a[start:end].reshape(-1) for a in (params, self.m, self.v))
            gb, s1 = (buf[:(end - start) * dim] for buf in self._scratch)
            s2 = gb  # the gradient's last read comes before s2's first write
            gb.fill(0.0)
            gb.reshape(-1, dim).T[:, rows[lo:hi] - start] = grad_rows[lo:hi].T
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, 1 - b1, out=s1)
            np.add(mb, s1, out=mb)                 # m = b1*m + (1-b1)*g
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, 1 - b2, out=s1)
            np.multiply(s1, gb, out=s1)
            np.add(vb, s1, out=vb)                 # v = b2*v + ((1-b2)*g)*g
            np.divide(vb, c2, out=s1)
            np.sqrt(s1, out=s1)
            np.add(s1, eps, out=s1)                # sqrt(v_hat) + eps
            np.divide(mb, c1, out=s2)
            np.multiply(s2, lr, out=s2)            # lr*m_hat
            np.divide(s2, s1, out=s2)
            np.subtract(pb, s2, out=pb)


def lr_at(step: int, total_steps: int, schedule: TrainSchedule) -> float:
    """Linear warm-up to the peak rate, then linear decay toward zero."""
    warmup = max(1, int(round(WARMUP_FRACTION * total_steps)))
    if step < warmup:
        return schedule.learning_rate * (step + 1) / warmup
    remaining = max(1, total_steps - warmup)
    return schedule.learning_rate * max(0.0, (total_steps - step) / remaining)


class _GradientBuffer:
    """The workspace of one batch's gradient, in arrays reused across
    steps: the rows the batch touches, its decoded features and their
    dL/dW.

    ``touched`` and ``position`` have an entry per weight row: a batch marks
    its rows in ``touched`` and unmarks them once it has their sorted ids,
    and ``position[r]`` is then row r's place among them. ``grad`` has room
    for a row per touched row of the largest batch, and ``idx`` and
    ``values`` an entry per feature of the largest batch's texts; a batch
    uses their heads. Before ``grad`` holds the gradient, each text's
    weight rows are gathered into it, row-major, to embed the text; the
    backward scatter then writes the gradient into the same memory column
    by column, as a ``(dim, rows)`` array.
    """

    def __init__(self, shape: tuple[int, int]):
        self.touched = np.zeros(shape[0], dtype=bool)
        self.position = np.zeros(shape[0], dtype=np.intp)
        self.grad = np.empty((0, shape[1]))
        self.idx = np.empty(0, dtype=np.intp)
        self.values = np.empty(0)

    def rows(self, buckets: np.ndarray) -> np.ndarray:
        """The rows the buckets name, sorted, each once."""
        self.touched[buckets] = True
        rows = np.flatnonzero(self.touched)
        self.touched[rows] = False
        return rows

    def reserve(self, n_rows: int, n_entries: int) -> None:
        """Make ``grad`` at least ``n_rows`` tall and ``idx`` and ``values``
        at least ``n_entries`` long. Training reserves the largest batch's
        before its first step, so each array is allocated once: regrowing it
        as larger batches come leaves freed blocks behind that keep the
        process's peak higher."""
        if n_rows > len(self.grad):
            self.grad = np.empty((n_rows, self.grad.shape[1]))
        if n_entries > len(self.idx):
            self.idx = np.empty(n_entries, dtype=np.intp)
            self.values = np.empty(n_entries)

    def start(self, store: FeatureStore, slots: np.ndarray
              ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """The sorted rows the slots' texts touch, with ``position`` set for
        them and ``grad`` at least that tall, and the texts' features,
        decoded into ``idx`` and ``values``."""
        entries = store.entries(slots)
        n_entries = sum(len(buckets) for buckets, _ in entries)
        self.reserve(0, n_entries)
        feats = _decoded(entries, self.idx, self.values)
        rows = self.rows(self.idx[:n_entries])
        self.position[rows] = np.arange(len(rows))
        self.reserve(len(rows), 0)
        return rows, feats

    def scatter(self, feats: Sequence[tuple[np.ndarray, np.ndarray]], d_rows: np.ndarray,
                n_rows: int) -> np.ndarray:
        """dL/dW on the first ``n_rows`` touched rows, a transposed view of
        a ``(dim, n_rows)`` head of ``grad``: rows of +0.0 to which each
        text, in order, adds ``values[:, None] * d`` on its rows, ``d`` its
        row of ``d_rows``. The features' buckets, in the head of ``idx``,
        become positions in place. Column j is one weighted ``np.bincount``
        of the batch's entries, in text order, with weights ``values *
        d[j]``: it starts each row at +0.0 and adds the row's weights in
        entry order, so it is bit for bit the per-text sum."""
        grad_t = self.grad.reshape(-1)[:n_rows * self.grad.shape[1]].reshape(-1, n_rows)
        lens = np.array([len(idx) for idx, _ in feats])
        n_entries = lens.sum()
        positions, values = self.idx[:n_entries], self.values[:n_entries]
        # take reads each index before it writes that entry ("clip" writes
        # in place; "raise" would work on a copy)
        np.take(self.position, positions, out=positions, mode="clip")
        for column, d in zip(grad_t, d_rows.T):
            weights = np.repeat(d, lens)
            weights *= values
            column[:] = np.bincount(positions, weights, n_rows)
            del weights  # freed before the next column's is made
        return grad_t.T


def _batch_gradient(weights: np.ndarray, data: TrainingSet, pairs: Sequence[int],
                    cfg: LossConfig, buffer: _GradientBuffer
                    ) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and dL/dW for one batch, the given pairs of ``data``, via the
    cosine chain rule; ``weights`` has a row per row of ``data.store.rows``.

    Returns ``(loss, rows, grad)``: the weight rows the batch's texts touch,
    sorted, and their gradient, a transposed view of ``buffer.grad``; every
    other row's gradient is zero. Each text adds its term to its rows, text
    by text, from 0.0, as into a gradient over every row. The batch's texts
    are decoded from the store in one call, and the step allocates no array
    per text: the features, the forward gather and the backward scatter
    use the buffer's arrays.
    """
    rows, feats = buffer.start(data.store, data.slots(pairs))
    # the gradient rows are free until the scatter: a text's distinct
    # buckets never outnumber its batch's touched rows
    q_vecs = _embedded(feats[:len(pairs)], weights, buffer.grad)
    c_vecs = _embedded(feats[len(pairs):], weights, buffer.grad)

    sim = cosine_matrix(q_vecs, c_vecs)
    mask = (false_negative_mask([data.charge_sets[c] for c in data.charges[pairs].tolist()])
            if cfg.masking_enabled else None)
    loss, grad_sim = in_batch_loss(sim, mask, cfg)

    qn = np.linalg.norm(q_vecs, axis=1, keepdims=True)
    cn = np.linalg.norm(c_vecs, axis=1, keepdims=True)
    q_unit = q_vecs / qn
    c_unit = c_vecs / cn
    # d cos(q_i, c_j)/d q_i = (ĉ_j - s_ij q̂_i) / |q_i|
    d_q = (grad_sim @ c_unit - (grad_sim * sim).sum(axis=1, keepdims=True) * q_unit) / qn
    d_c = (grad_sim.T @ q_unit - (grad_sim * sim).sum(axis=0)[:, None] * c_unit) / cn
    return loss, rows, buffer.scatter(feats, np.concatenate([d_q, d_c]), len(rows))


def _batches(order: Sequence[int], batch_size: int) -> list[list[int]]:
    chunks = [list(order[i:i + batch_size]) for i in range(0, len(order), batch_size)]
    # a singleton batch has no in-batch negatives; drop it
    return [chunk for chunk in chunks if len(chunk) >= 2]


def _steps(n_pairs: int, schedule: TrainSchedule) -> Iterator[tuple[int, list[int]]]:
    """Each step's epoch and the pair indices of its batch, in order: the
    pairs are shuffled once per epoch, from the schedule seed."""
    from .seeds import derive_seed

    for epoch in range(schedule.epochs):
        order = list(range(n_pairs))
        Random(derive_seed(schedule.seed, "shuffle", epoch)).shuffle(order)
        for chunk in _batches(order, schedule.batch_size):
            yield epoch, chunk


def train_toy(data: TrainingSet, embedder: ToyEmbedder,
              schedule: TrainSchedule = TrainSchedule(),
              loss_cfg: LossConfig = LossConfig()) -> list[tuple[int, float]]:
    """First-order training of the toy embedder on query-positive pairs;
    the loss curve, ``(step, loss)`` per step.

    ``data`` is a :class:`TrainingSet` featurized by an embedder with this
    one's hash buckets and n-gram lengths, as the ``train`` stage builds
    one from its input files. Fully deterministic under the schedule seed:
    shuffling, batching and every update are reproducible bit for bit,
    over a fixed number of epochs. The steps update a compact copy of the
    rows the store reaches (see the module docstring); ``embedder.weights``
    gets those rows back once, at the end, so a run that raises leaves the
    caller's weights as they were before training, and an undrawn seeded
    init undrawn. A text with no n-gram, which would embed to a zero
    vector, is a :class:`FeaturelessText` naming the first pair that has
    one, raised before the first step.
    """
    per_epoch = len(_batches(range(len(data)), schedule.batch_size))
    if per_epoch == 0:
        noun = "pairs" if len(data) != 1 else "pair"
        raise InsufficientData(f"{len(data)} training {noun}: a batch needs two")

    empty = np.diff(data.store.offsets) == 0
    featureless = np.flatnonzero(empty[data.queries] | empty[data.positives])
    if featureless.size:
        i = int(featureless[0])
        raise FeaturelessText(i, "query_text" if empty[data.queries[i]] else "positive_text")
    weights = embedder.weight_rows(data.store.rows)
    curve = _train_steps(data, weights, schedule, loss_cfg, schedule.epochs * per_epoch)
    # the optimizer state and gradient buffer are gone before this draws
    # the caller's whole weight matrix, if it is not drawn yet
    embedder.weights[data.store.rows] = weights
    return curve


def _train_steps(data: TrainingSet, weights: np.ndarray, schedule: TrainSchedule,
                 loss_cfg: LossConfig, total_steps: int) -> list[tuple[int, float]]:
    """Every step of the schedule on the compact weights, in place; the
    loss curve. The optimizer and the gradient buffer live only as long as
    this call. The buffer is sized for the largest batch before the first
    step, so no step allocates an array per text."""
    optimizer = Adam(weights.shape)
    buffer = _GradientBuffer(weights.shape)
    sizes = []
    for _, pairs in _steps(len(data), schedule):
        buckets = np.concatenate([idx for idx, _ in data.store.entries(data.slots(pairs))])
        sizes.append((len(buffer.rows(buckets)), len(buckets)))
    buffer.reserve(*map(max, zip(*sizes)))
    curve: list[tuple[int, float]] = []

    for step, (epoch, pairs) in enumerate(_steps(len(data), schedule)):
        try:
            loss, rows, w_grad = _batch_gradient(weights, data, pairs, loss_cfg, buffer)
        except ValueError as exc:
            raise NonFiniteLoss(
                f"aborted at step {step} (epoch {epoch}, "
                f"batch rows {pairs[:4]}...): {exc}") from exc
        # a NaN anywhere makes min and max NaN, an infinity one of them
        if not all(map(np.isfinite, (loss, w_grad.min(), w_grad.max()))):
            raise NonFiniteLoss(
                f"non-finite loss at step {step} (epoch {epoch}): {loss}")
        curve.append((step, loss))
        optimizer.step(weights, rows, w_grad, lr_at(step, total_steps, schedule))
    return curve
