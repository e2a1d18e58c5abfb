"""Independent brute-force oracles.

Everything here re-derives expected values from first principles (plain
loops, explicit formulas, finite differences) without touching the library
code paths under test. Tests compare library output against these.
"""

from __future__ import annotations

import math
import re
from collections import Counter


# --- ranking metrics ------------------------------------------------------

def precision_oracle(labels, k, relevant=3):
    hits = 0
    for i in range(min(k, len(labels))):
        if labels[i] == relevant:
            hits += 1
    return hits / k


def ap_oracle(labels, pool_labels, relevant=3):
    total = sum(1 for x in pool_labels if x == relevant)
    if total == 0:
        return 0.0
    acc = 0.0
    seen = 0
    for rank in range(1, len(labels) + 1):
        if labels[rank - 1] == relevant:
            seen += 1
            acc += seen / rank
    return acc / total


def dcg_oracle(labels, k, exponential=False):
    total = 0.0
    for rank in range(1, min(k, len(labels)) + 1):
        label = labels[rank - 1]
        g = (2 ** label - 1) if exponential else label
        total += g / math.log2(rank + 1)
    return total


def ndcg_oracle(labels, pool_labels, k, exponential=False):
    ideal = sorted(pool_labels, reverse=True)
    idcg = dcg_oracle(ideal, k, exponential)
    if idcg == 0:
        return 0.0
    return dcg_oracle(labels, k, exponential) / idcg


# --- contrastive loss -----------------------------------------------------

def filtered_loss_oracle(sim, mask, temperature):
    """Loss and gradient with masked entries physically removed per row.

    sim is a list of lists; mask is a list of lists of bool (or None).
    Returns (loss, grad) with grad as a list of lists; masked positions get
    a literal 0.0 entry because they are absent from the reduced problem.
    """
    n = len(sim)
    loss = 0.0
    grad = [[0.0] * n for _ in range(n)]
    for i in range(n):
        kept = [j for j in range(n) if j == i or mask is None or not mask[i][j]]
        logits = [sim[i][j] / temperature for j in kept]
        m = max(logits)
        exps = [math.exp(x - m) for x in logits]
        z = sum(exps)
        probs = [e / z for e in exps]
        pos = kept.index(i)
        loss += -(math.log(exps[pos] / z))
        for idx, j in enumerate(kept):
            delta = 1.0 if j == i else 0.0
            grad[i][j] = (probs[idx] - delta) / (n * temperature)
    return loss / n, grad


def fd_gradient(fn, sim, eps=1e-5):
    """Central finite differences of a scalar function of a square matrix."""
    n = len(sim)
    grad = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            up = [row[:] for row in sim]
            down = [row[:] for row in sim]
            up[i][j] += eps
            down[i][j] -= eps
            grad[i][j] = (fn(up) - fn(down)) / (2 * eps)
    return grad


# --- geometry -------------------------------------------------------------

def cosine_oracle(q, c):
    """Double-loop cosine matrix over lists of vectors."""
    out = []
    for qi in q:
        row = []
        nq = math.sqrt(sum(x * x for x in qi))
        for cj in c:
            nc = math.sqrt(sum(x * x for x in cj))
            dot = sum(a * b for a, b in zip(qi, cj))
            row.append(dot / (nq * nc))
        out.append(row)
    return out


# --- BM25 -----------------------------------------------------------------

def char_bigrams_oracle(text):
    """Bigrams over the characters that ``str.isspace`` does not reject."""
    chars = [c for c in text if not c.isspace()]
    if len(chars) < 2:
        return ["".join(chars)] if chars else []
    return ["".join(chars[i:i + 2]) for i in range(len(chars) - 1)]


def bm25_build_oracle(corpus, tokenizer_name="char_bigram"):
    """``Bm25Index.build`` as a plain counting loop over dicts, each document
    keeping its own token strings.

    Returns ``(term_freqs, doc_lens, doc_freq)``: documents in sorted id
    order, terms in order of first occurrence.
    """
    from lexforge.retrieval import TOKENIZERS

    tokenize = TOKENIZERS[tokenizer_name]
    term_freqs, doc_lens, doc_freq = {}, {}, {}
    for doc_id in sorted(corpus):
        tokens = tokenize(corpus[doc_id])
        tf = {}
        for token in tokens:
            tf[token] = tf.get(token, 0) + 1
        for term in tf:
            doc_freq[term] = doc_freq.get(term, 0) + 1
        term_freqs[doc_id] = tf
        doc_lens[doc_id] = len(tokens)
    return term_freqs, doc_lens, doc_freq


def bm25_oracle(query_tokens, doc_tokens_by_id, doc_id, k1, b):
    """Direct evaluation of the scoring formula over tokenized docs."""
    n = len(doc_tokens_by_id)
    avgdl = sum(len(t) for t in doc_tokens_by_id.values()) / n
    doc = doc_tokens_by_id[doc_id]
    dl = len(doc)
    score = 0.0
    for term in query_tokens:
        tf = sum(1 for t in doc if t == term)
        if tf == 0:
            continue
        df = sum(1 for tokens in doc_tokens_by_id.values() if term in tokens)
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
    return score


def bm25_counter_oracle(query, pool, stats_docs, tokenizer_name, params):
    """Each candidate of ``pool`` with its BM25 score, in pool order, from
    ``Counter``s over the tokens of ``stats_docs`` (``{doc id: text}``: the
    documents the statistics are counted over, the pool's among them). A
    candidate's score is a sequential sum over the query's tokens of
    idf·tf·(k1+1) / (tf + k1·(1-b+b·|d|/avgdl)), with the terms it lacks left
    out."""
    from lexforge.retrieval import TOKENIZERS

    tokenize = TOKENIZERS[tokenizer_name]
    counts = {doc_id: Counter(tokenize(text)) for doc_id, text in stats_docs.items()}
    n = len(counts)
    total = sum(sum(tf.values()) for tf in counts.values())
    df = Counter(term for tf in counts.values() for term in tf)
    k1, b = params.k1, params.b
    scored = []
    for case_id in pool:
        tf = counts[case_id]
        score = 0.0
        for term in tokenize(query):
            if tf[term]:
                idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
                norm = k1 * (1.0 - b + b * sum(tf.values()) / (total / n))
                score += idf * tf[term] * (k1 + 1.0) / (tf[term] + norm)
        scored.append((case_id, score))
    return scored


# --- segmentation ---------------------------------------------------------

def window_oracle(length, max_len, stride):
    """Enumerate window start offsets one by one."""
    starts = [0]
    while starts[-1] + max_len < length:
        starts.append(starts[-1] + stride)
    return starts


def segment_count(length, cfg):
    """Closed-form window count: ceil((len - max_len)/stride) + 1 above max_len."""
    if length <= cfg.max_len:
        return 1
    return math.ceil((length - cfg.max_len) / cfg.step) + 1


# --- search runs ----------------------------------------------------------

def max_window_cosine_oracle(query_unit, case_id, text, embedder, cfg):
    """A candidate's dense score on its own: segment it, embed its windows,
    drop those of zero norm, scale the rest to unit norm and take the
    largest cosine with the unit query, clamped to [-1, 1]."""
    import numpy as np

    from lexforge.errors import ZeroVector
    from lexforge.retrieval import segment

    if not text:
        raise ZeroVector(f"case {case_id!r}: the text is empty")
    windows = segment(text, cfg)
    vectors = np.asarray(embedder.embed(windows), dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    unit = vectors[norms != 0.0] / norms[norms != 0.0, None]
    if not len(unit):
        raise ZeroVector(f"case {case_id!r}: all {len(windows)} segments embed to zero norm")
    return float(np.clip(unit @ query_unit, -1.0, 1.0).max())


def search_oracle(queries, texts, pools, *, scorer, k, bm25_params, index, embedder,
                  seg_cfg, pools_path):
    """A search run query by query, with nothing shared between queries.

    Each pool's BM25 statistics are counted anew by
    :func:`bm25_counter_oracle` (over ``texts`` of the documents of
    ``index`` when given, with its tokenizer), and every candidate's windows
    are embedded anew for every query (:func:`max_window_cosine_oracle`).
    Queries without a pool and pool ids missing from ``texts`` are skipped;
    a pool with none of its ids in ``texts`` ends the run, and so does a
    query or a candidate of zero norm, naming the query.
    """
    from lexforge.errors import EmptyCorpus, ZeroVector
    from lexforge.retrieval import unit_query

    run = {}
    for query_id, text in queries:
        if pools is None:
            pool = texts
        elif query_id not in pools:
            continue
        else:
            pool = {cid: texts[cid] for cid in pools[query_id] if cid in texts}
            if not pool:
                raise EmptyCorpus(f"{pools_path}: none of the {len(pools[query_id])} "
                                  f"pool ids of query {query_id!r} is in the corpus")
        if not pool:
            raise EmptyCorpus("no candidates to score")
        if scorer == "bm25":
            if index is None:
                scored = bm25_counter_oracle(text, pool, pool, "char_bigram", bm25_params)
            else:
                scored = bm25_counter_oracle(text, pool, {d: texts[d] for d in index.doc_ids},
                                             index.tokenizer_name, bm25_params)
        else:
            try:
                query_unit = unit_query(embedder.embed([text])[0])
                scored = [(cid, max_window_cosine_oracle(query_unit, cid, pool[cid], embedder,
                                                         seg_cfg))
                          for cid in pool]
            except ZeroVector as exc:
                raise ZeroVector(f"query {query_id!r}: {exc}") from None
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        run[query_id] = scored[:k]
    return run


# --- fixtures -------------------------------------------------------------

def qrels_oracle(build, seed, n_queries, pool_size=100, annotated_size=30):
    """Benchmark pools and labels with every membership test a list scan.

    The plain form of ``testkit.generate_qrels``: the same draws in the same
    order, so its output must match exactly.
    """
    from random import Random

    from lexforge.seeds import derive_seed
    from lexforge.testkit import agreement_label, terms_match

    elements = build.elements()
    valid_ids = sorted(elements)
    rng = Random(derive_seed(seed, "qrels"))
    source_ids = sorted(rng.sample(valid_ids, min(n_queries, len(valid_ids))))
    pools, labels = {}, {}
    for source_id in source_ids:
        query_rng = Random(derive_seed(seed, "pool", source_id))
        source = elements[source_id]
        same_main = [c for c in valid_ids if c != source_id
                     and elements[c].main_articles == source.main_articles]
        near = [c for c in valid_ids
                if terms_match(source.prison_term, elements[c].prison_term)]
        same_term = [c for c in same_main if c in near]
        diff_term = [c for c in same_main if c not in same_term]
        cross_main = [c for c in valid_ids if c != source_id and c not in same_main]
        cross_near = [c for c in cross_main if c in near]
        cross_far = [c for c in cross_main if c not in cross_near]
        annotated = [source_id]
        for pool, want in ((same_term, 12), (diff_term, 6), (cross_near, 6), (cross_far, None)):
            want = annotated_size - len(annotated) if want is None else want
            for c in query_rng.sample(pool, min(want, len(pool))):
                if c not in annotated:
                    annotated.append(c)
        for c in [c for c in cross_main if c not in annotated]:
            if len(annotated) >= annotated_size:
                break
            annotated.append(c)
        annotated = annotated[:annotated_size]
        rest = [c for c in valid_ids if c not in annotated]
        unannotated = query_rng.sample(rest, min(pool_size - len(annotated), len(rest)))
        pools[f"q-{source_id}"] = sorted(annotated + unannotated)
        labels[f"q-{source_id}"] = {
            c: agreement_label(source, elements[c]) for c in annotated}
    return pools, labels


def exclusion_oracle(build, spec):
    """``{case id: reason}`` the corpus filter must give each generated
    non-judgment of ``build``, generated from ``spec``. ``generate_corpus``
    appends them after the ``spec.n_cases`` judgments: the rulings, then the
    short facts, then the unextractable documents."""
    reasons = (["RULING"] * spec.n_rulings + ["SHORT_FACT"] * spec.n_short_facts
               + ["EXTRACTION_FAILED"] * spec.n_unextractable)
    extra = build.cases[spec.n_cases:]
    assert len(extra) == len(reasons)
    return {doc.case_id: reason for doc, reason in zip(extra, reasons)}


# --- augmentation ---------------------------------------------------------

def element_score_oracle(a, b, cfg):
    """Element similarity of two cases, evaluated per pair: the weighted mix
    of ancillary-article Jaccard and term similarity. The signature search
    must reproduce it bit for bit."""
    from lexforge.augment import _jaccard, term_similarity

    total = cfg.weight_ancillary + cfg.weight_term
    return (cfg.weight_ancillary * _jaccard(a.ancillary_articles, b.ancillary_articles)
            + cfg.weight_term * term_similarity(a.prison_term, b.prison_term)) / total


def augmented_positive_oracle(source_case_id, source, index, cfg):
    """The linear scan: score every candidate in turn, keep the best score
    and, among equal scores, the smallest case id."""
    from lexforge.errors import NoMatch

    if cfg.match_mode == "shared_charge":
        seen: set[str] = set()
        candidates = []
        for charge in sorted(source.charges):
            for entry in index.charge_bucket(charge):
                if entry.case_id not in seen:
                    seen.add(entry.case_id)
                    candidates.append(entry)
    else:
        candidates = index.bucket(source.main_articles)

    best_id = None
    best_score = -1.0
    for entry in candidates:
        if entry.case_id == source_case_id:
            continue
        score = element_score_oracle(source, entry.elements, cfg)
        if score > best_score or (score == best_score
                                  and best_id is not None
                                  and entry.case_id < best_id):
            best_id, best_score = entry.case_id, score
    if best_id is None:
        raise NoMatch(f"no distinct case shares main articles with {source_case_id!r}")
    return best_id


# --- file reading ---------------------------------------------------------

def lines_oracle(path, data):
    """The (line number, text) of each line of ``data`` before the first
    that is not UTF-8, each line's bytes decoded on their own, and the
    MalformedRecord message for that line (None if every line decodes),
    which names its first bad byte, counting from 1."""
    pieces = data.split(b"\n")
    if pieces[-1] == b"":
        pieces.pop()
    out = []
    for lineno, raw in enumerate(pieces, start=1):
        try:
            out.append((lineno, raw.decode("utf-8")))
        except UnicodeDecodeError as exc:
            return out, f"{path}:{lineno}: not UTF-8 at byte {exc.start + 1}"
    return out, None


# --- training fast paths --------------------------------------------------

def features_oracle(text, hash_buckets, ngram_min, ngram_max):
    """Hashed n-gram features with one dict update per n-gram, buckets in
    order of first occurrence."""
    import zlib

    import numpy as np

    compact = "".join(text.split())
    counts = {}
    for n in range(ngram_min, ngram_max + 1):
        for i in range(len(compact) - n + 1):
            bucket = zlib.crc32(compact[i:i + n].encode("utf-8")) % hash_buckets
            counts[bucket] = counts.get(bucket, 0) + 1
    idx = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    raw = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    return idx, 1.0 + np.log(raw)


def init_oracle(hash_buckets, dim, seed, rows):
    """Rows of the seeded init, one value at a time in Python ints: value
    k, at row ``k // dim`` and column ``k % dim``, is SplitMix64's
    finalizer over ``seed + (k + 1) * 0x9E3779B97F4A7C15`` mod 2**64, and
    its top 53 bits times 2**-53, times ``span``, plus ``low``."""
    import numpy as np

    mask = (1 << 64) - 1
    scale = 1.0 / math.sqrt(hash_buckets)
    low, span = -scale, scale - -scale
    out = []
    for row in rows:
        for col in range(dim):
            z = (seed + (int(row) * dim + col + 1) * 0x9E3779B97F4A7C15) & mask
            z ^= z >> 30
            z = z * 0xBF58476D1CE4E5B9 & mask
            z ^= z >> 27
            z = z * 0x94D049BB133111EB & mask
            z ^= z >> 31
            out.append(low + span * ((z >> 11) * 2.0 ** -53))
    return np.array(out, dtype=np.float64).reshape(len(rows), dim)


def embed_oracle(embedder, text):
    """The plain embedding of one text: ``values @ weights[idx]`` of its
    :func:`features_oracle`, or zeros for a text with no n-gram."""
    import numpy as np

    idx, values = features_oracle(text, embedder.hash_buckets, embedder.ngram_min,
                                  embedder.ngram_max)
    return values @ embedder.weights[idx] if idx.size else np.zeros(embedder.dim)


def false_negative_mask_oracle(positive_charges):
    """The masking rule as a double loop over pairs of charge sets."""
    import numpy as np

    sets = [frozenset(s) for s in positive_charges]
    n = len(sets)
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j:
                mask[i, j] = bool(sets[i] & sets[j])
    return mask


class AdamOracle:
    """Adam written as whole-array expressions, new arrays on every step."""

    def __init__(self, shape, beta1=0.9, beta2=0.999, eps=1e-8):
        import numpy as np

        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def step(self, params, grad, lr):
        import numpy as np

        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        params -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def dense_gradient(rows, grad_rows, shape):
    """A row-sparse gradient as the full array: ``grad_rows[i]`` in row
    ``rows[i]``, +0.0 in every other row."""
    import numpy as np

    dense = np.zeros(shape)
    dense[rows] = grad_rows
    return dense


def training_set(pairs, embedder):
    """A ``TrainingSet`` of ``(query text, positive text, positive
    charges)`` pairs, featurized by ``embedder``: each distinct text in
    one slot of one store and each distinct charge set kept once, both in
    order of first appearance."""
    from array import array

    from lexforge.training import FeatureStore, TrainingSet

    slots, charge_ids = {}, {}
    columns = (array("q"), array("q"), array("q"))
    for query, positive, charges in pairs:
        for column, ids, key in zip(columns, (slots, slots, charge_ids),
                                    (query, positive, frozenset(charges))):
            column.append(ids.setdefault(key, len(ids)))
    return TrainingSet(FeatureStore(embedder, slots), *columns, charge_ids)


def batch_gradient_oracle(embedder, pairs, cfg):
    """Loss and dL/dW of one batch of ``(query text, positive text,
    positive charges)`` pairs into a fresh ``zeros_like`` array, with every
    text featurized by ``features`` and again by ``embed``."""
    import numpy as np

    from lexforge.training import cosine_matrix, in_batch_loss

    queries = [query for query, _, _ in pairs]
    positives = [positive for _, positive, _ in pairs]
    q_feats = [embedder.features(t) for t in queries]
    c_feats = [embedder.features(t) for t in positives]
    q_vecs = embedder.embed(queries)
    c_vecs = embedder.embed(positives)
    sim = cosine_matrix(q_vecs, c_vecs)
    mask = (false_negative_mask_oracle([charges for _, _, charges in pairs])
            if cfg.masking_enabled else None)
    loss, grad_sim = in_batch_loss(sim, mask, cfg)
    qn = np.linalg.norm(q_vecs, axis=1, keepdims=True)
    cn = np.linalg.norm(c_vecs, axis=1, keepdims=True)
    q_unit = q_vecs / qn
    c_unit = c_vecs / cn
    d_q = (grad_sim @ c_unit - (grad_sim * sim).sum(axis=1, keepdims=True) * q_unit) / qn
    d_c = (grad_sim.T @ q_unit - (grad_sim * sim).sum(axis=0)[:, None] * c_unit) / cn
    return loss, scatter_oracle(embedder.weights.shape, q_feats + c_feats,
                                np.concatenate([d_q, d_c]))


def scatter_oracle(shape, feats, d_rows):
    """dL/dW into a fresh array of zeros: each text's features
    ``(idx, values)``, in order, add ``values[:, None] * d`` on rows
    ``idx``, ``d`` the text's row of ``d_rows``."""
    import numpy as np

    w_grad = np.zeros(shape)
    for (idx, values), row in zip(feats, d_rows):
        if idx.size:
            w_grad[idx] += values[:, None] * row
    return w_grad


def train_toy_oracle(pairs, embedder, schedule, loss_cfg):
    """The training loop over every weight row, with the oracle gradient and
    optimizer and a full finite scan of every gradient. Returns the loss
    curve."""
    from random import Random

    import numpy as np

    from lexforge.seeds import derive_seed
    from lexforge.training import _batches, lr_at

    total_steps = schedule.epochs * len(_batches(range(len(pairs)), schedule.batch_size))
    optimizer = AdamOracle(embedder.weights.shape)
    curve = []
    for epoch in range(schedule.epochs):
        order = list(range(len(pairs)))
        Random(derive_seed(schedule.seed, "shuffle", epoch)).shuffle(order)
        for chunk in _batches(order, schedule.batch_size):
            loss, w_grad = batch_gradient_oracle(embedder, [pairs[i] for i in chunk], loss_cfg)
            assert np.isfinite(loss) and np.isfinite(w_grad).all()
            optimizer.step(embedder.weights, w_grad, lr_at(len(curve), total_steps, schedule))
            curve.append((len(curve), loss))
    return curve


# --- anonymization --------------------------------------------------------

def name_starts_oracle(name, text):
    """Where ``re.finditer`` finds the escaped name: the person-name search
    the tagger ran before it searched with ``str.find``."""
    return [m.start() for m in re.finditer(re.escape(name), text)]


def surrogate_draw_oracle(pools, category, rng, forbidden):
    """The plain draw: every pool member tested against every forbidden
    surface on every draw, then the numbered placeholder."""
    def clear(surrogate):
        return not any(surface in surrogate for surface in forbidden)

    candidates = [s for s in pools.get(category, []) if clear(s)]
    if candidates:
        return rng.choice(candidates)
    base = {"person": "某乙", "company": "某单位", "location": "某地",
            "time": "某年某月"}.get(category, "某")
    if not clear(base):
        raise ValueError(f"every {category} placeholder contains a tagged surface")
    n = 1
    while not clear(f"{base}{n}"):
        n += 1
    return f"{base}{n}"


# --- seeds ----------------------------------------------------------------

def derive_seed_oracle(root, *labels):
    """The child seed from ``hashlib``'s SHA-256 of the joined label path."""
    import hashlib

    material = ":".join([str(int(root)), *(str(x) for x in labels)])
    return int.from_bytes(hashlib.sha256(material.encode("utf-8")).digest()[:8], "little")
