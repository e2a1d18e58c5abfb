"""Correctness checks on a run's outputs, made after the timed rounds.

Each check recomputes what a stage should have produced, by code written
here apart from the code under test, or tests a property the method must
have. Only the planted entities come from lexforge itself: the fixture
generator (``testkit``) is the source of truth for what it planted.
``check_all`` returns one line per failure; an empty list means correct.
"""

from __future__ import annotations

import configparser
import json
import math
import random
import struct
import sys
import zlib
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import PROPORTION, SEARCHES

MAX_QUERY_CHARS = 400
MIN_FACT_CHARS = 100
WEIGHT_ANCILLARY = WEIGHT_TERM = 0.5
TERM_DECAY_MONTHS = 24.0
MONTH_BEARING = {"fixed_term", "detention", "control"}
K1, B = 1.2, 0.75
TOP_K = 30
#: Queries per run whose scores are recomputed, and augmented pairs rescanned.
SAMPLED_QUERIES = 5
SAMPLED_PAIRS = 100
SCORE_TOL = 1e-9
NDCG_TOL = 1e-12


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def case_text(record: dict) -> str:
    return "\n".join(p for p in (record["fact"], record["reason"], record["judgment"]) if p)


class Outputs:
    """The artifacts of one run, loaded once."""

    def __init__(self, workload, seed: int, data: Path):
        self.workload, self.seed, self.data = workload, seed, data
        self.notes: dict[str, int] = {}
        self.corpus = {r["case_id"]: r for r in _jsonl(data / "corpus.jsonl")}
        self.truth = _jsonl(data / "truth.jsonl")
        self.elements = _jsonl(data / "elements.jsonl")
        self.exclusions = _jsonl(data / "exclusions.jsonl")
        self.queries = _jsonl(data / "queries.jsonl")
        self.pairs = _jsonl(data / "pairs.jsonl")
        self.eval_queries = {r["query_id"]: r["text"] for r in _jsonl(data / "eval_queries.jsonl")}
        self.pools = {r["query_id"]: r["candidate_ids"] for r in _jsonl(data / "pools.jsonl")}
        self.qrels: dict[str, dict[str, int]] = {}
        for r in _jsonl(data / "qrels.jsonl"):
            self.qrels.setdefault(r["query_id"], {})[r["case_id"]] = r["label"]
        ini = configparser.ConfigParser()
        ini.read_string(workload.config)
        self.max_len = ini.getint("segment", "max_len", fallback=2048)
        self.stride = ini.getint("segment", "stride", fallback=self.max_len)

    def run(self, scorer: str) -> dict[str, list[dict]]:
        rows: dict[str, list[dict]] = {}
        for r in _jsonl(self.data / f"run_{scorer}.jsonl"):
            rows.setdefault(r["query_id"], []).append(r)
        return rows


# --------------------------------------------------------------------------
# extract, synthesize, augment, train
# --------------------------------------------------------------------------

def check_extract(o: Outputs) -> list[str]:
    failures = []
    key = lambda r: r["case_id"]  # noqa: E731
    if sorted(o.elements, key=key) != sorted(o.truth, key=key):
        failures.append("extract: elements.jsonl differs from truth.jsonl")
    planted: dict[str, set[str]] = {"RULING": set(), "SHORT_FACT": set()}
    for cid, record in o.corpus.items():
        if record["doc_kind"] == "ruling":
            planted["RULING"].add(cid)
        elif len(record["fact"]) < MIN_FACT_CHARS:
            planted["SHORT_FACT"].add(cid)
    expected = {"RULING": o.workload.n_rulings, "SHORT_FACT": o.workload.n_short_facts}
    got: dict[str, set[str]] = {}
    for r in o.exclusions:
        got.setdefault(r["reason"], set()).add(r["case_id"])
    for reason in sorted(set(planted) | set(got)):
        ids = got.get(reason, set())
        if ids != planted.get(reason, set()) or len(ids) != expected.get(reason, 0):
            failures.append(f"extract: {len(ids)} {reason} exclusions, "
                            f"{expected.get(reason, 0)} planted")
    return failures


def _planted_entities(o: Outputs) -> dict[str, list[str]]:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from lexforge import testkit

    w = o.workload
    build = testkit.generate_corpus(testkit.SyntheticSpec(
        n_cases=w.n_cases, charge_count=w.charges, n_rulings=w.n_rulings,
        n_short_facts=w.n_short_facts, min_fact_chars=MIN_FACT_CHARS, seed=o.seed))
    return {cid: [s for surfaces in t.entities.values() for s in surfaces]
            for cid, t in build.truth.items()}


def check_synthesize(o: Outputs) -> list[str]:
    failures = []
    sources = Counter(q["source_case_id"] for q in o.queries)
    admitted = {r["case_id"] for r in o.elements}
    if set(sources) != admitted or max(sources.values()) != 1:
        failures.append(f"synthesize: {len(o.queries)} queries for {len(admitted)} "
                        f"admitted cases")
    too_long = sum(1 for q in o.queries if len(q["text"]) > MAX_QUERY_CHARS)
    if too_long:
        failures.append(f"synthesize: {too_long} queries longer than {MAX_QUERY_CHARS}")
    entities = _planted_entities(o)
    leaks, inside = [], 0
    for q in o.queries:
        outside = q["text"]
        for entry in q["anonymization_log"]:
            outside = outside.replace(entry["replacement"], "\0")
        for s in entities[q["source_case_id"]]:
            if s in outside:
                leaks.append((q["query_id"], s))
            elif s in q["text"]:
                inside += 1
    # A surrogate that contains the surface it replaces (吴志 -> 吴志成) is a
    # known anonymization fault on some seeds only (see CHANGES.md); it is
    # counted here rather than failed, so the rest of the check still holds.
    o.notes["planted_entities_inside_surrogates"] = inside
    if leaks:
        failures.append(f"synthesize: {len(leaks)} planted entities survive, "
                        f"first {leaks[0]}")
    return failures


def _term_similarity(a: dict, b: dict) -> float:
    if a["kind"] == b["kind"]:
        if a["kind"] in MONTH_BEARING:
            return math.exp(-abs(a["months"] - b["months"]) / TERM_DECAY_MONTHS)
        return 1.0
    return 0.25 if {a["kind"], b["kind"]} == {"death", "life"} else 0.0


def _element_score(a: dict, b: dict) -> float:
    anc_a, anc_b = set(a["ancillary_articles"]), set(b["ancillary_articles"])
    jaccard = len(anc_a & anc_b) / len(anc_a | anc_b) if anc_a or anc_b else 1.0
    return ((WEIGHT_ANCILLARY * jaccard + WEIGHT_TERM * _term_similarity(a["term"], b["term"]))
            / (WEIGHT_ANCILLARY + WEIGHT_TERM))


def check_augment(o: Outputs) -> list[str]:
    failures = []
    n = len(o.queries)
    if [p["query_id"] for p in o.pairs] != [q["query_id"] for q in o.queries]:
        failures.append(f"augment: {len(o.pairs)} pairs do not match {n} queries one to one")
    augmented = [p for p in o.pairs if p["kind"] == "augmented"]
    fallbacks = sum(1 for p in o.pairs if p["fallback"])
    target = math.floor(Fraction(str(PROPORTION)) * n)
    if len(augmented) != target - fallbacks:
        failures.append(f"augment: {len(augmented)} augmented, expected "
                        f"floor({PROPORTION}*{n}) - {fallbacks} fallbacks = {target - fallbacks}")

    elements = {r["case_id"]: r for r in o.elements}
    source = {q["query_id"]: q["source_case_id"] for q in o.queries}
    for pair in random.Random(o.seed).sample(augmented, min(SAMPLED_PAIRS, len(augmented))):
        src, pos = source[pair["query_id"]], pair["positive_case_id"]
        main = elements[src]["main_articles"]
        scores = {cid: _element_score(elements[src], e) for cid, e in elements.items()
                  if cid != src and e["main_articles"] == main}
        best = max(scores.values(), default=None)
        winner = min((c for c, s in scores.items() if s >= best - 1e-12), default=None)
        if pos == src or elements[pos]["main_articles"] != main or pos != winner:
            failures.append(f"augment: {pair['query_id']} positive {pos}, "
                            f"brute-force scan picks {winner}")
            break
    return failures


def check_train(o: Outputs) -> list[str]:
    w = o.workload
    losses = [float(line.split("\t")[1])
              for line in (o.data / "loss.tsv").read_text(encoding="utf-8").splitlines()]
    n = len(o.pairs)
    per_epoch = n // w.batch_size + (1 if n % w.batch_size >= 2 else 0)
    if len(losses) != w.epochs * per_epoch:
        return [f"train: {len(losses)} steps, expected {w.epochs} x {per_epoch}"]
    if not all(math.isfinite(x) for x in losses):
        return ["train: non-finite loss"]
    first = sum(losses[:per_epoch]) / per_epoch
    last = sum(losses[-per_epoch:]) / per_epoch
    if not last < first:
        return [f"train: last epoch mean loss {last:.6f} not below first {first:.6f}"]
    return []


# --------------------------------------------------------------------------
# search and eval
# --------------------------------------------------------------------------

def bigrams(text: str) -> list[str]:
    chars = [c for c in text if not c.isspace()]
    if len(chars) < 2:
        return ["".join(chars)] if chars else []
    return [chars[i] + chars[i + 1] for i in range(len(chars) - 1)]


def term_stats(texts: Iterable[str], terms: set[str]) -> tuple[int, float, Counter]:
    """Document count, mean length and document frequency of the given terms."""
    n_docs, total, df = 0, 0, Counter()
    for text in texts:
        toks = bigrams(text)
        n_docs += 1
        total += len(toks)
        df.update(terms.intersection(toks))
    return n_docs, total / n_docs, df


def bm25_scores(query: str, docs: dict[str, str],
                stats: tuple[int, float, Counter]) -> dict[str, float]:
    """Sum over query bigrams of idf * tf*(k1+1) / (tf + k1*(1-b+b*|d|/avgdl))."""
    n_docs, avgdl, df = stats
    terms = bigrams(query)
    idf = {t: math.log(1.0 + (n_docs - df[t] + 0.5) / (df[t] + 0.5)) if df[t] else 0.0
           for t in terms}
    scores = {}
    for cid, text in docs.items():
        toks = bigrams(text)
        tf = Counter(toks)
        norm = K1 * (1.0 - B + B * len(toks) / avgdl)
        scores[cid] = sum(idf[t] * tf[t] * (K1 + 1.0) / (tf[t] + norm)
                          for t in terms if tf[t])
    return scores


class Checkpoint:
    """The README's checkpoint layout: magic, <IIIIIq> header, float64 weights."""

    def __init__(self, path: Path):
        blob = path.read_bytes()
        if blob[:8] != b"LXTOYEMB":
            raise ValueError(f"{path}: bad magic")
        _, self.buckets, dim, self.nmin, self.nmax, _ = struct.unpack_from("<IIIIIq", blob, 8)
        self.weights = np.frombuffer(blob, dtype="<f8", offset=8 + 28).reshape(
            self.buckets, dim)

    def embed(self, text: str) -> np.ndarray:
        """CRC32-hashed character n-grams, log-damped counts, linear map."""
        compact = "".join(c for c in text if not c.isspace())
        counts: Counter = Counter()
        for n in range(self.nmin, self.nmax + 1):
            for i in range(len(compact) - n + 1):
                counts[zlib.crc32(compact[i:i + n].encode("utf-8")) % self.buckets] += 1
        idx = np.fromiter(counts.keys(), dtype=np.int64)
        values = 1.0 + np.log(np.fromiter(counts.values(), dtype=np.float64))
        return values @ self.weights[idx]


def windows(text: str, max_len: int, stride: int) -> list[str]:
    starts = [0]
    while starts[-1] + max_len < len(text):
        starts.append(starts[-1] + stride)
    return [text[s:s + max_len] for s in starts]


def dense_scores(query: str, docs: dict[str, str], ckpt: Checkpoint,
                 max_len: int, stride: int) -> dict[str, float]:
    q = ckpt.embed(query)
    q = q / np.linalg.norm(q)
    scores = {}
    for cid, text in docs.items():
        best = -1.0
        for window in windows(text, max_len, stride):
            v = ckpt.embed(window)
            best = max(best, float(np.clip(v @ q / np.linalg.norm(v), -1.0, 1.0)))
        scores[cid] = best
    return scores


def check_search(o: Outputs) -> list[str]:
    failures = []
    texts = {cid: case_text(r) for cid, r in o.corpus.items()}
    ckpt = Checkpoint(o.data / "toy.ckpt")
    sampled = random.Random(o.seed).sample(sorted(o.eval_queries),
                                           min(SAMPLED_QUERIES, len(o.eval_queries)))
    corpus_stats = term_stats(texts.values(),
                              {t for q in sampled for t in bigrams(o.eval_queries[q])})
    for scorer in SEARCHES:
        run = o.run(scorer)
        if set(run) != set(o.eval_queries):
            failures.append(f"search {scorer}: {len(run)} of {len(o.eval_queries)} queries")
            continue
        for qid, rows in run.items():
            pool = o.pools[qid]
            ids = [r["case_id"] for r in rows]
            order = sorted(rows, key=lambda r: (-r["score"], r["case_id"]))
            if (not set(ids) <= set(pool) or len(rows) != min(TOP_K, len(pool))
                    or order != rows or [r["rank"] for r in rows] != list(range(1, len(rows) + 1))):
                failures.append(f"search {scorer}: {qid} rows are not the pool's "
                                f"top {TOP_K} by score, then id")
                break
        for qid in sampled:
            docs = {cid: texts[cid] for cid in o.pools[qid]}
            if scorer == "bm25":
                expected = bm25_scores(o.eval_queries[qid], docs, term_stats(
                    docs.values(), set(bigrams(o.eval_queries[qid]))))
            elif scorer == "bm25_index":
                expected = bm25_scores(o.eval_queries[qid], docs, corpus_stats)
            else:
                expected = dense_scores(o.eval_queries[qid], docs, ckpt, o.max_len, o.stride)
            rows = run[qid]
            worst = max(abs(r["score"] - expected[r["case_id"]]) / max(1.0, abs(r["score"]))
                        for r in rows)
            left_out = max((s for c, s in expected.items()
                            if c not in {r["case_id"] for r in rows}), default=-math.inf)
            if worst > SCORE_TOL or left_out > rows[-1]["score"] + SCORE_TOL:
                failures.append(f"search {scorer}: {qid} scores off by {worst:.3g} "
                                f"from the recomputed formula")
    return failures


def ndcg10(ranked: list[str], judged: dict[str, int]) -> float:
    labels = [judged[c] for c in ranked if c in judged]
    dcg = sum(g / math.log2(i + 2) for i, g in enumerate(labels[:10]))
    ideal = sum(g / math.log2(i + 2)
                for i, g in enumerate(sorted(judged.values(), reverse=True)[:10]))
    return dcg / ideal if ideal else 0.0


def check_eval(o: Outputs) -> list[str]:
    failures = []
    for scorer in SEARCHES:
        run = o.run(scorer)
        common = sorted(set(run) & set(o.qrels))
        expected = sum(ndcg10([r["case_id"] for r in sorted(run[q], key=lambda r: r["rank"])],
                              o.qrels[q]) for q in common) / len(common)
        got = json.loads((o.data / f"metrics_{scorer}.json").read_text(encoding="utf-8"))
        value = got["macro"]["NDCG@10"]
        if abs(value - expected) > NDCG_TOL or len(got["per_query"]) != len(common):
            failures.append(f"eval {scorer}: NDCG@10 {value!r}, recomputed {expected!r}")
    return failures


def check_all(workload, seed: int, data: Path) -> tuple[list[str], dict[str, int]]:
    """Failures of every check, and counts worth recording that are not failures."""
    o = Outputs(workload, seed, data)
    failures = []
    for check in (check_extract, check_synthesize, check_augment, check_train,
                  check_search, check_eval):
        failures += check(o)
    return failures, o.notes
