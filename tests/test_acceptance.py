"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here; the oracles live in ``oracles.py`` and
re-derive every expected value independently of the library code paths.
"""

import random
import statistics
import time

import numpy as np
import pytest

from lexforge import (
    augment,
    corpus,
    evaluation,
    querygen,
    retrieval,
    testkit,
    training,
)
from lexforge.seeds import derive_seed

from oracles import (
    ap_oracle,
    bm25_oracle,
    element_score_oracle,
    exclusion_oracle,
    filtered_loss_oracle,
    fd_gradient,
    ndcg_oracle,
    precision_oracle,
    segment_count,
    training_set,
    window_oracle,
)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


CORPUS_1000 = testkit.SyntheticSpec(n_cases=1000, n_rulings=50, n_short_facts=30, seed=7)


@pytest.fixture(scope="module")
def corpus_1000():
    return testkit.generate_corpus(CORPUS_1000)


def test_metric_oracle_equivalence():
    """P@{5,10}, MAP, NDCG@{10,20,30} match brute force on 1000 instances."""
    rng = random.Random(2024)
    started = time.time()
    worst = 0.0
    for trial in range(1000):
        pool_size = rng.randint(1, 30)
        judged = {f"t{trial}-c{i}": rng.randint(0, 3) for i in range(pool_size)}
        ranking = list(judged) + [f"t{trial}-x{i}" for i in range(rng.randint(0, 10))]
        rng.shuffle(ranking)
        run = {"q": [(cid, float(len(ranking) - i)) for i, cid in enumerate(ranking)]}
        result = evaluation.evaluate_run(run, {"q": judged})
        metrics = result.per_query["q"]

        kept = [c for c in ranking if c in judged]
        labels = [judged[c] for c in kept]
        pool_labels = list(judged.values())
        expected = {
            "P@5": precision_oracle(labels, 5),
            "P@10": precision_oracle(labels, 10),
            "MAP": ap_oracle(labels, pool_labels),
            "NDCG@10": ndcg_oracle(labels, pool_labels, 10),
            "NDCG@20": ndcg_oracle(labels, pool_labels, 20),
            "NDCG@30": ndcg_oracle(labels, pool_labels, 30),
        }
        for name, value in expected.items():
            worst = max(worst, abs(metrics[name] - value))
            assert abs(metrics[name] - value) <= 1e-9, (trial, name)
    elapsed = time.time() - started
    report("metric oracle equivalence", worst <= 1e-9 and elapsed < 10.0,
           f"max |Δ|={worst:.2e}, {elapsed:.1f}s")


def test_masking_equivalence():
    """Surrogate masking equals physically filtered negative sets, 1e-9."""
    rng = np.random.default_rng(77)
    charge_pool = ["盗窃罪", "诈骗罪", "抢劫罪", "故意伤害罪", "危险驾驶罪"]
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        sim = rng.uniform(-1.0, 1.0, size=(n, n))
        charges = [frozenset(rng.choice(charge_pool,
                                        size=int(rng.integers(1, 3)),
                                        replace=False))
                   for _ in range(n)]
        mask = training.false_negative_mask(charges)
        tau = float(rng.choice([0.2, 0.7, 1.0]))
        cfg = training.LossConfig(temperature=tau)
        loss, grad = training.in_batch_loss(sim, mask, cfg)
        ref_loss, ref_grad = filtered_loss_oracle(sim.tolist(), mask.tolist(), tau)
        worst = max(worst, abs(loss - ref_loss),
                    float(np.abs(grad - np.array(ref_grad)).max()))
        assert abs(loss - ref_loss) <= 1e-9
        assert np.abs(grad - np.array(ref_grad)).max() <= 1e-9
        assert np.all(grad[mask] == 0.0)
    report("masking equivalence", worst <= 1e-9, f"max |Δ|={worst:.2e}")


def test_gradient_check():
    """Analytic gradient vs central differences (ε=1e-5), rel err < 1e-6."""
    rng = np.random.default_rng(88)
    worst = 0.0
    for tau in (0.2, 1.0):
        cfg = training.LossConfig(temperature=tau)
        for _ in range(100):
            sim = rng.uniform(-1.0, 1.0, size=(8, 8))
            _, grad = training.in_batch_loss(sim, None, cfg)
            fd = np.array(fd_gradient(
                lambda m: training.in_batch_loss(np.array(m), None, cfg)[0],
                sim.tolist(), eps=1e-5))
            rel = float(np.linalg.norm(grad - fd) / np.linalg.norm(fd))
            worst = max(worst, rel)
            assert rel < 1e-6
    report("gradient check", worst < 1e-6, f"max rel err={worst:.2e}")


def test_augmentation_exactness(corpus_1000):
    """Augmented positives: exact main match, distinct, similarity-maximal;
    mixing hits ⌊p·N⌋ exactly for the ablation grid."""
    elements = corpus_1000.elements()
    assert len(elements) == 1000
    index = augment.build_element_index(elements)
    cfg = augment.AugmentConfig(proportion_augmented=1.0, seed=13)
    queries = [querygen.QueryRecord(f"q-{cid}", cid, "x", "offline_template", [], [])
               for cid in sorted(elements)]
    result = augment.mix_pairs(queries, elements, index, cfg)

    violations = 0
    for pair in result.pairs:
        if pair.kind != augment.PAIR_AUGMENTED:
            violations += 1
            continue
        source_id = pair.query_id[2:]
        source = elements[source_id]
        positive = elements[pair.positive_case_id]
        if pair.positive_case_id == source_id:
            violations += 1
        if positive.main_articles != source.main_articles:
            violations += 1
        best = element_score_oracle(source, positive, cfg)
        for entry in index.bucket(source.main_articles):
            if entry.case_id == source_id:
                continue
            score = element_score_oracle(source, entry.elements, cfg)
            if score > best + 1e-12:
                violations += 1
                break

    counts_ok = True
    for p in (0.0, 0.35, 0.7, 1.0):
        mixed = augment.mix_pairs(
            queries, elements, index,
            augment.AugmentConfig(proportion_augmented=p, seed=13))
        if mixed.augmented_count != int(p * len(queries)):
            counts_ok = False
    report("augmentation exactness", violations == 0 and counts_ok,
           f"{violations} violations over {len(result.pairs)} pairs")


def test_extraction_inversion(corpus_1000):
    """Extraction recovers ground truth on 1000 cases; exclusions tagged."""
    exclusions = []
    admitted = dict()
    for doc, elements in corpus.filter_corpus(corpus_1000.cases,
                                              on_exclude=exclusions.append):
        admitted[doc.case_id] = elements

    mismatches = 0
    for case_id, truth in corpus_1000.truth.items():
        if truth.elements is None:
            continue
        got = admitted.get(case_id)
        if got != truth.elements:
            mismatches += 1

    exclusion_ok = len(exclusions) == 80
    expected = exclusion_oracle(corpus_1000, CORPUS_1000)
    for exclusion in exclusions:
        if exclusion.reason != expected[exclusion.case_id]:
            exclusion_ok = False
    report("extraction inversion",
           mismatches == 0 and len(admitted) == 1000 and exclusion_ok,
           f"{len(admitted)} admitted, {len(exclusions)} excluded, "
           f"{mismatches} mismatches")


def test_truncation_scoring():
    """The dense score equals the per-segment max (1e-12); window counts are
    closed-form."""
    rng = np.random.default_rng(31)
    embedder = training.ToyEmbedder(dim=16, hash_buckets=1 << 11, seed=5)
    alphabet = list("被告人盗窃抢劫诈骗驾驶伤害财物现场鉴定价值人民币元某市区年月日一二三四五六七八九十")
    worst = 0.0
    for _ in range(500):
        length = int(rng.integers(30, 600))
        text = "".join(rng.choice(alphabet, size=length))
        query = "".join(rng.choice(alphabet, size=int(rng.integers(6, 20))))
        max_len = int(rng.integers(10, 120))
        stride = int(rng.integers(1, max_len + 1))
        cfg = retrieval.SegmentConfig(max_len=max_len, stride=stride)
        query_vec = embedder.embed([query])[0]
        pool = {"c": text}
        scorer = retrieval.DenseScorer([(query, pool)], embedder, cfg)
        got = scorer.score(query, pool)[0][1]
        qn = np.linalg.norm(query_vec)
        best = -2.0
        for seg in retrieval.segment(text, cfg):
            vec = embedder.embed([seg])[0]
            best = max(best, float(vec @ query_vec / (np.linalg.norm(vec) * qn)))
        worst = max(worst, abs(got - best))
        assert abs(got - best) <= 1e-12

    windows_ok = True
    rng2 = random.Random(32)
    for _ in range(50):
        length = rng2.randint(1, 5000)
        max_len = rng2.randint(1, 300)
        stride = rng2.randint(1, max_len)
        cfg = retrieval.SegmentConfig(max_len=max_len, stride=stride)
        n_windows = len(window_oracle(length, max_len, stride))
        if (segment_count(length, cfg) != n_windows
                or len(retrieval.segment("x" * length, cfg)) != n_windows):
            windows_ok = False
    report("truncation scoring", worst <= 1e-12 and windows_ok,
           f"max |Δ|={worst:.2e}")


# Desk-scale trend experiment: a 2000-case fixture with 50 evaluation
# queries. The softmax temperature is sharpened so that in-batch hard
# negatives actually carry gradient at this scale.
TREND_FIXTURE_SEED = 100
TREND_SEEDS = (1, 2, 3)
TREND_DIM = 64
TREND_BUCKETS = 1 << 14
TREND_EPOCHS = 12
TREND_BATCH = 32
TREND_LEARNING_RATE = 1e-2
TREND_TEMPERATURE = 0.35
TREND_TRAIN_QUERIES = 500


@pytest.fixture(scope="module")
def trend_world():
    started = time.time()
    spec = testkit.SyntheticSpec(n_cases=2000, seed=TREND_FIXTURE_SEED)
    build = testkit.generate_corpus(spec)
    elements = build.elements()
    docs = {d.case_id: d for d in build.cases}
    texts = {cid: corpus.case_text(d) for cid, d in docs.items()}
    qrels_build = testkit.generate_qrels(build, seed=TREND_FIXTURE_SEED,
                                         n_queries=50)
    client = querygen.OfflineTemplateClient()
    eval_queries = {
        qid: querygen.generate_query(
            docs[src], client,
            seed=derive_seed(TREND_FIXTURE_SEED, "evalq", src)).text
        for qid, src in sorted(qrels_build.sources.items())}
    train_queries = [
        querygen.generate_query(
            docs[cid], client,
            seed=derive_seed(TREND_FIXTURE_SEED, "trainq", cid))
        for cid in sorted(elements)[:TREND_TRAIN_QUERIES]]
    index = augment.build_element_index(elements)
    return {
        "started": started,
        "elements": elements,
        "texts": texts,
        "qrels": qrels_build.labels,
        "pools": qrels_build.pools,
        "eval_queries": eval_queries,
        "train_queries": train_queries,
        "index": index,
    }


def _trend_ndcg10(world, embedder):
    pairs = {qid: (world["eval_queries"][qid],
                   {cid: world["texts"][cid] for cid in world["pools"][qid]})
             for qid in sorted(world["qrels"])}
    scorer = retrieval.DenseScorer(list(pairs.values()), embedder)
    run = {qid: retrieval.search(query, pool, scorer, k=30)
           for qid, (query, pool) in pairs.items()}
    return evaluation.evaluate_run(run, world["qrels"]).macro["NDCG@10"]


def _trend_train(world, proportion, masking, seed):
    mix = augment.mix_pairs(
        world["train_queries"], world["elements"], world["index"],
        augment.AugmentConfig(proportion_augmented=proportion, seed=seed))
    by_id = {q.query_id: q for q in world["train_queries"]}
    embedder = training.ToyEmbedder(dim=TREND_DIM, hash_buckets=TREND_BUCKETS,
                                    seed=seed)
    data = training_set([(by_id[p.query_id].text, world["texts"][p.positive_case_id],
                          p.positive_charges) for p in mix.pairs], embedder)
    schedule = training.TrainSchedule(
        epochs=TREND_EPOCHS, batch_size=TREND_BATCH,
        learning_rate=TREND_LEARNING_RATE, seed=seed)
    cfg = training.LossConfig(temperature=TREND_TEMPERATURE,
                              masking_enabled=masking)
    training.train_toy(data, embedder, schedule, cfg)
    return embedder


@pytest.fixture(scope="module")
def trend_scores(trend_world):
    results = {}
    for seed in TREND_SEEDS:
        for proportion, masking in ((0.7, True), (0.0, True), (0.7, False)):
            embedder = _trend_train(trend_world, proportion, masking, seed)
            results[(seed, proportion, masking)] = _trend_ndcg10(trend_world, embedder)
    return results


class TestEndToEndTrend:
    def test_trained_beats_untrained(self, trend_world, trend_scores):
        seed = TREND_SEEDS[0]
        untrained = training.ToyEmbedder(dim=TREND_DIM, hash_buckets=TREND_BUCKETS,
                                         seed=seed)
        base = _trend_ndcg10(trend_world, untrained)
        trained = trend_scores[(seed, 0.7, True)]
        report("trend: training lift", trained - base >= 0.05,
               f"NDCG@10 {base:.4f} -> {trained:.4f} (+{trained - base:.4f})")

    def test_augmented_mix_beats_original_only(self, trend_scores):
        augmented = statistics.mean(trend_scores[(s, 0.7, True)] for s in TREND_SEEDS)
        original = statistics.mean(trend_scores[(s, 0.0, True)] for s in TREND_SEEDS)
        report("trend: augmentation mix", augmented > original,
               f"p=0.7 {augmented:.4f} vs p=0.0 {original:.4f} "
               f"({augmented - original:+.4f})")

    def test_masking_beats_no_masking(self, trend_scores):
        masked = statistics.mean(trend_scores[(s, 0.7, True)] for s in TREND_SEEDS)
        unmasked = statistics.mean(trend_scores[(s, 0.7, False)] for s in TREND_SEEDS)
        report("trend: false-negative masking", masked > unmasked,
               f"masked {masked:.4f} vs unmasked {unmasked:.4f} "
               f"({masked - unmasked:+.4f})")

    def test_runtime_budget(self, trend_world, trend_scores):
        elapsed = time.time() - trend_world["started"]
        report("trend: runtime budget", elapsed < 300.0, f"{elapsed:.0f}s")


def test_anonymization_soundness(corpus_1000):
    """No planted surface survives on 500 queries; same seed, same bytes."""
    client = querygen.OfflineTemplateClient()
    docs = [d for d in corpus_1000.cases
            if corpus_1000.truth[d.case_id].elements is not None][:500]
    survivors = 0
    outputs = []
    for doc in docs:
        seed = derive_seed(55, doc.case_id)
        record = querygen.generate_query(doc, client, seed=seed)
        outputs.append(record.to_record())
        planted = [surface
                   for surfaces in corpus_1000.truth[doc.case_id].entities.values()
                   for surface in surfaces]
        for surface in planted:
            if surface in record.text:
                survivors += 1

    second = [querygen.generate_query(doc, client,
                                      seed=derive_seed(55, doc.case_id)).to_record()
              for doc in docs]
    deterministic = outputs == second
    report("anonymization soundness", survivors == 0 and deterministic,
           f"{survivors} surviving surfaces over {len(docs)} queries")


def test_bm25_sanity(corpus_1000):
    """Hand corpus matches the formula to 1e-9; fixture ordering is stable."""
    docs = {
        "d1": "法院 审理 盗窃 案件 判决",
        "d2": "被告 盗窃 电动车 一辆",
        "d3": "交通 肇事 逃逸 致人 重伤",
        "d4": "合同 纠纷 民事 调解 结案",
        "d5": "盗窃 盗窃 再次 盗窃 作案",
    }
    index = retrieval.Bm25Index.build(docs, "whitespace")
    tokens = {d: retrieval.tokenize_whitespace(t) for d, t in docs.items()}
    params = retrieval.Bm25Params()
    scorer = retrieval.Bm25Scorer([], params, index=index)
    worst = 0.0
    for query in (["盗窃"], ["盗窃", "案件"], ["交通", "肇事"], ["民事"]):
        scores = dict(scorer.score(" ".join(query), docs))
        for doc_id in docs:
            expected = bm25_oracle(query, tokens, doc_id, params.k1, params.b)
            got = scores[doc_id]
            worst = max(worst, abs(got - expected))
            assert abs(got - expected) <= 1e-9

    texts = {d.case_id: corpus.case_text(d) for d in corpus_1000.cases[:200]}
    query = "被告人盗窃电动车价值人民币"
    first = retrieval.search(query, texts, retrieval.Bm25Scorer([(query, texts)]), k=30)
    second = retrieval.search(query, texts, retrieval.Bm25Scorer([(query, texts)]), k=30)
    report("bm25 sanity", worst <= 1e-9 and first == second,
           f"max |Δ|={worst:.2e}")
