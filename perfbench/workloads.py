"""The benchmark's workloads and the README pipeline they run.

Every workload runs every stage; only sizes and settings differ, chosen so
that a different group of stages dominates ``pipeline_s`` in each:

- ``forge``: dataset construction (extract, synthesize, augment). A large
  corpus with rulings and short facts mixed in, two charges so that each
  main-article bucket holds half the corpus (augment scans a bucket per
  augmented query, so its work grows with the square of the corpus), few
  eval queries and a short training run on a small parameter matrix.
- ``train``: training. The README corpus and model shape (2^15 buckets x 64
  dimensions, batch 32); the dense Adam update runs once per batch.
- ``retrieve``: retrieval and evaluation. Many eval queries over
  100-candidate pools, and a ``[segment]`` window shorter than the
  candidates with ``stride < max_len``, so segment-and-max pooling runs
  over overlapping windows (MaxP) and dense search featurizes many windows.
- ``tiny``: every stage at a toy size, for the smoke test only.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Threads each stage process may use: BLAS runs single-threaded and
#: synthesize gets ``--max-in-flight 1``. With the offline client, more
#: threads gain nothing on a 2-core machine and make timings less steady.
THREADS = 1

#: Share of queries that get an augmented positive (the README default).
PROPORTION = 0.7

#: Overlapping windows shorter than every candidate. Non-overlapping
#: windows can leave a tail too short to featurize (see CHANGES.md).
SEGMENT_CONFIG = "[segment]\nmax_len = 128\nstride = 64\n"


@dataclass(frozen=True)
class Workload:
    name: str
    n_cases: int
    n_queries: int
    charges: int
    n_rulings: int
    n_short_facts: int
    epochs: int
    dim: int
    hash_buckets: int
    batch_size: int = 32
    config: str = ""


WORKLOADS = {w.name: w for w in (
    Workload("forge", n_cases=5000, n_queries=12, charges=2, n_rulings=100,
             n_short_facts=100, epochs=2, dim=8, hash_buckets=1 << 10),
    Workload("train", n_cases=2000, n_queries=20, charges=10, n_rulings=0,
             n_short_facts=0, epochs=2, dim=64, hash_buckets=1 << 15),
    Workload("retrieve", n_cases=1000, n_queries=80, charges=10, n_rulings=0,
             n_short_facts=0, epochs=2, dim=16, hash_buckets=1 << 12,
             config=SEGMENT_CONFIG),
    Workload("tiny", n_cases=150, n_queries=6, charges=10, n_rulings=5,
             n_short_facts=4, epochs=2, dim=16, hash_buckets=1 << 11,
             batch_size=16, config=SEGMENT_CONFIG),
)}

#: Run files and the metric files evaluated from them, by search stage.
SEARCHES = ("bm25", "bm25_index", "dense")


def fixtures_args(w: Workload, data: str, seed: int) -> list[str]:
    return ["fixtures", "--out", data, "--n-cases", str(w.n_cases),
            "--n-queries", str(w.n_queries), "--charges", str(w.charges),
            "--n-rulings", str(w.n_rulings), "--n-short-facts", str(w.n_short_facts),
            "--seed", str(seed)]


def pipeline_stages(w: Workload, data: str, seed: int) -> list[tuple[str, list[str]]]:
    """(stage name, lexforge arguments) from extract to the last eval."""
    corpus, elements = f"{data}/corpus.jsonl", f"{data}/elements.jsonl"
    queries, evalq = f"{data}/queries.jsonl", f"{data}/eval_queries.jsonl"
    pools = ["--pools", f"{data}/pools.jsonl"]
    s = str(seed)
    stages = [
        ("extract", ["extract", "--corpus", corpus, "--elements", elements,
                     "--exclusions", f"{data}/exclusions.jsonl"]),
        ("synthesize", ["synthesize", "--corpus", corpus, "--elements", elements,
                        "--output", queries, "--max-in-flight", str(THREADS),
                        "--seed", s]),
        ("augment", ["augment", "--queries", queries, "--elements", elements,
                     "--output", f"{data}/pairs.jsonl",
                     "--proportion", str(PROPORTION), "--seed", s]),
        ("train", ["train", "--pairs", f"{data}/pairs.jsonl", "--queries", queries,
                   "--corpus", corpus, "--output", f"{data}/toy.ckpt",
                   "--curve", f"{data}/loss.tsv", "--epochs", str(w.epochs),
                   "--batch-size", str(w.batch_size), "--dim", str(w.dim),
                   "--hash-buckets", str(w.hash_buckets), "--seed", s]),
        ("index", ["index", "--corpus", corpus, "--output", f"{data}/bm25.json"]),
        ("search_bm25", ["search", "--queries", evalq, "--corpus", corpus, *pools,
                         "--scorer", "bm25", "--output", f"{data}/run_bm25.jsonl"]),
        ("search_bm25_index", ["search", "--queries", evalq, "--corpus", corpus, *pools,
                               "--scorer", "bm25", "--index", f"{data}/bm25.json",
                               "--output", f"{data}/run_bm25_index.jsonl"]),
        ("search_dense", ["search", "--queries", evalq, "--corpus", corpus, *pools,
                          "--scorer", "dense", "--checkpoint", f"{data}/toy.ckpt",
                          "--output", f"{data}/run_dense.jsonl"]),
    ]
    for run in SEARCHES:
        stages.append((f"eval_{run}", [
            "eval", "--run", f"{data}/run_{run}.jsonl", "--qrels", f"{data}/qrels.jsonl",
            "--output", f"{data}/metrics_{run}.json", "--label", run]))
    return stages


#: Stage groups for the split of pipeline_s the workloads are built around.
GROUPS = {
    "dataset": ("extract", "synthesize", "augment"),
    "training": ("train",),
    "retrieval": ("index", "search_bm25", "search_bm25_index", "search_dense",
                  "eval_bm25", "eval_bm25_index", "eval_dense"),
}
