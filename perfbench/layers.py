"""Per-layer metrics from the span files of traced stage processes.

A span's inclusive time is its end minus its start; its self time is that
minus the time of the spans it directly caused. Times and counts are summed
over the stage processes of one traced round (``fixtures`` apart, which
feeds only the ``testkit`` metrics), and each metric is the median over the
run's traced rounds. Stage wall times come from the untraced rounds.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import GROUPS


def load_trace(prefix: Path) -> dict:
    """Inclusive and self seconds per span name, counts and import time."""
    meta = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    spans = np.load(prefix.with_suffix(".npz"))
    names = meta["names"]
    dur = spans["end"] - spans["start"]
    caused = spans["parent"] >= 0
    child = np.bincount(spans["parent"][caused], weights=dur[caused], minlength=dur.size)
    inclusive = np.bincount(spans["name"], weights=dur, minlength=len(names))
    own = np.bincount(spans["name"], weights=dur - child, minlength=len(names))
    return {"incl": dict(zip(names, inclusive.tolist())),
            "self": dict(zip(names, own.tolist())),
            "counts": Counter(meta["counts"]),
            "import_s": meta["import_s"]}


def _round_metrics(workload, trace_dir: Path, stage_names) -> dict[str, tuple[float, str]]:
    traces = {name: load_trace(trace_dir / name) for name in stage_names}
    incl, own, counts = Counter(), Counter(), Counter()
    for t in traces.values():
        incl.update(t["incl"])
        own.update(t["self"])
        counts.update(t["counts"])
    corpus_size = workload.n_cases + workload.n_rulings + workload.n_short_facts
    augmented = counts["augment.find_augmented_positive.calls"]
    per_pool = traces["search_bm25"]["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "cli.import_s": (statistics.median(t["import_s"] for t in traces.values()), "s"),
        "fileio.read_jsonl_s": (incl["fileio.read_jsonl"], "s"),
        "fileio.records_read": (counts["fileio.read_jsonl.items"], "count"),
        "fileio.write_jsonl_s": (incl["fileio.write_jsonl"], "s"),
        "fileio.bytes_written": (counts["fileio.bytes_written"], "bytes"),
        "corpus.parse_case_s": (incl["corpus.parse_case"], "s"),
        "corpus.cases_parsed": (ratio(counts["corpus.parse_case.calls"], corpus_size),
                                "per_case"),
        "corpus.filter_corpus_s": (incl["corpus.filter_corpus"], "s"),
        "corpus.cases_excluded": (counts["corpus.filter_corpus.docs_in"]
                                  - counts["corpus.filter_corpus.items"], "count"),
        "querygen.generate_query_s": (incl["querygen.generate_query"], "s"),
        "querygen.complete_s": (incl["querygen.complete"], "s"),
        "querygen.complete_calls": (ratio(counts["querygen.complete.calls"],
                                          counts["querygen.generate_query.calls"]),
                                    "per_query"),
        "querygen.anonymize_s": (incl["querygen.anonymize"], "s"),
        "augment.build_element_index_s": (incl["augment.build_element_index"], "s"),
        "augment.find_augmented_positive_s": (incl["augment.find_augmented_positive"], "s"),
        "augment.bucket_entries_scanned": (ratio(counts["augment.bucket_entries"], augmented),
                                           "per_pair"),
        "augment.fallbacks": (counts["augment.find_augmented_positive.raised.NoMatch"],
                              "count"),
        "training.batch_gradient_s": (own["training.batch_gradient"], "s"),
        "training.steps": (counts["training.adam_step.calls"], "count"),
        "training.adam_step_s": (incl["training.adam_step"], "s"),
        "training.adam_bytes_computed": (counts["training.adam_bytes"], "bytes"),
        "training.cosine_matrix_s": (incl["training.cosine_matrix"], "s"),
        "training.in_batch_loss_s": (incl["training.in_batch_loss"], "s"),
        "training.false_negative_mask_s": (incl["training.false_negative_mask"], "s"),
        "training.masked_share": (ratio(counts["training.masked_entries"],
                                        counts["training.offdiagonal_entries"]), "ratio"),
        "training.save_checkpoint_s": (incl["training.save_checkpoint"], "s"),
        "training.checkpoint_bytes": (counts["training.checkpoint_bytes"], "bytes"),
        "training.features_s": (incl["training.features"], "s"),
        "training.features_calls": (ratio(counts["training.features.calls"],
                                          counts["training.features_unique_texts"]),
                                    "per_text"),
        "training.features_unique_texts": (counts["training.features_unique_texts"], "count"),
        "training.embed_s": (incl["training.embed"], "s"),
        "training.embed_rows": (counts["training.embed_rows"], "count"),
        "training.load_checkpoint_s": (incl["training.load_checkpoint"], "s"),
        "retrieval.bm25_index_build_s": (incl["retrieval.bm25_index_build"], "s"),
        "retrieval.bm25_index_builds": (ratio(per_pool["retrieval.bm25_index_build.calls"],
                                              per_pool["retrieval.search.bm25"]), "per_query"),
        "retrieval.bm25_index_save_s": (incl["retrieval.bm25_index_save"], "s"),
        "retrieval.bm25_index_load_s": (incl["retrieval.bm25_index_load"], "s"),
        "retrieval.bm25_score_s": (incl["retrieval.bm25_score"], "s"),
        "retrieval.bm25_score_calls": (counts["retrieval.bm25_score.calls"], "count"),
        "retrieval.dense_score_s": (incl["retrieval.dense_score"], "s"),
        "retrieval.dense_score_calls": (counts["retrieval.dense_score.calls"], "count"),
        "retrieval.segment_s": (incl["retrieval.segment"], "s"),
        "retrieval.segments_embedded": (ratio(counts["retrieval.windows"],
                                              counts["retrieval.unique_windows"]),
                                        "per_window"),
        "retrieval.search_s": (incl["retrieval.search"], "s"),
        "retrieval.index_bytes": (counts["retrieval.index_bytes"], "bytes"),
        "evaluation.evaluate_run_s": (incl["evaluation.evaluate_run"], "s"),
        "evaluation.queries_evaluated": (counts["evaluation.queries"], "count"),
    }


def layer_metrics(workload, trace_dirs: list[Path], stage_s: dict[str, float],
                  traced_stage_s: dict[str, float], fixtures_s: float,
                  fixtures_trace: Path) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: medians over traced rounds, plus stage times,
    the tracing overhead and each stage group's share of pipeline_s."""
    rounds = [_round_metrics(workload, d, list(stage_s)) for d in trace_dirs]
    metrics = {name: (statistics.median(r[name][0] for r in rounds), unit)
               for name, (_, unit) in rounds[0].items()}

    fixtures = load_trace(fixtures_trace)
    metrics["testkit.generate_corpus_s"] = (fixtures["incl"]["testkit.generate_corpus"], "s")
    metrics["testkit.generate_qrels_s"] = (fixtures["incl"]["testkit.generate_qrels"], "s")
    metrics["cli.fixtures_s"] = (fixtures_s, "s")
    for name in ("extract", "synthesize", "augment", "train", "index",
                 "search_bm25", "search_bm25_index", "search_dense"):
        metrics[f"cli.{name}_s"] = (stage_s[name], "s")
    metrics["cli.eval_s"] = (sum(t for n, t in stage_s.items() if n.startswith("eval_")), "s")

    pipeline_s = sum(stage_s.values())
    metrics["trace.overhead_s"] = (sum(traced_stage_s.values()) - pipeline_s, "s")
    for group, names in GROUPS.items():
        metrics[f"split.{group}_share"] = (sum(stage_s[n] for n in names) / pipeline_s, "ratio")
    return metrics
