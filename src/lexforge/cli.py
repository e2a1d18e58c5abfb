"""Command-line pipeline driver.

One subcommand per stage: fixtures -> extract -> synthesize -> augment ->
train -> index -> search -> eval -> report. Every stage reads and writes
only the documented files (line-delimited JSON, a binary checkpoint and a
binary BM25 index), commits its outputs together, and is re-runnable. Exit
codes: 0 success, 1 usage, 2 data error, 3 remote-client failure.

This module imports only :mod:`config`, :mod:`fileio` and :mod:`errors`;
each stage imports the modules it runs, so a stage process loads no other.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from array import array
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import config, fileio
from .config import PipelineConfig
from .errors import (
    EmptyCorpus,
    FeaturelessText,
    GenerationFailed,
    LexforgeError,
    MalformedRecord,
    UnknownDoc,
    UsageError,
    ZeroVector,
)

if TYPE_CHECKING:
    from .corpus import CaseDocument
    from .training import TrainingSet

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REMOTE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _flags(args, *names: str, **dests: str) -> dict[str, tuple[str, str]]:
    """The flags given that set the named fields or parameters, as the
    (flag, text) values :mod:`config` parses. A flag's dest is the name it
    sets, or ``dests[name]``."""
    dests = {name: name for name in names} | dests
    return {name: ("--" + dest.replace("_", "-"), getattr(args, dest))
            for name, dest in dests.items() if getattr(args, dest) is not None}


# --------------------------------------------------------------------------
# File helpers
# --------------------------------------------------------------------------

def _parsed(path: Path, parse) -> Iterator:
    """``parse(record)`` for each record of a file; a record it rejects is a
    MalformedRecord naming the file, the line and the reason."""
    for lineno, record in fileio.read_jsonl(path):
        try:
            value = parse(record)
        except KeyError as exc:
            raise MalformedRecord(f"{path}:{lineno}: missing field {exc.args[0]!r}") from None
        except (LexforgeError, TypeError, ValueError) as exc:
            raise MalformedRecord(f"{path}:{lineno}: {exc}") from None
        yield value


def _load_corpus(path: Path) -> dict[str, CaseDocument]:
    from .corpus import parse_case

    return {doc.case_id: doc for doc in _parsed(path, parse_case)}


def _load_texts(path: Path, wanted: set[str] | None = None) -> dict[str, str]:
    """The text of each case of a corpus file, or of each case in ``wanted``.
    Every record is parsed, so a bad one anywhere is a MalformedRecord, but
    only the texts kept outlive their record."""
    from .corpus import case_text, parse_case

    return {doc.case_id: case_text(doc) for doc in _parsed(path, parse_case)
            if wanted is None or doc.case_id in wanted}


class _Query(NamedTuple):
    """What ``augment``, ``train`` and ``search`` read of a query record."""

    query_id: str
    source_case_id: str
    text: str


def _queries(path: Path) -> Iterator[_Query]:
    for lineno, record in fileio.read_jsonl(path):
        yield _Query(*_fields(path, lineno, record,
                              query_id=_id, source_case_id=_id, text=_text))


def _fields(path: Path, lineno: int, record: dict, **parsers) -> list:
    """The named fields of a record, each passed through its parser (None
    keeps the value); a missing or unparseable field is a MalformedRecord
    naming the file, the line and the field."""
    values = []
    for name, parse in parsers.items():
        try:
            value = record[name]
            values.append(value if parse is None else parse(value))
        except KeyError:
            raise MalformedRecord(f"{path}:{lineno}: missing field {name!r}") from None
        except (TypeError, ValueError) as exc:
            raise MalformedRecord(f"{path}:{lineno}: field {name!r}: {exc}") from None
    return values


def _typed(kind, expected: str):
    """A field parser that keeps a JSON value of type ``kind``, never a bool."""
    def parse(value):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise TypeError(f"expected {expected}, not {type(value).__name__}")
        return value
    return parse


_id, _text = _typed(str, "a string id"), _typed(str, "a string")
_int, _number = _typed(int, "an integer"), _typed((int, float), "a number")


def _id_list(value) -> list[str]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of ids, not {type(value).__name__}")
    return [_id(v) for v in value]


def _charges(value) -> frozenset[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"expected a list of strings, not {value!r}")
    return frozenset(value)


def _load_qrels(path: Path) -> dict[str, dict[str, int]]:
    """Each query's labels; a repeated (query, case) is a MalformedRecord."""
    qrels: dict[str, dict[str, int]] = {}
    for lineno, record in fileio.read_jsonl(path):
        query_id, case_id, label = _fields(path, lineno, record,
                                           query_id=_id, case_id=_id, label=_int)
        labels = qrels.setdefault(query_id, {})
        if case_id in labels:
            raise MalformedRecord(f"{path}:{lineno}: query {query_id!r} repeats "
                                  f"case_id {case_id!r}")
        labels[case_id] = label
    return qrels


def _load_pools(path: Path) -> dict[str, list[str]]:
    """Each query's candidate ids; a repeated query is a MalformedRecord."""
    pools = {}
    for lineno, record in fileio.read_jsonl(path):
        query_id, candidate_ids = _fields(path, lineno, record,
                                          query_id=_id, candidate_ids=_id_list)
        if query_id in pools:
            raise MalformedRecord(f"{path}:{lineno}: query {query_id!r} repeats its pool")
        pools[query_id] = candidate_ids
    return pools


def _load_run(path: Path) -> dict[str, list[tuple[str, float]]]:
    """Each query's (case id, score) list in rank order; a case id or a rank
    repeated within a query is a MalformedRecord."""
    rows: dict[str, list[tuple[int, str, float]]] = {}
    seen: dict[str, set[tuple[str, object]]] = {}
    for lineno, record in fileio.read_jsonl(path):
        query_id, rank, case_id, score = _fields(path, lineno, record, query_id=_id,
                                                 rank=_int, case_id=_id, score=_number)
        taken = seen.setdefault(query_id, set())
        for key in (("case_id", case_id), ("rank", rank)):
            if key in taken:
                raise MalformedRecord(f"{path}:{lineno}: query {query_id!r} repeats "
                                      f"{key[0]} {key[1]!r}")
            taken.add(key)
        rows.setdefault(query_id, []).append((rank, case_id, score))
    return {qid: [(cid, score) for _, cid, score in sorted(entries)]
            for qid, entries in rows.items()}


# --------------------------------------------------------------------------
# Stage implementations
# --------------------------------------------------------------------------

def _cmd_fixtures(args, cfg: PipelineConfig) -> int:
    from . import querygen, testkit
    from .corpus import case_to_record, elements_to_record
    from .seeds import derive_seed

    out = Path(args.out)
    spec = config.with_values(testkit.SyntheticSpec, _flags(
        args, "n_cases", "n_rulings", "n_short_facts", charge_count="charges"),
        min_fact_chars=cfg.filter.min_fact_chars, seed=args.seed)
    qrels_params = config.parse(testkit.generate_qrels, _flags(args, "n_queries"))
    if qrels_params.get("n_queries", 0) < 0:
        raise UsageError(f"--n-queries = {args.n_queries!r}: n_queries must be >= 0")
    with fileio.outputs(*(out / name for name in (
            "corpus.jsonl", "truth.jsonl", "pools.jsonl", "qrels.jsonl",
            "eval_queries.jsonl"))) as (corpus, truth, pools, qrels, queries):
        build = testkit.generate_corpus(spec)
        fileio.write_jsonl(corpus, (case_to_record(d) for d in build.cases))
        fileio.write_jsonl(truth, (
            elements_to_record(cid, t.elements)
            for cid, t in sorted(build.truth.items()) if t.elements is not None))

        qrels_build = testkit.generate_qrels(build, seed=args.seed, **qrels_params)
        fileio.write_jsonl(pools, (
            {"query_id": qid, "candidate_ids": qrels_build.pools[qid]}
            for qid in sorted(qrels_build.pools)))
        fileio.write_jsonl(qrels, (
            {"query_id": qid, "case_id": cid, "label": label}
            for qid in sorted(qrels_build.labels)
            for cid, label in sorted(qrels_build.labels[qid].items())))

        docs = {d.case_id: d for d in build.cases}
        client = querygen.OfflineTemplateClient()
        eval_queries = querygen.generate_queries(
            [docs[qrels_build.sources[qid]] for qid in sorted(qrels_build.sources)],
            client, global_seed=derive_seed(args.seed, "eval-queries"),
            max_query_chars=cfg.max_query_chars)
        fileio.write_jsonl(queries, (q.to_record() for q in eval_queries))
    print(f"fixtures: {len(build.cases)} cases, {len(eval_queries)} eval queries -> {out}")
    return EXIT_OK


def _cmd_extract(args, cfg: PipelineConfig) -> int:
    from .corpus import Exclusion, elements_to_record, filter_corpus

    docs = _load_corpus(Path(args.corpus))
    exclusions: list[Exclusion] = []
    with fileio.outputs(args.elements, args.exclusions) as (elements_out, exclusions_out):
        admitted = fileio.write_jsonl(elements_out, (
            elements_to_record(doc.case_id, elements)
            for doc, elements in filter_corpus((docs[c] for c in sorted(docs)),
                                               cfg.filter, on_exclude=exclusions.append)))
        if exclusions_out:
            fileio.write_jsonl(exclusions_out, (e.to_record() for e in exclusions))
    print(f"extract: {admitted} admitted, {len(exclusions)} excluded")
    return EXIT_OK


def _cmd_synthesize(args, cfg: PipelineConfig) -> int:
    from . import querygen
    from .corpus import elements_from_record

    if args.limit < 0:
        raise UsageError(f"--limit = {args.limit}: limit must be >= 0")
    settings = config.with_values(cfg.client, _flags(args, "max_in_flight"))
    docs = _load_corpus(Path(args.corpus))

    def in_corpus(record) -> str:
        case_id, _ = elements_from_record(record)
        if case_id not in docs:
            raise ValueError(f"field 'case_id': {case_id!r} not in {args.corpus}")
        return case_id

    targets = [docs[cid] for cid in sorted(set(_parsed(Path(args.elements), in_corpus)))]
    if args.limit:
        targets = targets[:args.limit]
    if args.client == "remote":
        if not settings.endpoint:
            raise UsageError("remote client needs an endpoint "
                             "(config [client] endpoint or LEXFORGE_ENDPOINT)")
        client = querygen.RemoteGenerationClient(
            endpoint=settings.endpoint, model=settings.model,
            api_key=settings.api_key, timeout=settings.timeout,
            max_retries=settings.retries, backoff=settings.backoff)
    else:
        client = querygen.OfflineTemplateClient()
    queries = querygen.generate_queries(
        targets, client, global_seed=args.seed,
        max_in_flight=settings.max_in_flight,
        max_query_chars=cfg.max_query_chars)
    with fileio.outputs(args.output) as (output,):
        fileio.write_jsonl(output, (q.to_record() for q in queries))
    summary = f"synthesize: {len(queries)} queries"
    if queries:
        avg_q = sum(len(q.text) for q in queries) / len(queries)
        avg_f = sum(len(d.fact) for d in targets) / len(targets)
        summary += f" (avg query {avg_q:.0f} chars vs avg fact {avg_f:.0f} chars)"
    print(summary)
    return EXIT_OK


def _cmd_augment(args, cfg: PipelineConfig) -> int:
    from . import augment
    from .corpus import elements_from_record

    aug_cfg = config.with_values(
        cfg.augment, _flags(args, proportion_augmented="proportion"), seed=args.seed)
    queries = list(_queries(Path(args.queries)))
    elements = dict(_parsed(Path(args.elements), elements_from_record))
    index = augment.build_element_index(elements)
    result = augment.mix_pairs(queries, elements, index, aug_cfg)
    with fileio.outputs(args.output) as (output,):
        fileio.write_jsonl(output, (p.to_record() for p in result.pairs))
    print(f"augment: {len(result.pairs)} pairs, {result.augmented_count} augmented, "
          f"{len(result.fallbacks)} fallbacks; {index.signatures} signatures indexed, "
          f"{index.scores} scores computed")
    return EXIT_OK


def _training_set(args, embedder) -> tuple[TrainingSet, array]:
    """The pairs of ``--pairs`` as a training set over one feature store,
    and the line of each pair.

    The pairs are read first, into columns: each names its query and its
    case by a number, in order of first mention. Then the queries file and
    the corpus are streamed, and the text of each id the pairs name is
    featurized into the store as it is read, a chunk at a time; a later
    record of the same id takes its place, as the last one in a dict
    would. Every record is parsed, so a bad one anywhere is a
    MalformedRecord, but no text outlives its featurization and no parsed
    case its record. Then a pair whose ``query_id`` is not in the queries
    file, or whose ``positive_case_id`` is not in the corpus, is a
    MalformedRecord naming the pairs file, the line and the field.
    """
    from .corpus import case_text, parse_case
    from .training import FeatureStore, TrainingSet

    ids: tuple[dict, dict] = ({}, {})  # query ids, case ids
    charge_ids: dict[frozenset[str], int] = {}
    lines, charges, numbers = array("q"), array("q"), (array("q"), array("q"))
    for lineno, record in fileio.read_jsonl(Path(args.pairs)):
        # train reads no kind, but a pair without one is malformed;
        # positive_charges may be left out
        query_id, case_id, _, pair_charges = _fields(
            args.pairs, lineno, {"positive_charges": [], **record}, query_id=_id,
            positive_case_id=_id, kind=None, positive_charges=_charges)
        lines.append(lineno)
        for column, known, key in zip(numbers, ids, (query_id, case_id)):
            column.append(known.setdefault(key, len(known)))
        charges.append(charge_ids.setdefault(pair_charges, len(charge_ids)))
    slots = tuple(array("q", [-1]) * len(known) for known in ids)

    def texts() -> Iterator[str]:
        count = itertools.count()
        for query in _queries(Path(args.queries)):
            if (number := ids[0].get(query.query_id)) is not None:
                slots[0][number] = next(count)
                yield query.text
        for doc in _parsed(Path(args.corpus), parse_case):
            if (number := ids[1].get(doc.case_id)) is not None:
                slots[1][number] = next(count)
                yield case_text(doc)

    store = FeatureStore(embedder, texts())
    for i, pair in enumerate(zip(*numbers)):
        for field, source, known, slot, number in zip(
                ("query_id", "positive_case_id"), (args.queries, args.corpus), ids, slots, pair):
            if slot[number] < 0:
                raise MalformedRecord(f"{args.pairs}:{lines[i]}: field {field!r}: "
                                      f"{list(known)[number]!r} not in {source}")
    return TrainingSet(store, *(array("q", (slot[n] for n in column))
                                for slot, column in zip(slots, numbers)),
                       charges, charge_ids), lines


def _cmd_train(args, cfg: PipelineConfig) -> int:
    from . import training

    if not 0 <= args.seed < training.SEED_END:
        # checked here, ahead of the embedder: its error would name only the parsed flags
        raise UsageError(f"--seed = {args.seed!r}: seed must be in [0, 2**63)")
    embedder = config.with_values(
        training.ToyEmbedder, _flags(args, "dim", "hash_buckets"), seed=args.seed)
    schedule = config.with_values(training.TrainSchedule, _flags(
        args, "epochs", "batch_size", "learning_rate"), seed=args.seed)
    loss_cfg = config.with_values(cfg.loss, _flags(args, masking_enabled="no_masking"))
    data, lines = _training_set(args, embedder)
    with fileio.outputs(args.output, args.curve) as (output, curve_out):
        try:
            curve = training.train_toy(data, embedder, schedule, loss_cfg)
        except FeaturelessText as exc:
            lineno = lines[exc.pair]
            field = "query_id" if exc.field == "query_text" else "positive_case_id"
            record = next(r for n, r in fileio.read_jsonl(Path(args.pairs)) if n == lineno)
            raise MalformedRecord(f"{args.pairs}:{lineno}: field {field!r}: the text of "
                                  f"{record[field]!r} has no character n-gram to embed") from None
        training.save_checkpoint(embedder, output)
        if curve_out:
            fileio.write_bytes(curve_out, "".join(
                f"{step}\t{loss:.10f}\n" for step, loss in curve).encode("utf-8"))
    print(f"train: {len(data)} pairs, {len(curve)} steps, "
          f"loss {curve[0][1]:.4f} -> {curve[-1][1]:.4f}")
    return EXIT_OK


def _cmd_index(args, cfg: PipelineConfig) -> int:
    from . import retrieval

    if args.tokenizer is not None and args.tokenizer not in retrieval.TOKENIZERS:
        choices = ", ".join(map(repr, sorted(retrieval.TOKENIZERS)))
        raise UsageError(f"argument --tokenizer: invalid choice: {args.tokenizer!r} "
                         f"(choose from {choices})")
    index = retrieval.Bm25Index.build(_load_texts(Path(args.corpus)), **config.parse(
        retrieval.Bm25Index.build, _flags(args, tokenizer_name="tokenizer")))
    with fileio.outputs(args.output) as (output,):
        written = index.save(output)
    print(f"index: {index.n_docs} docs, {len(index.terms)} terms, "
          f"{len(index.term_ids)} postings, {written} bytes")
    return EXIT_OK


def _search_run(queries, texts: dict[str, str], pools: dict[str, list[str]] | None,
                scorer_for, *, k: int, pools_path):
    """Rank each (query id, text) against its pool, or against every text
    when there are no pools, with one scorer for the whole run.

    ``scorer_for`` builds the scorer from the run's (query text, pool)
    pairs, before the first query, so that it does each candidate's work
    once per run. Returns the run, the pool ids not in ``texts`` and the
    number of queries without a pool; both kinds are skipped. A pool with no
    id in ``texts`` is an :class:`EmptyCorpus` naming the query and
    ``pools_path``; a :class:`ZeroVector` from scoring one names the query.
    """
    from . import retrieval

    missing: set[str] = set()
    unpooled = 0
    ranked: list[tuple[str, str, dict[str, str]]] = []
    for query_id, text in queries:
        if pools is None:
            ranked.append((query_id, text, texts))
        elif query_id not in pools:
            unpooled += 1
        else:
            missing.update(cid for cid in pools[query_id] if cid not in texts)
            ranked.append((query_id, text, {cid: texts[cid] for cid in pools[query_id]
                                            if cid in texts}))
    scorer = scorer_for([(text, pool) for _, text, pool in ranked])
    run: dict[str, list[tuple[str, float]]] = {}
    for query_id, text, pool in ranked:
        if pools is not None and not pool:
            raise EmptyCorpus(f"{pools_path}: none of the {len(pools[query_id])} "
                              f"pool ids of query {query_id!r} is in the corpus")
        try:
            run[query_id] = retrieval.search(text, pool, scorer, k)
        except ZeroVector as exc:
            raise ZeroVector(f"query {query_id!r}: {exc}") from None
    return run, missing, unpooled


def _cmd_search(args, cfg: PipelineConfig) -> int:
    from . import retrieval

    k = config.parse(retrieval.search, _flags(args, "k")).get("k", retrieval.DEFAULT_K)
    if k < 1:
        raise UsageError(f"--k = {args.k!r}: k must be >= 1")
    if args.scorer == "dense" and not args.checkpoint:
        raise UsageError("dense scoring needs --checkpoint")
    queries = list(_queries(Path(args.queries)))
    pools = _load_pools(Path(args.pools)) if args.pools else None
    texts = _load_texts(Path(args.corpus), None if pools is None
                        else {cid for pool in pools.values() for cid in pool})
    if args.scorer == "dense":
        from . import training

        scorer_for = functools.partial(
            retrieval.DenseScorer, embedder=training.load_checkpoint(args.checkpoint),
            seg_cfg=cfg.segment)
    else:
        index = retrieval.Bm25Index.load(Path(args.index)) if args.index else None
        scorer_for = functools.partial(retrieval.Bm25Scorer, params=cfg.bm25, index=index)

    if pools is None and queries and not texts:
        raise EmptyCorpus(f"{args.corpus}: no cases to search")
    try:
        run, missing, unpooled = _search_run(
            ((q.query_id, q.text) for q in queries), texts, pools, scorer_for,
            k=k, pools_path=args.pools)
    except UnknownDoc as exc:
        # only a loaded index can lack a candidate
        raise UnknownDoc(f"{args.index}: {exc}; rebuild the index from --corpus "
                         f"{args.corpus} with `lexforge index`") from None
    with fileio.outputs(args.output) as (output,):
        fileio.write_jsonl(output, (
            {"query_id": query_id, "case_id": case_id, "rank": rank, "score": score,
             "scorer": args.scorer}
            for query_id in sorted(run)
            for rank, (case_id, score) in enumerate(run[query_id], start=1)))
    label = (args.scorer if args.scorer == "dense"
             else f"bm25 ({'corpus' if args.index else 'pool'} statistics)")
    print(f"search: {len(run)} queries, top-{k} by {label}; "
          f"{len(missing)} pool ids not in corpus, {unpooled} queries without a pool")
    return EXIT_OK


def _cmd_eval(args, cfg: PipelineConfig) -> int:
    from . import evaluation

    # a byte of argv that is not UTF-8 decodes to a lone surrogate, which
    # the metrics file could not hold
    if args.label is not None and (escape := fileio.lone_surrogate(args.label)):
        raise UsageError(f"--label = {args.label!r}: lone surrogate {escape}, "
                         "from a byte that is not UTF-8")
    run = _load_run(Path(args.run))
    qrels = _load_qrels(Path(args.qrels))
    report = evaluation.evaluate_run(
        run, qrels, **config.parse(evaluation.evaluate_run, _flags(args, "gain")))
    payload = report.to_dict()
    payload["label"] = args.label or Path(args.run).stem
    fileio.atomic_write_text(
        Path(args.output),
        json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
    print(f"eval: {len(report.per_query)} queries "
          f"({len(report.missing)} missing from run)")
    for name in evaluation.METRIC_ORDER:
        if name in report.macro:
            print(f"  {name:>8}: {report.macro[name]:.4f}")
    for warning in report.warnings:
        print(f"  warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _load_metrics(path: Path) -> tuple[str, dict[str, float]]:
    """The label and the macro means of an ``eval`` metrics file; a file
    that is not one is a MalformedRecord naming it and the reason."""
    try:
        payload = json.loads(path.read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedRecord(f"{path}: not UTF-8 at byte {exc.start + 1}") from None
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"{path}: not JSON: {exc}") from None
    if escape := fileio.lone_surrogate(payload):
        raise MalformedRecord(f"{path}: lone surrogate escape {escape} in a string")
    macro = payload.get("macro") if isinstance(payload, dict) else None
    if not isinstance(macro, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in macro.values()):
        raise MalformedRecord(f"{path}: no 'macro' object of metric values")
    return str(payload.get("label", path.stem)), macro


def _cmd_report(args, cfg: PipelineConfig) -> int:
    from .evaluation import METRIC_ORDER

    reports = [_load_metrics(Path(path)) for path in args.metrics]
    names = [n for n in METRIC_ORDER if all(n in m for _, m in reports)]

    header = ["run"] + names
    widths = [max(len(header[0]), *(len("Δ " + label) for label, _ in reports))]
    widths += [max(8, len(n)) for n in names]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    baseline = reports[0][1]
    for i, (label, macro) in enumerate(reports):
        row = [label.ljust(widths[0])]
        for j, name in enumerate(names):
            row.append(f"{macro[name]:.4f}".ljust(widths[j + 1]))
        lines.append("  ".join(row))
        if i > 0:
            deltas = [("Δ " + label).ljust(widths[0])]
            for j, name in enumerate(names):
                deltas.append(f"{macro[name] - baseline[name]:+.4f}".ljust(widths[j + 1]))
            lines.append("  ".join(deltas))
    table = "\n".join(lines)
    print(table)
    if args.output:
        fileio.atomic_write_text(Path(args.output), table + "\n")
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    """The command line. A flag that sets a dataclass field or a function
    parameter has no default here: when it is not given, the config file's
    value or the field's or parameter's own default stands."""
    parser = _Parser(prog="lexforge", description=__doc__)
    parser.add_argument("--config", help="path to the pipeline config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixtures", help="generate a synthetic corpus with qrels")
    p.add_argument("--out", required=True)
    p.add_argument("--n-cases")
    p.add_argument("--n-queries")
    p.add_argument("--charges")
    p.add_argument("--n-rulings")
    p.add_argument("--n-short-facts")
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("extract", help="filter the corpus and extract elements")
    p.add_argument("--corpus", required=True)
    p.add_argument("--elements", required=True)
    p.add_argument("--exclusions")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("synthesize", help="generate anonymized short queries")
    p.add_argument("--corpus", required=True)
    p.add_argument("--elements", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--client", choices=["offline", "remote"], default="offline")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--max-in-flight")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("augment", help="mix original and augmented positives")
    p.add_argument("--queries", required=True)
    p.add_argument("--elements", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--proportion")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train", help="train the toy embedder on pairs")
    p.add_argument("--pairs", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--curve")
    p.add_argument("--epochs")
    p.add_argument("--batch-size")
    p.add_argument("--learning-rate")
    p.add_argument("--dim")
    p.add_argument("--hash-buckets")
    # sets masking_enabled to false, over the config file's [loss] masking
    p.add_argument("--no-masking", action="store_const", const="false")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("index", help="build and save a BM25 index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--tokenizer")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("search", help="rank candidate pools for each query")
    p.add_argument("--queries", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--pools")
    p.add_argument("--scorer", choices=["bm25", "dense"], default="bm25")
    p.add_argument("--index")
    p.add_argument("--checkpoint")
    p.add_argument("--k")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("eval", help="score a run against graded judgments")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--gain", choices=["linear", "exponential"])
    p.add_argument("--label")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="compare metric reports across runs")
    p.add_argument("metrics", nargs="+")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_report)

    for name in ("fixtures", "synthesize", "augment", "train"):
        sub.choices[name].add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config.load_config(args.config)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GenerationFailed as exc:
        print(f"remote client failure: {exc}", file=sys.stderr)
        return EXIT_REMOTE
    except LexforgeError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        # an input or output the system refused: missing, a directory, not
        # permitted, or a write past a size limit or the free space
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"data error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
