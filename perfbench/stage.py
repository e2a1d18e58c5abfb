"""One traced pipeline stage: wrap the layer functions, run the CLI, write spans.

    python3 perfbench/stage.py OUT_PREFIX LEXFORGE_ARGS...

Before ``lexforge.cli.main`` runs, every function the per-layer metrics
name is replaced, wherever lexforge binds it, by a wrapper that records a
span (name, start, end, parent) and the counts its hook derives from the
call. Spans stay in memory until the stage ends; then ``OUT_PREFIX.npz``
receives them and ``OUT_PREFIX.json`` the span names, counts and the time
``import lexforge.cli`` took. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter


class Tracer:
    """Spans of one process, kept in flat arrays, and named counts.

    One stack of open spans serves the process: stage processes run their
    work on one thread (``synthesize --max-in-flight 1``).
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: Counter = Counter()
        self.unique_texts: set[int] = set()
        self.unique_windows: set[int] = set()
        self._open: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def write(self, prefix: str, import_s: float) -> None:
        import numpy as np

        np.savez(prefix + ".npz",
                 name=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int64))
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counts": dict(self.counts),
                       "import_s": import_s}, fh)


def _traced(tracer: Tracer, name: str, fn, hook):
    """Wrap fn so each call is one span.

    For a function, ``hook(tracer, args, kwargs, result)`` counts after the
    call. For a generator, ``hook(tracer, args, kwargs, None)`` runs before
    the call and returns the (args, kwargs) to call it with.
    """

    if inspect.isgeneratorfunction(fn):
        # A generator does its work while it is consumed, so every resumption
        # is a span of its own; the caller's work between items is not.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(tracer, args, kwargs, None)
            inner = fn(*args, **kwargs)
            while True:
                span = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                tracer.counts[name + ".items"] += 1
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            tracer.close(span)
        tracer.counts[name + ".calls"] += 1
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapper


# --------------------------------------------------------------------------
# Counting hooks: derive work counts from a call's arguments and result
# --------------------------------------------------------------------------

def _file_bytes(key: str, path_arg: int):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(args[path_arg])
    return hook


def _count_input_docs(tracer, args, kwargs, result):
    # filter_corpus consumes documents lazily; count them as they pass
    def counted(docs):
        for doc in docs:
            tracer.counts["corpus.filter_corpus.docs_in"] += 1
            yield doc
    return (counted(args[0]),) + args[1:], kwargs


def _bucket_entries(tracer, args, kwargs, result):
    tracer.counts["augment.bucket_entries"] += len(result)


def _features(tracer, args, kwargs, result):
    tracer.unique_texts.add(hash(args[1]))


def _adam_step(tracer, args, kwargs, result):
    # params, grad, m and v are read; params, m and v are written
    tracer.counts["training.adam_bytes"] += 7 * args[1].nbytes


def _mask(tracer, args, kwargs, result):
    n = result.shape[0]
    tracer.counts["training.masked_entries"] += int(result.sum())
    tracer.counts["training.offdiagonal_entries"] += n * (n - 1)


def _embed(tracer, args, kwargs, result):
    tracer.counts["training.embed_rows"] += len(args[1])


def _segment(tracer, args, kwargs, result):
    tracer.counts["retrieval.windows"] += len(result)
    tracer.unique_windows.update(hash(w) for w in result)


def _search(tracer, args, kwargs, result):
    scorer = kwargs.get("scorer", args[2] if len(args) > 2 else "bm25")
    tracer.counts[f"retrieval.search.{scorer}"] += 1


def _evaluate(tracer, args, kwargs, result):
    tracer.counts["evaluation.queries"] += len(result.per_query)


def _targets():
    """(owner, attribute, span name, hook) for every traced function."""
    from lexforge import augment, corpus, evaluation, fileio, querygen
    from lexforge import retrieval, testkit, training

    return [
        (testkit, "generate_corpus", "testkit.generate_corpus", None),
        (testkit, "generate_qrels", "testkit.generate_qrels", None),
        (fileio, "read_jsonl", "fileio.read_jsonl", None),
        (fileio, "write_jsonl", "fileio.write_jsonl", None),
        (fileio, "atomic_write_text", "fileio.atomic_write_text",
         _file_bytes("fileio.bytes_written", 0)),
        (corpus, "parse_case", "corpus.parse_case", None),
        (corpus, "filter_corpus", "corpus.filter_corpus", _count_input_docs),
        (querygen, "generate_query", "querygen.generate_query", None),
        (querygen.OfflineTemplateClient, "complete", "querygen.complete", None),
        (querygen, "anonymize", "querygen.anonymize", None),
        (augment, "build_element_index", "augment.build_element_index", None),
        (augment, "find_augmented_positive", "augment.find_augmented_positive", None),
        (augment.ElementIndex, "bucket", "augment.bucket", _bucket_entries),
        (training.ToyEmbedder, "features", "training.features", _features),
        (training.ToyEmbedder, "embed", "training.embed", _embed),
        (training, "_batch_gradient", "training.batch_gradient", None),
        (training.Adam, "step", "training.adam_step", _adam_step),
        (training, "cosine_matrix", "training.cosine_matrix", None),
        (training, "in_batch_loss", "training.in_batch_loss", None),
        (training, "false_negative_mask", "training.false_negative_mask", _mask),
        (training, "save_checkpoint", "training.save_checkpoint",
         _file_bytes("training.checkpoint_bytes", 1)),
        (training, "load_checkpoint", "training.load_checkpoint", None),
        (retrieval.Bm25Index, "build", "retrieval.bm25_index_build", None),
        (retrieval.Bm25Index, "save", "retrieval.bm25_index_save",
         _file_bytes("retrieval.index_bytes", 1)),
        (retrieval.Bm25Index, "load", "retrieval.bm25_index_load", None),
        (retrieval, "bm25_score", "retrieval.bm25_score", None),
        (retrieval, "dense_score", "retrieval.dense_score", None),
        (retrieval, "segment", "retrieval.segment", _segment),
        (retrieval, "search", "retrieval.search", _search),
        (evaluation, "evaluate_run", "evaluation.evaluate_run", _evaluate),
    ]


def install(tracer: Tracer) -> None:
    """Replace each target, and every lexforge name bound to it, by its wrapper."""
    modules = [m for name, m in sys.modules.items()
               if name == "lexforge" or name.startswith("lexforge.")]
    for owner, attr, name, hook in _targets():
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_traced(tracer, name, raw.__func__, hook)))
            continue
        wrapper = _traced(tracer, name, raw, hook)
        setattr(owner, attr, wrapper)
        if inspect.isclass(owner):
            continue
        # `from .fileio import atomic_write_text` and the like bind the
        # same function object under other modules; rebind those too
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapper)


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import lexforge.cli
    import_s = time.perf_counter() - started

    tracer = Tracer()
    install(tracer)
    try:
        return lexforge.cli.main(argv)
    finally:
        tracer.counts["training.features_unique_texts"] = len(tracer.unique_texts)
        tracer.counts["retrieval.unique_windows"] = len(tracer.unique_windows)
        tracer.write(prefix, import_s)


if __name__ == "__main__":
    sys.exit(main())
