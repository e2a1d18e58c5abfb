"""End-to-end pipeline through the command-line interface."""

import hashlib
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexforge import cli, fileio

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def _records(path):
    return [record for _, record in fileio.read_jsonl(path)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A fixture corpus plus every downstream artifact, built once."""
    root = tmp_path_factory.mktemp("pipeline")
    out = root / "data"
    assert run_cli("fixtures", "--out", out, "--n-cases", 150, "--n-queries", 6,
                   "--n-rulings", 5, "--n-short-facts", 4, "--seed", 11) == 0
    assert run_cli("extract", "--corpus", out / "corpus.jsonl",
                   "--elements", out / "elements.jsonl",
                   "--exclusions", out / "exclusions.jsonl") == 0
    assert run_cli("synthesize", "--corpus", out / "corpus.jsonl",
                   "--elements", out / "elements.jsonl",
                   "--output", out / "queries.jsonl", "--seed", 11) == 0
    assert run_cli("augment", "--queries", out / "queries.jsonl",
                   "--elements", out / "elements.jsonl",
                   "--output", out / "pairs.jsonl",
                   "--proportion", 0.7, "--seed", 11) == 0
    assert run_cli("train", "--pairs", out / "pairs.jsonl",
                   "--queries", out / "queries.jsonl",
                   "--corpus", out / "corpus.jsonl",
                   "--output", out / "toy.ckpt", "--curve", out / "loss.tsv",
                   "--epochs", 2, "--batch-size", 16, "--dim", 16,
                   "--hash-buckets", 2048, "--seed", 11) == 0
    assert run_cli("index", "--corpus", out / "corpus.jsonl",
                   "--output", out / "bm25.idx") == 0
    assert run_cli("search", "--queries", out / "eval_queries.jsonl",
                   "--corpus", out / "corpus.jsonl", "--pools", out / "pools.jsonl",
                   "--scorer", "bm25", "--k", 30,
                   "--output", out / "run_bm25.jsonl") == 0
    assert run_cli("search", "--queries", out / "eval_queries.jsonl",
                   "--corpus", out / "corpus.jsonl", "--pools", out / "pools.jsonl",
                   "--scorer", "dense", "--checkpoint", out / "toy.ckpt", "--k", 30,
                   "--output", out / "run_dense.jsonl") == 0
    assert run_cli("eval", "--run", out / "run_bm25.jsonl",
                   "--qrels", out / "qrels.jsonl",
                   "--output", out / "metrics_bm25.json", "--label", "bm25") == 0
    assert run_cli("eval", "--run", out / "run_dense.jsonl",
                   "--qrels", out / "qrels.jsonl",
                   "--output", out / "metrics_dense.json", "--label", "dense") == 0
    return out


class TestStageArtifacts:
    def test_fixture_files(self, workdir):
        for name in ("corpus.jsonl", "truth.jsonl", "pools.jsonl", "qrels.jsonl",
                     "eval_queries.jsonl"):
            assert (workdir / name).exists()

    def test_extract_funnel(self, workdir):
        elements = _records(workdir / "elements.jsonl")
        exclusions = _records(workdir / "exclusions.jsonl")
        assert len(elements) == 150
        reasons = sorted(e["reason"] for e in exclusions)
        assert reasons.count("RULING") == 5
        assert reasons.count("SHORT_FACT") == 4

    def test_pairs_mix(self, workdir):
        pairs = _records(workdir / "pairs.jsonl")
        assert len(pairs) == 150
        assert sum(1 for p in pairs if p["kind"] == "augmented") == int(0.7 * 150)

    def test_run_files_have_ranks(self, workdir):
        rows = _records(workdir / "run_bm25.jsonl")
        assert {r["scorer"] for r in rows} == {"bm25"}
        by_query = {}
        for row in rows:
            by_query.setdefault(row["query_id"], []).append(row)
        for entries in by_query.values():
            entries.sort(key=lambda r: r["rank"])
            scores = [r["score"] for r in entries]
            assert scores == sorted(scores, reverse=True)
            assert len(entries) == 30

    def test_metrics_payload(self, workdir):
        payload = json.loads((workdir / "metrics_bm25.json").read_text())
        assert payload["label"] == "bm25"
        for name in ("P@5", "P@10", "MAP", "NDCG@10", "NDCG@20", "NDCG@30"):
            assert 0.0 <= payload["macro"][name] <= 1.0

    def test_report_compares_runs(self, workdir, capsys):
        assert run_cli("report", workdir / "metrics_bm25.json",
                       workdir / "metrics_dense.json",
                       "--output", workdir / "report.txt") == 0
        table = (workdir / "report.txt").read_text()
        assert "bm25" in table and "dense" in table and "Δ dense" in table


class TestIndexSummary:
    def test_counts_docs_terms_postings_and_bytes(self, workdir, tmp_path, capsys):
        out = tmp_path / "bm25.idx"
        assert run_cli("index", "--corpus", workdir / "corpus.jsonl", "--output", out) == 0
        summary = capsys.readouterr().out
        assert re.fullmatch(r"index: 159 docs, [1-9]\d* terms, [1-9]\d* postings, "
                            rf"{out.stat().st_size} bytes\n", summary)


class TestTenQueryAugment:
    def test_seven_of_ten_augmented(self, workdir, tmp_path):
        queries = _records(workdir / "queries.jsonl")[:10]
        subset = tmp_path / "q10.jsonl"
        fileio.write_jsonl(subset, queries)
        out = tmp_path / "pairs10.jsonl"
        assert run_cli("augment", "--queries", subset,
                       "--elements", workdir / "elements.jsonl",
                       "--output", out, "--proportion", 0.7, "--seed", 3) == 0
        pairs = _records(out)
        assert len(pairs) == 10
        assert sum(1 for p in pairs if p["kind"] == "augmented") == 7

    def test_summary_counts_signatures_and_scores(self, workdir, tmp_path, capsys):
        queries = _records(workdir / "queries.jsonl")[:10]
        subset = tmp_path / "q10.jsonl"
        fileio.write_jsonl(subset, queries)
        assert run_cli("augment", "--queries", subset,
                       "--elements", workdir / "elements.jsonl",
                       "--output", tmp_path / "pairs10.jsonl", "--proportion", 1.0) == 0
        summary = capsys.readouterr().out
        assert re.fullmatch(r"augment: 10 pairs, 10 augmented, 0 fallbacks; "
                            r"[1-9]\d* signatures indexed, [1-9]\d* scores computed\n", summary)


class TestSynthesizeSummary:
    def test_counts_queries_and_lengths(self, workdir, tmp_path, capsys):
        assert run_cli("synthesize", "--corpus", workdir / "corpus.jsonl",
                       "--elements", workdir / "elements.jsonl",
                       "--output", tmp_path / "q.jsonl", "--limit", 3) == 0
        assert re.fullmatch(r"synthesize: 3 queries \(avg query \d+ chars "
                            r"vs avg fact \d+ chars\)\n", capsys.readouterr().out)

    def test_no_queries_still_prints_the_count(self, workdir, tmp_path, capsys):
        elements = tmp_path / "elements.jsonl"
        elements.write_text("", encoding="utf-8")
        assert run_cli("synthesize", "--corpus", workdir / "corpus.jsonl",
                       "--elements", elements, "--output", tmp_path / "q.jsonl") == 0
        assert capsys.readouterr().out == "synthesize: 0 queries\n"
        assert (tmp_path / "q.jsonl").read_bytes() == b""


class TestSearchSummary:
    def test_counts_skipped_pool_ids_and_queries(self, workdir, tmp_path, capsys):
        pools = _records(workdir / "pools.jsonl")
        pools[0]["candidate_ids"] += ["ghost-1", "ghost-2", "ghost-1"]
        pools[1]["candidate_ids"].append("ghost-1")
        dropped = pools.pop()
        path = tmp_path / "pools.jsonl"
        fileio.write_jsonl(path, pools)
        out = tmp_path / "run.jsonl"
        assert run_cli("search", "--queries", workdir / "eval_queries.jsonl",
                       "--corpus", workdir / "corpus.jsonl", "--pools", path,
                       "--output", out) == 0
        assert capsys.readouterr().out == (
            f"search: {len(pools)} queries, top-30 by bm25 (pool statistics); "
            "2 pool ids not in corpus, 1 queries without a pool\n")
        run = _records(out)
        assert dropped["query_id"] not in {r["query_id"] for r in run}
        assert not {"ghost-1", "ghost-2"} & {r["case_id"] for r in run}

    @pytest.mark.parametrize("flags,label", [
        (("--index", "bm25.idx"), "bm25 (corpus statistics)"),
        (("--scorer", "dense", "--checkpoint", "toy.ckpt"), "dense"),
    ])
    def test_names_the_scorer_and_scope(self, workdir, tmp_path, capsys, flags, label):
        flags = [workdir / f if f.endswith((".idx", ".ckpt")) else f for f in flags]
        assert run_cli("search", "--queries", workdir / "eval_queries.jsonl",
                       "--corpus", workdir / "corpus.jsonl", "--pools", workdir / "pools.jsonl",
                       *flags, "--output", tmp_path / "run.jsonl") == 0
        assert f" top-30 by {label}; 0 pool ids" in capsys.readouterr().out


class TestPooledSearch:
    """With ``--pools``, search keeps only the texts its pools name; the run
    is the one it wrote when it kept every text."""

    @pytest.mark.parametrize("flags", [
        (), ("--index", "bm25.idx"), ("--scorer", "dense", "--checkpoint", "toy.ckpt")])
    def test_run_equals_the_whole_corpus_run(self, workdir, tmp_path, capsys, monkeypatch,
                                             flags):
        flags = [workdir / f if f.endswith((".idx", ".ckpt")) else f for f in flags]
        pools = _records(workdir / "pools.jsonl")
        pools[0]["candidate_ids"].append("ghost-1")
        path = tmp_path / "pools.jsonl"
        fileio.write_jsonl(path, pools[1:] + pools[:1])
        argv = ("search", "--queries", workdir / "eval_queries.jsonl",
                "--corpus", workdir / "corpus.jsonl", "--pools", path, *flags)
        wanted = []
        real = cli._load_texts

        def load_texts(corpus, keep=None):
            wanted.append(keep)
            return real(corpus, keep)

        monkeypatch.setattr(cli, "_load_texts", load_texts)
        assert run_cli(*argv, "--output", tmp_path / "pooled.jsonl") == 0
        pooled_summary = capsys.readouterr().out
        assert wanted == [{cid for pool in pools for cid in pool["candidate_ids"]}]
        monkeypatch.setattr(cli, "_load_texts", lambda corpus, keep=None: real(corpus))
        assert run_cli(*argv, "--output", tmp_path / "whole.jsonl") == 0
        assert capsys.readouterr().out == pooled_summary
        assert "1 pool ids not in corpus" in pooled_summary
        assert (tmp_path / "pooled.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()


class TestIdentityRunEval:
    def test_ideal_ordering_scores_one(self, workdir, tmp_path):
        qrels_rows = _records(workdir / "qrels.jsonl")
        by_query = {}
        for row in qrels_rows:
            by_query.setdefault(row["query_id"], {})[row["case_id"]] = row["label"]
        run_rows = []
        for query_id, judged in by_query.items():
            ranked = sorted(judged, key=lambda c: (-judged[c], c))
            for rank, case_id in enumerate(ranked, start=1):
                run_rows.append({"query_id": query_id, "case_id": case_id,
                                 "rank": rank, "score": float(100 - rank),
                                 "scorer": "ideal"})
        run_path = tmp_path / "ideal_run.jsonl"
        fileio.write_jsonl(run_path, run_rows)
        out = tmp_path / "ideal_metrics.json"
        assert run_cli("eval", "--run", run_path, "--qrels", workdir / "qrels.jsonl",
                       "--output", out) == 0
        payload = json.loads(out.read_text())
        for name, value in payload["macro"].items():
            if name.startswith("NDCG"):
                assert value == pytest.approx(1.0)


#: The sha256 of the ``tiny`` pipeline's artifacts, by fixture seed, with
#: the Python, the numpy and BLAS build and the CPU code paths they were
#: made with (see :func:`_made_with`). A change that alters an artifact on
#: purpose updates the table and says which artifact changed and why.
PINNED = json.loads((Path(__file__).parent / "pinned_artifacts.json").read_text(encoding="utf-8"))


def _made_with() -> dict:
    """What this machine computes the artifacts with: the Python version
    (major.minor), whose float ``sum`` and ``math`` may round differently
    from one version to another; the numpy version and its BLAS build;
    numpy's enabled CPU dispatch targets, which pick the SIMD ``exp`` and
    ``log``; and the core OpenBLAS picked for this CPU, from the OpenBLAS
    bundled with numpy, or None where that library or its
    ``scipy_openblas_get_corename64_`` is absent."""
    import ctypes
    import sys

    import numpy as np
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return {"python": "{}.{}".format(*sys.version_info), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_dispatch": [t for t in __cpu_dispatch__ if __cpu_features__[t]],
            "openblas_core": core}


def _assert_pinned(sha256: dict[str, str], seed: int) -> None:
    """Each artifact has the sha256 pinned for its seed. Floating-point
    results, and so the checkpoint and every file after it, may differ
    with the numpy, the BLAS and the CPU code paths, so a failure names
    each recorded one that differs here, or says that none does. The pins
    hold only for the numpy and BLAS they were made with: on another, the
    test fails naming both."""
    here = _made_with()
    moved = [key for key in here if here[key] != PINNED[key]]
    cause = ("; ".join(f"{key} {PINNED[key]} (pinned) vs {here[key]} (here)" for key in moved)
             or f"no recorded field ({', '.join(here)}) differs here")
    pinned = PINNED["sha256"][str(seed)]
    differ = sorted(name for name in sha256.keys() | pinned.keys()
                    if sha256.get(name) != pinned.get(name))
    assert not differ, (f"seed {seed}: artifacts whose sha256 is not the pinned one: "
                        f"{differ}; {cause}")
    assert not {"numpy", "blas"} & set(moved), (
        f"the artifacts were pinned on another build: {cause}")


def _tiny_pipeline(root: Path, seed: int, hash_seed: str, threads: int) -> dict[str, bytes]:
    """The pipeline at the benchmark's ``tiny`` sizes, from ``fixtures`` to
    the last ``eval``, one process per stage under ``PYTHONHASHSEED`` =
    ``hash_seed``, with ``threads`` ``synthesize`` threads, in a new
    directory ``root``; every artifact it writes, by name."""
    import os
    import subprocess
    import sys
    root.mkdir()
    config, d = root / "pipeline.ini", root / "out"
    config.write_text("[segment]\nmax_len = 128\nstride = 64\n", encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    ckpt, idx = d / "toy.ckpt", d / "bm25.idx"
    search = ["search", "--queries", d / "eval_queries.jsonl",
              "--corpus", d / "corpus.jsonl", "--pools", d / "pools.jsonl"]
    stages = [
        ["fixtures", "--out", d, "--n-cases", 150, "--n-queries", 6, "--charges", 10,
         "--n-rulings", 5, "--n-short-facts", 4, "--seed", seed],
        ["extract", "--corpus", d / "corpus.jsonl", "--elements", d / "elements.jsonl",
         "--exclusions", d / "exclusions.jsonl"],
        ["synthesize", "--corpus", d / "corpus.jsonl", "--elements", d / "elements.jsonl",
         "--output", d / "queries.jsonl", "--max-in-flight", threads, "--seed", seed],
        ["augment", "--queries", d / "queries.jsonl", "--elements", d / "elements.jsonl",
         "--output", d / "pairs.jsonl", "--proportion", 0.7, "--seed", seed],
        ["train", "--pairs", d / "pairs.jsonl", "--queries", d / "queries.jsonl",
         "--corpus", d / "corpus.jsonl", "--output", ckpt, "--curve", d / "loss.tsv",
         "--epochs", 2, "--batch-size", 16, "--dim", 16, "--hash-buckets", 2048,
         "--seed", seed],
        ["index", "--corpus", d / "corpus.jsonl", "--output", idx],
        [*search, "--output", d / "run_bm25.jsonl"],
        [*search, "--index", idx, "--output", d / "run_bm25_index.jsonl"],
        [*search, "--scorer", "dense", "--checkpoint", ckpt,
         "--output", d / "run_dense.jsonl"],
    ] + [["eval", "--run", d / f"run_{run}.jsonl", "--qrels", d / "qrels.jsonl",
          "--output", d / f"metrics_{run}.json", "--label", run]
         for run in ("bm25", "bm25_index", "dense")]
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
    for argv in stages:
        subprocess.run([sys.executable, "-m", "lexforge.cli", "--config", config,
                        *map(str, argv)], env=env, check=True, capture_output=True)
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _sha256(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}


class TestDeterminism:
    def test_pipeline_reruns_are_byte_identical(self, tmp_path):
        outputs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            assert run_cli("fixtures", "--out", out, "--n-cases", 120,
                           "--n-queries", 4, "--seed", 21) == 0
            assert run_cli("extract", "--corpus", out / "corpus.jsonl",
                           "--elements", out / "elements.jsonl") == 0
            assert run_cli("synthesize", "--corpus", out / "corpus.jsonl",
                           "--elements", out / "elements.jsonl",
                           "--output", out / "queries.jsonl", "--seed", 21) == 0
            assert run_cli("augment", "--queries", out / "queries.jsonl",
                           "--elements", out / "elements.jsonl",
                           "--output", out / "pairs.jsonl", "--seed", 21) == 0
            assert run_cli("search", "--queries", out / "eval_queries.jsonl",
                           "--corpus", out / "corpus.jsonl",
                           "--pools", out / "pools.jsonl",
                           "--scorer", "bm25", "--output", out / "run.jsonl") == 0
            assert run_cli("eval", "--run", out / "run.jsonl",
                           "--qrels", out / "qrels.jsonl",
                           "--output", out / "metrics.json", "--label", "x") == 0
            outputs.append(out)
        a, b = outputs
        for name in ("corpus.jsonl", "queries.jsonl", "pairs.jsonl",
                     "run.jsonl", "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_artifacts_do_not_depend_on_hash_seed_or_threads(self, tmp_path):
        """The ``tiny`` pipeline at seed 7 (:func:`_tiny_pipeline`), once
        under ``PYTHONHASHSEED=0`` with one ``synthesize`` thread, once under
        ``PYTHONHASHSEED=1`` with four. Every artifact is byte-identical,
        so no string hash order and no thread timing reaches an output, and
        has the sha256 pinned in ``pinned_artifacts.json`` (``PINNED``)."""
        a, b = (_tiny_pipeline(tmp_path / f"hash{hash_seed}", 7, hash_seed, threads)
                for hash_seed, threads in (("0", 1), ("1", 4)))
        assert len(a) == 18 and {"toy.ckpt", "loss.tsv", "bm25.idx"} <= set(a)
        assert list(a) == list(b)
        assert [name for name in a if a[name] != b[name]] == []
        _assert_pinned(_sha256(a), 7)

    def test_a_second_seed_keeps_its_pins(self, tmp_path):
        """The ``tiny`` pipeline at seed 8, run once: every artifact has the
        sha256 pinned for that seed, so the pins cover more than one draw
        of the fixtures, pairs and weights."""
        _assert_pinned(_sha256(_tiny_pipeline(tmp_path / "seed8", 8, "0", 1)), 8)

    def test_rerun_overwrites_atomically(self, tmp_path):
        out = tmp_path / "data"
        for _ in range(2):
            assert run_cli("fixtures", "--out", out, "--n-cases", 110,
                           "--n-queries", 3, "--seed", 5) == 0
        leftovers = [p for p in out.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


#: Runs a lexforge command, argv[3:], that fails partway through one of its
#: outputs, the file argv[1]: once the command opens that output's temp
#: file, every file it writes is capped at argv[2] bytes, so the outputs
#: written before it are whole and a write past the cap fails with EFBIG
#: (Python ignores SIGXFSZ).
_CAPPED = ("import os, resource, sys\n"
           "name, cap = os.path.basename(sys.argv[1]) + '.', int(sys.argv[2])\n"
           "def cap_at(event, args):\n"
           "    if event == 'open' and isinstance(args[0], (str, os.PathLike)):\n"
           "        base = os.path.basename(args[0])\n"
           "        if base.startswith(name) and base.endswith('.tmp'):\n"
           "            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
           "            resource.setrlimit(resource.RLIMIT_FSIZE, (cap, hard))\n"
           "sys.addaudithook(cap_at)\n"
           "from lexforge.cli import main\n"
           "sys.exit(main(sys.argv[3:]))\n")


def _run_capped(output: Path, cap: int, argv: list) -> tuple[int, str]:
    """The exit code and stderr of a lexforge command run under
    ``_CAPPED``, its file ``output`` capped at ``cap`` bytes."""
    import os
    import subprocess
    import sys
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", _CAPPED, str(output), str(cap),
                           *map(str, argv)], env=env, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stderr


def _writers(w, d):
    """(target, argv, the file whose size the target's new content has):
    each stage's output, and train's ``--curve``, written into d from the
    workdir's inputs."""
    search = ["search", "--queries", w / "eval_queries.jsonl", "--corpus", w / "corpus.jsonl",
              "--pools", w / "pools.jsonl", "--scorer", "bm25", "--k", 30]
    train = ["train", "--pairs", w / "pairs.jsonl", "--queries", w / "queries.jsonl",
             "--corpus", w / "corpus.jsonl", "--output", d / "toy.ckpt",
             "--epochs", 2, "--batch-size", 16, "--dim", 16, "--hash-buckets", 2048,
             "--seed", 11]
    return {
        "fixtures": ("corpus.jsonl", ["fixtures", "--out", d, "--n-cases", 150,
                                      "--n-queries", 6, "--n-rulings", 5,
                                      "--n-short-facts", 4, "--seed", 11], w / "corpus.jsonl"),
        "extract": ("elements.jsonl", ["extract", "--corpus", w / "corpus.jsonl",
                                       "--elements", d / "elements.jsonl",
                                       "--exclusions", d / "exclusions.jsonl"],
                    w / "elements.jsonl"),
        "synthesize": ("queries.jsonl", ["synthesize", "--corpus", w / "corpus.jsonl",
                                         "--elements", w / "elements.jsonl",
                                         "--output", d / "queries.jsonl", "--seed", 11],
                       w / "queries.jsonl"),
        "augment": ("pairs.jsonl", ["augment", "--queries", w / "queries.jsonl",
                                    "--elements", w / "elements.jsonl",
                                    "--output", d / "pairs.jsonl", "--proportion", 0.7,
                                    "--seed", 11], w / "pairs.jsonl"),
        "checkpoint": ("toy.ckpt", train, w / "toy.ckpt"),
        "curve": ("loss.tsv", train + ["--curve", d / "loss.tsv"], w / "loss.tsv"),
        "index": ("bm25.idx", ["index", "--corpus", w / "corpus.jsonl",
                               "--output", d / "bm25.idx"], w / "bm25.idx"),
        "search": ("run.jsonl", search + ["--output", d / "run.jsonl"], w / "run_bm25.jsonl"),
        "eval": ("metrics.json", ["eval", "--run", w / "run_bm25.jsonl",
                                  "--qrels", w / "qrels.jsonl", "--output", d / "metrics.json",
                                  "--label", "bm25"], w / "metrics_bm25.json"),
        "report": ("report.txt", ["report", w / "metrics_bm25.json", w / "metrics_dense.json",
                                  "--output", d / "report.txt"], d / "report_full.txt"),
    }


class TestAtomicWriters:
    @pytest.mark.parametrize("writer", ["fixtures", "extract", "synthesize", "augment",
                                        "checkpoint", "curve", "index", "search", "eval",
                                        "report"])
    def test_a_write_that_fails_partway_keeps_the_earlier_file(self, workdir, tmp_path,
                                                               writer):
        """Each writer, its file capped at half the size it writes, fails
        partway through that file, as a data error of one line that names
        the file; the earlier file there is left as it was, and no temp
        file is left behind. ``train``'s checkpoint, written whole before
        its curve fails, is not committed either."""
        d = tmp_path / "out"
        d.mkdir()
        target, argv, full = _writers(workdir, d)[writer]
        if writer == "report":
            assert run_cli(*argv[:-1], full) == 0
        cap = full.stat().st_size // 2
        earlier = "an earlier file\n".encode("utf-8")
        (d / target).write_bytes(earlier)
        if writer == "curve":
            (d / "toy.ckpt").write_bytes(earlier)
        assert _run_capped(d / target, cap, argv) == (
            cli.EXIT_DATA, f"data error: {d / target}: File too large\n")
        assert (d / target).read_bytes() == earlier
        assert [p.name for p in d.iterdir() if p.name.endswith(".tmp")] == []
        if writer == "curve":  # written whole, but not committed without the curve
            assert (d / "toy.ckpt").read_bytes() == earlier


def _commands(w, d):
    """The 11 commands of the ``tiny`` pipeline, each reading its inputs
    from the workdir w and writing into d."""
    search = ["search", "--queries", w / "eval_queries.jsonl", "--corpus", w / "corpus.jsonl",
              "--pools", w / "pools.jsonl", "--output", d / "run.jsonl"]
    return {
        "fixtures": ["fixtures", "--out", d, "--n-cases", 150, "--n-queries", 6],
        "extract": ["extract", "--corpus", w / "corpus.jsonl", "--elements", d / "el.jsonl"],
        "synthesize": ["synthesize", "--corpus", w / "corpus.jsonl",
                       "--elements", w / "elements.jsonl", "--output", d / "q.jsonl"],
        "augment": ["augment", "--queries", w / "queries.jsonl",
                    "--elements", w / "elements.jsonl", "--output", d / "p.jsonl"],
        "train": ["train", "--pairs", w / "pairs.jsonl", "--queries", w / "queries.jsonl",
                  "--corpus", w / "corpus.jsonl", "--output", d / "t.ckpt", "--dim", 4,
                  "--hash-buckets", 64],
        "index": ["index", "--corpus", w / "corpus.jsonl", "--output", d / "bm25.idx"],
        "search": search,
        "search --index": search + ["--index", w / "bm25.idx"],
        "search dense": search + ["--scorer", "dense", "--checkpoint", w / "toy.ckpt"],
        "eval": ["eval", "--run", w / "run_bm25.jsonl", "--qrels", w / "qrels.jsonl",
                 "--output", d / "m.json"],
        "report": ["report", w / "metrics_bm25.json", w / "metrics_dense.json"],
    }


#: The file inputs of each command of :func:`_commands`, by flag; ``metrics``
#: is ``report``'s first positional file. Every command reads ``--config``.
_INPUTS = {
    "fixtures": [],
    "extract": ["--corpus"],
    "synthesize": ["--corpus", "--elements"],
    "augment": ["--queries", "--elements"],
    "train": ["--pairs", "--queries", "--corpus"],
    "index": ["--corpus"],
    "search": ["--queries", "--corpus", "--pools"],
    "search --index": ["--queries", "--corpus", "--pools", "--index"],
    "search dense": ["--queries", "--corpus", "--pools", "--checkpoint"],
    "eval": ["--run", "--qrels"],
    "report": ["metrics"],
}


#: The outputs of each command of :func:`_commands`, by flag, added if the
#: command has none; a file name is one that ``fixtures`` writes into its
#: ``--out``.
_OUTPUTS = {
    "fixtures": ["corpus.jsonl", "truth.jsonl", "pools.jsonl", "qrels.jsonl",
                 "eval_queries.jsonl"],
    "extract": ["--elements", "--exclusions"],
    "synthesize": ["--output"],
    "augment": ["--output"],
    "train": ["--output", "--curve"],
    "index": ["--output"],
    "search": ["--output"],
    "search --index": ["--output"],
    "search dense": ["--output"],
    "eval": ["--output"],
    "report": ["--output"],
}


def _with_every_output(w, d, command) -> tuple[list, list[Path]]:
    """The command of :func:`_commands` with every output of ``_OUTPUTS``
    given, an output it does not name written into d; and the output
    paths, in ``_OUTPUTS`` order."""
    argv, paths = _commands(w, d)[command], []
    for name in _OUTPUTS[command]:
        if not name.startswith("--"):
            paths.append(d / name)
        elif name in argv:
            paths.append(Path(argv[argv.index(name) + 1]))
        else:
            paths.append(d / name.lstrip("-"))
            argv = [*argv, name, paths[-1]]
    return argv, paths


def _given(argv: list, flag: str, path: Path) -> list:
    """argv with ``path`` as the file input ``flag`` (see ``_INPUTS``)."""
    if flag == "--config":
        return ["--config", path, *argv]
    at = 0 if flag == "metrics" else argv.index(flag)
    return [*argv[:at + 1], path, *argv[at + 2:]]


class TestSystemErrors:
    """An input or output the operating system refuses is a data error of
    one line that names the path and the system's reason."""

    def _one_line(self, capsys, *argv):
        assert run_cli(*argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def test_missing_input(self, workdir, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        err = self._one_line(capsys, "extract", "--corpus", missing,
                             "--elements", tmp_path / "el.jsonl")
        assert err == f"data error: {missing}: No such file or directory\n"

    def _a_directory_as(self, workdir, tmp_path, capsys, command, flag):
        argv = _given(_commands(workdir, tmp_path / "out")[command], flag, tmp_path)
        assert self._one_line(capsys, *argv) == f"data error: {tmp_path}: Is a directory\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", _INPUTS["train"])
    def test_a_directory_as_input(self, workdir, tmp_path, capsys, flag):
        self._a_directory_as(workdir, tmp_path, capsys, "train", flag)

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=f"{command} {flag}")
        for command, flags in _INPUTS.items()
        for flag in ["--config", *flags] if command != "train" or flag == "--config"])
    def test_a_directory_as_any_other_input(self, workdir, tmp_path, capsys, command, flag):
        """Every other file input of every command, ``--config`` included:
        train's own inputs are :meth:`test_a_directory_as_input`."""
        self._a_directory_as(workdir, tmp_path, capsys, command, flag)

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=f"{command} {flag}")
        for command, flags in _INPUTS.items() for flag in ["--config", *flags]])
    def test_a_missing_file_as_any_input(self, workdir, tmp_path, capsys, command, flag):
        """Every file input of every command; a missing ``--config`` is the
        usage error the README documents."""
        missing = tmp_path / "nope"
        argv = _given(_commands(workdir, tmp_path / "out")[command], flag, missing)
        if flag == "--config":
            assert run_cli(*argv) == cli.EXIT_USAGE
            assert capsys.readouterr().err == f"usage error: config file not found: {missing}\n"
        else:
            assert self._one_line(capsys, *argv) == (
                f"data error: {missing}: No such file or directory\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, output", [
        pytest.param(command, output, id=f"{command} {output}")
        for command, outputs in _OUTPUTS.items() for output in outputs])
    def test_a_directory_as_any_output(self, workdir, tmp_path, capsys, command, output):
        """Every output of every command, ``--curve``, ``--exclusions`` and
        ``report --output`` included; the directory is left as it was, no
        temp file is left beside it, and every other output of the command,
        before or after it, keeps its earlier bytes."""
        argv, paths = _with_every_output(workdir, tmp_path / "out", command)
        target = paths[_OUTPUTS[command].index(output)]
        others = [path for path in paths if path != target]
        target.mkdir(parents=True)
        (target / "kept").write_text("kept\n")
        earlier = "an earlier file\n".encode("utf-8")
        for path in others:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(earlier)
        err = self._one_line(capsys, *argv)
        assert err == f"data error: {target}: Is a directory\n"
        assert [p.name for p in target.iterdir()] == ["kept"]
        assert (target / "kept").read_text() == "kept\n"
        assert [p.read_bytes() for p in others] == [earlier] * len(others)
        assert [p.name for p in target.parent.iterdir() if p.name.endswith(".tmp")] == []

    def test_a_directory_as_output(self, workdir, tmp_path, capsys):
        (tmp_path / "m.json").mkdir()
        err = self._one_line(capsys, "eval", "--run", workdir / "run_bm25.jsonl",
                             "--qrels", workdir / "qrels.jsonl", "--output", tmp_path / "m.json")
        assert err == f"data error: {tmp_path / 'm.json'}: Is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_a_full_disk(self, workdir, tmp_path, capsys, monkeypatch):
        real_open = open

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(fileio, "open", lambda name, mode: (
            FullDisk(real_open(name, mode)) if "w" in mode else real_open(name, mode)),
            raising=False)
        out = tmp_path / "el.jsonl"
        err = self._one_line(capsys, "extract", "--corpus", workdir / "corpus.jsonl",
                             "--elements", out)
        assert err == f"data error: {out}: No space left on device\n"
        assert list(tmp_path.iterdir()) == []


class TestStageCommit:
    """A stage commits all of its outputs or none: an output that fails,
    as a directory (:meth:`TestSystemErrors.test_a_directory_as_any_output`)
    or partway through its write, leaves every output of the stage as it
    was, before or after the failing one."""

    @pytest.mark.parametrize("command, k", [
        pytest.param(command, k, id=f"{command} {output}")
        for command, outputs in _OUTPUTS.items() if len(outputs) > 1
        for k, output in enumerate(outputs)])
    def test_a_write_that_fails_partway_keeps_every_output(self, workdir, tmp_path, command,
                                                          k):
        """Output k fails under a file-size cap of half its full size, set
        as its temp file is opened, after every output before it is written
        whole: a data error of one line naming output k, every output
        byte-equal to its earlier content, and no temp file."""
        argv, full = _with_every_output(workdir, tmp_path / "full", command)
        assert run_cli(*argv) == cli.EXIT_OK
        assert full[k].stat().st_size > 1
        argv, paths = _with_every_output(workdir, tmp_path / "out", command)
        paths[0].parent.mkdir()
        for i, path in enumerate(paths):
            path.write_bytes(f"an earlier file {i}\n".encode("utf-8"))
        earlier = [path.read_bytes() for path in paths]
        assert _run_capped(paths[k], full[k].stat().st_size // 2, argv) == (
            cli.EXIT_DATA, f"data error: {paths[k]}: File too large\n")
        assert [path.read_bytes() for path in paths] == earlier
        assert [p.name for p in paths[0].parent.iterdir() if p.name.endswith(".tmp")] == []

    @pytest.mark.parametrize("command", list(_OUTPUTS))
    def test_every_temp_file_is_whole_at_the_first_rename(self, workdir, tmp_path,
                                                          monkeypatch, command):
        """When a command renames its first temp file into place, the temp
        file of every one of its outputs is there, with its final bytes."""
        import os
        argv, paths = _with_every_output(workdir, tmp_path / "out", command)
        real_replace, at_first = os.replace, {}

        def replace(src, dst):
            if not at_first:
                at_first.update((temp, temp.read_bytes())
                                for temp in (tmp_path / "out").glob("*.tmp"))
            real_replace(src, dst)

        monkeypatch.setattr(fileio.os, "replace", replace)
        assert run_cli(*argv) == cli.EXIT_OK
        final = {temp: temp.with_name(temp.name.rsplit(".", 2)[0]) for temp in at_first}
        assert sorted(final.values()) == sorted(paths)
        assert [temp.name for temp in at_first if at_first[temp] != final[temp].read_bytes()] == []


class TestTruncatedInput:
    """A JSONL input whose last record is cut short, with no newline after
    it, is a data error of one line that names the file and that line."""

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=f"{command} {flag}")
        for command, flags in _INPUTS.items() for flag in flags
        if flag not in ("--index", "--checkpoint", "metrics")])
    def test_a_cut_last_line(self, workdir, tmp_path, capsys, command, flag):
        argv = _commands(workdir, tmp_path / "out")[command]
        source = Path(argv[argv.index(flag) + 1])
        lines = source.read_text(encoding="utf-8").splitlines()
        cut = tmp_path / source.name
        cut.write_text("\n".join(lines[:-1] + [lines[-1][:len(lines[-1]) // 2]]),
                       encoding="utf-8")
        assert run_cli(*_given(argv, flag, cut)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"data error: {cut}:{len(lines)}: ")
        assert not (tmp_path / "out").exists()


class TestNonUtf8Input:
    """A byte that is not UTF-8 in a JSONL input is a data error naming the
    file, the line and the byte, and so is an escape of a code point that
    UTF-8 cannot encode; in the config file, a usage error naming the
    file."""

    @pytest.mark.parametrize("name,argv", [
        ("pairs.jsonl", ["train", "--pairs", "pairs.jsonl", "--queries", "queries.jsonl",
                         "--corpus", "corpus.jsonl", "--output", "out"]),
        ("queries.jsonl", ["train", "--pairs", "pairs.jsonl", "--queries", "queries.jsonl",
                           "--corpus", "corpus.jsonl", "--output", "out"]),
        ("corpus.jsonl", ["train", "--pairs", "pairs.jsonl", "--queries", "queries.jsonl",
                          "--corpus", "corpus.jsonl", "--output", "out"]),
        ("pools.jsonl", ["search", "--queries", "eval_queries.jsonl", "--corpus",
                         "corpus.jsonl", "--pools", "pools.jsonl", "--output", "out"]),
    ])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_a_bad_byte_names_file_line_and_byte(self, workdir, tmp_path, capsys, name,
                                                 argv, newline):
        lines = (workdir / name).read_bytes().splitlines()
        lines[2] = b'{"' + b"\xff" + lines[2][1:]
        bad = tmp_path / name
        bad.write_bytes(newline.join(lines) + newline)
        files = {arg: workdir / arg for arg in argv if arg.endswith(".jsonl")}
        files |= {name: bad, "out": tmp_path / "out"}
        assert run_cli(*(files.get(arg, arg) for arg in argv)) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {bad}:3: not UTF-8 at byte 3\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=f"{command} {flag}")
        for command, flags in _INPUTS.items() for flag in flags
        if flag not in ("--index", "--checkpoint")])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_bad_byte_on_any_line_of_any_input(self, workdir, tmp_path, capsys, command,
                                                 flag, data):
        """A byte from 0x80 to 0xFF put between two characters of a line
        that hypothesis picks, in each JSONL input of every command, is one
        line naming the file, the line and the byte within the line; in
        ``report``'s JSON metrics file, the file and the byte within it."""
        argv = _commands(workdir, tmp_path / "out")[command]
        source = Path(argv[1] if flag == "metrics" else argv[argv.index(flag) + 1])
        lines = source.read_text(encoding="utf-8").split("\n")[:-1]
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        at = data.draw(st.integers(0, len(lines[i])), label="character")
        head = "".join(line + "\n" for line in lines[:i]).encode("utf-8")
        before = lines[i][:at].encode("utf-8")
        bad = tmp_path / source.name
        bad.write_bytes(head + before + bytes([data.draw(st.integers(0x80, 0xFF), label="byte")])
                        + source.read_bytes()[len(head) + len(before):])
        assert run_cli(*_given(argv, flag, bad)) == cli.EXIT_DATA
        where = (f"{bad}: not UTF-8 at byte {len(head) + len(before) + 1}" if flag == "metrics"
                 else f"{bad}:{i + 1}: not UTF-8 at byte {len(before) + 1}")
        assert capsys.readouterr().err == f"data error: {where}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=f"{command} {flag}")
        for command, flags in _INPUTS.items() for flag in flags
        if flag not in ("--index", "--checkpoint", "metrics")])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_lone_surrogate_escape_on_any_line_of_any_input(self, workdir, tmp_path, capsys,
                                                              command, flag, data):
        """A ``\\u`` escape of a lone surrogate, which no UTF-8 text holds,
        put into a string field of a line that hypothesis picks, in each
        JSONL input of every command, is one line naming the file, the line
        and the escape."""
        argv = _commands(workdir, tmp_path / "out")[command]
        source = Path(argv[argv.index(flag) + 1])
        lines = source.read_text(encoding="utf-8").split("\n")[:-1]
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        record = json.loads(lines[i])
        field = data.draw(st.sampled_from(sorted(k for k, v in record.items()
                                                 if isinstance(v, str))), label="field")
        at = data.draw(st.integers(0, len(record[field])), label="character")
        lone = chr(data.draw(st.integers(0xD800, 0xDFFF), label="surrogate"))
        record[field] = record[field][:at] + lone + record[field][at:]
        lines[i] = json.dumps(record, ensure_ascii=False).replace(lone, f"\\u{ord(lone):04x}")
        bad = tmp_path / source.name
        bad.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert run_cli(*_given(argv, flag, bad)) == cli.EXIT_DATA
        assert capsys.readouterr().err == (f"data error: {bad}:{i + 1}: lone surrogate escape "
                                           f"\\u{ord(lone):04x} in a string\n")
        assert not (tmp_path / "out").exists()

    def test_a_lone_surrogate_escape_in_a_metrics_file(self, workdir, tmp_path, capsys):
        """``report`` reads its metrics files whole: an escape of a lone
        surrogate in one's label is one line naming the file and the
        escape."""
        argv = _commands(workdir, tmp_path / "out")["report"]
        payload = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        payload["label"] = "bm25\udc00"
        bad = tmp_path / "metrics.json"
        bad.write_text(json.dumps(payload), encoding="ascii")  # the label as an escape
        assert run_cli(*_given(argv, "metrics", bad)) == cli.EXIT_DATA
        assert capsys.readouterr().err == (f"data error: {bad}: lone surrogate escape \\udc00 "
                                           "in a string\n")

    def test_crlf_lines_are_numbered_as_lf_lines(self, tmp_path):
        for newline in (b"\n", b"\r\n"):
            path = tmp_path / "x.jsonl"
            path.write_bytes(newline.join([b'{"a": 1}', b"", b'{"b": 2}', b"[3]"]) + newline)
            read = fileio.read_jsonl(path)
            assert [next(read), next(read)] == [(1, {"a": 1}), (3, {"b": 2})]
            with pytest.raises(cli.MalformedRecord, match=":4: expected an object"):
                next(read)

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "pipeline.ini"
        config.write_bytes(b"[bm25]\nk1 = 1.\xe9\n")
        assert run_cli("--config", config, "report", tmp_path / "m.json") == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {config}: not UTF-8 at byte 15\n"


class TestTrainInputs:
    """``train`` streams the queries and the corpus: a repeated id keeps its
    last record's text, and every record is parsed, with the errors in the
    order of the inputs."""

    def _train(self, workdir, out, queries=None, corpus=None, pairs=None):
        return run_cli("train", "--pairs", pairs or workdir / "pairs.jsonl",
                       "--queries", queries or workdir / "queries.jsonl",
                       "--corpus", corpus or workdir / "corpus.jsonl",
                       "--output", out / "toy.ckpt", "--curve", out / "loss.tsv",
                       "--epochs", 2, "--batch-size", 16, "--dim", 16,
                       "--hash-buckets", 2048, "--seed", 11)

    @pytest.mark.parametrize("name,key,blank,other", [
        ("queries.jsonl", "query_id", {"text": " "}, {"text": "另一段查询文字"}),
        ("corpus.jsonl", "case_id", {"fact": "", "reason": " ", "judgment": ""},
         {"fact": "另一段案件事实", "reason": "", "judgment": ""})])
    def test_a_repeated_id_keeps_its_last_text(self, workdir, tmp_path, name, key, blank,
                                               other):
        """A record of a paired id with no n-gram, before the id's own
        record, changes nothing; another record after it trains as a file
        with that record in its place."""
        records = _records(workdir / name)
        paired = {r["query_id" if key == "query_id" else "positive_case_id"]
                  for r in _records(workdir / "pairs.jsonl")}
        at = next(i for i, r in enumerate(records) if r[key] in paired)
        flag = {name.split(".")[0]: tmp_path / name}
        runs = {"before": [{**records[at], **blank}] + records,
                "after": records + [{**records[at], **other}],
                "replaced": records[:at] + [{**records[at], **other}] + records[at + 1:]}
        for run, lines in runs.items():
            fileio.write_jsonl(tmp_path / name, lines)
            assert self._train(workdir, tmp_path / run, **flag) == 0
        for artifact in ("toy.ckpt", "loss.tsv"):
            assert (tmp_path / "before" / artifact).read_bytes() == (
                workdir / artifact).read_bytes()
            assert (tmp_path / "after" / artifact).read_bytes() == (
                tmp_path / "replaced" / artifact).read_bytes()
        assert (tmp_path / "after" / "toy.ckpt").read_bytes() != (
            workdir / "toy.ckpt").read_bytes()

    def test_errors_come_in_input_order(self, workdir, tmp_path, capsys):
        """A bad queries line before a bad corpus line; a bad corpus line no
        pair names; a pair id in no input before an earlier pair's text with
        no n-gram."""
        queries, corpus = _records(workdir / "queries.jsonl"), _records(workdir / "corpus.jsonl")
        pairs = _records(workdir / "pairs.jsonl")
        paths = {name: tmp_path / name for name in ("queries.jsonl", "corpus.jsonl",
                                                    "pairs.jsonl")}

        def error(q=queries, c=corpus, p=pairs):
            for name, records in zip(paths, (q, c, p)):
                fileio.write_jsonl(paths[name], records)
            assert self._train(workdir, tmp_path / "out", *paths.values()) == cli.EXIT_DATA
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and not (tmp_path / "out").exists()
            return err

        no_text = [dict(queries[0])] + queries[1:]
        del no_text[0]["text"]
        no_id = corpus[:-1] + [{k: v for k, v in corpus[-1].items() if k != "case_id"}]
        q, c = paths["queries.jsonl"], paths["corpus.jsonl"]
        assert error(q=no_text, c=no_id) == f"data error: {q}:1: missing field 'text'\n"
        named = {r["positive_case_id"] for r in pairs}
        outside = next(i for i, r in enumerate(corpus) if r["case_id"] not in named)
        no_fact = corpus[:outside] + [{k: v for k, v in corpus[outside].items()
                                       if k != "fact"}] + corpus[outside + 1:]
        assert error(c=no_fact).startswith(f"data error: {c}:{outside + 1}: ")
        blank = {pairs[0]["query_id"]}
        featureless = [{**r, "text": " "} if r["query_id"] in blank else r for r in queries]
        ghost = pairs[:5] + [{**pairs[5], "positive_case_id": "ghost-1"}] + pairs[6:]
        assert error(q=featureless, p=ghost) == (
            f"data error: {paths['pairs.jsonl']}:6: field 'positive_case_id': 'ghost-1' "
            f"not in {c}\n")
        assert error(q=featureless) == (
            f"data error: {paths['pairs.jsonl']}:1: field 'query_id': the text of "
            f"{pairs[0]['query_id']!r} has no character n-gram to embed\n")


    def test_the_stage_trains_as_train_toy_on_the_pairs_texts(self, workdir, tmp_path):
        """The workdir's ``train`` checkpoint is byte-equal to the one
        ``train_toy`` writes, with the same schedule, from a training set
        that ``oracles.training_set`` builds from each pair's query text,
        the ``case_text`` of its case and its charges: the set the stage
        streams from its files and the one tests build feed training the
        same data."""
        from oracles import training_set

        from lexforge import training
        from lexforge.corpus import case_text, parse_case

        queries = {r["query_id"]: r["text"] for r in _records(workdir / "queries.jsonl")}
        cases = {r["case_id"]: case_text(parse_case(r))
                 for r in _records(workdir / "corpus.jsonl")}
        pairs = [(queries[r["query_id"]], cases[r["positive_case_id"]],
                  r["positive_charges"]) for r in _records(workdir / "pairs.jsonl")]
        embedder = training.ToyEmbedder(dim=16, hash_buckets=2048, seed=11)
        training.train_toy(training_set(pairs, embedder), embedder,
                           training.TrainSchedule(epochs=2, batch_size=16, seed=11))
        training.save_checkpoint(embedder, tmp_path / "toy.ckpt")
        assert len(pairs) > 100
        assert (tmp_path / "toy.ckpt").read_bytes() == (workdir / "toy.ckpt").read_bytes()

    @pytest.mark.parametrize("rows", ["one", "more than any text"])
    def test_the_adam_block_does_not_change_the_checkpoint(self, workdir, tmp_path,
                                                           monkeypatch, rows):
        """Adam updates a block of rows at a time, and the backward scatter
        adds each text's term in pieces of at most one block: blocks of one
        row, and one block larger than every text's buckets, write the
        bytes of the default blocks."""
        from lexforge import training

        dim = 16
        monkeypatch.setattr(training, "ADAM_BLOCK", dim if rows == "one" else 2049 * dim)
        assert self._train(workdir, tmp_path) == 0
        for artifact in ("toy.ckpt", "loss.tsv"):
            assert (tmp_path / artifact).read_bytes() == (workdir / artifact).read_bytes()


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate") == 1

    def test_pairs_stage_is_gone(self, tmp_path):
        assert run_cli("pairs", "--pools", "pools.jsonl", "--qrels", "qrels.jsonl",
                       "--output", tmp_path / "triplets.jsonl") == cli.EXIT_USAGE
        assert not (tmp_path / "triplets.jsonl").exists()

    def test_missing_required_flag_is_usage_error(self):
        assert run_cli("extract", "--corpus", "x.jsonl") == 1

    def test_unknown_tokenizer_is_usage_error(self, workdir, tmp_path, capsys):
        assert run_cli("index", "--corpus", workdir / "corpus.jsonl",
                       "--output", tmp_path / "bm25.idx",
                       "--tokenizer", "nope") == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: argument --tokenizer: invalid choice: 'nope' "
            "(choose from 'char_bigram', 'whitespace')\n")
        assert not (tmp_path / "bm25.idx").exists()

    @pytest.mark.parametrize("seed", [-1, 1 << 63])
    def test_a_seed_outside_the_range_is_usage_error(self, tmp_path, capsys, seed):
        """Reported before any input is read: none of these inputs exists."""
        missing = tmp_path / "nope.jsonl"
        assert run_cli("train", "--pairs", missing, "--queries", missing, "--corpus", missing,
                       "--output", tmp_path / "t.ckpt", "--seed", seed) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: --seed = {seed}: seed must be in [0, 2**63)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("raw,escape", [(b"a\xff", "\\udcff"), (b"\xe5\x88", "\\udce5")])
    def test_a_label_that_is_not_utf8_is_usage_error(self, workdir, tmp_path, capsys, raw,
                                                     escape):
        """Python decodes a byte of argv that is not UTF-8 to a lone
        surrogate, as ``os.fsdecode`` does here; it is refused before any
        input is read or output written."""
        import os
        label = os.fsdecode(raw)
        assert run_cli("eval", "--run", workdir / "run_bm25.jsonl",
                       "--qrels", workdir / "qrels.jsonl", "--output", tmp_path / "m.json",
                       "--label", label) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (f"usage error: --label = {label!r}: lone surrogate "
                                           f"{escape}, from a byte that is not UTF-8\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli("extract", "--corpus", tmp_path / "nope.jsonl",
                       "--elements", tmp_path / "el.jsonl") == 2

    def test_a_key_error_is_a_bug_not_a_data_error(self, workdir, tmp_path, monkeypatch):
        # every loader names the file and line of a missing field itself
        def lookup_fails(*args, **kwargs):
            raise KeyError("q-1")

        monkeypatch.setattr("lexforge.evaluation.evaluate_run", lookup_fails)
        with pytest.raises(KeyError):
            run_cli("eval", "--run", workdir / "run_bm25.jsonl",
                    "--qrels", workdir / "qrels.jsonl", "--output", tmp_path / "m.json")

    def _data_error(self, capsys, *argv):
        assert run_cli(*argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error: ")
        return err

    def test_too_few_cases_is_data_error(self, tmp_path, capsys):
        err = self._data_error(capsys, "fixtures", "--out", tmp_path / "d",
                               "--n-cases", 50, "--n-queries", 3)
        assert "need at least 100 valid cases for a pool, have 50" in err

    @pytest.mark.parametrize("n_pairs,expected", [
        (0, "0 training pairs"), (1, "1 training pair: a batch needs two")])
    def test_too_few_pairs_is_data_error(self, workdir, tmp_path, capsys, n_pairs, expected):
        lines = (workdir / "pairs.jsonl").read_text(encoding="utf-8").splitlines(True)
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("".join(lines[:n_pairs]), encoding="utf-8")
        err = self._data_error(capsys, "train", "--pairs", pairs,
                               "--queries", workdir / "queries.jsonl",
                               "--corpus", workdir / "corpus.jsonl",
                               "--output", tmp_path / "t.ckpt", "--dim", 4,
                               "--hash-buckets", 64)
        assert expected in err
        assert not (tmp_path / "t.ckpt").exists()

    def test_term_phrase_in_elements_is_data_error(self, workdir, tmp_path, capsys):
        records = _records(workdir / "elements.jsonl")
        records[0]["term"] = "有期徒刑三年"
        elements = tmp_path / "elements.jsonl"
        fileio.write_jsonl(elements, records)
        err = self._data_error(capsys, "augment", "--queries", workdir / "queries.jsonl",
                               "--elements", elements, "--output", tmp_path / "p.jsonl")
        assert "term must be a mapping, not str" in err

    def test_query_without_elements_is_data_error(self, workdir, tmp_path, capsys):
        records = _records(workdir / "elements.jsonl")
        elements = tmp_path / "elements.jsonl"
        fileio.write_jsonl(elements, records[1:])
        queries = [q for q in _records(workdir / "queries.jsonl")
                   if q["source_case_id"] == records[0]["case_id"]]
        err = self._data_error(capsys, "augment", "--queries", workdir / "queries.jsonl",
                               "--elements", elements, "--output", tmp_path / "p.jsonl")
        assert err == (f"data error: query {queries[0]['query_id']!r}: source case "
                       f"{records[0]['case_id']!r} has no extracted elements\n")

    @pytest.mark.parametrize("qrel,expected", [
        ({"query_id": "q", "case_id": "c", "label": "x"},
         "field 'label': expected an integer, not str"),
        ({"query_id": "q", "case_id": "c"}, "missing field 'label'"),
        ({"query_id": "q", "case_id": "c", "label": 2.9},
         "field 'label': expected an integer, not float"),
        ({"query_id": "q", "case_id": "c", "label": True},
         "field 'label': expected an integer, not bool"),
        ({"query_id": "q", "case_id": "c", "label": "3"},
         "field 'label': expected an integer, not str")])
    def test_bad_qrels_line_is_data_error(self, workdir, tmp_path, capsys, qrel, expected):
        qrels = tmp_path / "qrels.jsonl"
        fileio.write_jsonl(qrels, [{"query_id": "q", "case_id": "d", "label": 1}, qrel])
        err = self._data_error(capsys, "eval", "--run", workdir / "run_bm25.jsonl",
                               "--qrels", qrels, "--output", tmp_path / "m.json")
        assert err == f"data error: {qrels}:2: {expected}\n"

    @pytest.mark.parametrize("pool,expected", [
        ({"query_id": "q"}, "missing field 'candidate_ids'"),
        ({"query_id": "q", "candidate_ids": "case-000001"},
         "field 'candidate_ids': expected a list of ids, not str")])
    def test_bad_pools_line_is_data_error(self, workdir, tmp_path, capsys, pool, expected):
        pools = tmp_path / "pools.jsonl"
        fileio.write_jsonl(pools, [pool])
        err = self._data_error(capsys, "search", "--queries", workdir / "eval_queries.jsonl",
                               "--corpus", workdir / "corpus.jsonl", "--pools", pools,
                               "--output", tmp_path / "run.jsonl")
        assert err == f"data error: {pools}:1: {expected}\n"

    def test_malformed_corpus_line_outside_every_pool_is_data_error(self, workdir, tmp_path,
                                                                    capsys):
        pooled = {cid for pool in _records(workdir / "pools.jsonl")
                  for cid in pool["candidate_ids"]}
        records = _records(workdir / "corpus.jsonl")
        line = next(n for n, r in enumerate(records, start=1) if r["case_id"] not in pooled)
        del records[line - 1]["fact"]
        corpus = tmp_path / "corpus.jsonl"
        fileio.write_jsonl(corpus, records)
        err = self._data_error(capsys, "search", "--queries", workdir / "eval_queries.jsonl",
                               "--corpus", corpus, "--pools", workdir / "pools.jsonl",
                               "--output", tmp_path / "run.jsonl")
        assert err == (f"data error: {corpus}:{line}: missing required field 'fact' "
                       f"in record {records[line - 1]['case_id']!r}\n")
        assert not (tmp_path / "run.jsonl").exists()

    def test_pool_with_no_corpus_id_is_data_error(self, workdir, tmp_path, capsys):
        query_id = _records(workdir / "eval_queries.jsonl")[0]["query_id"]
        pools = tmp_path / "pools.jsonl"
        fileio.write_jsonl(pools, [{"query_id": query_id,
                                    "candidate_ids": ["ghost-a", "ghost-b"]}])
        err = self._data_error(capsys, "search", "--queries", workdir / "eval_queries.jsonl",
                               "--corpus", workdir / "corpus.jsonl", "--pools", pools,
                               "--output", tmp_path / "run.jsonl")
        assert err == (f"data error: {pools}: none of the 2 pool ids of query "
                       f"{query_id!r} is in the corpus\n")
        assert not (tmp_path / "run.jsonl").exists()

    @pytest.mark.parametrize("field,source", [
        ("query_id", "queries.jsonl"), ("positive_case_id", "corpus.jsonl")])
    def test_pair_id_not_in_inputs_is_data_error(self, workdir, tmp_path, capsys,
                                                 field, source):
        records = _records(workdir / "pairs.jsonl")
        records[2][field] = "ghost-1"
        pairs = tmp_path / "pairs.jsonl"
        fileio.write_jsonl(pairs, records)
        err = self._data_error(capsys, "train", "--pairs", pairs,
                               "--queries", workdir / "queries.jsonl",
                               "--corpus", workdir / "corpus.jsonl",
                               "--output", tmp_path / "t.ckpt", "--dim", 4,
                               "--hash-buckets", 64)
        assert err == (f"data error: {pairs}:3: field {field!r}: 'ghost-1' "
                       f"not in {workdir / source}\n")
        assert not (tmp_path / "t.ckpt").exists()

    @pytest.mark.parametrize("field,source,key,blank", [
        ("query_id", "queries.jsonl", "query_id", {"text": "x"}),
        ("positive_case_id", "corpus.jsonl", "case_id",
         {"fact": "x", "reason": "", "judgment": ""})])
    def test_featureless_training_text_is_data_error(self, workdir, tmp_path, capsys,
                                                     field, source, key, blank):
        pairs = workdir / "pairs.jsonl"
        ids = [record[field] for record in _records(pairs)]
        records = _records(workdir / source)
        for record in records:
            if record[key] == ids[2]:
                record.update(blank)
        inputs = {name: workdir / name for name in ("queries.jsonl", "corpus.jsonl")}
        inputs[source] = tmp_path / source
        fileio.write_jsonl(inputs[source], records)
        err = self._data_error(capsys, "train", "--pairs", pairs,
                               "--queries", inputs["queries.jsonl"],
                               "--corpus", inputs["corpus.jsonl"],
                               "--output", tmp_path / "t.ckpt", "--dim", 4,
                               "--hash-buckets", 64)
        assert err == (f"data error: {pairs}:{ids.index(ids[2]) + 1}: field {field!r}: "
                       f"the text of {ids[2]!r} has no character n-gram to embed\n")
        assert not (tmp_path / "t.ckpt").exists()

    def test_elements_id_not_in_corpus_is_data_error(self, workdir, tmp_path, capsys):
        records = _records(workdir / "elements.jsonl")
        records.append({**records[0], "case_id": "ghost-1"})
        elements = tmp_path / "elements.jsonl"
        fileio.write_jsonl(elements, records)
        err = self._data_error(capsys, "synthesize", "--corpus", workdir / "corpus.jsonl",
                               "--elements", elements, "--output", tmp_path / "q.jsonl")
        assert err == (f"data error: {elements}:{len(records)}: field 'case_id': "
                       f"'ghost-1' not in {workdir / 'corpus.jsonl'}\n")
        assert not (tmp_path / "q.jsonl").exists()

    @pytest.mark.parametrize("name,field,reason,argv", [
        ("corpus.jsonl", "case_id", "missing required field 'case_id'",
         ["extract", "--corpus", "corpus.jsonl", "--elements", "out"]),
        ("elements.jsonl", "term", "missing field 'term'",
         ["augment", "--queries", "queries.jsonl", "--elements", "elements.jsonl",
          "--output", "out"]),
        ("queries.jsonl", "text", "missing field 'text'",
         ["augment", "--queries", "queries.jsonl", "--elements", "elements.jsonl",
          "--output", "out"]),
        *(("pairs.jsonl", field, f"missing field {field!r}",
           ["train", "--pairs", "pairs.jsonl", "--queries", "queries.jsonl",
            "--corpus", "corpus.jsonl", "--output", "out"])
          for field in ("query_id", "positive_case_id", "kind"))],
        ids=["corpus", "elements", "queries",
             "pairs-query_id", "pairs-positive_case_id", "pairs-kind"])
    def test_record_missing_a_field_names_file_and_line(self, workdir, tmp_path, capsys,
                                                        name, field, reason, argv):
        records = _records(workdir / name)
        del records[1][field]
        bad = tmp_path / name
        fileio.write_jsonl(bad, records)
        files = {arg: workdir / arg for arg in argv if arg.endswith(".jsonl")}
        files |= {name: bad, "out": tmp_path / "out"}
        err = self._data_error(capsys, *(files.get(arg, arg) for arg in argv))
        assert err == f"data error: {bad}:2: {reason}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name, field", [
        ("search", "eval_queries.jsonl", "query_id"),
        ("search", "pools.jsonl", "query_id"),
        ("search", "pools.jsonl", "candidate_ids"),
        ("augment", "queries.jsonl", "source_case_id"),
        ("train", "pairs.jsonl", "query_id"),
        ("train", "pairs.jsonl", "positive_case_id"),
        ("train", "queries.jsonl", "query_id"),
        ("eval", "qrels.jsonl", "query_id"),
        ("eval", "qrels.jsonl", "case_id"),
        ("eval", "run_bm25.jsonl", "query_id"),
        ("eval", "run_bm25.jsonl", "case_id"),
    ])
    def test_an_id_that_is_not_a_string_is_data_error(self, workdir, tmp_path, capsys,
                                                     command, name, field):
        records = _records(workdir / name)
        if field == "candidate_ids":
            records[0][field][1] = ["q", 1]
        else:
            records[0][field] = ["q", 1]
        err, bad = self._first_record_changed(workdir, tmp_path, capsys, command, name, records)
        assert err == f"data error: {bad}:1: field {field!r}: expected a string id, not list\n"

    @pytest.mark.parametrize("command, name", [
        ("search", "eval_queries.jsonl"), ("augment", "queries.jsonl"),
        ("train", "queries.jsonl")])
    def test_a_text_that_is_not_a_string_is_data_error(self, workdir, tmp_path, capsys,
                                                      command, name):
        records = _records(workdir / name)
        records[0]["text"] = ["a", "b"]
        err, bad = self._first_record_changed(workdir, tmp_path, capsys, command, name, records)
        assert err == f"data error: {bad}:1: field 'text': expected a string, not list\n"

    def _first_record_changed(self, workdir, tmp_path, capsys, command, name, records):
        """The command's data error with ``records`` as its input ``name``,
        and that file; nothing is written."""
        bad = tmp_path / name
        fileio.write_jsonl(bad, records)
        argv = [bad if arg == workdir / name else arg
                for arg in _commands(workdir, tmp_path / "out")[command]]
        err = self._data_error(capsys, *argv)
        assert not (tmp_path / "out").exists()
        return err, bad

    def test_a_query_of_zero_norm_names_the_query(self, workdir, tmp_path, capsys):
        """A one-character query has no bigram to embed; dense search fails
        when it reaches that query, naming it."""
        records = _records(workdir / "eval_queries.jsonl")
        records[1]["text"] = "盗"
        queries = tmp_path / "eval_queries.jsonl"
        fileio.write_jsonl(queries, records)
        argv = [queries if arg == workdir / "eval_queries.jsonl" else arg
                for arg in _commands(workdir, tmp_path / "out")["search dense"]]
        err = self._data_error(capsys, *argv)
        assert err == (f"data error: query {records[1]['query_id']!r}: "
                       "query vector has zero norm\n")

    def test_an_empty_candidate_names_the_query_and_the_case(self, workdir, tmp_path, capsys):
        """A case whose only text is an empty fact parses, but has no window
        to embed; dense search fails when it reaches a pool that holds the
        case, naming the query and the case."""
        pools = {pool["query_id"]: pool["candidate_ids"]
                 for pool in _records(workdir / "pools.jsonl")}
        case_id = next(iter(pools.values()))[0]
        query_id = next(query["query_id"] for query in _records(workdir / "eval_queries.jsonl")
                        if case_id in pools.get(query["query_id"], ()))
        corpus = tmp_path / "corpus.jsonl"
        fileio.write_jsonl(corpus, [{"case_id": case_id, "fact": ""}
                                    if record["case_id"] == case_id else record
                                    for record in _records(workdir / "corpus.jsonl")])
        argv = [corpus if arg == workdir / "corpus.jsonl" else arg
                for arg in _commands(workdir, tmp_path / "out")["search dense"]]
        err = self._data_error(capsys, *argv)
        assert err == f"data error: query {query_id!r}: case {case_id!r}: the text is empty\n"
        assert not (tmp_path / "out").exists()

    def test_bad_run_line_is_data_error(self, workdir, tmp_path, capsys):
        run = tmp_path / "run.jsonl"
        fileio.write_jsonl(run, [{"query_id": "q", "case_id": "c", "rank": 1, "score": "high"}])
        err = self._data_error(capsys, "eval", "--run", run, "--qrels", workdir / "qrels.jsonl",
                               "--output", tmp_path / "m.json")
        assert err.startswith(f"data error: {run}:1: field 'score': ")

    @pytest.mark.parametrize("field,value,expected", [
        ("rank", 2.7, "expected an integer, not float"),
        ("rank", True, "expected an integer, not bool"),
        ("rank", "1", "expected an integer, not str"),
        ("score", "0.4", "expected a number, not str"),
        ("score", False, "expected a number, not bool"),
        ("score", None, "expected a number, not NoneType")])
    def test_a_run_number_of_another_type_is_data_error(self, workdir, tmp_path, capsys,
                                                        field, value, expected):
        """A rank is a JSON integer and a score a JSON number: neither is
        read from a bool, a string or, for a rank, a float."""
        run = tmp_path / "run.jsonl"
        fileio.write_jsonl(run, [{"query_id": "q", "case_id": "c", "rank": 1, "score": 0.5},
                                 {"query_id": "q", "case_id": "d", "rank": 2, "score": 1,
                                  field: value}])
        err = self._data_error(capsys, "eval", "--run", run, "--qrels", workdir / "qrels.jsonl",
                               "--output", tmp_path / "m.json")
        assert err == f"data error: {run}:2: field {field!r}: {expected}\n"
        assert not (tmp_path / "m.json").exists()

    def test_integer_scores_and_labels_are_read(self, tmp_path):
        run, qrels = tmp_path / "run.jsonl", tmp_path / "qrels.jsonl"
        fileio.write_jsonl(run, [{"query_id": "q", "case_id": c, "rank": r, "score": 3 - r}
                                 for r, c in ((1, "c"), (2, "d"))])
        fileio.write_jsonl(qrels, [{"query_id": "q", "case_id": "d", "label": 2},
                                   {"query_id": "q", "case_id": "c", "label": 0}])
        assert run_cli("eval", "--run", run, "--qrels", qrels,
                       "--output", tmp_path / "m.json") == cli.EXIT_OK
        macro = json.loads((tmp_path / "m.json").read_text())["macro"]
        assert macro["NDCG@10"] == pytest.approx(1 / math.log2(3))

    @pytest.mark.parametrize("repeat,expected", [
        ({"case_id": "c1", "rank": 3}, "query 'q' repeats case_id 'c1'"),
        ({"case_id": "c3", "rank": 1}, "query 'q' repeats rank 1")])
    def test_repeat_within_a_run_query_is_data_error(self, workdir, tmp_path, capsys,
                                                     repeat, expected):
        # the same case and rank under another query are no repeat
        rows = [{"query_id": "q", "case_id": "c1", "rank": 1},
                {"query_id": "p", "case_id": "c1", "rank": 1},
                {"query_id": "q", "case_id": "c2", "rank": 2},
                {"query_id": "q", **repeat}]
        run = tmp_path / "run.jsonl"
        fileio.write_jsonl(run, [{"score": 1.0, **row} for row in rows])
        err = self._data_error(capsys, "eval", "--run", run, "--qrels", workdir / "qrels.jsonl",
                               "--output", tmp_path / "m.json")
        assert err == f"data error: {run}:4: {expected}\n"
        assert not (tmp_path / "m.json").exists()

    def test_repeated_judgment_is_data_error(self, workdir, tmp_path, capsys):
        qrels = tmp_path / "qrels.jsonl"
        fileio.write_jsonl(qrels, [{"query_id": "q", "case_id": "d", "label": 3},
                                   {"query_id": "p", "case_id": "d", "label": 1},
                                   {"query_id": "q", "case_id": "d", "label": 0}])
        err = self._data_error(capsys, "eval", "--run", workdir / "run_bm25.jsonl",
                               "--qrels", qrels, "--output", tmp_path / "m.json")
        assert err == f"data error: {qrels}:3: query 'q' repeats case_id 'd'\n"

    def test_repeated_pool_is_data_error(self, workdir, tmp_path, capsys):
        # a second, shorter pool of a query used to replace its first one
        records = _records(workdir / "pools.jsonl")
        query_id = records[0]["query_id"]
        records.append({"query_id": query_id,
                        "candidate_ids": records[0]["candidate_ids"][:5]})
        pools = tmp_path / "pools.jsonl"
        fileio.write_jsonl(pools, records)
        err = self._data_error(capsys, "search", "--queries", workdir / "eval_queries.jsonl",
                               "--corpus", workdir / "corpus.jsonl", "--pools", pools,
                               "--output", tmp_path / "run.jsonl")
        assert err == (f"data error: {pools}:{len(records)}: query {query_id!r} "
                       f"repeats its pool\n")
        assert not (tmp_path / "run.jsonl").exists()

    @pytest.mark.parametrize("charges", ["盗窃罪", ["盗窃罪", 3], {"盗窃罪": 1}, None])
    def test_charges_not_a_list_of_strings_is_data_error(self, workdir, tmp_path, capsys,
                                                         charges):
        records = _records(workdir / "pairs.jsonl")
        records[2]["positive_charges"] = charges
        pairs = tmp_path / "pairs.jsonl"
        fileio.write_jsonl(pairs, records)
        err = self._data_error(capsys, "train", "--pairs", pairs,
                               "--queries", workdir / "queries.jsonl",
                               "--corpus", workdir / "corpus.jsonl",
                               "--output", tmp_path / "t.ckpt", "--dim", 4,
                               "--hash-buckets", 64)
        assert err == (f"data error: {pairs}:3: field 'positive_charges': "
                       f"expected a list of strings, not {charges!r}\n")
        assert not (tmp_path / "t.ckpt").exists()

    def test_pairs_without_charges_train(self, workdir, tmp_path):
        # positive_charges may be left out: such a pair masks no negative
        records = _records(workdir / "pairs.jsonl")
        for record in records:
            del record["positive_charges"]
        pairs = tmp_path / "pairs.jsonl"
        fileio.write_jsonl(pairs, records)
        assert run_cli("train", "--pairs", pairs, "--queries", workdir / "queries.jsonl",
                       "--corpus", workdir / "corpus.jsonl", "--output", tmp_path / "t.ckpt",
                       "--epochs", 1, "--dim", 4, "--hash-buckets", 64) == cli.EXIT_OK

    @pytest.mark.parametrize("content,reason", [
        ("not json", "not JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"label": "x", "per_query": {}}', "no 'macro' object of metric values"),
        ('{"macro": {"MAP": "high"}}', "no 'macro' object of metric values"),
        ('{"macro": {"MAP": true}}', "no 'macro' object of metric values"),
        ("[1, 2]", "no 'macro' object of metric values"),
    ])
    def test_bad_metrics_file_is_data_error(self, workdir, tmp_path, capsys, content, reason):
        bad = tmp_path / "metrics_bad.json"
        bad.write_text(content)
        err = self._data_error(capsys, "report", workdir / "metrics_bm25.json", bad)
        assert err == f"data error: {bad}: {reason}\n"

    def test_a_metrics_file_that_is_not_utf8_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "metrics_bad.json"
        bad.write_bytes(b'{"label": "d\xffense", "macro": {"MAP": 0.5}}\n')
        err = self._data_error(capsys, "report", workdir / "metrics_bm25.json", bad,
                               "--output", tmp_path / "report.txt")
        assert err == f"data error: {bad}: not UTF-8 at byte 13\n"
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("content,reason", [
        (b'{"tokenizer": "char_bigram", "doc_lens": {}, "term_freqs": {}}',
         "not a lexforge BM25 index; rebuild it with `lexforge index`"),
        (b"LXBM25IX\x01\x00\x00\x00\x0b\x00\x00\x00char_bi",
         "unsupported version 1; rebuild it with `lexforge index`"),
        (b"LXBM25IX\x02\x00\x00\x00\x0b\x00\x00\x00char_bi",
         "truncated in the tokenizer name: needs 11 bytes at byte 16, the file ends at 23"),
    ])
    def test_bad_index_is_data_error(self, workdir, tmp_path, capsys, content, reason):
        bad = tmp_path / "bm25.idx"
        bad.write_bytes(content)
        err = self._data_error(capsys, "search", "--queries", workdir / "eval_queries.jsonl",
                               "--corpus", workdir / "corpus.jsonl", "--index", bad,
                               "--output", tmp_path / "run.jsonl")
        assert err == f"data error: {bad}: {reason}\n"
        assert not (tmp_path / "run.jsonl").exists()

    def test_an_index_of_another_corpus_names_the_index_and_the_case(self, workdir,
                                                                      tmp_path, capsys):
        cases = [{"case_id": "a", "fact": "被告人盗窃财物"}, {"case_id": "b", "fact": "驾驶车辆"}]
        indexed, corpus, index = (tmp_path / "a.jsonl", tmp_path / "corpus.jsonl",
                                  tmp_path / "bm25.idx")
        fileio.write_jsonl(indexed, cases[:1])
        fileio.write_jsonl(corpus, cases)
        assert run_cli("index", "--corpus", indexed, "--output", index) == 0
        capsys.readouterr()
        err = self._data_error(capsys, "search", "--queries", workdir / "eval_queries.jsonl",
                               "--corpus", corpus, "--index", index,
                               "--output", tmp_path / "run.jsonl")
        assert err == (f"data error: {index}: case 'b' is not in the index; rebuild the "
                       f"index from --corpus {corpus} with `lexforge index`\n")
        assert not (tmp_path / "run.jsonl").exists()

    def test_an_empty_corpus_without_pools_names_the_corpus(self, workdir, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"")
        err = self._data_error(capsys, "search", "--queries", workdir / "eval_queries.jsonl",
                               "--corpus", corpus, "--output", tmp_path / "run.jsonl")
        assert err == f"data error: {corpus}: no cases to search\n"
        assert not (tmp_path / "run.jsonl").exists()

    def test_remote_without_endpoint_is_usage_error(self, workdir):
        assert run_cli("synthesize", "--corpus", workdir / "corpus.jsonl",
                       "--elements", workdir / "elements.jsonl",
                       "--output", "/tmp/q.jsonl", "--client", "remote") == 1

    def test_config_file_controls_defaults(self, workdir, tmp_path):
        config = tmp_path / "pipeline.ini"
        config.write_text("[augment]\nproportion = 0.2\n", encoding="utf-8")
        out = tmp_path / "pairs.jsonl"
        assert run_cli("--config", config, "augment",
                       "--queries", workdir / "queries.jsonl",
                       "--elements", workdir / "elements.jsonl",
                       "--output", out, "--seed", 2) == 0
        pairs = _records(out)
        assert sum(1 for p in pairs if p["kind"] == "augmented") == int(0.2 * 150)


class _Stop(Exception):
    """Raised by a stand-in stage function once it has seen its arguments."""


def _record(seen):
    def stand_in(*args, **kwargs):
        seen.append((args, kwargs))
        raise _Stop
    return stand_in


class TestFlagOverFile:
    def test_proportion(self, workdir, tmp_path):
        config = tmp_path / "pipeline.ini"
        config.write_text("[augment]\nproportion = 0.2\n", encoding="utf-8")
        out = tmp_path / "pairs.jsonl"
        assert run_cli("--config", config, "augment",
                       "--queries", workdir / "queries.jsonl",
                       "--elements", workdir / "elements.jsonl",
                       "--output", out, "--proportion", 0.7, "--seed", 11) == 0
        assert out.read_bytes() == (workdir / "pairs.jsonl").read_bytes()

    @pytest.mark.parametrize("flag,expected", [([], 3), (["--max-in-flight", 2], 2)])
    def test_max_in_flight(self, workdir, tmp_path, monkeypatch, flag, expected):
        from lexforge import querygen
        seen = []
        monkeypatch.setattr(querygen, "generate_queries", _record(seen))
        config = tmp_path / "pipeline.ini"
        config.write_text("[client]\nmax_in_flight = 3\n", encoding="utf-8")
        with pytest.raises(_Stop):
            run_cli("--config", config, "synthesize", "--corpus", workdir / "corpus.jsonl",
                    "--elements", workdir / "elements.jsonl",
                    "--output", tmp_path / "q.jsonl", *flag)
        assert seen[0][1]["max_in_flight"] == expected

    @pytest.mark.parametrize("file_value,flag,expected", [
        ("true", [], True), ("true", ["--no-masking"], False), ("false", [], False)])
    def test_no_masking(self, workdir, tmp_path, monkeypatch, file_value, flag, expected):
        from lexforge import training
        seen = []
        monkeypatch.setattr(training, "train_toy", _record(seen))
        config = tmp_path / "pipeline.ini"
        config.write_text(f"[loss]\nmasking = {file_value}\ntemperature = 0.5\n",
                          encoding="utf-8")
        with pytest.raises(_Stop):
            run_cli("--config", config, "train", "--pairs", workdir / "pairs.jsonl",
                    "--queries", workdir / "queries.jsonl",
                    "--corpus", workdir / "corpus.jsonl", "--output", tmp_path / "t.ckpt",
                    "--dim", 4, "--hash-buckets", 64, *flag)
        loss_cfg = seen[0][0][3]
        assert (loss_cfg.masking_enabled, loss_cfg.temperature) == (expected, 0.5)


def test_cli_import_leaves_requests_out():
    import os
    import subprocess
    import sys
    code = "import sys, lexforge.cli; print('requests' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "False"


#: The lexforge modules ``import lexforge.cli`` loads.
CLI_MODULES = ["cli", "config", "errors", "fileio"]

#: Per stage, its arguments (``{w}`` is the pipeline's data directory and
#: ``{t}`` a fresh one), the lexforge modules it loads besides the CLI's, and
#: whether it loads numpy. So ``eval`` and ``report`` load no corpus, query
#: generation, augmentation, retrieval, training or fixture module; only
#: ``fixtures`` and ``synthesize`` load ``querygen``; only ``fixtures``
#: loads ``testkit``; and only ``train`` and dense ``search`` load numpy.
#: No stage loads ``UNLOADED``.
UNLOADED = ["numpy.random", "hashlib", "_hashlib"]
STAGE_LOADS = {
    "fixtures": ("fixtures --out {t}/d --n-cases 100 --n-queries 1 --seed 3",
                 ["corpus", "querygen", "seeds", "testkit", "zhnum"], False),
    "extract": ("extract --corpus {w}/corpus.jsonl --elements {t}/e.jsonl",
                ["corpus", "zhnum"], False),
    "synthesize": ("synthesize --corpus {w}/corpus.jsonl --elements {w}/elements.jsonl "
                   "--output {t}/q.jsonl --seed 11",
                   ["corpus", "querygen", "seeds", "zhnum"], False),
    "augment": ("augment --queries {w}/queries.jsonl --elements {w}/elements.jsonl "
                "--output {t}/p.jsonl --seed 11", ["augment", "corpus", "zhnum"], False),
    "train": ("train --pairs {w}/pairs.jsonl --queries {w}/queries.jsonl "
              "--corpus {w}/corpus.jsonl --output {t}/t.ckpt --epochs 1 --dim 4 "
              "--hash-buckets 64", ["corpus", "seeds", "training", "zhnum"], True),
    "index": ("index --corpus {w}/corpus.jsonl --output {t}/bm25.idx",
              ["corpus", "retrieval", "zhnum"], False),
    "search bm25": ("search --queries {w}/eval_queries.jsonl --corpus {w}/corpus.jsonl "
                    "--pools {w}/pools.jsonl --output {t}/run.jsonl",
                    ["corpus", "retrieval", "zhnum"], False),
    "search bm25 --index": ("search --queries {w}/eval_queries.jsonl "
                            "--corpus {w}/corpus.jsonl --pools {w}/pools.jsonl "
                            "--index {w}/bm25.idx --output {t}/run.jsonl",
                            ["corpus", "retrieval", "zhnum"], False),
    "search dense": ("search --queries {w}/eval_queries.jsonl --corpus {w}/corpus.jsonl "
                     "--pools {w}/pools.jsonl --scorer dense --checkpoint {w}/toy.ckpt "
                     "--output {t}/run.jsonl",
                     ["corpus", "retrieval", "training", "zhnum"], True),
    "eval": ("eval --run {w}/run_bm25.jsonl --qrels {w}/qrels.jsonl --output {t}/m.json",
             ["evaluation"], False),
    "report": ("report {w}/metrics_bm25.json {w}/metrics_dense.json",
               ["evaluation"], False),
}


@pytest.mark.parametrize("stage", STAGE_LOADS)
def test_each_stage_loads_only_its_modules(workdir, tmp_path, stage):
    """In a fresh interpreter, ``import lexforge.cli`` loads only the CLI's
    modules, and the stage then loads only its own (``STAGE_LOADS``), and
    none of ``UNLOADED``: neither numpy's random module nor OpenSSL."""
    import os
    import subprocess
    import sys
    template, modules, numpy = STAGE_LOADS[stage]
    argv = template.format(w=workdir, t=tmp_path).split()
    code = ("import json, sys\n"
            "def loaded():\n"
            "    return sorted(m[9:] for m in sys.modules if m.startswith('lexforge.'))\n"
            "import lexforge.cli\n"
            "imported = loaded()\n"
            "assert lexforge.cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps([imported, loaded(), 'numpy' in sys.modules,\n"
            f"                  [m for m in {UNLOADED!r} if m in sys.modules]]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    imported, loaded, numpy_loaded, unloaded = json.loads(result.stdout.splitlines()[-1])
    assert imported == CLI_MODULES
    assert loaded == sorted(CLI_MODULES + modules)
    assert numpy_loaded is numpy
    assert unloaded == []
