"""Pipeline benchmark: the README pipeline, one fresh process per stage.

    python3 perfbench/run.py --workload forge --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from ``--seed`` with ``lexforge fixtures``
(three times, for ``setup_s``), then runs rounds of the stage commands from
``extract`` to the last ``eval`` while another round fits in ``--seconds``,
at least one, and checks the outputs. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (stage
commands) and ``metrics``. With ``--trace 0`` these are the end-to-end
metrics; with ``--trace 1`` rounds run untraced and traced in turn, and the
metrics are the per-layer figures (see README.md). The line before it
records the machine, the thread settings and the per-stage times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
from workloads import SEARCHES, THREADS, WORKLOADS, fixtures_args, pipeline_stages

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SETUP_REPEATS = 3
#: Stop every stage command before the run's own 180 s limit.
DEADLINE_S = 170.0
#: Stage outputs whose bytes must repeat exactly from round to round.
FINGERPRINTED = ("elements.jsonl", "exclusions.jsonl", "queries.jsonl", "pairs.jsonl",
                 "toy.ckpt", "loss.tsv", "bm25.json",
                 *(f"run_{s}.jsonl" for s in SEARCHES),
                 *(f"metrics_{s}.json" for s in SEARCHES))


class StageFailed(Exception):
    pass


class Runner:
    """Launches stage commands and keeps the run's operation counts."""

    def __init__(self, work: Path, config: Path | None, started: float):
        self.work = work
        self.config = config
        self.deadline = started + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(THREADS)

    def warm_up(self) -> None:
        """Fill the bytecode and file caches before anything is timed."""
        subprocess.run([sys.executable, "-c", "import lexforge.cli"], env=self.env,
                       cwd=ROOT, check=True, timeout=60)

    def run(self, name: str, args: list[str], trace: str | None = None) -> tuple[float, float]:
        """Run one lexforge command; returns (wall seconds, peak RSS in MiB)."""
        cli = (["--config", str(self.config)] if self.config else []) + args
        if trace is None:
            argv = [sys.executable, "-c",
                    "import sys; from lexforge.cli import main; sys.exit(main())", *cli]
        else:
            argv = [sys.executable, str(BENCH / "stage.py"), trace, *cli]
        self.attempted += 1
        log = self.work / f"{name}.log"
        with open(log, "wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise StageFailed(f"{name} exited {proc.returncode}:\n{tail}")
        return wall, usage.ru_maxrss / 1024.0


def fingerprint(data: Path) -> dict[str, str]:
    return {name: hashlib.sha256((data / name).read_bytes()).hexdigest()
            for name in FINGERPRINTED}


def run_round(runner: Runner, stages, data: Path, trace_dir: Path | None) -> dict:
    """One pass over the stage commands; per stage (wall s, RSS MiB)."""
    times = {}
    for name, args in stages:
        trace = str(trace_dir / name) if trace_dir else None
        times[name] = runner.run(name, args, trace)
    return {"stages": times, "fingerprint": fingerprint(data)}


def run_rounds(runner, stages, data, seconds, traced_too: bool, work: Path) -> list:
    """Rounds while another fits in --seconds, at least one; with traced_too,
    an untraced and a traced round make one step."""
    steps = []
    started = time.perf_counter()
    while True:
        step = {"plain": run_round(runner, stages, data, None)}
        if traced_too:
            trace_dir = work / f"trace{len(steps)}"
            trace_dir.mkdir()
            step["traced"] = run_round(runner, stages, data, trace_dir)
            step["trace_dir"] = trace_dir
        steps.append(step)
        elapsed = time.perf_counter() - started
        if elapsed * (len(steps) + 1) / len(steps) > seconds:
            return steps


def stage_medians(rounds: list[dict]) -> dict[str, float]:
    names = rounds[0]["stages"]
    return {n: statistics.median(r["stages"][n][0] for r in rounds) for n in names}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "synthesize_max_in_flight": THREADS,
    }


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, started: float):
    data = work / "data"
    config = None
    if workload.config:
        config = work / "pipeline.ini"
        config.write_text(workload.config, encoding="utf-8")
    runner = Runner(work, config, started)
    stages = pipeline_stages(workload, str(data), seed)
    fixtures = fixtures_args(workload, str(data), seed)
    runner.warm_up()

    if trace:
        setup = [runner.run("fixtures", fixtures)[0]]
        runner.run("fixtures", fixtures, str(work / "fixtures"))
    else:
        setup = [runner.run("fixtures", fixtures)[0] for _ in range(SETUP_REPEATS)]
    steps = run_rounds(runner, stages, data, seconds, trace, work)
    plain = [s["plain"] for s in steps]
    rounds = plain + [s["traced"] for s in steps if "traced" in s]

    failures = [f"round {i} output {name} differs from round 0"
                for i, r in enumerate(rounds[1:], start=1)
                for name, digest in r["fingerprint"].items()
                if digest != rounds[0]["fingerprint"][name]]
    checked = time.perf_counter()
    found, notes = checks.check_all(workload, seed, data)
    failures += found

    per_stage = stage_medians(plain)
    pipeline_s = sum(per_stage.values())
    details = {"rounds": len(plain), "setup_s": setup, "stage_s": per_stage,
               "pipeline_s": [sum(t for t, _ in r["stages"].values()) for r in plain],
               "checks_s": time.perf_counter() - checked, "checks": notes}
    if trace:
        metrics = layers.layer_metrics(
            workload, [s["trace_dir"] for s in steps], per_stage,
            stage_medians([s["traced"] for s in steps]), setup[0], work / "fixtures")
    else:
        ndcg = {s: json.loads((data / f"metrics_{s}.json").read_text(encoding="utf-8"))
                ["macro"]["NDCG@10"] for s in SEARCHES}
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pipeline_s": (pipeline_s, "s"),
            "peak_rss_mb": (max(statistics.median(r["stages"][n][1] for r in plain)
                                for n in per_stage), "MiB"),
            "dense_ndcg10": (ndcg["dense"], "NDCG"),
            "bm25_ndcg10": (ndcg["bm25"], "NDCG"),
            "bm25_index_ndcg10": (ndcg["bm25_index"], "NDCG"),
        }
    return runner, failures, metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "lexforge" / "cli.py").is_file():
        print(f"error: no lexforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    work = BENCH / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner, failures, metrics, details = measure(
            workload, args.seed, args.seconds, bool(args.trace), work, started)
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": environment(), **details}
    result = {
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"{tag}.json").write_text(json.dumps({**record, "result": result}, indent=2) + "\n",
                                     encoding="utf-8")
    if not failures:
        shutil.rmtree(work)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
