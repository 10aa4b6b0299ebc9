"""whitevec benchmark: seeded inputs, closed-loop CLI workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One client runs the workload's cycle of
``whitevec`` CLI commands back to back (``python -m whitevec.cli`` with
``PYTHONPATH=src``), repeating whole cycles until S seconds have passed
(at least one cycle). Every output is checked against numpy/scipy
references built from the inputs (see checks.py).

--trace 0 times each command from outside and reports the end-to-end
metrics. --trace 1 runs the same cycles in-process under span tracing
(tracer.py) and reports the per-layer metrics (layers.py) instead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Inputs go to .bench_data/ and are removed at exit.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen
import layers

HERE = Path(__file__).resolve().parent
SETUP_REPS = 5
STARTUP_PROBES = 5


@dataclass
class Step:
    name: str
    argv: list[str]
    out: Path
    check: Callable  # reference -> list of failure messages


def corpus384(d: Path):
    k = gen.CORPUS_K
    corpus, w, white = d / "corpus.emb1", d / "w.json", d / "white.emb1"
    steps = [
        Step("fit", ["fit", "--input", corpus, "--k", k, "--out", w], w,
             lambda ref: checks.check_fit(ref, w, k)),
        Step("transform", ["transform", "--input", corpus, "--transform", w,
                           "--out", white, "--dtype", "float32"], white,
             lambda ref: checks.check_white(ref, white, k)),
    ]
    return steps, lambda: checks.corpus_reference(corpus)


def search256(d: Path):
    index, query, hits = d / "index.emb1", d / "query.emb1", d / "hits.tsv"
    steps = [
        Step("search", ["search", "--index", index, "--query", query,
                        "--top", gen.TOP, "--out", hits], hits,
             lambda ref: checks.check_search(ref, hits)),
    ]
    return steps, lambda: checks.search_reference(index, query, gen.TOP)


def sts128(d: Path):
    pairs = ["--left", d / "left.emb1", "--right", d / "right.emb1", "--gold", d / "gold.txt"]
    stats, ev, sweep = d / "stats.tsv", d / "eval.json", d / "sweep.tsv"
    ks = ",".join(str(k) for k in gen.STS_KS)
    steps = [
        Step("stats", ["stats", "--input", d / "left.emb1", "--out", stats], stats,
             lambda ref: checks.check_stats(ref, stats)),
        Step("eval", ["eval", *pairs, "--k", 8, "--fit", "target", "--out", ev], ev,
             lambda ref: checks.check_eval(ref, ev, 8)),
        Step("sweep", ["sweep", *pairs, "--ks", ks, "--out", sweep], sweep,
             lambda ref: checks.check_sweep(ref, sweep)),
    ]
    return steps, lambda: checks.sts_reference(
        d / "left.emb1", d / "right.emb1", d / "gold.txt", gen.STS_KS
    )


WORKLOADS = {"corpus384": corpus384, "search256": search256, "sts128": sts128}


class Runner:
    def __init__(self, data: Path):
        self.data = data
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = self.failed = 0
        self.correct = True

    def launch(self, argv) -> dict:
        """Run `whitevec <argv>` in a fresh interpreter; wall time, peak RSS, exit code."""
        out, err = self.data / "stdout.txt", self.data / "stderr.txt"
        proc = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), str(out), str(err),
             sys.executable, "-m", "whitevec.cli", *map(str, argv)],
            env=self.env, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout)
        result["stderr"] = err.read_text(encoding="utf-8", errors="replace")
        return result

    def record(self, step: Step, exit_code: int, stderr: str, ref) -> None:
        self.attempted += 1
        if exit_code != 0:
            self.failed += 1
            print(f"FAILED {step.name}: exit {exit_code}: {stderr.strip()[-500:]}", file=sys.stderr)
            return
        try:
            errors = step.check(ref)
        except (OSError, ValueError, KeyError) as e:  # includes malformed JSON
            errors = [f"{step.name}: unreadable output: {e!r}"]
        for e in errors:
            print(f"WRONG {e}", file=sys.stderr)
        self.correct &= not errors


def untraced(runner: Runner, steps, ref, seconds: float) -> dict:
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycle = []
        for step in steps:
            step.out.unlink(missing_ok=True)
            m = runner.launch(step.argv)
            runner.record(step, m["exit"], m["stderr"], ref)
            cycle.append(m)
        cycles.append(cycle)
    for i, step in enumerate(steps):
        walls = [c[i]["wall_s"] for c in cycles]
        rss = [c[i]["maxrss_kb"] / 1024 for c in cycles]
        print(f"{step.name:10s} median {statistics.median(walls):9.4f} s  "
              f"peak RSS {max(rss):8.1f} MB  ({len(walls)} runs)")
    return {
        "cycle_s": {"value": statistics.median(sum(m["wall_s"] for m in c) for c in cycles), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(max(m["maxrss_kb"] for m in c) / 1024 for c in cycles), "unit": "MB"},
    }


def traced(runner: Runner, steps, ref, seconds: float) -> dict:
    spans, sub_probe, in_probe, walls = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        cycle = len(walls)
        spec = runner.data / "trace_spec.json"
        spans_path = runner.data / f"spans-{cycle}.jsonl"
        spec.write_text(json.dumps({
            "spans": str(spans_path),
            "commands": [[str(a) for a in s.argv] for s in steps],
            "probes": STARTUP_PROBES,
        }))
        for step in steps:
            step.out.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "tracer.py"), str(spec)],
            env=runner.env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"tracer failed: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        for step, code in zip(steps, result["exit"]):
            runner.record(step, code, proc.stderr, ref)
        with open(spans_path, encoding="utf-8") as f:
            spans += [dict(json.loads(line), cycle=cycle) for line in f]
        walls.append(result["wall_s"])
        in_probe += result["probe_s"]
        sub_probe += [runner.launch(["--help"])["wall_s"] for _ in range(STARTUP_PROBES)]

    startup = statistics.median(sub_probe) - statistics.median(in_probe)
    cover = layers.coverage(spans, len(walls))
    for i, step in enumerate(steps):
        wall = statistics.median(w[i] for w in walls)
        total, self_s = cover.get(step.name, (0.0, 0.0))
        covered = (total - self_s) / wall if wall > 0 else 0.0
        print(f"{step.name:10s} in-process {wall:9.4f} s  child spans cover {100 * covered:5.1f}%")
    print(f"start-up   {startup:.4f} s (subprocess --help minus in-process --help)")
    return layers.per_layer(spans, len(walls), startup)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (Path("src") / "whitevec" / "cli.py").is_file():
        print("run.py: src/whitevec/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2

    data = Path(".bench_data") / f"{args.workload}-{args.seed}"
    runner = Runner(data)
    steps, reference = WORKLOADS[args.workload](data)
    try:
        # Set-up: generate the inputs and start the program once.
        setup = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            shutil.rmtree(data, ignore_errors=True)
            data.mkdir(parents=True)
            gen.GENERATORS[args.workload](data, args.seed)
            if runner.launch(["--help"])["exit"] != 0:
                raise RuntimeError("whitevec --help failed")
            setup.append(time.perf_counter() - t0)
        ref = reference()
        if args.trace:
            metrics = traced(runner, steps, ref, args.seconds)
        else:
            metrics = untraced(runner, steps, ref, args.seconds)
            metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    finally:
        shutil.rmtree(data, ignore_errors=True)
        with contextlib.suppress(OSError):
            data.parent.rmdir()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"env: nproc={os.cpu_count()} numpy={np.__version__} "
          f"blas={blas['name']} {blas['version']} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
