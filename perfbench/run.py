"""The qweyl benchmark: time to a verdict, checked for correctness.

Run from the root of a qweyl checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload

Each job runs in a fresh interpreter (``child.py``), one child at a time,
so set-up time and peak memory belong to that workload.  With ``--trace 0``
jobs are repeated until ``--seconds`` have passed and the end-to-end
metrics are medians over them.  With ``--trace 1`` one untraced and one
traced job run, and the per-layer metrics come from the traced one.

Every report is hashed and compared with ``digests.json``; failing
relations, nonzero exits, digest mismatches and capped children are
failures.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 9   # set-up-only children per run, besides each job's own
CHILD_CAP_S = 120.0  # wall-clock cap of one child
RUN_CAP_S = 170.0    # no child may run past this point of the whole run


def _monotonic() -> float:
    # System-wide on Linux, so comparable with the child's reading.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """The children, samples and failures of one workload run."""

    def __init__(self, workload, seed, size, expected, deadline):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.expected = expected
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.jobs: list[dict] = []

    def _fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)

    def spawn(self, mode: str, spans: str | None = None) -> dict | None:
        """Run one child to completion; None when it was capped or crashed."""
        argv = [sys.executable, CHILD, "--workload", self.workload,
                "--seed", str(self.seed), "--size", self.size, "--mode", mode]
        if spans:
            argv += ["--spans", spans]
        cap = min(CHILD_CAP_S, self.deadline - _monotonic())
        if cap <= 0:
            self._fail(f"capped: no time left for a {mode} child")
            return None
        # A fixed hash seed keeps dict layouts, and so timings and counts,
        # the same between runs; cached bytecode is what users load too.
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        start = _monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=cap)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self._fail(f"capped: {mode} child killed after {cap:.0f} s")
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines = out.splitlines()
        if proc.returncode != 0 or not lines:
            self._fail(f"{mode} child exited with code {proc.returncode}")
            return None
        result = json.loads(lines[-1])
        self.setup_s.append((result["ready"] - start) * result["setup_speed"])
        if mode != "setup":
            self._check(result["commands"])
        return result

    def _check(self, commands: list[dict]) -> None:
        for cmd in commands:
            self.attempted += 1 + cmd["relations"]
            self.failed += cmd["failed_relations"]
            if cmd["failed_relations"]:
                self.problems.append(f"{cmd['failed_relations']} relation(s) "
                                     f"failed: {cmd['key']}")
            want = self.expected.get(cmd["key"])
            if cmd["code"] != 0:
                self.failed += 1
                self.problems.append(f"exit code {cmd['code']}: {cmd['key']}")
            elif want is None:
                self.failed += 1
                self.problems.append(f"no recorded digest: {cmd['key']}")
            elif cmd["digest"] != want:
                self.failed += 1
                self.problems.append(f"digest mismatch: {cmd['key']}")


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(run: Run, seconds: float) -> dict:
    """Repeat the job until ``seconds`` have passed; end-to-end metrics."""
    run.spawn("setup")  # unmeasured: fills the bytecode cache
    run.setup_s.clear()
    for _ in range(SETUP_REPEATS):
        if run.spawn("setup") is None:
            break
    begin = _monotonic()
    while not run.failed and (not run.jobs or _monotonic() - begin < seconds):
        job = run.spawn("job")
        if job is None:
            break
        run.jobs.append(job)
    if not run.jobs:
        return {}
    # Percentiles are taken per job and their median reported: a job of a
    # sweep workload has only a few commands of very different cost, and a
    # fixed position within each job keeps the estimate from jumping
    # between commands as the number of jobs in a run changes.
    per_job = [[c["ms"] for c in job["commands"]] for job in run.jobs]
    samples = sum(map(len, per_job))
    return {
        "verdict_s": (statistics.median(j["verdict_s"] for j in run.jobs),
                      "s", len(run.jobs)),
        "cmd_ms.p50": (statistics.median(_percentile(ms, 50) for ms in per_job),
                       "ms", samples),
        "cmd_ms.p90": (statistics.median(_percentile(ms, 90) for ms in per_job),
                       "ms", samples),
        "setup_s": (statistics.median(run.setup_s), "s", len(run.setup_s)),
        "peak_rss_mb": (statistics.median(j["peak_rss_mb"] for j in run.jobs),
                        "MB", len(run.jobs)),
    }


def traced_run(run: Run) -> dict:
    """One untraced and one traced job; per-layer metrics."""
    plain = run.spawn("job")
    if plain is None:
        return {}
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, f"spans-{run.workload}-{run.seed}.json")
    traced = run.spawn("trace", spans)
    if traced is None:
        return {}
    run.jobs += [plain, traced]
    metrics = {k: (v, unit, 1) for k, (v, unit) in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (
        traced["wall_s"] / plain["wall_s"], "ratio", 1)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", expected: dict | None = None
                 ) -> tuple[Run, dict]:
    """Run one workload; returns the run (failures, problems) and its
    metrics as name -> (value, unit, samples)."""
    if expected is None:
        expected = load_digests()
    run = Run(workload, seed, size, expected, _monotonic() + RUN_CAP_S)
    metrics = traced_run(run) if trace else timed_run(run, seconds)
    return run, metrics


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _print_block(run: Run, metrics: dict) -> None:
    print(f"workload {run.workload} (seed {run.seed}, size {run.size}, "
          f"{len(run.jobs)} job(s))")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} samples={samples}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'fail_ratio':<44} {ratio:>14.6g} {'ratio':<6} "
          f"failed={run.failed} attempted={run.attempted}")
    for problem in sorted(set(run.problems)):
        print(f"  FAIL {problem}")


def _result_line(runs_metrics, prefix: bool) -> str:
    attempted = sum(r.attempted for r, _ in runs_metrics)
    failed = sum(r.failed for r, _ in runs_metrics)
    metrics = {}
    for run, m in runs_metrics:
        for name, (value, unit, _) in m.items():
            key = f"{run.workload}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    return json.dumps({"correct": failed == 0 and attempted > 0,
                       "attempted": max(attempted, 1), "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qweyl time-to-verdict benchmark")
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny runs every workload at a toy size (self-test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "qweyl", "cli.py")):
        print("error: run from the root of a qweyl checkout "
              "(src/qweyl not found)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    expected = load_digests()
    done = []
    for name in names:
        run, metrics = run_workload(name, args.seed, args.seconds,
                                    bool(args.trace), args.size, expected)
        _print_block(run, metrics)
        done.append((run, metrics))
    print(_result_line(done, prefix=len(names) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
