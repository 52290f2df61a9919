"""One fresh interpreter running one job of one workload.

Run from the root of a qweyl checkout:

    python3 perfbench/child.py --workload wide --seed 1 --mode job

Modes:
  setup  import qweyl, build the realizations the workload uses and
         generate its inputs, then stop;
  job    set up, then run the whole job through ``qweyl.cli.main``;
  trace  install the tracer first, then set up and run the job traced.

The last stdout line is one JSON object.  ``ready`` is the system-wide
CLOCK_MONOTONIC reading when set-up finished, so the parent can time set-up
from before the interpreter started.  qweyl's own output is captured and
only its digest and size are reported; checking it is the parent's job.

Speed normalization.  On a shared host the interpreter's speed drifts by
tens of percent over seconds (CPU time tracks wall time, so this is not
scheduling).  In job mode a timer interrupts qweyl every PROBE_INTERVAL_S
and times a fixed pure-Python probe.  The speed around a command is
PROBE_REFERENCE_S over the mean time of the probes taken within
PROBE_WINDOW_S of it.  Each command's time, net of probes, is multiplied by
that speed (``ms``), and ``verdict_s`` is the sum: seconds at the reference
speed.  The raw job time, net of probes, is ``wall_s``.  Right after
set-up a short burst of probes gives ``setup_speed``, which the parent
applies to set-up time the same way.  The probe is benchmark code, so no
change to qweyl can move it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

import workloads

PROBE_INTERVAL_S = 0.02
PROBE_WINDOW_S = 0.25
# Mean probe time on the 2-core Xeon sandbox the benchmark was defined on,
# so normalized times read close to that machine's typical wall times.
PROBE_REFERENCE_S = 0.00038
_PROBE_POLY = {k: (k * 7919) % 101 - 50 for k in range(-12, 13)}


class SpeedProbe:
    """Samples the interpreter's current speed while a job runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.spent = 0.0  # wall time spent in probes, excluded from results

    @staticmethod
    def _probe() -> None:
        for _ in range(3):
            out: dict[int, int] = {}
            for k1, c1 in _PROBE_POLY.items():
                for k2, c2 in _PROBE_POLY.items():
                    k = k1 + k2
                    s = out.get(k, 0) + c1 * c2
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._probe()
        self.samples.append((t0, time.perf_counter() - t0))
        self.spent += time.perf_counter() - t0

    def _warm(self) -> None:
        for _ in range(10):
            self._probe()

    def burst(self, count: int = 20) -> float:
        """Speed right now, from back-to-back probes: taken just after
        set-up, it stands for the speed set-up ran at."""
        self._warm()
        t0 = time.perf_counter()
        for _ in range(count):
            self._probe()
        return PROBE_REFERENCE_S * count / (time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._warm()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Reference speed ÷ speed around [start, end]; 1.0 with no probes
        (a traced job, or one too short to be interrupted)."""
        near = [d for t, d in self.samples
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        if not near:
            return 1.0
        return PROBE_REFERENCE_S * len(near) / sum(near)


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--mode", default="job", choices=("setup", "job", "trace"))
    ap.add_argument("--spans", help="trace mode: write spans to this file")
    return ap.parse_args(argv)


def summarize(argv, code, out, ms) -> dict:
    """What the parent checks of one command: exit code, output digest and
    size, relations reported and failed, and latency."""
    relations = failed = 0
    if argv[0] == "verify" and code in (0, 1):
        report = json.loads(out)
        for rel in report["relations"]:
            relations += 1
            failed += rel["status"] == "fail"
    return {"key": workloads.command_key(argv), "code": code,
            "digest": hashlib.sha256(out.encode()).hexdigest(),
            "bytes": len(out.encode()), "relations": relations,
            "failed_relations": failed, "ms": ms}


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import qweyl.cli
    import qweyl.uqrealize

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
        tracer.install()
    window0 = time.perf_counter()
    for n in workloads.ranks(args.workload, args.size):
        qweyl.uqrealize.build_realization(n)
    commands = workloads.commands(args.workload, args.seed, args.size)
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC),
              "setup_speed": SpeedProbe().burst()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    # Probes would be charged to whichever traced function they interrupt.
    probe = SpeedProbe()
    cli_main = qweyl.cli.main
    clock = time.perf_counter
    outputs = []
    with probe if tracer is None else contextlib.nullcontext():
        start = clock()
        for argv in commands:
            buf = io.StringIO()
            spent0 = probe.spent
            c0 = clock()
            with contextlib.redirect_stdout(buf):
                code = cli_main(list(argv))
            c1 = clock()
            outputs.append((argv, code, buf.getvalue(), c0, c1,
                            c1 - c0 - (probe.spent - spent0)))
        end = clock()

    # Probes after a command count too, so normalize once the job is done.
    seconds = [net * probe.speed(c0, c1) for *_, c0, c1, net in outputs]
    result["wall_s"] = end - start - probe.spent
    result["verdict_s"] = sum(seconds)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["commands"] = [summarize(argv, code, out, s * 1000.0)
                          for (argv, code, out, *_), s in zip(outputs, seconds)]
    if tracer is not None:
        from tracer import layer_metrics
        report_bytes = sum(c["bytes"] for c in result["commands"])
        result["layers"] = layer_metrics(tracer, end - window0, report_bytes)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
