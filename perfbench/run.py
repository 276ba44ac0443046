"""Run one concord workload, check its outputs, print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The run generates its inputs from the seed, builds every profile, then runs
whole rounds of the workload's fixed request list in this process, one
thread, until S seconds have passed (at least one round). The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

--trace 0 reports the end-to-end metrics:
    setup_s         best over fresh interpreters, spread over the run, of
                    import + build profiles
    run_s           time to finish the request list once: the sum over the
                    list of each request's typical latency
    request_ms_p50  median over the list's distinct requests of each one's
                    typical latency
    peak_rss_mb     peak resident set of this process after the rounds
"Typical" is the workload's statistic over the run's repeats: their best or
their median (``Workload.statistic``).
--trace 1 wraps the program's functions (see tracing.py) and reports the
per-layer metrics for one set-up plus one round instead.

Details go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# Cold set-ups per run. The machine the reference figures come from runs up
# to twice as slow in stretches that last from seconds to minutes; the best of
# several set-ups spread over the run finds its unhindered speed, where a few
# taken back to back all land in the same stretch.
SETUP_PROBES = 8
# The interpreter seeds string hashing anew in every process; pin it so
# that runs differ only by what the seed generates.
HASH_SEED = "0"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class SetupProbes:
    """Cold set-ups, each in a fresh interpreter, spread evenly over the run."""

    def __init__(self, texts: list[str], seconds: float):
        self.payload = json.dumps(texts)
        self.gap = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.spent = 0.0  # wall time the probes took, left out of the run's clock

    def take(self, clock: float | None = None) -> None:
        """One probe, or, given the run's clock, one if the next is due."""
        if len(self.times) >= SETUP_PROBES:
            return
        if clock is not None and clock < len(self.times) * self.gap:
            return
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=self.payload, capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=HASH_SEED), timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: " + proc.stderr.strip()[-500:])
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))
        self.spent += time.perf_counter() - t0


class Raised(str):
    """What a request that raised returns instead of its summary."""


def run_rounds(requests, is_failure, seconds: float, tracer=None, probes=None):
    """Whole rounds until ``seconds`` have passed; latencies by request label.

    Every answer after a request's first, in the same round or a later one,
    must equal its first; each that does not counts as drift.
    """
    latencies: dict[str, list[float]] = {}
    round_times: list[float] = []
    first: dict = {}
    failed = drift = 0
    start = time.perf_counter()

    def clock():
        return time.perf_counter() - start - (probes.spent if probes else 0.0)

    while True:
        spent = 0.0
        for label, call in requests:
            if probes:
                probes.take(clock())
            gc.collect()
            frame = tracer.begin("bench.request") if tracer else None
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failed request is counted, not fatal
                out = Raised(repr(exc))
            dt = time.perf_counter() - t0
            if frame:
                tracer.end(frame)
            if isinstance(out, Raised) or is_failure(out):
                failed += 1
            if label not in first:
                first[label] = out
            elif out != first[label]:
                drift += 1
            latencies.setdefault(label, []).append(dt)
            spent += dt
        round_times.append(spent)
        if tracer:
            tracer.keep_spans = False
        if clock() >= seconds:
            return first, latencies, round_times, failed, drift


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                  + sys.argv[1:], env)
    if not (SRC / "concord" / "__init__.py").is_file():
        print("error: no program sources at %s" % (SRC / "concord"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    probes = None if args.trace else SetupProbes([doc.text for doc in wl.docs], args.seconds)

    import concord

    if Path(concord.__file__).resolve().parent != (SRC / "concord").resolve():
        print("error: imported concord from %s" % concord.__file__, file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
    t0 = time.perf_counter()
    profiles = {doc.name: concord.parse_profile(doc.text) for doc in wl.docs}
    setup_inproc = time.perf_counter() - t0
    setup_layers = tracer.snapshot() if tracer else None
    requests = wl.requests(profiles)
    gc.collect()
    gc.freeze()  # the inputs live for the whole run; keep them out of collections

    first, latencies, round_times, failed, drift = run_rounds(
        requests, wl.is_failure, args.seconds, tracer, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.enabled = False

    raised = ["%s raised %s" % (k, v) for k, v in first.items() if isinstance(v, Raised)]
    problems = raised or wl.check(first)
    if drift:
        problems.append("%d repeated requests answered differently from their first" % drift)
    while probes and len(probes.times) < SETUP_PROBES:
        probes.take()

    typical = {label: wl.statistic(times) for label, times in latencies.items()}
    # No single round need have taken this long: it is the list's time with
    # each request at its typical speed, steadier than any one round's time.
    run_s = sum(typical[label] for label, _ in requests)
    if tracer:
        layers = tracing.layer_metrics(setup_layers, tracer.snapshot(), len(round_times))
        # Per-layer figures are per-round averages. The traced round time is
        # run_s's: traced minus untraced run_s is the tracing overhead.
        layers["trace.run_s"] = (run_s, "s")
        layers["trace.setup_s"] = (setup_inproc, "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": min(probes.times), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "request_ms_p50": {"value": statistics.median(typical.values()) * 1000.0,
                               "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    RESULTS.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": len(round_times), "requests_per_round": len(requests),
        "round_s": round_times,
        "setup_samples_s": probes.times if probes else [], "setup_inprocess_s": setup_inproc,
        "request_ms_typical": {label: t * 1000.0 for label, t in typical.items()},
        "request_ms_median": {label: statistics.median(times) * 1000.0
                              for label, times in latencies.items()},
        "request_ms_best": {label: min(times) * 1000.0 for label, times in latencies.items()},
        "repeats": {label: len(times) for label, times in latencies.items()},
        "problems": problems, "metrics": metrics,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
    }
    (RESULTS / (tag + ".json")).write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write(RESULTS / ("trace-%s.jsonl" % args.workload))
    for p in problems:
        print("check failed: " + p, file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(times) for times in latencies.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
