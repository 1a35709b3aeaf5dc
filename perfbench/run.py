"""Run one seqlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exceedance --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client in this single-threaded process.
Each invocation is ``seqlab.cli.main(argv)`` called in-process with stdout
captured, or a direct call to a public library function where the CLI has no
entry point.  One pass runs every kind of the workload once; passes repeat
while the next one is expected to finish within ``--seconds``.  An untimed
warm-up pass with other values runs first.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
passes untraced for half the time, replays them with every layer wrapped in
spans, and reports per-layer metrics plus the tracing overhead; it also checks
that traced stdout is byte-identical to untraced stdout and that every pass
did the same work.  The last stdout line is one JSON object; the lines before
it name each metric with its unit and sample count.

Must be run from a checkout holding ``src/seqlab``; it exits 2 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 11
IMPORT_SNIPPET = "import seqlab.cli as c; c.build_parser()"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup():
    """Median wall time of fresh interpreters importing seqlab.cli and building the parser."""
    cmd = [sys.executable, "-c", IMPORT_SNIPPET]
    env = child_env()
    subprocess.run(cmd, env=env, check=True)  # untimed: compiles bytecode in a fresh checkout
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_import_ms():
    """Median over fresh interpreters of seqlab's own import self time (numpy excluded)."""
    cmd = [sys.executable, "-X", "importtime", "-c", IMPORT_SNIPPET]
    totals = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, env=child_env(), check=True, capture_output=True, text=True)
        total_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("seqlab"):
                total_us += int(parts[0].split(":")[1])
        totals.append(total_us / 1000.0)
    return statistics.median(totals)


def run_call(call, wrap=None):
    """Time one invocation; return (seconds, result or None, failure message or None)."""
    fn = call.run if wrap is None else wrap(call.run)
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # the program raised: a failed invocation
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        call.check(result)
    except Exception as exc:  # Mismatch, or output the oracle cannot parse
        return elapsed, result, str(exc) or type(exc).__name__
    return elapsed, result, None


class Tally:
    """Outcome of a set of invocations."""

    def __init__(self):
        self.latencies = []  # seconds, correct invocations only
        self.busy = 0.0  # seconds spent inside invocations, failed ones included
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures that are not a listed known defect
        self.known = {}  # kind -> defect
        self.pass_rates = []  # correct invocations per busy second, one per pass

    def add(self, call, elapsed, error):
        self.attempted += 1
        self.busy += elapsed
        if error is None:
            self.latencies.append(elapsed)
            return
        self.failed += 1
        if call.known_defect is None:
            self.unexpected.append(f"{call.kind}: {error}")
        else:
            self.known[call.kind] = f"{call.known_defect} ({error})"

    def ops_per_s(self):
        """Median over passes, each of which runs the same mix of kinds."""
        return statistics.median(self.pass_rates) if self.pass_rates else 0.0


def percentile(values, q):
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_pass(calls, tally, outputs=None, wrap=None):
    correct, busy = len(tally.latencies), tally.busy
    for call in calls:
        elapsed, result, error = run_call(call, wrap)
        if outputs is not None:
            outputs.append(result[1] if isinstance(result, tuple) else None)
        tally.add(call, elapsed, error)
        gc.collect()  # untimed: each invocation starts from a collected heap, as a fresh CLI would
    tally.pass_rates.append((len(tally.latencies) - correct) / (tally.busy - busy))


def timed_passes(make_pass, seconds):
    """Run whole passes while the next one is expected to end within ``seconds``."""
    passes, outputs, tally = [], [], Tally()
    start = time.perf_counter()
    while True:
        calls = make_pass(1 + len(passes))
        run_pass(calls, tally, outputs)
        passes.append(calls)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    return passes, outputs, tally


def end_to_end(make_pass, seconds):
    setup_s = measure_setup()
    run_pass(make_pass(0), Tally())  # warm-up, other values
    _, _, tally = timed_passes(make_pass, seconds)
    lat = tally.latencies
    if len(lat) < 100:
        print(f"warning: {len(lat)} correct samples; p90 has fewer than 10 beyond it",
              file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (tally.ops_per_s(), "1/s", len(tally.pass_rates)),
        "latency_p50_ms": (1000.0 * percentile(lat, 0.5), "ms", len(lat)) if lat else (0.0, "ms", 0),
        "latency_p90_ms": (1000.0 * percentile(lat, 0.9), "ms", len(lat)) if lat else (0.0, "ms", 0),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "setup_s": (setup_s, "s", SETUP_SAMPLES),
        "correct_frac": (len(lat) / tally.attempted, "ratio", tally.attempted),
    }
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} ratio "
          f"(n={tally.attempted}, failed={tally.failed})")
    return metrics, tally


def traced(make_pass, seconds, spans_path):
    from tracing import Tracer, layer_metrics, unit, work_signature

    run_pass(make_pass(0), Tally())  # warm-up, other values
    passes, outputs, plain = timed_passes(make_pass, seconds / 2.0)

    tracer = Tracer()
    tally = Tally()
    traced_out = []
    signatures = []
    tracer.install()
    try:
        for calls in passes:
            mark = len(tracer.spans)
            run_pass(calls, tally, traced_out, wrap=tracer.root)
            signatures.append(work_signature(tracer, mark))
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)

    ok = True
    diffs = [i for i, (a, b) in enumerate(zip(outputs, traced_out)) if a != b]
    if diffs:
        ok = False
        print(f"error: traced stdout differs from untraced for {len(diffs)} invocations",
              file=sys.stderr)
    if any(sig != signatures[0] for sig in signatures[1:]):
        ok = False
        print("error: passes with different values did different work", file=sys.stderr)

    layers = layer_metrics(tracer, tally.attempted)
    layers["cli.import_ms"] = measure_import_ms()
    base = plain.ops_per_s()
    layers["trace.overhead_frac"] = 1.0 - tally.ops_per_s() / base if base else 0.0
    metrics = {name: (value, unit(name), tally.attempted) for name, value in sorted(layers.items())}
    return metrics, tally, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqlab" / "cli.py").is_file():
        fail(f"no seqlab sources under {SRC}")
    # one single-threaded process per run: no BLAS worker threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import seqlab.cli  # noqa: F401  (imported before timing, as the harness's own set-up)
    if Path(seqlab.cli.__file__).resolve().parent.parent != SRC:
        fail(f"imported seqlab from {seqlab.cli.__file__}, not from {SRC}")

    from workloads import WORKLOADS, Draw
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    build, prepare = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        draw = Draw(random.Random(args.seed))
        inputs = prepare(draw, work) if prepare else None

        def make_pass(index):
            return build(draw, work, index, inputs)

        if args.trace:
            spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, tally, ok = traced(make_pass, args.seconds, spans_path)
        else:
            (metrics, tally), ok = end_to_end(make_pass, args.seconds), True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for kind, defect in sorted(tally.known.items()):
        print(f"known defect: {kind}: {defect}")
    for msg in tally.unexpected[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    result = {
        "correct": ok and not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
