"""epskernel benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload soundness_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --quick
    python3 bench/run.py --record-answers

Run from any directory; the program is imported from ``src/`` next to this
directory.  The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured without
tracing; with ``--trace 1`` they are the per-layer metrics of a traced run.
``--quick`` runs every workload on a tiny slice in both modes and checks
the output form and the known answers, with no timing bounds.  See
bench/README.md for the workloads and metrics.

The end-to-end timings use each op's mean latency over the run, so a
commit that completes more passes is measured with the same statistic,
and they are scaled to a nominal host speed by gauge.py.  ``setup_s`` is
the median of several set-ups, each timed from the start of a fresh
process, spread over the timed part of the run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gauge  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("syntax", "parser", "kernel", "models", "transform", "semantics",
           "generators", "cli")
WORKLOADS = {
    "soundness_sweep": workloads.build_soundness,
    "epsilon_sweep": workloads.build_epsilon,
    "requests": workloads.build_requests,
}
# set-ups measured in a run, each in a fresh process, spread over the
# timed part so that they see the same machine state as the ops
SETUP_REPEATS = 5
# percentiles considered for the tail; the highest one with at least
# TAIL_BEYOND ops above it is reported
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
# op time between two gauge readings, and the op time over which the
# readings are pooled into one speed
GAUGE_EVERY_S = 0.025
WINDOW_S = 1.0
# gauge readings a set-up process takes after its set-up
SETUP_READINGS = 24


class BenchError(Exception):
    pass


def load_epskernel():
    """Import epskernel afresh from src/, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "epskernel" / "__init__.py").is_file():
        raise BenchError("no epskernel package under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "epskernel" or n.startswith("epskernel.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("epskernel")
    if Path(pkg.__file__).resolve().parent != (src / "epskernel").resolve():
        raise BenchError("epskernel was imported from %s, not from src/" % pkg.__file__)
    return SimpleNamespace(**{m: importlib.import_module("epskernel." + m)
                              for m in MODULES})


def setup(name, seed, workdir, quick=False):
    ek = load_epskernel()
    return ek, WORKLOADS[name](ek, seed, workdir, quick)


def timed_setup(name, seed, quick):
    """Seconds from starting a fresh process to the end of its set-up:
    interpreter start-up, the benchmark's imports, importing epskernel,
    and the workload's set-up.  Returns them with the median gauge
    reading that the process takes after its set-up, which gives the
    speed of the CPU it ran on."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest, err = child.communicate()
    if child.returncode != 0 or line.strip() != "ready":
        raise BenchError("set-up process failed (exit %s): %s"
                         % (child.returncode, err.strip()[-500:]))
    return elapsed, float(rest)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values):
    """(percentile, value, values beyond it) for the highest ladder
    percentile with at least TAIL_BEYOND values beyond it."""
    n = len(sorted_values)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            best = p
    return best, percentile(sorted_values, best), n - math.ceil(best / 100 * n)


class Outputs:
    """First output of every op, and which executions failed.  An op
    whose output changes between executions fails as well."""

    def __init__(self, prepared):
        self.prepared = prepared
        self.first = {}
        self.unstable = set()
        self.counts = [0] * len(prepared.ops)

    def record(self, i, out):
        self.counts[i] += 1
        if i not in self.first:
            self.first[i] = out
        elif out != self.first[i]:
            self.unstable.add(i)

    def failures(self):
        """[(label, executions, message)] for every failing op."""
        bad = []
        for i, out in sorted(self.first.items()):
            try:
                msg = self.prepared.verify(i, out)
            except Exception as e:  # an unreadable output is a wrong answer
                msg = "checking the output raised %s: %s" % (type(e).__name__, e)
            if msg is None and i in self.unstable:
                msg = "output differs between executions"
            if msg is not None:
                bad.append((self.prepared.ops[i][0], self.counts[i], msg))
        return bad


def timed_passes(prepared, outputs, rng, seconds, measure_setup, setups):
    """Run passes over the ops, each in a fresh seeded order, until
    `seconds` of op time have elapsed; the first pass is always whole,
    the last may be cut short.  Between ops, the host-speed gauge is read
    every GAUGE_EVERY_S of op time, and `setups` set-up measurements are
    taken at even intervals; neither counts as op time.  Returns a Timing."""
    ops = prepared.ops
    timing = Timing(len(ops))
    due = [(k + 0.5) / setups * seconds for k in range(setups)]
    meter = gauge.Gauge()
    clock = time.perf_counter
    start = clock()
    paused = 0.0
    last_reading = -GAUGE_EVERY_S
    while timing.passes == 0 or clock() - start - paused < seconds:
        timing.passes += 1
        order = list(range(len(ops)))
        rng.shuffle(order)
        for i in order:
            t0 = clock()
            out = ops[i][1]()
            t1 = clock()
            outputs.record(i, out)
            window = int((t0 - start - paused) // WINDOW_S)
            timing.latencies[i].append((t1 - t0, window))
            now = t1 - start - paused
            while now - last_reading >= GAUGE_EVERY_S:
                timing.readings.setdefault(window, []).append(meter.reading())
                last_reading += GAUGE_EVERY_S
            if due and now >= due[0]:
                due.pop(0)
                timing.setups.append(measure_setup())
            paused += clock() - t1
            if timing.passes > 1 and clock() - start - paused >= seconds:
                break
    timing.elapsed = clock() - start - paused
    timing.setups += [measure_setup() for _ in due]
    return timing


class Timing:
    """Raw timings of a run and the gauge readings that scale them.

    Every latency is scaled by NOMINAL_S over the median gauge reading of
    the window in which it was taken: it reads as it would at the
    gauge's nominal speed.  A window without readings takes the median of
    all readings.  A set-up is scaled by its own process's readings."""

    def __init__(self, n_ops):
        self.latencies = [[] for _ in range(n_ops)]   # [(seconds, window)]
        self.readings = {}                             # window -> [seconds]
        self.setups = []                               # [(seconds, reading)]
        self.passes = 0
        self.elapsed = 0.0

    def scale(self):
        every = statistics.median(r for rs in self.readings.values() for r in rs)
        per_window = {w: gauge.NOMINAL_S / statistics.median(rs)
                      for w, rs in self.readings.items()}
        return lambda w: per_window.get(w, gauge.NOMINAL_S / every)

    def per_op(self, scaled=True):
        """Each op's mean latency, ascending."""
        f = self.scale() if scaled else (lambda w: 1.0)
        return sorted(statistics.fmean(t * f(w) for t, w in ls)
                      for ls in self.latencies if ls)

    def setup(self, scaled=True):
        """Median set-up time."""
        return statistics.median(t * gauge.NOMINAL_S / r if scaled else t
                                 for t, r in self.setups)


def paired_pass(ek, tracer, prepared, outputs, order):
    """Run every op untraced and then traced, back to back, so that both
    timings of an op see the same machine state.  Returns the untraced
    and traced totals."""
    clock = time.perf_counter
    untraced = traced = 0.0
    for i in order:
        fn = prepared.ops[i][1]
        t0 = clock()
        out = fn()
        untraced += clock() - t0
        outputs.record(i, out)
        tracer.install(ek)
        t0 = clock()
        out = tracer.run_op(i + 1, tracing.OP, fn)
        traced += clock() - t0
        tracer.uninstall()
        outputs.record(i, out)
    return untraced, traced


def run(name, seed, seconds, trace, workdir, quick=False):
    """Returns (result dict, report lines).  `quick` runs the workload's
    tiny slice."""
    rng = random.Random("order-%d" % seed)
    report = []
    ek = load_epskernel()
    if trace:
        tracer = tracing.Tracer()
        tracer.install(ek)
        prepared = tracer.run_op(0, tracing.SETUP, lambda: WORKLOADS[name](
            ek, seed, workdir, quick))
        tracer.uninstall()
    else:
        prepared = WORKLOADS[name](ek, seed, workdir, quick)
    outputs = Outputs(prepared)
    if not trace:
        timing = timed_passes(
            prepared, outputs, rng, seconds,
            lambda: timed_setup(name, seed, quick), 1 if quick else SETUP_REPEATS)
        executions = sum(map(len, timing.latencies))
        # each op's mean latency over the run: its expectation does not
        # depend on how many passes the run completes
        per_op = timing.per_op()
        tp, tv, beyond = tail(per_op)
        metrics = {
            # ops per second on the mix of one whole pass
            "verdicts_per_s": (len(per_op) / sum(per_op), "1/s"),
            "latency_ms_p50": (percentile(per_op, 50) * 1e3, "ms"),
            "latency_ms_tail": (tv * 1e3, "ms"),
            "setup_s": (timing.setup(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        raw = timing.per_op(scaled=False)
        readings = [r for rs in timing.readings.values() for r in rs]
        report.append("timed: %d ops in %d passes begun, over %.2f s; tail is "
                      "p%s of the %d per-op mean latencies, with %d ops beyond it"
                      % (executions, timing.passes, timing.elapsed, tp,
                         len(per_op), beyond))
        report.append("unscaled: %.4f ops/s over the run, %.4f ops/s on one "
                      "pass's mix, p50 %.4f ms, tail %.4f ms, set-up %.4f s "
                      "(set-ups %s s)"
                      % (executions / timing.elapsed, len(raw) / sum(raw),
                         percentile(raw, 50) * 1e3, tail(raw)[1] * 1e3,
                         timing.setup(scaled=False),
                         ", ".join("%.3f" % t for t, _ in timing.setups)))
        report.append("gauge: %d readings in %d windows, median %.4f ms "
                      "(nominal %.4f ms)"
                      % (len(readings), len(timing.readings),
                         statistics.median(readings) * 1e3, gauge.NOMINAL_S * 1e3))
        attempted = executions
    else:
        order = list(range(len(prepared.ops)))
        rng.shuffle(order)
        untraced, traced = paired_pass(ek, tracer, prepared, outputs, order)
        metrics = tracer.metrics(untraced, traced)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / ("spans-%s.tsv.gz" % name)
        tracer.write(span_file)
        report.append("traced: one pass of %d ops, each run untraced then "
                      "traced: %.2f s untraced, %.2f s traced; %d spans "
                      "written to %s"
                      % (len(order), untraced, traced, len(tracer.name),
                         span_file.relative_to(ROOT)))
        attempted = len(order)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if trace:
        report.append("self times account for %.6f of the traced set-up and "
                      "op time" % accounted_share(metrics))
    failures = outputs.failures()
    # the traced run executes each op twice but attempts it once
    failed = sum(min(n, 1) if trace else n for _, n, _ in failures)
    report.append("inputs: digest %s (%s)" % (
        prepared.digest, "quick slice" if quick else
        recorded_digest(name, seed, prepared.digest)))
    for lab in prepared.roundtrip_failures:
        report.append("ROUND-TRIP FAILURE: %s" % lab)
    for lab, n, msg in failures:
        report.append("FAILED: %s (%d executions): %s" % (lab, n, msg))
    report.append("failed_share: %d/%d = %.6f" % (failed, attempted,
                                                  failed / attempted))
    result = {
        "correct": not failures and not prepared.roundtrip_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def accounted_share(metrics):
    """Sum of every self time, layers and benchmark remainder, divided by
    the traced set-up and op time; 1.0 when the spans nest properly."""
    total = sum(m["value"] for k, m in metrics.items() if k.endswith("self_s"))
    traced = metrics["trace.setup_s"]["value"] + metrics["trace.ops_s"]["value"]
    return total / traced if traced else 0.0


def recorded_digest(name, seed, digest):
    path = HERE / "digests.json"
    if not path.exists():
        return "no digests recorded"
    want = json.loads(path.read_text()).get(name, {}).get(str(seed))
    if want is None:
        return "seed not recorded"
    return "matches the record" if want == digest else \
        "CHANGED: recorded %s, so this workload differs from the recorded one" % want


def quick():
    """Every workload on a tiny slice, traced and untraced."""
    spec = benchmark_spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            with work_dir() as wd:
                result, report = run(name, 0, 0, trace, wd, quick=True)
            want = layer if trace else e2e
            got = set(result["metrics"])
            if got != want:
                problems.append("%s trace %d: metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s" % (name, trace,
                                                          sorted(want - got),
                                                          sorted(got - want)))
            if trace and abs(accounted_share(result["metrics"]) - 1) > 1e-6:
                problems.append("%s: self times account for %.9f of traced time"
                                % (name, accounted_share(result["metrics"])))
            if not result["correct"] or result["failed"]:
                problems.append("%s trace %d: answer checks failed" % (name, trace))
            for line in report:
                if line.startswith(("FAILED", "ROUND-TRIP")):
                    print("%s trace %d: %s" % (name, trace, line))
            print("quick %s trace %d: %d ops, correct=%s"
                  % (name, trace, result["attempted"], result["correct"]))
    for p in problems:
        print("QUICK FAILURE: " + p)
    print(json.dumps({"quick": not problems}))
    return 1 if problems else 0


def record_answers():
    """Write answers.json: the model counts of every sweep op, full and
    quick, as the code at hand computes them.  Run it only on a commit
    whose model checking is trusted."""
    table = {}
    for name in ("soundness_sweep", "epsilon_sweep"):
        for quick in (False, True):
            with work_dir() as wd:
                _, prepared = setup(name, 0, wd, quick)
                got = {}
                for lab, fn in prepared.ops:
                    c = prepared.counts(fn())
                    if c is not None:
                        got[lab] = list(c)
            table.setdefault(name, {})["quick" if quick else "full"] = got
            print("%s %s: %d ops recorded" % (name, "quick" if quick else "full",
                                              len(got)))
    (HERE / "answers.json").write_text(json.dumps(table, indent=1, sort_keys=True)
                                       + "\n")
    return 0


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("no BENCHMARK.json at %s" % ROOT)
    return json.loads(path.read_text())


class work_dir:
    """Scratch directory for the generated input files, inside the
    checkout, removed on exit."""

    def __enter__(self):
        self.base = ROOT / ".bench_work"
        self.path = self.base / str(os.getpid())
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.base.rmdir()
        except OSError:
            pass
        return False


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny slice of every workload; checks form and answers")
    ap.add_argument("--record-answers", action="store_true",
                    help="write the sweeps' model counts to answers.json")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_child:
            with work_dir() as wd:
                setup(args.workload, args.seed, wd, args.quick)
                print("ready", flush=True)
            meter = gauge.Gauge()
            print(statistics.median(meter.reading() for _ in range(SETUP_READINGS)))
            return 0
        if args.record_answers:
            return record_answers()
        if args.quick:
            return quick()
        if args.workload is None:
            ap.error("--workload is required")
        seconds = args.seconds
        if seconds is None:
            seconds = benchmark_spec()["run_seconds"]
        with work_dir() as wd:
            result, report = run(args.workload, args.seed, seconds,
                                 args.trace, wd)
    except BenchError as e:
        print("bench: error: %s" % e, file=sys.stderr)
        return 2
    print("%s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for line in report:
        print("  " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
