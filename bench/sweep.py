"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 1-10 --trace 0,1 --sets 2 --out bench/BENCH_0.json

For every seed, every workload runs once in its own process for each
trace mode (seed-major, so slow phases of the machine spread over all
workloads).  Each metric is summarised by its median and quartiles, as
``statistics.quantiles(values, n=4)`` gives them, and its spread: the
distance between the quartiles as a share of the median.  Every
end-to-end spread is compared with its bound in BENCHMARK.json.  With
``--sets 2`` the seeds are swept twice in end-to-end mode, and each
median of the second set must not be worse than the first set's by more
than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d): %s"
                         % (workload, seed, proc.returncode, proc.stderr[-2000:]))
    digest = re.search(r"inputs: digest (\w+)", proc.stdout)
    return json.loads(lines[-1]), (digest.group(1) if digest else None), \
        lines[:-1], wall


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def entry_of(results, walls, reports, metrics):
    """Summary of one set of runs of one workload in one trace mode, and
    the end-to-end metrics whose spread exceeds their bound."""
    entry = {
        "correct": all(x["correct"] for x in results),
        "failed_share": sum(x["failed"] for x in results)
        / sum(x["attempted"] for x in results),
        "attempted": [x["attempted"] for x in results],
        "wall_s": [round(x, 2) for x in walls],
        "reports": reports,
        "metrics": {},
    }
    over = []
    for m in metrics:
        vals = [x["metrics"][m["name"]]["value"] for x in results]
        s = summarise(vals) if len(vals) > 1 else {"values": vals}
        s["unit"] = m["unit"]
        if "bound" in m and "spread" in s:
            s["bound"] = m["bound"]
            if s["spread"] > m["bound"]:
                over.append(m["name"])
        entry["metrics"][m["name"]] = s
    return entry, over


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--trace", default="0",
                    help="0 (end-to-end), 1 (per-layer) or 0,1 (both)")
    ap.add_argument("--sets", type=int, default=1,
                    help="sweeps of the seeds in end-to-end mode; later sets "
                         "are compared with the first")
    ap.add_argument("--out", help="write the summary JSON here")
    ap.add_argument("--digests", help="write the input digests here")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    modes = [int(t) for t in args.trace.split(",")]
    # (workload, trace) -> one list of runs per set
    raw = {(w, t): [] for w in names for t in modes}
    digests = {w: {} for w in names}
    for n in range(max(args.sets, 1)):
        for r in raw.values():
            r.append({"results": [], "walls": [], "reports": {}})
        for seed in args.seeds:
            for w in names:
                for t in modes:
                    if t and n:
                        continue
                    result, digest, report, wall = run_once(spec, w, seed, t)
                    r = raw[w, t][n]
                    r["results"].append(result)
                    r["walls"].append(wall)
                    r["reports"][str(seed)] = report
                    digests[w][str(seed)] = digest
                    print("set %d %s seed %d trace %d: %.1f s, correct=%s, "
                          "failed %d/%d" % (n + 1, w, seed, t, wall,
                                            result["correct"], result["failed"],
                                            result["attempted"]), flush=True)

    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {w: {"digests": digests[w]} for w in names},
    }
    ok = True
    for (w, t), sets in raw.items():
        metrics = spec["per_layer" if t else "end_to_end"]
        entries = []
        for n, r in enumerate(sets):
            if not r["results"]:
                continue
            entry, over = entry_of(r["results"], r["walls"], r["reports"], metrics)
            ok = ok and entry["correct"] and not over
            entries.append(entry)
            for m in metrics:
                st = entry["metrics"][m["name"]]
                if "bound" in st:
                    print("set %d %-16s %-16s median %-12.6g spread %.4f "
                          "(bound %.2f)%s" % (n + 1, w, m["name"], st["median"],
                                              st["spread"], st["bound"],
                                              "  OVER" if m["name"] in over else ""))
        if t:
            summary["workloads"][w]["per_layer"] = entries[0]
            continue
        summary["workloads"][w]["end_to_end"] = entries
        for n, entry in enumerate(entries[1:], 2):
            for m in metrics:
                if "bound" not in m:
                    continue
                worse = worse_by(entries[0]["metrics"][m["name"]]["median"],
                                 entry["metrics"][m["name"]]["median"],
                                 m["better"])
                entry["metrics"][m["name"]]["worse_than_set_1"] = worse
                print("set %d %-16s %-16s median worse than set 1 by %+.4f "
                      "(bound %.2f)%s" % (n, w, m["name"], worse, m["bound"],
                                          "  OVER" if worse > m["bound"] else ""))
                ok = ok and worse <= m["bound"]

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    if args.digests:
        Path(args.digests).write_text(json.dumps(
            digests, indent=1, sort_keys=True) + "\n")
    print("all spreads and median shifts within bounds and all runs "
          "correct: %s" % ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
