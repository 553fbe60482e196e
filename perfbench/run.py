#!/usr/bin/env python3
"""The repository benchmark: builds perfbench_harness and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run. Prints a run manifest, one line per metric, and as the last
      line one JSON object: {"correct", "attempted", "failed", "metrics"}.
      --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
      the per-layer metrics.

  python3 perfbench/run.py --steadiness [--rounds 10] [--seconds <s>]
                           [--workloads a,b] [--seed <first seed>]
      Runs every workload --rounds times, round-robin, each run a separate
      untraced invocation with its own seed, and prints each end-to-end
      metric's median and quartiles. Flags a spread (Q3 - Q1) / median above
      the metric's bound; exits 1 if any metric is flagged.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
HARNESS_TIMEOUT_S = 160


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


# --- Build ------------------------------------------------------------------

def build():
    """Configures and builds the harness; returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir)],
                      stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench_harness"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


# --- Harness ----------------------------------------------------------------

def run_harness(harness, workload, seed, seconds, trace, expect):
    """Runs the harness once; returns its parsed output."""
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if expect:
        cmd += ["--expect", expect]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {HARNESS_TIMEOUT_S} s")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(f"harness exited with code {r.returncode}")
    out = {"cells": [], "legs": [], "spans": []}
    for line in r.stdout.splitlines():
        record = json.loads(line)
        kind = record.pop("kind")
        if kind in ("cell", "leg"):
            out[kind + "s"].append(record)
        elif kind == "spans":
            out["spans"] = record["spans"]
        else:
            out[kind] = record
    if "manifest" not in out or "end" not in out:
        fail("harness output is incomplete")
    return out


def expected_fingerprint(workload, seed, path=EXPECTED):
    """The recorded fingerprint when `seed` is the recorded seed, else None."""
    with open(path) as f:
        expected = json.load(f)
    if seed != expected["seed"]:
        return None
    return expected["fingerprints"][workload]


# --- Metrics ----------------------------------------------------------------

def verified(out):
    return [c for c in out["cells"] if c["ok"] and "wall_s" in c]


def outcome(out):
    attempted = len(out["cells"]) + len(out["legs"])
    failed = sum(not r["ok"] for r in out["cells"] + out["legs"])
    return attempted, failed


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def fast_quartile(values):
    """The first quartile of a run's cell timings (0 if there are none).

    Every cell of a run does identical work, and the shared host only ever
    slows a cell down: its co-tenants drift the machine's speed by 20-40%
    over tens of seconds, so the slow cells measure the host. The fast
    quartile is the least host-dependent figure that still rests on a
    quarter of the cells.
    """
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(out):
    cells = [c for c in verified(out) if not c["traced"]]
    attempted, failed = outcome(out)
    wall_s = fast_quartile([c["wall_s"] for c in cells])
    # Every verified cell's counts equal the first cell's (harness check).
    interactions = cells[0]["counts"]["interactions"] if cells else 0
    return {
        "wall_s": wall_s,
        "setup_s": fast_quartile([c["setup_s"] for c in cells]),
        "interactions_per_s": interactions / wall_s if wall_s else 0.0,
        "peak_rss_mb": out["end"]["peak_rss_mb"],
        "passed_share": (attempted - failed) / attempted,
    }


def self_times(spans):
    """Self time of every span: its busy time minus its children's.

    A span is [id, parent, name, start, end, busy, count]; busy is end - start
    except for merged spans, which stand for `count` disjoint intervals. The
    children of one span never overlap (the harness is single-threaded), so
    the time they cover is the sum of their busy times.
    """
    self_time = {s[0]: s[5] for s in spans}
    for s in spans:
        if s[1] in self_time:
            self_time[s[1]] -= s[5]
    return self_time


def descendants(spans, root):
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    stack, found = [root], []
    while stack:
        for s in children.get(stack.pop(), []):
            found.append(s)
            stack.append(s[0])
    return found


LAYER_SPANS = ("init", "build", "stop", "verify", "report")
RUN_SPANS = ("run.array", "run.batch", "run.sharded", "run.ring")


def cell_layer_seconds(spans, clock_ns=0.0):
    """Per traced cell: seconds of self time per layer, plus `uncovered`,
    the cell's own self time (time inside the cell no layer span covers).

    Run time is reported per engine (run.<engine>). A merged `stop` span
    under a run chunk stands for checks timed one by one; each such check
    and its step carry one clock read (`clock_ns`), which is tracing cost,
    so it is taken off the stop layer and the chunk's run layer.
    """
    self_time = self_times(spans)
    by_id = {s[0]: s for s in spans}
    cells = []
    for cell in (s for s in spans if s[2] == "cell"):
        layers = dict.fromkeys(LAYER_SPANS + RUN_SPANS, 0.0)
        for s in descendants(spans, cell[0]):
            if s[2] in layers:
                layers[s[2]] += self_time[s[0]] / 1e9
            parent = by_id[s[1]][2]
            if s[2] == "stop" and parent in RUN_SPANS:
                for layer in ("stop", parent):
                    layers[layer] -= s[6] * clock_ns / 1e9
        layers["uncovered"] = self_time[cell[0]] / 1e9
        cells.append(layers)
    return cells


def per_layer(out):
    manifest = out["manifest"]
    layer = manifest["layer"]
    cells = verified(out)
    traced = [c for c in cells if c["traced"]]
    untraced = [c for c in cells if not c["traced"]]
    if not traced:
        fail("no verified traced cell")
    per_cell = cell_layer_seconds(out["spans"], manifest["clock_ns"])
    reps = traced[0]["setup_reps"]

    def seconds(name):
        return statistics.median(c[name] for c in per_cell)

    def ns_per(run_s, count):
        return run_s * 1e9 / count if count else 0.0

    def only(engine, value):
        return value if layer == engine else 0

    counts = traced[0]["counts"]
    interactions = counts["interactions"]
    array_interactions = counts["arm.array.interactions"]
    count_interactions = interactions - array_interactions
    array_s, batch_s = seconds("run.array"), seconds("run.batch")
    sharded_s, ring_s = seconds("run.sharded"), seconds("run.ring")
    effective = only("batch", counts["effective"])
    stop_s = seconds("stop")
    m = {
        "init.s": seconds("init") / reps,
        "init.bytes": traced[0]["init_bytes"],
        "build.s": seconds("build") / reps,
        "run.interactions": interactions,
        "array.run_s": array_s,
        "array.ns_per_interaction": ns_per(array_s, array_interactions),
        "array.state_bytes": traced[0]["state_bytes"],
        "array.llc_bytes": manifest["llc_bytes"],
        "batch.run_s": batch_s,
        "batch.effective": effective,
        "batch.batched": only("batch", counts["batched"]),
        "batch.multinomial_batches":
            only("batch", counts["multinomial_batches"]),
        "batch.effective_ratio":
            effective / count_interactions if count_interactions else 0.0,
        "batch.ns_per_effective": ns_per(batch_s, effective),
        "sharded.run_s": sharded_s,
        "sharded.rounds": counts["rounds"],
        "sharded.ns_per_interaction": ns_per(sharded_s, only("sharded",
                                                             interactions)),
        "stop.checks": counts["checks"],
        "stop.s": stop_s,
        "stop.ns_per_check": ns_per(stop_s, counts["checks"]),
        "verify.s": seconds("verify"),
        "report.s": seconds("report"),
        "trace.uncovered_s": seconds("uncovered"),
        "trace.overhead_s":
            statistics.median(c["wall_s"] for c in traced) -
            median_or_zero([c["wall_s"] for c in untraced]),
    }
    # The ring engine reports each of its steps (one effective interaction)
    # under the geometric_skip arm.
    ring_effective = only("ring", counts["arm.geometric_skip.steps"])
    m.update({
        "ring.run_s": ring_s,
        "ring.effective": ring_effective,
        "ring.effective_ratio": ring_effective / interactions,
        "ring.ns_per_effective": ns_per(ring_s, ring_effective),
    })
    for arm in ("array", "geometric_skip", "multinomial", "sharded"):
        for field in ("steps", "interactions"):
            m[f"arm.{arm}.{field}"] = counts[f"arm.{arm}.{field}"]
    # The same cell with one shard worker: the sharded_1w leg's run spans.
    legs = [s for s in out["spans"] if s[2] == "leg.sharded_1w"]
    run_1w = sum(s[5] for leg in legs for s in descendants(out["spans"], leg[0])
                 if s[2] == "run.sharded") / 1e9
    m["sharded.run_s_1w"] = run_1w
    m["sharded.scaling"] = run_1w / sharded_s if sharded_s else 0.0
    return m


# --- One run ----------------------------------------------------------------

def run_once(args, bench, expected=EXPECTED):
    harness = build()
    expect = expected_fingerprint(args.workload, args.seed, expected)
    out = run_harness(harness, args.workload, args.seed, args.seconds,
                      args.trace, expect)
    manifest = dict(out["manifest"], git_sha=git_sha(),
                    fingerprint_checked=expect is not None)
    print("manifest " + json.dumps(manifest))
    for r in out["cells"] + out["legs"]:
        if not r["ok"]:
            print(f"FAILED {r.get('name', 'cell')}: {r['error']}")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = per_layer(out) if args.trace else end_to_end(out)
    # Every computed value is printed; the result line carries the metrics
    # BENCHMARK.json declares.
    for name, value in values.items():
        print(f"{name:<32} {value:>18.9g}")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in declared}
    attempted, failed = outcome(out)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# --- Steadiness -------------------------------------------------------------

def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steadiness(args, bench):
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    build()
    results = {w: [] for w in names}
    for r in range(args.rounds):
        for w in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(args.seed + r), "--seconds", str(seconds),
                   "--trace", "0"]
            t0 = time.monotonic()
            p = subprocess.run(cmd, capture_output=True, text=True,
                               cwd=ROOT, timeout=180)
            if p.returncode != 0:
                fail(f"{w} seed {args.seed + r} exited {p.returncode}:\n"
                     + p.stderr)
            result = json.loads(p.stdout.splitlines()[-1])
            results[w].append(result)
            print(f"round {r + 1}/{args.rounds} {w:<16} seed "
                  f"{args.seed + r:<4} {time.monotonic() - t0:6.1f} s "
                  f"wall_s {result['metrics']['wall_s']['value']:.4f} "
                  f"correct={result['correct']}", flush=True)
    flagged = False
    print(f"\n{'workload':<16} {'metric':<20} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w in names:
        for d in bench["end_to_end"]:
            values = [r["metrics"][d["name"]]["value"] for r in results[w]]
            q1, med, q3, s = spread(values)
            mark = ""
            if s > d["bound"]:
                mark = "  OVER BOUND"
                flagged = True
            elif s > d["bound"] / 3:
                mark = "  above bound/3"
            print(f"{w:<16} {d['name']:<20} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {s:8.2%} {d['bound']:6.2f}{mark}")
        if not all(r["correct"] for r in results[w]):
            print(f"{w}: some runs were not correct")
            flagged = True
    sys.exit(1 if flagged else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--workloads")
    args = parser.parse_args()
    bench = load_benchmark()
    if args.steadiness:
        steadiness(args, bench)
    elif args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    else:
        run_once(args, bench)


if __name__ == "__main__":
    main()
