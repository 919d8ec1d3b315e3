#!/usr/bin/env python3
"""End-to-end benchmark of the VOODB simulator.

Builds the library and the benchmark binary from source (CMake, Release)
under ``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``
at the checkout root), runs one workload, checks its simulated outputs,
and prints one JSON result as the last line of standard output.

    python3 perfbench/run.py --workload contention --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-goldens --seeds 1-20

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics (with a report naming, per metric, the end-to-end metric and
workload it should move).  Metric names, units and directions come from
BENCHMARK.json; catalog.json adds each workload's shape and each metric's
definition, the end-to-end metric it should move and where it applies.

Correctness: every unit of a run must produce the same simulated outputs.
For seeds with a committed golden (goldens.json) they must equal it; on
other seeds each input set also runs an untimed check leg (the
benchmark's hooks on, trace_spans off, and on sharded no thread pool),
committed == requested must hold, and the check leg must agree with the
measured units.  A mismatch makes the run incorrect and counts all its
transactions as failed.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["contention", "ycsb_hot", "dstc", "sharded"]
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
CATALOG = os.path.join(HERE, "catalog.json")
GOLDENS = os.path.join(HERE, "goldens.json")
RUN_TIMEOUT_S = 170
# Input sets per run seed; kInputSets in src/main.cpp.
INPUT_SETS = 8
# Host times are reported at the speed at which this machine runs the
# benchmark's fixed reference kernel in this many ms: each time is scaled
# by REFERENCE_MS over the reference kernel's time measured beside it (on
# as many threads as the measured phase uses), which cancels most of a
# shared host's speed drift between runs.
REFERENCE_MS = 20.0
# Per-layer metrics that the model itself makes 0 on some workloads, so
# the self-test cannot require them non-zero: no cancelled events to
# skim, lock waits rarer than 1 grant in 100, no dirty page written back.
MAY_BE_ZERO = {"desp.skims_per_txn", "cc.lock_wait_p99_ms",
               "storage.writes_per_txn"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", bdir, "-j4"], check=True,
                       stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, scale="full",
               check_legs=False):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--scale", scale, "--scratch", build_dir()]
    if trace:
        args += ["--spans-out", os.path.join(
            build_dir(), "spans-%s-seed%s.json" % (workload, seed))]
    if check_legs:
        args.append("--check-legs")
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_json(path, default=None):
    if not os.path.exists(path):
        return default
    with open(path) as f:
        return json.load(f)


# --- correctness ---------------------------------------------------------------

def merged_outputs(result):
    """Per input-set seed, the union of its units' outputs; plus the
    disagreements among units of one input set (legs included)."""
    merged, problems = {}, []
    for unit in result["units"]:
        into = merged.setdefault(str(unit["seed"]), {})
        for key, value in unit["outputs"].items():
            if key in into and into[key] != value:
                problems.append("seed %s: %s leg disagrees on %s: %r vs %r"
                                % (unit["seed"], unit["leg"], key, value,
                                   into[key]))
            into.setdefault(key, value)
    return merged, problems


def measured_outputs(result):
    """Per input-set seed, the outputs of its measured units (what a
    golden holds)."""
    return {str(u["seed"]): u["outputs"] for u in result["units"]
            if u["leg"] == "measure"}


def check(result, goldens):
    """Returns the list of correctness problems of one binary result."""
    _, problems = merged_outputs(result)
    golden = goldens.get(result["scale"], {}).get(result["workload"], {})
    legs = {}
    for unit in result["units"]:
        legs.setdefault(str(unit["seed"]), set()).add(unit["leg"])
        out = unit["outputs"]
        # Remote sub-transactions commit on top of the requested ones.
        expected = unit["requested"] + out.get("remote_subtxns", 0)
        if unit["committed"] != expected or out["committed"] != expected:
            problems.append("%s leg committed %d of %d requested"
                            % (unit["leg"], unit["committed"], expected))
        if out.get("replay_verified", 1) != 1:
            problems.append("page-trace replay did not reproduce the run")
        for key, value in golden.get(str(unit["seed"]), {}).items():
            if out.get(key) != value:
                problems.append("seed %s: golden mismatch on %s: %r, "
                                "expected %r" % (unit["seed"], key,
                                                 out.get(key), value))
    for seed, names in sorted(legs.items()):
        if seed not in golden and len(names) < 2:
            problems.append("seed %s: no golden and no second leg to check "
                            "it against" % seed)
    return problems


# --- metrics ----------------------------------------------------------------------

def end_to_end(result):
    """Medians per input set, then the median over input sets."""
    by_set = {}
    for unit in result["units"]:
        if unit["leg"] == "measure":
            by_set.setdefault(unit["seed"], []).append(unit)

    def pooled(value):
        return statistics.median(statistics.median(value(u) for u in units)
                                 for units in by_set.values())

    def speed(unit):
        return REFERENCE_MS / unit["reference_ms"]

    setups = [s * REFERENCE_MS / ref for s, ref in result["setup_samples"]]
    setups += [u["setup_s"] * speed(u) for units in by_set.values()
               for u in units]
    return {
        "host_ms_per_ktxn": pooled(
            lambda u: u["host_ms"] * speed(u) / u["committed"] * 1000.0),
        "cpu_ms_per_ktxn": pooled(
            lambda u: u["cpu_ms"] * speed(u) / u["committed"] * 1000.0),
        "allocs_per_txn": pooled(lambda u: u["allocs"] / u["committed"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def per_layer(result, bench):
    """Median over the rounds that measured each metric; 0 where none did
    (the metric does not apply to the workload)."""
    layer = {}
    for metric in bench["per_layer"]:
        name = metric["name"]
        values = [r[name] for r in result["rounds"] if name in r]
        layer[name] = statistics.median(values) if values else 0.0
    return layer


def print_report(result, layer, bench, catalog):
    workload = result["workload"]
    rounds = result["rounds"]
    print("perfbench traced report: workload=%s seed=%s rounds=%d"
          % (workload, result["seed"], len(rounds)))
    print("%-30s %16s %-6s  %s" % ("metric", "value", "unit",
                                   "should move (end-to-end metric on workload)"))
    for metric in bench["per_layer"]:
        name = metric["name"]
        spec = catalog["per_layer"][name]
        applies = workload in spec["applies"]
        value = "%.6g" % layer[name] if applies else "n/a"
        print("%-30s %16s %-6s  %s" % (name, value, metric["unit"],
                                       spec["moves"]))
    print("tracing overhead (traced / untraced host time): %.4f"
          % layer["bench.trace_overhead"])
    print("span self time, host ms summed over all traced legs:")
    for name, agg in sorted(result["span_summary"].items()):
        print("  %-28s calls %7d  total %10.2f  self %10.2f"
              % (name, agg["calls"], agg["total_ms"], agg["self_ms"]))


def measure(args, bench, catalog, goldens):
    binary = build()
    golden = goldens.get(args.scale, {}).get(args.workload, {})
    covered = all(str(args.seed * INPUT_SETS + i) in golden
                  for i in range(INPUT_SETS))
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace == 1, args.scale, check_legs=not covered)
    problems = check(result, goldens)
    for p in problems:
        log("perfbench: INCORRECT:", p)
    if args.trace == 1:
        values = per_layer(result, bench)
        print_report(result, values, bench, catalog)
        section = "per_layer"
    else:
        values = end_to_end(result)
        section = "end_to_end"
    attempted = sum(u["requested"] for u in result["units"])
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in bench[section]},
    }))


# --- goldens and self-test -----------------------------------------------------

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_goldens(args):
    binary = build()
    goldens = load_json(GOLDENS, {})
    full = goldens.setdefault("full", {})
    for workload in WORKLOADS:
        for seed in parse_seeds(args.seeds):
            # --seconds 0 runs each input set of the seed exactly once.
            result = run_binary(binary, workload, seed, 0, False,
                                check_legs=True)
            problems = check(result, {})
            if problems:
                raise SystemExit("cannot record %s seed %d: %s"
                                 % (workload, seed, problems))
            full.setdefault(workload, {}).update(measured_outputs(result))
            log("recorded", workload, seed)
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")


def selftest(bench, catalog):
    """Tiny-size checks of the benchmark itself; exits non-zero on failure."""
    binary = build()
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
        log("selftest:", "ok  " if ok else "FAIL", what)

    seed = 7
    tiny_goldens = {}
    for workload in WORKLOADS:
        plain = [run_binary(binary, workload, seed, 0, False, "tiny",
                            check_legs=True) for _ in range(2)]
        traced = [run_binary(binary, workload, seed, 0, True, "tiny")
                  for _ in range(2)]
        e2e = [end_to_end(r) for r in plain]
        layer = [per_layer(r, bench) for r in traced]
        expect(all(e[m["name"]] > 0 for e in e2e for m in bench["end_to_end"]),
               "%s: every end-to-end metric emitted and non-zero" % workload)
        applicable = {n for n, spec in catalog["per_layer"].items()
                      if workload in spec["applies"]}
        zero = sorted({n for r in layer for n in applicable - MAY_BE_ZERO
                       if not r[n] > 0})
        expect(not zero, "%s: every applicable per-layer metric non-zero%s"
               % (workload, " (zero: %s)" % ", ".join(zero) if zero else ""))
        expect(e2e[0]["allocs_per_txn"] == e2e[1]["allocs_per_txn"],
               "%s: allocs_per_txn identical across processes" % workload)
        for name in ("desp.events_per_txn", "cc.restarts_per_commit"):
            expect(layer[0][name] == layer[1][name],
                   "%s: %s identical across processes" % (workload, name))
        outputs = [merged_outputs(r)[0] for r in plain + traced]
        expect(all(not check(r, {}) for r in plain + traced),
               "%s: invariants hold" % workload)
        expect(outputs[0] == outputs[1] and outputs[2] == outputs[3],
               "%s: simulated outputs identical across processes" % workload)
        traced_set = next(iter(outputs[2]))
        expect(all(outputs[2][traced_set].get(k) == v
                   for k, v in outputs[0][traced_set].items()),
               "%s: traced and untraced outputs identical" % workload)
        tiny_goldens[workload] = measured_outputs(plain[0])

    # A deliberately wrong golden must make the run report failure.
    goldens_path = os.path.join(build_dir(), "selftest-goldens.json")
    for wrong in (False, True):
        goldens = json.loads(json.dumps({"tiny": tiny_goldens}))
        if wrong:
            first = next(iter(goldens["tiny"]["dstc"].values()))
            first["total_ios"] += 1
        with open(goldens_path, "w") as f:
            json.dump(goldens, f)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", "dstc",
             "--seed", str(seed), "--seconds", "0", "--trace", "0",
             "--scale", "tiny", "--goldens", goldens_path],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=RUN_TIMEOUT_S)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if wrong:
            expect(not last["correct"] and last["failed"] == last["attempted"],
                   "a wrong golden makes the run report failure")
        else:
            expect(last["correct"] and last["failed"] == 0,
                   "the right golden passes")
    os.remove(goldens_path)
    log("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--goldens", default=GOLDENS)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    parser.add_argument("--seeds", default="1-20")
    args = parser.parse_args()
    bench = load_json(BENCHMARK)
    catalog = load_json(CATALOG)
    if args.selftest:
        return selftest(bench, catalog)
    if args.record_goldens:
        record_goldens(args)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    measure(args, bench, catalog, load_json(args.goldens, {}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log("perfbench: error:", e)
        sys.exit(1)
