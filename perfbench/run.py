#!/usr/bin/env python3
"""The campaign benchmark's one command.

Run one workload (builds the program from source first, with dune):

    python3 perfbench/run.py --workload served --seed 7 --seconds 25 --trace 0

prints every metric by name with its unit and better direction, and as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones from a separate traced run. Each run also leaves its full,
self-describing result document (nproc, OCaml version, commit, seed, one
row per campaign) under .perfbench/results/.

Other modes:

    python3 perfbench/run.py --self-check
        runs every workload at a tiny size, twice untraced and twice traced,
        and fails if a named metric is missing or an exact count differs
        between runs of one seed or between the traced and untraced rounds.
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
        compares two result sets (directories of result documents), per
        workload and metric: medians, quartiles, better direction and a
        verdict (improved / unchanged / worse / unresolved).
    python3 perfbench/run.py --write-benchmark-json
        writes BENCHMARK.json at the root from the catalogue below.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RESULTS = os.path.join(".perfbench", "results")

RUN_SECONDS = 25

WORKLOADS = [
    ("inline-exec",
     "one process, BFS on cg/mg/ep/ft class A with nproc pool workers: "
     "execution is ~99% of each evaluation, so engine changes show here"),
    ("inline-lattice",
     "cg/mg/ep class W x bfs/split/delta/anneal on the bf16,half,single menu: "
     "short emulated-format evaluations give patch/create costs a larger share"),
    ("served",
     "in-process daemon, nproc closed-loop clients, warm store: nearly every "
     "evaluation is a store hit, so store/scheduler/wire carry the work, execution little"),
]

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("campaigns_per_s", "1/s", "higher", 0.25),
    ("evals_per_s", "1/s", "higher", 0.25),
    ("campaign_p50_s", "s", "lower", 0.25),
    ("campaign_p90_s", "s", "lower", 0.25),
    ("cpu_s_per_campaign", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("evals_per_campaign", "count", "lower", 0.1),
    ("bits_saved_per_campaign", "bits", "higher", 0.15),
    ("finals_verified", "ratio", "higher", 0.1),
    ("completed_ratio", "ratio", "higher", 0.1),
]

PER_LAYER = [
    ("exec.busy_s", "s", "lower"),
    ("exec.steps", "count", "lower"),
    ("exec.ns_per_step", "ns", "lower"),
    ("exec.ns_per_step.emulated", "ns", "lower"),
    ("exec.minor_words_per_step", "words", "lower"),
    ("exec.share_of_eval", "ratio", "higher"),
    ("code_cache.hit_ratio", "ratio", "higher"),
    ("code_cache.blocks_compiled", "count", "lower"),
    ("vm_create.us_per_eval", "us", "lower"),
    ("vm_create.minor_words_per_eval", "words", "lower"),
    ("patch.us_per_eval", "us", "lower"),
    ("patch.minor_words_per_eval", "words", "lower"),
    ("verify.us_per_eval", "us", "lower"),
    ("verify.minor_words_per_eval", "words", "lower"),
    ("eval.count", "count", "lower"),
    ("eval.ms_p50", "ms", "lower"),
    ("eval.ms_p90", "ms", "lower"),
    ("harness.pass", "count", "higher"),
    ("harness.fail", "count", "lower"),
    ("harness.trap", "count", "lower"),
    ("harness.timeout", "count", "lower"),
    ("harness.crash", "count", "lower"),
    ("pool.busy_ratio", "ratio", "higher"),
    ("search.self_s", "s", "lower"),
    ("strategy.bfs.evals_per_campaign", "count", "lower"),
    ("strategy.split.evals_per_campaign", "count", "lower"),
    ("strategy.delta.evals_per_campaign", "count", "lower"),
    ("strategy.anneal.evals_per_campaign", "count", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.waits", "count", "lower"),
    ("store.entries", "count", "lower"),
    ("store.misses", "count", "lower"),
    ("served.exec_evals", "count", "lower"),
    ("sched.queue_wait_p50_s", "s", "lower"),
    ("sched.run_p50_s", "s", "lower"),
    ("wire.submit_us_p50", "us", "lower"),
    ("wire.rtt_us_p50", "us", "lower"),
    ("durable.bytes_per_eval", "bytes", "lower"),
    ("durable.ms_per_campaign", "ms", "lower"),
    ("fleet.leases", "count", "lower"),
    ("fleet.items_per_lease", "count", "higher"),
    ("fleet.remote_ratio", "ratio", "higher"),
    ("fleet.requeued_items", "count", "lower"),
    ("fleet.ignored", "count", "lower"),
    ("worker.evaluated", "count", "higher"),
    ("worker.batches", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Counts that repeat exactly for a seed (compared by --self-check).
EXACT_E2E = ["evals_per_campaign", "bits_saved_per_campaign", "finals_verified"]
EXACT_LAYER = ["exec.steps", "eval.count", "harness.pass", "harness.fail",
               "harness.trap", "harness.timeout", "harness.crash"]


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ------------------------------------------------------------------ build


def build():
    """Build the benchmark from the checkout's sources; exit if impossible."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no program sources next to perfbench/ (dune-project, lib/): "
            "run from a checkout of the repository", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("build failed", 2)


def commit():
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        ref = open(head).read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            return open(path).read().strip()
        for line in open(os.path.join(ROOT, ".git", "packed-refs")):
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the program and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli", ".py")) or f == "dune":
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    h.update(open(p, "rb").read())
    return h.hexdigest()


# -------------------------------------------------------------------- run


def run_exe(workload, seed, seconds, trace, quick=False, out=None):
    """Run the benchmark executable; return its result document."""
    os.makedirs(os.path.join(ROOT, RESULTS), exist_ok=True)
    if out is None:
        out = os.path.join(RESULTS, "%s-seed%d-trace%d-%d.json"
                           % (workload, seed, trace, time.time_ns()))
    args = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out, "--workdir", ".perfbench"]
    if quick:
        args.append("--quick")
    if trace:
        args += ["--spans", out[:-len(".json")] + ".spans.jsonl"]
    proc = subprocess.run(args, cwd=ROOT)
    if proc.returncode != 0:
        die("benchmark executable failed (exit %d)" % proc.returncode)
    doc = json.load(open(os.path.join(ROOT, out)))
    doc["commit"] = commit()
    doc["source_digest"] = source_digest()
    doc["result_file"] = out
    with open(os.path.join(ROOT, out), "w") as f:
        json.dump(doc, f, indent=1)
    return doc


def catalogue(trace):
    if trace:
        return [(n, u, b) for n, u, b in PER_LAYER]
    return [(n, u, b) for n, u, b, _ in END_TO_END]


def missing_metrics(doc, trace):
    m = doc["metrics"]
    return [n for n, _, _ in catalogue(trace)
            if not isinstance(m.get(n), (int, float)) or isinstance(m.get(n), bool)]


def report(doc, trace):
    print("workload %s  seed %d  trace %d  nproc %d  ocaml %s  commit %s"
          % (doc["workload"], doc["seed"], trace, doc["nproc"], doc["ocaml"],
             doc["commit"] or "(not a git checkout) source " + doc["source_digest"][:12]))
    print("campaigns attempted %d, failed %d, correct %s"
          % (doc["attempted"], doc["failed"], doc["correct"]))
    for e in doc["errors"][:10]:
        print("  error: " + e)
    for n, u, b in catalogue(trace):
        print("  %-36s %16.6g %-6s (%s is better)" % (n, doc["metrics"][n], u, b))
    print("result document: " + doc["result_file"])
    result = {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {n: {"value": doc["metrics"][n], "unit": u} for n, u, _ in catalogue(trace)},
    }
    print(json.dumps(result))


# ---------------------------------------------------------------- compare


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """The pair rule: >= 10 seed-matched pairs, the change wins >= 9/10 of
    them (ties count for neither), and the medians differ by more than the
    parent's inter-quartile spread. Worse means the change's median is worse
    than the parent's by more than the metric's bound. Where either side's
    spread is wider than the bound, the metric is unresolved unless every
    change run reads better than every parent run."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    p_vals, c_vals = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (cm - pm)
    if pm != 0 and -gain > bound * abs(pm):
        return "worse"
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > (p3 - p1):
        return "improved"
    wide = pm != 0 and ((p3 - p1) / abs(pm) > bound or (c3 - c1) / abs(pm) > bound)
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if wide and not all_better:
        return "unresolved"
    return "unchanged"


def load_set(directory):
    docs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        doc = json.load(open(path))
        if doc.get("quick"):
            continue
        docs.setdefault((doc["workload"], doc["trace"]), {})[doc["seed"]] = doc
    return docs


def compare(parent_dir, change_dir):
    parent, change = load_set(parent_dir), load_set(change_dir)
    bounds = {n: bd for n, _, _, bd in END_TO_END}
    print("%-15s %-28s %-6s %s  %s  %s  %s"
          % ("workload", "metric", "better", "parent q1/med/q3".ljust(34),
             "change q1/med/q3".ljust(34), "pairs", "verdict"))
    for (workload, trace) in sorted(parent):
        if (workload, trace) not in change:
            print("%-15s (no change runs with trace %d)" % (workload, trace))
            continue
        p_docs, c_docs = parent[(workload, trace)], change[(workload, trace)]
        for n, _, better in catalogue(trace):
            p = {s: d["metrics"][n] for s, d in p_docs.items() if d["metrics"].get(n) is not None}
            c = {s: d["metrics"][n] for s, d in c_docs.items() if d["metrics"].get(n) is not None}
            if not p or not c:
                continue
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            v = verdict(p, c, better, bounds.get(n, 0.0)) if trace == 0 else "-"
            print("%-15s %-28s %-6s %s  %s  %5d  %s"
                  % (workload, n, better,
                     ("%.4g / %.4g / %.4g" % pq).ljust(34),
                     ("%.4g / %.4g / %.4g" % cq).ljust(34),
                     len([s for s in p if s in c]), v))


# ------------------------------------------------------------- self-check


def self_check():
    build()
    problems = []
    seed = 3
    for workload, _ in WORKLOADS:
        runs = {t: [run_exe(workload, seed, 1, t, quick=True) for _ in range(2)] for t in (0, 1)}
        for t, docs in runs.items():
            for d in docs:
                for n in missing_metrics(d, t):
                    problems.append("%s trace %d: metric %s missing" % (workload, t, n))
                if not d["correct"] or d["failed"]:
                    problems.append("%s trace %d: %d failed campaign(s): %s"
                                    % (workload, t, d["failed"], d["errors"][:3]))
            a, b = docs
            if a["exact"] != b["exact"]:
                problems.append("%s trace %d: per-spec exact counts differ between two runs"
                                % (workload, t))
            names = EXACT_E2E if t == 0 else EXACT_LAYER
            for n in names:
                if a["metrics"].get(n) != b["metrics"].get(n):
                    problems.append("%s trace %d: %s differs between two runs (%s vs %s)"
                                    % (workload, t, n, a["metrics"].get(n), b["metrics"].get(n)))
        for d in runs[1]:
            if d["exact_traced"] != d["exact"]:
                problems.append("%s: traced rounds differ from untraced rounds" % workload)
        if runs[1][0]["exact"] != runs[0][0]["exact"]:
            problems.append("%s: untraced rounds of the traced run differ from the plain run"
                            % workload)
        m = runs[1][0]["metrics"]
        if workload == "served" and m["served.exec_evals"] != m["store.misses"]:
            problems.append("served: served.exec_evals %s != store misses %s"
                            % (m["served.exec_evals"], m["store.misses"]))
        print("self-check %-15s exec share of eval %.3f, trace overhead %.3f"
              % (workload, m["exec.share_of_eval"], m["trace.overhead_ratio"]))
    on_disk = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(on_disk) or json.load(open(on_disk)) != benchmark_json():
        problems.append("BENCHMARK.json does not match the catalogue in perfbench/run.py")
    for p in problems:
        print("FAIL " + p)
    print("self-check: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


# ------------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    ap.add_argument("--write-benchmark-json", action="store_true")
    a = ap.parse_args()
    if a.compare:
        compare(*a.compare)
        return 0
    if a.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if a.self_check:
        return self_check()
    if not a.workload:
        die("--workload is required", 2)
    build()
    doc = run_exe(a.workload, a.seed, a.seconds, a.trace)
    missing = missing_metrics(doc, a.trace)
    if missing:
        die("metrics missing from the result: " + ", ".join(missing))
    report(doc, a.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
