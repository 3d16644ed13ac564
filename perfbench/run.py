#!/usr/bin/env python3
"""Layered benchmark of the wsc reproduction: build, run, compare, smoke.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --compare OLD NEW   # result files or directories
  python3 perfbench/run.py --smoke             # every workload, tiny size

A run builds perfbench/bench.exe with dune (inside the checkout), times
the program's set-up in separate processes, runs the workload, checks
its outputs, writes the full record (host facts, sample counts, cycles,
per-span self times) to .bench_out/, and prints as its last line
{"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1) named in
BENCHMARK.json.  It exits 1 on any correctness miss.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["verify", "longrun", "oracle"]
SETUP_PROBES = 4  # per gap between measuring processes
PROCESSES = 5
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s not found: run from the root of a source checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def exe_args(a):
    return [EXE, "--workload", a.workload, "--seed", str(a.seed),
            "--size", a.size, "--expected", a.expected]


def setup_probes(a, n):
    """Set-up of n fresh processes that stop once set up: the program's
    own set-up time, from the start of its library initialisation to its
    'ready <seconds>' line, and the time from spawning it to that line."""
    inproc, spawn = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        p = subprocess.Popen(exe_args(a) + ["--setup-only"],
                             stdout=subprocess.PIPE, text=True)
        line = p.stdout.readline().split()
        spawn.append(time.perf_counter() - t0)
        p.stdout.read()
        if p.wait() != 0 or len(line) != 2 or line[0] != "ready":
            die("set-up of workload %s failed" % a.workload)
        inproc.append(float(line[1]))
    return inproc, spawn


def source_digest():
    """Digest of the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def run_exe(args, timeout=RUN_TIMEOUT_S):
    """Run the program; returns (exit code, record or None, stdout)."""
    try:
        r = subprocess.run(args, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % timeout)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1]), r.stdout
    except (IndexError, ValueError):
        return r.returncode, None, r.stdout


def summary(rec):
    m = rec["metrics"]
    head = "%s seed=%d trace=%d nproc=%d: %d ops, %d failed, %d processes" % (
        rec["workload"], rec["seed"], rec["trace"], rec["nproc"],
        rec["attempted"], rec["failed"], len(rec["processes"]))
    print(head)
    h = rec["host"]
    print("  host: nproc=%d ocaml=%s commit=%s sources=%s" % (
        h["nproc"], h["ocaml_version"], h["git_commit"] or "none", h["source_digest"]))
    for k in sorted(m):
        if rec["trace"] == 0 or k.startswith(("layer.", "trace.")):
            print("  %-28s %14.6g %s" % (k, m[k]["value"], m[k]["unit"]))
    if rec["sim_cycles"]:
        print("  %-28s %14.0f cycles over %d programs" % (
            "sim_cycles", sum(rec["sim_cycles"].values()), len(rec["sim_cycles"])))
    if rec["trace"] == 0:
        print("  process walls: " + " ".join(
            "%.4g" % p["wall_s"] for p in rec["processes"]))
    for f in rec["failures"]:
        print("  FAILED: " + f)


def run(a):
    """An untraced run measures in PROCESSES fresh processes, seconds/PROCESSES
    each, and reports the one with the lowest wall_s.  A process keeps the
    memory placement it starts with, and on the 2-core host this was sized
    on, some processes ran their whole life 1.35-1.5x slower than others;
    the fastest of five is steady where a single process is not.  Set-up
    is probed before, between and after them, and setup_s is the median
    set-up of the probes and the measuring processes.  A traced run is
    one process."""
    build()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-s%d-t%d" % (a.workload, a.seed, a.trace))
    spans = ["--spans", stem + ".spans.json"] if a.trace == 1 else []
    k = PROCESSES if a.trace == 0 else 1
    probes = SETUP_PROBES if a.trace == 0 else 0
    setup_samples, spawn_samples = setup_probes(a, probes)
    recs, codes = [], []
    for _ in range(k):
        code, rec, out = run_exe(exe_args(a) + spans + [
            "--seconds", str(a.seconds / k), "--trace", str(a.trace)])
        if rec is None:
            sys.stderr.write(out)
            die("the program printed no result (exit %d)" % code)
        recs.append(rec)
        codes.append(code)
        inproc, spawn = setup_probes(a, probes)
        setup_samples += inproc + [rec["setup_s"]]
        spawn_samples += spawn
    rec = dict(min(recs, key=lambda r: r["metrics"]["wall_s"]["value"])
               if a.trace == 0 else recs[0])
    rec.update(
        correct=all(r["correct"] for r in recs),
        attempted=sum(r["attempted"] for r in recs),
        failed=sum(r["failed"] for r in recs),
        failures=[f for r in recs for f in r["failures"]][:10],
        sim_cycles={c: v for r in recs for c, v in r["sim_cycles"].items()},
        processes=[dict(r["samples"], wall_s=r["metrics"].get("wall_s", {}).get("value"))
                   for r in recs])
    code = max(codes)
    if a.trace == 0:
        rec["metrics"]["setup_s"] = {"value": statistics.median(setup_samples),
                                     "unit": "s"}
    rec.update(host={"nproc": len(os.sched_getaffinity(0)), "ocaml_version": rec["ocaml_version"],
                     "git_commit": git_commit(), "source_digest": source_digest()},
               setup_samples=setup_samples, spawn_to_ready_samples=spawn_samples,
               seconds=a.seconds)
    with open(stem + ".json", "w") as f:
        json.dump(rec, f, indent=1)
    summary(rec)
    s = spec()
    wanted = s["end_to_end"] if a.trace == 0 else s["per_layer"]
    metrics = {}
    for w in wanted:
        got = rec["metrics"].get(w["name"])
        if got is None or got["unit"] != w["unit"]:
            die("metric %s missing or not in %s" % (w["name"], w["unit"]))
        metrics[w["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = rec["correct"] and code == 0
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0 if correct else 1


# ------------------------------------------------------------------ compare

def load_records(path):
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path)
        if f.endswith(".json") and not f.endswith(".spans.json"))
    recs = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if isinstance(r, dict) and "workload" in r and "metrics" in r:
            recs.append(r)
    return recs


def compare(old_path, new_path):
    """Per-workload median deltas of each end-to-end metric and of each
    layer's self time; exit 1 when a correctness check failed on either
    side or any program's simulated cycles differ."""
    old, new = load_records(old_path), load_records(new_path)
    bad = []
    for side, recs in (("old", old), ("new", new)):
        bad += ["%s: %s seed %d failed its checks" % (side, r["workload"], r["seed"])
                for r in recs if not r["correct"]]
    cycles = {}
    for side, recs in (("old", old), ("new", new)):
        for r in recs:
            for k, c in r["sim_cycles"].items():
                cycles.setdefault(k, {}).setdefault(side, set()).add(c)
    for k, sides in sorted(cycles.items()):
        vals = set().union(*sides.values())
        if len(vals) > 1:
            bad.append("sim_cycles differ for %s: %s" % (k, sorted(vals)))
    s = spec()
    better = {m["name"]: m["better"] for m in s["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in s["end_to_end"]}
    for wl in WORKLOADS:
        for trace, names in ((0, [m["name"] for m in s["end_to_end"]]), (1, None)):
            o = [r for r in old if r["workload"] == wl and r["trace"] == trace]
            n = [r for r in new if r["workload"] == wl and r["trace"] == trace]
            if not o or not n:
                continue
            if names is None:
                names = sorted(k for k in o[0]["metrics"]
                               if k.startswith("layer.") and k.endswith(".self_s"))
                names += sorted("span." + k for k in o[0].get("span_self", {}))
            print("%s (%s; runs: %d old, %d new)" % (
                wl, "end to end" if trace == 0 else "traced self time", len(o), len(n)))
            for k in names:
                def med(rs):
                    vals = [r["span_self"].get(k[5:], 0.0) if k.startswith("span.")
                            else r["metrics"].get(k, {}).get("value", 0.0) for r in rs]
                    return statistics.median(vals)
                a, b = med(o), med(n)
                if trace == 1 and max(a, b) < 1e-4:
                    continue
                d = (b - a) / a * 100.0 if a else 0.0
                tag = ""
                if k in better and abs(d) > 0.0:
                    worse = d > 0 if better[k] == "lower" else d < 0
                    tag = "worse" if worse else "better"
                    if worse and abs(d) > 100.0 * bound[k]:
                        tag = "WORSE beyond the %.0f%% bound" % (100.0 * bound[k])
                print("  %-44s %14.6g -> %-14.6g %+8.2f%% %s" % (k, a, b, d, tag))
    for b in bad:
        print("FAIL: " + b)
    return 1 if bad else 0


# ------------------------------------------------------------------ smoke

def smoke():
    """Every workload at the tiny size in both modes, through this script's
    own run path: each run must pass its checks and print exactly the
    metrics BENCHMARK.json names, with their units; and a wrong expected
    value must make the longrun check fail."""
    build()
    s = spec()
    problems = []

    def run_self(*args):
        r = subprocess.run([sys.executable, os.path.abspath(__file__), "--size", "tiny",
                            "--seconds", "1", "--seed", "7"] + list(args),
                           capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        try:
            return r.returncode, json.loads(r.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return r.returncode, None

    for wl in WORKLOADS:
        for trace, wanted in ((0, s["end_to_end"]), (1, s["per_layer"])):
            code, res = run_self("--workload", wl, "--trace", str(trace))
            if res is None or code != 0 or not res["correct"]:
                problems.append("%s trace %d: run failed (exit %d)" % (wl, trace, code))
                continue
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != {w["name"]: w["unit"] for w in wanted}:
                problems.append("%s trace %d: metrics differ from BENCHMARK.json"
                                % (wl, trace))
            print("smoke: %s trace %d ok (%d ops)" % (wl, trace, res["attempted"]))
    with open(EXPECTED) as f:
        exp = json.load(f)
    key = next(k for k in exp["samples"] if k.startswith("longrun/4x4"))
    exp["samples"][key][0][2] += 1.0
    os.makedirs(OUT, exist_ok=True)
    wrong = os.path.join(OUT, "expected-wrong.json")
    with open(wrong, "w") as f:
        json.dump(exp, f)
    code, res = run_self("--workload", "longrun", "--trace", "0", "--expected", wrong)
    if code == 0 or res is None or res["correct"] or res["failed"] == 0:
        problems.append("longrun accepted a wrong expected value for " + key)
    else:
        print("smoke: longrun rejects a wrong expected value for " + key)
    for p in problems:
        print("smoke: FAIL " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--expected", default=EXPECTED)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if a.compare:
        return compare(*a.compare)
    if a.smoke:
        return smoke()
    if not a.workload:
        ap.error("--workload is required")
    return run(a)


if __name__ == "__main__":
    sys.exit(main())
