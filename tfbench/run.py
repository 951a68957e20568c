#!/usr/bin/env python3
"""The tfiris benchmark driver.

    python3 tfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  It builds the CLI and the benchmark's own
OCaml half (tfbench/main.exe) from source with dune, generates the
workload's requests from the seed, and then:

--trace 0  runs the requests as `tfiris` subprocesses in a closed loop
           (one client, one request in flight) for about S seconds,
           timing each from argv to exit (the CPU time the request's
           process spends, user plus system) and checking each verdict
           against the answer the generator built in, and reports the
           end-to-end metrics;
--trace 1  runs one pass of the same subprocess requests (for their
           verdicts), then the same requests in-process with a span
           around each library layer (tfbench/pipeline.ml), and reports
           the per-layer metrics.

Workloads (why each one is here):
  corpus-cold  distinct sequential SHL programs (strings walked by slen,
               insertion-sorted lists, memoised fib, summed heap trees,
               seeded defects), each requested as `run` and as
               `analyze --format=json-stable`, against a fresh cache so
               every lookup misses and stores.  The analyzer (symheap)
               sets the tail, the interpreter the median, and the cache
               write path runs on every request.
  corpus-warm  the same requests replayed against a cache filled during
               set-up; every request must hit.  No driver runs, so the
               time is process start, parsing, the content key, the
               cache read and the ledger append.
  search       hydra games, credit descents, refinement games and
               exhaustive interleaving exploration on 2 domains: the
               transition, ordinal, termination, refinement and
               concurrent layers, which the corpus workloads never run.

The last line of stdout is the result object.  The line before it is
the result row with its provenance (commit, tool version, machine).
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("corpus-cold", "corpus-warm", "search")
CLI = os.path.join("_build", "default", "bin", "tfiris_cli.exe")
BENCH = os.path.join("_build", "default", "tfbench", "main.exe")
WORK = ".tfbench"
REQUEST_TIMEOUT_S = 30
SETUP_REPS = 5
STARTUP_REPS = 41
MIN_REQUESTS = 100
GC_REPORT = {
    "allocated_words", "minor_words", "promoted_words", "major_words",
    "minor_collections", "major_collections", "forced_major_collections",
    "heap_words", "top_heap_words", "mean_space_overhead",
}

END_TO_END = [
    ("setup_s", "s"), ("verdict_cpu_ms_p50", "ms"), ("verdict_cpu_ms_p90", "ms"),
    ("verdicts_per_cpu_s", "1/s"), ("alloc_kwords_per_verdict", "kwords"),
    ("peak_heap_mb", "MB"),
]
PASSES = ("scope", "constprop", "interval", "term", "races", "symheap")
TIMED_LAYERS = (
    ["shl.parser", "obs.content_key", "obs.certcache.find",
     "obs.certcache.store", "obs.ledger.append", "shl.interp.exec"]
    + ["analysis." + p for p in PASSES]
    + ["termination.wp", "refinement.driver", "transition.hydra",
       "shl.conc.explore"])


def _layer(name, *extra):
    return [(name + ".ms", "ms", "lower")] + list(extra) + [
        (name + ".alloc_kwords", "kwords", "lower")]


# (name, unit, better) of every per-layer metric, grouped by layer.
# Times are self times summed over one pass of the workload's requests;
# a layer the workload never calls reports 0.
PER_LAYER = (
    [("cli.startup_ms", "ms", "lower")]
    + _layer("shl.parser", ("shl.parser.kbytes", "kB", "lower"))
    + _layer("obs.content_key")
    + _layer("obs.certcache.find",
             ("obs.certcache.hits", "count", "higher"),
             ("obs.certcache.misses", "count", "lower"),
             ("obs.certcache.hit_frac", "ratio", "higher"))
    + _layer("obs.certcache.store")
    + _layer("obs.ledger.append", ("obs.ledger.records", "count", "lower"))
    + _layer("shl.interp.exec",
             ("shl.interp.steps", "count", "lower"),
             ("shl.interp.ksteps_per_ms", "ksteps/ms", "higher"))
    + [m for p in PASSES for m in _layer("analysis." + p)]
    + [("analysis.symheap.exact_frac", "ratio", "higher")]
    + _layer("termination.wp", ("termination.wp.steps", "count", "lower"))
    + _layer("refinement.driver", ("refinement.driver.steps", "count", "lower"))
    + _layer("transition.hydra",
             ("transition.hydra.chops", "count", "lower"),
             ("transition.hydra.successors", "count", "lower"),
             ("transition.hydra.useful_frac", "ratio", "higher"))
    + [("ordinal.ops", "count", "lower")]
    + _layer("shl.conc.explore",
             ("shl.conc.explore.states", "count", "lower"),
             ("shl.conc.explore.states_per_ms", "1/ms", "higher"),
             ("shl.conc.explore.steals", "count", "lower"),
             ("shl.conc.explore.imbalance", "ratio", "lower"))
    + [("trace.overhead_frac", "ratio", "lower")]
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
# Counts that must repeat exactly between two traced runs of one seed.
# Allocation is compared for every layer except the parallel explorer,
# whose worker domains allocate outside the measuring domain's counters.
DETERMINISTIC_COUNTS = (
    "interp_steps", "chops", "successors", "ordinal_ops", "states",
    "wp_steps", "driver_steps", "parser_bytes", "hits", "misses",
    "ledger_records", "symheap_exact", "symheap_summaries",
)


def die(msg):
    print("tfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def clean_env(extra=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("TFIRIS_CACHE", "TFIRIS_DOMAINS", "OCAMLRUNPARAM")}
    # temporary files (the compiler's among them) stay in the checkout
    env["TMPDIR"] = os.path.abspath(os.path.join(WORK, "tmp"))
    env.update(extra or {})
    return env


def build():
    for need in ("dune-project", os.path.join("bin", "tfiris_cli.ml"),
                 os.path.join("tfbench", "dune")):
        if not os.path.exists(need):
            die("run from the root of a tfiris checkout (missing %s)" % need)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    # the dune cache lives outside the checkout; build without it
    p = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "bin/tfiris_cli.exe", "tfbench/main.exe"],
        capture_output=True, text=True, env=clean_env({"DUNE_CACHE": "disabled"}))
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        die("build failed")


def bench_exe(args):
    p = subprocess.run([BENCH] + args, capture_output=True, text=True,
                       env=clean_env())
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die("%s %s failed" % (BENCH, args[0]))
    return p.stdout


def cpu_s(who=resource.RUSAGE_CHILDREN):
    """User plus system CPU seconds of the waited-for children (or self).

    The timings the benchmark reports are CPU time, not wall time: on a
    shared host the wall time of a request also holds the time its
    process waited for a processor (the kernel charges a virtual CPU's
    steal time to no task), which moves with the neighbours' load by
    more than a change to the program would."""
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def load_manifest(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ---------------------------------------------------------------- requests

def run_request(req, cache=None, ledger=None, expect_hit=None):
    """Run one request as a subprocess; return its record."""
    argv = [CLI] + req["argv"]
    if cache is not None:
        argv += ["--cache=" + cache, "--ledger=" + ledger]
    c0, t0 = cpu_s(), time.perf_counter()
    try:
        p = subprocess.run(argv, capture_output=True, text=True,
                           timeout=REQUEST_TIMEOUT_S,
                           env=clean_env({"OCAMLRUNPARAM": "v=0x400"}))
        wall_ms = (time.perf_counter() - t0) * 1000.0
        ms = (cpu_s() - c0) * 1000.0
    except subprocess.TimeoutExpired:
        return {"id": req["id"], "ms": REQUEST_TIMEOUT_S * 1000.0,
                "wall_ms": REQUEST_TIMEOUT_S * 1000.0,
                "exit": None, "stdout": "", "alloc": 0, "top_heap": 0,
                "error": "timed out after %d s" % REQUEST_TIMEOUT_S}
    gc, stderr = {}, []
    for line in p.stderr.splitlines():
        k, _, v = line.partition(": ")
        if k in GC_REPORT:
            gc[k] = v
        else:
            stderr.append(line)
    rec = {"id": req["id"], "ms": ms, "wall_ms": wall_ms,
           "exit": p.returncode, "stdout": p.stdout,
           "alloc": int(gc.get("allocated_words", 0)),
           "top_heap": int(gc.get("top_heap_words", 0))}
    rec["error"] = check(req, rec, "\n".join(stderr), expect_hit)
    return rec


def check(req, rec, stderr, expect_hit):
    """None if the request's outcome is the one built into it."""
    exp = req["expect"]
    code, out = rec["exit"], rec["stdout"]
    if code is None or code < 0 or code == 2:
        return "crashed (exit %s): %s" % (code, stderr[-200:])
    if code != exp["exit"]:
        return "exit %d, expected %d: %s" % (code, exp["exit"], stderr[-200:])
    hit = "tfiris: cache hit" in stderr
    if expect_hit is not None and hit != expect_hit:
        return "cache " + ("miss" if expect_hit else "hit")
    if "stdout" in exp and out != exp["stdout"]:
        return "stdout %r, expected %r" % (out[:80], exp["stdout"][:80])
    if "prefix" in exp and not out.startswith(exp["prefix"]):
        return "stdout %r, expected prefix %r" % (out[:80], exp["prefix"])
    if "stderr" in exp and exp["stderr"] not in stderr:
        return "stderr %r lacks %r" % (stderr[-120:], exp["stderr"])
    if "contains" in exp and exp["contains"] not in out:
        return "stdout %r lacks %r" % (out[:120], exp["contains"])
    if "golden" in exp:
        with open(exp["golden"]) as f:
            if out != f.read():
                return "report differs from " + exp["golden"]
    if "errors" in exp:
        try:
            errors = sum(r["counts"]["error"] for r in json.loads(out))
        except (ValueError, KeyError, TypeError):
            return "unparseable report"
        if errors != exp["errors"]:
            return "%d analyzer errors, expected %d" % (errors, exp["errors"])
    return None


def run_pass(reqs, workload, work, npass, ledger):
    """One pass over every request; cold passes get a fresh cache."""
    if workload == "search":
        return [run_request(r) for r in reqs]
    if workload == "corpus-cold":
        cache = os.path.join(work, "cold-cache-%d" % npass)
        return [run_request(r, cache, ledger, expect_hit=False) for r in reqs]
    cache = os.path.join(work, "setup", "cache")
    return [run_request(r, cache, ledger, expect_hit=True) for r in reqs]


# ------------------------------------------------------------------ set-up

def setup(workload, seed, work):
    """Generate the requests and warm up; repeated, the median is setup_s.

    The warm-up pass runs the requests once before timing: for the corpus
    workloads every request against a fresh cache (for corpus-warm that
    cache is the one the timed loop replays), for search every request
    that is not heavy.  It fills the OS caches the timed loop would
    otherwise pay for on its first pass.  Each set-up is timed as the CPU
    time it costs, the driver's own and its children's."""
    def spent():
        return cpu_s() + cpu_s(resource.RUSAGE_SELF)

    times = []
    for rep in range(SETUP_REPS):
        d = os.path.join(work, "setup")
        shutil.rmtree(d, ignore_errors=True)
        t0 = spent()
        os.makedirs(d)
        bench_exe(["gen", "--workload", workload, "--seed", str(seed), "--out", d])
        reqs = load_manifest(os.path.join(d, "manifest.jsonl"))
        if workload == "search":
            for r in reqs:
                if not r["heavy"]:
                    run_request(r)
        else:
            for r in reqs:
                run_request(r, os.path.join(d, "cache"),
                            os.path.join(d, "ledger.jsonl"))
        times.append(spent() - t0)
    return reqs, statistics.median(times), len(times)


# ----------------------------------------------------------------- metrics

def percentile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def measure(reqs, workload, work, seconds):
    """Closed loop over whole passes; the records and each pass's rate,
    in requests per CPU second and per wall second."""
    ledger = os.path.join(work, "ledger.jsonl")
    recs, rates, wall_rates = [], [], []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        done = run_pass(reqs, workload, work, len(rates), ledger)
        recs += done
        rates.append(len(reqs) * 1000.0 / sum(r["ms"] for r in done))
        wall_rates.append(len(reqs) / (time.perf_counter() - p0))
        elapsed = time.perf_counter() - t0
        # whole passes only, so every run sees the same request mix;
        # stop at the pass boundary nearest the time limit
        if elapsed + elapsed / len(rates) / 2 >= seconds and len(recs) >= MIN_REQUESTS:
            return recs, rates, wall_rates, elapsed


def end_to_end(recs, rates, setup_s):
    ms = [r["ms"] for r in recs]
    return {
        "setup_s": setup_s,
        "verdict_cpu_ms_p50": statistics.median(ms),
        "verdict_cpu_ms_p90": percentile(ms, 90),
        # the median pass, so one pass slowed by a neighbour on the
        # machine does not move the run's figure
        "verdicts_per_cpu_s": statistics.median(rates),
        "alloc_kwords_per_verdict": statistics.mean(r["alloc"] for r in recs) / 1000.0,
        "peak_heap_mb": max(r["top_heap"] for r in recs) * 8 / 1e6,
    }


def wall_figures(recs, wall_rates):
    """The wall-clock counterparts, printed beside the metrics."""
    wall = [r["wall_ms"] for r in recs]
    return ("wall time (not a metric: it moves with the host's load): "
            "p50 %.4g ms, p90 %.4g ms, %.4g requests/s"
            % (statistics.median(wall), percentile(wall, 90),
               statistics.median(wall_rates)))


def in_process(reqs_path, workload, work, tag, traced):
    """One in-process run of every request (tfbench/pipeline.ml)."""
    args = ["trace", "--manifest", reqs_path]
    if workload != "search":
        cache = (os.path.join(work, "setup", "cache") if workload == "corpus-warm"
                 else os.path.join(work, "trace-cache-" + tag))
        args += ["--cache", cache, "--ledger", os.path.join(work, "trace-ledger-%s.jsonl" % tag)]
    if traced:
        args += ["--spans", os.path.join(work, "spans-%s.jsonl" % tag)]
    else:
        args += ["--untraced"]
    return json.loads(bench_exe(args))


def per_layer(a, startup_ms, overhead):
    layers, c = a["layers"], a["counts"]

    def ms(name):
        return layers.get(name, {}).get("ms", 0.0)

    def ratio(x, y):
        return x / y if y else 0.0

    m = {"cli.startup_ms": startup_ms, "trace.overhead_frac": overhead}
    for l in TIMED_LAYERS:
        m[l + ".ms"] = ms(l)
        m[l + ".alloc_kwords"] = layers.get(l, {}).get("alloc_kwords", 0.0)
    deq = a["dequeued"]
    m.update({
        "shl.parser.kbytes": c["parser_bytes"] / 1000.0,
        "obs.certcache.hits": c["hits"],
        "obs.certcache.misses": c["misses"],
        "obs.certcache.hit_frac": ratio(c["hits"], c["hits"] + c["misses"]),
        "obs.ledger.records": c["ledger_records"],
        "shl.interp.steps": c["interp_steps"],
        "shl.interp.ksteps_per_ms": ratio(c["interp_steps"] / 1000.0, ms("shl.interp.exec")),
        "analysis.symheap.exact_frac": ratio(c["symheap_exact"], c["symheap_summaries"]),
        "termination.wp.steps": c["wp_steps"],
        "refinement.driver.steps": c["driver_steps"],
        "transition.hydra.chops": c["chops"],
        "transition.hydra.successors": c["successors"],
        "transition.hydra.useful_frac": ratio(c["chops"], c["successors"]),
        "ordinal.ops": c["ordinal_ops"],
        "shl.conc.explore.states": c["states"],
        "shl.conc.explore.states_per_ms": ratio(c["states"], ms("shl.conc.explore")),
        "shl.conc.explore.steals": c["steals"],
        "shl.conc.explore.imbalance": ratio(max(deq), statistics.mean(deq)) if deq else 0.0,
    })
    return {name: m[name] for name, _, _ in PER_LAYER}


def not_repeating(a, b):
    """Names of the counts (gating) and allocations (reported) that differ."""
    counts = [k for k in DETERMINISTIC_COUNTS if a["counts"][k] != b["counts"][k]]
    allocs = [l + ".alloc_kwords" for l in TIMED_LAYERS
              if l != "shl.conc.explore"
              and a["layers"].get(l, {}).get("alloc_kwords")
              != b["layers"].get(l, {}).get("alloc_kwords")]
    return counts, allocs


# -------------------------------------------------------------- provenance

def provenance(workload, seed):
    def out(argv):
        try:
            p = subprocess.run(argv, capture_output=True, text=True, env=clean_env())
            return p.stdout.strip() if p.returncode == 0 else None
        except OSError:
            return None

    # the checkout may not be a git repository; the source digest names
    # the code measured either way
    digest = hashlib.sha256()
    for top in ("bin", "lib", "tfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(root, f)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    env = json.loads(bench_exe(["env"]))
    return {
        "workload": workload,
        "seed": seed,
        "commit": out(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None,
        "source_sha256": digest.hexdigest(),
        "tfiris_version": out([CLI, "--version"]),
        "nproc": os.cpu_count(),
        "recommended_domains": env["recommended_domains"],
        "ocaml": env["ocaml"],
    }


# -------------------------------------------------------------------- main

def report(prov, metrics, units, samples, attempted, failed, failures, extra_lines=()):
    w = prov["workload"]
    print("tfbench %s seed=%d  (%s, %s cores, OCaml %s)"
          % (w, prov["seed"], prov["commit"] or prov["source_sha256"][:12],
             prov["nproc"], prov["ocaml"]))
    for name, value in metrics.items():
        print("  %-34s %14.6g %-9s (n=%s)" % (name, value, units[name], samples.get(name, 1)))
    print("  %-34s %14.6g %-9s (%d/%d)" % ("fail_frac", failed / attempted,
                                           "ratio", failed, attempted))
    for line in extra_lines:
        print("  " + line)
    for rid, why in failures:
        print("  FAILED %s: %s" % (rid, why))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    # a fixed name: the paths of the generated programs end up in
    # ledger records, so their length must not vary between runs
    work = os.path.join(WORK, "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work):
    prov = provenance(args.workload, args.seed)
    reqs, setup_s, setup_reps = setup(args.workload, args.seed, work)
    family = {r["id"]: r["family"] for r in reqs}

    def failures_of(recs):
        return [(r["id"], family[r["id"]] + ": " + r["error"]) for r in recs if r["error"]]

    if args.trace == 0:
        recs, rates, wall_rates, elapsed = measure(reqs, args.workload, work, args.seconds)
        metrics = end_to_end(recs, rates, setup_s)
        failures = failures_of(recs)
        attempted = len(recs)
        samples = {k: len(recs) for k in metrics}
        samples["setup_s"] = setup_reps
        samples["verdicts_per_cpu_s"] = len(rates)
        units = dict(END_TO_END)
        extra = ["%d requests per pass, %d passes, %.2f s" % (len(reqs), len(rates), elapsed),
                 wall_figures(recs, wall_rates)]
        failed = len(failures)
        correct = not failures
    else:
        startup = []
        for _ in range(STARTUP_REPS):
            c0 = cpu_s()
            subprocess.run([CLI, "--version"], capture_output=True, env=clean_env())
            startup.append((cpu_s() - c0) * 1000.0)
        recs = run_pass(reqs, args.workload, work, 0, os.path.join(work, "ledger.jsonl"))
        failures = failures_of(recs)
        manifest = os.path.join(work, "setup", "manifest.jsonl")
        a = in_process(manifest, args.workload, work, "a", True)
        b = in_process(manifest, args.workload, work, "b", True)
        u = in_process(manifest, args.workload, work, "u", False)
        spans = os.path.join(WORK, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        shutil.copy(os.path.join(work, "spans-a.jsonl"), spans)
        # the layer numbers must describe the work the CLI did
        sub = {r["id"]: (r["exit"], r["stdout"]) for r in recs}
        for o in a["outcomes"] + b["outcomes"] + u["outcomes"]:
            if sub[o["id"]] != (o["exit"], o["stdout"]):
                failures.append((o["id"], "in-process verdict differs from the CLI's: "
                                 "exit %s, stdout %r" % (o["exit"], o["stdout"][:80])))
        counts, allocs = not_repeating(a, b)
        overhead = (a["wall_s"] + b["wall_s"]) / 2 / u["wall_s"] - 1.0
        metrics = per_layer(a, statistics.median(startup), overhead)
        attempted = len(recs)
        units = PER_LAYER_UNITS
        samples = {"cli.startup_ms": STARTUP_REPS}
        extra = ["traced run %.3f s, untraced %.3f s; spans in %s"
                 % (a["wall_s"], u["wall_s"], spans),
                 "determinism: %s" % ("sequential counts repeat" if not counts
                                      else "NOT REPEATING: " + ", ".join(counts))]
        if allocs:
            extra.append("allocation not repeating: " + ", ".join(allocs))
        failed = len({rid for rid, _ in failures})
        correct = not failures and not counts

    report(prov, metrics, units, samples, attempted, failed, failures, extra)
    print(json.dumps({"tfbench_row": dict(prov, metrics={
        k: {"value": v, "unit": units[k], "n": samples.get(k, 1)} for k, v in metrics.items()},
        attempted=attempted, failed=failed)}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
