#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the MSP/DSM simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the driver and the simulator library from source into
.bench_build/perfbench, runs passes of the named workload for S
seconds, checks the simulated outputs, and prints human-readable
lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (untraced passes only);
--trace 1 interleaves untraced, traced and layer-off passes and reports
the per-layer metrics. Workloads, metrics and the layer map are
described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD, "perfbench_driver")

NPROC = len(os.sched_getaffinity(0))
WORKLOADS = {
    # name: (workers, layer-off variants measured by the traced run)
    "suite-spec": (1, ["no-pred"]),
    "predictor-deep": (min(NPROC, 4), ["no-pred"]),
    "mesh-faults": (1, ["no-pred", "no-fault", "no-sampler"]),
}
MIN_PASSES = 3
# A pass takes about a second; one that does not end in a minute is
# killed and its in-flight runs count as failed. The whole command
# gives up, without a result, once it has used 170 s.
DRIVER_TIMEOUT_S = 60
DEADLINE = time.perf_counter() + 170

# Paper averages the model error is measured against.
PAPER_SPEC = {"FR-DSM": 92.0, "SWI-DSM": 88.0}  # exec time, % of Base
PAPER_ACC = [81.0, 86.0, 93.0]  # depth-1 Cosmos, MSP, VMSP accuracy %


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------
# Build and attribution
# ---------------------------------------------------------------------

def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(min(NPROC, 4))
    cmds = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    cmds.append(["cmake", "--build", BUILD, "--target",
                 "perfbench_driver", "-j", jobs])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def source_id():
    """git sha when the tree is a repository, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def stamp(seed):
    info = json.loads(subprocess.run([DRIVER, "--info"], check=True,
                                     capture_output=True,
                                     text=True).stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"source": source_id(), **info, "cpu": cpu, "nproc": NPROC,
            "seed": seed}


# ---------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------

class Pass:
    """One pass over a workload's run list, possibly over several
    driver processes when a run aborts the process."""

    def __init__(self, workers=1):
        self.workers = workers
        self.runs = {}       # run index -> driver "run" record
        self.crashed = []    # indices of runs that aborted the driver
        self.labels = {}     # run index -> label, for every started run
        self.panics = {}     # crashed index -> first stderr line
        self.pieces = []     # "pass" records of processes that finished
        self.processes = 0   # driver processes the pass took
        self.wall = 0.0      # host seconds, process spawn to exit
        self.rss_kb = 0      # peak resident set of any process
        self.gen_s = 0.0     # workload generation + compilation
        self.generations = 0  # workload-cache misses ...
        self.hits = 0         # ... and hits
        self.results_s = 0.0  # SweepRunner::results wall (to the last
                              # completed run in an aborted process)
        self.spans = []

    def failed(self):
        """Crashed runs plus runs that tripped the tick-limit guard."""
        return sorted(self.crashed + [i for i, r in self.runs.items()
                                      if not r["stats"]["completed"]])

    def ok_runs(self):
        return [r for i, r in sorted(self.runs.items())
                if r["stats"]["completed"]]

    def attempted(self):
        return len(self.runs) + len(self.crashed)

    def digest(self):
        items = [[i, r["label"], r["stats"]]
                 for i, r in sorted(self.runs.items())]
        items += [["crashed", i] for i in sorted(self.crashed)]
        blob = json.dumps(items, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def spawn(args):
    """Run the driver; return (records, exit code, rusage, wall, stderr)."""
    if time.perf_counter() > DEADLINE:
        raise BenchError("out of time")
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT)
        timer = threading.Timer(DRIVER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        err.seek(0)
        text = err.read().decode(errors="replace")
    records = []
    for line in out.decode(errors="replace").splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            pass  # a line cut short by an abort
    return records, proc.returncode, ru, wall, text


def collect_spans(p, records, piece):
    """Spans of one driver process, with ids made unique in the pass."""
    for d in records:
        for name, sid, parent, t0, t1, tid in d.get("spans", []):
            p.spans.append({"name": name, "id": (piece, sid),
                            "parent": (piece, parent) if parent else None,
                            "t0_ns": t0, "t1_ns": t1, "tid": tid})


def run_pass(workload, seed, jobs, variant="none", trace=False,
             sweep_json=None):
    """One closed-loop pass; an aborted run counts as failed and the
    pass resumes in a new process without it."""
    p = Pass(jobs)
    skip, total = set(), None
    while total is None or len(skip) < total:
        args = [DRIVER, "--workload", workload, "--seed", str(seed),
                "--jobs", str(jobs), "--variant", variant]
        if skip:
            args += ["--skip", ",".join(map(str, sorted(skip)))]
        if trace:
            args.append("--trace")
        if sweep_json:
            args += ["--sweep-json", sweep_json]
        records, code, ru, wall, err = spawn(args)
        p.wall += wall
        p.rss_kb = max(p.rss_kb, ru.ru_maxrss)
        started, done = set(), set()
        last = {"gen_s": 0.0, "generations": 0, "hits": 0, "t_end_s": 0.0}
        for d in records:
            if d["ev"] == "begin":
                total = d["runs"]
            elif d["ev"] == "start":
                started.add(d["i"])
                p.labels[d["i"]] = d["label"]
            elif d["ev"] == "run":
                done.add(d["i"])
                p.runs[d["i"]] = d
                last = {"gen_s": d["gen_s_cum"],
                        "generations": d["generations_cum"],
                        "hits": d["hits_cum"], "t_end_s": d["t_end_s"]}
            elif d["ev"] == "pass":
                p.pieces.append(dict(d, runs=len(done)))
                last = {"gen_s": d["gen_s"], "generations": d["generations"],
                        "hits": d["hits"], "t_end_s": d["results_s"]}
        p.gen_s += last["gen_s"]
        p.generations += last["generations"]
        p.hits += last["hits"]
        p.results_s += last["t_end_s"]
        collect_spans(p, records, p.processes)
        p.processes += 1
        skip |= done
        if code == 0:
            return p
        lost = started - done
        if not lost:
            raise BenchError(f"driver exited {code} outside any run: "
                             f"{err.strip()[-400:]}")
        p.crashed += sorted(lost)
        for i in lost:
            p.panics[i] = (err.strip().splitlines() or ["?"])[0]
        skip |= lost
    return p


def probe(workload, seed):
    records, code, _, _, err = spawn(
        [DRIVER, "--workload", workload, "--seed", str(seed), "--probe",
         "--trace"])
    if code != 0:
        raise BenchError("probe failed: " + err.strip()[-400:])
    p = Pass()
    collect_spans(p, records, "probe")
    return [d for d in records if d["ev"] == "probe"], p.spans


# ---------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------

def check_pass(workload, p):
    """Invariants every completed run must satisfy; returns problems."""
    bad = []
    refs_by_app = {}
    for r in p.ok_runs():
        s, lab = r["stats"], r["label"]
        if s["exec_ticks"] <= 0 or s["messages"] <= 0 or r["refs"] <= 0:
            bad.append(f"{lab}: empty run")
        if refs_by_app.setdefault(r["app"], r["refs"]) != r["refs"]:
            bad.append(f"{lab}: workload refs differ between runs")
        for pr in [s["pred"]] + [o["pred"] for o in s["observers"]]:
            if not pr["correct"] <= pr["predicted"] <= pr["observed"]:
                bad.append(f"{lab}: predictor counters inconsistent")
        if (s["spec_served_fr"] > s["spec_sent_fr"]
                or s["spec_served_swi"] > s["spec_sent_swi"]):
            bad.append(f"{lab}: more speculative reads served than sent")
        if workload == "predictor-deep":
            depth = int(lab.rsplit("=", 1)[1])
            if [o["depth"] for o in s["observers"]] != [depth] * 3:
                bad.append(f"{lab}: observers missing")
        f = s["fault"]
        faulted = "faulted" in lab
        if bool(f["faulted"]) != faulted:
            bad.append(f"{lab}: fault plan "
                       f"{'missing' if faulted else 'leaked'}")
        if faulted and not (f["failbacks"] >= 1 and f["link_drops"] > 0
                            and f["retransmits"] == f["link_drops"]
                            and f["recovered_tick"] > f["kill_tick"]):
            bad.append(f"{lab}: fault plan did not run to recovery")
        if faulted and not s["series"]:
            bad.append(f"{lab}: interval sampler produced no series")
    return bad


def check_sweep_json(path, p):
    """The writeJson record of the process that finished the pass lists
    exactly its runs. A pass whose last run aborts never serializes."""
    if not p.pieces:
        return []
    with open(path) as f:
        rec = json.load(f)
    os.remove(path)
    piece = p.pieces[-1]
    labels = [r["label"] for r in rec["runs"]]
    if rec["schema"] != "mspdsm-sweep-v1" or len(labels) != piece["runs"]:
        return [f"sweep JSON lists {len(labels)} runs, "
                f"expected {piece['runs']}"]
    known = {r["label"] for r in p.runs.values()}
    return [f"sweep JSON has unknown run {lab}" for lab in labels
            if lab not in known]


def model_err(workload, p):
    """Mean absolute error, in percentage points, against the paper."""
    by = {r["label"]: r["stats"] for r in p.ok_runs()}

    def pct_of(num, den):
        return 100.0 * by[num]["exec_ticks"] / by[den]["exec_ticks"]

    if workload == "suite-spec":
        errs = []
        for mode, ref in PAPER_SPEC.items():
            vals = [pct_of(f"{a} {mode}", f"{a} Base-DSM")
                    for a in {lab.split()[0] for lab in by}
                    if f"{a} {mode}" in by and f"{a} Base-DSM" in by]
            errs.append(abs(statistics.mean(vals) - ref))
        return statistics.mean(errs)
    if workload == "predictor-deep":
        d1 = [s for lab, s in by.items() if lab.endswith("d=1")]
        errs = []
        for k, ref in enumerate(PAPER_ACC):
            acc = [100.0 * s["observers"][k]["pred"]["correct"] /
                   max(1, s["observers"][k]["pred"]["predicted"])
                   for s in d1]
            errs.append(abs(statistics.mean(acc) - ref))
        return statistics.mean(errs)
    # mesh-faults: fault-free SWI vs Base on both fabrics, against the
    # paper's crossbar SWI-DSM average (a drift guard only).
    vals = [pct_of(f"em3d @{t} SWI-DSM fault-free",
                   f"em3d @{t} Base-DSM fault-free")
            for t in ("mesh2d", "torus2d")]
    return abs(statistics.mean(vals) - PAPER_SPEC["SWI-DSM"])


def verify(workload, jobs, problems):
    """Default and held-out seeds: repeat determinism, serial vs
    parallel records, writeJson output, digest vs the stored reference
    and model error. Returns {seed: (digest, err, matches, reference)}."""
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    out = {}
    for name in ("default", "held_out"):
        seed = ref["seeds"][name]
        path = os.path.join(OUT, f"sweep-{workload}-{seed}.json")
        a = run_pass(workload, seed, jobs, sweep_json=path)
        problems += check_pass(workload, a) + check_sweep_json(path, a)
        b = run_pass(workload, seed, 1)
        problems += check_pass(workload, b)
        if a.digest() != b.digest():
            problems.append(f"seed {seed}: records differ between "
                            f"{jobs}-worker and serial passes")
        want = ref["digests"].get(workload, {}).get(str(seed))
        out[seed] = (a.digest(), model_err(workload, a),
                     want == a.digest(), want)
    return out


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    """Percentile q (0-100) over samples, exclusive method."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100)[q - 1]


def pass_cpu_rate(p):
    runs = p.ok_runs()
    cpu = sum(r["run_cpu_s"] for r in runs)
    return sum(r["refs"] for r in runs) / cpu / 1e6 if cpu else 0.0


def pass_setup(p):
    return p.gen_s + sum(r["build_s"] for r in p.runs.values())


def end_to_end(workload, passes):
    """Timings come from the faster half of the passes (by wall time):
    neighbours on a shared host only ever add time, in phases that can
    cover a whole run, and the faster half tracks the simulator itself.
    Set-up and memory are medians over every pass."""
    fast = sorted(passes, key=lambda p: p.wall)[:(len(passes) + 1) // 2]
    samples = [1e3 * (r["build_s"] + r["run_s"])
               for p in fast for r in p.ok_runs()]
    return {
        "sweep_s": (median([p.wall for p in fast]), "s"),
        "mrefs_per_s": (median([pass_cpu_rate(p) for p in fast]),
                        "Mrefs/s"),
        "run_ms_p50": (quantile(samples, 50), "ms"),
        "run_ms_p90": (quantile(samples, 90), "ms"),
        "setup_s": (median([pass_setup(p) for p in passes]), "s"),
        "peak_rss_mb": (median([p.rss_kb / 1024.0 for p in passes]),
                        "MB"),
        "model_err_pp": (model_err(workload, passes[0]), "pp"),
    }, len(fast), len(samples)


def hist_merge(hists):
    count, buckets = 0, {}
    for n, _, bs in hists:
        count += n
        for i, c in bs:
            buckets[i] = buckets.get(i, 0) + c
    return count, buckets


def hist_pct(count, buckets, pct):
    """Same interpolation as Histogram::percentile (src/base/stats.hh)."""
    if count == 0:
        return 0.0
    rank = max(pct / 100.0 * count, 1.0)
    cum = 0
    for i in sorted(buckets):
        n = buckets[i]
        if cum + n >= rank:
            lo = 0 if i == 0 else 2 ** (i - 1)
            hi = 0 if i == 0 else 2 ** min(i, 64) - 1
            return lo + (hi - lo) * (rank - cum) / n
        cum += n
    return float(2 ** 64 - 1)


def self_times(spans):
    """Per-layer self time: each span minus the union of its children."""
    kids = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        t0, t1 = s["t0_ns"], s["t1_ns"]
        covered, end = 0, t0
        for c in sorted(kids.get(s["id"], []), key=lambda c: c["t0_ns"]):
            a, b = max(c["t0_ns"], end), min(c["t1_ns"], t1)
            if b > a:
                covered += b - a
                end = b
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (t1 - t0 - covered) * 1e-9
    return out


def span_sum(spans, name):
    return sum(s["t1_ns"] - s["t0_ns"] for s in spans
               if s["name"] == name) * 1e-9


def paired_cpu(on, off):
    """Thread CPU of the runs both passes completed: (on, off)."""
    on_by = {r["label"]: r["run_cpu_s"] for r in on.ok_runs()}
    off_by = {r["label"]: r["run_cpu_s"] for r in off.ok_runs()}
    common = [lab for lab in off_by if lab in on_by]
    return (sum(on_by[lab] for lab in common),
            sum(off_by[lab] for lab in common))


def host_share(pairs):
    """1 - off/on, each side the fastest of its iterations: the host
    only ever adds time, and a share is a few percent of a run."""
    if not pairs:
        return 0.0
    t_on = min(a for a, _ in pairs)
    t_off = min(b for _, b in pairs)
    return 1.0 - t_off / t_on if t_on else 0.0


def per_layer(u, t, probes):
    """Per-layer metrics of one traced iteration (shares come later)."""
    runs = t.ok_runs()
    st = [r["stats"] for r in runs]
    refs = sum(r["refs"] for r in runs)
    events = sum(s["events"] for s in st)
    msgs = sum(s["messages"] for s in st)
    cpu = sum(r["run_cpu_s"] for r in runs)
    preds = [s["pred"] for s in st] + [o["pred"] for s in st
                                       for o in s["observers"]]
    observed = sum(x["observed"] for x in preds)
    predicted = sum(x["predicted"] for x in preds)
    pushes = sum(s["spec_sent_fr"] + s["spec_sent_swi"] for s in st)
    served = sum(s["spec_served_fr"] + s["spec_served_swi"] for s in st)
    swi = sum(s["swi_sent"] for s in st)
    faults = [s["fault"] for s in st if s["fault"]["faulted"]]
    lat = hist_merge([s["miss_lat"] for s in st])
    job_s = sum(r["job_s"] for r in runs)
    busy = t.results_s * t.workers

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "workload.gen_s": (sum(d["gen_s"] for d in probes), "s"),
        "workload.compile_s": (sum(d["compile_s"] for d in probes), "s"),
        "workload.refs": (refs, "count"),
        "workload.compile_ratio": (ratio(
            sum(d["packed_ops"] for d in probes),
            sum(d["source_ops"] for d in probes)), "ratio"),
        "harness.cache_generations": (t.generations, "count"),
        "harness.cache_hits": (t.hits, "count"),
        "harness.parallel_eff": (ratio(job_s, busy), "ratio"),
        "harness.idle_s": (max(0.0, busy - job_s), "s"),
        "harness.serialize_s": (span_sum(t.spans, "harness.serialize"),
                                "s"),
        "harness.self_s": (self_times(t.spans).get("harness", 0.0), "s"),
        "dsm.build_ms": (1e3 * span_sum(t.spans, "dsm.build"), "ms"),
        "dsm.run_s": (span_sum(t.spans, "dsm.run"), "s"),
        "dsm.exec_mticks": (sum(s["exec_ticks"] for s in st) / 1e6,
                            "Mticks"),
        "dsm.miss_frac": (ratio(lat[0], refs), "ratio"),
        "dsm.miss_lat_p50": (hist_pct(*lat, 50), "cycles"),
        "dsm.miss_lat_p99": (hist_pct(*lat, 99), "cycles"),
        "sim.events": (events, "count"),
        "sim.events_per_ref": (ratio(events, refs), "ratio"),
        "sim.ns_per_event": (1e9 * ratio(cpu, events), "ns"),
        "net.messages": (msgs, "count"),
        "net.msgs_per_ref": (ratio(msgs, refs), "ratio"),
        "net.events_per_msg": (ratio(events, msgs), "ratio"),
        "net.ni_queue_cycles": (sum(s["ni_queue_cycles"] for s in st),
                                "cycles"),
        "net.link_queue_cycles": (
            sum(s["link_queue_cycles"] for s in st), "cycles"),
        "pred.observed": (observed, "count"),
        "pred.accuracy_pct": (100.0 * ratio(
            sum(x["correct"] for x in preds), predicted), "%"),
        "pred.coverage_pct": (100.0 * ratio(predicted, observed), "%"),
        "pred.pte_total": (sum(x["pte_total"] for x in preds), "count"),
        "spec.pushes": (pushes, "count"),
        "spec.useful_frac": (ratio(served, pushes), "ratio"),
        "spec.dropped": (sum(s["spec_dropped"] for s in st), "count"),
        "spec.swi_premature_frac": (ratio(
            sum(s["swi_premature"] for s in st), swi), "ratio"),
        "fault.link_drops": (sum(f["link_drops"] for f in faults),
                             "count"),
        "fault.retransmits": (sum(f["retransmits"] for f in faults),
                              "count"),
        "fault.retries": (sum(f["retries"] for f in faults), "count"),
        "fault.shard_syncs": (sum(f["shard_syncs"] for f in faults),
                              "count"),
        "fault.recover_ticks": (median(
            [f["recovered_tick"] - f["kill_tick"] for f in faults]),
            "ticks"),
        "trace.overhead": (ratio(t.wall, u.wall), "ratio"),
        "trace.spans": (len(t.spans), "count"),
    }


SHARES = [("pred.host_share", "no-pred"), ("fault.host_share", "no-fault"),
          ("obs.sampler_share", "no-sampler")]


# ---------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------

def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload, seed = args.workload, args.seed
    jobs, variants = WORKLOADS[workload]

    t_setup = time.perf_counter()
    build()
    os.makedirs(OUT, exist_ok=True)
    log("stamp: " + json.dumps(stamp(seed), sort_keys=True))
    log(f"build check: {time.perf_counter() - t_setup:.2f} s; workload "
        f"{workload}, {jobs} worker(s), seed {seed}, "
        f"{'traced' if args.trace else 'untraced'}")

    problems = []
    measured = []  # passes whose runs count as attempted
    t_end = time.perf_counter() + args.seconds
    if not args.trace:
        while len(measured) < MIN_PASSES or time.perf_counter() < t_end:
            measured.append(run_pass(workload, seed, jobs))
    else:
        layer, pairs = [], {v: [] for v in variants}
        while len(layer) < 2 or time.perf_counter() < t_end:
            u = run_pass(workload, seed, jobs)
            t = run_pass(workload, seed, jobs, trace=True)
            probes, probe_spans = probe(workload, seed)
            t.spans += probe_spans
            for v in variants:
                pairs[v].append(paired_cpu(
                    u, run_pass(workload, seed, jobs, v)))
            for span in t.spans:
                span["pass"] = len(layer)
            measured += [u, t]
            layer.append(per_layer(u, t, probes))
        spans_path = os.path.join(OUT, f"spans-{workload}-{seed}.json")
        with open(spans_path, "w") as f:
            json.dump({"stamp": stamp(seed), "spans": t.spans}, f)
        log(f"spans of the last traced pass: {spans_path}")

    for p in measured:
        problems += check_pass(workload, p)
    # Determinism: a run whose statistics differ between the passes of
    # this seed fails in every pass.
    seen = {}
    for p in measured:
        for r in p.runs.values():
            seen.setdefault(r["label"], set()).add(
                json.dumps(r["stats"], sort_keys=True))
    unstable = sorted(lab for lab, v in seen.items() if len(v) > 1)
    if unstable:
        problems.append("repeated passes differ on " + ", ".join(unstable))
    if len({tuple(p.crashed) for p in measured}) != 1:
        problems.append("the set of aborted runs differs between passes")
    attempted = sum(p.attempted() for p in measured)
    failed = sum(len(p.failed()) + sum(r["label"] in unstable
                                       for r in p.ok_runs())
                 for p in measured)
    aborted = {p.labels[i]: m for p in measured
               for i, m in sorted(p.panics.items())}

    ref_checks = verify(workload, jobs, problems)

    log(f"passes: {len(measured)}, runs attempted: {attempted}, "
        f"failed: {failed}, fail_frac: {failed / attempted:.4f}")
    for label, msg in aborted.items():
        log(f"  aborted: {label}: {msg}")
    log(f"digest (seed {seed}): {measured[0].digest()}")
    for s, (dg, err, match, want) in ref_checks.items():
        log(f"digest (seed {s}): {dg} "
            f"{'matches' if match else 'DIFFERS FROM'} reference {want}; "
            f"model_err_pp {err:.4f}")

    if not args.trace:
        metrics, nfast, nsamples = end_to_end(workload, measured)
        log(f"end-to-end ({len(measured)} passes; timings over the "
            f"faster {nfast} passes, {nsamples} runs):")
    else:
        metrics = {k: (median([it[k][0] for it in layer]), unit)
                   for k, (_, unit) in layer[0].items()}
        for name, variant in SHARES:
            metrics[name] = (host_share(pairs.get(variant)), "ratio")
        log(f"per-layer (medians of {len(layer)} traced iterations):")
        for name, secs in sorted(self_times(t.spans).items()):
            log(f"  self time of {name} in the last traced pass: "
                f"{secs:.6f} s")
    for k, (v, unit) in metrics.items():
        log(f"  {k} = {fmt(v)} {unit}")
    if not args.trace:
        log(f"  fail_frac = {failed / attempted:.6g} ratio")
    for msg in problems:
        log("CHECK FAILED: " + msg)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
