#!/usr/bin/env python3
"""GenPair end-to-end benchmark: the shipped gpx_map and gpx_serve,
timed as the processes a user runs, plus a traced per-layer run.

    python3 perfbench/run.py --workload map_clean --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. The first run builds the gpx
tools and the benchmark's helper (perfbench/src, "pbtool") in
.bench_build/ with CMake; later runs reuse that build. Every input is
simulated from --seed: a 4 Mbp, 2-chromosome genome with 2x150 bp
read pairs, indexed by `gpx_index --shards 4` into a v2 mmap image.
Everything runs with 4 mapping threads.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Either way a human-readable table comes first and the last line of
stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (why each was chosen is recorded in BENCHMARK.json):
  map_clean    gpx_map, 0.1% uniform error: the light-align fast path
               and the I/O spine carry the load
  map_err5     gpx_map, 5% uniform error: the fast path is bypassed and
               the DP fallback dominates

End-to-end metrics:
  pairs_per_s   pairs / gpx_map process wall, startup included (median
                over the run's jobs)
  setup_s       gpx_map wall on a zero-pair FASTQ with the workload's
                reference and image (median of several)
  peak_rss_mb   ru_maxrss of a gpx_map job (median)
  correct_frac  reads whose SAM record lies within 20 bp of the
                simulator's truth, on the right strand, over all reads
                (eval::MappingEvaluator)
failed/attempted count gpx_map jobs (and, traced, serve requests);
failed_frac is their ratio. A job fails on a non-zero exit, a SAM
record count other than 2x pairs, or a SAM md5 that differs from the
run's other jobs. A run is not correct when correct_frac falls below
the workload's floor. A helper that hangs past its timeout fails the
whole run.

The traced run (--trace 1; layers and ledger in README.md) also fails a
job when pbtool trace's SAM md5 differs from the untraced gpx_map's,
and its gpx_serve probe fails a request on an ERROR frame, a transport
error or a reply that is not byte-identical to gpx_map's SAM for its
pairs.

--inject {corrupt_sam,md5_mismatch} and --scale tiny exist for
perfbench/selfcheck.py only.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
TOOLS = os.path.join(BUILD, "gpx", "tools")
PBTOOL = os.path.join(BUILD, "pbtool")

# pbtool's kThreads (perfbench/src/pbtool.hh) must match.
THREADS = 4
SHARDS = 4
CHILD_TIMEOUT_S = 120

# Input sizes, calibrated at seed 1 on a 4-vCPU AVX-512 host and then
# frozen: a map job is ~2 s of work. A run whose correct_frac falls
# below the floor is not correct.
WORKLOADS = {
    "map_clean": {"error": 0.001, "pairs": 200_000, "floor": 0.99},
    "map_err5": {"error": 0.05, "pairs": 40_000, "floor": 0.70},
}
TINY_PAIRS = 4096
MAP_SETUPS = 5

END_TO_END = [("pairs_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("correct_frac", "1")]


def log(msg):
    print(msg, flush=True)


def fail_setup(msg):
    """A set-up step failed: no result is printed, exit non-zero."""
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


# --- processes ----------------------------------------------------------

# Children still running; main() stops them if the run is cut short.
LIVE = []


def run_child(cmd, cwd, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion; returns (rc, wall_s, maxrss_mb)."""
    with open(os.path.join(cwd, "child.err"), "w+b") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
        LIVE.append(proc)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        LIVE.remove(proc)
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            log("  [%s exited %d] %s" % (
                os.path.basename(cmd[0]), proc.returncode,
                err.read().decode(errors="replace").strip()[-400:]))
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def check_output(cmd, cwd, timeout=CHILD_TIMEOUT_S):
    """Run a helper whose failure aborts the run; returns its stdout."""
    try:
        res = subprocess.run(cmd, cwd=cwd, capture_output=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail_setup("timed out: " + " ".join(cmd))
    if res.returncode != 0:
        fail_setup("%s failed (%d): %s" % (" ".join(cmd), res.returncode,
                                            res.stderr.decode()[-600:]))
    return res.stdout.decode()


def build():
    """Configure once, then an incremental build of tools + pbtool."""
    logfile = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(THREADS), "--target",
                  "gpx_simulate", "gpx_index", "gpx_map", "gpx_serve",
                  "gpx_client", "pbtool"])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-3000:])
                fail_setup("build failed (log: %s)" % logfile)


def tool(name):
    return os.path.join(TOOLS, name)


# --- inputs -------------------------------------------------------------

def make_inputs(work, spec, seed, pairs):
    """Simulate genome + reads from the seed and index them; returns
    the gpx_index wall time (the offline SeedMap build)."""
    check_output([tool("gpx_simulate"), "--out", "sim", "--chromosomes", "2",
                  "--pairs", str(pairs), "--seed", str(seed),
                  "--error-rate", str(spec["error"])], work)
    rc, wall, _ = run_child([tool("gpx_index"), "--ref", "sim.fa", "--out",
                             "sim.gpx", "--shards", str(SHARDS),
                             "--threads", str(THREADS)], work)
    if rc != 0:
        fail_setup("gpx_index failed")
    for name in ("empty_1.fq", "empty_2.fq"):
        open(os.path.join(work, name), "w").close()
    return wall


# --- SAM checks ---------------------------------------------------------

def sam_digest(path):
    """(md5 of the whole file, record count)."""
    whole, records = hashlib.md5(), 0
    with open(path, "rb") as f:
        for line in f:
            whole.update(line)
            if not line.startswith(b"@"):
                records += 1
    return whole.hexdigest(), records


def corrupt(path, how):
    """Fault injection for the self-check."""
    with open(path, "r+b") as f:
        data = f.read()
        if how == "corrupt_sam":
            f.seek(0)
            f.truncate(len(data) // 2)
        else:  # md5_mismatch: same record count, one base changed
            at = data.rfind(b"\tACGT") + 1
            if at <= 0:
                at = data.rfind(b"\t") + 1
            f.seek(at)
            f.write(b"N")


def evaluate(work, sam):
    out = check_output([PBTOOL, "eval", "--ref", "sim.fa", "--sam", sam,
                        "--truth", "sim.truth.tsv"], work)
    res = json.loads(out)
    # Over the truth set, so a missing or misnamed record reads as wrong.
    return res["correct"] / max(1, res["truth_reads"])


class Jobs:
    """gpx_map jobs of one run and their output checks."""

    def __init__(self, work, pairs, inject=None):
        self.work, self.pairs, self.inject = work, pairs, inject
        self.walls, self.rss, self.md5s, self.failed = [], [], [], []
        self.first_sam = None

    def run(self, extra=()):
        idx = len(self.walls)
        sam = "job%d.sam" % idx
        rc, wall, rss = run_child(
            [tool("gpx_map"), "--ref", "sim.fa", "--index", "sim.gpx",
             "--r1", "sim_1.fq", "--r2", "sim_2.fq", "--out", sam,
             "--threads", str(THREADS)] + list(extra), self.work)
        path = os.path.join(self.work, sam)
        if self.inject in ("corrupt_sam", "md5_mismatch") and idx == 1:
            corrupt(path, self.inject)
        md5, records = sam_digest(path) if rc == 0 else (None, 0)
        self.walls.append(wall)
        self.rss.append(rss)
        self.md5s.append(md5)
        self.failed.append(rc != 0 or records != 2 * self.pairs)
        if self.first_sam is None and rc == 0:
            self.first_sam = sam
        elif os.path.exists(path):
            os.remove(path)
        return wall

    def settle(self):
        """Jobs whose md5 differs from the run's majority fail."""
        good = [m for m in self.md5s if m is not None]
        ref = statistics.mode(good) if good else None
        for i, m in enumerate(self.md5s):
            if m != ref:
                self.failed[i] = True
        return ref


# --- gpx_serve ----------------------------------------------------------

class Server:
    def __init__(self, work):
        self.work = work
        self.sock = "serve.sock"
        if os.path.exists(os.path.join(work, self.sock)):
            os.remove(os.path.join(work, self.sock))
        self.errlog = open(os.path.join(work, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            [tool("gpx_serve"), "--socket", self.sock, "--ref", "sim.fa",
             "--index", "sim.gpx", "--threads", str(THREADS)],
            cwd=work, stdout=subprocess.DEVNULL, stderr=self.errlog)
        LIVE.append(self.proc)
        check_output([PBTOOL, "hello", "--socket", self.sock], work)

    def stop(self):
        """Graceful drain via gpx_client."""
        if self.proc.poll() is None:
            subprocess.run([tool("gpx_client"), "--socket", self.sock,
                            "--shutdown"], cwd=self.work,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=60)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        LIVE.remove(self.proc)
        self.errlog.close()


def serve_probe(work, sam, seconds):
    """Closed-loop pbtool load on a fresh gpx_serve: a 1 s warm-up (the
    first requests fault in the image and warm the workers), then the
    timed phase. Returns the two phase results."""
    srv = Server(work)
    try:
        out = check_output(
            [PBTOOL, "load", "--socket", srv.sock, "--r1", "sim_1.fq",
             "--r2", "sim_2.fq", "--sam", sam, "--phases",
             "1,%g" % seconds],
            work, timeout=seconds + 120)
    finally:
        srv.stop()
    return json.loads(out)["phases"]


def phase_failures(phase):
    return phase["attempted"] - phase["ok"]


# --- workloads: end to end ----------------------------------------------

def map_end_to_end(work, spec, pairs, seconds, inject):
    walls = []
    for _ in range(MAP_SETUPS):
        rc, wall, _ = run_child(
            [tool("gpx_map"), "--ref", "sim.fa", "--index", "sim.gpx",
             "--r1", "empty_1.fq", "--r2", "empty_2.fq", "--out",
             "empty.sam", "--threads", str(THREADS)], work)
        if rc != 0:
            fail_setup("gpx_map on a zero-pair FASTQ failed")
        walls.append(wall)
    setup_s = statistics.median(walls)

    jobs = Jobs(work, pairs, inject)
    t_end = time.monotonic() + seconds
    while len(jobs.walls) < 3 or time.monotonic() < t_end:
        jobs.run()
    jobs.settle()
    frac = evaluate(work, jobs.first_sam)
    metrics = {
        "pairs_per_s": statistics.median(pairs / w for w in jobs.walls),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(jobs.rss),
        "correct_frac": frac,
    }
    n_failed = sum(jobs.failed)
    log("gpx_map jobs: %d of %d pairs, walls %s s, failed %d" % (
        len(jobs.walls), pairs,
        " ".join("%.3f" % w for w in jobs.walls), n_failed))
    return metrics, len(jobs.walls), n_failed, frac >= spec["floor"], {}


# --- workloads: traced per-layer run --------------------------------------

def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            name, start, end, sid, parent, chunk, thread = line.split("\t")
            spans.append({"name": name, "start": int(start),
                          "end": int(end), "id": int(sid),
                          "parent": int(parent), "chunk": int(chunk),
                          "thread": int(thread)})
    return spans


def covered_ns(intervals):
    """Length of the union of [start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def ledger(spans):
    """Seconds of the mapping thread's top-level spans (the critical
    path), busy seconds of every other thread's spans per name, and the
    engine runs' self time (no worker inside a stage)."""
    main = [s for s in spans if s["thread"] == 0]
    root = next(s for s in main if s["name"] == "run")
    wall = (root["end"] - root["start"]) / 1e9
    top, busy, children = {}, {}, {}
    for s in main:
        if s["parent"] == root["id"]:
            top[s["name"]] = top.get(s["name"], 0.0) + (
                s["end"] - s["start"]) / 1e9
    for s in spans:
        if s["thread"] != 0:
            busy[s["name"]] = busy.get(s["name"], 0.0) + (
                s["end"] - s["start"]) / 1e9
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    engine_self = sum(
        (s["end"] - s["start"] - covered_ns(children.get(s["id"], []))) / 1e9
        for s in main if s["name"] == "genpair.engine.run")
    return wall, top, busy, engine_self


def per_layer(work, spec, pairs, seconds, index_s):
    # Untraced gpx_map jobs alternate with traced runs, so host drift
    # hits both sides of trace.overhead_frac alike; the spans and
    # counters reported are the last traced run's.
    jobs = Jobs(work, pairs)
    traced_walls = []
    for _ in range(3):
        jobs.run()
        rc, wall, _ = run_child(
            [PBTOOL, "trace", "--ref", "sim.fa", "--index", "sim.gpx",
             "--r1", "sim_1.fq", "--r2", "sim_2.fq", "--out", "traced.sam",
             "--spans", "spans.tsv", "--stats", "traced.json"], work)
        if rc != 0:
            fail_setup("traced run failed")
        traced_walls.append(wall)
        jobs.md5s.append(sam_digest(os.path.join(work, "traced.sam"))[0])
        jobs.failed.append(False)
    untraced_pps = statistics.median(pairs / w for w in jobs.walls)
    traced_pps = statistics.median(pairs / w for w in traced_walls)

    # gpx_map's own stage-event trace, the hwsim replay's input.
    jobs.run(["--trace", "stage.trace"])
    ref_md5 = jobs.settle()
    log("SAM md5 %s; jobs failing the md5/record checks: %d of %d" % (
        ref_md5, sum(jobs.failed), len(jobs.failed)))
    with open(os.path.join(work, "traced.json")) as f:
        tstats = json.load(f)
    wall, top, busy, engine_self = ledger(
        load_spans(os.path.join(work, "spans.tsv")))

    hw = json.loads(check_output([PBTOOL, "hwsim", "--trace", "stage.trace"],
                                 work))
    log("hwsim.sim_mbp_per_s is simulated throughput of the NMSL + pipeline "
        "model, not validated against silicon")

    frac = evaluate(work, jobs.first_sam)

    # Server-side split of a closed-loop serve phase on these reads.
    phases = serve_probe(work, jobs.first_sam, max(1.0, seconds / 4.0))
    closed = phases[1]
    for p in phases:
        if phase_failures(p):
            log("serve probe: %d of %d requests failed (error frame %d, "
                "transport %d, wrong reply %d)" % (
                    phase_failures(p), p["attempted"], p["error_frame"],
                    p["transport"], p["mismatch"]))

    p = tstats["pipeline"]
    st = p["stages"]
    n = max(1, p["pairs_total"])
    m = {
        "genomics.fasta.parse_s": (top.get("genomics.fasta.parse", 0), "s"),
        "genpair.seedmap_io.open_s": (top.get("genpair.seedmap_io.open", 0),
                                      "s"),
        "baseline.minimizer_index.build_s": (
            top.get("baseline.minimizer_index.build", 0), "s"),
        "genpair.engine.start_s": (top.get("genpair.engine.start", 0), "s"),
        "genpair.seedmap.build_s": (index_s, "s"),
        "genpair.seedmap_io.image_bytes": (tstats["image_bytes"], "bytes"),
        "genomics.fastq_ingest.scan_s": (
            busy.get("genomics.fastq_ingest.scan", 0), "s"),
        "genomics.fastq_ingest.parse_s": (
            busy.get("genomics.fastq_ingest.parse", 0), "s"),
        "genomics.fastq_ingest.bytes": (tstats["ingest_bytes"], "bytes"),
        "genpair.streaming.reader_stall_s": (
            top.get("genpair.streaming.reader_stall", 0), "s"),
        "genpair.streaming.writer_stall_s": (
            top.get("genpair.streaming.writer_stall", 0), "s"),
        "genomics.sam.render_s": (busy.get("genomics.sam.render", 0) +
                                  top.get("genomics.sam.header", 0), "s"),
        "genomics.sam.drain_s": (top.get("genomics.sam.drain", 0), "s"),
        "genomics.sam.bytes": (tstats["sam_bytes"], "bytes"),
        "genpair.engine.run_s": (top.get("genpair.engine.run", 0), "s"),
        "genpair.engine.self_s": (engine_self, "s"),
    }
    for stage in ("seed", "query", "pa_filter", "light_align", "fallback"):
        m["genpair.stages.%s.s" % stage] = (
            busy.get("genpair.stages." + stage, 0), "s")
        m["genpair.stages.%s.items_in" % stage] = (st[stage]["items_in"],
                                                   "count")
        m["genpair.stages.%s.items_out" % stage] = (st[stage]["items_out"],
                                                    "count")
    attempts = p["light_aligns_attempted"]
    m.update({
        "genpair.query.seed_lookups": (p["query"]["seed_lookups"], "count"),
        "genpair.query.locations_fetched": (p["query"]["locations_fetched"],
                                            "count"),
        "genpair.query.filter_iterations": (p["query"]["filter_iterations"],
                                            "count"),
        "genpair.pafilter.candidate_pairs": (p["candidate_pairs"], "count"),
        "genpair.light_align.attempts": (attempts, "count"),
        "genpair.light_align.hypotheses": (p["light_hypotheses"], "count"),
        "genpair.light_align.accept_frac": (
            p["light_aligned"] / max(1, st["light_align"]["items_in"]), "1"),
        "baseline.mm2lite.chain_cells": (tstats["chain_cells"], "count"),
        "baseline.mm2lite.align_cells": (tstats["align_cells"], "count"),
        "genpair.route.light_aligned_frac": (p["light_aligned"] / n, "1"),
        "genpair.route.dp_aligned_frac": (p["dp_aligned"] / n, "1"),
        "genpair.route.seed_miss_frac": (p["seed_miss_fallback"] / n, "1"),
        "genpair.route.pa_miss_frac": (p["pa_filter_fallback"] / n, "1"),
        "genpair.route.unmapped_frac": (p["unmapped"] / n, "1"),
        "serve.map_s": (closed["map_s"], "s"),
        "serve.nonmap_s": (closed["rtt_sum_s"] - closed["map_s"], "s"),
        "serve.reader_stall_s": (closed["reader_stall_s"], "s"),
        "serve.admission_waits": (closed["admission_waits"], "count"),
        "serve.shedded": (closed["shedded"], "count"),
        "serve.requests_rejected": (closed["requests_rejected"], "count"),
        "ledger.unattributed_s": (wall - sum(top.values()), "s"),
        "trace.overhead_frac": (1 - traced_pps / untraced_pps, "1"),
        "hwsim.sim_mbp_per_s": (hw["sim_mbp_per_s"], "Mbp/s"),
    })
    extra = {
        "correct_frac": (frac, "1"),
        "traced_wall_s": (wall, "s"),
        "serve.closed_requests": (closed["attempted"], "count"),
    }
    # The two STATS fetches around the timed phase count as operations.
    attempted = len(jobs.failed) + sum(p["attempted"] for p in phases) + 2
    failed = (sum(jobs.failed) + sum(phase_failures(p) for p in phases) +
              (0 if closed["stats_ok"] else 2))
    return m, attempted, failed, frac >= spec["floor"], extra


# --- main ----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--inject", choices=("corrupt_sam", "md5_mismatch"))
    args = ap.parse_args()
    # A terminated run still stops its children (see main's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("run from a gpx source checkout (src/ not found)")
    build()

    spec = WORKLOADS[args.workload]
    pairs = spec["pairs"] if args.scale == "full" else TINY_PAIRS
    work = os.path.join(BUILD, "runs", "%s-%d-%d" % (args.workload,
                                                       args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        index_s = make_inputs(work, spec, args.seed, pairs)
        if args.trace:
            metrics, attempted, failed, ok, extra = per_layer(
                work, spec, pairs, args.seconds, index_s)
        else:
            metrics, attempted, failed, ok, extra = map_end_to_end(
                work, spec, pairs, args.seconds, args.inject)
    finally:
        for proc in LIVE:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        metrics = {k: (metrics[k], unit) for k, unit in END_TO_END}
    log("%-40s %16s  %s" % ("metric", "value", "unit"))
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        log("%-40s %16.6g  %s" % (name, value, unit))
    log("%-40s %16.6g  %s" % ("failed_frac", failed / max(1, attempted),
                              "1"))
    result = {
        "correct": bool(ok and failed == 0),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
