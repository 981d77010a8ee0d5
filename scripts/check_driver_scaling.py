#!/usr/bin/env python3
"""Gate CI on the micro_driver_scaling benchmark (format v3).

One within-run ratio, machine-independent by construction (the same
contract style as check_stage_batch.py):

  * spine_vs_single_reader — a whole StreamingMapper run (FASTQ text
    in, SAM text out) with the multi-parser async spine against the
    same run with one parser thread. This is the number the async-spine
    refactor moves, and it is gated: at the gated thread count the
    spine must be >= --min-speedup faster.

The bench's threads x chunk-size `grid` is absolute throughput only;
it is validated for presence and not gated.

The gate is host-aware: parallel parsing cannot beat a single reader
on a host without spare cores, so when the *recording* host has fewer
hardware threads than --threads the gate SKIPs (exit 0) after
validating the schema. BENCH JSON records host_threads for exactly
this decision.

Usage:
  check_driver_scaling.py CURRENT.json [--min-speedup 1.15]
                          [--threads 8]
"""

import argparse
import json
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("--min-speedup", type=float, default=1.15,
                    help="required spine-vs-single-reader speedup at "
                         "the gated thread count")
    ap.add_argument("--threads", type=int, default=8,
                    help="ingest grid point to gate")
    args = ap.parse_args()

    with open(args.current) as f:
        doc = json.load(f)
    if doc.get("bench") != "micro_driver_scaling":
        print(f"error: {args.current} is not a micro_driver_scaling "
              f"record")
        return 1
    if doc.get("format") != 3:
        print(f"error: {args.current} is format "
              f"{doc.get('format')!r}, need 3 (rerun the bench)")
        return 1
    for key in ("host_threads", "grid", "ingest"):
        if key not in doc:
            print(f"error: {args.current} is missing '{key}'")
            return 1

    host_threads = int(doc["host_threads"])
    print(f"recorded on a {host_threads}-thread host, "
          f"{doc.get('pairs', '?')} pairs")

    print("ingest-included spine vs single reader:")
    gated = None
    for point in doc["ingest"]:
        flag = ""
        if point["threads"] == args.threads:
            gated = point
            flag = "  << gated"
        print(f"  threads {point['threads']:3d}  io "
              f"{point['io_threads']:2d}  "
              f"{float(point['spine_vs_single_reader']):.2f}x  "
              f"(spine {point['spine_pairs_per_s']} pairs/s, "
              f"stalls rd {point['reader_stall_s']} s / "
              f"wr {point['writer_stall_s']} s){flag}")

    if host_threads < args.threads:
        print(f"SKIP: recording host has {host_threads} hardware "
              f"thread(s), below the gated {args.threads}; the spine "
              f"cannot out-parse a single reader without spare cores")
        return 0
    if gated is None:
        print(f"error: no ingest point with threads == {args.threads} "
              f"(host has {host_threads} threads; the bench should "
              f"have reached it)")
        return 1

    speedup = float(gated["spine_vs_single_reader"])
    if speedup < args.min_speedup:
        print(f"FAIL: spine speedup {speedup:.3f}x at "
              f"{args.threads} threads is below the required "
              f"{args.min_speedup:.2f}x")
        return 1
    print(f"OK: spine speedup {speedup:.3f}x at {args.threads} "
          f"threads (required >= {args.min_speedup:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
