#!/usr/bin/env python3
"""Determinism self-test of the benchmark's server-visible traffic counts.

    python3 perfbench/test_determinism.py

Builds the runner as run.py does, then runs q14_uniform and rotate_durable
for a fixed number of queries: twice with one seed and once with another,
each untraced (bandwidth, requests_per_query) and traced (the proxy, ope,
engine and storage counts). The same seed must give identical counts; the
other seed must change them. Exits 0 when both hold.
"""

import json
import os
import subprocess
import sys

import run

QUERIES = "120"  # per phase; rotate_durable rotates once per phase
SEEDS = (7, 7, 8)
UNTRACED = ["bandwidth", "requests_per_query"]
TRACED = [
    "proxy.server_requests_per_query",
    "proxy.rows_received_per_query",
    "proxy.rows_returned_per_query",
    "proxy.fakes_per_real",
    "ope.encrypt_calls_per_query",
    "ope.decrypt_calls_per_query",
    "ope.hgd_draws_per_query",
    "engine.entries_visited_per_query",
    "engine.segments_per_query",
]
STORAGE = [
    "storage.wal_bytes_per_row",
    "storage.page_writes_per_rotation",
    "storage.wal_syncs_per_rotation",
    "storage.pool_misses_per_rotation",
]
WORKLOADS = {"q14_uniform": TRACED + STORAGE, "rotate_durable": TRACED + STORAGE}


def counts(workload, seed):
    values = {}
    for trace, names in (("0", UNTRACED), ("1", WORKLOADS[workload])):
        done = subprocess.run(
            [run.BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", trace, "--queries", QUERIES,
             "--data-dir", os.path.join(run.ROOT, ".bench_build",
                                        f"determinism-{os.getpid()}")],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
            check=False)
        if done.returncode != 0:
            sys.exit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        for name in names:
            values[name] = metrics[name]["value"]
    return values


def main():
    run.build()
    ok = True
    for workload, names in WORKLOADS.items():
        first, again, other = (counts(workload, seed) for seed in SEEDS)
        for name in UNTRACED + names:
            print(f"{workload:16s} {name:36s} {first[name]:14.6f} "
                  f"{again[name]:14.6f} {other[name]:14.6f}")
        if first != again:
            print(f"FAIL {workload}: seed {SEEDS[0]} gave different counts twice")
            ok = False
        if first == other:
            print(f"FAIL {workload}: seeds {SEEDS[0]} and {SEEDS[2]} gave equal counts")
            ok = False
        durable = workload == "rotate_durable"
        if any((first[n] > 0) != durable for n in STORAGE):
            print(f"FAIL {workload}: storage counts must be non-zero exactly "
                  "on rotate_durable")
            ok = False
    print("determinism: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
