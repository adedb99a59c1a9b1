#!/usr/bin/env python3
"""The committed benchmark record must not show a broken or less accurate run.

Every PR commits one BENCH_<pr>.json (`bash bench/run.sh -seconds 12 -out`).
This compares the two newest and fails when any workload of the newest has
failed operations, is marked incorrect, or has a `max_dev` worse than the
older file's by more than the bound BENCHMARK.json puts on it — the two
properties of a record that do not depend on how fast the host was that day.
It prints, and never fails on, the per-layer counters that differ.

Timings are not compared at all: the files are taken days apart on a shared
host whose speed drifts by more than the bounds, so across files they are a
trajectory, not a comparison. A timing claim rests on alternating same-hour
pairs of parent and change (CHANGES.md lists them), never on two records.
"""
import glob
import json
import re
import sys


def pr_number(path):
    return int(re.search(r"BENCH_(\d+)\.json$", path).group(1))


def workloads(path):
    with open(path) as f:
        return {w["name"]: w for w in json.load(f)["workloads"]}


def main(root="."):
    files = sorted(glob.glob(root + "/BENCH_[0-9]*.json"), key=pr_number)
    if not files:
        print("no BENCH_<pr>.json in %s" % root, file=sys.stderr)
        return 1
    with open(root + "/BENCHMARK.json") as f:
        spec = json.load(f)
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "max_dev")
    counters = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

    new_path = files[-1]
    new = workloads(new_path)
    old_path = files[-2] if len(files) > 1 else None
    old = workloads(old_path) if old_path else {}
    print("record %s against %s; timings across records are a trajectory, not a comparison, and are not read"
          % (new_path, old_path or "nothing older"))

    bad = []
    for name in [w["name"] for w in spec["workloads"]]:
        w = new.get(name)
        if w is None:
            bad.append("%s: missing from %s" % (name, new_path))
            continue
        if w["failed"] > 0 or not w["correct"]:
            bad.append("%s: %d of %d operations failed, correct=%s"
                       % (name, w["failed"], w["attempted"], w["correct"]))
        o = old.get(name)
        if o is None:
            continue
        dev, was = w["end_to_end"]["max_dev"]["value"], o["end_to_end"]["max_dev"]["value"]
        if was > 0 and (dev - was) / was > bound:
            bad.append("%s: max_dev %.6g -> %.6g, worse by more than the bound of %.0f%%"
                       % (name, was, dev, 100 * bound))
        print("%s: failed %d/%d, max_dev %.6g -> %.6g" % (name, w["failed"], w["attempted"], was, dev))
        for c in counters:
            ov = o.get("per_layer", {}).get(c, {}).get("value")
            nv = w.get("per_layer", {}).get(c, {}).get("value")
            if ov != nv:
                print("    %-32s %s -> %s" % (c, ov, nv))
    for b in bad:
        print("BAD RECORD: " + b, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
