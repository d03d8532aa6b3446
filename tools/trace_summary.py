#!/usr/bin/env python3
"""Summarize an ESSAT trace, or validate an exported Perfetto JSON.

Summary mode (default) reads a JSONL trace (ScenarioConfig.trace.jsonl_path)
and prints:
  * record counts by type
  * channel drop breakdown by attributed reason; a reason outside
    DROP_REASONS fails the run (exit 1)
  * per-hop MAC latency (mac_enqueue -> mac_send_ok, matched on the packet's
    provenance id at each hop): count / mean / p50 / p95 / max
  * fault-event breakdown: fault_down counts by attributed cause
    (scheduled / stochastic, from arg16) plus fault_up pairing
    and total observed downtime
  * packet-conservation check: every chan_tx_begin announces its in-range
    receiver count (arg16); the matching chan_deliver/chan_drop records,
    keyed by tx_id, must add up to exactly that count. Transmissions still
    in flight at the trace tail (within --grace-ms of the last record) are
    skipped. A mismatch is a simulator bug and fails the run (exit 1).
  * fault-attribution check: the per-cause fault_down counts must sum to
    the total fault_down count (no unknown causes), and every fault_up
    must pair with a prior unmatched fault_down on the same node. A
    mismatch fails the run (exit 1).

Check mode (--check) parses a Perfetto trace_event JSON export and verifies
its structure — top-level object, traceEvents array, every event a known
phase with the fields that phase requires — so CI can gate the exporter
without a Perfetto UI in the loop. Exits 1 on any violation or on an empty
trace.

Usage:
  trace_summary.py <trace.jsonl>
  trace_summary.py --check <perfetto.json>
"""
import argparse
import json
import sys
from collections import Counter, defaultdict


# fault_down.arg16 carries the FaultCause enum (src/fault/fault_engine.h).
FAULT_CAUSES = {0: "scheduled", 1: "stochastic"}

# chan_drop reasons, as obs::drop_reason_name spells the DropReason enum
# (src/obs/trace_record.h). "radio_off" is a tree member asleep at frame
# start; "detached" is a node outside the routing tree, which has no radio.
DROP_REASONS = ("collision", "captured", "model", "busy", "self_tx",
                "radio_off", "abandoned", "detached")


def percentile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[idx]


def summarize(path, grace_ms):
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                print(f"FAIL: {path}:{lineno}: bad JSON line: {e}")
                return 1
    if not records:
        print(f"FAIL: {path}: empty trace")
        return 1

    by_type = Counter(r["type"] for r in records)
    print(f"{path}: {len(records)} records, "
          f"{records[0]['t_ns'] / 1e9:.3f}s .. {records[-1]['t_ns'] / 1e9:.3f}s")
    print("\nrecords by type:")
    for name, n in by_type.most_common():
        print(f"  {name:20s} {n}")

    drops = Counter(r.get("reason", "?") for r in records
                    if r["type"] == "chan_drop")
    if drops:
        print("\nchannel drops by reason:")
        for reason, n in drops.most_common():
            print(f"  {reason:20s} {n}")
    unknown_drops = sum(n for reason, n in drops.items()
                        if reason not in DROP_REASONS)

    # Per-hop MAC latency: enqueue -> send_ok on the same (node, prov).
    enqueue_t = {}
    hop_ms = []
    for r in records:
        if r["type"] == "mac_enqueue":
            enqueue_t[(r["node"], r["a"])] = r["t_ns"]
        elif r["type"] == "mac_send_ok":
            t0 = enqueue_t.pop((r["node"], r["a"]), None)
            if t0 is not None:
                hop_ms.append((r["t_ns"] - t0) / 1e6)
    if hop_ms:
        hop_ms.sort()
        mean = sum(hop_ms) / len(hop_ms)
        print(f"\nper-hop MAC latency (enqueue->send_ok, {len(hop_ms)} hops):")
        print(f"  mean={mean:.3f}ms p50={percentile(hop_ms, 0.50):.3f}ms "
              f"p95={percentile(hop_ms, 0.95):.3f}ms max={hop_ms[-1]:.3f}ms")

    # Fault-event breakdown and attribution check: every fault_down carries
    # a known cause in arg16, and every fault_up closes a prior fault_down
    # on the same node (fault_up.a = observed downtime ns).
    downs = [r for r in records if r["type"] == "fault_down"]
    ups = [r for r in records if r["type"] == "fault_up"]
    fault_fail = False
    if downs or ups:
        causes = Counter(FAULT_CAUSES.get(r.get("arg16"), "unknown")
                         for r in downs)
        print("\nfault events:")
        for cause, n in causes.most_common():
            print(f"  down/{cause:15s} {n}")
        total_down_s = sum(r["a"] for r in ups) / 1e9
        print(f"  up                   {len(ups)} "
              f"(observed downtime {total_down_s:.3f}s)")
        attributed = sum(n for c, n in causes.items() if c != "unknown")
        if attributed != len(downs):
            print(f"FAIL: fault cause attribution: {attributed} attributed "
                  f"of {len(downs)} fault_down records")
            fault_fail = True
        open_down = Counter()
        orphan_ups = 0
        for r in records:
            if r["type"] == "fault_down":
                open_down[r["node"]] += 1
            elif r["type"] == "fault_up":
                if open_down[r["node"]] <= 0:
                    orphan_ups += 1
                else:
                    open_down[r["node"]] -= 1
        if orphan_ups:
            print(f"FAIL: {orphan_ups} fault_up record(s) without a matching "
                  f"fault_down on the same node")
            fault_fail = True

    # Conservation: chan_tx_begin.arg16 in-range receivers == deliver+drop.
    t_last = records[-1]["t_ns"]
    tx = {}  # tx_id -> [t_begin, expected, seen]
    for r in records:
        if r["type"] == "chan_tx_begin":
            tx[r["a"]] = [r["t_ns"], r["arg16"], 0]
        elif r["type"] in ("chan_deliver", "chan_drop"):
            s = tx.get(r["a"])
            if s is not None:
                s[2] += 1
    checked = skipped = mismatched = 0
    for tx_id, (t_begin, expected, seen) in tx.items():
        if t_begin > t_last - grace_ms * 1_000_000:
            skipped += 1
            continue
        checked += 1
        if seen != expected:
            mismatched += 1
            if mismatched <= 5:
                print(f"  conservation violation: tx_id={tx_id} "
                      f"expected {expected} receiver records, saw {seen}")
    print(f"\nconservation: {checked} transmissions checked, "
          f"{skipped} in-flight skipped, {mismatched} mismatched")
    if mismatched:
        print("FAIL: packet conservation violated")
        return 1
    if fault_fail:
        print("FAIL: fault attribution violated")
        return 1
    if unknown_drops:
        print(f"FAIL: {unknown_drops} chan_drop record(s) with an unknown reason")
        return 1
    print("OK")
    return 0


# Fields each Perfetto phase must carry, beyond the common pid/tid.
PHASE_FIELDS = {
    "M": ("name", "args"),
    "X": ("ts", "dur", "name"),
    "i": ("ts", "s", "name"),
}


def check_perfetto(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            print(f"FAIL: {path}: not valid JSON: {e}")
            return 1
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        print(f"FAIL: {path}: expected an object with a traceEvents array")
        return 1
    events = doc["traceEvents"]
    if not events:
        print(f"FAIL: {path}: traceEvents is empty")
        return 1
    phases = Counter()
    tracks = set()
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in PHASE_FIELDS:
            print(f"FAIL: {path}: event {i}: unknown phase {ph!r}")
            return 1
        missing = [k for k in ("pid", "tid") + PHASE_FIELDS[ph] if k not in ev]
        if missing:
            print(f"FAIL: {path}: event {i} (ph={ph}): missing {missing}")
            return 1
        phases[ph] += 1
        tracks.add(ev["tid"])
    named = sum(1 for ev in events
                if ev.get("ph") == "M" and ev.get("name") == "thread_name")
    print(f"{path}: {len(events)} events, {len(tracks)} tracks "
          f"({named} named), phases "
          + " ".join(f"{p}={n}" for p, n in sorted(phases.items())))
    print("OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Summarize a JSONL trace or validate a Perfetto export.")
    parser.add_argument("trace", help="trace.jsonl, or perfetto.json with --check")
    parser.add_argument("--check", action="store_true",
                        help="validate Perfetto trace_event JSON structure")
    parser.add_argument("--grace-ms", type=float, default=10.0,
                        help="skip transmissions begun within this window of "
                             "the trace tail (default 10)")
    args = parser.parse_args()
    if args.check:
        return check_perfetto(args.trace)
    return summarize(args.trace, args.grace_ms)


if __name__ == "__main__":
    sys.exit(main())
