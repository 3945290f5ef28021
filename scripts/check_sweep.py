#!/usr/bin/env python3
"""Validate a directory of mspdsm-sweep-v1 records (the --json output
of the fig/table binaries; it must include fig11_recovery.json).

Every run must carry the additive contention, transport-efficiency
and fault fields (all-zero with "faulted": false when no fault plan
was configured), and the fig11_recovery record must show the plan
actually executed. events_per_message is the event kernel's
dispatches per message: every run with traffic must report a positive
ratio.

Usage: check_sweep.py DIR. Exit status: 0 ok, 1 check failed.
"""

import glob
import json
import os
import sys


def check(cond, *ctx):
    """An assert that python -O cannot strip."""
    if not cond:
        sys.exit(f"check_sweep: FAIL: {ctx!r}")


root = sys.argv[1]
paths = sorted(glob.glob(os.path.join(root, "*.json")))
for path in paths:
    rec = json.load(open(path))
    for r in rec["runs"]:
        for k in ("queueing_cycles", "link_queueing_cycles",
                  "events_dispatched", "events_per_message",
                  "faulted", "kill_tick", "restart_tick",
                  "recovered_tick", "rehome_syncs",
                  "ckpt_messages", "retries", "nacks_seen",
                  "timeouts", "stale_fills", "dir_aborts",
                  "shard_deltas", "shard_syncs", "failbacks",
                  "misrouted_dropped", "link_drops",
                  "retransmits", "miss_lat_p50",
                  "miss_lat_p90", "miss_lat_p99",
                  "series_interval", "series"):
            check(k in r, path, r.get("label"), k)
        if r["messages"] > 0:
            check(r["events_dispatched"] > 0
                  and r["events_per_message"] > 0, path, r["label"])
        # Always-on latency percentiles: present and ordered on every
        # record, positive wherever misses ran.
        check(0 <= r["miss_lat_p50"] <= r["miss_lat_p90"]
              <= r["miss_lat_p99"], path, r["label"])
        if r["reads"] + r["writes"] > 0:
            check(r["miss_lat_p99"] > 0, path, r["label"])
        if "fig11" not in os.path.basename(path):
            check(r["faulted"] is False, path, r["label"])
            check(r["retries"] == 0, path, r["label"])
            # No sampler configured -> gated off entirely.
            check(r["series_interval"] == 0 and r["series"] == [],
                  path, r["label"])
f11 = json.load(open(os.path.join(root, "fig11_recovery.json")))
check(all(r["faulted"] for r in f11["runs"]))
# fig11 samples by default: every record's time-series must bracket
# the outage -- samples before the kill, inside the outage window, and
# after the restart, with cumulative ops monotone across them.
for r in f11["runs"]:
    check(r["series_interval"] > 0, r["label"])
    ticks = [s["tick"] for s in r["series"]]
    check(ticks == sorted(ticks), r["label"])
    check(any(t < r["kill_tick"] for t in ticks), r["label"])
    check(any(r["kill_tick"] <= t < r["restart_tick"] for t in ticks),
          r["label"])
    check(any(t >= r["restart_tick"] for t in ticks), r["label"])
    ops = [s["ops"] for s in r["series"]]
    check(ops == sorted(ops), r["label"])
check(all(r["kill_tick"] > 0 for r in f11["runs"]))
check(all(r["recovered_tick"] >= r["restart_tick"] > 0
          for r in f11["runs"]))
# Every restart is a fail-back: the victim re-adopts its shard from
# the interim host.
check(all(r["failbacks"] > 0 for r in f11["runs"]))
# The recovery-traffic split: " repl" cells pay ShardSync during
# normal operation and no survivor sweep at all; " sweep" cells are
# the exact opposite.
repl = [r for r in f11["runs"] if " repl" in r["label"]]
swp = [r for r in f11["runs"] if " sweep" in r["label"]]
check(repl and swp, [r["label"] for r in f11["runs"]])
check(all(r["shard_syncs"] > 0 and r["rehome_syncs"] == 0
          for r in repl), repl)
check(all(r["rehome_syncs"] > 0 and r["shard_syncs"] == 0
          for r in swp), swp)
print(f"validated fault fields in {len(paths)} records")
