#!/usr/bin/env python3
"""CI gate: a bookleaf.live/1 NDJSON stream must be well-formed.

    validate_live_stream.py run.ndjson [--expect-stall] [--expect-recovery]

Checks (stdlib only, one JSON object per line):
  * every line parses as a JSON object carrying "event" and "seq";
  * "seq" counts exactly 0..n-1 in file order (nothing lost, nothing
    reordered — the stream is flushed per line precisely so a killed run
    leaves a gapless prefix);
  * the first event is run_start with schema "bookleaf.live/1", and —
    for a run that ended — the last is run_end;
  * only known event kinds appear (run_start, window, imbalance, stall,
    recovery, run_end);
  * every window, imbalance, stall and recovery event carries the
    "attempt" it belongs to (both drivers share one event schema);
  * per (attempt, rank), window indices count 0,1,2,... in arrival
    order (the tag-502 channel is FIFO);
  * every imbalance event carries max_over_mean >= 1 and a slowest rank;
  * run_end's "stalls" matches the stall events counted in the file;
  * with --expect-stall / --expect-recovery, at least one such event
    must be present (the watchdog smoke asserts its detection fired).

Exit status 0 on success, 1 with a diagnostic on the first violation.
"""

import argparse
import json
import sys

KNOWN_EVENTS = {
    "run_start", "window", "imbalance", "stall", "recovery", "run_end",
}
ATTEMPT_EVENTS = {"window", "imbalance", "stall", "recovery"}


def fail(msg):
    print(f"validate_live_stream: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("stream", help="NDJSON live stream to validate")
    ap.add_argument("--expect-stall", action="store_true",
                    help="require at least one stall event")
    ap.add_argument("--expect-recovery", action="store_true",
                    help="require at least one recovery event")
    args = ap.parse_args()

    events = []
    with open(args.stream, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                fail(f"line {lineno}: empty line inside the stream")
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"line {lineno}: not valid JSON ({e})")
            if not isinstance(ev, dict):
                fail(f"line {lineno}: not a JSON object")
            if "event" not in ev or "seq" not in ev:
                fail(f"line {lineno}: missing 'event' or 'seq'")
            if ev["event"] not in KNOWN_EVENTS:
                fail(f"line {lineno}: unknown event '{ev['event']}'")
            if ev["seq"] != lineno - 1:
                fail(f"line {lineno}: seq {ev['seq']}, expected {lineno - 1}"
                     " (lost or reordered events)")
            if ev["event"] in ATTEMPT_EVENTS and "attempt" not in ev:
                fail(f"line {lineno}: {ev['event']} event missing 'attempt'")
            events.append(ev)

    if not events:
        fail("stream is empty")
    first = events[0]
    if first["event"] != "run_start":
        fail(f"first event is '{first['event']}', expected run_start")
    if first.get("schema") != "bookleaf.live/1":
        fail(f"run_start schema is {first.get('schema')!r}, "
             "expected 'bookleaf.live/1'")
    last = events[-1]
    if last["event"] != "run_end":
        fail(f"last event is '{last['event']}', expected run_end "
             "(run did not finish?)")

    # Per-(attempt, rank) window ordinals must arrive in FIFO order.
    next_index = {}
    stalls = recoveries = 0
    for ev in events:
        kind = ev["event"]
        if kind == "window":
            rec = ev.get("record", {})
            key = (ev["attempt"], rec.get("rank"))
            want = next_index.get(key, 0)
            if rec.get("index") != want:
                fail(f"seq {ev['seq']}: rank {key[1]} window index "
                     f"{rec.get('index')}, expected {want}")
            next_index[key] = want + 1
        elif kind == "imbalance":
            if ev.get("max_over_mean", 0) < 1.0:
                fail(f"seq {ev['seq']}: imbalance max_over_mean "
                     f"{ev.get('max_over_mean')} < 1")
            if "slowest_rank" not in ev:
                fail(f"seq {ev['seq']}: imbalance missing slowest_rank")
        elif kind == "stall":
            stalls += 1
        elif kind == "recovery":
            recoveries += 1

    if last.get("stalls") != stalls:
        fail(f"run_end reports {last.get('stalls')} stalls, "
             f"stream contains {stalls}")
    if args.expect_stall and stalls == 0:
        fail("expected at least one stall event, found none")
    if args.expect_recovery and recoveries == 0:
        fail("expected at least one recovery event, found none")

    windows = sum(1 for ev in events if ev["event"] == "window")
    print(f"validate_live_stream: OK: {len(events)} events, "
          f"{windows} windows, {stalls} stalls, {recoveries} recoveries")


if __name__ == "__main__":
    main()
