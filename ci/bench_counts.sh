#!/usr/bin/env bash
# Gate the wall-clock harness in CI on numbers that repeat exactly on any
# runner — never on times.
#
# Input: the `--out` JSON of
#   wallbench --workload <power_warm|scan_cold|ingest|txn_churn> --quick --trace 1
# Checked on every workload: no operation failed and every output matched
# its reference. On the two that run the plans, also:
#   * the engine did exactly the metered work and page reads it has done
#     since the harness landed (a kernel or a plan that changes either
#     changed the modeled CPU seconds or the scan's I/O, not just its
#     speed).
# And on `power_warm` (Q1-Q22, everything buffered):
#   * the store stayed idle and the buffer held everything (0 GETs a
#     round, hit ratio >= 0.999), so the round is the engine's;
#   * allocations per page read stay under the ceiling the
#     column-at-a-time kernels set (the row-at-a-time engine: 1 279).
# `scan_cold` (Q6 / Q14 / Q15 / Q19 after a restart) is the second
# workload that runs the plans; its `store_gets_per_round` is not gated:
# OCM populate is asynchronous, so it wobbles by a GET or two run to run.
# `ingest` (load, two RF1 + RF2 pairs, GC, compaction, restart) is gated
# on ceilings, not equalities — its PUT count jitters by half a percent
# run to run:
#   * <= 500 data-store PUTs and <= 600 scanned pages a round. A refresh
#     writes the row groups it changes (400 and 346 measured); one that
#     rewrites `orders` and `lineitem` whole costs 1 900 and 2 554.
# Its bytes are gated exactly (three runs of the commit before the page
# codec was rewritten agreed to the last digit, PUT count included; the
# PUT count stays a ceiling because full-length runs have seen it move):
#   * bytes written per user byte and the stored / raw ratio of sealed
#     pages. These pin the padded image bytes, not the page compressor's
#     token stream: images are padded to whole blocks, so a parse that
#     finds other matches can leave both where they were (the skip-ahead
#     matcher changed 315 of 1 462 TPC-H streams and neither number).
#     crates/iq-storage/tests/codec_oracle.rs pins the stream.
# `txn_churn` (one committer: 4-page transactions, GC, snapshots,
# checkpoints, restarts) repeats exactly, so all three are equalities:
#   * PUTs, bytes written per user byte, stored / raw ratio.
#
# Usage: ci/bench_counts.sh /tmp/pw.json [/tmp/sc.json /tmp/in.json /tmp/tc.json ...]

set -euo pipefail
[[ $# -ge 1 ]] || {
    echo "usage: ci/bench_counts.sh <wallbench --out file>..." >&2
    exit 2
}

gate() { # file workload jq-condition over $m, the metric values
    jq -e --arg w "$2" '
      .workloads[$w] as $w
      | ($w.metrics | map_values(.value)) as $m
      | ($w.failed == 0 and $w.correct) and ('"$3"')
    ' "$1" >/dev/null || {
        echo "bench_counts: $2 counters out of bounds:" >&2
        jq --arg w "$2" '.workloads[$w]
            | {failed, correct}
              + (.metrics | with_entries(select(.key | IN(
                  "store_gets_per_round", "buffer.hit_ratio",
                  "engine.work_units_per_round", "engine.scan_pages_read_per_round",
                  "proc.allocs_per_page_read", "objectstore.puts",
                  "objectstore.bytes_written_per_user_byte",
                  "storage.compression_ratio"))) | map_values(.value))' "$1" >&2
        exit 1
    }
    echo "bench_counts: $2 counters hold"
}

for out in "$@"; do
    checked=0
    if jq -e '.workloads | has("power_warm")' "$out" >/dev/null; then
        gate "$out" power_warm '
            $m."engine.work_units_per_round" == 57428790
            and $m."engine.scan_pages_read_per_round" == 6551
            and $m."store_gets_per_round" == 0
            and $m."buffer.hit_ratio" >= 0.999
            and $m."proc.allocs_per_page_read" <= 320'
        checked=1
    fi
    if jq -e '.workloads | has("scan_cold")' "$out" >/dev/null; then
        gate "$out" scan_cold '
            $m."engine.work_units_per_round" == 13760728
            and $m."engine.scan_pages_read_per_round" == 2708'
        checked=1
    fi
    if jq -e '.workloads | has("ingest")' "$out" >/dev/null; then
        gate "$out" ingest '
            $m."objectstore.puts" <= 500
            and $m."engine.scan_pages_read_per_round" <= 600
            and $m."objectstore.bytes_written_per_user_byte" == 0.3038639243162959
            and $m."storage.compression_ratio" == 1.0304481946217767'
        checked=1
    fi
    if jq -e '.workloads | has("txn_churn")' "$out" >/dev/null; then
        gate "$out" txn_churn '
            $m."objectstore.puts" == 8971
            and $m."objectstore.bytes_written_per_user_byte" == 1.7486667277018229
            and $m."storage.compression_ratio" == 1.7486667277018229'
        checked=1
    fi
    [[ $checked == 1 ]] || {
        echo "bench_counts: $out holds none of power_warm, scan_cold, ingest, txn_churn" >&2
        exit 1
    }
done
