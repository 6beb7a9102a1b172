#!/usr/bin/env bash
# Gate the wall-clock harness in CI on numbers that repeat exactly on any
# runner — never on times.
#
# Input: the `--out` JSON of
#   wallbench --workload <power_warm|scan_cold|ingest|txn_churn|all> --quick [--trace 1]
# Checked on every workload: no operation failed and every output matched
# its reference.
#
# An untraced run reports the end-to-end metrics; of those, the stored
# bytes per raw user byte repeat exactly, so each workload's is an
# equality. A sealed page image is header + payload and nothing more, and
# only a block device pads, so tail padding creeping back into objects
# fails here (it would add 38 % on TPC-H and 50 % on `txn_churn`).
# `scan_cold`'s log store has been seen one byte longer in one run of
# several (group-commit batching), so it gets a band of 1e-7: one byte
# moves the ratio by 8e-9, padding by 0.07.
#
# A traced run reports the per-layer metrics. On the two workloads that
# run the plans:
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
#     pages (0.7156: the data compresses, now that no padding pushes the
#     ratio above 1).
# `txn_churn` (one committer: 4-page transactions, GC, snapshots,
# checkpoints, restarts) repeats exactly, so all three are equalities:
#   * PUTs, bytes written per user byte, stored / raw ratio.
# These byte gates pin the length of each page's compressed stream; the
# stream itself is pinned by crates/iq-storage/tests/codec_oracle.rs.
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
                  "storage.compression_ratio", "store_bytes_per_user_byte")))
                | map_values(.value))' "$1" >&2
        exit 1
    }
    echo "bench_counts: $2 counters hold"
}

check() { # file workload untraced-condition traced-condition
    jq -e --arg w "$2" '.workloads | has($w)' "$1" >/dev/null || return 0
    if jq -e --arg w "$2" '.workloads[$w].metrics | has("store_bytes_per_user_byte")' "$1" >/dev/null; then
        gate "$1" "$2" "$3"
    else
        gate "$1" "$2" "$4"
    fi
    checked=1
}

for out in "$@"; do
    checked=0
    check "$out" power_warm '
        $m."store_bytes_per_user_byte" == 0.18970598944610434' '
        $m."engine.work_units_per_round" == 57428790
        and $m."engine.scan_pages_read_per_round" == 6551
        and $m."store_gets_per_round" == 0
        and $m."buffer.hit_ratio" >= 0.999
        and $m."proc.allocs_per_page_read" <= 320'
    check "$out" scan_cold '
        ($m."store_bytes_per_user_byte" - 0.18964338001037345 | fabs) < 1e-7' '
        $m."engine.work_units_per_round" == 13760728
        and $m."engine.scan_pages_read_per_round" == 2708'
    check "$out" ingest '
        $m."store_bytes_per_user_byte" == 0.18643195247166705' '
        $m."objectstore.puts" <= 500
        and $m."engine.scan_pages_read_per_round" <= 600
        and $m."objectstore.bytes_written_per_user_byte" == 0.21103003454844854
        and $m."storage.compression_ratio" == 0.7156345347698061'
    check "$out" txn_churn '
        $m."store_bytes_per_user_byte" == 5.460058212280273' '
        $m."objectstore.puts" == 8971
        and $m."objectstore.bytes_written_per_user_byte" == 1.0441131998697917
        and $m."storage.compression_ratio" == 1.0441131998697917'
    [[ $checked == 1 ]] || {
        echo "bench_counts: $out holds none of power_warm, scan_cold, ingest, txn_churn" >&2
        exit 1
    }
done
