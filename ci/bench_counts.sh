#!/usr/bin/env bash
# Gate the wall-clock harness in CI on numbers that repeat exactly on any
# runner — never on times.
#
# Input: the `--out` JSON of
#   wallbench --workload <power_warm|scan_cold> --quick --trace 1
# Checked on either workload:
#   * no operation failed and every output matched its reference;
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
#
# Usage: ci/bench_counts.sh /tmp/pw.json [/tmp/sc.json ...]

set -euo pipefail
[[ $# -ge 1 ]] || {
    echo "usage: ci/bench_counts.sh <wallbench --out file>..." >&2
    exit 2
}

gate() { # file workload work_units page_reads extra-jq-condition
    jq -e --arg w "$2" --argjson units "$3" --argjson pages "$4" '
      .workloads[$w] as $w
      | ($w.metrics | map_values(.value)) as $m
      | ($w.failed == 0 and $w.correct)
        and $m."engine.work_units_per_round" == $units
        and $m."engine.scan_pages_read_per_round" == $pages
        and ('"$5"')
    ' "$1" >/dev/null || {
        echo "bench_counts: $2 counters out of bounds:" >&2
        jq --arg w "$2" '.workloads[$w]
            | {failed, correct}
              + (.metrics | with_entries(select(.key | IN(
                  "store_gets_per_round", "buffer.hit_ratio",
                  "engine.work_units_per_round", "engine.scan_pages_read_per_round",
                  "proc.allocs_per_page_read"))) | map_values(.value))' "$1" >&2
        exit 1
    }
    echo "bench_counts: $2 counters hold"
}

for out in "$@"; do
    checked=0
    if jq -e '.workloads | has("power_warm")' "$out" >/dev/null; then
        gate "$out" power_warm 57428790 6551 '
            $m."store_gets_per_round" == 0
            and $m."buffer.hit_ratio" >= 0.999
            and $m."proc.allocs_per_page_read" <= 320'
        checked=1
    fi
    if jq -e '.workloads | has("scan_cold")' "$out" >/dev/null; then
        gate "$out" scan_cold 13760728 2708 true
        checked=1
    fi
    [[ $checked == 1 ]] || {
        echo "bench_counts: $out holds neither power_warm nor scan_cold" >&2
        exit 1
    }
done
